"""Acceptance suite: one test per pipeline-level requirement.

Each test prints a single PASS/FAIL line with the measured quantities so
a full run reads as a ten-line scorecard. The statistical criteria (7-9)
retrain the detector on synthetic scenes and dominate the runtime; the
whole file takes several minutes on a desktop CPU, most of it in the
ten trainings of the five-seed comparison.
"""

import filecmp
import math
import time
from dataclasses import replace

import numpy as np

from lidardet.bevraster import RangeSpec, rasterize
from lidardet.boxgeom import (Box3D, bev_corners, box_extents, iou_3d,
                              iou_bev_rotated, nms_indices)
from lidardet.cli import run as cli_run
from lidardet.codec import (RPN_DIM, decode_frh, decode_rpn, encode_frh,
                            encode_rpn, kmeans_anchor_dims)
from lidardet.losses import attenuated_term
from lidardet.metrics import average_precision, evaluate
from lidardet.model import (AnchorLayout, InferConfig, TrainConfig,
                            anchor_features, build_anchor_set,
                            build_training_set, gradcheck, infer, train)
from lidardet.pcio import PointCloud
from lidardet.synthgen import (DEFAULT_SCENE_RANGE, SceneSpec,
                               generate_scenes)
from lidardet.uncstats import (binned_means, pearson,
                               records_from_detections)

FULL_RANGE = RangeSpec()

# Training setup shared by the statistical criteria: deep car placement,
# dense sampling, strong per-object label noise with an outlier mixture.
BENCH_SCENE = dict(num_cars=6, x_min=20.0, point_budget=1000,
                   density_exponent=1.2)
BENCH_TRAIN = dict(learning_rate=1e-3, phase1_steps=3000, phase2_steps=9000,
                   decay_every=3000, dropout_rate=0.2, outlier_prob=0.2,
                   outlier_scale=4.0, rpn_noise_scale=3.0,
                   loc_noise_scale=3.0, orient_noise_scale=3.0)


def report(capsys, idx, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {idx:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def fit_layout(scenes):
    dims = np.array([[g.box.l, g.box.w, g.box.h]
                     for s in scenes for g in s.gts])
    shapes = kmeans_anchor_dims(dims, k=2, seed=0)
    return AnchorLayout(shapes=tuple(map(tuple, shapes)))


def train_on(scenes, cfg, layout, training_set=None):
    if training_set is None:
        training_set = build_training_set(scenes, layout, DEFAULT_SCENE_RANGE,
                                          cfg)
    params, _ = train(training_set, cfg, layout)
    return params, training_set


def detect_shared(models, scenes, layout):
    """Per-scene inference for several models, reusing anchor features."""
    aset = build_anchor_set(layout, DEFAULT_SCENE_RANGE)
    pool = models[0].pool_blocks
    per_model = [[] for _ in models]
    for scene in scenes:
        grid = rasterize(scene.cloud, DEFAULT_SCENE_RANGE)
        feats = anchor_features(grid, aset, pool)
        for out, params in zip(per_model, models):
            out.append(infer(params, grid, InferConfig(),
                             frame_id=scene.cloud.frame_id,
                             anchor_feats=feats))
    return per_model


def matched_records(scenes, dets_per_scene):
    recs = []
    for scene, dets in zip(scenes, dets_per_scene):
        recs += [r for r in records_from_detections(dets, scene.gts,
                                                    scene.noise)
                 if r.difficulty and math.isfinite(r.sigma_label)]
    return recs


# ---------------------------------------------------------------------------
# 1. gradient fidelity

def test_criterion_01_gradient_fidelity(capsys):
    t0 = time.monotonic()
    ok, lines = gradcheck(seeds=20, rtol=1e-4)
    dt = time.monotonic() - t0
    ok = ok and dt < 60.0
    report(capsys, 1, ok,
           f"all analytic partials within rel 1e-4 of central differences "
           f"over 20 seeds in {dt:.1f}s (< 60s)")
    assert ok, "\n".join(lines)


# ---------------------------------------------------------------------------
# 2. attenuated-term behavior

def scan_minimizer(loss, form):
    """Coarse-to-fine argmin of the attenuated term over s (convex in s)."""
    lo, hi = math.log(loss) - 5.0, math.log(loss) + 5.0
    for _ in range(3):
        grid = np.linspace(lo, hi, 2001)
        vals = [attenuated_term(loss, float(s), form)[0] for s in grid]
        i = int(np.argmin(vals))
        lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, 2000)])
    return 0.5 * (lo + hi)


def test_criterion_02_attenuation_behavior(capsys):
    rng = np.random.default_rng(2)
    worst = 0.0
    for loss in np.exp(rng.uniform(-2.5, 2.5, 10)):
        s_star = scan_minimizer(float(loss), "laplace")
        worst = max(worst, abs(s_star - math.log(loss)))
    minimizer_ok = worst <= 1e-6

    s_grid = np.linspace(-6.0, 6.0, 121)
    weights = np.array([attenuated_term(1.7, float(s), "gaussian")[1]
                        for s in s_grid])
    weight_ok = (np.allclose(weights, 0.5 * np.exp(-s_grid), rtol=1e-12)
                 and bool(np.all(np.diff(weights) < 0.0)))
    ok = minimizer_ok and weight_ok
    report(capsys, 2, ok,
           f"scanned minimizer matches ln L within {worst:.2e} (<= 1e-6); "
           f"residual weight equals 0.5*exp(-s) and is strictly decreasing")
    assert ok


# ---------------------------------------------------------------------------
# 3. rasterization exactness

def brute_raster(points, spec):
    heights = np.full((spec.n_rows, spec.n_cols, spec.num_slices), spec.z_min)
    counts = np.zeros((spec.n_rows, spec.n_cols), dtype=int)
    for x, y, z in points[:, :3]:
        if not (spec.x_min <= x < spec.x_max and spec.y_min <= y < spec.y_max
                and spec.z_min <= z <= spec.z_max):
            continue
        r = int(math.floor((x - spec.x_min) / spec.xy_resolution))
        c = int(math.floor((y - spec.y_min) / spec.xy_resolution))
        s = min(int(math.floor((z - spec.z_min) / spec.slice_height)),
                spec.num_slices - 1)
        heights[r, c, s] = max(heights[r, c, s], z)
        counts[r, c] += 1
    density = np.minimum(1.0, np.log(counts + 1.0) / np.log(16.0))
    return heights, density


def test_criterion_03_rasterization(capsys):
    worst = 0.0
    for n in (0, 1, 3, 15, 50):
        pts = np.tile([10.05, -20.05, 1.0, 0.5], (n, 1))
        grid = rasterize(PointCloud(points=pts.reshape(n, 4), frame_id=""),
                         FULL_RANGE)
        expect = min(1.0, math.log(n + 1) / math.log(16.0))
        worst = max(worst, abs(float(grid.density[100, 199]) - expect))
    density_ok = worst <= 1e-12
    shape_ok = grid.heights.shape == (700, 800, 5) and grid.channels == 6

    rng = np.random.default_rng(3)
    oracle_ok = True
    for _ in range(20):
        n = int(rng.integers(500, 4000))
        pts = np.column_stack([rng.uniform(-5, 75, n), rng.uniform(-45, 45, n),
                               rng.uniform(-0.5, 3.0, n), rng.random(n)])
        grid = rasterize(PointCloud(points=pts, frame_id=""), FULL_RANGE)
        want_h, want_d = brute_raster(pts, FULL_RANGE)
        oracle_ok = oracle_ok and np.array_equal(grid.heights, want_h) \
            and np.array_equal(grid.density, want_d)
    ok = density_ok and shape_ok and oracle_ok
    report(capsys, 3, ok,
           f"density law exact to {worst:.1e} (<= 1e-12) for N in "
           f"{{0,1,3,15,50}}; 700x800x6 grid; 20-cloud brute-force equality")
    assert ok


# ---------------------------------------------------------------------------
# 4. codec roundtrips

def test_criterion_04_codec_roundtrips(capsys):
    rng = np.random.default_rng(4)

    def yaw_free():
        return Box3D(cx=rng.uniform(5, 65), cy=rng.uniform(-35, 35),
                     cz=rng.uniform(0.3, 1.5), l=rng.uniform(2.5, 5.5),
                     w=rng.uniform(1.2, 2.4), h=rng.uniform(1.0, 2.2), yaw=0.0)

    worst_rpn = 0.0
    for _ in range(1000):
        anchor, gt = yaw_free(), yaw_free()
        back = decode_rpn(anchor, encode_rpn(anchor, gt))
        for f in ("cx", "cy", "cz", "l", "w", "h"):
            worst_rpn = max(worst_rpn, abs(getattr(back, f) - getattr(gt, f)))

    worst_frh = 0.0
    for _ in range(1000):
        roi = yaw_free()
        gt = Box3D(roi.cx + rng.uniform(-1, 1), roi.cy + rng.uniform(-1, 1),
                   rng.uniform(0.3, 1.5), rng.uniform(3.0, 5.0),
                   rng.uniform(1.4, 2.2), rng.uniform(1.2, 2.0),
                   rng.uniform(-math.pi / 4, math.pi / 4))
        t_v, r_v = encode_frh(roi, gt)
        back = decode_frh(roi, t_v, r_v)
        for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
            worst_frh = max(worst_frh, abs(getattr(back, f) - getattr(gt, f)))

    anchor = Box3D(24.0, -8.0, 0.8, 4.2, 1.8, 1.6, 0.0)
    zero_rpn = np.array_equal(encode_rpn(anchor, anchor), np.zeros(RPN_DIM))
    back = decode_rpn(anchor, np.zeros(RPN_DIM))
    zero_rpn = zero_rpn and all(getattr(back, f) == getattr(anchor, f)
                                for f in ("cx", "cy", "cz", "l", "w", "h"))
    t_v, r_v = encode_frh(anchor, anchor)
    ident = decode_frh(anchor, t_v, r_v)
    zero_frh = (np.allclose(t_v[:8], 0.0, atol=0.0)
                and r_v[0] == 1.0 and r_v[1] == 0.0
                and all(abs(getattr(ident, f) - getattr(anchor, f)) <= 1e-12
                        for f in ("cx", "cy", "cz", "l", "w", "h", "yaw")))
    ok = worst_rpn < 1e-9 and worst_frh < 1e-6 and zero_rpn and zero_frh
    report(capsys, 4, ok,
           f"1000-pair roundtrips: stage-1 worst {worst_rpn:.1e} (< 1e-9), "
           f"stage-2 worst {worst_frh:.1e} (< 1e-6, |yaw| <= pi/4); "
           f"zero-offset identities exact")
    assert ok


# ---------------------------------------------------------------------------
# 5. geometry oracles

def _inside_bev(box, xs, ys):
    dx, dy = xs - box.cx, ys - box.cy
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx = dx * c + dy * s
    ly = -dx * s + dy * c
    return (np.abs(lx) <= 0.5 * box.l) & (np.abs(ly) <= 0.5 * box.w)


def mc_ious(rng, a, b, n=1_000_000):
    corners = np.vstack([bev_corners(a), bev_corners(b)])
    x0, y0 = corners.min(axis=0)
    x1, y1 = corners.max(axis=0)
    xs = rng.uniform(x0, x1, n)
    ys = rng.uniform(y0, y1, n)
    in_a = _inside_bev(a, xs, ys)
    in_b = _inside_bev(b, xs, ys)
    union = int(np.count_nonzero(in_a | in_b))
    bev = np.count_nonzero(in_a & in_b) / union if union else 0.0
    z0 = min(a.cz - 0.5 * a.h, b.cz - 0.5 * b.h)
    z1 = max(a.cz + 0.5 * a.h, b.cz + 0.5 * b.h)
    zs = rng.uniform(z0, z1, n)
    va = in_a & (np.abs(zs - a.cz) <= 0.5 * a.h)
    vb = in_b & (np.abs(zs - b.cz) <= 0.5 * b.h)
    union3 = int(np.count_nonzero(va | vb))
    vol = np.count_nonzero(va & vb) / union3 if union3 else 0.0
    return bev, vol


def _aa_iou(a, b):
    ix = max(0.0, min(a.cx + a.l / 2, b.cx + b.l / 2)
             - max(a.cx - a.l / 2, b.cx - b.l / 2))
    iy = max(0.0, min(a.cy + a.w / 2, b.cy + b.w / 2)
             - max(a.cy - a.w / 2, b.cy - b.w / 2))
    inter = ix * iy
    return inter / (a.l * a.w + b.l * b.w - inter) if inter else 0.0


def brute_greedy_nms(boxes, scores, threshold, keep_max):
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept, dead = [], set()
    for i in order:
        if i in dead:
            continue
        kept.append(i)
        if len(kept) == keep_max:
            break
        for j in order:
            if j not in dead and j != i \
                    and _aa_iou(boxes[i], boxes[j]) > threshold:
                dead.add(j)
    return kept


def test_criterion_05_geometry_oracles(capsys):
    rng = np.random.default_rng(5)
    worst_bev = worst_3d = 0.0
    for _ in range(50):
        a = Box3D(rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0, 1),
                  rng.uniform(2, 5), rng.uniform(1, 3), rng.uniform(1, 2),
                  rng.uniform(-math.pi, math.pi))
        b = Box3D(a.cx + rng.uniform(-3, 3), a.cy + rng.uniform(-3, 3),
                  rng.uniform(0, 1), rng.uniform(2, 5), rng.uniform(1, 3),
                  rng.uniform(1, 2), rng.uniform(-math.pi, math.pi))
        mc_bev, mc_3d = mc_ious(rng, a, b)
        worst_bev = max(worst_bev, abs(iou_bev_rotated(a, b) - mc_bev))
        worst_3d = max(worst_3d, abs(iou_3d(a, b) - mc_3d))
    iou_ok = worst_bev <= 0.01 and worst_3d <= 0.01

    nms_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 16))
        pairs = [(Box3D(rng.uniform(-8, 8), rng.uniform(-8, 8), 1.0,
                        rng.uniform(2, 5), rng.uniform(1, 3), 1.5, 0.0),
                  float(rng.choice([0.2, 0.4, 0.6, 0.8, 0.9])))
                 for _ in range(n)]
        boxes = [box for box, _ in pairs]
        scores = np.array([score for _, score in pairs])
        threshold = float(rng.choice([0.2, 0.4, 0.6]))
        keep_max = int(rng.integers(1, n + 1)) if rng.random() < 0.3 else n
        got = nms_indices(box_extents(boxes), scores, threshold, keep_max)
        want = brute_greedy_nms(boxes, scores, threshold, keep_max)
        nms_ok = nms_ok and list(got) == want
    ok = iou_ok and nms_ok
    report(capsys, 5, ok,
           f"50-pair Monte Carlo (1e6 samples): worst BEV gap "
           f"{worst_bev:.4f}, worst 3D gap {worst_3d:.4f} (<= 0.01); "
           f"NMS equals greedy oracle on 100 sets")
    assert ok


# ---------------------------------------------------------------------------
# 6. average-precision oracle

def reference_ap(num_gt, scores, flags):
    pairs = sorted(zip(scores, range(len(scores))), key=lambda t: (-t[0], t[1]))
    tp = 0
    curve = []
    for rank, (_, i) in enumerate(pairs, start=1):
        tp += 1 if flags[i] else 0
        curve.append((tp / num_gt, tp / rank))
    total = 0.0
    for r in [i / 10 for i in range(11)]:
        best = 0.0
        for recall, precision in curve:
            if recall >= r and precision > best:
                best = precision
        total += best
    return total / 11.0


def test_criterion_06_ap_oracle(capsys):
    rng = np.random.default_rng(6)
    sweep_ok = True
    for _ in range(50):
        num_gt = int(rng.integers(1, 20))
        n = int(rng.integers(0, 30))
        scores = rng.choice(np.linspace(0.05, 0.95, 10), size=n)
        flags = rng.random(n) < 0.5
        if flags.sum() > num_gt:
            flags[np.flatnonzero(flags)[num_gt:]] = False
        sweep_ok = sweep_ok and (average_precision(num_gt, scores, flags)
                                 == reference_ap(num_gt, scores, flags))
    hand_ok = (average_precision(3, [0.9, 0.8, 0.7], [True] * 3) == 1.0
               and average_precision(4, [], []) == 0.0
               and average_precision(1, [0.9, 0.5], [True, False]) == 1.0)
    ok = sweep_ok and hand_ok
    report(capsys, 6, ok,
           "11-point AP equals independent reference exactly on 50 random "
           "sweeps; hand cases 1.0 / 0.0 / 1.0 hold")
    assert ok


# ---------------------------------------------------------------------------
# 7. uncertainty tracks the injected noise

def test_criterion_07_uncertainty_learning(capsys):
    t0 = time.monotonic()
    gen = SceneSpec(seed=100, **BENCH_SCENE)
    train_scenes = generate_scenes(gen, 200)
    eval_scenes = generate_scenes(replace(gen, seed=900), 60)
    layout = fit_layout(train_scenes)
    cfg = TrainConfig(seed=0, **{**BENCH_TRAIN, "phase1_steps": 4000,
                                 "phase2_steps": 12000, "decay_every": 4000})
    params, _ = train_on(train_scenes, cfg, layout)
    dets = detect_shared([params], eval_scenes, layout)[0]
    recs = matched_records(eval_scenes, dets)
    tv = np.array([r.rpn_tv + r.frh_loc_tv + r.frh_orient_tv for r in recs])
    sigma = np.array([r.sigma_label for r in recs])
    pcc = pearson(tv, sigma)

    dist = np.array([r.distance for r in recs])
    bins = np.digitize(dist, [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]) - 1
    occupied = sorted(set(bins.tolist()))
    near = float(tv[bins == occupied[0]].mean())
    far = float(tv[bins == occupied[-1]].mean())
    dt = time.monotonic() - t0
    ok = pcc >= 0.6 and far > near and dt < 600.0
    report(capsys, 7, ok,
           f"200 train scenes: PCC(total variance, sigma_label) = {pcc:.3f} "
           f"(>= 0.6) over {len(recs)} matched detections; farthest-bin mean "
           f"TV {far:.2f} > nearest {near:.2f}; {dt:.0f}s (< 600s)")
    assert ok


# ---------------------------------------------------------------------------
# 8. attenuation beats the matched baseline on the Hard subset

def test_criterion_08_attenuation_gain(capsys):
    deltas = []
    for k in range(5):
        gen = SceneSpec(seed=100 + 1000 * k, **BENCH_SCENE)
        train_scenes = generate_scenes(gen, 150)
        eval_scenes = generate_scenes(replace(gen, seed=900 + 1000 * k), 40)
        layout = fit_layout(train_scenes)
        att_cfg = TrainConfig(seed=k, **BENCH_TRAIN)
        base_cfg = TrainConfig(seed=k, **{**BENCH_TRAIN,
                                          "phase1_steps": 12000,
                                          "phase2_steps": 0})
        att_params, training_set = train_on(train_scenes, att_cfg, layout)
        base_params, _ = train_on(train_scenes, base_cfg, layout,
                                  training_set=training_set)
        det_att, det_base = detect_shared([att_params, base_params],
                                          eval_scenes, layout)
        gts = [s.gts for s in eval_scenes]
        ap_att = evaluate(det_att, gts, iou_bev_rotated, 0.5)
        ap_base = evaluate(det_base, gts, iou_bev_rotated, 0.5)
        deltas.append(ap_att.by_difficulty["Hard"]
                      - ap_base.by_difficulty["Hard"])
    mean_delta = float(np.mean(deltas))
    ok = mean_delta >= 0.01
    detail = ", ".join(f"{d:+.3f}" for d in deltas)
    report(capsys, 8, ok,
           f"Hard AP_BEV@0.5 attenuated minus baseline per seed [{detail}]; "
           f"mean {mean_delta:+.4f} (>= +0.01 and above baseline on average)")
    assert ok


# ---------------------------------------------------------------------------
# 9. orientation variance grows with base-angle offset

def test_criterion_09_base_angle_analysis(capsys):
    gen = SceneSpec(seed=100, num_cars=6, x_min=22.0, x_max=34.0,
                    point_budget=1000, density_exponent=1.2,
                    noise_angle=0.25, p_base=0.8)
    train_scenes = generate_scenes(gen, 150)
    eval_scenes = generate_scenes(replace(gen, seed=900), 80)
    layout = fit_layout(train_scenes)
    cfg = TrainConfig(seed=0, **BENCH_TRAIN)
    params, _ = train_on(train_scenes, cfg, layout)
    dets = detect_shared([params], eval_scenes, layout)[0]
    # every detection carries a yaw and an orientation variance, so the
    # angle analysis pools all of them, matched or not
    recs = []
    for scene, scene_dets in zip(eval_scenes, dets):
        recs += records_from_detections(scene_dets, scene.gts, scene.noise)
    stats = binned_means(recs, "angle_offset",
                         np.linspace(0.0, math.pi / 4, 6),
                         value="frh_orient_tv")
    filled = all(s.count > 0 for s in stats)
    means = np.array([s.mean if s.count else np.nan for s in stats],
                     dtype=np.float64)
    centers = np.array([s.center for s in stats])
    nondecreasing = filled and bool(np.all(np.diff(means) >= -1e-12))
    pcc = pearson(centers, means) if filled else float("nan")
    ok = nondecreasing and pcc >= 0.8
    shown = ", ".join(f"{m:.3f}" for m in means) if filled else "empty bin"
    report(capsys, 9, ok,
           f"orientation TV by angle-offset bin [{shown}] nondecreasing; "
           f"PCC(bin center, bin mean) = {pcc:.3f} (>= 0.8)")
    assert ok


# ---------------------------------------------------------------------------
# 10. pipeline determinism

PIPELINE_CONFIG = """\
seed = 0
raster.x_max = 32.0
raster.y_min = -16.0
raster.y_max = 16.0
raster.xy_resolution = 0.5
scene.num_cars = 4
scene.x_min = 4.0
scene.x_max = 28.0
scene.y_min = -10.0
scene.y_max = 10.0
scene.point_budget = 600
train.phase1_steps = 40
train.phase2_steps = 40
train.decay_every = 40
train.hidden1 = 16
train.hidden2 = 16
train.pool_blocks = 2
train.pos_cap = 16
train.neg_per_scene = 16
train.roi_jitter = 2
train.roi_negatives = 6
infer.pre_nms_top = 256
infer.proposal_count = 32
"""


def run_pipeline(root, cfg_path):
    scenes = root / "scenes"
    dets = root / "dets"
    steps = [
        ["synth", "--spec", str(cfg_path), "--count", "6",
         "--out", str(scenes)],
        ["train", "--data", str(scenes), "--config", str(cfg_path),
         "--out-params", str(root / "model.bin"),
         "--log", str(root / "train_log.csv")],
        ["infer", "--params", str(root / "model.bin"), "--data", str(scenes),
         "--out", str(dets), "--config", str(cfg_path),
         "--records", str(root / "records.csv")],
        ["eval", "--dets", str(dets), "--gts", str(scenes), "--iou", "0.1",
         "--out", str(root / "pr.csv")],
        ["analyze", "--records", str(root / "records.csv"),
         "--analysis", "tv-vs-distance", "--out", str(root / "tv_dist.csv")],
        ["analyze", "--records", str(root / "records.csv"),
         "--analysis", "difficulty-hist", "--out", str(root / "dhist.csv")],
    ]
    for argv in steps:
        code = cli_run(argv)
        assert code == 0, f"pipeline step failed: {argv}"


def test_criterion_10_determinism(capsys, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(PIPELINE_CONFIG)
    roots = []
    for name in ("first", "second"):
        root = tmp_path / name
        root.mkdir()
        run_pipeline(root, cfg_path)
        roots.append(root)
    rel_files = [sorted(p.relative_to(root) for p in root.rglob("*")
                        if p.is_file())
                 for root in roots]
    same_tree = rel_files[0] == rel_files[1]
    diffs = [str(rel) for rel in rel_files[0]
             if not filecmp.cmp(roots[0] / rel, roots[1] / rel, shallow=False)] \
        if same_tree else ["tree mismatch"]
    ok = same_tree and not diffs
    report(capsys, 10, ok,
           f"synth->train->infer->eval->analyze twice: "
           f"{len(rel_files[0])} artifacts byte-identical"
           + ("" if ok else f"; differing: {diffs[:5]}"))
    assert ok, diffs
