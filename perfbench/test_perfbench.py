"""Tests of the benchmark's own machinery: spans, counters, tail percentile.

The infer funnel is measured from outside the library, through the same
wrappers the traced benchmark run installs, on a small grid with random
weights so that ROIs fall off the grid and scores fall below score_min.
"""

import numpy as np
import pytest

import lidardet.model as model
from lidardet.bevraster import RangeSpec, rasterize
from lidardet.model import (AnchorLayout, InferConfig, TrainConfig, build_anchor_set,
                            init_params)
from lidardet.synthgen import SceneSpec, generate_scenes

from spans import (FUNNEL, Recorder, funnel_violations, gather_bytes_computed,
                   layer_metrics, self_times)
from workloads import tail

SMALL = RangeSpec(0.0, 24.0, -12.0, 12.0, 0.0, 2.5, 0.4, 5, 0.5)
LAYOUT = AnchorLayout(shapes=((4.2, 1.8, 1.6),), stride=2)


def random_params(seed, stage2_bias=0.0):
    cfg = TrainConfig(seed=seed, hidden1=16, hidden2=16, pool_blocks=2)
    params = init_params(cfg, model.feature_length(SMALL.num_slices, 2), LAYOUT)
    rng = np.random.default_rng(seed)
    params.stage1.w_reg += rng.normal(0.0, 0.5, params.stage1.w_reg.shape)
    params.stage2.b_cls[1] += stage2_bias
    return params


def traced_infer(params, icfg, scenes):
    rec = Recorder()
    with rec:
        for i, scene in enumerate(scenes):
            rec.frame = f"timed/{i}"
            dets = model.infer(params, rasterize(scene.cloud, SMALL), icfg)
            assert rec.funnel[-1][1]["detections"] == len(dets)
    return rec


@pytest.mark.parametrize("seed,bias,score_min", [(0, 0.0, 0.5), (1, -2.0, 0.2),
                                                 (2, 3.0, 0.05)])
def test_infer_funnel_adds_up(seed, bias, score_min):
    scenes = generate_scenes(SceneSpec(seed=seed, num_cars=3, x_min=4.0, x_max=20.0,
                                       y_min=-8.0, y_max=8.0, range_spec=SMALL), 3)
    icfg = InferConfig(pre_nms_top=128, proposal_count=24, score_min=score_min)
    rec = traced_infer(random_params(seed, bias), icfg, scenes)
    assert len(rec.funnel) == len(scenes)
    n_anchors = len(build_anchor_set(LAYOUT, SMALL))
    for _, f in rec.funnel:
        assert f["anchors_scored"] == n_anchors
        assert f["proposals_pre_nms"] == min(icfg.pre_nms_top, n_anchors)
        assert funnel_violations(f) == []
    totals = {k: sum(f[k] for _, f in rec.funnel) for k in FUNNEL}
    assert totals["detections"] > 0 or totals["below_score_min"] > 0


def test_funnel_violations_detect_a_broken_gap():
    f = {"anchors_scored": 100, "proposals_pre_nms": 50, "proposals_kept": 10,
         "rois": 8, "rois_off_grid": 1, "below_score_min": 2, "final_nms_in": 6,
         "detections": 4}
    assert len(funnel_violations(f)) == 1
    f["rois_off_grid"] = 2
    assert funnel_violations(f) == []
    f["detections"] = 9
    assert funnel_violations(f) == ["funnel not monotone: [100, 50, 10, 8, 9]"]


def test_install_rebinds_library_globals_and_restores_them():
    original = model.featurize
    with Recorder() as rec:
        assert model.featurize is not original
        assert model.featurize.__wrapped__ is original
        grid = rasterize(generate_scenes(SceneSpec(seed=3, range_spec=SMALL, x_min=4.0,
                                                   x_max=20.0, y_min=-8.0, y_max=8.0,
                                                   num_cars=2), 1)[0].cloud, SMALL)
        aset = build_anchor_set(LAYOUT, SMALL)
        model.anchor_features(grid, aset, 2)
    assert model.featurize is original
    names = {s[0] for s in rec.spans}
    assert {"model.anchor_features", "model.featurize"} <= names
    # every border anchor goes through featurize inside anchor_features
    af = [i for i, s in enumerate(rec.spans) if s[0] == "model.anchor_features"]
    fallback = [s for s in rec.spans if s[0] == "model.featurize" and s[3] in af]
    inner_bytes = gather_bytes_computed(aset)
    assert len(fallback) > 0 and inner_bytes > 0


def test_self_time_excludes_children():
    rec = Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    dur, own = self_times(rec.spans)
    (o,) = [i for i, s in enumerate(rec.spans) if s[0] == "outer"]
    kids = [i for i, s in enumerate(rec.spans) if s[0] == "inner"]
    assert all(rec.spans[k][3] == o for k in kids)
    assert own[o] == dur[o] - sum(dur[k] for k in kids)
    assert 0 <= own[o] < dur[o]


def test_errors_are_recorded_and_reraised():
    rec = Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    assert rec.spans[0][5] == "KeyError" and rec.stack == []


def test_layer_metrics_cover_an_infer_trace():
    scenes = generate_scenes(SceneSpec(seed=4, num_cars=3, x_min=4.0, x_max=20.0,
                                       y_min=-8.0, y_max=8.0, range_spec=SMALL), 2)
    rec = traced_infer(random_params(4), InferConfig(), scenes)
    out = layer_metrics(rec)
    assert out["model.infer.anchors_scored"][0] == len(build_anchor_set(LAYOUT, SMALL))
    assert out["codec.decode_rpn.calls"][1] == "count"
    assert all(np.isfinite(v) for v, _ in out.values())


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail([5.0, 1.0, 3.0]) == (5.0, 100.0)
    assert tail(list(range(1, 20))) == (19, 100.0)   # never below the median
    values = list(range(1, 41))          # 40 samples
    value, pct = tail(values)
    assert pct == 75.0 and value == 30
    assert sum(v > value for v in values) == 10
