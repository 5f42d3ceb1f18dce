"""Command-line pipeline: rasterize, synth, train, infer, eval, analyze.

Every subcommand is a thin wrapper over the library modules; all
randomness flows from the config seed, and outputs are byte-reproducible
for identical invocations. Exit codes: 0 success, 1 domain error,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bevraster import rasterize, write_grid
from .boxgeom import iou_3d, iou_bev_rotated
from .codec import kmeans_anchor_dims
from .config import (default_config, load_config, make_infer_config,
                     make_layout, make_range_spec, make_scene_spec,
                     make_train_config)
from .errors import ConfigError, DecodeError, DegenerateInput
from .metrics import evaluate
from .model import (build_training_set, feature_length, gradcheck, infer,
                    load_detections, load_params, save_detections, save_log,
                    save_params, train)
from .pcio import load_cloud, load_labels, positive_float, write_table
from .synthgen import generate_scenes, load_scene, save_scene, scene_names
from .uncstats import (DEFAULT_ANGLE_EDGES, DEFAULT_DISTANCE_EDGES,
                       DEFAULT_SCORE_EDGES, DEFAULT_TV_EDGES, BIN_VALUES,
                       binned_means, difficulty_histogram, filter_confident,
                       load_records, pearson, records_from_detections,
                       save_records)

ANALYSES = ("tv-vs-distance", "tv-vs-score", "tv-vs-angle", "difficulty-hist",
            "rpn-vs-frh", "loc-vs-orient")


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _positive_finite(text: str) -> float:
    """argparse type for tolerances: a finite float above zero."""
    try:
        return positive_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite positive number, got {text!r}") from None


def _cmd_rasterize(args) -> int:
    cfg = load_config(args.spec)
    spec = make_range_spec(cfg)
    grid = rasterize(load_cloud(args.cloud), spec)
    write_grid(grid, args.out)
    print(f"wrote {args.out} ({spec.n_rows}x{spec.n_cols}x{grid.channels})")
    return 0


def _cmd_synth(args) -> int:
    cfg = load_config(args.spec)
    scenes = generate_scenes(make_scene_spec(cfg), args.count)
    out = Path(args.out)
    for i, scene in enumerate(scenes):
        save_scene(scene, out, f"scene_{i:04d}")
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


def _load_scenes(data_dir):
    names = scene_names(data_dir)
    if not names:
        raise ValueError(f"no scenes found in {data_dir}")
    return names, [load_scene(data_dir, n) for n in names]


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    spec = make_range_spec(cfg)
    tcfg = make_train_config(cfg)
    _, scenes = _load_scenes(args.data)
    dims = np.array([[g.box.l, g.box.w, g.box.h]
                     for s in scenes for g in s.gts])
    if len(dims) == 0:
        raise ValueError("training scenes contain no ground-truth boxes")
    shapes = kmeans_anchor_dims(dims, k=cfg["anchor.clusters"], seed=cfg["seed"])
    layout = make_layout(cfg, shapes)
    training_set = build_training_set(scenes, layout, spec, tcfg)
    params, log = train(training_set, tcfg, layout)
    save_params(params, args.out_params)
    save_log(log, args.log)
    print(f"trained {len(log)} steps over {len(scenes)} scenes; "
          f"final total loss {log[-1].total:.6f}")
    return 0


def _cmd_infer(args) -> int:
    cfg = load_config(args.config) if args.config else default_config()
    spec = make_range_spec(cfg)
    icfg = make_infer_config(cfg)
    params = load_params(args.params)
    feat_len = feature_length(spec.num_slices, params.pool_blocks)
    if feat_len != params.dims[0]:
        raise ConfigError(
            f"{args.params}: the model takes features of length {params.dims[0]}, but "
            f"raster.num_slices = {spec.num_slices} gives {feat_len} at its pool_blocks "
            f"= {params.pool_blocks}; infer needs the raster.* keys it was trained with")
    names, scenes = _load_scenes(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    total = 0
    for name, scene in zip(names, scenes):
        grid = rasterize(scene.cloud, spec)
        try:
            dets = infer(params, grid, icfg, frame_id=scene.cloud.frame_id)
        except DecodeError as exc:
            raise DecodeError(f"{args.params}: {name}: {exc}") from None
        save_detections(dets, out / f"{name}_dets.csv")
        total += len(dets)
        if args.records:
            records += records_from_detections(dets, scene.gts, scene.noise)
    if args.records:
        save_records(records, args.records)
    print(f"wrote {total} detections over {len(names)} scenes to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    gts_dir = Path(args.gts)
    dets_dir = Path(args.dets)
    label_files = sorted(gts_dir.glob("*.txt"))
    if not label_files:
        raise ValueError(f"no label files in {args.gts}")
    dets_per_scene = []
    gts_per_scene = []
    for lf in label_files:
        det_file = dets_dir / f"{lf.stem}_dets.csv"
        if not det_file.exists():
            raise ValueError(f"missing detections for scene {lf.stem}: {det_file}")
        gts_per_scene.append(load_labels(lf))
        dets_per_scene.append(load_detections(det_file, frame_id=lf.stem))
    iou_fn = iou_bev_rotated if args.metric == "bev" else iou_3d
    result = evaluate(dets_per_scene, gts_per_scene, iou_fn, args.iou,
                      forty_point=args.forty_point)
    print(f"AP_{args.metric}@{args.iou:g} all {result.ap:.6f}")
    for name in ("Easy", "Moderate", "Hard"):
        if name in result.by_difficulty:
            print(f"AP_{args.metric}@{args.iou:g} {name} "
                  f"{result.by_difficulty[name]:.6f}")
    if args.out:
        write_table(args.out, ("recall", "precision"),
                    zip(result.recalls, result.precisions))
    return 0


def _write_binned(records, key, edges, path) -> None:
    per_value = {v: binned_means(records, key, edges, value=v) for v in BIN_VALUES}
    write_table(path, ["lo", "hi", "count"] + [f"{v}_mean" for v in BIN_VALUES],
                ([stat.lo, stat.hi, stat.count]
                 + [per_value[v][i].mean for v in BIN_VALUES]
                 for i, stat in enumerate(per_value[BIN_VALUES[0]])))


def _write_pairs(records, fields, path) -> None:
    write_table(path, ("det_id", *fields),
                ([r.det_id] + [getattr(r, f) for f in fields] for r in records))
    xs = [getattr(r, fields[0]) for r in records]
    ys = [getattr(r, fields[1]) for r in records]
    try:
        print(f"pcc({fields[0]}, {fields[1]}) = {pearson(xs, ys):.6f}")
    except DegenerateInput:
        print(f"pcc({fields[0]}, {fields[1]}) undefined on {len(records)} records")


def _cmd_analyze(args) -> int:
    records = filter_confident(load_records(args.records))
    if args.analysis == "tv-vs-distance":
        _write_binned(records, "distance", DEFAULT_DISTANCE_EDGES, args.out)
    elif args.analysis == "tv-vs-score":
        _write_binned(records, "score", DEFAULT_SCORE_EDGES, args.out)
    elif args.analysis == "tv-vs-angle":
        _write_binned(records, "angle_offset", DEFAULT_ANGLE_EDGES, args.out)
    elif args.analysis == "difficulty-hist":
        labeled = [r for r in records if r.difficulty]
        hists = difficulty_histogram(labeled) if labeled else {}
        edges = [-np.inf] + list(DEFAULT_TV_EDGES) + [np.inf]
        write_table(args.out, ("difficulty", "lo", "hi", "count"),
                    ([name, edges[b], edges[b + 1], count]
                     for name in ("Easy", "Moderate", "Hard") if name in hists
                     for b, count in enumerate(hists[name])))
    elif args.analysis == "rpn-vs-frh":
        _write_pairs(records, ("rpn_tv", "frh_loc_tv"), args.out)
    else:
        _write_pairs(records, ("frh_loc_tv", "frh_orient_tv"), args.out)
    print(f"wrote {args.analysis} analysis of {len(records)} records to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    ok, report = gradcheck(seeds=args.seeds, rtol=args.rtol)
    for line in report:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidardet",
        description="Uncertainty-aware LiDAR bird's-eye-view 3D detection pipeline")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rasterize", help="rasterize a point cloud into a BEV grid")
    p.add_argument("--cloud", required=True, help="point cloud .bin file")
    p.add_argument("--spec", required=True, help="config file with raster.* keys")
    p.add_argument("--out", required=True, help="output grid file")
    p.set_defaults(func=_cmd_rasterize)

    p = sub.add_parser("synth", help="generate synthetic labeled scenes")
    p.add_argument("--spec", required=True, help="config file with scene.* keys")
    p.add_argument("--count", type=_positive_int, required=True, help="number of scenes")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train the two-stage detector")
    p.add_argument("--data", required=True, help="directory of scenes")
    p.add_argument("--config", required=True, help="config file")
    p.add_argument("--out-params", required=True, help="output parameters blob")
    p.add_argument("--log", required=True, help="output per-step loss CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="run detection over scenes")
    p.add_argument("--params", required=True, help="parameters blob")
    p.add_argument("--data", required=True, help="directory of scenes")
    p.add_argument("--out", required=True, help="output directory for detections")
    p.add_argument("--config", help="config file (defaults used if omitted)")
    p.add_argument("--records", help="also write uncertainty records CSV")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="score detections against labels")
    p.add_argument("--dets", required=True, help="directory of *_dets.csv files")
    p.add_argument("--gts", required=True, help="directory of label .txt files")
    p.add_argument("--iou", type=float, default=0.7, help="IoU threshold")
    p.add_argument("--metric", choices=("bev", "3d"), default="bev")
    p.add_argument("--forty-point", action="store_true",
                   help="40-point AP instead of 11-point")
    p.add_argument("--out", help="write the precision-recall sweep CSV here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="aggregate uncertainty records")
    p.add_argument("--records", required=True, help="records CSV from infer")
    p.add_argument("--analysis", choices=ANALYSES, required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--rtol", type=_positive_finite, default=1e-4, help="relative tolerance")
    p.add_argument("--seeds", type=_positive_int, default=20, help="number of seeds")
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
