#!/usr/bin/env bash
# Same-behaviour check for refactors: run the README quick-config pipeline
# (synth x20, train, infer --records, eval, the six analyses, rasterize;
# seed 7) on a committed git ref and on the working tree, then compare
# every output file, printed output included, byte for byte. Each side
# also trains once more with `train.form = laplace` appended to a copy of
# quick.cfg (model_laplace.bin, train_log_laplace.csv), so that both
# likelihood forms of the training loss are compared. Each side also
# trains with `train.hidden1 = 256` appended (model_h256.bin, 4,096 rows per
# stage-1 block) and runs infer with that model on a 192 x 192-cell raster at
# quick.cfg's resolution and slices (dets_h256/: 9,216 anchors, whose 56-135
# compact rows per scene are padded up to the least count of 2,048 rows), so
# that a third width of stage 1 is compared. Each side also runs
# infer with model.bin on a raster whose height range is shifted to
# `raster.z_min = -0.3`, `raster.z_max = 2.2` (dets_zmin/), where the mean of
# the empty-cell sentinels in a pooling block need not be z_min exactly, so
# that the shared feature row of point-free anchor windows is compared.
# Each side also runs infer with model.bin on a raster cut to
# `raster.x_min = 6.0`, `raster.x_max = 20.0`, `raster.y_min = -8.0`,
# `raster.y_max = 8.0` (dets_edges/), whose edges cut the scenes' cars on all
# four sides, so that anchor windows clipped by the grid and holding points
# are compared: 224 of them over the 20 scenes, against 5 on quick.cfg's raster.
# Each side also runs infer on the paper's grid, `raster.x_min = 0.0`,
# `raster.x_max = 70.0`, `raster.y_min = -40.0`, `raster.y_max = 40.0`,
# `raster.xy_resolution = 0.1` (700 x 800 cells, 140,000 anchors), with
# model.bin (dets_paper/), with a model trained with `train.hidden1 = 1024`
# appended (model_h1024.bin, dets_paper_h1024/) and with one trained with
# `train.hidden1 = 64` appended, the benchmark's width (model_h64.bin,
# dets_paper_h64/), so that stage 1 over the compact rows of anchor_features
# (about 1,500-3,500 per scene) is compared with stage 1 over the anchor
# rows: padded up to the least count of 32,768 rows at hidden1 = 16 and
# 8,192 at 64, and unpadded in one to three 1,024-row blocks at 1024.
# Each side also runs anchor_features + infer with model.bin over the 20
# scenes on one anchor set per grid, reused from scene to scene as the
# benchmark's frame loop does, on quick.cfg's raster (dets_cross/) and on
# the paper's grid (dets_cross_paper/), so that the feature rows of blank
# windows kept from earlier frames are compared; CLI infer builds a fresh
# anchor set for every scene.
# Each side also rasterizes scene_0000 with an empty defaults.cfg
# (grid_default.bin), so that the default grid, the paper's 700 x 800 cells
# at 0.1 m, is compared, and rasterizes an empty (0-byte) cloud with quick.cfg
# (grid_empty.bin), so that a grid with no point is compared.
# Each side also writes pools.sha256: one sha256 of the build_training_set packs per
# training split of acceptance criteria 7, 8 (five seeds) and 9, and of two
# more splits (twelve cars per scene; car-free scenes among others).
#
#   scripts/pipeline_diff.sh <git-ref>
#
# Exits 0 when all artifacts are identical, 1 when any differ, 2 on a
# usage or pipeline error. For each differing text file it also prints the
# first 20 lines of its `diff -u`, and for each differing CSV the largest
# absolute difference between numeric cells at the same place. The ref is exported with `git archive`
# into a temporary directory (under $TMPDIR), which is removed on exit.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <git-ref>" >&2
    exit 2
fi
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
ref=$1
git -C "$repo" rev-parse --verify --quiet "$ref^{commit}" >/dev/null \
    || { echo "not a commit: $ref" >&2; exit 2; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref-tree"
git -C "$repo" archive "$ref" | tar -x -C "$tmp/ref-tree"

# The config block of the README's CLI section, from the working tree.
sed -n '/^# quick.cfg$/,/^```$/p' "$repo/README.md" | sed '$d' > "$tmp/quick.cfg"
grep -q '^seed = 7$' "$tmp/quick.cfg" \
    || { echo "README quick.cfg block not found" >&2; exit 2; }

pipeline() {  # <source tree> <output dir>
    local src=$1/src out=$2
    mkdir -p "$out"
    cp "$tmp/quick.cfg" "$out/"
    { cat "$tmp/quick.cfg"; echo "train.form = laplace"; } > "$out/laplace.cfg"
    { cat "$tmp/quick.cfg"; echo "train.hidden1 = 256"; } > "$out/h256.cfg"
    { cat "$tmp/quick.cfg"; echo "train.hidden1 = 1024"; } > "$out/h1024.cfg"
    { cat "$tmp/quick.cfg"; echo "train.hidden1 = 64"; } > "$out/h64.cfg"
    { cat "$out/h256.cfg"; echo "raster.x_max = 96.0"; echo "raster.y_min = -48.0"
      echo "raster.y_max = 48.0"; } > "$out/h256_wide.cfg"
    { cat "$tmp/quick.cfg"; echo "raster.z_min = -0.3"; echo "raster.z_max = 2.2"; } \
        > "$out/zmin.cfg"
    { cat "$tmp/quick.cfg"; echo "raster.x_min = 6.0"; echo "raster.x_max = 20.0"
      echo "raster.y_min = -8.0"; echo "raster.y_max = 8.0"; } > "$out/edges.cfg"
    { cat "$tmp/quick.cfg"; echo "raster.x_min = 0.0"; echo "raster.x_max = 70.0"
      echo "raster.y_min = -40.0"; echo "raster.y_max = 40.0"
      echo "raster.xy_resolution = 0.1"; } > "$out/paper.cfg"
    : > "$out/defaults.cfg"
    (
        cd "$out"
        ldet() { PYTHONPATH="$src" python3 -m lidardet "$@"; }
        ldet synth --spec quick.cfg --count 20 --out scenes
        ldet train --data scenes --config quick.cfg --out-params model.bin --log train_log.csv
        ldet train --data scenes --config laplace.cfg --out-params model_laplace.bin \
            --log train_log_laplace.csv
        ldet train --data scenes --config h256.cfg --out-params model_h256.bin \
            --log train_log_h256.csv
        ldet train --data scenes --config h1024.cfg --out-params model_h1024.bin \
            --log train_log_h1024.csv
        ldet train --data scenes --config h64.cfg --out-params model_h64.bin \
            --log train_log_h64.csv
        ldet infer --params model.bin --data scenes --out dets --config quick.cfg \
            --records records.csv
        ldet infer --params model_h256.bin --data scenes --out dets_h256 \
            --config h256_wide.cfg
        ldet infer --params model.bin --data scenes --out dets_zmin --config zmin.cfg
        ldet infer --params model.bin --data scenes --out dets_edges --config edges.cfg
        ldet infer --params model.bin --data scenes --out dets_paper --config paper.cfg
        ldet infer --params model_h1024.bin --data scenes --out dets_paper_h1024 \
            --config paper.cfg
        ldet infer --params model_h64.bin --data scenes --out dets_paper_h64 \
            --config paper.cfg
        ldet eval --dets dets --gts scenes --iou 0.5 --out pr.csv
        for analysis in tv-vs-distance tv-vs-score tv-vs-angle difficulty-hist \
                rpn-vs-frh loc-vs-orient; do
            ldet analyze --records records.csv --analysis "$analysis" --out "$analysis.csv"
        done
        ldet rasterize --cloud scenes/scene_0000.bin --spec quick.cfg --out grid.bin
        ldet rasterize --cloud scenes/scene_0000.bin --spec defaults.cfg \
            --out grid_default.bin
        ldet rasterize --cloud "$tmp/empty.bin" --spec quick.cfg --out grid_empty.bin
        PYTHONPATH="$src" python3 "$tmp/pools.py" > pools.sha256
        PYTHONPATH="$src" python3 "$tmp/cross_frame.py"
    ) > "$out/stdout.txt" || { echo "pipeline failed on $1" >&2; exit 2; }
}

# The training splits of tests/test_acceptance.py criteria 7-9, with their
# scene specs, k-means layout and training seeds; the other TrainConfig
# fields they set do not enter build_training_set. Two more splits: twelve
# cars per scene, where mirror-symmetric anchors tie in the best anchor per
# truth to the last bit, and a split with car-free scenes among others.
cat > "$tmp/pools.py" <<'PY'
import hashlib
from dataclasses import astuple

import numpy as np

from lidardet.codec import kmeans_anchor_dims
from lidardet.model import AnchorLayout, TrainConfig, build_training_set
from lidardet.synthgen import DEFAULT_SCENE_RANGE, SceneSpec, generate_scenes

BENCH_SCENE = dict(num_cars=6, x_min=20.0, point_budget=1000, density_exponent=1.2)
CAR_FREE = dict(BENCH_SCENE, num_cars=0)
SPLITS = ([("criterion-7", [(SceneSpec(seed=100, **BENCH_SCENE), 200)], 0)]
          + [(f"criterion-8-seed-{k}", [(SceneSpec(seed=100 + 1000 * k, **BENCH_SCENE),
                                         150)], k) for k in range(5)]
          + [("criterion-9", [(SceneSpec(seed=100, num_cars=6, x_min=22.0, x_max=34.0,
                                         point_budget=1000, density_exponent=1.2,
                                         noise_angle=0.25, p_base=0.8), 150)], 0),
             ("twelve-cars-seed-7", [(SceneSpec(seed=7, num_cars=12), 40)], 7),
             ("car-free-mix", [(SceneSpec(seed=300, **BENCH_SCENE), 10),
                               (SceneSpec(seed=301, **CAR_FREE), 3),
                               (SceneSpec(seed=302, **BENCH_SCENE), 10)], 0)])
for name, parts, seed in SPLITS:
    scenes = [s for spec, count in parts for s in generate_scenes(spec, count)]
    dims = np.array([[g.box.l, g.box.w, g.box.h] for s in scenes for g in s.gts])
    layout = AnchorLayout(shapes=tuple(map(tuple, kmeans_anchor_dims(dims, k=2, seed=0))))
    packs = build_training_set(scenes, layout, DEFAULT_SCENE_RANGE,
                               TrainConfig(seed=seed)).packs
    digest = hashlib.sha256()
    for arr in (a for pack in packs for a in astuple(pack)):
        digest.update(repr((arr.dtype.str, arr.shape)).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    print(name, digest.hexdigest())
PY

# Detections of model.bin over the scenes with one anchor set per grid, the
# features of each scene computed on the anchor set the scenes before used.
cat > "$tmp/cross_frame.py" <<'PY'
from pathlib import Path

from lidardet.bevraster import rasterize
from lidardet.config import load_config, make_infer_config, make_range_spec
from lidardet.model import (anchor_features, build_anchor_set, infer, load_params,
                            save_detections)
from lidardet.synthgen import load_scene, scene_names

params = load_params("model.bin")
names = scene_names("scenes")
for config, out in (("quick.cfg", "dets_cross"), ("paper.cfg", "dets_cross_paper")):
    cfg = load_config(config)
    spec, icfg = make_range_spec(cfg), make_infer_config(cfg)
    aset = build_anchor_set(params.layout(), spec)
    Path(out).mkdir()
    for name in names:
        scene = load_scene("scenes", name)
        grid = rasterize(scene.cloud, spec)
        feats = anchor_features(grid, aset, params.pool_blocks)
        dets = infer(params, grid, icfg, frame_id=scene.cloud.frame_id, anchor_feats=feats)
        save_detections(dets, Path(out) / f"{name}_dets.csv")
    print(f"{out}: {len(names)} scenes on one anchor set of {len(aset)} anchors")
PY

# Largest absolute difference between the numeric cells of two CSV files.
cat > "$tmp/maxdiff.py" <<'PY'
import csv
import math
import sys

name, paths = sys.argv[1], sys.argv[2:]
tables = []
for path in paths:
    with open(path, newline="") as f:
        tables.append(list(csv.reader(f)))
worst = 0.0
for row_a, row_b in zip(*tables):
    for a, b in zip(row_a, row_b):
        try:
            d = abs(float(a) - float(b))
        except ValueError:
            continue
        if not math.isnan(d):
            worst = max(worst, d)
shapes = [(len(t), max(map(len, t), default=0)) for t in tables]
note = "" if shapes[0] == shapes[1] else f" (rows x columns {shapes[0]} vs {shapes[1]})"
print(f"{name}: largest absolute numeric difference {worst!r}{note}")
PY

: > "$tmp/empty.bin"
pipeline "$tmp/ref-tree" "$tmp/ref"
pipeline "$repo" "$tmp/work"

files=$(find "$tmp/work" -type f | wc -l)
if diff -rq "$tmp/ref" "$tmp/work"; then
    echo "identical: $files files from $ref and the working tree"
else
    (cd "$tmp/work" && find . -type f | sort) | while read -r f; do
        a=$tmp/ref/$f b=$tmp/work/$f
        if [ -f "$a" ] && ! cmp -s "$a" "$b" && grep -Iq . "$a" "$b"; then
            diff -u --label "$ref:${f#./}" --label "work:${f#./}" "$a" "$b" \
                | head -n 20 || true
            case $f in
                *.csv) python3 "$tmp/maxdiff.py" "${f#./}" "$a" "$b" ;;
            esac
        fi
    done
    echo "artifacts differ between $ref and the working tree" >&2
    exit 1
fi
