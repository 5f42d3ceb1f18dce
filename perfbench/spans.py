"""In-memory span recorder that instruments lidardet from the outside.

Each public function listed in ``TARGETS`` is wrapped in a closure that
records one span (name, start, end, parent span, frame id, error) per
call.  The wrapper is bound in place of the original on every loaded
``lidardet`` module that refers to it, so calls the library makes through
its own module globals (``model.featurize`` inside ``anchor_features``,
``model.nms_indices`` inside ``infer``) are traced as well.  No file of
the library changes; ``Recorder.uninstall`` restores the originals.

Hooks on some targets derive counters from call arguments and results,
for example the infer funnel (anchors scored, proposals before and after
NMS, ROIs, detections).  Byte counts are computed from array sizes, never
measured.

Frame ids are ``<region>/<name>``; the benchmark uses the regions
``setup``, ``ref`` (the quality pass) and ``timed``.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from lidardet.model import InferConfig, softmax

# span record layout: [name, start_ns, end_ns, parent index, frame id, error]
NAME, START, END, PARENT, FRAME, ERROR = range(6)


class Recorder:
    """Collects spans, counters and the per-infer funnel while installed.

    A span is stored as a tuple when it closes (a ``None`` placeholder
    holds its index while open), so the garbage collector untracks it and
    a long trace does not slow collections down.
    """

    def __init__(self):
        self.spans = []
        self.stack = []      # indices of open spans
        self.names = []      # their names
        self.frame = ""
        self.counts = defaultdict(float)
        self.funnel = []     # (region, counters) per infer call
        self._patched = []

    def open(self, name):
        """Start a span by hand; returns the state ``close`` needs."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(None)
        self.stack.append(idx)
        self.names.append(name)
        return idx, name, parent, self.frame, time.perf_counter_ns()

    def close(self, opened):
        idx, name, parent, frame, start = opened
        self.spans[idx] = (name, start, time.perf_counter_ns(), parent, frame, "")
        self.stack.pop()
        self.names.pop()

    def parent_name(self):
        """Name of the span enclosing the innermost open span, or ''."""
        return self.names[-2] if len(self.names) > 1 else ""

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, names = self.spans, self.stack, self.names
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            names.append(name)
            if before is not None:
                before(self, args, kwargs)
            out, exc, error, frame = None, None, "", self.frame
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                exc, error = err, type(err).__name__
                raise
            finally:
                spans[idx] = (name, start, clock(), parent, frame, error)
                if after is not None:
                    after(self, args, kwargs, out, exc)
                stack.pop()
                names.pop()
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=None):
        """Rebind every target on every loaded lidardet module."""
        for module_name, attr, before, after in (targets or TARGETS):
            original = getattr(importlib.import_module(module_name), attr)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            traced = self.wrap(name, original, before, after)
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("lidardet")
                        and getattr(mod, attr, None) is original):
                    setattr(mod, attr, traced)
                    self._patched.append((mod, attr, original))
        return self

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_jsonl(self, path):
        """One JSON object per span; ``parent`` is a line index or -1."""
        with open(path, "w") as fh:
            for name, start, end, parent, frame, error in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "frame": frame,
                                     "error": error}) + "\n")


def region_of(frame):
    return frame.split("/", 1)[0]


# ---------------------------------------------------------------------------
# hooks: every value comes from call arguments, results or raised errors


def _in_infer(rec):
    return rec.parent_name() == "model.infer" and rec.funnel


def _infer_before(rec, args, kwargs):
    icfg = args[2] if len(args) > 2 else kwargs.get("icfg", InferConfig())
    counters = defaultdict(int)
    counters["score_min"] = icfg.score_min
    rec.funnel.append((region_of(rec.frame), counters))


def _infer_after(rec, args, kwargs, out, exc):
    f = rec.funnel[-1][1]
    f["detections"] = len(out) if out is not None else 0
    f["final_nms_suppressed"] = f["final_nms_in"] - f["detections"]


def _stage1_forward(rec, args, kwargs, out, exc):
    if out is not None and _in_infer(rec):
        rec.funnel[-1][1]["anchors_scored"] += len(args[1])


def _stage2_forward(rec, args, kwargs, out, exc):
    if out is None or not _in_infer(rec):
        return
    f = rec.funnel[-1][1]
    f["rois"] += len(args[1])
    f["below_score_min"] += int((softmax(out[0])[:, 1] < f["score_min"]).sum())


def _nms(rec, args, kwargs, out, exc):
    if out is None:
        return
    region = region_of(rec.frame)
    rec.counts[f"{region}.nms.in"] += len(args[0])
    rec.counts[f"{region}.nms.kept"] += len(out)
    if _in_infer(rec):
        f = rec.funnel[-1][1]
        f["nms_calls"] += 1
        if f["nms_calls"] == 1:
            f["proposals_pre_nms"] += len(args[0])
            f["proposals_kept"] += len(out)
        else:
            f["final_nms_in"] += len(args[0])


def _featurize(rec, args, kwargs, out, exc):
    if exc is not None and _in_infer(rec):
        rec.funnel[-1][1]["rois_off_grid"] += 1


def inside_mask(aset):
    """Anchors whose full window fits the grid (the batched-gather path)."""
    spec = aset.spec
    res = spec.xy_resolution
    fr = np.floor(aset.l / (2.0 * res)).astype(np.int64)
    fc = np.floor(aset.w / (2.0 * res)).astype(np.int64)
    return ((aset.rows - fr >= 0) & (aset.rows + fr < spec.n_rows)
            & (aset.cols - fc >= 0) & (aset.cols + fc < spec.n_cols))


def gather_bytes_computed(aset):
    """Bytes the batched window gather of ``anchor_features`` allocates.

    Computed from array sizes, not measured: window cells of every anchor
    on the gather path, times float64 height slices plus the density plane.
    """
    res = aset.spec.xy_resolution
    cells = ((2 * np.floor(aset.l / (2.0 * res)) + 1)
             * (2 * np.floor(aset.w / (2.0 * res)) + 1))
    return int(cells[inside_mask(aset)].sum()) * (aset.spec.num_slices + 1) * 8


def _anchor_features(rec, args, kwargs, out, exc):
    region = region_of(rec.frame)
    rec.counts[f"{region}.anchor_features.bytes_computed"] += gather_bytes_computed(args[1])
    rec.counts[f"{region}.anchor_features.anchors"] += len(args[1])


def _build_training_set(rec, args, kwargs, out, exc):
    rec.counts[f"{region_of(rec.frame)}.pool_scenes"] += len(args[0])


def _generate_scenes(rec, args, kwargs, out, exc):
    rec.counts["generate_scenes.scenes"] += args[1]


TARGETS = [
    ("lidardet.synthgen", "generate_scenes", None, _generate_scenes),
    ("lidardet.synthgen", "save_scene", None, None),
    ("lidardet.synthgen", "load_scene", None, None),
    ("lidardet.pcio", "load_cloud", None, None),
    ("lidardet.pcio", "load_labels", None, None),
    ("lidardet.bevraster", "rasterize", None, None),
    ("lidardet.model", "anchor_features", None, _anchor_features),
    ("lidardet.model", "featurize", None, _featurize),
    ("lidardet.model", "infer", _infer_before, _infer_after),
    ("lidardet.model", "stage1_forward", None, _stage1_forward),
    ("lidardet.model", "stage2_forward", None, _stage2_forward),
    ("lidardet.model", "stage1_backward", None, None),
    ("lidardet.model", "stage2_backward", None, None),
    ("lidardet.model", "run_batch", None, None),
    ("lidardet.model", "adam_step", None, None),
    ("lidardet.model", "apply_label_noise", None, None),
    ("lidardet.model", "build_training_set", None, _build_training_set),
    ("lidardet.model", "train", None, None),
    ("lidardet.model", "save_detections", None, None),
    ("lidardet.codec", "decode_rpn", None, None),
    ("lidardet.codec", "decode_frh", None, None),
    ("lidardet.codec", "encode_rpn", None, None),
    ("lidardet.codec", "encode_frh", None, None),
    ("lidardet.codec", "assign", None, None),
    ("lidardet.codec", "kmeans_anchor_dims", None, None),
    ("lidardet.boxgeom", "nms_indices", None, _nms),
    ("lidardet.boxgeom", "iou_bev_rotated", None, None),
    ("lidardet.losses", "multi_loss", None, None),
    ("lidardet.metrics", "evaluate", None, None),
    ("lidardet.uncstats", "records_from_detections", None, None),
]

FUNNEL = ("anchors_scored", "proposals_pre_nms", "proposals_kept", "rois",
          "rois_off_grid", "below_score_min", "final_nms_suppressed", "detections")


def funnel_violations(counters):
    """Broken identities of one infer call's funnel, as messages.

    scored >= pre-NMS >= kept >= ROIs >= detections, and the off-grid and
    below-score_min counts close their gaps exactly.
    """
    f = counters
    chain = [f[k] for k in ("anchors_scored", "proposals_pre_nms",
                            "proposals_kept", "rois", "detections")]
    bad = []
    if any(a < b for a, b in zip(chain, chain[1:])):
        bad.append(f"funnel not monotone: {chain}")
    if f["proposals_kept"] - f["rois"] != f["rois_off_grid"]:
        bad.append(f"kept - rois = {f['proposals_kept'] - f['rois']} "
                   f"but rois_off_grid = {f['rois_off_grid']}")
    if f["rois"] - f["final_nms_in"] != f["below_score_min"]:
        bad.append(f"rois - final NMS input = {f['rois'] - f['final_nms_in']} "
                   f"but below_score_min = {f['below_score_min']}")
    return bad


# ---------------------------------------------------------------------------
# summary


def self_times(spans):
    """Per-span (duration, self time) in ns; self excludes child spans."""
    dur = [s[END] - s[START] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    return dur, [d - c for d, c in zip(dur, child)]


def _median(values):
    return statistics.median(values) if values else 0.0


PREFERRED_REGIONS = ("timed", "ref", "setup")


def layer_metrics(rec):
    """Per-layer metrics as {name: (value, unit)}.

    A layer is summarised over the first region, in the order timed, ref,
    setup, in which it ran.  Times are per-call medians; ``.calls`` are per
    unit of that region, a frame where the region has frames and a pool
    scene otherwise.
    """
    spans = rec.spans
    dur, own = self_times(spans)
    by_name = defaultdict(lambda: defaultdict(list))   # name -> region -> idx
    for i, s in enumerate(spans):
        by_name[s[NAME]][region_of(s[FRAME])].append(i)

    def pick(name):
        regions = by_name.get(name, {})
        for region in PREFERRED_REGIONS:
            if regions.get(region):
                return region, regions[region]
        return "", []

    def units(region):
        frames = len(by_name["frame"].get(region, []))
        return frames or rec.counts.get(f"{region}.pool_scenes", 0) or 1

    def ms(name):
        return _median([dur[i] for i in pick(name)[1]]) / 1e6

    def self_ms(name):
        return _median([own[i] for i in pick(name)[1]]) / 1e6

    def us(name):
        return ms(name) * 1e3

    def calls(name):
        region, idx = pick(name)
        return len(idx) / units(region)

    out = {}
    for name in ("bevraster.rasterize", "pcio.load_cloud", "pcio.load_labels",
                 "model.save_detections", "model.anchor_features", "model.infer",
                 "model.stage1_forward", "model.stage2_forward",
                 "model.stage1_backward", "model.stage2_backward", "model.run_batch",
                 "model.adam_step", "model.apply_label_noise", "codec.assign",
                 "codec.kmeans_anchor_dims", "boxgeom.nms_indices",
                 "losses.multi_loss", "metrics.evaluate",
                 "uncstats.records_from_detections", "synthgen.save_scene"):
        out[f"{name}.ms"] = (ms(name), "ms")
    for name in ("model.anchor_features", "model.infer", "model.run_batch",
                 "synthgen.load_scene", "frame"):
        out[f"{name}.self_ms"] = (self_ms(name), "ms")
    for name in ("model.featurize", "codec.decode_rpn", "boxgeom.iou_bev_rotated",
                 "codec.encode_rpn", "codec.encode_frh"):
        out[f"{name}.us"] = (us(name), "us")
    for name in ("model.featurize", "codec.decode_rpn", "codec.decode_frh",
                 "codec.encode_rpn", "codec.encode_frh", "boxgeom.nms_indices",
                 "boxgeom.iou_bev_rotated"):
        out[f"{name}.calls"] = (calls(name), "count")

    # anchor featurization: work per call and the border fallback
    region, af = pick("model.anchor_features")
    af_set = set(af)
    fallback = sum(1 for i in by_name["model.featurize"].get(region, [])
                   if spans[i][PARENT] in af_set)
    n_af = max(len(af), 1)
    out["model.anchor_features.anchors"] = (
        rec.counts.get(f"{region}.anchor_features.anchors", 0) / n_af, "count")
    out["model.anchor_features.fallback_calls"] = (fallback / n_af, "count")
    out["model.anchor_features.bytes_gathered_computed"] = (
        rec.counts.get(f"{region}.anchor_features.bytes_computed", 0) / n_af, "B")

    # training: per step and per pool scene
    region, bts = pick("model.build_training_set")
    scenes = rec.counts.get(f"{region}.pool_scenes", 0) or 1
    out["model.build_training_set.ms_per_scene"] = (
        sum(dur[i] for i in bts) / 1e6 / scenes, "ms")
    out["model.build_training_set.self_ms_per_scene"] = (
        sum(own[i] for i in bts) / 1e6 / scenes, "ms")
    bts_set = set(bts)
    pool_feat = [i for i in by_name["model.featurize"].get(region, [])
                 if spans[i][PARENT] in bts_set]
    out["model.featurize.pool_calls"] = (len(pool_feat) / scenes, "count")
    out["model.featurize.pool_us"] = (_median([dur[i] for i in pool_feat]) / 1e3, "us")
    region, steps = pick("model.run_batch")
    train_idx = pick("model.train")[1]
    out["model.train.self_ms_per_step"] = (
        sum(own[i] for i in train_idx) / 1e6 / max(len(steps), 1), "ms")
    gen = by_name["synthgen.generate_scenes"]
    gen_ns = sum(dur[i] for idx in gen.values() for i in idx)
    out["synthgen.generate_scenes.ms_per_scene"] = (
        gen_ns / 1e6 / max(rec.counts.get("generate_scenes.scenes", 0), 1), "ms")
    region = pick("boxgeom.nms_indices")[0]
    kept = rec.counts.get(f"{region}.nms.kept", 0)
    seen = rec.counts.get(f"{region}.nms.in", 0)
    out["boxgeom.nms_indices.keep_ratio"] = (kept / seen if seen else 0.0, "ratio")

    # infer funnel: mean per infer call in the preferred region
    for region in PREFERRED_REGIONS:
        rows = [f for r, f in rec.funnel if r == region]
        if rows:
            break
    for key in FUNNEL:
        out[f"model.infer.{key}"] = (
            sum(f[key] for f in rows) / len(rows) if rows else 0.0, "count")

    # frame path: traced frame time and the sum of per-layer self times
    region, frames = pick("frame")
    out["frame.traced_ms_p50"] = (_median([dur[i] for i in frames]) / 1e6, "ms")
    per_frame = defaultdict(lambda: defaultdict(int))
    frame_ids = {spans[i][FRAME] for i in frames}
    for i, s in enumerate(spans):
        if s[FRAME] in frame_ids:
            per_frame[s[NAME]][s[FRAME]] += own[i]
    out["frame.self_sum_ms"] = (sum(
        _median([per_frame[name].get(f, 0) for f in frame_ids])
        for name in per_frame) / 1e6, "ms")
    out["trace.spans"] = (len(spans), "count")
    return out
