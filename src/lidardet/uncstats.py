"""Scalar uncertainty summaries and binned analyses over detections.

A detection's per-component log-variances are summarized as a Total
Variance (sum of the implied variances). Records carry everything the
analyses need (score, distance, yaw, per-head TVs, difficulty, optional
oracle noise magnitude) so the statistics below stay independent of the
model that produced them.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .boxgeom import iou_bev_rotated
from .errors import BadEdges, DegenerateInput
from .metrics import match
from .pcio import finite_float, read_table, write_table

BIN_KEYS = ("distance", "score", "angle_offset")
BIN_VALUES = ("rpn_tv", "frh_loc_tv", "frh_orient_tv")
MATCH_THRESHOLD = 0.3  # rotated BEV IoU at which a record takes a truth's fields

DEFAULT_DISTANCE_EDGES = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DEFAULT_SCORE_EDGES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0 + 1e-9)
DEFAULT_ANGLE_EDGES = tuple(np.linspace(0.0, math.pi / 4 + 1e-9, 5))
# interior histogram edges; the outer bins are open-ended
DEFAULT_TV_EDGES = tuple(np.geomspace(1e-3, 1e2, 11))


def total_variance(log_vars) -> float:
    """Sum of exp(s_i) over a vector of per-component log-variances."""
    s = np.asarray(log_vars, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise ValueError("log-variances must be finite")
    return float(np.exp(s).sum())


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient of two equal-length series."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"inputs must be equal-length 1-D, got {x.shape} and {y.shape}")
    if len(x) < 2:
        raise DegenerateInput("need at least two samples")
    dx = x - x.mean()
    dy = y - y.mean()
    vx = float(dx @ dx)
    vy = float(dy @ dy)
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInput("zero variance in an input series")
    return float(dx @ dy) / math.sqrt(vx * vy)


def base_angle_offset(yaw: float) -> float:
    """Absolute angular distance from the nearest multiple of 90 degrees.

    Equals the minimum wrapped distance to {0, pi/2, pi, 3pi/2}; the
    result lies in [0, pi/4] with period pi/2 in yaw.
    """
    return abs(math.remainder(yaw, math.pi / 2))


@dataclass
class UncertaintyRecord:
    det_id: str
    score: float
    distance: float
    yaw: float
    rpn_tv: float
    frh_loc_tv: float
    frh_orient_tv: float
    difficulty: str = ""
    sigma_label: float = math.nan

    @property
    def angle_offset(self) -> float:
        return base_angle_offset(self.yaw)


@dataclass
class BinStat:
    lo: float
    hi: float
    count: int
    mean: Optional[float]

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _validate_edges(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=np.float64)
    if e.ndim != 1 or len(e) < 2:
        raise BadEdges("need at least two bin edges")
    if not np.all(np.isfinite(e)):
        raise BadEdges("bin edges must be finite")
    if not np.all(np.diff(e) > 0):
        raise BadEdges("bin edges must be strictly increasing")
    return e


def binned_means(records: Sequence[UncertaintyRecord], key: str, edges,
                 value: str = "frh_loc_tv") -> list[BinStat]:
    """Mean of one TV field over half-open bins [e_i, e_i+1) of a key field.

    Records outside the outermost edges are dropped; empty bins report
    count 0 and mean None.
    """
    if key not in BIN_KEYS:
        raise ValueError(f"key must be one of {BIN_KEYS}, got {key!r}")
    if value not in BIN_VALUES:
        raise ValueError(f"value must be one of {BIN_VALUES}, got {value!r}")
    e = _validate_edges(edges)
    sums = np.zeros(len(e) - 1)
    counts = np.zeros(len(e) - 1, dtype=np.int64)
    for rec in records:
        k = float(getattr(rec, key))
        if k < e[0] or k >= e[-1]:
            continue
        i = int(np.searchsorted(e, k, side="right")) - 1
        sums[i] += float(getattr(rec, value))
        counts[i] += 1
    out = []
    for i in range(len(e) - 1):
        mean = sums[i] / counts[i] if counts[i] else None
        out.append(BinStat(float(e[i]), float(e[i + 1]), int(counts[i]), mean))
    return out


def difficulty_histogram(records: Sequence[UncertaintyRecord],
                         value: str = "frh_loc_tv",
                         edges=DEFAULT_TV_EDGES) -> dict[str, np.ndarray]:
    """Per-difficulty histogram of a TV field over fixed log-scale bins.

    The outer bins are open-ended, so every record lands in exactly one
    bin and the counts sum to the number of records. Returns a mapping
    difficulty name -> counts of length len(edges)+1.
    """
    if value not in BIN_VALUES:
        raise ValueError(f"value must be one of {BIN_VALUES}, got {value!r}")
    e = _validate_edges(edges)
    hists: dict[str, np.ndarray] = {}
    for rec in records:
        if not rec.difficulty:
            raise ValueError("record without difficulty in difficulty_histogram")
        h = hists.setdefault(rec.difficulty, np.zeros(len(e) + 1, dtype=np.int64))
        h[int(np.searchsorted(e, float(getattr(rec, value)), side="right"))] += 1
    return hists


def filter_confident(records: Sequence[UncertaintyRecord],
                     min_score: float = 0.5) -> list[UncertaintyRecord]:
    """Keep records scoring strictly above the cutoff."""
    return [r for r in records if r.score > min_score]


RECORD_FIELDS = tuple(f.name for f in fields(UncertaintyRecord))
# sigma_label is nan for a detection that matched no truth
RECORD_TYPES = tuple({"det_id": str, "difficulty": str, "sigma_label": float}.get(
    name, finite_float) for name in RECORD_FIELDS)


def save_records(records: Sequence[UncertaintyRecord], path) -> None:
    write_table(path, RECORD_FIELDS, map(astuple, records))


def load_records(path) -> list[UncertaintyRecord]:
    return [UncertaintyRecord(*row) for row in read_table(path, RECORD_FIELDS, RECORD_TYPES)]


def records_from_detections(detections, gts=(), noise=()) -> list[UncertaintyRecord]:
    """Build analysis records, joining ground truth by greedy IoU matching.

    Detections only need box/score/log-variance attributes. When ground
    truths are supplied, a matched detection inherits the truth's
    difficulty, and its oracle noise magnitude when noise records are
    aligned with the truths; unmatched detections keep an empty
    difficulty and NaN sigma.
    """
    result = match(detections, [g.box for g in gts], iou_bev_rotated, MATCH_THRESHOLD)
    matched_gt = {d: g for d, g, _ in result.matches}
    out = []
    for i, det in enumerate(detections):
        frame = getattr(det, "frame_id", "")
        difficulty = ""
        sigma = math.nan
        j = matched_gt.get(i)
        if j is not None:
            difficulty = gts[j].difficulty.value
            if noise:
                sigma = float(noise[j].sigma_label)
        out.append(UncertaintyRecord(
            det_id=f"{frame}:{i}" if frame else str(i),
            score=float(det.score),
            distance=math.hypot(det.box.cx, det.box.cy),
            yaw=float(det.box.yaw),
            rpn_tv=total_variance(det.rpn_log_var),
            frh_loc_tv=total_variance(det.loc_log_var),
            frh_orient_tv=total_variance(det.orient_log_var),
            difficulty=difficulty,
            sigma_label=sigma))
    return out
