"""Anchor fitting, box/target codecs and IoU-threshold assignment for the
two detection stages.

Stage 1 (region proposals) works entirely with yaw-free boxes: anchors are
fitted by k-means over ground-truth dimensions and offsets are encoded
relative to the anchor diagonal. Stage 2 (refinement) encodes a rotated
box against a yaw-free ROI as four per-corner offsets plus a vertical
extent pair, with heading carried separately as (cos, sin).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .boxgeom import Box3D, bev_corners, wrap_angle
from .errors import DecodeError, InsufficientData

RPN_DIM = 6
FRH_LOC_DIM = 10
FRH_ORIENT_DIM = 2
KMEANS_MAX_ITER = 100


def kmeans_anchor_dims(gt_dims, k: int = 2, seed: int = 0) -> np.ndarray:
    """Lloyd's k-means over (l, w, h) triples with farthest-point seeding.

    The seed picks the first centroid; the remaining seeds maximize the
    distance to the nearest chosen centroid (ties resolved by lowest
    index), which makes the whole fit deterministic. Empty clusters keep
    their previous centroid; at most KMEANS_MAX_ITER Lloyd steps run.
    """
    pts = np.asarray(gt_dims, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"gt_dims must have shape (N, 3), got {pts.shape}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(pts)
    if n < k:
        raise InsufficientData(f"need at least {k} samples, got {n}")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, 3), dtype=np.float64)
    centers[0] = pts[int(rng.integers(n))]
    min_d = ((pts - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centers[j] = pts[int(np.argmax(min_d))]
        min_d = np.minimum(min_d, ((pts - centers[j]) ** 2).sum(axis=1))

    assign: Optional[np.ndarray] = None
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = pts[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return centers


def _require_yaw_free(box: Box3D, what: str) -> None:
    if box.yaw != 0.0:
        raise ValueError(f"{what} must be yaw-free, got yaw={box.yaw}")


def encode_rpn(anchor: Box3D, gt: Box3D) -> np.ndarray:
    """Stage-1 target vector (dx, dy, dz, dw, dl, dh) for a yaw-free pair.

    Center offsets are normalized by the anchor BEV diagonal (dz by the
    anchor height); dimensions are log ratios.
    """
    _require_yaw_free(anchor, "anchor")
    _require_yaw_free(gt, "gt")
    diag = math.hypot(anchor.l, anchor.w)
    return np.array([
        (gt.cx - anchor.cx) / diag,
        (gt.cy - anchor.cy) / diag,
        (gt.cz - anchor.cz) / anchor.h,
        math.log(gt.w / anchor.w),
        math.log(gt.l / anchor.l),
        math.log(gt.h / anchor.h),
    ])


def decode_rpn(anchor: Box3D, t: np.ndarray) -> Box3D:
    """Exact inverse of ``encode_rpn``; returns a yaw-free box."""
    _require_yaw_free(anchor, "anchor")
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (RPN_DIM,):
        raise ValueError(f"expected shape ({RPN_DIM},), got {t.shape}")
    diag = math.hypot(anchor.l, anchor.w)
    try:
        l, w, h = (anchor.l * math.exp(float(t[4])), anchor.w * math.exp(float(t[3])),
                   anchor.h * math.exp(float(t[5])))
    except OverflowError:
        raise DecodeError(f"stage-1 size offsets {t[3:].tolist()} overflow exp") from None
    return _decoded_box("stage-1", anchor.cx + float(t[0]) * diag,
                        anchor.cy + float(t[1]) * diag, anchor.cz + float(t[2]) * anchor.h,
                        l, w, h, 0.0)


def _decoded_box(what: str, *values: float) -> Box3D:
    """Box3D(*values), or DecodeError when a value is not finite or a size
    is not positive, as network output far out of range can make them."""
    if not (all(map(math.isfinite, values)) and min(values[3:6]) > 0.0):
        raise DecodeError(f"{what} output decodes to box {values}, "
                          f"which needs finite values and positive sizes")
    return Box3D(*values)


def encode_frh(roi: Box3D, gt: Box3D):
    """Stage-2 encoding of a rotated gt against a yaw-free ROI.

    Returns ``(t_v, r_v)``: t_v holds the four per-corner BEV offsets
    (gt corner minus ROI corner, normalized by the ROI diagonal; x
    offsets first, then y) followed by the bottom/top heights above
    z = 0 normalized by the ROI height. r_v is (cos yaw, sin yaw).
    Corners pair up by index (both rings start at the local (+l/2, +w/2)
    corner), which is unambiguous for |yaw| < pi/4.
    """
    _require_yaw_free(roi, "roi")
    diag = math.hypot(roi.l, roi.w)
    delta = (bev_corners(gt) - bev_corners(roi)) / diag
    t_v = np.concatenate([
        delta[:, 0], delta[:, 1],
        [gt.z_bottom / roi.h, gt.z_top / roi.h],
    ])
    r_v = np.array([math.cos(gt.yaw), math.sin(gt.yaw)])
    return t_v, r_v


def decode_frh(roi: Box3D, t_v: np.ndarray, r_v: np.ndarray) -> Box3D:
    """Rebuild a rotated box from corner offsets and a (cos, sin) heading.

    The center is the mean of the reconstructed corners, the footprint
    dims are the means of opposite edge lengths, and yaw is
    ``atan2(sin, cos)`` after renormalizing, so any common positive
    scaling of r_v decodes identically. Dims are floored at 1 mm to keep
    the box valid for arbitrary network output.
    """
    _require_yaw_free(roi, "roi")
    t_v = np.asarray(t_v, dtype=np.float64)
    r_v = np.asarray(r_v, dtype=np.float64)
    if t_v.shape != (FRH_LOC_DIM,):
        raise ValueError(f"expected t_v shape ({FRH_LOC_DIM},), got {t_v.shape}")
    if r_v.shape != (FRH_ORIENT_DIM,):
        raise ValueError(f"expected r_v shape ({FRH_ORIENT_DIM},), got {r_v.shape}")

    diag = math.hypot(roi.l, roi.w)
    corners = bev_corners(roi) + diag * np.stack([t_v[0:4], t_v[4:8]], axis=1)
    center = corners.mean(axis=0)
    edge = np.linalg.norm
    l = 0.5 * (edge(corners[0] - corners[1]) + edge(corners[2] - corners[3]))
    w = 0.5 * (edge(corners[1] - corners[2]) + edge(corners[3] - corners[0]))
    z_bottom = float(t_v[8]) * roi.h
    z_top = float(t_v[9]) * roi.h
    yaw = math.atan2(float(r_v[1]), float(r_v[0]))
    return _decoded_box("stage-2", float(center[0]), float(center[1]),
                        0.5 * (z_bottom + z_top), max(float(l), 1e-3),
                        max(float(w), 1e-3), max(z_top - z_bottom, 1e-3),
                        wrap_angle(yaw))


def assign(iou: np.ndarray, pos_threshold: float, neg_threshold: float):
    """IoU-threshold labels for an (N, M) candidate-by-truth IoU matrix.

    Returns ``(labels, matched)``, both int64 of length N. A candidate is
    positive (1) when its highest IoU is at or above ``pos_threshold``,
    negative (0) when it is strictly below ``neg_threshold``, and ignored
    (-1) in between; with no truths its highest IoU counts as 0 and it is
    never positive. ``matched`` is the index of the truth of highest IoU
    (lowest index on ties) for positives and -1 for every other candidate.
    """
    if not pos_threshold >= neg_threshold:
        raise ValueError(f"pos_threshold {pos_threshold} must be >= neg_threshold {neg_threshold}")
    best_iou = iou.max(axis=1, initial=0.0)
    best = iou.argmax(axis=1) if iou.shape[1] else np.full(len(iou), -1, dtype=np.int64)
    positive = (best_iou >= pos_threshold) & (best >= 0)
    labels = np.where(positive, 1, np.where(best_iou < neg_threshold, 0, -1))
    return labels.astype(np.int64), np.where(positive, best, -1).astype(np.int64)
