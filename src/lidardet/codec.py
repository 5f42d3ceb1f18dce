"""Anchor fitting and box/target codecs for the two detection stages.

Stage 1 (region proposals) works entirely with yaw-free boxes: anchors are
fitted by k-means over ground-truth dimensions and offsets are encoded
relative to the anchor diagonal. Stage 2 (refinement) encodes a rotated
box against a yaw-free ROI as four per-corner offsets plus a vertical
extent pair, with heading carried separately as (cos, sin).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .boxgeom import Box3D, bev_corners, box_extents, iou_aa, wrap_angle
from .errors import InsufficientData

RPN_DIM = 6
FRH_LOC_DIM = 10
FRH_ORIENT_DIM = 2


def kmeans_anchor_dims(gt_dims, k: int = 2, seed: int = 0, max_iter: int = 100) -> np.ndarray:
    """Lloyd's k-means over (l, w, h) triples with farthest-point seeding.

    The seed picks the first centroid; the remaining seeds maximize the
    distance to the nearest chosen centroid (ties resolved by lowest
    index), which makes the whole fit deterministic. Empty clusters keep
    their previous centroid.
    """
    pts = np.asarray(gt_dims, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"gt_dims must have shape (N, 3), got {pts.shape}")
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
    for _ in range(max_iter):
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
    return Box3D(
        anchor.cx + float(t[0]) * diag,
        anchor.cy + float(t[1]) * diag,
        anchor.cz + float(t[2]) * anchor.h,
        anchor.l * math.exp(float(t[4])),
        anchor.w * math.exp(float(t[3])),
        anchor.h * math.exp(float(t[5])),
        0.0,
    )


def encode_frh(roi: Box3D, gt: Box3D, ground_z: float = 0.0):
    """Stage-2 encoding of a rotated gt against a yaw-free ROI.

    Returns ``(t_v, r_v)``: t_v holds the four per-corner BEV offsets
    (gt corner minus ROI corner, normalized by the ROI diagonal; x
    offsets first, then y) followed by the bottom/top heights above
    ``ground_z`` normalized by the ROI height. r_v is (cos yaw, sin yaw).
    Corners pair up by index (both rings start at the local (+l/2, +w/2)
    corner), which is unambiguous for |yaw| < pi/4.
    """
    _require_yaw_free(roi, "roi")
    diag = math.hypot(roi.l, roi.w)
    delta = (bev_corners(gt) - bev_corners(roi)) / diag
    t_v = np.concatenate([
        delta[:, 0], delta[:, 1],
        [(gt.z_bottom - ground_z) / roi.h, (gt.z_top - ground_z) / roi.h],
    ])
    r_v = np.array([math.cos(gt.yaw), math.sin(gt.yaw)])
    return t_v, r_v


def decode_frh(roi: Box3D, t_v: np.ndarray, r_v: np.ndarray,
               ground_z: float = 0.0) -> Box3D:
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
    z_bottom = ground_z + float(t_v[8]) * roi.h
    z_top = ground_z + float(t_v[9]) * roi.h
    yaw = math.atan2(float(r_v[1]), float(r_v[0]))
    return Box3D(float(center[0]), float(center[1]), 0.5 * (z_bottom + z_top),
                 max(float(l), 1e-3), max(float(w), 1e-3),
                 max(z_top - z_bottom, 1e-3), wrap_angle(yaw))


class AssignLabel(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    IGNORE = "ignore"


@dataclass
class Assignment:
    label: AssignLabel
    matched_gt_index: Optional[int]


def assign(candidates: Sequence[Box3D], gts: Sequence[Box3D],
           pos_threshold: float, neg_threshold: float) -> list[Assignment]:
    """Threshold candidates into positive/negative/ignore by max AA IoU.

    A candidate is positive at or above ``pos_threshold`` (matched to the
    gt of highest IoU, lowest index on ties), negative strictly below
    ``neg_threshold``, and ignored in between. With no gts everything is
    negative.
    """
    if not pos_threshold >= neg_threshold:
        raise ValueError(f"pos_threshold {pos_threshold} must be >= neg_threshold {neg_threshold}")
    if len(gts) == 0:
        return [Assignment(AssignLabel.NEGATIVE, None) for _ in candidates]
    iou = iou_aa(box_extents(candidates), box_extents(gts))
    best = iou.argmax(axis=1)
    best_iou = iou[np.arange(len(candidates)), best]
    out = []
    for i in range(len(candidates)):
        if best_iou[i] >= pos_threshold:
            out.append(Assignment(AssignLabel.POSITIVE, int(best[i])))
        elif best_iou[i] < neg_threshold:
            out.append(Assignment(AssignLabel.NEGATIVE, None))
        else:
            out.append(Assignment(AssignLabel.IGNORE, None))
    return out
