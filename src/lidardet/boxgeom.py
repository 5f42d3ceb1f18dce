"""Oriented 3D boxes, BEV IoU computations, and non-maximum suppression.

Coordinate conventions used throughout the package: x forward, y lateral,
z up, all in meters in the sensor frame. A box's ``l`` runs along its
heading, ``w`` across it, ``h`` vertically; ``yaw`` is the heading angle
in the BEV plane, normalized to (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


def wrap_angle(angle: float) -> float:
    """Normalize an angle to the half-open interval (-pi, pi]."""
    a = math.remainder(float(angle), math.tau)
    return math.pi if a == -math.pi else a


@dataclass
class Box3D:
    """Oriented box: center, dims (length, width, height), BEV yaw."""

    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        if not (self.l > 0.0 and self.w > 0.0 and self.h > 0.0):
            raise ValueError(f"box dimensions must be positive: {(self.l, self.w, self.h)}")
        self.yaw = wrap_angle(self.yaw)

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h

    @property
    def z_bottom(self) -> float:
        return self.cz - 0.5 * self.h

    @property
    def z_top(self) -> float:
        return self.cz + 0.5 * self.h


# Local corner order: counter-clockwise, starting at (+l/2, +w/2).
_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def bev_corners(box: Box3D) -> np.ndarray:
    """Counter-clockwise BEV footprint corners, shape (4, 2).

    The first corner is the rotated image of the local (+l/2, +w/2)
    corner, which keeps corner indices comparable between boxes.
    """
    local = _CORNER_SIGNS * np.array([0.5 * box.l, 0.5 * box.w])
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rot = np.array([[c, -s], [s, c]])
    return local @ rot.T + np.array([box.cx, box.cy])


def aa_envelope(box: Box3D) -> Box3D:
    """Axis-aligned, yaw-free box covering the rotated BEV footprint."""
    if box.yaw == 0.0:
        return Box3D(box.cx, box.cy, box.cz, box.l, box.w, box.h, 0.0)
    c, s = abs(math.cos(box.yaw)), abs(math.sin(box.yaw))
    return Box3D(box.cx, box.cy, box.cz,
                 box.l * c + box.w * s, box.l * s + box.w * c, box.h, 0.0)


def polygon_area(points: np.ndarray) -> float:
    """Shoelace area; positive for counter-clockwise vertex order."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        return 0.0
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _clip_convex(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by a CCW convex polygon."""
    output = np.asarray(subject, dtype=float)
    m = len(clipper)
    for i in range(m):
        if len(output) == 0:
            break
        a = clipper[i]
        b = clipper[(i + 1) % m]
        ex, ey = b[0] - a[0], b[1] - a[1]
        # signed distance side: >= 0 is the interior for a CCW clipper
        d = ex * (output[:, 1] - a[1]) - ey * (output[:, 0] - a[0])
        kept = []
        n = len(output)
        for j in range(n):
            k = (j + 1) % n
            if d[j] >= 0.0:
                kept.append(output[j])
            if (d[j] < 0.0) != (d[k] < 0.0):
                t = d[j] / (d[j] - d[k])
                kept.append(output[j] + t * (output[k] - output[j]))
        output = np.array(kept) if kept else np.empty((0, 2))
    return output


def intersection_area_bev(a: Box3D, b: Box3D) -> float:
    """Area of the intersection of two rotated BEV footprints."""
    poly = _clip_convex(bev_corners(a), bev_corners(b))
    return max(0.0, polygon_area(poly))


def aa_extents(cx, cy, l, w) -> np.ndarray:
    """(N, 4) ``x1, x2, y1, y2`` extents of axis-aligned l-by-w footprints."""
    return np.stack([cx - 0.5 * l, cx + 0.5 * l, cy - 0.5 * w, cy + 0.5 * w], axis=-1)


def box_extents(boxes: Sequence[Box3D]) -> np.ndarray:
    """Extents of the boxes' axis-aligned l-by-w footprints; yaw is ignored."""
    return aa_extents(*np.array([(b.cx, b.cy, b.l, b.w) for b in boxes],
                                dtype=np.float64).reshape(-1, 4).T)


def iou_aa(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (N, 4) and (M, 4) extents, shape (N, M).

    Area is ``(x2 - x1) * (y2 - y1)``; a pair whose union is not positive
    scores 0. The arithmetic runs on (M, N) arrays with a's axis innermost
    and contiguous, the fast layout when a is the longer side.
    """
    ax1, ax2, ay1, ay2 = np.ascontiguousarray(a.T)
    bx1, bx2, by1, by2 = b.T[:, :, None]
    inter = (np.maximum(np.minimum(ax2, bx2) - np.maximum(ax1, bx1), 0.0)
             * np.maximum(np.minimum(ay2, by2) - np.maximum(ay1, by1), 0.0))
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0).T


ENVELOPE_GAP = 1e-9  # m; far above the rounding of corners and envelopes


def iou_bev_rotated(a: Box3D, b: Box3D) -> float:
    """IoU of the rotated BEV footprints via convex polygon clipping; 0 with no
    clipping when their envelopes lie more than ENVELOPE_GAP apart."""
    ea, eb = aa_envelope(a), aa_envelope(b)
    if (abs(ea.cx - eb.cx) - 0.5 * (ea.l + eb.l) > ENVELOPE_GAP
            or abs(ea.cy - eb.cy) - 0.5 * (ea.w + eb.w) > ENVELOPE_GAP):
        return 0.0
    inter = intersection_area_bev(a, b)
    if inter <= 0.0:
        return 0.0
    union = a.l * a.w + b.l * b.w - inter
    return inter / union if union > 0.0 else 0.0


def iou_3d(a: Box3D, b: Box3D) -> float:
    """3D IoU: rotated BEV intersection times vertical overlap over volume union."""
    dz = min(a.z_top, b.z_top) - max(a.z_bottom, b.z_bottom)
    if dz <= 0.0:
        return 0.0
    inter_bev = intersection_area_bev(a, b)
    if inter_bev <= 0.0:
        return 0.0
    inter = inter_bev * dz
    union = a.volume + b.volume - inter
    return inter / union if union > 0.0 else 0.0


def nms_indices(extents: np.ndarray, scores: np.ndarray, iou_threshold: float,
                keep_max: Optional[int] = None) -> list[int]:
    """Greedy NMS over axis-aligned BEV footprints; returns kept row indices.

    ``extents`` is the (N, 4) ``x1, x2, y1, y2`` array of ``box_extents`` or
    ``aa_extents`` and ``scores`` the (N,) scores. Rows are visited by
    descending score, ties going to the lower index; a row is suppressed when
    its ``iou_aa`` with an already kept row exceeds the threshold. At most
    ``keep_max`` rows are kept, in visiting order, so the result is a
    subsequence of the score-sorted input.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in [0, 1], got {iou_threshold}")
    kept: list[int] = []
    suppressed = np.zeros(len(extents), dtype=bool)
    for i in np.argsort(-scores, kind="stable").tolist():
        if keep_max is not None and len(kept) >= keep_max:
            break
        if suppressed[i]:
            continue
        kept.append(i)
        suppressed |= iou_aa(extents, extents[i:i + 1])[:, 0] > iou_threshold
    return kept
