"""Rotated-box geometry: corners, overlap areas, IoU, and greedy NMS."""

import math

import numpy as np
import pytest

from lidardet.boxgeom import (Box3D, aa_envelope, bev_corners, box_extents,
                              intersection_area_bev, iou_3d, iou_aa,
                              iou_bev_rotated, nms_indices, polygon_area,
                              wrap_angle)


def mc_iou_bev(a, b, rng, samples=400_000):
    """Monte-Carlo BEV IoU: uniform samples over the joint bounding box."""
    def half_extents(box):
        c, s = abs(math.cos(box.yaw)), abs(math.sin(box.yaw))
        return 0.5 * (box.l * c + box.w * s), 0.5 * (box.l * s + box.w * c)

    ha, hb = half_extents(a), half_extents(b)
    x_lo = min(a.cx - ha[0], b.cx - hb[0])
    x_hi = max(a.cx + ha[0], b.cx + hb[0])
    y_lo = min(a.cy - ha[1], b.cy - hb[1])
    y_hi = max(a.cy + ha[1], b.cy + hb[1])
    xs = rng.uniform(x_lo, x_hi, samples)
    ys = rng.uniform(y_lo, y_hi, samples)

    def inside(box):
        dx, dy = xs - box.cx, ys - box.cy
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        lx = dx * c + dy * s
        ly = -dx * s + dy * c
        return (np.abs(lx) <= 0.5 * box.l) & (np.abs(ly) <= 0.5 * box.w)

    in_a, in_b = inside(a), inside(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def brute_nms(boxes, scores, threshold, keep_max=None):
    """Independent greedy reference: AA IoU, score order, index tie-break."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], i))
    kept = []
    for i in order:
        if keep_max is not None and len(kept) >= keep_max:
            break
        suppressed = False
        for j in kept:
            a, b = boxes[i], boxes[j]
            ax1, ax2 = a.cx - a.l / 2, a.cx + a.l / 2
            ay1, ay2 = a.cy - a.w / 2, a.cy + a.w / 2
            bx1, bx2 = b.cx - b.l / 2, b.cx + b.l / 2
            by1, by2 = b.cy - b.w / 2, b.cy + b.w / 2
            iw = max(0.0, min(ax2, bx2) - max(ax1, bx1))
            ih = max(0.0, min(ay2, by2) - max(ay1, by1))
            inter = iw * ih
            union = a.l * a.w + b.l * b.w - inter
            if union > 0 and inter / union > threshold:
                suppressed = True
                break
        if not suppressed:
            kept.append(i)
    return kept


def random_box(rng, span=20.0):
    return Box3D(cx=rng.uniform(-span, span), cy=rng.uniform(-span, span),
                 cz=rng.uniform(0, 2), l=rng.uniform(1, 6), w=rng.uniform(1, 4),
                 h=rng.uniform(0.5, 2.5), yaw=rng.uniform(-math.pi, math.pi))


class TestWrapAngle:
    def test_identity_inside_interval(self):
        for a in (-3.0, -0.5, 0.0, 2.0, math.pi):
            assert wrap_angle(a) == pytest.approx(a)

    def test_wraps_to_half_open_interval(self):
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(7 * math.pi) == pytest.approx(math.pi)

    def test_periodicity_property(self):
        rng = np.random.default_rng(0)
        for a in rng.uniform(-30, 30, 200):
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)
            assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)


class TestCornersAndArea:
    def test_axis_aligned_corners(self):
        box = Box3D(1.0, 2.0, 0.0, 4.0, 2.0, 1.5, 0.0)
        corners = bev_corners(box)
        expect = {(3.0, 3.0), (3.0, 1.0), (-1.0, 1.0), (-1.0, 3.0)}
        got = {(round(x, 9), round(y, 9)) for x, y in corners}
        assert got == expect

    def test_rotation_preserves_footprint_area(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            box = random_box(rng)
            assert polygon_area(bev_corners(box)) == pytest.approx(box.l * box.w)

    def test_shoelace_unit_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert polygon_area(pts) == pytest.approx(1.0)


class TestIntersectionArea:
    def test_identical_boxes(self):
        box = Box3D(0, 0, 0, 4, 2, 1, 0.3)
        assert intersection_area_bev(box, box) == pytest.approx(8.0)

    def test_disjoint_boxes(self):
        a = Box3D(0, 0, 0, 2, 2, 1, 0.0)
        b = Box3D(10, 0, 0, 2, 2, 1, 1.0)
        assert intersection_area_bev(a, b) == 0.0

    def test_half_overlap_axis_aligned(self):
        a = Box3D(0, 0, 0, 2, 2, 1, 0.0)
        b = Box3D(1, 0, 0, 2, 2, 1, 0.0)
        assert intersection_area_bev(a, b) == pytest.approx(2.0)

    def test_square_crossed_at_45_degrees(self):
        # unit-area overlap of a square and its 45-degree twin is the
        # regular octagon of area 8 (sqrt 2 - 1)
        a = Box3D(0, 0, 0, 2, 2, 1, 0.0)
        b = Box3D(0, 0, 0, 2, 2, 1, math.pi / 4)
        assert intersection_area_bev(a, b) == pytest.approx(8 * (math.sqrt(2) - 1))


class TestRotatedIoU:
    def test_identity_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            box = random_box(rng)
            assert iou_bev_rotated(box, box) == pytest.approx(1.0)

    def test_45_degree_cross_closed_form(self):
        a = Box3D(0, 0, 0, 2, 2, 1, 0.0)
        b = Box3D(0, 0, 0, 2, 2, 1, math.pi / 4)
        assert iou_bev_rotated(a, b) == pytest.approx(math.sqrt(2) / 2)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_box(rng, 4.0), random_box(rng, 4.0)
            ab, ba = iou_bev_rotated(a, b), iou_bev_rotated(b, a)
            assert ab == pytest.approx(ba, abs=1e-12)
            assert 0.0 <= ab <= 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            a, b = random_box(rng, 3.0), random_box(rng, 3.0)
            dx, dy = rng.uniform(-50, 50, 2)
            a2 = Box3D(a.cx + dx, a.cy + dy, a.cz, a.l, a.w, a.h, a.yaw)
            b2 = Box3D(b.cx + dx, b.cy + dy, b.cz, b.l, b.w, b.h, b.yaw)
            assert iou_bev_rotated(a, b) == pytest.approx(iou_bev_rotated(a2, b2),
                                                          abs=1e-9)

    def test_envelope_early_out_agrees_with_the_clipper(self):
        rng = np.random.default_rng(8)
        disjoint = 0
        for _ in range(2000):
            a, b = random_box(rng, 6.0), random_box(rng, 6.0)
            ea, eb = aa_envelope(a), aa_envelope(b)
            if (abs(ea.cx - eb.cx) > 0.5 * (ea.l + eb.l)
                    or abs(ea.cy - eb.cy) > 0.5 * (ea.w + eb.w)):
                disjoint += 1
                assert intersection_area_bev(a, b) == 0.0
                assert iou_bev_rotated(a, b) == 0.0
        assert disjoint > 500
        # touching and barely overlapping footprints still go to the clipper
        a = Box3D(0.0, 0.0, 0.8, 4.0, 2.0, 1.5, 0.0)
        for gap in (0.0, -1e-12, 1e-12):
            b = Box3D(4.0 + gap, 0.3, 0.8, 4.0, 2.0, 1.5, 0.0)
            area = intersection_area_bev(a, b)
            assert iou_bev_rotated(a, b) == (area / (16.0 - area) if area > 0.0 else 0.0)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            a, b = random_box(rng, 2.5), random_box(rng, 2.5)
            mc = mc_iou_bev(a, b, rng)
            assert iou_bev_rotated(a, b) == pytest.approx(mc, abs=0.015)


class TestIoU3D:
    def test_hand_case_with_partial_z_overlap(self):
        a = Box3D(0, 0, 1.0, 4, 2, 2, 0.0)
        b = Box3D(1, 0, 1.5, 4, 2, 2, 0.0)
        # bev inter 6, z overlap 1.5 -> inter 9; volumes 16 each
        assert iou_3d(a, b) == pytest.approx(9.0 / 23.0)

    def test_no_z_overlap_gives_zero(self):
        a = Box3D(0, 0, 0.5, 4, 2, 1, 0.0)
        b = Box3D(0, 0, 2.0, 4, 2, 1, 0.0)
        assert iou_3d(a, b) == 0.0

    def test_equals_bev_iou_at_matched_heights(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a, b = random_box(rng, 3.0), random_box(rng, 3.0)
            b = Box3D(b.cx, b.cy, a.cz, b.l, b.w, a.h, b.yaw)
            assert iou_3d(a, b) == pytest.approx(iou_bev_rotated(a, b), abs=1e-12)

    def test_never_exceeds_bev_iou(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = random_box(rng, 3.0), random_box(rng, 3.0)
            assert iou_3d(a, b) <= iou_bev_rotated(a, b) + 1e-12


class TestEnvelope:
    def test_zero_yaw_unchanged(self):
        box = Box3D(1, 2, 3, 4, 2, 1, 0.0)
        assert aa_envelope(box) == box

    def test_envelope_contains_all_corners(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            box = random_box(rng)
            env = aa_envelope(box)
            for x, y in bev_corners(box):
                assert env.cx - env.l / 2 - 1e-9 <= x <= env.cx + env.l / 2 + 1e-9
                assert env.cy - env.w / 2 - 1e-9 <= y <= env.cy + env.w / 2 + 1e-9

    def test_envelope_area_at_least_box_area(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            box = random_box(rng)
            env = aa_envelope(box)
            assert env.l * env.w >= box.l * box.w - 1e-9


class TestAxisAlignedIoU:
    def test_extents_are_x1_x2_y1_y2(self):
        np.testing.assert_array_equal(box_extents([Box3D(1, 2, 0, 4, 2, 1, 0.3)]),
                                      [[-1.0, 3.0, 1.0, 3.0]])

    def test_hand_cases_ignore_yaw(self):
        a = Box3D(0, 0, 0.8, 4, 2, 1.5, 0.0)
        others = [Box3D(0.5, 0, 0.8, 4, 2, 1.5, 0.7), Box3D(5, 0, 0.8, 4, 2, 1.5, 0.0), a]
        iou = iou_aa(box_extents([a]), box_extents(others))[0]
        assert iou[0] == pytest.approx(7 / 9)
        assert iou[1] == 0.0 and iou[2] == 1.0


class TestNms:
    SQUARE = box_extents([Box3D(0, 0, 0, 2, 2, 1, 0)])

    def _random_set(self, rng, n):
        boxes, scores = [], []
        for _ in range(n):
            boxes.append(Box3D(rng.uniform(-8, 8), rng.uniform(-8, 8), 0.0,
                               rng.uniform(1, 5), rng.uniform(1, 3), 1.0, 0.0))
            scores.append(float(rng.uniform(0, 1)))
        return boxes, np.array(scores)

    def test_single_box_kept(self):
        assert nms_indices(self.SQUARE, np.array([0.7]), 0.5) == [0]

    def test_zero_rows_keep_nothing(self):
        assert nms_indices(np.empty((0, 4)), np.empty(0), 0.5) == []
        assert nms_indices(np.empty((0, 4)), np.empty(0), 0.5, keep_max=3) == []

    def test_duplicate_suppressed_keeps_higher_score(self):
        ext = np.repeat(self.SQUARE, 2, axis=0)
        assert nms_indices(ext, np.array([0.4, 0.9]), 0.5) == [1]

    def test_equal_scores_tie_break_by_index(self):
        ext = np.repeat(self.SQUARE, 2, axis=0)
        assert nms_indices(ext, np.array([0.5, 0.5]), 0.5) == [0]

    def test_threshold_is_strict(self):
        # IoU exactly at the threshold is kept, only above suppresses
        ext = box_extents([Box3D(0, 0, 0, 2, 2, 1, 0), Box3D(1, 0, 0, 2, 2, 1, 0)])  # IoU 1/3
        scores = np.array([0.9, 0.8])
        assert nms_indices(ext, scores, 1.0 / 3.0) == [0, 1]
        assert nms_indices(ext, scores, 1.0 / 3.0 - 1e-9) == [0]

    def test_keep_max_truncates(self):
        rng = np.random.default_rng(10)
        boxes, scores = self._random_set(rng, 30)
        full = nms_indices(box_extents(boxes), scores, 0.99)
        capped = nms_indices(box_extents(boxes), scores, 0.99, keep_max=5)
        assert capped == full[:5]

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(0, 40))
            boxes, scores = self._random_set(rng, n)
            threshold = float(rng.uniform(0.1, 0.9))
            assert (nms_indices(box_extents(boxes), scores, threshold)
                    == brute_nms(boxes, scores, threshold))

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            nms_indices(np.empty((0, 4)), np.empty(0), 1.5)
