"""Target codecs, anchor fitting, and IoU-threshold assignment."""

import math

import numpy as np
import pytest

from lidardet.boxgeom import Box3D, box_extents, iou_aa, iou_bev_rotated
from lidardet.codec import (FRH_LOC_DIM, FRH_ORIENT_DIM, RPN_DIM, assign,
                            decode_frh, decode_rpn, encode_frh, encode_rpn,
                            kmeans_anchor_dims)
from lidardet.errors import InsufficientData


def random_yaw_free(rng, span=10.0):
    return Box3D(cx=rng.uniform(-span, span), cy=rng.uniform(-span, span),
                 cz=rng.uniform(0.2, 2.0), l=rng.uniform(2.5, 5.5),
                 w=rng.uniform(1.2, 2.4), h=rng.uniform(1.0, 2.2), yaw=0.0)


class TestRpnCodec:
    def test_zero_offset_is_exact_zero(self):
        anchor = Box3D(10, -3, 0.8, 4.2, 1.8, 1.6, 0.0)
        t = encode_rpn(anchor, anchor)
        assert np.array_equal(t, np.zeros(RPN_DIM))

    def test_decode_of_zeros_returns_anchor(self):
        anchor = Box3D(10, -3, 0.8, 4.2, 1.8, 1.6, 0.0)
        box = decode_rpn(anchor, np.zeros(RPN_DIM))
        for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
            assert getattr(box, f) == getattr(anchor, f)

    def test_roundtrip_thousand_pairs(self):
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(1000):
            anchor, gt = random_yaw_free(rng), random_yaw_free(rng)
            back = decode_rpn(anchor, encode_rpn(anchor, gt))
            for f in ("cx", "cy", "cz", "l", "w", "h"):
                worst = max(worst, abs(getattr(back, f) - getattr(gt, f)))
        assert worst < 1e-9

    def test_center_normalized_by_anchor_diagonal(self):
        anchor = Box3D(0, 0, 1.0, 3.0, 4.0, 2.0, 0.0)
        gt = Box3D(5.0, 0, 1.0, 3.0, 4.0, 2.0, 0.0)
        t = encode_rpn(anchor, gt)
        assert t[0] == pytest.approx(5.0 / 5.0)  # diag = hypot(3,4) = 5
        assert t[1] == 0.0 and t[2] == 0.0

    def test_rotated_inputs_rejected(self):
        anchor = Box3D(0, 0, 1, 4, 2, 1.5, 0.0)
        gt = Box3D(0, 0, 1, 4, 2, 1.5, 0.2)
        with pytest.raises(ValueError):
            encode_rpn(anchor, gt)
        with pytest.raises(ValueError):
            encode_rpn(gt, anchor)


class TestFrhCodec:
    def test_shapes(self):
        roi = Box3D(8, 1, 0.9, 4.0, 1.9, 1.7, 0.0)
        gt = Box3D(8.3, 0.8, 0.85, 4.3, 1.8, 1.6, 0.2)
        t_v, r_v = encode_frh(roi, gt)
        assert t_v.shape == (FRH_LOC_DIM,) and r_v.shape == (FRH_ORIENT_DIM,)

    def test_identity_roi_zero_yaw(self):
        roi = Box3D(8, 1, 0.9, 4.0, 1.9, 1.7, 0.0)
        t_v, r_v = encode_frh(roi, roi)
        np.testing.assert_allclose(t_v[:8], 0.0, atol=1e-15)
        np.testing.assert_allclose(r_v, [1.0, 0.0], atol=1e-15)
        back = decode_frh(roi, t_v, r_v)
        for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
            assert getattr(back, f) == pytest.approx(getattr(roi, f), abs=1e-12)

    def test_roundtrip_thousand_pairs_quarter_turn(self):
        rng = np.random.default_rng(200)
        worst = 0.0
        for _ in range(1000):
            roi = random_yaw_free(rng)
            gt = Box3D(roi.cx + rng.uniform(-1, 1), roi.cy + rng.uniform(-1, 1),
                       rng.uniform(0.3, 1.5), rng.uniform(3.0, 5.0),
                       rng.uniform(1.4, 2.2), rng.uniform(1.2, 2.0),
                       rng.uniform(-math.pi / 4, math.pi / 4))
            t_v, r_v = encode_frh(roi, gt)
            back = decode_frh(roi, t_v, r_v)
            for f in ("cx", "cy", "cz", "l", "w", "h", "yaw"):
                worst = max(worst, abs(getattr(back, f) - getattr(gt, f)))
        assert worst < 1e-6

    def test_orientation_is_cos_sin(self):
        roi = Box3D(0, 0, 1, 4, 2, 1.5, 0.0)
        gt = Box3D(0, 0, 1, 4, 2, 1.5, 0.6)
        _, r_v = encode_frh(roi, gt)
        assert r_v[0] == pytest.approx(math.cos(0.6))
        assert r_v[1] == pytest.approx(math.sin(0.6))

    def test_decode_scale_invariant_in_orientation(self):
        roi = Box3D(0, 0, 1, 4, 2, 1.5, 0.0)
        gt = Box3D(0.2, -0.1, 1, 4.1, 1.9, 1.4, 0.3)
        t_v, r_v = encode_frh(roi, gt)
        a = decode_frh(roi, t_v, r_v)
        b = decode_frh(roi, t_v, 2.5 * r_v)
        assert a.yaw == pytest.approx(b.yaw, abs=1e-12)

    def test_decoded_box_close_in_iou(self):
        rng = np.random.default_rng(300)
        for _ in range(200):
            roi = random_yaw_free(rng)
            gt = Box3D(roi.cx + rng.uniform(-0.5, 0.5),
                       roi.cy + rng.uniform(-0.5, 0.5), 0.8,
                       rng.uniform(3.5, 4.8), rng.uniform(1.5, 2.1), 1.5,
                       rng.uniform(-math.pi / 4, math.pi / 4))
            t_v, r_v = encode_frh(roi, gt)
            back = decode_frh(roi, t_v, r_v)
            assert iou_bev_rotated(back, gt) > 1.0 - 1e-9


class TestKmeans:
    def test_recovers_two_separated_modes(self):
        rng = np.random.default_rng(400)
        small = rng.normal([3.8, 1.6, 1.5], 0.05, size=(120, 3))
        large = rng.normal([5.2, 2.1, 1.9], 0.05, size=(80, 3))
        dims = np.vstack([small, large])
        centers = kmeans_anchor_dims(dims, k=2, seed=0)
        centers = centers[np.argsort(centers[:, 0])]
        np.testing.assert_allclose(centers[0], [3.8, 1.6, 1.5], atol=0.05)
        np.testing.assert_allclose(centers[1], [5.2, 2.1, 1.9], atol=0.05)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(401)
        dims = rng.uniform([3, 1.4, 1.2], [5.5, 2.3, 2.0], size=(200, 3))
        a = kmeans_anchor_dims(dims, k=3, seed=7)
        b = kmeans_anchor_dims(dims, k=3, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientData):
            kmeans_anchor_dims(np.array([[4.0, 2.0, 1.5]]), k=2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_cluster_count_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            kmeans_anchor_dims(np.array([[4.0, 2.0, 1.5]] * 3), k=k)


class TestIouMatrix:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(500)
        xs = [random_yaw_free(rng, 5.0) for _ in range(12)]
        ys = [random_yaw_free(rng, 5.0) for _ in range(9)]
        mat = iou_aa(box_extents(xs), box_extents(ys))
        assert mat.shape == (12, 9)
        for i, a in enumerate(xs):
            for j, b in enumerate(ys):
                ix = max(0.0, min(a.cx + a.l / 2, b.cx + b.l / 2)
                         - max(a.cx - a.l / 2, b.cx - b.l / 2))
                iy = max(0.0, min(a.cy + a.w / 2, b.cy + b.w / 2)
                         - max(a.cy - a.w / 2, b.cy - b.w / 2))
                inter = ix * iy
                union = a.l * a.w + b.l * b.w - inter
                assert mat[i, j] == pytest.approx(inter / union, abs=1e-12)

    def test_empty_inputs(self):
        assert iou_aa(box_extents([]), box_extents([])).shape == (0, 0)
        box = Box3D(0, 0, 0, 2, 2, 1, 0)
        assert iou_aa(box_extents([box]), box_extents([])).shape == (1, 0)


def iou_of(candidates, gts):
    return iou_aa(box_extents(candidates), box_extents(gts))


class TestAssign:
    def test_thresholds_and_labels(self):
        gt = Box3D(0, 0, 0.8, 4, 2, 1.5, 0.0)
        exact = Box3D(0, 0, 0.8, 4, 2, 1.5, 0.0)
        near = Box3D(0.5, 0, 0.8, 4, 2, 1.5, 0.0)   # IoU 7/9
        far = Box3D(20, 0, 0.8, 4, 2, 1.5, 0.0)
        labels, matched = assign(iou_of([exact, near, far], [gt]), 0.8, 0.3)
        assert labels.tolist() == [1, -1, 0]
        assert matched.tolist() == [0, -1, -1]

    def test_dtypes_and_shapes(self):
        for shape in ((4, 3), (4, 0), (0, 3), (0, 0)):
            labels, matched = assign(np.zeros(shape), 0.5, 0.3)
            assert labels.dtype == np.int64 and matched.dtype == np.int64
            assert labels.shape == matched.shape == (shape[0],)

    def test_positive_at_threshold_boundary(self):
        gt = Box3D(0, 0, 0.8, 4, 2, 1.5, 0.0)
        near = Box3D(0.5, 0, 0.8, 4, 2, 1.5, 0.0)   # IoU 7/9 exactly
        iou = iou_of([near], [gt])
        assert iou[0, 0] == 7.0 / 9.0
        labels, matched = assign(iou, 7.0 / 9.0, 0.3)
        assert labels.tolist() == [1] and matched.tolist() == [0]
        labels, matched = assign(iou, np.nextafter(7.0 / 9.0, 1.0), 0.3)
        assert labels.tolist() == [-1] and matched.tolist() == [-1]

    def test_no_gts_everything_negative(self):
        labels, matched = assign(np.zeros((5, 0)), 0.5, 0.3)
        assert labels.tolist() == [0] * 5
        assert matched.tolist() == [-1] * 5

    def test_no_gts_and_zero_negative_threshold_ignores_everything(self):
        # with no truths the best IoU counts as 0, and 0 < 0 is false
        labels, matched = assign(np.zeros((5, 0)), 0.5, 0.0)
        assert labels.tolist() == [-1] * 5
        assert matched.tolist() == [-1] * 5

    def test_best_gt_tie_breaks_low_index(self):
        gt = Box3D(0, 0, 0.8, 4, 2, 1.5, 0.0)
        labels, matched = assign(iou_of([gt], [gt, gt]), 0.5, 0.3)
        assert labels.tolist() == [1] and matched.tolist() == [0]
        labels, matched = assign(np.array([[0.2, 0.9, 0.9]]), 0.5, 0.3)
        assert matched.tolist() == [1]

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(7)
        iou = rng.choice([0.0, 0.25, 0.3, 0.5, 0.55, 0.65, 0.9], size=(300, 4))
        labels, matched = assign(iou, 0.55, 0.3)
        for i, row in enumerate(iou):
            j = int(np.argmax(row))
            if row[j] >= 0.55:
                assert (labels[i], matched[i]) == (1, j)
            else:
                assert (labels[i], matched[i]) == ((0 if row[j] < 0.3 else -1), -1)

    def test_bad_threshold_order_rejected(self):
        with pytest.raises(ValueError):
            assign(np.zeros((0, 0)), 0.3, 0.5)
