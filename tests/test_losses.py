"""Base losses, attenuated regression terms, and the multi-task objective."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lidardet.codec import FRH_LOC_DIM, FRH_ORIENT_DIM, RPN_DIM
from lidardet.errors import ShapeError
from lidardet.losses import (LIKELIHOOD_FORMS, STAGE1_HEADS, STAGE2_HEADS,
                             LossBreakdown, attenuated_term, cross_entropy,
                             multi_loss, smooth_l1)
from lidardet.model import StepBatch


class TestSmoothL1:
    def test_quadratic_region(self):
        v, d = smooth_l1(0.5)
        assert v == pytest.approx(0.125)
        assert d == pytest.approx(0.5)

    def test_linear_region(self):
        v, d = smooth_l1(2.0)
        assert v == pytest.approx(1.5)
        assert d == 1.0
        v, d = smooth_l1(-2.0)
        assert v == pytest.approx(1.5)
        assert d == -1.0

    def test_zero(self):
        v, d = smooth_l1(0.0)
        assert v == 0.0 and d == 0.0

    def test_continuous_at_boundary(self):
        lo, _ = smooth_l1(1.0 - 1e-9)
        hi, _ = smooth_l1(1.0 + 1e-9)
        assert abs(hi - lo) < 1e-8

    def test_vector_form(self):
        v, d = smooth_l1(np.array([-3.0, 0.25, 1.5]))
        np.testing.assert_allclose(v, [2.5, 0.03125, 1.0])
        np.testing.assert_allclose(d, [-1.0, 0.25, 1.0])

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        h = 1e-7
        for r in rng.uniform(-4, 4, 200):
            if abs(abs(r) - 1.0) < 1e-3:
                continue  # kink
            _, d = smooth_l1(r)
            fp, _ = smooth_l1(r + h)
            fm, _ = smooth_l1(r - h)
            assert d == pytest.approx((fp - fm) / (2 * h), abs=1e-6)


class TestCrossEntropy:
    def test_huge_logit_gap_is_stable(self):
        v, g = cross_entropy(np.array([1000.0, 0.0]), 0)
        assert v == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.isfinite(g))

    def test_uniform_logits_give_log_c(self):
        v, _ = cross_entropy(np.zeros(4), 2)
        assert v == pytest.approx(math.log(4))

    def test_gradient_is_softmax_minus_onehot(self):
        z = np.array([0.3, -1.2, 2.0])
        _, g = cross_entropy(z, 1)
        e = np.exp(z - z.max())
        p = e / e.sum()
        p[1] -= 1.0
        np.testing.assert_allclose(g, p, atol=1e-12)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, 6)
        vb, gb = cross_entropy(z, labels)
        for i in range(6):
            vi, gi = cross_entropy(z[i], int(labels[i]))
            assert vb[i] == pytest.approx(vi)
            np.testing.assert_allclose(gb[i], gi)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros(3), 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            cross_entropy(np.zeros((2, 3)), np.zeros(3, dtype=int))


class TestAttenuatedTerm:
    def test_gaussian_value_and_partials(self):
        L, s = 0.8, 0.3
        v, dr, ds = attenuated_term(L, s, "gaussian")
        w = 0.5 * math.exp(-s)
        assert v == pytest.approx(w * L + s)
        assert dr == pytest.approx(w)
        assert ds == pytest.approx(1.0 - w * L)

    def test_laplace_value_and_partials(self):
        L, s = 0.8, -0.4
        v, dr, ds = attenuated_term(L, s, "laplace")
        w = math.exp(-s)
        assert v == pytest.approx(w * L + s)
        assert dr == pytest.approx(w)
        assert ds == pytest.approx(1.0 - w * L)

    def test_residual_weight_strictly_decreasing_in_s(self):
        grid = np.linspace(-6, 6, 241)
        _, dr, _ = attenuated_term(np.full_like(grid, 2.0), grid, "gaussian")
        assert np.all(np.diff(dr) < 0)
        np.testing.assert_allclose(dr, 0.5 * np.exp(-grid), rtol=1e-12)

    def test_laplace_minimizer_is_log_residual(self):
        for L in (0.05, 0.7, 3.0, 40.0):
            s_grid = np.linspace(math.log(L) - 2, math.log(L) + 2, 400001)
            v, _, _ = attenuated_term(L, s_grid, "laplace")
            s_star = s_grid[np.argmin(v)]
            assert s_star == pytest.approx(math.log(L), abs=1e-5)

    def test_gaussian_minimizer_is_log_half_residual(self):
        for L in (0.5, 2.0, 10.0):
            s_grid = np.linspace(math.log(0.5 * L) - 2, math.log(0.5 * L) + 2, 400001)
            v, _, _ = attenuated_term(L, s_grid, "gaussian")
            s_star = s_grid[np.argmin(v)]
            assert s_star == pytest.approx(math.log(0.5 * L), abs=1e-5)

    def test_stationary_point_has_zero_s_partial(self):
        for form, L in (("laplace", 1.7), ("gaussian", 1.7)):
            coeff = 1.0 if form == "laplace" else 0.5
            _, _, ds = attenuated_term(L, math.log(coeff * L), form)
            assert ds == pytest.approx(0.0, abs=1e-12)

    def test_unknown_form_rejected(self):
        assert set(LIKELIHOOD_FORMS) == {"gaussian", "laplace"}
        with pytest.raises(ValueError):
            attenuated_term(1.0, 0.0, "student-t")


def _random_batch(rng, n=7, m=5):
    """Head outputs of both stages, in table order, and a StepBatch for them."""
    def heads(rows, table):
        return [rng.normal(scale=0.5 if kind == "lv" else 1.0, size=(rows, width))
                for _, width, kind in table]

    rpn_cls = rng.integers(-1, 2, n)
    frh_cls = rng.integers(-1, 2, m)
    rpn_cls[0] = 1
    frh_cls[0] = 1
    batch = StepBatch(
        x1=np.zeros((n, 1)), rpn_cls=rpn_cls, rpn_reg=rng.normal(size=(n, RPN_DIM)),
        x2=np.zeros((m, 1)), frh_cls=frh_cls, frh_loc=rng.normal(size=(m, FRH_LOC_DIM)),
        frh_orient=rng.normal(size=(m, FRH_ORIENT_DIM)))
    return heads(n, STAGE1_HEADS), heads(m, STAGE2_HEADS), batch


# The five-term composition that preceded the head-table loop, kept as a
# bitwise reference for it.
def _reference_regression(pred, target, log_var, positive, form, attenuate):
    d_pred = np.zeros_like(pred)
    d_lv = np.zeros_like(log_var)
    n_pos = int(positive.sum())
    if n_pos == 0:
        return 0.0, d_pred, d_lv
    L, dL = smooth_l1(pred[positive] - target[positive])
    s = log_var[positive] if attenuate else np.zeros_like(L)
    value, d_res, d_s = attenuated_term(L, s, form)
    d_pred[positive] = d_res * dL / n_pos
    if attenuate:
        d_lv[positive] = d_s / n_pos
    return float(value.sum()) / n_pos, d_pred, d_lv


def _reference_classification(logits, labels):
    d = np.zeros_like(logits)
    valid = labels >= 0
    n = int(valid.sum())
    if n == 0:
        return 0.0, d
    ce, grad = cross_entropy(logits[valid], labels[valid])
    d[valid] = grad / n
    return float(ce.sum()) / n, d


def _reference_multi_loss(out1, out2, batch, form, attenuate):
    rpn_logits, rpn_reg, rpn_lv = out1
    frh_logits, frh_loc, frh_loc_lv, frh_orient, frh_orient_lv = out2
    rpn_pos = batch.rpn_cls == 1
    frh_pos = batch.frh_cls == 1
    t_rpn_reg, g_reg, g_lv = _reference_regression(
        rpn_reg, batch.rpn_reg, rpn_lv, rpn_pos, form, attenuate)
    t_rpn_cls, g_rpn_logits = _reference_classification(rpn_logits, batch.rpn_cls)
    t_frh_loc, g_loc, g_loc_lv = _reference_regression(
        frh_loc, batch.frh_loc, frh_loc_lv, frh_pos, form, attenuate)
    t_frh_cls, g_frh_logits = _reference_classification(frh_logits, batch.frh_cls)
    t_frh_orient, g_or, g_or_lv = _reference_regression(
        frh_orient, batch.frh_orient, frh_orient_lv, frh_pos, form, attenuate)
    return (LossBreakdown(t_rpn_reg, t_rpn_cls, t_frh_loc, t_frh_cls, t_frh_orient),
            [g_rpn_logits, g_reg, g_lv], [g_frh_logits, g_loc, g_loc_lv, g_or, g_or_lv])


class TestMultiLoss:
    @pytest.mark.parametrize("form", LIKELIHOOD_FORMS)
    @pytest.mark.parametrize("attenuate", [True, False])
    @pytest.mark.parametrize("labels", ["mixed", "no positives", "no valid rows"])
    def test_equals_five_term_reference_bitwise(self, form, attenuate, labels):
        for seed in range(20):
            rng = np.random.default_rng([18, seed])
            out1, out2, batch = _random_batch(rng)
            if labels == "no positives":
                batch.rpn_cls[batch.rpn_cls == 1] = 0
                batch.frh_cls[:] = rng.integers(-1, 1, len(batch.frh_cls))
            elif labels == "no valid rows":
                batch.rpn_cls[:] = -1
                batch.frh_cls[:] = -1
            breakdown, g1, g2 = multi_loss(out1, out2, batch, form, attenuate)
            ref, r1, r2 = _reference_multi_loss(out1, out2, batch, form, attenuate)
            assert breakdown == ref and breakdown.total == ref.total
            assert len(g1) == len(r1) and len(g2) == len(r2)
            for g, r in zip(g1 + g2, r1 + r2):
                assert np.array_equal(g, r)

    def test_breakdown_matches_hand_composition(self):
        rng = np.random.default_rng(10)
        out1, out2, batch = _random_batch(rng)
        breakdown, _, _ = multi_loss(out1, out2, batch, form="laplace")

        def reg_term(pred, target, lv, pos):
            r = pred[pos] - target[pos]
            L, _ = smooth_l1(r)
            s = lv[pos]
            return float((np.exp(-s) * L + s).sum()) / int(pos.sum())

        rpn_pos = batch.rpn_cls == 1
        frh_pos = batch.frh_cls == 1
        assert breakdown.rpn_reg == pytest.approx(
            reg_term(out1[1], batch.rpn_reg, out1[2], rpn_pos))
        assert breakdown.frh_loc == pytest.approx(
            reg_term(out2[1], batch.frh_loc, out2[2], frh_pos))
        assert breakdown.frh_orient == pytest.approx(
            reg_term(out2[3], batch.frh_orient, out2[4], frh_pos))
        valid = batch.rpn_cls >= 0
        ce, _ = cross_entropy(out1[0][valid], batch.rpn_cls[valid])
        assert breakdown.rpn_cls == pytest.approx(float(ce.mean()))
        assert breakdown.total == pytest.approx(
            breakdown.rpn_reg + breakdown.rpn_cls + breakdown.frh_loc
            + breakdown.frh_cls + breakdown.frh_orient)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        out1, out2, batch = _random_batch(rng)
        h = 1e-6
        for form in LIKELIHOOD_FORMS:
            _, g1, g2 = multi_loss(out1, out2, batch, form=form)
            for k, (arr, g) in enumerate(zip(out1 + out2, g1 + g2)):
                for idx in [(0, 0), (0, arr.shape[1] - 1)]:
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up, _, _ = multi_loss(out1, out2, batch, form=form)
                    arr[idx] = orig - h
                    dn, _, _ = multi_loss(out1, out2, batch, form=form)
                    arr[idx] = orig
                    fd = (up.total - dn.total) / (2 * h)
                    assert g[idx] == pytest.approx(fd, abs=2e-5), (form, k, idx)

    def test_baseline_ignores_log_variance(self):
        rng = np.random.default_rng(12)
        out1, out2, batch = _random_batch(rng)
        base, g1, g2 = multi_loss(out1, out2, batch, attenuate=False)
        lv_grads = [g for (_, _, kind), g in zip(STAGE1_HEADS + STAGE2_HEADS, g1 + g2)
                    if kind == "lv"]
        assert len(lv_grads) == 3 and all(np.all(g == 0.0) for g in lv_grads)
        shifted = [a.copy() for a in out1]
        shifted[2] += 5.0
        again, _, _ = multi_loss(shifted, out2, batch, attenuate=False)
        assert again.total == pytest.approx(base.total)

    def test_baseline_equals_attenuated_at_zero_log_variance(self):
        rng = np.random.default_rng(13)
        out1, out2, batch = _random_batch(rng)
        for arr in (out1[2], out2[2], out2[4]):
            arr[:] = 0.0
        att, _, _ = multi_loss(out1, out2, batch, attenuate=True)
        base, _, _ = multi_loss(out1, out2, batch, attenuate=False)
        # the + s regularizer vanishes at s = 0, leaving identical weighting
        assert att.total == pytest.approx(base.total, abs=1e-12)

    def test_ignored_rows_do_not_contribute(self):
        rng = np.random.default_rng(14)
        out1, out2, batch = _random_batch(rng)
        value, _, _ = multi_loss(out1, out2, batch)
        ig = np.flatnonzero(batch.rpn_cls == -1)
        if len(ig):
            out1[0][ig] += 100.0
            out1[1][ig] += 100.0
            again, _, _ = multi_loss(out1, out2, batch)
            assert again.total == pytest.approx(value.total)

    def test_no_positives_zero_regression(self):
        rng = np.random.default_rng(15)
        out1, out2, batch = _random_batch(rng)
        batch.rpn_cls[:] = 0
        breakdown, g1, _ = multi_loss(out1, out2, batch)
        assert breakdown.rpn_reg == 0.0
        assert np.all(g1[1] == 0.0)

    @pytest.mark.parametrize("attenuate", [True, False])
    def test_unknown_form_rejected_without_positives(self, attenuate):
        rng = np.random.default_rng(18)
        out1, out2, batch = _random_batch(rng)
        batch.rpn_cls[:] = 0
        batch.frh_cls[:] = 0
        with pytest.raises(ValueError, match=r"^unknown likelihood form 'student-t'; "
                                             r"expected one of \('gaussian', 'laplace'\)$"):
            multi_loss(out1, out2, batch, form="student-t", attenuate=attenuate)

    def test_order_invariance(self):
        rng = np.random.default_rng(16)
        out1, out2, batch = _random_batch(rng)
        value, _, _ = multi_loss(out1, out2, batch)
        perm = rng.permutation(len(batch.rpn_cls))
        shuffled = replace(batch, x1=batch.x1[perm], rpn_cls=batch.rpn_cls[perm],
                           rpn_reg=batch.rpn_reg[perm])
        again, _, _ = multi_loss([a[perm] for a in out1], out2, shuffled)
        assert again.total == pytest.approx(value.total)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        out1, out2, batch = _random_batch(rng)
        with pytest.raises(ShapeError):
            multi_loss(out1, out2, replace(batch, rpn_reg=batch.rpn_reg[:, :4]))
        with pytest.raises(ShapeError):
            multi_loss(out1, out2[:-1], batch)
