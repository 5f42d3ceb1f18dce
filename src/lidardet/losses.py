"""Base losses and the uncertainty-attenuated multi-task objective.

Every routine returns its value together with analytic partial
derivatives; nothing here depends on an autodiff framework. Regression
terms can be attenuated per component by a predicted log-variance ``s``:

    gaussian:  0.5 * exp(-s) * L + s
    laplace:         exp(-s) * L + s

where ``L`` is the raw residual loss. Setting ``attenuate=False`` drops
the ``+ s`` term and fixes ``s = 0``, which reproduces the plain baseline
objective exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError

LIKELIHOOD_FORMS = ("gaussian", "laplace")


def _coeff(form: str) -> float:
    if form == "gaussian":
        return 0.5
    if form == "laplace":
        return 1.0
    raise ValueError(f"unknown likelihood form {form!r}; expected one of {LIKELIHOOD_FORMS}")


def smooth_l1(residual):
    """Smooth L1 value and derivative: 0.5 r^2 inside |r| < 1, |r| - 0.5 outside."""
    r = np.asarray(residual, dtype=np.float64)
    quad = np.abs(r) < 1.0
    value = np.where(quad, 0.5 * r * r, np.abs(r) - 0.5)
    deriv = np.where(quad, r, np.sign(r))
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def cross_entropy(logits, label):
    """Numerically stable softmax cross-entropy with its logit gradient.

    Accepts a single logit vector with an integer label, or an (N, C)
    batch with an (N,) label array; the max-subtraction keeps arbitrarily
    large logits finite. The gradient is ``softmax - onehot``.
    """
    z = np.asarray(logits, dtype=np.float64)
    single = z.ndim == 1
    z2 = z[None, :] if single else z
    if z2.ndim != 2:
        raise ShapeError(f"logits must be 1-D or 2-D, got shape {z.shape}")
    labels = np.atleast_1d(np.asarray(label, dtype=np.int64))
    if labels.shape != (len(z2),):
        raise ShapeError(f"labels shape {labels.shape} does not match logits {z2.shape}")
    if np.any(labels < 0) or np.any(labels >= z2.shape[1]):
        raise ValueError("label out of range")

    shifted = z2 - z2.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=1, keepdims=True)
    softmax = expz / denom
    idx = np.arange(len(z2))
    ce = np.log(denom[:, 0]) - shifted[idx, labels]
    grad = softmax.copy()
    grad[idx, labels] -= 1.0
    if single:
        return float(ce[0]), grad[0]
    return ce, grad


def attenuated_term(residual_loss, s, form: str = "gaussian"):
    """Attenuated regression term and its partials.

    Returns ``(value, d_value/d_residual, d_value/d_s)``. The attenuation
    weight ``coeff * exp(-s)`` is strictly decreasing in ``s``, and for a
    fixed residual L > 0 the term is minimized at ``s = ln(coeff * L)``.
    """
    c = _coeff(form)
    L = np.asarray(residual_loss, dtype=np.float64)
    sv = np.asarray(s, dtype=np.float64)
    weight = c * np.exp(-sv)
    value = weight * L + sv
    d_res = weight
    d_s = 1.0 - weight * L
    if value.ndim == 0 and np.asarray(s).ndim == 0:
        return float(value), float(d_res), float(d_s)
    return value, d_res, d_s


@dataclass
class HeadOutputs:
    """Raw network outputs for one step: both stages, all heads."""

    rpn_logits: np.ndarray       # (N, 2)
    rpn_reg: np.ndarray          # (N, D1)
    rpn_log_var: np.ndarray      # (N, D1)
    frh_logits: np.ndarray       # (M, 2)
    frh_loc: np.ndarray          # (M, D2)
    frh_loc_log_var: np.ndarray  # (M, D2)
    frh_orient: np.ndarray       # (M, D3)
    frh_orient_log_var: np.ndarray  # (M, D3)

    def zeros_like(self) -> "HeadOutputs":
        return HeadOutputs(*(np.zeros_like(getattr(self, f.name)) for f in fields(self)))


@dataclass
class HeadTargets:
    """Targets and assignment labels matching a ``HeadOutputs`` batch.

    Class labels are 1 for object, 0 for background and -1 for ignored
    samples; regression rows are only consumed where the label is 1.
    """

    rpn_reg: np.ndarray     # (N, D1)
    rpn_cls: np.ndarray     # (N,)
    frh_loc: np.ndarray     # (M, D2)
    frh_orient: np.ndarray  # (M, D3)
    frh_cls: np.ndarray     # (M,)


@dataclass
class LossBreakdown:
    rpn_reg: float
    rpn_cls: float
    frh_loc: float
    frh_cls: float
    frh_orient: float

    @property
    def total(self) -> float:
        return self.rpn_reg + self.rpn_cls + self.frh_loc + self.frh_cls + self.frh_orient


def _check(outputs: HeadOutputs, targets: HeadTargets) -> None:
    n = len(outputs.rpn_logits)
    m = len(outputs.frh_logits)
    pairs = [
        (outputs.rpn_logits, (n, 2)), (outputs.rpn_reg, outputs.rpn_log_var.shape),
        (targets.rpn_reg, outputs.rpn_reg.shape), (targets.rpn_cls, (n,)),
        (outputs.frh_logits, (m, 2)), (outputs.frh_loc, outputs.frh_loc_log_var.shape),
        (outputs.frh_orient, outputs.frh_orient_log_var.shape),
        (targets.frh_loc, outputs.frh_loc.shape), (targets.frh_orient, outputs.frh_orient.shape),
        (targets.frh_cls, (m,)),
    ]
    for arr, want in pairs:
        if tuple(np.shape(arr)) != tuple(want):
            raise ShapeError(f"array shape {np.shape(arr)} does not match expected {want}")
    if len(outputs.rpn_reg) != n or len(outputs.frh_loc) != m or len(outputs.frh_orient) != m:
        raise ShapeError("per-stage batch sizes are inconsistent")


def _regression_term(pred, target, log_var, positive, form, attenuate):
    """Mean over positive rows of the summed per-component terms."""
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


def _classification_term(logits, labels):
    """Mean cross-entropy over the non-ignored rows."""
    d = np.zeros_like(logits)
    valid = labels >= 0
    n = int(valid.sum())
    if n == 0:
        return 0.0, d
    ce, grad = cross_entropy(logits[valid], labels[valid])
    d[valid] = grad / n
    return float(ce.sum()) / n, d


def multi_loss(outputs: HeadOutputs, targets: HeadTargets,
               form: str = "gaussian", attenuate: bool = True):
    """Five-part objective with analytic gradients for every output array.

    Regression terms (stage-1 offsets, stage-2 location and orientation)
    are attenuated per component by the matching log-variance outputs and
    averaged over positive samples; both classification terms are plain
    mean cross-entropy over non-ignored samples. Returns a
    ``LossBreakdown`` and a ``HeadOutputs`` of gradients. The value is
    invariant to sample order, and with no positive (or no valid) samples
    the affected terms are zero.
    """
    _check(outputs, targets)
    grads = outputs.zeros_like()

    rpn_pos = targets.rpn_cls == 1
    frh_pos = targets.frh_cls == 1

    rpn_reg, grads.rpn_reg, grads.rpn_log_var = _regression_term(
        outputs.rpn_reg, targets.rpn_reg, outputs.rpn_log_var, rpn_pos, form, attenuate)
    rpn_cls, grads.rpn_logits = _classification_term(outputs.rpn_logits, targets.rpn_cls)
    frh_loc, grads.frh_loc, grads.frh_loc_log_var = _regression_term(
        outputs.frh_loc, targets.frh_loc, outputs.frh_loc_log_var, frh_pos, form, attenuate)
    frh_cls, grads.frh_logits = _classification_term(outputs.frh_logits, targets.frh_cls)
    frh_orient, grads.frh_orient, grads.frh_orient_log_var = _regression_term(
        outputs.frh_orient, targets.frh_orient, outputs.frh_orient_log_var, frh_pos,
        form, attenuate)

    return LossBreakdown(rpn_reg, rpn_cls, frh_loc, frh_cls, frh_orient), grads
