"""Base losses and the uncertainty-attenuated multi-task objective.

Every routine returns its value together with analytic partial
derivatives; nothing here depends on an autodiff framework. Regression
terms can be attenuated per component by a predicted log-variance ``s``:

    gaussian:  0.5 * exp(-s) * L + s
    laplace:         exp(-s) * L + s

where ``L`` is the raw residual loss. Setting ``attenuate=False`` drops
the ``+ s`` term and fixes ``s = 0``, which reproduces the plain baseline
objective exactly.

The per-stage head tables live here because they carry each head's loss
kind: ``multi_loss`` walks them, reading labels and targets from the batch
and naming the ``LossBreakdown`` terms by the same ``<prefix>_<head>`` rule,
and the model builds its heads from the same tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import FRH_LOC_DIM, FRH_ORIENT_DIM, RPN_DIM
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


# Head tables: (name, width, loss kind), in blob and backward order. A stage
# is a trunk (w1, b1: one ReLU hidden layer) feeding these linear heads.
#   "cls": cross-entropy over the rows labelled >= 0;
#   "reg": attenuated smooth-L1 over the positive rows (label 1), with the
#          next head as its log-variance;
#   "lv":  that log-variance head, the only kind the forward pass clips.
STAGE1_HEADS = (("cls", 2, "cls"), ("reg", RPN_DIM, "reg"), ("lv", RPN_DIM, "lv"))
STAGE2_HEADS = (("cls", 2, "cls"), ("loc", FRH_LOC_DIM, "reg"),
                ("loc_lv", FRH_LOC_DIM, "lv"), ("orient", FRH_ORIENT_DIM, "reg"),
                ("orient_lv", FRH_ORIENT_DIM, "lv"))
# Each stage's labels, targets and loss terms are named <prefix>_cls and
# <prefix>_<head>, in the batch and in LossBreakdown alike.
LOSS_STAGES = (("rpn", STAGE1_HEADS), ("frh", STAGE2_HEADS))


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


def _stage_terms(prefix, heads, outputs, batch, form, attenuate, terms) -> list:
    """Adds the stage's terms to ``terms``; returns its per-head gradients."""
    labels = getattr(batch, f"{prefix}_cls")
    n = len(labels)
    if np.ndim(labels) != 1 or len(outputs) != len(heads):
        raise ShapeError(f"{prefix}: {len(outputs)} outputs for {len(heads)} heads, "
                         f"labels of shape {np.shape(labels)}")
    for (head, width, kind), out in zip(heads, outputs):
        arrays = (out, getattr(batch, f"{prefix}_{head}")) if kind == "reg" else (out,)
        for arr in arrays:
            if np.shape(arr) != (n, width):
                raise ShapeError(f"{prefix}_{head}: array shape {np.shape(arr)} "
                                 f"does not match expected {(n, width)}")
    grads = [np.zeros_like(out) for out in outputs]
    positive = labels == 1
    n_pos = int(positive.sum())
    for i, (head, _, kind) in enumerate(heads):
        if kind == "lv":
            continue
        value = 0.0
        if kind == "cls":
            valid = labels >= 0
            n_valid = int(valid.sum())
            if n_valid:
                ce, grad = cross_entropy(outputs[i][valid], labels[valid])
                grads[i][valid] = grad / n_valid
                value = float(ce.sum()) / n_valid
        elif n_pos:
            target = getattr(batch, f"{prefix}_{head}")
            L, dL = smooth_l1(outputs[i][positive] - target[positive])
            s = outputs[i + 1][positive] if attenuate else np.zeros_like(L)
            v, d_res, d_s = attenuated_term(L, s, form)
            grads[i][positive] = d_res * dL / n_pos
            if attenuate:
                grads[i + 1][positive] = d_s / n_pos
            value = float(v.sum()) / n_pos
        terms[f"{prefix}_{head}"] = value
    return grads


def multi_loss(stage1_outputs, stage2_outputs, batch, form: str = "gaussian",
               attenuate: bool = True):
    """The multi-task objective over both stages' head tables, with
    analytic gradients for every head output.

    ``stage*_outputs`` are the head arrays in table order; ``batch`` is a
    ``StepBatch`` (or any object with its label and target fields). Every
    ``reg`` head is attenuated per component by its ``lv`` twin and averaged
    over positive rows; every ``cls`` head is mean cross-entropy over
    non-ignored rows. Returns ``(LossBreakdown, stage-1 gradients, stage-2
    gradients)``, the gradient lists in table order. The value is invariant
    to row order, and with no positive (or no valid) rows the affected terms
    and gradients are zero.
    """
    _coeff(form)  # an unknown form fails here, not only when a row is positive
    terms = {}
    grads = [_stage_terms(prefix, heads, outputs, batch, form, attenuate, terms)
             for (prefix, heads), outputs in zip(LOSS_STAGES,
                                                 (stage1_outputs, stage2_outputs))]
    return LossBreakdown(**terms), *grads
