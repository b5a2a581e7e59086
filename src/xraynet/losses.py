"""Classification losses: categorical cross-entropy and focal loss.

Both take raw logits through the max-shifted log-softmax, so confident
samples cannot underflow the log, and average over the batch. Each is one
graph node whose single edge to the logits z has a closed-form gradient.
With p = softmax(z): cross-entropy gives dz = (p*sum_c m_c - m)/n for
m = targets*class_weights; the focal loss (Lin et al. 2017, arXiv:1708.02002)
gives dz = D*(t - p)/n, D = -alpha_t*[(1-p_t)^g - g*p_t*(1-p_t)^(g-1)*log p_t].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Variable

_SIMPLEX_TOL = 1e-6


@dataclass(frozen=True)
class FocalParams:
    """alpha: scalar in (0, 1] or per-class vector; gamma: focusing exponent >= 0.

    gamma = 0 with alpha = 1 reduces the focal loss to plain cross-entropy.
    """

    alpha: float | Sequence[float] = 0.25
    gamma: float = 2.0

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.alpha, dtype=np.float64))
        if not np.all((a > 0) & (a <= 1)):  # NaN fails both comparisons
            raise ValueError(f"alpha entries must lie in (0, 1], got {self.alpha}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be non-negative and finite, got {self.gamma}")

    def alpha_vector(self, num_classes: int) -> np.ndarray:
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.ndim == 0:
            return np.full(num_classes, float(a))
        if a.shape != (num_classes,):
            raise ValueError(f"alpha vector has length {a.shape}, expected {num_classes}")
        return a


def _check_targets(logits: Variable, targets: np.ndarray) -> np.ndarray:
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.data.shape:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}")
    if logits.data.ndim != 2 or logits.data.shape[1] < 2:
        raise ValueError(f"logits must be (N, C) with C >= 2, got {logits.data.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("logits contain non-finite values")
    if np.any(targets < -_SIMPLEX_TOL):
        raise ValueError("target rows must be non-negative")
    sums = targets.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > _SIMPLEX_TOL):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"target row {bad} sums to {sums[bad]:.8f}, not 1")
    return targets


def cross_entropy(logits: Variable, targets: np.ndarray,
                  class_weights: Sequence[float] | None = None) -> Variable:
    """Mean over the batch of -sum_c w_c t_c log softmax(logits)_c.

    `targets` are simplex rows (one-hot or soft); `class_weights` is an
    optional per-class vector, all-ones being the unweighted loss.
    """
    targets = _check_targets(logits, targets)
    n, c = logits.data.shape
    if class_weights is not None:
        w = np.asarray(class_weights, dtype=np.float64)
        if w.shape != (c,):
            raise ValueError(f"class_weights has shape {w.shape}, expected ({c},)")
        mask = targets * w
    else:
        mask = targets
    m = mask.astype(logits.dtype)
    lsm = ad._log_softmax(logits.data)
    out = -(lsm * m).sum(axis=1).mean()

    def vjp(g: np.ndarray) -> np.ndarray:
        return g * (np.exp(lsm) * m.sum(axis=1, keepdims=True) - m) / n

    return ad._op(out, [(logits, vjp)])


def _check_one_hot(targets: np.ndarray) -> None:
    is_zero = targets == 0.0
    is_one = targets == 1.0
    if not np.all(is_zero | is_one) or not np.all(is_one.sum(axis=1) == 1):
        raise ValueError("focal loss requires strictly one-hot targets")


def focal_loss(logits: Variable, targets: np.ndarray, params: FocalParams = FocalParams()) -> Variable:
    """Mean over the batch of -alpha_c (1 - p_t)^gamma log p_t.

    p_t is the softmax probability of each sample's true class c; well
    classified samples (p_t -> 1) contribute vanishing loss and gradient.
    """
    targets = _check_targets(logits, targets)
    _check_one_hot(targets)
    n, c = logits.data.shape
    alpha = params.alpha_vector(c)
    alpha_t = (targets @ alpha).astype(logits.dtype)  # per-sample alpha of the true class

    t = targets.astype(logits.dtype)
    lsm = ad._log_softmax(logits.data)
    log_pt = (lsm * t).sum(axis=1)
    pt = np.exp(log_pt)
    base = np.ones(n, dtype=logits.dtype) - pt
    gamma = params.gamma
    focus = base ** logits.dtype.type(gamma)
    out = -(alpha_t * focus * log_pt).mean()

    def vjp(g: np.ndarray) -> np.ndarray:
        # d focus / d base; at base == 0 it is 1 if gamma == 1, else 0 (never inf)
        nonzero = base != 0
        slope = np.where(nonzero, gamma * np.where(nonzero, base, 1) ** (gamma - 1.0),
                         float(gamma == 1))
        d = -alpha_t * (focus - slope * pt * log_pt)
        return (g * d[:, None] * (t - np.exp(lsm)) / n).astype(logits.dtype, copy=False)

    return ad._op(out, [(logits, vjp)])
