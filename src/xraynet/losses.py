"""Classification losses: categorical cross-entropy and focal loss.

Both take raw logits through the max-shifted log-softmax, so confident
samples cannot underflow the log, and average over the batch. Targets are
strictly one-hot rows. Both are one graph node, the focal loss (Lin et al.
2017, arXiv:1708.02002), whose single edge to the logits z has a closed-form
gradient: with p = softmax(z) and one-hot t, dz = D*(t - p)/n,
D = -alpha*[(1-p_t)^g - g*p_t*(1-p_t)^(g-1)*log p_t]. Focal loss takes
alpha = FOCAL_ALPHA and g = FOCAL_GAMMA; cross-entropy is the same node at
g = 0 and alpha = 1, where D = -1 and dz = (p - t)/n.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Variable

# Lin et al.'s pair, the paper's one focal setting. alpha is a constant
# scale, which Adam's update normalisation cancels up to its eps.
FOCAL_GAMMA = 2.0
FOCAL_ALPHA = 0.25


def _check_targets(logits: Variable, targets: np.ndarray) -> np.ndarray:
    """The one-hot `targets` in the logits' dtype, after checking both."""
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.data.shape:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}")
    if logits.data.ndim != 2 or logits.data.shape[1] < 2:
        raise ValueError(f"logits must be (N, C) with C >= 2, got {logits.data.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise ValueError("logits contain non-finite values")
    is_one = targets == 1.0
    if not np.all(is_one | (targets == 0.0)) or not np.all(is_one.sum(axis=1) == 1):
        raise ValueError("targets must be strictly one-hot rows")
    return targets.astype(logits.dtype)


def cross_entropy(logits: Variable, targets: np.ndarray) -> Variable:
    """Mean over the batch of -log softmax(logits)_c for each true class c:
    the focal loss at gamma = 0 and unit alpha."""
    return _focal(logits, targets, 0.0, 1.0)


def focal_loss(logits: Variable, targets: np.ndarray, gamma: float = FOCAL_GAMMA) -> Variable:
    """Mean over the batch of -FOCAL_ALPHA (1 - p_t)^gamma log p_t.

    p_t is the softmax probability of each sample's true class; well
    classified samples (p_t -> 1) contribute vanishing loss and gradient.
    """
    return _focal(logits, targets, gamma, FOCAL_ALPHA)


def _focal(logits: Variable, targets: np.ndarray, gamma: float, alpha: float) -> Variable:
    t = _check_targets(logits, targets)
    n = logits.data.shape[0]
    lsm = ad._log_softmax(logits.data)
    log_pt = (lsm * t).sum(axis=1)
    pt = np.exp(log_pt)
    base = np.ones(n, dtype=logits.dtype) - pt
    focus = base ** logits.dtype.type(gamma)
    out = -(alpha * focus * log_pt).mean()

    def vjp(g: np.ndarray) -> np.ndarray:
        # d focus / d base; at base == 0 it is 1 if gamma == 1, else 0 (never inf)
        nonzero = base != 0
        slope = np.where(nonzero, gamma * np.where(nonzero, base, 1) ** (gamma - 1.0),
                         float(gamma == 1))
        d = -alpha * (focus - slope * pt * log_pt)
        return (g * d[:, None] * (t - np.exp(lsm)) / n).astype(logits.dtype, copy=False)

    return ad._op(out, [(logits, vjp)])
