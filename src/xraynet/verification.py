"""Finite-difference gradient checking: the checkers `grad_check` and
`grad_check_directional`, and `check_all`, the suite over every op, every
loss and both Mini architectures that ``xraynet gradcheck`` prints.

Analytic gradients come from the engine in the mode's dtype: float32, or
float64 in verification mode. They are compared against central differences
that are always taken in float64 at one step, FD_H = 1e-6: the checked
tensor is held in float64 for both evaluations, and every op computes in
the promoted dtype of its inputs. The thresholds are 1e-3 relative error in
float32 mode and 1e-5 in float64 mode; the float32 mode's worst error is
about 2e-6 (`mini_resnet`), the float32 rounding of its analytic gradients,
so a gradient 1 % wrong fails it.

The op and loss probes are data: `OP_PROBES` and `LOSS_PROBES` map each
probe's name to its function and each input's shape and distribution, and
`check_probes` runs a table. Every probe draws its inputs, then a positive
projection of its output, from a stream of its own name, "gradcheck.<name>"
of `SEED`, so adding or removing a probe moves no other. Conditioning
matters more than randomness here: the inputs keep relu/max arguments away
from their kinks, and the positive projections keep every gradient
coordinate clear of the FD noise floor. Full-architecture checks probe each
parameter tensor along its own gradient direction (`grad_check_directional`),
which stays well-conditioned on deep batch-norm-centered networks, plus
coordinate-wise probes of the head (the head-to-loss path crosses no kink).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Variable
from .dataset import one_hot
from .losses import cross_entropy, focal_loss
from .nn import FAMILIES, ArchitectureConfig, build_model
from .rng import Pcg32, derive_stream

FD_H = 1e-6  # the step of every central difference, taken in float64
F32_THRESHOLD, F64_THRESHOLD = 1e-3, 1e-5
SEED = 13  # the base seed of every probe's stream, architectures included
# a probe: the checked function of its differentiable inputs, and each input's
# shape and distribution, a function (rng, shape) -> float64 draws
Probe = tuple[Callable[..., Variable], list[tuple[tuple[int, ...], Callable]]]


def settings(f64: bool) -> tuple[np.dtype, float]:
    """The dtype the checked graphs are built in and the relative-error threshold."""
    if f64:
        return np.dtype(np.float64), F64_THRESHOLD
    return np.dtype(np.float32), F32_THRESHOLD


def _analytic_grads(fn: Callable[[], Variable], params: list[Variable]) -> list[np.ndarray]:
    """float64 copies of d fn() / d p, leaving each p's accumulated gradient
    as it was, also when `fn` or `backward` raises (as it does for a
    non-scalar fn())."""
    saved_grads = [p._grad for p in params]
    for p in params:
        p._grad = None
    try:
        ad.backward(fn())
        return [np.asarray(p.grad, dtype=np.float64).copy() for p in params]
    finally:
        for p, g in zip(params, saved_grads):
            p._grad = g


def _fd_error(fn: Callable[[], Variable], p: Variable, d: np.ndarray, analytic: float) -> float:
    """Relative error of `analytic`, the derivative of fn() along d at p,
    against the central difference (fn(p + FD_H*d) - fn(p - FD_H*d)) / (2*FD_H).

    p is held in float64 for both evaluations, and every op computes in the
    promoted dtype of its inputs, so the difference is taken in float64 from
    p on. p.data is its original array object again afterwards, also when
    `fn` raises.
    """
    orig = p.data
    x = orig.astype(np.float64)
    try:
        p.data = x + FD_H * d
        fp = fn().item()
        p.data = x - FD_H * d
        fm = fn().item()
    finally:
        p.data = orig
    num = (fp - fm) / (2 * FD_H)
    return abs(analytic - num) / max(abs(analytic), abs(num), 1e-6)


def grad_check_directional(fn: Callable[[], Variable], params: Sequence[Variable]) -> float:
    """Per-tensor finite-difference check along each gradient's own direction.

    For every parameter tensor, compares ||g|| against the float64 central
    difference of `fn` along d = g/||g||. Aggregating a whole tensor into one
    well-conditioned probe makes this robust to the relu-kink noise that
    contaminates coordinate-wise probes on deep centered networks. Returns
    the max relative error over tensors (tensors with ~zero gradient are
    skipped: there is nothing to verify against). Parameter data and
    gradients are restored before returning, also when `fn` raises.
    """
    params = list(params)
    worst = 0.0
    for p, g in zip(params, _analytic_grads(fn, params)):
        norm = float(np.sqrt((g * g).sum()))
        if norm >= 1e-12:
            worst = max(worst, _fd_error(fn, p, g / norm, norm))
    return worst


def grad_check(fn: Callable[[], Variable], params: Sequence[Variable],
               top: int | None = None) -> float:
    """Max relative error of analytic gradients against float64 central differences.

    `fn` must rebuild the same deterministic scalar from the current values
    of `params` on every call (no side effects). Parameter data and gradients
    are restored before returning, also when `fn` raises. With `top`, only
    each tensor's `top` largest-|gradient| coordinates are probed: they
    carry the verifiable signal, while tiny ones sit at the FD noise floor
    and measure conditioning, not correctness.
    """
    params = list(params)
    worst = 0.0
    for p, a in zip(params, _analytic_grads(fn, params)):
        a = a.reshape(-1)
        for i in range(a.size) if top is None else np.argsort(-np.abs(a))[:top]:
            unit = (np.arange(a.size) == i).reshape(p.shape)
            worst = max(worst, _fd_error(fn, p, unit, float(a[i])))
    return worst


def _uniform(lo: float, hi: float) -> Callable[[Pcg32, tuple], np.ndarray]:
    return lambda rng, shape: rng.uniform_array(shape, lo, hi)


_POSITIVE, _SIGNED = _uniform(0.3, 1.2), _uniform(-1.0, 1.0)


def _away_from_zero(rng: Pcg32, shape) -> np.ndarray:
    """Magnitudes in [0.2, 1) with random signs: no relu kink nearby."""
    u = rng.uniform_array(shape, -0.8, 0.8)
    return u + np.copysign(0.2, u)


def _separated(rng: Pcg32, shape) -> np.ndarray:
    """A shuffle of 0, 0.1, 0.2, ...: each max-pool argmax holds under +-FD_H."""
    order = list(range(int(np.prod(shape))))
    rng.shuffle(order)
    return 0.1 * np.array(order, dtype=np.float64).reshape(shape)


def _affine(relu: bool):
    return lambda x1, x2, g, b: ad.affine_relu([x1, x2], g, b, relu)


# two chunks whose |x*gamma + beta| >= 0.1 keeps every input off the relu kink
_AFFINE_INPUTS = [((2, 2, 3, 3), _away_from_zero), ((2, 1, 3, 3), _away_from_zero),
                  ((3,), _uniform(0.8, 1.2)), ((3,), _uniform(-0.05, 0.05))]
_TARGETS = one_hot(np.array([1, 3, 0]), 4)

# every differentiable op's probe, each calling its op through `ad` as it runs.
# Positive conv and linear inputs keep every gradient coordinate above the FD
# noise floor; stride 1 takes the transposed-conv input gradient, and stride 1
# with Cout < Cin also the shift-and-accumulate forward and dK. Inference-mode
# batch_norm is forward-only: no probe.
OP_PROBES: dict[str, Probe] = {
    "conv2d": (lambda x, k, b: ad.conv2d(x, k, b, stride=2, padding=1),
               [((1, 2, 5, 5), _POSITIVE), ((2, 2, 3, 3), _POSITIVE), ((2,), _POSITIVE)]),
    "conv2d_stride1": (lambda x, k, b: ad.conv2d(x, k, b, stride=1, padding=1),
                       [((1, 2, 5, 4), _POSITIVE), ((2, 2, 3, 3), _POSITIVE), ((2,), _POSITIVE)]),
    "conv2d_thin": (lambda x, k, b: ad.conv2d(x, k, b, stride=1, padding=1),
                    [((1, 3, 5, 4), _POSITIVE), ((2, 3, 3, 2), _POSITIVE), ((2,), _POSITIVE)]),
    "normalize": (lambda x: ad.normalize(x)[0], [((2, 2, 3, 3), _uniform(-0.4, 0.4))]),
    "affine_relu": (_affine(True), _AFFINE_INPUTS),
    "affine": (_affine(False), _AFFINE_INPUTS),
    "relu": (lambda x: ad.relu(x), [((3, 5), _away_from_zero)]),
    "max_pool2d": (lambda x: ad.max_pool2d(x), [((2, 2, 4, 4), _separated)]),
    "avg_pool2d": (lambda x: ad.avg_pool2d(x), [((2, 2, 4, 4), _SIGNED)]),
    "global_avg_pool": (lambda x: ad.global_avg_pool(x), [((2, 3, 4, 4), _SIGNED)]),
    "linear": (lambda x, w, b: ad.linear(x, w, b),
               [((2, 4), _POSITIVE), ((3, 4), _POSITIVE), ((3,), _POSITIVE)]),
    "add": (lambda a, b: ad.add(a, b), [((2, 2, 3, 3), _SIGNED)] * 2),
    "concat_channels": (lambda a, b: ad.concat_channels([a, b]),
                        [((2, 2, 3, 3), _SIGNED), ((2, 3, 3, 3), _SIGNED)]),
}

# every loss's probe, on fixed one-hot targets; the last takes weights, bias
# and input together through a linear layer
LOSS_PROBES: dict[str, Probe] = {
    "cross_entropy": (lambda z: cross_entropy(z, _TARGETS), [((3, 4), _SIGNED)]),
    "focal_loss": (lambda z: focal_loss(z, _TARGETS, gamma=2.0), [((3, 4), _SIGNED)]),
    "focal_loss_gamma0": (lambda z: focal_loss(z, _TARGETS, gamma=0.0), [((3, 4), _SIGNED)]),
    "focal_loss_gamma_half": (lambda z: focal_loss(z, _TARGETS, gamma=0.5), [((3, 4), _SIGNED)]),
    "focal_through_linear": (
        lambda x, w, b: focal_loss(ad.linear(x, w, b), _TARGETS[:2]),
        [((2, 5), _POSITIVE), ((4, 5), _uniform(-0.5, 0.5)), ((4,), _uniform(-0.2, 0.2))]),
}


def check_probes(probes: dict[str, Probe], f64: bool = False) -> dict[str, float]:
    """Max FD relative error of each probe of a table such as `OP_PROBES`,
    keyed by its name.

    Each probe checks sum(fn(*inputs) * proj) with respect to its inputs,
    for a positive projection `proj` of fn's output shape. The inputs and
    then `proj` are drawn from the probe's own stream, "gradcheck.<name>" of
    `SEED`, so a probe's error does not depend on which others the table holds.
    """
    dtype, _ = settings(f64)
    errors: dict[str, float] = {}
    for name, (fn, inputs) in probes.items():
        rng = derive_stream(SEED, f"gradcheck.{name}")
        params = [Variable(dist(rng, shape).astype(dtype), requires_grad=True)
                  for shape, dist in inputs]
        proj = ad.constant(_POSITIVE(rng, fn(*params).shape).astype(dtype))
        errors[name] = grad_check(lambda: ad.sum_axes(ad.bmul(fn(*params), proj)), params)
    return errors


def check_architecture(family: str, f64: bool = False) -> float:
    """End-to-end FD check of a Mini backbone + focal loss on a 2-image batch.

    Every trainable tensor is probed along its own gradient direction, and
    the head's top 6 coordinates per tensor also one by one (its path to the
    loss crosses no kink). Returns the max relative error over all probes.
    """
    dtype, _ = settings(f64)
    model = build_model(ArchitectureConfig(family, 16, 4),
                        derive_stream(SEED, f"gradcheck.{family}"), dtype=dtype)
    rng = derive_stream(SEED, f"gradcheck.{family}.data")
    x = rng.uniform_array((2, 1, 16, 16), 0.0, 1.0).astype(dtype)
    targets = one_hot(np.array([rng.randint_below(4) for _ in range(2)]), 4)

    def f() -> Variable:
        logits = model.forward(x, train=True, update_stats=False)
        return focal_loss(logits, targets, gamma=2.0)

    params = model.store.params
    return max(grad_check_directional(f, model.trainable_params().values()),
               grad_check(f, [params["head.weight"], params["head.bias"]], top=6))


def check_all(f64: bool = False) -> dict[str, float]:
    """The max FD relative error of every op, every loss and both Mini
    architectures, keyed by name in that order."""
    errors = check_probes({**OP_PROBES, **LOSS_PROBES}, f64)
    for family in FAMILIES:
        errors[f"mini_{family}"] = check_architecture(family, f64)
    return errors
