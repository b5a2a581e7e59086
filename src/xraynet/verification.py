"""Finite-difference gradient checking: the checkers `grad_check` and
`grad_check_directional`, and `check_all`, the suite over every op, every
loss and both Mini architectures that ``xraynet gradcheck`` prints.

Analytic gradients come from the engine in the mode's dtype: float32, or
float64 in verification mode. They are compared against central differences
that are always taken in float64 at one step, FD_H = 1e-6: the checked
tensor is held in float64 for both evaluations, and every op computes in
the promoted dtype of its inputs. The thresholds are 1e-2 relative error in
float32 mode and 1e-5 in float64 mode; the float32 mode's worst error is
about 2e-5 (`normalize`), the float32 rounding of its analytic gradients.

Conditioning matters more than randomness here: probe inputs keep relu/max
arguments away from their kinks, and per-op probes use positive projections
so no gradient coordinate cancels to the FD noise floor. Full-architecture
checks probe each parameter tensor along its own gradient direction
(`grad_check_directional`), which stays well-conditioned on deep
batch-norm-centered networks, plus coordinate-wise probes of the head
(the head-to-loss path crosses no kink).
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
F32_THRESHOLD, F64_THRESHOLD = 1e-2, 1e-5
# the seeds of the probe inputs of check_ops, check_losses and check_architecture
OPS_SEED, LOSSES_SEED, ARCH_SEED = 7, 11, 13


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


def _signed_away_from_zero(rng: Pcg32, shape, dtype) -> np.ndarray:
    """Uniform magnitudes in [0.2, 1] with random signs: no relu kinks nearby."""
    mag = rng.uniform_array(shape, 0.2, 1.0)
    signs = np.where(rng.uniform_array(shape) < 0.5, -1.0, 1.0)
    return (mag * signs).astype(dtype)


def _positive(rng: Pcg32, shape, dtype, lo: float = 0.3, hi: float = 1.2) -> np.ndarray:
    return rng.uniform_array(shape, lo, hi).astype(dtype)


def check_ops(f64: bool = False) -> dict[str, float]:
    """Max FD relative error for every differentiable op, keyed by op name."""
    dtype, _ = settings(f64)
    rng = derive_stream(OPS_SEED, "gradcheck.ops")
    errors: dict[str, float] = {}

    def check(name: str, out_fn, proj: np.ndarray, params):
        # every probe is the projection sum(out_fn() * proj)
        errors[name] = grad_check(
            lambda: ad.sum_axes(ad.bmul(out_fn(), ad.constant(proj))), params)

    # positive input/kernel/projection keep every gradient coordinate well
    # above the FD noise floor. Stride 1 takes the transposed-conv input
    # gradient, and stride 1 with Cout < Cin also the shift-and-accumulate
    # forward and dK; those two probes draw from streams of their own, so the
    # later probes keep their inputs.
    for name, stride, (xshape, kshape, pshape) in (
            ("conv2d", 2, ((1, 2, 5, 5), (2, 2, 3, 3), (1, 2, 3, 3))),
            ("conv2d_stride1", 1, ((1, 2, 5, 4), (2, 2, 3, 3), (1, 2, 5, 4))),
            ("conv2d_thin", 1, ((1, 3, 5, 4), (2, 3, 3, 2), (1, 2, 5, 5)))):
        rc = rng if name == "conv2d" else derive_stream(OPS_SEED, f"gradcheck.ops.{name}")
        xc, kc, bc = (Variable(_positive(rc, shape, dtype), requires_grad=True)
                      for shape in (xshape, kshape, kshape[:1]))
        check(name, lambda: ad.conv2d(xc, kc, bc, stride=stride, padding=1),
              _positive(rc, pshape, dtype), [xc, kc, bc])

    # train-mode batch norm: normalize, whose modest spread and positive
    # projection keep the centered gradients clear of the noise floor, and
    # affine_relu, on a stream of its own, over two chunks whose
    # |x*gamma + beta| >= 0.1 keeps every input off the kink, with and
    # without the relu. Inference-mode batch_norm is forward-only: no probe.
    xb = Variable(rng.uniform_array((2, 2, 3, 3), -0.4, 0.4).astype(dtype), requires_grad=True)
    rng.uniforms(4)  # four draws left unused, so the later probes keep their inputs
    pbn = _positive(rng, (2, 2, 3, 3), dtype)
    check("normalize", lambda: ad.normalize(xb)[0], pbn, [xb])
    ra = derive_stream(OPS_SEED, "gradcheck.ops.affine_relu")
    xa1 = Variable(_signed_away_from_zero(ra, (2, 2, 3, 3), dtype), requires_grad=True)
    xa2 = Variable(_signed_away_from_zero(ra, (2, 1, 3, 3), dtype), requires_grad=True)
    ga = Variable(_positive(ra, (3,), dtype, 0.8, 1.2), requires_grad=True)
    ba = Variable(ra.uniform_array((3,), -0.05, 0.05).astype(dtype), requires_grad=True)
    pa3 = _positive(ra, (2, 3, 3, 3), dtype)
    for name, relu in (("affine_relu", True), ("affine", False)):
        check(name, lambda: ad.affine_relu([xa1, xa2], ga, ba, relu), pa3, [xa1, xa2, ga, ba])

    xr = Variable(_signed_away_from_zero(rng, (3, 5), dtype), requires_grad=True)
    pr = _positive(rng, (3, 5), dtype)
    check("relu", lambda: ad.relu(xr), pr, [xr])

    # well-separated values keep the argmax stable under +-h probes
    vals = np.arange(2 * 2 * 4 * 4, dtype=np.float64)
    order = list(range(vals.size))
    rng.shuffle(order)
    xm = Variable((vals[order].reshape(2, 2, 4, 4) * 0.1).astype(dtype), requires_grad=True)
    pm = _positive(rng, (2, 2, 2, 2), dtype)
    check("max_pool2d", lambda: ad.max_pool2d(xm), pm, [xm])

    xa = Variable(rng.uniform_array((2, 2, 4, 4), -1.0, 1.0).astype(dtype), requires_grad=True)
    pa = _positive(rng, (2, 2, 2, 2), dtype)
    check("avg_pool2d", lambda: ad.avg_pool2d(xa), pa, [xa])

    xg = Variable(rng.uniform_array((2, 3, 4, 4), -1.0, 1.0).astype(dtype), requires_grad=True)
    pg = _positive(rng, (2, 3), dtype)
    check("global_avg_pool", lambda: ad.global_avg_pool(xg), pg, [xg])

    xl = Variable(_positive(rng, (2, 4), dtype), requires_grad=True)
    wl = Variable(_positive(rng, (3, 4), dtype), requires_grad=True)
    bl = Variable(_positive(rng, (3,), dtype), requires_grad=True)
    pl = _positive(rng, (2, 3), dtype)
    check("linear", lambda: ad.linear(xl, wl, bl), pl, [xl, wl, bl])

    a1 = Variable(rng.uniform_array((2, 2, 3, 3), -1.0, 1.0).astype(dtype), requires_grad=True)
    a2 = Variable(rng.uniform_array((2, 2, 3, 3), -1.0, 1.0).astype(dtype), requires_grad=True)
    pd = _positive(rng, (2, 2, 3, 3), dtype)
    check("add", lambda: ad.add(a1, a2), pd, [a1, a2])

    c1 = Variable(rng.uniform_array((2, 2, 3, 3), -1.0, 1.0).astype(dtype), requires_grad=True)
    c2 = Variable(rng.uniform_array((2, 3, 3, 3), -1.0, 1.0).astype(dtype), requires_grad=True)
    pc = _positive(rng, (2, 5, 3, 3), dtype)
    check("concat_channels", lambda: ad.concat_channels([c1, c2]), pc, [c1, c2])
    return errors


def check_losses(f64: bool = False) -> dict[str, float]:
    dtype, _ = settings(f64)
    rng = derive_stream(LOSSES_SEED, "gradcheck.losses")
    errors: dict[str, float] = {}
    n, c = 3, 4
    logits = Variable(rng.uniform_array((n, c), -1.0, 1.0).astype(dtype), requires_grad=True)
    labels = np.array([rng.randint_below(c) for _ in range(n)])
    targets = one_hot(labels, c).astype(np.float64)

    errors["cross_entropy"] = grad_check(lambda: cross_entropy(logits, targets), [logits])
    errors["focal_loss"] = grad_check(
        lambda: focal_loss(logits, targets, gamma=2.0), [logits])
    errors["focal_loss_gamma0"] = grad_check(
        lambda: focal_loss(logits, targets, gamma=0.0), [logits])
    errors["focal_loss_gamma_half"] = grad_check(
        lambda: focal_loss(logits, targets, gamma=0.5), [logits])

    # through a linear layer: weights, bias, and input together
    xw = Variable(_positive(rng, (2, 5), dtype), requires_grad=True)
    ww = Variable(rng.uniform_array((c, 5), -0.5, 0.5).astype(dtype), requires_grad=True)
    bw = Variable(rng.uniform_array((c,), -0.2, 0.2).astype(dtype), requires_grad=True)
    t2 = one_hot(np.array([rng.randint_below(c) for _ in range(2)]), c).astype(np.float64)
    errors["focal_through_linear"] = grad_check(
        lambda: focal_loss(ad.linear(xw, ww, bw), t2), [xw, ww, bw])
    return errors


def check_architecture(family: str, f64: bool = False) -> float:
    """End-to-end FD check of a Mini backbone + focal loss on a 2-image batch.

    Every trainable tensor is probed along its own gradient direction, and
    the head's top 6 coordinates per tensor also one by one (its path to the
    loss crosses no kink). Returns the max relative error over all probes.
    """
    dtype, _ = settings(f64)
    model = build_model(ArchitectureConfig(family, 16, 4),
                        derive_stream(ARCH_SEED, f"gradcheck.{family}"), dtype=dtype)
    rng = derive_stream(ARCH_SEED, f"gradcheck.{family}.data")
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
    errors = check_ops(f64)
    errors.update(check_losses(f64))
    for family in FAMILIES:
        errors[f"mini_{family}"] = check_architecture(family, f64)
    return errors
