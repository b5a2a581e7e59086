"""Reverse-mode automatic differentiation over dense numpy arrays.

A `Variable` wraps an ndarray (float32 for training, float64 for tight
gradient verification) together with an accumulated gradient and the graph
edges needed for backpropagation. Ops are pure functions: they build a new
`Variable` whose recorded edges carry vector-Jacobian closures back to each
differentiable input. `backward` propagates from a scalar root in reverse
topological order and adds the result into each reachable leaf's gradient,
so calling it twice without zeroing doubles the gradients.

The op set is exactly what small residual/dense image classifiers require:
conv2d, batch norm (one fused node with a closed-form backward), relu,
pooling, linear, add and channel concat. Each loss in `losses.py` is one
`_op` node over the plain-array `_log_softmax`. No op broadcasts: `add` and
the probe-only `bmul` require equal shapes, and the probe-only `sum_axes`
sums everything.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

Edge = tuple["Variable", Callable[[np.ndarray], np.ndarray]]

_FLOAT_DTYPES = (np.float32, np.float64)

BN_EPS = 1e-5       # added to the variance before the inverse square root
BN_MOMENTUM = 0.1   # weight of each batch's statistics in the running buffers


class Variable:
    """A tensor participating in the differentiable graph."""

    __slots__ = ("data", "requires_grad", "_grad", "_edges")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._edges: tuple[Edge, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros until a backward pass reaches this node."""
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Variable(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def constant(data, dtype=None) -> Variable:
    return Variable(data, requires_grad=False, dtype=dtype)


def _op(data: np.ndarray, edges: Iterable[Edge]) -> Variable:
    kept = tuple((v, f) for v, f in edges if v.requires_grad)
    out = Variable(data, requires_grad=bool(kept))
    out._edges = kept
    return out


# ---------------------------------------------------------------------------
# elementwise / reduction primitives (internal: verification probes)
# ---------------------------------------------------------------------------

def bmul(a: Variable, b: Variable) -> Variable:
    """Strict elementwise product: shapes must match."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"bmul: shape mismatch {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data
    return _op(ad * bd, [(a, lambda g: g * bd), (b, lambda g: g * ad)])


def sum_axes(x: Variable) -> Variable:
    """Sum of every element, as a 0-d result."""
    xd = x.data
    return _op(xd.sum(), [(x, lambda g: np.broadcast_to(g, xd.shape).astype(xd.dtype, copy=False))])


# ---------------------------------------------------------------------------
# public network ops
# ---------------------------------------------------------------------------

def relu(x: Variable) -> Variable:
    mask = x.data > 0
    return _op(np.where(mask, x.data, x.dtype.type(0)), [(x, lambda g: g * mask)])


def add(a: Variable, b: Variable) -> Variable:
    """Strict elementwise addition (skip connections): shapes must match."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")
    return _op(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def concat_channels(xs: Sequence[Variable]) -> Variable:
    """Concatenate NCHW tensors along the channel axis."""
    if not xs:
        raise ValueError("concat_channels: need at least one input")
    base = xs[0].data.shape
    for v in xs[1:]:
        s = v.data.shape
        if len(s) != 4 or s[0] != base[0] or s[2:] != base[2:]:
            raise ValueError(
                f"concat_channels: incompatible shapes {base} vs {s} (all dims but channels must match)")
    out = np.concatenate([v.data for v in xs], axis=1)
    edges = []
    start = 0
    for v in xs:
        c = v.data.shape[1]
        lo, hi = start, start + c

        def vjp(g: np.ndarray, lo=lo, hi=hi) -> np.ndarray:
            return g[:, lo:hi]

        edges.append((v, vjp))
        start = hi
    return _op(out, edges)


def linear(x: Variable, weight: Variable, bias: Variable) -> Variable:
    """y = x @ weight.T + bias with x: (N, F), weight: (O, F), bias: (O,)."""
    xd, wd, bd = x.data, weight.data, bias.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1]:
        raise ValueError(
            f"linear: input features {xd.shape} do not match weight columns {wd.shape}")
    if bd.shape != (wd.shape[0],):
        raise ValueError(f"linear: bias shape {bd.shape} must be ({wd.shape[0]},)")
    out = xd @ wd.T + bd
    return _op(out, [
        (x, lambda g: g @ wd),
        (weight, lambda g: g.T @ xd),
        (bias, lambda g: g.sum(axis=0)),
    ])


def _pool_windows(xd: np.ndarray, k: int, stride: int) -> np.ndarray:
    n, c, h, w = xd.shape
    oh = (h - k) // stride + 1
    ow = (w - k) // stride + 1
    s0, s1, s2, s3 = xd.strides
    return np.lib.stride_tricks.as_strided(
        xd, shape=(n, c, oh, ow, k, k),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3))


def max_pool2d(x: Variable, kernel: int = 2, stride: int | None = None) -> Variable:
    """Max pooling; on ties the gradient routes to the lowest flat index in the window."""
    stride = kernel if stride is None else stride
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"max_pool2d: expected NCHW input, got shape {xd.shape}")
    n, c, h, w = xd.shape
    if h < kernel or w < kernel:
        raise ValueError(f"max_pool2d: window {kernel} exceeds input {h}x{w}")
    win = _pool_windows(xd, kernel, stride)
    oh, ow = win.shape[2], win.shape[3]
    flat = win.reshape(n, c, oh, ow, kernel * kernel)
    amax = flat.argmax(axis=-1)  # first maximum wins ties
    out = np.take_along_axis(flat, amax[..., None], axis=-1)[..., 0]

    def vjp(g: np.ndarray) -> np.ndarray:
        gx = np.zeros_like(xd)
        for i in range(kernel):
            for j in range(kernel):
                sel = (amax == i * kernel + j)
                gx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += g * sel
        return gx

    return _op(out, [(x, vjp)])


def avg_pool2d(x: Variable, kernel: int = 2, stride: int | None = None) -> Variable:
    stride = kernel if stride is None else stride
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"avg_pool2d: expected NCHW input, got shape {xd.shape}")
    n, c, h, w = xd.shape
    if h < kernel or w < kernel:
        raise ValueError(f"avg_pool2d: window {kernel} exceeds input {h}x{w}")
    win = _pool_windows(xd, kernel, stride)
    oh, ow = win.shape[2], win.shape[3]
    out = win.mean(axis=(4, 5))
    scale = 1.0 / (kernel * kernel)

    def vjp(g: np.ndarray) -> np.ndarray:
        gx = np.zeros_like(xd)
        gs = (g * scale).astype(xd.dtype, copy=False)
        for i in range(kernel):
            for j in range(kernel):
                gx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gs
        return gx

    return _op(out, [(x, vjp)])


def global_avg_pool(x: Variable) -> Variable:
    """(N, C, H, W) -> (N, C) spatial mean."""
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"global_avg_pool: expected NCHW input, got shape {xd.shape}")
    n, c, h, w = xd.shape
    out = xd.mean(axis=(2, 3))

    def vjp(g: np.ndarray) -> np.ndarray:
        return (np.broadcast_to(g[:, :, None, None], xd.shape) / (h * w)).astype(xd.dtype, copy=False)

    return _op(out, [(x, vjp)])


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    # slice-copy per kernel offset: much faster than reshaping a 6-D strided view
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def conv2d(x: Variable, kernel: Variable, bias: Variable,
           stride: int = 1, padding: int = 0) -> Variable:
    """2-D cross-correlation (no kernel flip) with per-output-channel bias.

    x: (N, Cin, H, W), kernel: (Cout, Cin, kH, kW), bias: (Cout,).
    Output spatial dims follow the floor convention
    H' = (H + 2*padding - kH) // stride + 1 and must be >= 1.
    """
    xd, kd, bd = x.data, kernel.data, bias.data
    if xd.ndim != 4 or kd.ndim != 4:
        raise ValueError(f"conv2d: expected 4-D input/kernel, got {xd.shape} and {kd.shape}")
    n, cin, h, w = xd.shape
    cout, kcin, kh, kw = kd.shape
    if cin != kcin:
        raise ValueError(
            f"conv2d: input has {cin} channels but kernel expects {kcin} (kernel {kd.shape})")
    if bd.shape != (cout,):
        raise ValueError(f"conv2d: bias shape {bd.shape} must be ({cout},)")
    if stride < 1 or padding < 0:
        raise ValueError(f"conv2d: invalid stride={stride} padding={padding}")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"conv2d: kernel {kh}x{kw} with stride {stride}, padding {padding} "
            f"collapses {h}x{w} input to {oh}x{ow}")

    if padding:
        xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = xd
    cols = _im2col(xp, kh, kw, stride, oh, ow)            # (N, Cin*kh*kw, oh*ow)
    k2 = kd.reshape(cout, -1)
    out = np.matmul(k2, cols) + bd[None, :, None]          # (N, Cout, oh*ow)
    out = out.reshape(n, cout, oh, ow)

    hp, wp = xp.shape[2], xp.shape[3]

    def vjp_x(g: np.ndarray) -> np.ndarray:
        g2 = g.reshape(n, cout, oh * ow)
        gcols = np.matmul(k2.T, g2).reshape(n, cin, kh, kw, oh, ow)
        gxp = np.zeros((n, cin, hp, wp), dtype=xd.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gcols[:, :, i, j]
        if padding:
            return gxp[:, :, padding:hp - padding, padding:wp - padding]
        return gxp

    def vjp_k(g: np.ndarray) -> np.ndarray:
        g2 = g.reshape(n, cout, oh * ow)
        return np.tensordot(g2, cols, axes=([0, 2], [0, 2])).reshape(kd.shape)

    def vjp_b(g: np.ndarray) -> np.ndarray:
        return g.sum(axis=(0, 2, 3))

    return _op(out, [(x, vjp_x), (kernel, vjp_k), (bias, vjp_b)])


def batch_norm(x: Variable, gamma: Variable, beta: Variable,
               running_mean: np.ndarray, running_var: np.ndarray,
               train: bool, update_running: bool = True) -> Variable:
    """Per-channel batch normalization on NCHW input.

    Train mode normalizes by batch statistics (and, when `update_running`,
    folds the unbiased batch variance into the running buffers in place);
    eval mode normalizes by the running buffers. One graph node with edges
    to the input, gamma and beta. The input VJP is the closed form of Ioffe
    & Szegedy (2015): with x^ the normalized input and inv = 1/sqrt(var+BN_EPS),
    dx = gamma*inv * (g - mean(g) - x^*mean(g*x^)) in train mode, where the
    batch statistics depend on x, and dx = gamma*inv * g in eval mode.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"batch_norm: expected NCHW input, got shape {xd.shape}")
    n, c, h, w = xd.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(
            f"batch_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} must be ({c},)")
    axes = (0, 2, 3)
    if train:
        m = n * h * w
        if m < 2:
            raise ValueError("batch_norm: train mode needs at least 2 values per channel")
        mu = xd.mean(axis=axes, keepdims=True)
        xc = xd - mu
        var = (xc * xc).mean(axis=axes, keepdims=True)
        inv = (var + xd.dtype.type(BN_EPS)) ** xd.dtype.type(-0.5)
        xhat = xc * inv
        if update_running:
            bm = mu.reshape(c)
            bv = var.reshape(c) * (m / (m - 1.0))  # unbiased for the running buffer
            running_mean *= (1.0 - BN_MOMENTUM)
            running_mean += BN_MOMENTUM * bm
            running_var *= (1.0 - BN_MOMENTUM)
            running_var += BN_MOMENTUM * bv
    else:
        inv = (1.0 / np.sqrt(running_var + BN_EPS)).reshape(1, c, 1, 1).astype(xd.dtype)
        shift = running_mean.reshape(1, c, 1, 1).astype(xd.dtype)
        xhat = (xd - shift) * inv
    gd = gamma.data.reshape(1, c, 1, 1)
    out = xhat * gd + beta.data.reshape(1, c, 1, 1)
    coef = gd * inv

    def vjp_x(g: np.ndarray) -> np.ndarray:
        if not train:
            return g * coef
        return coef * (g - g.mean(axis=axes, keepdims=True)
                       - xhat * (g * xhat).mean(axis=axes, keepdims=True))

    return _op(out, [
        (x, vjp_x),
        (gamma, lambda g: (g * xhat).sum(axis=axes)),
        (beta, lambda g: g.sum(axis=axes)),
    ])


def _log_softmax(xd: np.ndarray) -> np.ndarray:
    """Max-shifted log(softmax(xd)) over the class axis 1 of plain arrays; the losses share it."""
    s = xd - xd.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# backward pass and finite-difference verification
# ---------------------------------------------------------------------------

def _toposort(root: Variable) -> list[Variable]:
    order: list[Variable] = []
    seen: set[int] = set()
    stack: list[tuple[Variable, bool]] = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._edges:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(root: Variable) -> None:
    """Accumulate d(root)/d(v) into v.grad for every reachable leaf (a node without edges).

    The root must hold exactly one element. Each per-call buffer is dropped
    once used, so intermediate nodes keep no gradient, and repeated calls add
    (never overwrite) leaf gradients.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        return
    buf: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(_toposort(root)):
        g = buf.pop(id(node), None)
        if g is None:
            continue
        if not node._edges:
            node._grad = g if node._grad is None else node._grad + g
        for parent, vjp in node._edges:
            contrib = vjp(g)
            acc = buf.get(id(parent))
            if acc is None:
                buf[id(parent)] = np.array(contrib, dtype=parent.data.dtype, copy=True)
            else:
                acc += contrib


def _analytic_grads(fn: Callable[[], Variable], params: list[Variable],
                    caller: str) -> list[np.ndarray]:
    """float64 copies of d fn() / d p, leaving each p's accumulated gradient as it was."""
    saved_grads = [p._grad for p in params]
    for p in params:
        p._grad = None
    out = fn()
    if out.data.size != 1:
        raise ValueError(f"{caller}: function must produce a scalar")
    backward(out)
    grads = [np.asarray(p.grad, dtype=np.float64).copy() for p in params]
    for p, g in zip(params, saved_grads):
        p._grad = g
    return grads


def grad_check_directional(fn: Callable[[], Variable], params: Sequence[Variable],
                           h: float = 1e-3) -> float:
    """Per-tensor finite-difference check along each gradient's own direction.

    For every parameter tensor, compares ||g|| against the central difference
    of `fn` along d = g/||g||. Aggregating a whole tensor into one
    well-conditioned probe makes this robust to the relu-kink noise that
    contaminates coordinate-wise probes on deep centered networks. Returns
    the max relative error over tensors (tensors with ~zero gradient are
    skipped: there is nothing to verify against).
    """
    params = list(params)
    worst = 0.0
    for p, g in zip(params, _analytic_grads(fn, params, "grad_check_directional")):
        norm = float(np.sqrt((g * g).sum()))
        if norm < 1e-12:
            continue
        d = (g / norm).astype(p.data.dtype)
        orig = p.data.copy()
        p.data += (h * d).astype(p.data.dtype)
        fp = fn().item()
        np.copyto(p.data, orig)
        p.data -= (h * d).astype(p.data.dtype)
        fm = fn().item()
        np.copyto(p.data, orig)
        num = (fp - fm) / (2.0 * h)
        err = abs(norm - num) / max(norm, abs(num), 1e-6)
        worst = max(worst, err)
    return worst


def grad_check(fn: Callable[[], Variable], params: Sequence[Variable],
               h: float = 1e-3, top: int | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    `fn` must rebuild the same deterministic scalar from the current values
    of `params` on every call (no side effects). Parameter data and gradients
    are restored before returning. With `top`, only each tensor's `top`
    largest-|gradient| coordinates are probed: they carry the verifiable
    signal, while tiny ones sit at the FD noise floor and measure
    conditioning, not correctness.
    """
    params = list(params)
    worst = 0.0
    for p, a in zip(params, _analytic_grads(fn, params, "grad_check")):
        a = a.reshape(-1)
        flat = p.data.reshape(-1)
        idxs = range(flat.size) if top is None else np.argsort(-np.abs(a))[:top]
        for i in idxs:
            orig = flat[i].copy()
            flat[i] = orig + h
            step_up = float(flat[i]) - float(orig)
            fp = fn().item()
            flat[i] = orig - h
            step_dn = float(orig) - float(flat[i])
            fm = fn().item()
            flat[i] = orig
            num = (fp - fm) / (step_up + step_dn)
            err = abs(float(a[i]) - num) / max(abs(float(a[i])), abs(num), 1e-6)
            worst = max(worst, err)
    return worst
