"""Reverse-mode automatic differentiation over dense numpy arrays.

A `Variable` wraps an ndarray (float32 for training, float64 for tight
gradient verification) together with an accumulated gradient and the graph
edges needed for backpropagation. Ops are pure functions: they build a new
`Variable` whose recorded edges carry vector-Jacobian closures back to each
differentiable input. `backward` propagates from a scalar root in reverse
topological order and adds the result into each reachable leaf's gradient.
It consumes the graph: each node drops its edges, and with them the arrays
its closures saved, once its VJPs have run, so a later `backward` that
reaches a consumed node raises.

The op set is exactly what small residual/dense image classifiers require:
conv2d, relu, pooling, linear, add, channel concat and batch norm: in
train mode `normalize` (x^ by batch statistics, once per channel chunk)
then `affine_relu` (x^*gamma + beta and relu, once per layer over the
chunks it reads), in inference mode `batch_norm` (running statistics,
affine and relu as one node over the chunks it reads, each step done in
place on the one output array it allocates). `batch_norm` alone is
forward-only: nothing differentiates inference mode, and a backward that
reaches it raises. Every other differentiable op has a finite-difference
probe in `verification.OP_PROBES`. The module holds only the engine and
its ops: the gradient checkers live in `verification`, and `nn` folds
batch statistics into the running buffers. Each loss in `losses.py` is one
`_op` node over the plain-array `_log_softmax`. No op broadcasts: `add` and
the probe-only `bmul` require equal shapes, and the probe-only `sum_axes`
sums everything.

Inside `with no_grad():` every op returns a bare `Variable` that records no
edges, so a pass that never calls `backward` keeps no graph alive.

VJP closures keep references, not copies: `linear` and `conv2d` read their
input's data, `relu` and `affine_relu` their own output. So nothing may
mutate an op's inputs or output in place between forward and backward.
Every windowed op (conv's im2col and col2im, both poolings) reads its
windows through `_taps` and scatters back with `_add_taps`, and edges that
share work on their gradient share it through `_once_per_g`.

`backward` needs no topological sort. Every Variable takes the next value of
a creation counter, and an op creates its output after its inputs, so each
node is newer than every node it reads: creation order is already a
topological order. The walk pops nodes newest-first from a heap keyed on
that counter, so each node's readers have all run, and its gradient is
complete, before its own VJPs run. No reader is left to need a node's
closures after that, so the walk frees them as it passes: backward's peak
is the forward's live set plus the gradients in flight, not the whole graph.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from itertools import count
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Edge = tuple["Variable", Callable[[np.ndarray], np.ndarray]]

_FLOAT_DTYPES = (np.float32, np.float64)

BN_EPS = 1e-5       # added to the variance before the inverse square root
POOL = 2            # every pooling window is POOL x POOL at stride POOL
_BN_AXES = (0, 2, 3)  # batch-norm statistics reduce over batch and space

_grad_enabled = True  # False inside `no_grad`
_created = count()     # creation counter: each Variable's `_seq`


class Variable:
    """A tensor participating in the differentiable graph."""

    __slots__ = ("data", "requires_grad", "_grad", "_edges", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None
        self._edges: tuple[Edge, ...] | None = ()  # None once `backward` consumed them
        self._seq = next(_created)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

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


def constant(data) -> Variable:
    return Variable(data, requires_grad=False)


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no graph inside the block: each op returns a Variable without edges."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _op(data: np.ndarray, edges: Iterable[Edge]) -> Variable:
    if not _grad_enabled:
        return Variable(data)
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
    """x * (x > 0); the VJP reads the mask back from the output, out > 0,
    which has the same bits (NaN and -0.0 included), so no mask is kept."""
    out = x.data * (x.data > 0)
    return _op(out, [(x, lambda g: g * (out > 0))])


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
    return _op(out, [(v, lambda g, lo=lo, hi=hi: g[:, lo:hi]) for v, lo, hi in _channel_spans(xs)])


def _concat_data(xs: Sequence[Variable]) -> np.ndarray:
    """The data of the NCHW `xs` concatenated along channels (the one
    array itself when there is one)."""
    return xs[0].data if len(xs) == 1 else np.concatenate([v.data for v in xs], axis=1)


def _channel_spans(xs: Sequence[Variable]) -> list[tuple[Variable, int, int]]:
    """(x, lo, hi) for each NCHW x of `xs`: the channels lo:hi it fills in their concatenation."""
    spans, lo = [], 0
    for v in xs:
        hi = lo + v.data.shape[1]
        spans.append((v, lo, hi))
        lo = hi
    return spans


def _promoted(*arrays: np.ndarray) -> list[np.ndarray]:
    """`arrays` in their promoted dtype (each one itself when it has that
    dtype already), so an op whose inputs mix float32 and float64 computes
    in float64 throughout, as the float64 finite differences need."""
    dtype = np.result_type(*arrays)
    return [a.astype(dtype, copy=False) for a in arrays]


def linear(x: Variable, weight: Variable, bias: Variable) -> Variable:
    """y = x @ weight.T + bias with x: (N, F), weight: (O, F), bias: (O,)."""
    xd, wd, bd = _promoted(x.data, weight.data, bias.data)
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


def _check_poolable(xd: np.ndarray) -> None:
    if xd.ndim != 4 or min(xd.shape[2:]) < POOL:
        raise ValueError(f"pooling: expected NCHW input of at least {POOL}x{POOL}, "
                         f"got shape {xd.shape}")


def _taps(a: np.ndarray, kh: int, kw: int, stride: int) -> list[np.ndarray]:
    """Tap (i, j) of every kh x kw window of NCHW `a` at `stride`, (i, j) in
    row-major order, as strided (N, C, (H-kh)//stride + 1, (W-kw)//stride + 1)
    views. Every windowed op walks its windows through these."""
    oh = (a.shape[2] - kh) // stride + 1
    ow = (a.shape[3] - kw) // stride + 1
    return [a[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            for i in range(kh) for j in range(kw)]


def _add_taps(shape: tuple, dtype, parts: Iterable[np.ndarray], kh: int, kw: int, stride: int) -> np.ndarray:
    """The adjoint of `_taps`: zeros of NCHW `shape` with the t-th of `parts`
    added into tap t, tap after tap, so overlapping windows sum in tap order."""
    out = np.zeros(shape, dtype=dtype)
    for tap, part in zip(_taps(out, kh, kw, stride), parts):
        tap += part
    return out


def max_pool2d(x: Variable) -> Variable:
    """2x2 max pooling at stride 2 (POOL = 2): the first maximum of each
    window's four `_taps` wins ties, and the VJP scatters g * (argmax == t)
    into tap t (`_add_taps`); a trailing odd row or column gets none."""
    xd = x.data
    _check_poolable(xd)
    taps = np.stack(_taps(xd, POOL, POOL, POOL))
    amax = taps.argmax(axis=0)
    out = np.take_along_axis(taps, amax[None], axis=0)[0]
    return _op(out, [(x, lambda g: _add_taps(
        xd.shape, xd.dtype, (g * (amax == t) for t in range(POOL * POOL)), POOL, POOL, POOL))])


def avg_pool2d(x: Variable) -> Variable:
    """2x2 average pooling at stride 2 (POOL = 2), summed as
    ((top-left + top-right) + (bottom-left + bottom-right)) / 4 over the four
    `_taps`. That is the order in which numpy's mean over each window's two
    axes adds when the pooled map is at least 2 wide (a map 1 wide it adds
    left to right); written down, the result no longer rests on numpy's
    reduction internals. The VJP scatters g/4 into every tap (`_add_taps`);
    a trailing odd row or column gets none."""
    xd = x.data
    _check_poolable(xd)
    tl, tr, bl, br = _taps(xd, POOL, POOL, POOL)
    out = (tl + tr) + (bl + br)
    out /= 4
    return _op(out, [(x, lambda g: _add_taps(
        xd.shape, xd.dtype, [(g * (1.0 / 4)).astype(xd.dtype, copy=False)] * 4, POOL, POOL, POOL))])


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


def _pad(a: np.ndarray, ph: int, pw: int) -> np.ndarray:
    """NCHW `a` with ph zero rows above and below and pw zero columns left
    and right (`a` itself when both are 0): the values of `np.pad`, without
    its per-call Python overhead."""
    if not (ph or pw):
        return a
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=a.dtype)
    out[:, :, ph:ph + h, pw:pw + w] = a
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The `_taps` of NCHW `xp`, copied one by one into a preallocated
    (N, C*kh*kw, H'*W') array: faster than stacking them."""
    taps = _taps(xp, kh, kw, stride)
    n, c, oh, ow = taps[0].shape
    cols = np.empty((n, c, kh * kw, oh, ow), dtype=xp.dtype)
    for t, tap in enumerate(taps):
        cols[:, :, t] = tap
    return cols.reshape(n, c * kh * kw, oh * ow)


def _once_per_g(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """`fn`, run once per upstream gradient g: `backward` hands the edges of a
    node the same g object one after another, so, keyed on the identity of g,
    the edges share one fn(g), and any other g, even an equal one, gets its own."""
    memo = [None, None]  # the g last handed, and fn of it

    def shared(g: np.ndarray) -> np.ndarray:
        if memo[0] is not g:
            memo[:] = g, fn(g)
        return memo[1]

    return shared


def conv2d(x: Variable, kernel: Variable, bias: Variable,
           stride: int = 1, padding: int = 0) -> Variable:
    """2-D cross-correlation (no kernel flip) with per-output-channel bias.

    x: (N, Cin, H, W), kernel: (Cout, Cin, kH, kW), bias: (Cout,).
    Output spatial dims follow the floor convention
    H' = (H + 2*padding - kH) // stride + 1 and must be >= 1.

    The forward takes one of two routes, chosen from shapes alone. Thin
    convs (stride 1, padding < min(kH, kW) and Cout < Cin, e.g. the
    DenseNet growth and transition convs) shift and accumulate (kn2row,
    Vasudevan et al. 2017): with xf the padded input flattened over Hp*Wp
    and s = i*Wp + j, out = sum_ij K[:, :, i, j] @ xf[:, :, s:s+span] lands
    on a grid of padded width Wp, whose last kW-1 columns per row are
    dropped. Other convs run batched GEMMs over the unrolled input
    (Chellapilla et al. 2006), `cols` = im2col(x) of shape
    (N, Cin*kH*kW, H'*W'): out = K2 @ cols + b.

    A "full" conv (stride 1, padding < min(kH, kW)) takes both gradients
    from `gcols`, the im2col of g padded by (kH-1-padding, kW-1-padding),
    of shape (N, Cout*kH*kW, H*W): dx = flip(K)ᵀ @ gcols, the full
    correlation of g with the flipped kernel, channels transposed, and
    dK = sum_n gcols_n @ x_nᵀ, reshaped to (Cout, kH, kW, Cin) and flipped
    over the taps. The two edges share one gcols (`_once_per_g`), and the
    closures keep only x's data, which x holds anyway. Convs with no gcols
    to share keep `cols` and take dK = (sum_n cols_n @ g_nᵀ)ᵀ: stride 2,
    padding >= min(kH, kW), and wide convs whose input takes no gradient,
    such as the stem (its g has 16 channels, its input 1). Their dx, where
    x takes one, scatters K2ᵀ @ g back into the input's taps (`_add_taps`). A
    thin conv has no `cols`, so its dK comes from gcols in any case. The
    routes sum in different float orders; db sums g over batch and space.
    """
    xd, kd, bd = _promoted(x.data, kernel.data, bias.data)
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

    xp = _pad(xd, padding, padding)
    hp, wp = xp.shape[2], xp.shape[3]
    k2 = kd.reshape(cout, -1)
    full = stride == 1 and padding < min(kh, kw)
    thin = full and cout < cin
    if thin:
        xf = xp.reshape(n, cin, hp * wp)
        span = oh * wp - (kw - 1)  # the last grid row ends at its last kept column
        taps = np.ascontiguousarray(kd.transpose(2, 3, 0, 1)).reshape(kh * kw, cout, cin)
        grid = np.zeros((n, cout, oh * wp), dtype=xd.dtype)
        for t, s in enumerate(i * wp + j for i in range(kh) for j in range(kw)):
            grid[:, :, :span] += np.matmul(taps[t], xf[:, :, s:s + span])
        out = grid.reshape(n, cout, oh, wp)[:, :, :, :ow] + bd[None, :, None, None]
    else:
        cols = _im2col(xp, kh, kw, stride)                      # (N, Cin*kh*kw, oh*ow)
        out = np.matmul(k2, cols)                               # (N, Cout, oh*ow)
        out += bd[None, :, None]
        out = out.reshape(n, cout, oh, ow)
    gcols_of = _once_per_g(lambda g: _im2col(_pad(g, kh - 1 - padding, kw - 1 - padding), kh, kw, 1))

    def vjp_x_full(g: np.ndarray) -> np.ndarray:
        kt = kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        return np.matmul(kt, gcols_of(g)).reshape(n, cin, h, w)

    def vjp_k_full(g: np.ndarray) -> np.ndarray:
        # (Cout*kh*kw, H*W) @ (H*W, Cin): BLAS reads the transposed view of x
        dk = np.matmul(gcols_of(g), xd.reshape(n, cin, h * w).transpose(0, 2, 1)).sum(axis=0)
        return np.ascontiguousarray(dk.reshape(cout, kh, kw, cin)[:, ::-1, ::-1].transpose(0, 3, 1, 2))

    def vjp_k_cols(g: np.ndarray) -> np.ndarray:
        # (Cin*kh*kw, oh*ow) @ (oh*ow, Cout) runs faster in BLAS than its transpose
        g2t = g.reshape(n, cout, oh * ow).transpose(0, 2, 1)
        return np.matmul(cols, g2t).sum(axis=0).T.reshape(kd.shape)

    def vjp_x(g: np.ndarray) -> np.ndarray:
        gcols = np.matmul(k2.T, g.reshape(n, cout, oh * ow)).reshape(n, cin, kh * kw, oh, ow)
        gxp = _add_taps((n, cin, hp, wp), xd.dtype, np.moveaxis(gcols, 2, 0), kh, kw, stride)
        return gxp[:, :, padding:hp - padding, padding:wp - padding] if padding else gxp

    # only the closures passed on outlive the call, and with them the arrays they read
    vjp_k = vjp_k_full if thin or (full and x.requires_grad) else vjp_k_cols
    return _op(out, [(x, vjp_x_full if full else vjp_x), (kernel, vjp_k),
                     (bias, lambda g: g.sum(axis=(0, 2, 3)))])


def _forward_only(g: np.ndarray) -> np.ndarray:
    """The VJP of every edge `batch_norm` records: there is none to take."""
    raise RuntimeError("backward: inference-mode batch norm (batch_norm) is forward-only; "
                       "train mode differentiates as normalize then affine_relu")


def batch_norm(xs: Sequence[Variable], gamma: Variable, beta: Variable,
               running_mean: np.ndarray, running_var: np.ndarray,
               relu: bool = False) -> Variable:
    """Inference-mode per-channel batch normalization (+ relu) over the
    channel concatenation of the NCHW `xs`, as one forward-only node.

    Normalizes by the running buffers, x^ = (x - running_mean) * inv with
    inv = 1/sqrt(running_var + BN_EPS), then out = x^*gamma + beta and, with
    `relu`, out * (out > 0). The forward builds one output array (the
    concatenation, when there are several chunks) and does each step in
    place on it, in that order, so the values are those of relu(batch_norm)
    over the concatenation.

    Nothing differentiates it (eval runs under `no_grad`, and a frozen
    layer's input, gamma and beta need no gradient), so each edge it keeps,
    to an input that requires a gradient, raises when a backward reaches it.
    Train mode, which normalizes by batch statistics, is `normalize` then
    `affine_relu`.
    """
    xd = xs[0].data
    if xd.ndim != 4:
        raise ValueError(f"batch_norm: expected NCHW input, got shape {xd.shape}")
    c = sum(v.data.shape[1] for v in xs)
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(
            f"batch_norm: gamma/beta shapes {gamma.data.shape}/{beta.data.shape} must be ({c},)")
    inv = (1.0 / np.sqrt(running_var + BN_EPS)).reshape(1, c, 1, 1).astype(xd.dtype)
    shift = running_mean.reshape(1, c, 1, 1).astype(xd.dtype)
    if len(xs) == 1:
        out = xd - shift
    else:
        out = _concat_data(xs)
        out -= shift
    out *= inv
    out *= gamma.data.reshape(1, c, 1, 1)
    out += beta.data.reshape(1, c, 1, 1)
    if relu:
        out *= out > 0
    return _op(out, [(v, _forward_only) for v in (*xs, gamma, beta)])


def normalize(x: Variable) -> tuple[Variable, np.ndarray, np.ndarray]:
    """Train-mode batch norm without the affine: the node x^ = (x - mu) * inv,
    inv = 1/sqrt(var + BN_EPS), plus the batch mean mu and biased variance var.

    A channel's statistics do not depend on the channels beside it, so a
    dense block normalizes each chunk once for every layer that reads it.
    The VJP is Ioffe & Szegedy's (2015) closed form at gamma = 1, dx = inv *
    (h - mean(h) - x^*mean(h*x^)), applied once to h, the sum of every
    reader's gradient.
    """
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"normalize: expected NCHW input, got shape {xd.shape}")
    n, _, h, w = xd.shape
    if n * h * w < 2:
        raise ValueError("normalize: batch statistics need at least 2 values per channel")
    mu = xd.mean(axis=_BN_AXES, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=_BN_AXES, keepdims=True)
    inv = (var + xd.dtype.type(BN_EPS)) ** xd.dtype.type(-0.5)
    xhat = xc * inv

    def vjp(g: np.ndarray) -> np.ndarray:
        return inv * (g - g.mean(axis=_BN_AXES, keepdims=True)
                      - xhat * (g * xhat).mean(axis=_BN_AXES, keepdims=True))

    return _op(xhat, [(x, vjp)]), mu, var


def affine_relu(xs: Sequence[Variable], gamma: Variable, beta: Variable,
                relu: bool = True) -> Variable:
    """relu(x * gamma + beta) per channel over the channel concatenation of
    the NCHW `xs` (no relu when not `relu`), as one node with an edge to
    each x, gamma and beta.

    Over `normalize` outputs this is a train-mode batch norm (+ relu), the
    only batch norm a backward runs through (inference-mode `batch_norm` is
    forward-only). It keeps neither the concatenation, the pre-relu values
    nor a relu mask: the mask is out > 0, read from its own output, which
    has the bits of the pre-relu test (NaN and -0.0 included). Each x's VJP
    is gamma * g * mask on its own channels, and the edges share one
    g * mask (`_once_per_g`).
    """
    xd, gd, bd = _promoted(_concat_data(xs), gamma.data, beta.data)
    c = xd.shape[1]
    if gd.shape != (c,) or bd.shape != (c,):
        raise ValueError(f"affine_relu: gamma/beta shapes {gd.shape}/{bd.shape} must be ({c},)")
    gd = gd.reshape(1, c, 1, 1)
    out = xd * gd + bd.reshape(1, c, 1, 1)
    if relu:
        out *= out > 0
    masked = _once_per_g(lambda g: g * (out > 0)) if relu else (lambda g: g)

    spans = _channel_spans(xs)
    edges = [(v, lambda g, lo=lo, hi=hi: masked(g)[:, lo:hi] * gd[:, lo:hi]) for v, lo, hi in spans]
    edges.append((gamma, lambda g: np.concatenate(
        [(masked(g)[:, lo:hi] * v.data).sum(axis=_BN_AXES) for v, lo, hi in spans])))
    edges.append((beta, lambda g: masked(g).sum(axis=_BN_AXES)))
    return _op(out, edges)


def _log_softmax(xd: np.ndarray) -> np.ndarray:
    """Max-shifted log(softmax(xd)) over the class axis 1 of plain arrays; the losses share it."""
    s = xd - xd.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(root: Variable) -> None:
    """Accumulate d(root)/d(v) into v.grad for every reachable leaf (a node
    without edges), consuming the graph.

    The root must hold exactly one element. Nodes run newest-first, so each
    runs once with its gradient complete, and then drops its edges: its
    closures and the arrays they saved are freed as the walk passes, even
    while the caller still holds the root. Each per-call buffer is dropped
    once used, so intermediate nodes keep no gradient. A consumed node can
    never pass for a leaf: a later walk that reaches one raises. Leaf
    gradients are added (never overwritten) only once the walk has finished,
    so a walk that raises leaves every gradient as it was.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.data.shape}")
    if not root.requires_grad:
        return
    buf: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    heap = [(-root._seq, root)]
    leaves: list[tuple[Variable, np.ndarray]] = []
    while heap:
        _, node = heapq.heappop(heap)
        g = buf.pop(id(node))
        edges = node._edges
        if edges is None:
            raise RuntimeError("backward: the graph was already consumed by an earlier backward")
        if not edges:
            leaves.append((node, g))
            continue
        node._edges = None  # consumed: its closures go once `edges` is rebound
        for parent, vjp in edges:
            acc = buf.get(id(parent))
            if acc is None:
                buf[id(parent)] = np.array(vjp(g), dtype=parent.data.dtype, copy=True)
                heapq.heappush(heap, (-parent._seq, parent))
            else:
                acc += vjp(g)
    for leaf, g in leaves:
        leaf._grad = g if leaf._grad is None else leaf._grad + g
