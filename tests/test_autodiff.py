import inspect
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xraynet import autodiff as ad
from xraynet.autodiff import Variable, backward, grad_check, grad_check_directional
from xraynet.nn import BatchNorm2d, ParameterStore
from xraynet.rng import Pcg32
from xraynet.verification import check_ops


def reference_conv2d(x, k, b, stride=1, padding=0):
    """Direct six-nested-loop cross-correlation, float64 accumulation."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (x.shape[2] - kh) // stride + 1
    ow = (x.shape[3] - kw) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (x[ni, ci, oy * stride + ky, ox * stride + kx]
                                        * k[co, ci, ky, kx])
                    out[ni, co, oy, ox] = acc + b[co]
    return out


def reference_conv2d_vjp(x, k, g, stride=1, padding=0):
    """Adjoint of `reference_conv2d` by the same loops: (dx, dk), float64."""
    n, cin, h, w = x.shape
    cout, _, kh, kw = k.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dk = np.zeros(k.shape, dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for oy in range(g.shape[2]):
                for ox in range(g.shape[3]):
                    gv = float(g[ni, co, oy, ox])
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy, ix = oy * stride + ky, ox * stride + kx
                                dxp[ni, ci, iy, ix] += gv * k[co, ci, ky, kx]
                                dk[co, ci, ky, kx] += gv * xp[ni, ci, iy, ix]
    return dxp[:, :, padding:padding + h, padding:padding + w], dk


class TestConv2d:
    def test_all_ones_window_sum(self):
        x = Variable(np.ones((1, 1, 3, 3), dtype=np.float32))
        k = Variable(np.ones((1, 1, 2, 2), dtype=np.float32))
        b = Variable(np.zeros(1, dtype=np.float32))
        out = ad.conv2d(x, k, b)
        assert out.shape == (1, 1, 2, 2)
        npt.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0, dtype=np.float32))

    def test_identity_kernel(self):
        rng = Pcg32(2, 0)
        x = Variable(rng.uniform_array((2, 1, 5, 7), -1, 1).astype(np.float32))
        k = Variable(np.ones((1, 1, 1, 1), dtype=np.float32))
        b = Variable(np.zeros(1, dtype=np.float32))
        out = ad.conv2d(x, k, b)
        npt.assert_array_equal(out.data, x.data)

    def test_counting_kernel_against_loop_oracle(self):
        x = np.arange(1, 17, dtype=np.float32).reshape(1, 1, 4, 4)
        k = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
        b = np.zeros(1, dtype=np.float32)
        out = ad.conv2d(Variable(x), Variable(k), Variable(b))
        # frozen values computed by reference_conv2d
        npt.assert_array_equal(out.data.reshape(2, 2),
                               np.array([[348.0, 393.0], [528.0, 573.0]], dtype=np.float32))
        npt.assert_array_equal(out.data, reference_conv2d(x, k, b).astype(np.float32))

    @pytest.mark.parametrize("shape,cout,kk,stride,padding", [
        ((2, 4, 16, 16), 3, 3, 1, 1),
        ((2, 4, 16, 16), 2, 3, 2, 1),
        ((1, 2, 9, 9), 4, 2, 2, 0),
        ((2, 3, 8, 8), 1, 1, 2, 0),
        ((2, 5, 7, 6), 2, 1, 1, 0),
    ])
    def test_matches_loop_oracle_exactly_on_integer_tensors(self, shape, cout, kk, stride, padding):
        # integer-valued tensors make every summation order exact in float,
        # so the im2col path must agree with the nested loops bit for bit
        rng = Pcg32(shape[2] * 7 + stride, padding)
        x = np.floor(rng.uniform_array(shape, -4, 5)).astype(np.float32)
        k = np.floor(rng.uniform_array((cout, shape[1], kk, kk), -4, 5)).astype(np.float32)
        b = np.floor(rng.uniform_array((cout,), -4, 5)).astype(np.float32)
        out = ad.conv2d(Variable(x), Variable(k), Variable(b), stride=stride, padding=padding)
        npt.assert_array_equal(out.data, reference_conv2d(x, k, b, stride, padding).astype(np.float32))

    @pytest.mark.parametrize("hw", [(9, 8), (7, 7)])
    @pytest.mark.parametrize("kshape", [(1, 1), (2, 2), (3, 3), (3, 2)])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_gradients_match_loop_oracle_exactly_on_integer_tensors(self, stride, padding, kshape, hw):
        # stride 1 with padding < min(kh, kw) takes the transposed-conv dx,
        # every other case (k=1 p>=1, k=2 p=2, all stride 2) the col2im one;
        # integer values keep every sum exact in any order
        rng = Pcg32(stride * 100 + padding * 10 + kshape[0], kshape[1] * 10 + hw[0])
        self._check_gradients(rng, 3, 4, stride, padding, kshape, hw)

    @pytest.mark.parametrize("hw", [(9, 8), (7, 7)])
    @pytest.mark.parametrize("kshape", [(1, 1), (2, 2), (3, 3), (3, 2)])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_thin_gradients_match_loop_oracle_exactly_on_integer_tensors(self, padding, kshape, hw):
        # stride 1 with Cout < Cin takes the shift-and-accumulate forward and dK
        rng = Pcg32(500 + padding * 10 + kshape[0], kshape[1] * 10 + hw[0])
        self._check_gradients(rng, 5, 2, 1, padding, kshape, hw)

    @staticmethod
    def _check_gradients(rng, cin, cout, stride, padding, kshape, hw):
        kh, kw = kshape
        x = np.floor(rng.uniform_array((2, cin, *hw), -4, 5)).astype(np.float32)
        k = np.floor(rng.uniform_array((cout, cin, kh, kw), -4, 5)).astype(np.float32)
        b = np.floor(rng.uniform_array((cout,), -4, 5)).astype(np.float32)
        xv, kv, bv = (Variable(a, requires_grad=True) for a in (x, k, b))
        out = ad.conv2d(xv, kv, bv, stride=stride, padding=padding)
        npt.assert_array_equal(out.data, reference_conv2d(x, k, b, stride, padding).astype(np.float32))
        g = np.floor(rng.uniform_array(out.shape, -4, 5)).astype(np.float32)
        backward(ad.sum_axes(ad.bmul(out, ad.constant(g))))  # upstream gradient g
        dx, dk = reference_conv2d_vjp(x, k, g, stride, padding)
        for v, want in ((xv, dx), (kv, dk), (bv, g.sum(axis=(0, 2, 3)))):
            assert v.grad.dtype == np.float32
            npt.assert_array_equal(v.grad, want.astype(np.float32))

    def test_thin_forward_allocates_no_unrolled_input(self):
        # a dense1.layer3-shaped conv: im2col would copy the input k² = 9 times
        rng = Pcg32(40, 3)
        x = Variable(rng.uniform_array((8, 40, 64, 64), -1, 1).astype(np.float32), requires_grad=True)
        k = Variable(rng.uniform_array((8, 40, 3, 3), -1, 1).astype(np.float32), requires_grad=True)
        b = Variable(np.zeros(8, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            out = ad.conv2d(x, k, b, stride=1, padding=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.data.nbytes, f"peak {peak / x.data.nbytes:.2f}x the input"
        assert out.shape == (8, 8, 64, 64)

    def test_matches_loop_oracle_on_float_tensors(self):
        rng = Pcg32(99, 1)
        x = rng.uniform_array((2, 3, 10, 10), -1, 1).astype(np.float32)
        k = rng.uniform_array((4, 3, 3, 3), -1, 1).astype(np.float32)
        b = rng.uniform_array((4,), -1, 1).astype(np.float32)
        out = ad.conv2d(Variable(x), Variable(k), Variable(b), stride=1, padding=1)
        npt.assert_allclose(out.data, reference_conv2d(x, k, b, 1, 1), rtol=1e-5, atol=1e-5)

    def test_channel_mismatch_rejected_with_dimensions(self):
        x = Variable(np.zeros((1, 3, 4, 4), dtype=np.float32))
        k = Variable(np.zeros((2, 4, 3, 3), dtype=np.float32))
        b = Variable(np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError, match="3 channels.*expects 4"):
            ad.conv2d(x, k, b)

    def test_collapsing_output_rejected(self):
        x = Variable(np.zeros((1, 1, 2, 2), dtype=np.float32))
        k = Variable(np.zeros((1, 1, 5, 5), dtype=np.float32))
        b = Variable(np.zeros(1, dtype=np.float32))
        with pytest.raises(ValueError, match="collapses"):
            ad.conv2d(x, k, b)

    def test_gradients_match_fd(self):
        rng = Pcg32(5, 5)
        x = Variable(rng.uniform_array((1, 2, 5, 5), 0.3, 1.2).astype(np.float32), requires_grad=True)
        k = Variable(rng.uniform_array((2, 2, 3, 3), 0.3, 1.2).astype(np.float32), requires_grad=True)
        b = Variable(rng.uniform_array((2,), 0.3, 1.2).astype(np.float32), requires_grad=True)
        proj = ad.constant(rng.uniform_array((1, 2, 3, 3), 0.3, 1.2).astype(np.float32))
        err = grad_check(lambda: ad.sum_axes(ad.bmul(
            ad.conv2d(x, k, b, stride=2, padding=1), proj)), [x, k, b], h=1e-3)
        assert err < 1e-2


class TestBatchNorm:
    """Train mode is `normalize` then `affine_relu`, as `BatchNorm2d` calls
    them; inference mode is `batch_norm` over the running buffers."""

    def test_already_normalized_input_passthrough(self):
        rng = Pcg32(7, 0)
        x = rng.uniform_array((4, 2, 4, 4), -1, 1)
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True))
        x = (x / np.sqrt((x ** 2).mean(axis=(0, 2, 3), keepdims=True))).astype(np.float32)
        gamma = Variable(np.ones(2, dtype=np.float32))
        beta = Variable(np.zeros(2, dtype=np.float32))
        xhat, _, _ = ad.normalize(Variable(x))
        out = ad.affine_relu([xhat], gamma, beta, relu=False)
        npt.assert_allclose(out.data, x, atol=1e-4)

    def test_zero_gamma_yields_beta_and_kills_input_gradient(self):
        rng = Pcg32(8, 0)
        x = Variable(rng.uniform_array((2, 3, 4, 4), -1, 1).astype(np.float32), requires_grad=True)
        gamma = Variable(np.zeros(3, dtype=np.float32), requires_grad=True)
        beta = Variable(np.array([0.5, -1.0, 2.0], dtype=np.float32), requires_grad=True)
        out = ad.affine_relu([ad.normalize(x)[0]], gamma, beta, relu=False)
        expect = np.broadcast_to(beta.data.reshape(1, 3, 1, 1), out.shape)
        npt.assert_allclose(out.data, expect, atol=1e-7)
        backward(ad.sum_axes(out))
        npt.assert_array_equal(x.grad, np.zeros_like(x.data))

    def test_train_mode_moments_recomputed(self):
        rng = Pcg32(9, 0)
        x = rng.uniform_array((2, 3, 4, 4), -2, 2).astype(np.float32)
        xhat, _, _ = ad.normalize(Variable(x))
        # independent moment computation over the normalized output
        mean = xhat.data.mean(axis=(0, 2, 3))
        var = xhat.data.var(axis=(0, 2, 3))
        npt.assert_allclose(mean, np.zeros(3), atol=1e-6)
        npt.assert_allclose(var, np.ones(3), atol=1e-4)

    def test_single_value_per_channel_rejected_in_train_mode(self):
        x = Variable(np.zeros((1, 3, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="at least 2"):
            ad.normalize(x)
        bn = BatchNorm2d(ParameterStore(), "bn", 3, np.float32)
        with pytest.raises(ValueError, match="at least 2"):
            bn(x, train=True, update_stats=True)

    def test_eval_mode_uses_running_stats(self):
        x = np.full((1, 1, 2, 2), 3.0, dtype=np.float32)
        rm = np.array([1.0], dtype=np.float32)
        rv = np.array([4.0], dtype=np.float32)
        out = ad.batch_norm([Variable(x)], Variable(np.ones(1, np.float32)),
                            Variable(np.zeros(1, np.float32)), rm, rv)
        npt.assert_allclose(out.data, np.full_like(x, (3.0 - 1.0) / np.sqrt(4.0 + 1e-5)), rtol=1e-5)

    def test_running_stats_update(self):
        rng = Pcg32(10, 0)
        x = rng.uniform_array((2, 1, 3, 3), -1, 1).astype(np.float32)
        bn = BatchNorm2d(ParameterStore(), "bn", 1, np.float32)
        bn(Variable(x), train=True, update_stats=True)
        m = x.size
        bm = x.mean()
        bv = x.var() * m / (m - 1)
        npt.assert_allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * bm, rtol=1e-5)
        npt.assert_allclose(bn.running_var, 0.9 * 1.0 + 0.1 * bv, rtol=1e-5)

    def test_eval_mode_is_one_node_whose_every_edge_raises(self):
        rng = Pcg32(11, 0)
        x1, x2 = (Variable(rng.uniform_array((2, c, 4, 4), -1, 1).astype(np.float32),
                           requires_grad=True) for c in (3, 2))
        gamma = Variable(np.ones(5, np.float32), requires_grad=True)
        beta = Variable(np.zeros(5, np.float32), requires_grad=True)
        for relu in (True, False):
            out = ad.batch_norm([x1, x2], gamma, beta, np.zeros(5, np.float32),
                                np.ones(5, np.float32), relu)
            assert [v for v, _ in out._edges] == [x1, x2, gamma, beta]
            for _, vjp in out._edges:
                with pytest.raises(RuntimeError, match="inference-mode batch norm"):
                    vjp(np.ones_like(out.data))
            with pytest.raises(RuntimeError, match="forward-only"):
                backward(ad.sum_axes(out))
            assert all(v._grad is None for v in (x1, x2, gamma, beta))

    @pytest.mark.parametrize("relu", [True, False])
    def test_train_mode_is_normalize_then_affine_with_chunk_gamma_beta_edges(self, relu):
        rng = Pcg32(11, 0)
        x1, x2 = (Variable(rng.uniform_array((2, c, 4, 4), -1, 1).astype(np.float32),
                           requires_grad=True) for c in (3, 2))
        gamma = Variable(np.ones(5, np.float32), requires_grad=True)
        beta = Variable(np.zeros(5, np.float32), requires_grad=True)
        h1, h2 = ad.normalize(x1)[0], ad.normalize(x2)[0]
        assert [v for v, _ in h1._edges] == [x1]
        out = ad.affine_relu([h1, h2], gamma, beta, relu)
        assert [v for v, _ in out._edges] == [h1, h2, gamma, beta]

    def test_affine_relu_edges_take_each_new_gradient(self):
        # the edges share one masked gradient per g handed to them: a second
        # g of other values, even at an equal shape, must not reuse the first
        x = Variable(np.array([-1.0, 2.0, 3.0, -4.0], np.float32).reshape(1, 2, 1, 2),
                     requires_grad=True)
        gamma = Variable(np.array([2.0, 3.0], np.float32), requires_grad=True)
        beta = Variable(np.zeros(2, np.float32), requires_grad=True)
        out = ad.affine_relu([x], gamma, beta)
        mask = np.array([0.0, 1.0, 1.0, 0.0], np.float32).reshape(1, 2, 1, 2)
        for g in (np.ones_like(x.data), np.full_like(x.data, 5.0), np.ones_like(x.data)):
            dx, dgamma, dbeta = (f(g) for _, f in out._edges)
            npt.assert_array_equal(dx, g * mask * gamma.data.reshape(1, 2, 1, 1))
            npt.assert_array_equal(dgamma, (g * mask * x.data).sum(axis=(0, 2, 3)))
            npt.assert_array_equal(dbeta, (g * mask).sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_bit_identical_to_numpy_sequence(self, dtype):
        rng = Pcg32(12, 0)
        x = rng.uniform_array((3, 4, 5, 5), -2, 2).astype(dtype)
        g = rng.uniform_array((4,), 0.5, 1.5).astype(dtype)
        b = rng.uniform_array((4,), -0.5, 0.5).astype(dtype)
        rm = rng.uniform_array((4,), -0.3, 0.3).astype(dtype)
        rv = rng.uniform_array((4,), 0.5, 2.0).astype(dtype)
        gs, bs = g.reshape(1, 4, 1, 1), b.reshape(1, 4, 1, 1)
        eps = 1e-5

        # train: mean, centre, mean of squares, (var + eps) ** -0.5, scale, affine
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=(0, 2, 3), keepdims=True)
        inv = (var + dtype(eps)) ** dtype(-0.5)
        expect_train = (xc * inv) * gs + bs
        m = x.size // 4
        expect_rm = rm * 0.9 + 0.1 * mu.reshape(4)
        expect_rv = rv * 0.9 + 0.1 * (var.reshape(4) * (m / (m - 1.0)))

        # eval: centre and scale by the running buffers, then affine
        scale = (1.0 / np.sqrt(rv + eps)).reshape(1, 4, 1, 1).astype(dtype)
        expect_eval = ((x - rm.reshape(1, 4, 1, 1)) * scale) * gs + bs

        out_eval = ad.batch_norm([Variable(x)], Variable(g), Variable(b), rm, rv)
        npt.assert_array_equal(out_eval.data, expect_eval)
        out_chunks = ad.batch_norm([Variable(x[:, :1]), Variable(x[:, 1:])],
                                   Variable(g), Variable(b), rm, rv, relu=True)
        npt.assert_array_equal(out_chunks.data, expect_eval * (expect_eval > 0))
        bn = BatchNorm2d(ParameterStore(), "bn", 4, dtype)
        bn.gamma.data[...], bn.beta.data[...] = g, b
        bn.running_mean[...], bn.running_var[...] = rm, rv
        out_train = bn(Variable(x), train=True, update_stats=True, relu=False)
        out_relu = bn(Variable(x), train=True, update_stats=False)
        npt.assert_array_equal(out_train.data, expect_train)
        npt.assert_array_equal(out_relu.data, expect_train * (expect_train > 0))
        npt.assert_array_equal(bn.running_mean, expect_rm.astype(dtype))
        npt.assert_array_equal(bn.running_var, expect_rv.astype(dtype))


def reference_relu_batch_norm(x, gamma, beta, rm, rv):
    """relu(batch_norm(x)) over one NCHW array by the running buffers, as
    separate numpy steps."""
    c4 = (1, x.shape[1], 1, 1)
    inv = (1.0 / np.sqrt(rv + 1e-5)).reshape(c4).astype(x.dtype)
    xhat = (x - rm.reshape(c4).astype(x.dtype)) * inv
    pre = xhat * gamma.reshape(c4) + beta.reshape(c4)
    return pre * (pre > 0)


def relu_before_beta(xs, gamma, beta, running_mean, running_var, relu=False):
    """A wrong `batch_norm` for the tests to catch: relu ahead of + beta."""
    zero = Variable(np.zeros_like(beta.data))
    out = ad.batch_norm(xs, gamma, zero, running_mean, running_var, relu)
    out.data += beta.data.reshape(1, -1, 1, 1)
    return out


class TestInferenceBatchNormChunks:
    """`batch_norm` over channel chunks with its relu must give, bit for
    bit, what relu(batch_norm) over their concatenation gives."""

    @staticmethod
    def _matches(batch_norm, dtype):
        """Whether `batch_norm` over 1-, 3- and 2-channel chunks gives the
        numpy reference's output in every bit."""
        rng = Pcg32(14, 0)
        x = rng.uniform_array((3, 6, 5, 7), -2, 2).astype(dtype)
        gamma = rng.uniform_array((6,), 0.5, 1.5).astype(dtype)
        beta = rng.uniform_array((6,), -0.5, 0.5).astype(dtype)
        rm = rng.uniform_array((6,), -0.3, 0.3).astype(dtype)
        rv = rng.uniform_array((6,), 0.5, 2.0).astype(dtype)
        xs = [Variable(x[:, lo:hi]) for lo, hi in ((0, 1), (1, 4), (4, 6))]
        got = batch_norm(xs, Variable(gamma), Variable(beta), rm, rv, relu=True).data
        want = reference_relu_batch_norm(x, gamma, beta, rm, rv)
        return got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_relu_of_batch_norm_over_the_concatenation(self, dtype):
        assert self._matches(ad.batch_norm, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_before_beta_mutant_caught(self, dtype):
        assert not self._matches(relu_before_beta, dtype)

    def test_frozen_forward_keeps_no_closures(self):
        # frozen parameters and an input without gradient: nothing to save
        x = Variable(np.ones((1, 2, 2, 2), np.float32))
        gamma, beta = Variable(np.ones(2, np.float32)), Variable(np.zeros(2, np.float32))
        out = ad.batch_norm([x], gamma, beta, np.zeros(2, np.float32), np.ones(2, np.float32), True)
        assert out._edges == () and not out.requires_grad


def pool_windows(a):
    """The 2x2 pooling windows of NCHW `a` as an (N, C, H//2, W//2, 2, 2)
    strided view, a trailing odd row or column left out."""
    n, c, h, w = a.shape
    s0, s1, s2, s3 = a.strides
    return np.lib.stride_tricks.as_strided(
        a, shape=(n, c, h // 2, w // 2, 2, 2), strides=(s0, s1, 2 * s2, 2 * s3, s2, s3))


def reference_avg_pool(x):
    """The 2x2 window mean over `pool_windows`, and its VJP at g as a
    scatter of g/4 into the same view of zeros."""

    def vjp(g):
        gx = np.zeros_like(x)
        pool_windows(gx)[...] += (g * (1.0 / 4)).astype(x.dtype, copy=False)[..., None, None]
        return gx

    return pool_windows(x).mean(axis=(4, 5)), vjp


def reference_max_pool(x):
    """The 2x2 window max over `pool_windows` by an argmax over each
    window's four elements in row-major order (the first maximum wins
    ties), and its VJP at g as a scatter of g into that element of the same
    view of zeros."""
    win = pool_windows(x)
    flat = win.reshape(*win.shape[:4], 4)
    amax = flat.argmax(axis=-1)

    def vjp(g):
        gx = np.zeros_like(x)
        pool_windows(gx)[...] += (g[..., None] * (np.arange(4) == amax[..., None])).reshape(win.shape)
        return gx

    return np.take_along_axis(flat, amax[..., None], axis=-1)[..., 0], vjp


def left_to_right_avg_pool(x):
    """A wrong `avg_pool2d` for the tests to catch: ((tl + tr) + bl) + br."""
    oh, ow = x.data.shape[2] // 2, x.data.shape[3] // 2
    tl, tr, bl, br = (x.data[:, :, i:2 * oh:2, j:2 * ow:2] for i in (0, 1) for j in (0, 1))
    return Variable((((tl + tr) + bl) + br) / 4)


class TestPoolAndPadBitIdentity:
    # odd and even sides, one pooled row; numpy's window mean adds a pooled
    # map one window wide in another order, so every pooled width here is >= 2
    SHAPES = [(2, 3, 8, 8), (3, 2, 7, 9), (1, 1, 5, 4), (2, 1, 3, 5)]

    @staticmethod
    def _pool_mismatches(pool, dtype, reference=reference_avg_pool, ties=False):
        """(shape, "out" or "dx") for each result of `pool` that differs in
        any bit from `reference`; with `ties`, over values that tie often."""
        rng = Pcg32(15, 0)
        bad = []
        for shape in TestPoolAndPadBitIdentity.SHAPES:
            # a third of each draw fills the float64 mantissa, so that the
            # order of the window's sum shows in its last bits
            x = (rng.uniform_array(shape, -1, 1) / 3).astype(dtype)
            if ties:
                x = np.round(x * 6)  # five values, -2 to 2
            want, want_vjp = reference(x)
            out = pool(Variable(x, requires_grad=True))
            if out.data.tobytes() != want.tobytes() or out.dtype != want.dtype:
                bad.append((shape, "out"))
            g = rng.uniform_array(want.shape, -1, 1).astype(dtype)
            if out._edges and out._edges[0][1](g).tobytes() != want_vjp(g).tobytes():
                bad.append((shape, "dx"))
        return bad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_avg_pool_bit_identical_to_window_mean_and_scatter(self, dtype):
        assert self._pool_mismatches(ad.avg_pool2d, dtype) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ties", [False, True])
    def test_max_pool_bit_identical_to_window_argmax_and_scatter(self, dtype, ties):
        assert self._pool_mismatches(ad.max_pool2d, dtype, reference_max_pool, ties) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_left_to_right_sum_mutant_caught(self, dtype):
        assert (self.SHAPES[0], "out") in self._pool_mismatches(left_to_right_avg_pool, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("ph, pw", [(0, 0), (1, 1), (2, 0), (0, 3)])
    def test_pad_matches_np_pad(self, dtype, ph, pw):
        x = Pcg32(16, 0).uniform_array((2, 3, 4, 5), -1, 1).astype(dtype)
        want = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        got = ad._pad(x, ph, pw)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestSimpleOps:
    def test_softmax_uniform_logits(self):
        out = np.exp(ad._log_softmax(np.zeros((1, 4), dtype=np.float32)))
        npt.assert_allclose(out, np.full((1, 4), 0.25), atol=1e-7)

    def test_softmax_123_against_direct_evaluation(self):
        logits = np.array([[1.0, 2.0, 3.0]], dtype=np.float32)
        out = np.exp(ad._log_softmax(logits))
        direct = np.exp(logits.astype(np.float64))
        direct /= direct.sum()
        npt.assert_allclose(out[0], direct[0], atol=1e-4)
        npt.assert_allclose(out[0], [0.09003, 0.24473, 0.66524], atol=1e-4)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-20, 20))
    def test_softmax_rows_sum_to_one_and_shift_invariant(self, logits, shift):
        x = np.array([logits], dtype=np.float32)
        p = np.exp(ad._log_softmax(x))
        assert abs(p.sum() - 1.0) <= 1e-6
        q = np.exp(ad._log_softmax(x + np.float32(shift)))
        npt.assert_allclose(p, q, atol=1e-6)

    def test_add_identity_and_mismatch(self):
        rng = Pcg32(11, 0)
        x = Variable(rng.uniform_array((2, 3), -1, 1).astype(np.float32))
        zero = Variable(np.zeros((2, 3), dtype=np.float32))
        npt.assert_array_equal(ad.add(x, zero).data, x.data)
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.add(x, Variable(np.zeros((3, 2), dtype=np.float32)))

    def test_concat_channel_arithmetic(self):
        a = Variable(np.zeros((2, 16, 4, 4), dtype=np.float32))
        b = Variable(np.zeros((2, 8, 4, 4), dtype=np.float32))
        assert ad.concat_channels([a, b]).shape == (2, 24, 4, 4)
        with pytest.raises(ValueError, match="incompatible"):
            ad.concat_channels([a, Variable(np.zeros((2, 8, 5, 4), dtype=np.float32))])

    def test_relu_and_linear(self):
        x = Variable(np.array([[-1.0, 0.0, 2.0]], dtype=np.float32))
        npt.assert_array_equal(ad.relu(x).data, [[0.0, 0.0, 2.0]])
        w = Variable(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], dtype=np.float32))
        b = Variable(np.array([0.5, -0.5], dtype=np.float32))
        out = ad.linear(x, w, b)
        npt.assert_allclose(out.data, [[1.5, -0.5]])
        with pytest.raises(ValueError, match="features"):
            ad.linear(Variable(np.zeros((1, 4), dtype=np.float32)), w, b)

    def test_max_pool_tie_routes_to_lowest_flat_index(self):
        x = Variable(np.array([[[[1.0, 1.0], [1.0, 1.0]]]], dtype=np.float32), requires_grad=True)
        out = ad.max_pool2d(x)
        npt.assert_array_equal(out.data, [[[[1.0]]]])
        backward(ad.sum_axes(out))
        npt.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_max_pool_selects_max(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = ad.max_pool2d(Variable(x))
        npt.assert_array_equal(out.data, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_avg_and_global_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        npt.assert_allclose(ad.avg_pool2d(Variable(x)).data,
                            [[[[2.5, 4.5], [10.5, 12.5]]]])
        npt.assert_allclose(ad.global_avg_pool(Variable(x)).data, [[7.5]])

    @pytest.mark.parametrize("pool", [ad.avg_pool2d, ad.max_pool2d])
    def test_pool_drops_trailing_row_and_column(self, pool):
        # stride = kernel: a 5x5 input gives 2x2 windows, and the 5th row and
        # column get no gradient
        x = Variable(np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5), requires_grad=True)
        out = pool(x)
        assert out.shape == (1, 1, 2, 2)
        backward(ad.sum_axes(out))
        npt.assert_array_equal(x.grad[..., 4, :], 0.0)
        npt.assert_array_equal(x.grad[..., :, 4], 0.0)
        assert x.grad.sum() == pytest.approx(4.0)


def _saved_array(node, name):
    """The array called `name` that one of `node`'s VJP closures saved."""
    for _, vjp in node._edges:
        cells = dict(zip(vjp.__code__.co_freevars, vjp.__closure__ or ()))
        if name in cells:
            return cells[name].cell_contents
    raise KeyError(name)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Variable(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        backward(ad.sum_axes(x))
        npt.assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    def test_elementwise_square_gradient(self):
        x = Variable(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
        backward(ad.sum_axes(ad.bmul(x, x)))
        npt.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_second_backward_raises_and_keeps_gradients(self):
        # backward consumes the graph: a second walk from the same root raises
        x = Variable(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        root = ad.sum_axes(ad.bmul(x, x))
        backward(root)
        with pytest.raises(RuntimeError, match="already consumed"):
            backward(root)
        npt.assert_array_equal(x.grad, [2.0, 4.0])

    def test_walk_that_fails_partway_moves_no_gradient(self):
        # two roots share sq; w is newer than sq, so the second walk completes
        # w's gradient before it reaches sq, which the first walk consumed
        x = Variable(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        sq = ad.bmul(x, x)
        w = Variable(np.array([3.0, -1.0], dtype=np.float32), requires_grad=True)
        backward(ad.sum_axes(w))
        first, second = ad.sum_axes(sq), ad.sum_axes(ad.bmul(sq, w))
        backward(first)
        with pytest.raises(RuntimeError, match="already consumed"):
            backward(second)
        npt.assert_array_equal(x.grad, [2.0, 4.0])
        npt.assert_array_equal(w.grad, [1.0, 1.0])
        assert sq._grad is None  # a consumed node never passes for a leaf

    def test_saved_arrays_freed_while_the_root_is_held(self):
        # as in a training step before it drops its logits and loss: the
        # caller still holds the root and every node, yet the walk releases
        # each node's closures and the arrays they saved
        rng = Pcg32(12, 5)
        x = Variable(rng.uniform_array((2, 3, 6, 6), -1, 1).astype(np.float32), requires_grad=True)
        k = Variable(rng.uniform_array((4, 3, 3, 3), -1, 1).astype(np.float32), requires_grad=True)
        b = Variable(np.zeros(4, dtype=np.float32), requires_grad=True)
        out = ad.conv2d(x, k, b, padding=1)
        act = ad.relu(out)
        root = ad.sum_axes(act)
        saved = [weakref.ref(_saved_array(out, "cols")), weakref.ref(_saved_array(act, "mask"))]
        assert all(ref() is not None for ref in saved)
        backward(root)
        assert [ref() is None for ref in saved] == [True, True]
        assert root.data.shape == () and act.data.shape == out.data.shape == (2, 4, 6, 6)

    def test_non_scalar_root_rejected(self):
        x = Variable(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x)

    def test_fanout_accumulates_both_paths(self):
        # y = sum(x*x) + sum(3*x): dy/dx = 2x + 3, also checked against FD
        x = Variable(np.array([0.5, -1.5, 2.0], dtype=np.float32), requires_grad=True)
        threes = ad.constant(np.full(3, 3.0, dtype=np.float32))

        def f():
            return ad.add(ad.sum_axes(ad.bmul(x, x)), ad.sum_axes(ad.bmul(x, threes)))

        backward(f())
        npt.assert_allclose(x.grad, 2 * x.data + 3, rtol=1e-6)
        assert grad_check(f, [x], h=1e-3) < 1e-2

    def test_each_node_runs_once_after_all_its_readers(self):
        # x and a each have readers made at different depths; an early or
        # repeated run of a node would still sum to the right gradient, so the
        # order of the VJP calls is what shows the walk
        x = Variable(np.array([0.5, -1.5], dtype=np.float32), requires_grad=True)
        a = ad.relu(x)
        b = ad.add(a, x)
        c = ad.add(b, a)
        d = ad.add(c, x)
        root = ad.sum_axes(d)
        calls = []
        for name, node in (("a", a), ("b", b), ("c", c), ("d", d), ("root", root)):
            node._edges = tuple((v, lambda g, f=f, name=name: calls.append(name) or f(g))
                                for v, f in node._edges)
        backward(root)
        assert calls == ["root", "d", "d", "c", "c", "b", "b", "a"]
        npt.assert_array_equal(x.grad, [4.0, 2.0])  # d = 2 relu(x) + 2x

    def test_intermediate_nodes_hold_no_gradient(self):
        x = Variable(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        sq = ad.bmul(x, x)
        root = ad.sum_axes(sq)
        backward(root)
        assert sq._grad is None and root._grad is None
        npt.assert_allclose(x.grad, [2.0, -4.0])

    def test_bmul_rejects_mismatched_shapes(self):
        a = Variable(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.bmul(a, Variable(np.ones((1, 3), dtype=np.float32)))

    def test_unreachable_variable_untouched(self):
        x = Variable(np.ones(2, dtype=np.float32), requires_grad=True)
        other = Variable(np.ones(2, dtype=np.float32), requires_grad=True)
        backward(ad.sum_axes(x))
        npt.assert_array_equal(other.grad, np.zeros(2, dtype=np.float32))

    def test_no_grad_inputs_never_accumulate(self):
        x = Variable(np.ones(3, dtype=np.float32), requires_grad=False)
        y = ad.sum_axes(ad.bmul(x, x))
        assert not y.requires_grad
        backward_ok = True
        try:
            backward(y)
        except ValueError:
            backward_ok = False
        assert backward_ok  # no-grad root is a no-op, not an error
        npt.assert_array_equal(x.grad, np.zeros(3, dtype=np.float32))


class TestGradCheck:
    def test_linear_function_exact(self):
        x = Variable(np.array([1.0, 2.0, 3.0], dtype=np.float64), requires_grad=True)
        err = grad_check(lambda: ad.sum_axes(x), [x], h=1e-4)
        assert err < 1e-9

    def test_relu_away_from_kink(self):
        x = Variable(np.array([-0.8, -0.3, 0.4, 1.2], dtype=np.float32), requires_grad=True)
        err = grad_check(lambda: ad.sum_axes(ad.relu(x)), [x], h=1e-3)
        assert err < 1e-3

    def test_dtype_preserved_through_graph(self):
        x64 = Variable(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        assert ad.relu(x64).dtype == np.float64
        x32 = Variable(np.ones((2, 2, 2, 2), dtype=np.float32), requires_grad=True)
        assert ad.global_avg_pool(x32).dtype == np.float32

    @pytest.mark.parametrize("check", [grad_check, grad_check_directional])
    @pytest.mark.parametrize("fails_on", [1, 2])
    def test_raising_fn_leaves_data_and_gradient_as_they_were(self, check, fails_on):
        # call 1 builds the analytic gradient, call 2 is the first probe at +h
        x = Variable(np.ones(2), requires_grad=True)
        x._grad = np.ones(2)
        calls = []

        def fn():
            calls.append(None)
            if len(calls) == fails_on:
                raise RuntimeError("fn failed")
            return ad.sum_axes(ad.bmul(x, x))

        with pytest.raises(RuntimeError, match="fn failed"):
            check(fn, [x])
        npt.assert_array_equal(x.data, [1.0, 1.0])
        npt.assert_array_equal(x.grad, [1.0, 1.0])


# the public functions of `autodiff` that no `check_ops` probe covers, and why
UNPROBED = {
    # the engine: graph building, the backward walk and the checks themselves
    "constant", "no_grad", "backward", "grad_check", "grad_check_directional",
    # every probe's projection sum(out * p), so every probe runs through them
    "bmul", "sum_axes",
    # folds batch statistics into the running buffers in place: no node
    "fold_running",
    # inference-mode batch norm is forward-only: a backward through it raises
    "batch_norm",
}


def unprobed_ops(probe_names):
    """The public functions of `autodiff`, neither in `UNPROBED` nor among
    `probe_names`."""
    public = {name for name, f in vars(ad).items()
              if inspect.isfunction(f) and f.__module__ == ad.__name__ and not name.startswith("_")}
    return sorted(public - UNPROBED - set(probe_names))


class TestEveryOpIsProbed:
    """Every differentiable op is gated by a finite-difference probe."""

    @pytest.fixture(scope="class")
    def probe_names(self):
        return list(check_ops())

    def test_every_public_op_has_a_probe_or_a_listed_reason(self, probe_names):
        assert unprobed_ops(probe_names) == []

    def test_every_listed_name_is_a_public_function_without_a_probe(self, probe_names):
        for name in UNPROBED:
            assert inspect.isfunction(getattr(ad, name, None)) and name not in probe_names

    def test_dropping_any_op_probe_is_caught(self, probe_names):
        named = [name for name in probe_names if inspect.isfunction(getattr(ad, name, None))]
        assert len(named) >= 10
        for name in named:
            assert unprobed_ops([n for n in probe_names if n != name]) == [name]
