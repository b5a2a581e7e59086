import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xraynet import autodiff as ad
from xraynet.autodiff import Variable, backward, grad_check
from xraynet.rng import Pcg32


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
    def test_already_normalized_input_passthrough(self):
        rng = Pcg32(7, 0)
        x = rng.uniform_array((4, 2, 4, 4), -1, 1)
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True))
        x = (x / np.sqrt((x ** 2).mean(axis=(0, 2, 3), keepdims=True))).astype(np.float32)
        gamma = Variable(np.ones(2, dtype=np.float32))
        beta = Variable(np.zeros(2, dtype=np.float32))
        out = ad.batch_norm(Variable(x), gamma, beta, np.zeros(2, np.float32),
                            np.ones(2, np.float32), train=True, update_running=False)
        npt.assert_allclose(out.data, x, atol=1e-4)

    def test_zero_gamma_yields_beta_and_kills_input_gradient(self):
        rng = Pcg32(8, 0)
        x = Variable(rng.uniform_array((2, 3, 4, 4), -1, 1).astype(np.float32), requires_grad=True)
        gamma = Variable(np.zeros(3, dtype=np.float32), requires_grad=True)
        beta = Variable(np.array([0.5, -1.0, 2.0], dtype=np.float32), requires_grad=True)
        out = ad.batch_norm(x, gamma, beta, np.zeros(3, np.float32), np.ones(3, np.float32),
                            train=True, update_running=False)
        expect = np.broadcast_to(beta.data.reshape(1, 3, 1, 1), out.shape)
        npt.assert_allclose(out.data, expect, atol=1e-7)
        backward(ad.sum_axes(out))
        npt.assert_array_equal(x.grad, np.zeros_like(x.data))

    def test_train_mode_moments_recomputed(self):
        rng = Pcg32(9, 0)
        x = rng.uniform_array((2, 3, 4, 4), -2, 2).astype(np.float32)
        out = ad.batch_norm(Variable(x), Variable(np.ones(3, np.float32)),
                            Variable(np.zeros(3, np.float32)), np.zeros(3, np.float32),
                            np.ones(3, np.float32), train=True, update_running=False)
        # independent moment computation over the normalized output
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        npt.assert_allclose(mean, np.zeros(3), atol=1e-6)
        npt.assert_allclose(var, np.ones(3), atol=1e-4)

    def test_single_value_per_channel_rejected_in_train_mode(self):
        x = Variable(np.zeros((1, 3, 1, 1), dtype=np.float32))
        with pytest.raises(ValueError, match="at least 2"):
            ad.batch_norm(x, Variable(np.ones(3, np.float32)), Variable(np.zeros(3, np.float32)),
                          np.zeros(3, np.float32), np.ones(3, np.float32), train=True)

    def test_eval_mode_uses_running_stats(self):
        x = np.full((1, 1, 2, 2), 3.0, dtype=np.float32)
        rm = np.array([1.0], dtype=np.float32)
        rv = np.array([4.0], dtype=np.float32)
        out = ad.batch_norm(Variable(x), Variable(np.ones(1, np.float32)),
                            Variable(np.zeros(1, np.float32)), rm, rv, train=False)
        npt.assert_allclose(out.data, np.full_like(x, (3.0 - 1.0) / np.sqrt(4.0 + 1e-5)), rtol=1e-5)

    def test_running_stats_update(self):
        rng = Pcg32(10, 0)
        x = rng.uniform_array((2, 1, 3, 3), -1, 1).astype(np.float32)
        rm = np.zeros(1, dtype=np.float32)
        rv = np.ones(1, dtype=np.float32)
        ad.batch_norm(Variable(x), Variable(np.ones(1, np.float32)),
                      Variable(np.zeros(1, np.float32)), rm, rv, train=True, update_running=True)
        m = x.size
        bm = x.mean()
        bv = x.var() * m / (m - 1)
        npt.assert_allclose(rm, 0.9 * 0.0 + 0.1 * bm, rtol=1e-5)
        npt.assert_allclose(rv, 0.9 * 1.0 + 0.1 * bv, rtol=1e-5)

    @pytest.mark.parametrize("train", [True, False])
    def test_one_node_with_x_gamma_beta_edges(self, train):
        rng = Pcg32(11, 0)
        x = Variable(rng.uniform_array((2, 3, 4, 4), -1, 1).astype(np.float32), requires_grad=True)
        gamma = Variable(np.ones(3, np.float32), requires_grad=True)
        beta = Variable(np.zeros(3, np.float32), requires_grad=True)
        out = ad.batch_norm(x, gamma, beta, np.zeros(3, np.float32), np.ones(3, np.float32),
                            train=train, update_running=False)
        assert [v for v, _ in out._edges] == [x, gamma, beta]

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

        out_eval = ad.batch_norm(Variable(x), Variable(g), Variable(b), rm, rv, train=False)
        run_m, run_v = rm.copy(), rv.copy()
        out_train = ad.batch_norm(Variable(x), Variable(g), Variable(b), run_m, run_v, train=True)
        npt.assert_array_equal(out_eval.data, expect_eval)
        npt.assert_array_equal(out_train.data, expect_train)
        npt.assert_array_equal(run_m, expect_rm.astype(dtype))
        npt.assert_array_equal(run_v, expect_rv.astype(dtype))


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
        out = ad.max_pool2d(x, 2)
        npt.assert_array_equal(out.data, [[[[1.0]]]])
        backward(ad.sum_axes(out))
        npt.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_max_pool_selects_max(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = ad.max_pool2d(Variable(x), 2)
        npt.assert_array_equal(out.data, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_avg_and_global_pool(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        npt.assert_allclose(ad.avg_pool2d(Variable(x), 2).data,
                            [[[[2.5, 4.5], [10.5, 12.5]]]])
        npt.assert_allclose(ad.global_avg_pool(Variable(x)).data, [[7.5]])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Variable(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        backward(ad.sum_axes(x))
        npt.assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    def test_elementwise_square_gradient(self):
        x = Variable(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
        backward(ad.sum_axes(ad.bmul(x, x)))
        npt.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_double_backward_doubles_gradients(self):
        x = Variable(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        root = ad.sum_axes(ad.bmul(x, x))
        backward(root)
        backward(root)
        npt.assert_allclose(x.grad, [4.0, 8.0])

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
