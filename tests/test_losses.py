import math

import numpy as np
import numpy.testing as npt
import pytest

from xraynet import autodiff as ad
from xraynet.autodiff import Variable, backward, grad_check
from xraynet.dataset import one_hot
from xraynet.losses import FocalParams, cross_entropy, focal_loss
from xraynet.rng import Pcg32


def logits_for_pt(pt: float) -> np.ndarray:
    """Binary logits whose softmax assigns pt to class 0."""
    return np.array([[math.log(pt), math.log(1.0 - pt)]], dtype=np.float32)


def reference_ce(logits, targets, weights=None):
    """Straight float64 evaluation of the weighted cross-entropy."""
    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    w = np.ones(z.shape[1]) if weights is None else np.asarray(weights, dtype=np.float64)
    return float(-(targets * w * logp).sum(axis=1).mean())


def numpy_log_softmax(z):
    s = z - z.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


LOSSES = {
    "ce": lambda z, t: cross_entropy(z, t),
    "ce_weighted": lambda z, t: cross_entropy(z, t, class_weights=[0.5, 2.0, 1.0, 4.0]),
    "focal": lambda z, t: focal_loss(z, t, FocalParams(alpha=[0.1, 0.2, 0.3, 0.4], gamma=2.0)),
    "focal_gamma_half": lambda z, t: focal_loss(z, t, FocalParams(alpha=0.25, gamma=0.5)),
}


class TestOneNode:
    @pytest.mark.parametrize("name", sorted(LOSSES))
    def test_single_node_with_single_logits_edge(self, name, monkeypatch):
        made = []
        op = ad._op

        def counting_op(data, edges):
            made.append(op(data, edges))
            return made[-1]

        monkeypatch.setattr(ad, "_op", counting_op)
        logits = Variable(Pcg32(6, 0).uniform_array((3, 4), -2, 2).astype(np.float32),
                          requires_grad=True)
        loss = LOSSES[name](logits, one_hot(np.array([0, 3, 1]), 4))
        assert made == [loss]
        assert len(loss._edges) == 1 and loss._edges[0][0] is logits

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_bit_identical_to_numpy_sequence(self, dtype):
        # the op-by-op sequence the losses have always evaluated
        rng = Pcg32(7, 0)
        z = (rng.uniform_array((6, 4), -6, 6)).astype(dtype)
        t = one_hot(np.array([0, 1, 2, 3, 1, 0]), 4).astype(np.float64)
        w = np.array([0.5, 2.0, 1.0, 4.0])
        lsm = numpy_log_softmax(z)
        for mask, weights in ((t, None), (t * w, w)):
            want = -(lsm * mask.astype(dtype)).sum(axis=1).mean()
            got = cross_entropy(Variable(z), t, class_weights=weights).data
            assert got.dtype == dtype and got.tobytes() == np.asarray(want).tobytes()
        for alpha, gamma in ((0.25, 2.0), (1.0, 0.0), (0.25, 0.5)):
            log_pt = (lsm * t.astype(dtype)).sum(axis=1)
            focus = (np.ones(6, dtype=dtype) - np.exp(log_pt)) ** dtype(gamma)
            want = -(np.full(6, alpha, dtype=dtype) * focus * log_pt).mean()
            got = focal_loss(Variable(z), t, FocalParams(alpha=alpha, gamma=gamma)).data
            assert got.dtype == dtype and got.tobytes() == np.asarray(want).tobytes()


class TestCrossEntropy:
    def test_perfect_prediction_loss_vanishes(self):
        logits = Variable(np.array([[30.0, 0.0, 0.0, 0.0]], dtype=np.float32))
        t = one_hot(np.array([0]), 4)
        assert cross_entropy(logits, t).item() < 1e-6

    def test_uniform_prediction_is_ln4(self):
        logits = Variable(np.zeros((3, 4), dtype=np.float32))
        t = one_hot(np.array([0, 2, 3]), 4)
        assert abs(cross_entropy(logits, t).item() - math.log(4.0)) < 1e-5

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_uniform_predictor_equals_lnC(self, c):
        logits = Variable(np.full((2, c), 1.7, dtype=np.float32))
        t = one_hot(np.array([0, c - 1]), c)
        assert abs(cross_entropy(logits, t).item() - math.log(c)) < 1e-5

    def test_unit_weights_identical_to_unweighted(self):
        rng = Pcg32(1, 0)
        logits_data = rng.uniform_array((4, 3), -2, 2).astype(np.float32)
        t = one_hot(np.array([0, 1, 2, 1]), 3)
        a = Variable(logits_data.copy(), requires_grad=True)
        b = Variable(logits_data.copy(), requires_grad=True)
        la = cross_entropy(a, t)
        lb = cross_entropy(b, t, class_weights=np.ones(3))
        assert abs(la.item() - lb.item()) <= 1e-7
        backward(la)
        backward(lb)
        npt.assert_allclose(a.grad, b.grad, atol=1e-7)

    def test_weighted_value_matches_reference(self):
        rng = Pcg32(2, 0)
        logits_data = rng.uniform_array((5, 4), -2, 2).astype(np.float32)
        t = one_hot(np.array([0, 1, 2, 3, 1]), 4)
        w = np.array([0.5, 2.0, 1.0, 4.0])
        got = cross_entropy(Variable(logits_data), t, class_weights=w).item()
        assert abs(got - reference_ce(logits_data, t, w)) < 1e-6

    def test_soft_targets_accepted(self):
        logits = Variable(np.zeros((1, 3), dtype=np.float32))
        soft = np.array([[0.2, 0.5, 0.3]], dtype=np.float64)
        assert abs(cross_entropy(logits, soft).item() - math.log(3.0)) < 1e-5

    def test_off_simplex_target_rejected(self):
        logits = Variable(np.zeros((1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="sums to"):
            cross_entropy(logits, np.array([[0.5, 0.2, 0.2]]))
        with pytest.raises(ValueError, match="non-negative"):
            cross_entropy(logits, np.array([[1.5, -0.3, -0.2]]))

    def test_gradient_matches_fd(self):
        rng = Pcg32(3, 0)
        logits = Variable(rng.uniform_array((3, 4), -1, 1).astype(np.float32), requires_grad=True)
        t = one_hot(np.array([1, 0, 3]), 4)
        assert grad_check(lambda: cross_entropy(logits, t), [logits], h=1e-3) < 1e-2


class TestFocalLoss:
    def test_gamma0_alpha1_reduces_to_cross_entropy(self):
        rng = Pcg32(4, 0)
        for _ in range(20):
            logits_data = rng.uniform_array((2, 4), -4, 4).astype(np.float32)
            labels = np.array([rng.randint_below(4), rng.randint_below(4)])
            t = one_hot(labels, 4)
            a = Variable(logits_data.copy(), requires_grad=True)
            b = Variable(logits_data.copy(), requires_grad=True)
            ce = cross_entropy(a, t)
            fl = focal_loss(b, t, FocalParams(alpha=1.0, gamma=0.0))
            assert abs(ce.item() - fl.item()) <= 1e-6
            backward(ce)
            backward(fl)
            npt.assert_allclose(a.grad, b.grad, atol=1e-5)

    def test_point_value_at_pt_09(self):
        # 0.25 * (1 - 0.9)^2 * (-ln 0.9), computed directly: 2.6340129e-4
        loss = focal_loss(Variable(logits_for_pt(0.9)), one_hot(np.array([0]), 2),
                          FocalParams(alpha=0.25, gamma=2.0))
        assert abs(loss.item() - 2.634012891445658e-4) <= 1e-7

    def test_perfectly_classified_sample_vanishes(self):
        logits = Variable(np.array([[40.0, 0.0]], dtype=np.float32), requires_grad=True)
        loss = focal_loss(logits, one_hot(np.array([0]), 2), FocalParams(alpha=0.25, gamma=2.0))
        assert loss.item() <= 1e-12
        backward(loss)
        npt.assert_allclose(logits.grad, 0.0, atol=1e-8)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_certain_sample_has_finite_zero_gradient(self, gamma):
        # p_t rounds to exactly 1: the (1 - p_t)^(gamma - 1) term must not blow up
        logits = Variable(np.array([[40.0, 0.0]], dtype=np.float32), requires_grad=True)
        backward(focal_loss(logits, one_hot(np.array([0]), 2), FocalParams(gamma=gamma)))
        assert np.all(np.isfinite(logits.grad))
        npt.assert_array_equal(logits.grad, 0.0)

    def test_non_one_hot_target_rejected(self):
        logits = Variable(np.zeros((1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="one-hot"):
            focal_loss(logits, np.array([[0.5, 0.5, 0.0]]))

    def test_monotone_non_increasing_in_pt(self):
        grid = np.linspace(0.02, 0.98, 49)
        vals = [focal_loss(Variable(logits_for_pt(p)), one_hot(np.array([0]), 2),
                           FocalParams(alpha=0.25, gamma=2.0)).item() for p in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
    def test_focal_below_ce_for_positive_gamma(self, gamma):
        for p in np.linspace(0.05, 0.95, 19):
            logits = logits_for_pt(p)
            t = one_hot(np.array([0]), 2)
            fl = focal_loss(Variable(logits), t, FocalParams(alpha=1.0, gamma=gamma)).item()
            ce = cross_entropy(Variable(logits), t).item()
            assert fl < ce

    def test_per_class_alpha_scales_by_true_class(self):
        logits_data = np.array([[0.3, -0.2, 0.5]], dtype=np.float32)
        t = one_hot(np.array([2]), 3)
        scalar = focal_loss(Variable(logits_data), t, FocalParams(alpha=0.8, gamma=2.0)).item()
        vector = focal_loss(Variable(logits_data), t,
                            FocalParams(alpha=[0.1, 0.2, 0.8], gamma=2.0)).item()
        assert abs(scalar - vector) < 1e-9

    def test_param_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            FocalParams(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            FocalParams(alpha=1.5)
        with pytest.raises(ValueError, match="gamma"):
            FocalParams(gamma=-0.1)
        FocalParams(alpha=1.0, gamma=0.0)  # the CE-reduction case must construct

    @pytest.mark.parametrize("kwargs,name", [
        ({"gamma": float("nan")}, "gamma"),
        ({"gamma": float("inf")}, "gamma"),
        ({"alpha": float("nan")}, "alpha"),
        ({"alpha": [0.2, float("nan"), 0.3]}, "alpha"),
    ])
    def test_non_finite_params_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            FocalParams(**kwargs)

    def test_gradient_matches_fd(self):
        rng = Pcg32(5, 0)
        logits = Variable(rng.uniform_array((3, 4), -1, 1).astype(np.float32), requires_grad=True)
        t = one_hot(np.array([2, 0, 1]), 4)
        err = grad_check(lambda: focal_loss(logits, t, FocalParams()), [logits], h=1e-3)
        assert err < 1e-2
