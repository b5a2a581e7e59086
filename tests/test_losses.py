import math

import numpy as np
import numpy.testing as npt
import pytest

from xraynet import autodiff as ad
from xraynet.autodiff import Variable, backward
from xraynet.dataset import one_hot
from xraynet.losses import FOCAL_ALPHA, cross_entropy, focal_loss
from xraynet.rng import Pcg32
from xraynet.verification import grad_check


def logits_for_pt(pt: float) -> np.ndarray:
    """Binary logits whose softmax assigns pt to class 0."""
    return np.array([[math.log(pt), math.log(1.0 - pt)]], dtype=np.float32)


def numpy_log_softmax(z):
    s = z - z.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


LOSSES = {
    "ce": lambda z, t: cross_entropy(z, t),
    "focal": lambda z, t: focal_loss(z, t, gamma=2.0),
    "focal_gamma_half": lambda z, t: focal_loss(z, t, gamma=0.5),
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
        lsm = numpy_log_softmax(z)
        want = -(lsm * t.astype(dtype)).sum(axis=1).mean()
        got = cross_entropy(Variable(z), t).data
        assert got.dtype == dtype and got.tobytes() == np.asarray(want).tobytes()
        # the gradient the class-weighted form (p * sum_c m_c - m) / n gave at unit weights
        zv = Variable(z, requires_grad=True)
        backward(cross_entropy(zv, t))
        m = t.astype(dtype)
        assert zv.grad.tobytes() == ((np.exp(lsm) * m.sum(axis=1, keepdims=True) - m) / 6).tobytes()
        for gamma in (2.0, 0.0, 0.5):
            log_pt = (lsm * t.astype(dtype)).sum(axis=1)
            focus = (np.ones(6, dtype=dtype) - np.exp(log_pt)) ** dtype(gamma)
            want = -(np.full(6, 0.25, dtype=dtype) * focus * log_pt).mean()
            got = focal_loss(Variable(z), t, gamma=gamma).data
            assert got.dtype == dtype and got.tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("loss", [cross_entropy, focal_loss])
@pytest.mark.parametrize("targets", [
    [[0.5, 0.5, 0.0]],    # soft row on the simplex
    [[0.2, 0.5, 0.3]],
    [[1.0, 1.0, 0.0]],    # two classes
    [[0.0, 0.0, 0.0]],    # no class
    [[1.5, -0.5, 0.0]],   # sums to 1, off the simplex
])
def test_non_one_hot_target_rejected(loss, targets):
    logits = Variable(np.zeros((1, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="one-hot"):
        loss(logits, np.array(targets))


@pytest.mark.parametrize("loss", [cross_entropy, focal_loss])
@pytest.mark.parametrize("logits,targets,match", [
    (np.zeros((2, 3)), np.eye(3)[:1], "does not match logits"),
    (np.zeros((2, 1)), np.ones((2, 1)), "C >= 2"),
    (np.zeros(3), np.eye(3)[0], "C >= 2"),
    (np.array([[0.0, np.inf, 0.0]]), np.eye(3)[:1], "non-finite"),
    (np.array([[np.nan, 0.0, 0.0]]), np.eye(3)[:1], "non-finite"),
], ids=["one_target_row_for_two", "one_class", "not_2d", "inf_logit", "nan_logit"])
def test_malformed_logits_or_targets_rejected(loss, logits, targets, match):
    with pytest.raises(ValueError, match=match):
        loss(Variable(logits.astype(np.float32)), targets)


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

    def test_gradient_matches_fd(self):
        rng = Pcg32(3, 0)
        logits = Variable(rng.uniform_array((3, 4), -1, 1).astype(np.float32), requires_grad=True)
        t = one_hot(np.array([1, 0, 3]), 4)
        assert grad_check(lambda: cross_entropy(logits, t), [logits]) < 1e-2


class TestFocalLoss:
    def test_gamma0_over_alpha_reduces_to_cross_entropy(self):
        rng = Pcg32(4, 0)
        for _ in range(20):
            logits_data = rng.uniform_array((2, 4), -4, 4).astype(np.float32)
            labels = np.array([rng.randint_below(4), rng.randint_below(4)])
            t = one_hot(labels, 4)
            a = Variable(logits_data.copy(), requires_grad=True)
            b = Variable(logits_data.copy(), requires_grad=True)
            ce = cross_entropy(a, t)
            fl = focal_loss(b, t, gamma=0.0)
            assert abs(ce.item() - fl.item() / FOCAL_ALPHA) <= 1e-6
            backward(ce)
            backward(fl)
            npt.assert_allclose(a.grad, b.grad / FOCAL_ALPHA, atol=1e-5)

    def test_point_value_at_pt_09(self):
        # 0.25 * (1 - 0.9)^2 * (-ln 0.9), computed directly: 2.6340129e-4
        loss = focal_loss(Variable(logits_for_pt(0.9)), one_hot(np.array([0]), 2), gamma=2.0)
        assert abs(loss.item() - 2.634012891445658e-4) <= 1e-7

    def test_perfectly_classified_sample_vanishes(self):
        logits = Variable(np.array([[40.0, 0.0]], dtype=np.float32), requires_grad=True)
        loss = focal_loss(logits, one_hot(np.array([0]), 2), gamma=2.0)
        assert loss.item() <= 1e-12
        backward(loss)
        npt.assert_allclose(logits.grad, 0.0, atol=1e-8)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_certain_sample_has_finite_zero_gradient(self, gamma):
        # p_t rounds to exactly 1: the (1 - p_t)^(gamma - 1) term must not blow up
        logits = Variable(np.array([[40.0, 0.0]], dtype=np.float32), requires_grad=True)
        backward(focal_loss(logits, one_hot(np.array([0]), 2), gamma=gamma))
        assert np.all(np.isfinite(logits.grad))
        npt.assert_array_equal(logits.grad, 0.0)

    def test_monotone_non_increasing_in_pt(self):
        grid = np.linspace(0.02, 0.98, 49)
        vals = [focal_loss(Variable(logits_for_pt(p)), one_hot(np.array([0]), 2),
                           gamma=2.0).item() for p in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 5.0])
    def test_focal_below_ce_for_positive_gamma(self, gamma):
        for p in np.linspace(0.05, 0.95, 19):
            logits = logits_for_pt(p)
            t = one_hot(np.array([0]), 2)
            fl = focal_loss(Variable(logits), t, gamma=gamma).item()
            ce = cross_entropy(Variable(logits), t).item()
            assert fl / FOCAL_ALPHA < ce

    def test_gradient_matches_fd(self):
        rng = Pcg32(5, 0)
        logits = Variable(rng.uniform_array((3, 4), -1, 1).astype(np.float32), requires_grad=True)
        t = one_hot(np.array([2, 0, 1]), 4)
        err = grad_check(lambda: focal_loss(logits, t), [logits])
        assert err < 1e-2
