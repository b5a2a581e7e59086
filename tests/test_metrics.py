import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xraynet.metrics import (accuracy, confusion, epoch_average_accuracy,
                             per_class_from_confusion, predictions)
from xraynet.rng import Pcg32


def logits_for_preds(preds, num_classes):
    out = np.zeros((len(preds), num_classes), dtype=np.float32)
    for i, p in enumerate(preds):
        out[i, p] = 1.0
    return out


def test_worked_example():
    # predictions A,A,B,C vs labels A,B,B,C
    logits = logits_for_preds([0, 0, 1, 2], 3)
    labels = np.array([0, 1, 1, 2])
    assert accuracy(logits, labels) == 0.75
    npt.assert_allclose(per_class_from_confusion(confusion(logits, labels, 3)), [1.0, 0.5, 1.0])


def test_all_correct_diagonal_confusion():
    logits = logits_for_preds([0, 1, 2, 3], 4)
    labels = np.arange(4)
    assert accuracy(logits, labels) == 1.0
    npt.assert_array_equal(confusion(logits, labels, 4), np.eye(4, dtype=np.int64))


def test_against_counting_oracle_200_samples():
    rng = Pcg32(7, 0)
    n, c = 200, 4
    logits = rng.uniform_array((n, c), -1, 1)
    labels = np.array([rng.randint_below(c) for _ in range(n)])

    # independent counting pass
    correct = 0
    table = [[0] * c for _ in range(c)]
    for i in range(n):
        best, best_v = 0, logits[i][0]
        for j in range(1, c):
            if logits[i][j] > best_v:
                best, best_v = j, logits[i][j]
        table[labels[i]][best] += 1
        if best == labels[i]:
            correct += 1

    assert accuracy(logits, labels) == correct / n
    npt.assert_array_equal(confusion(logits, labels, c), np.array(table))
    mat = np.array(table)
    expected_pc = mat.diagonal() / mat.sum(axis=1)
    npt.assert_allclose(per_class_from_confusion(confusion(logits, labels, c)), expected_pc)


def test_argmax_ties_go_to_lowest_index():
    logits = np.array([[1.0, 1.0, 0.5], [0.2, 0.7, 0.7]], dtype=np.float32)
    npt.assert_array_equal(predictions(logits), [0, 1])


def test_empty_class_undefined():
    logits = logits_for_preds([0, 0, 1], 3)
    labels = np.array([0, 1, 1])  # class 2 has no samples
    pc = per_class_from_confusion(confusion(logits, labels, 3))
    npt.assert_allclose(pc[:2], [1.0, 0.5])
    assert np.isnan(pc[2])


def test_confusion_total_equals_sample_count():
    rng = Pcg32(8, 0)
    logits = rng.uniform_array((37, 4), -1, 1)
    labels = np.array([rng.randint_below(4) for _ in range(37)])
    assert confusion(logits, labels, 4).sum() == 37


def test_accuracy_requires_samples():
    with pytest.raises(ValueError):
        accuracy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(-50.0, 50.0))
def test_accuracy_invariant_under_increasing_affine_transform(a, b):
    rng = Pcg32(9, 0)
    logits = rng.uniform_array((20, 4), -1, 1)
    labels = np.array([rng.randint_below(4) for _ in range(20)])
    base = accuracy(logits, labels)
    assert accuracy(a * logits + b, labels) == base
    assert accuracy(np.exp(logits), labels) == base  # strictly increasing, non-affine


class TestEpochAverage:
    def test_simple_mean(self):
        assert epoch_average_accuracy([0.5, 0.7, 0.9]) == pytest.approx(0.7)

    def test_single_epoch_identity(self):
        assert epoch_average_accuracy([0.42]) == pytest.approx(0.42)

    def test_twenty_epochs_against_independent_recomputation(self):
        rng = Pcg32(10, 0)
        accs = [rng.uniform() for _ in range(20)]
        total = 0.0
        for a in accs:  # spreadsheet-style running sum
            total += a
        assert epoch_average_accuracy(accs) == pytest.approx(total / 20)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            epoch_average_accuracy([])
