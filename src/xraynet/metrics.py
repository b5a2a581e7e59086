"""Evaluation metrics: accuracy, per-class accuracy, confusion counts.

Predictions are argmax over the class axis with ties resolved toward the
lowest index, which makes every metric invariant under any strictly
increasing transform applied uniformly to the logits.
"""

from __future__ import annotations

import numpy as np


def predictions(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, C), got shape {logits.shape}")
    return logits.argmax(axis=1)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    labels = np.asarray(labels)
    if labels.shape[0] == 0:
        raise ValueError("accuracy needs at least one sample")
    return float(np.mean(predictions(logits) == labels))


def confusion(logits: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """C x C counts; rows are true classes, columns predicted classes."""
    preds = predictions(logits)
    labels = np.asarray(labels, dtype=np.int64)
    mat = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(mat, (labels, preds), 1)
    return mat


def per_class_accuracy(logits: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    return per_class_from_confusion(confusion(logits, labels, num_classes))


def per_class_from_confusion(mat: np.ndarray) -> np.ndarray:
    """diagonal / row sum; classes with no samples report NaN (undefined)."""
    totals = mat.sum(axis=1)
    out = np.full(mat.shape[0], np.nan)
    present = totals > 0
    out[present] = mat.diagonal()[present] / totals[present]
    return out


def macro_accuracy(per_class: np.ndarray) -> float:
    """Mean over defined (non-NaN) per-class accuracies."""
    vals = per_class[~np.isnan(per_class)]
    if vals.size == 0:
        raise ValueError("no class has samples")
    return float(vals.mean())


def epoch_average_accuracy(per_epoch: "list[float] | np.ndarray") -> float:
    """Arithmetic mean of per-epoch accuracies."""
    arr = np.asarray(per_epoch, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no epochs recorded")
    return float(arr.mean())
