"""Correctness checks the benchmark applies to xraynet's outputs.

Each check compares an output of the program with a value the benchmark
computes on its own (float64 references, the pixels it wrote) or with a
property the method must have, and raises `CheckFailed` on a mismatch.
None of them compares against a stored copy of an earlier run.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _rel_err(got, ref) -> float:
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return float("inf")
    return float(np.max(np.abs(got - ref)) / max(float(np.max(np.abs(ref))), 1e-30))


def _windows(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """(i, j, window) for every kernel offset: window[n, c, oy, ox] = xpad[n, c, oy*s+i, ox*s+j]."""
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1
    for i in range(kh):
        for j in range(kw):
            yield i, j, xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]


def conv_reference(x, kernel, stride: int, padding: int) -> np.ndarray:
    """float64 cross-correlation by direct windowed sums."""
    k = np.asarray(kernel, dtype=np.float64)
    out = None
    for i, j, win in _windows(x, k.shape[2], k.shape[3], stride, padding):
        term = np.einsum("nchw,oc->nohw", win, k[:, :, i, j])
        out = term if out is None else out + term
    return out


def conv_kernel_grad_reference(x, g, kshape, stride: int, padding: int) -> np.ndarray:
    """float64 dL/dkernel = sum over batch and positions of g * input window."""
    g = np.asarray(g, dtype=np.float64)
    dk = np.zeros(kshape, dtype=np.float64)
    for i, j, win in _windows(x, kshape[2], kshape[3], stride, padding):
        dk[:, :, i, j] = np.einsum("nohw,nchw->oc", g, win)
    return dk


def check_conv_forward(name: str, x, kernel, stride, padding, out, tol: float = 1e-5) -> float:
    err = _rel_err(out, conv_reference(x, kernel, stride, padding))
    if not err <= tol:
        raise CheckFailed(f"conv2d forward of {name}: relative error {err:.3g} > {tol}")
    return err


def check_conv_kernel_grad(name: str, x, g, stride, padding, dk, tol: float = 1e-4) -> float:
    err = _rel_err(dk, conv_kernel_grad_reference(x, g, np.shape(dk), stride, padding))
    if not err <= tol:
        raise CheckFailed(f"conv2d kernel gradient of {name}: relative error {err:.3g} > {tol}")
    return err


def check_pixels(ref: str, written: np.ndarray, loaded: np.ndarray) -> None:
    if loaded.dtype != np.uint8 or loaded.shape != written.shape or not np.array_equal(loaded, written):
        raise CheckFailed(f"load_image({ref}) does not return the pixels that were written")


def bilinear_reference(pixels: np.ndarray, size: int) -> np.ndarray:
    """float64 half-pixel-centre bilinear resize of uint8 pixels to [0, 1], as two
    interpolation matrices (rows then columns)."""
    def weights(n_in: int) -> np.ndarray:
        pos = np.clip((np.arange(size) + 0.5) * n_in / size - 0.5, 0, n_in - 1)
        lo = np.floor(pos).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        w = np.zeros((size, n_in))
        np.add.at(w, (np.arange(size), lo), 1.0 - (pos - lo))
        np.add.at(w, (np.arange(size), hi), pos - lo)
        return w
    img = np.asarray(pixels, dtype=np.float64) / 255.0
    return weights(img.shape[0]) @ img @ weights(img.shape[1]).T


def check_make_batch(batch: np.ndarray, labels, sources: list[np.ndarray], expected_labels,
                     tol: float = 1e-5) -> None:
    size = batch.shape[-1]
    if batch.shape != (len(sources), 1, size, size) or batch.dtype != np.float32:
        raise CheckFailed(f"make_batch returned {batch.dtype}{batch.shape}")
    if not np.array_equal(np.asarray(labels), np.asarray(expected_labels)):
        raise CheckFailed("make_batch labels differ from the records' labels")
    for pos, pix in enumerate(sources):
        err = float(np.max(np.abs(batch[pos, 0] - bilinear_reference(pix, size))))
        if not err <= tol:
            raise CheckFailed(f"make_batch sample {pos} differs from the float64 resize by {err:.3g}")


def check_batch_matches_single(batch_logits: np.ndarray, single_logits: list[np.ndarray],
                               tol: float = 1e-4) -> None:
    """Eval-mode logits of a batch equal each sample's logits evaluated alone."""
    single = np.concatenate(single_logits)
    err = _rel_err(batch_logits, single)
    if not err <= tol:
        raise CheckFailed(f"eval logits depend on batch composition: relative error {err:.3g}")


def check_confusion(conf: np.ndarray, labels, num_classes: int) -> None:
    counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=num_classes)
    if conf.shape != (num_classes, num_classes) or np.any(conf < 0):
        raise CheckFailed(f"confusion matrix has shape {conf.shape} or negative counts")
    if int(conf.sum()) != len(labels) or not np.array_equal(conf.sum(axis=1), counts):
        raise CheckFailed(f"confusion rows {conf.sum(axis=1).tolist()} do not match "
                          f"the split's class counts {counts.tolist()}")


def check_learning(losses: list[float], final_acc: float, majority_share: float) -> None:
    """Training loss falls over the run and accuracy beats always guessing the majority."""
    if not all(np.isfinite(losses)) or not losses[-1] < losses[0]:
        raise CheckFailed(f"training loss did not fall: {losses}")
    if not final_acc > majority_share:
        raise CheckFailed(f"final training accuracy {final_acc:.3f} does not beat the "
                          f"majority-class share {majority_share:.3f}")


def check_bit_identical(what: str, expected: dict[str, np.ndarray], got: dict[str, np.ndarray]) -> None:
    for name, arr in expected.items():
        other = got.get(name)
        if other is None or other.dtype != arr.dtype or other.shape != arr.shape \
                or other.tobytes() != arr.tobytes():
            raise CheckFailed(f"{what}: tensor {name!r} is not bit-identical")


def check_changed(what: str, before: dict[str, np.ndarray], after: dict[str, np.ndarray]) -> None:
    for name, arr in before.items():
        if np.array_equal(arr, after[name]):
            raise CheckFailed(f"{what}: tensor {name!r} did not change")
