"""Procedural four-class image generator for desk-scale verification.

Classes are sinusoidal bar patterns distinguished by orientation and
spatial frequency (horizontal/vertical x coarse/fine), with per-image
random phase, contrast, and pixel noise. The distinctions survive flips
and small rotations, so augmented training runs stay learnable, and simple
pixel statistics (directional gradient energies) separate the classes
linearly.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import DataBundle, SampleRecord, split_bundle
from .images import GrayImage, write_pgm
from .rng import derive_stream

# class index -> (bar orientation, sine period in pixels)
CLASS_PATTERNS = {
    0: ("h", 24.0),
    1: ("v", 24.0),
    2: ("h", 8.0),
    3: ("v", 8.0),
}


def _normalize_counts(n_per_class: "int | Sequence[int]") -> list[int]:
    if isinstance(n_per_class, int):
        counts = [n_per_class] * 4
    else:
        counts = [int(c) for c in n_per_class]
        if len(counts) != 4:
            raise ValueError(f"need 4 per-class counts, got {len(counts)}")
    if all(c == 0 for c in counts) or any(c < 0 for c in counts):
        raise ValueError(f"invalid per-class counts {counts}")
    return counts


def make_synthetic_dataset(n_per_class: "int | Sequence[int]", size: int = 64,
                           seed: int = 0, split: str = "Train",
                           prefix: str = "synth") -> tuple[list[SampleRecord], dict[str, GrayImage]]:
    """Generate records plus in-memory images, deterministically from `seed`.

    `n_per_class` is a single count or one count per class (zeros allowed
    to leave a class out). Images are keyed by their record's image_ref.
    """
    counts = _normalize_counts(n_per_class)
    if size < 16:
        raise ValueError(f"size must be at least 16, got {size}")
    records: list[SampleRecord] = []
    images: dict[str, GrayImage] = {}
    stream_tag = f"synth.{prefix}"
    idx = 0
    for label, count in enumerate(counts):
        orient, period = CLASS_PATTERNS[label]
        for i in range(count):
            rng = derive_stream(seed, stream_tag, idx)
            idx += 1
            phase = rng.uniform(0.0, period)
            amplitude = rng.uniform(45.0, 70.0)
            base = rng.uniform(110.0, 140.0)
            coord = np.arange(size, dtype=np.float64)
            wave = base + amplitude * np.sin(2.0 * np.pi * (coord + phase) / period)
            if orient == "h":
                img = np.broadcast_to(wave[:, None], (size, size)).copy()
            else:
                img = np.broadcast_to(wave[None, :], (size, size)).copy()
            img += rng.uniform_array((size, size), -12.0, 12.0)
            pixels = np.clip(np.rint(img), 0, 255).astype(np.uint8)
            ref = f"{prefix}_c{label}_{i:04d}.pgm"
            records.append(SampleRecord(image_ref=ref, label=label, split=split))
            images[ref] = GrayImage(pixels)
    return records, images


def synthetic_bundle(n_per_class: "int | Sequence[int]", size: int = 64, seed: int = 0,
                     test_per_class: "int | Sequence[int] | None" = None,
                     binary: tuple[int, int] | None = None) -> DataBundle:
    """Train/val/test bundle over two disjoint synthetic pools, split by
    `split_bundle` as `from_manifest` splits a manifest."""
    train_pool, train_imgs = make_synthetic_dataset(n_per_class, size, seed,
                                                    split="Train", prefix="train")
    test_counts = n_per_class if test_per_class is None else test_per_class
    test, test_imgs = make_synthetic_dataset(test_counts, size, seed,
                                             split="Test", prefix="test")
    images = {**train_imgs, **test_imgs}
    return split_bundle(train_pool + test, images.__getitem__, size, seed, binary)


# ---------------------------------------------------------------------------
# CoronaHack-shaped manifests for the synthetic data
# ---------------------------------------------------------------------------

_MANIFEST_HEADER = ("X_ray_image_name", "Label", "Dataset_type",
                    "Label_1_Virus_category", "Label_2_Virus_category")

_LABEL_COLUMNS = {
    0: ("Normal", "", ""),
    1: ("Pnemonia", "bacteria", ""),
    2: ("Pnemonia", "Virus", ""),
    3: ("Pnemonia", "Virus", "COVID-19"),
}


def manifest_csv(records: Sequence[SampleRecord]) -> str:
    """Render records as a CSV the default CoronaHack mapping parses back."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_MANIFEST_HEADER)
    for r in records:
        label, l1, l2 = _LABEL_COLUMNS[r.label]
        writer.writerow([r.image_ref, label, r.split.upper(), l1, l2])
    return buf.getvalue()


def write_synthetic_dataset(out_dir, n_per_class: "int | Sequence[int]",
                            size: int = 64, seed: int = 0,
                            prefix: str = "synth") -> tuple[Path, Path]:
    """Write PGM images plus a manifest.csv; returns (manifest path, images dir).

    The manifest carries a TRAIN pool and a disjoint TEST pool of the same
    per-class counts, so the written dataset is directly trainable. Every
    image is generated before anything is created under `out_dir`, so a
    rejected count, size or seed leaves it untouched.
    """
    records: list[SampleRecord] = []
    images: dict[str, GrayImage] = {}
    for split in ("Train", "Test"):
        recs, imgs = make_synthetic_dataset(n_per_class, size, seed, split=split,
                                            prefix=f"{prefix}_{split.lower()}")
        records.extend(recs)
        images.update(imgs)
    out = Path(out_dir)
    img_dir = out / "images"
    img_dir.mkdir(parents=True, exist_ok=True)
    for ref, img in images.items():
        (img_dir / ref).write_bytes(write_pgm(img))
    manifest = out / "manifest.csv"
    rebased = [SampleRecord(f"images/{r.image_ref}", r.label, r.split) for r in records]
    manifest.write_text(manifest_csv(rebased), encoding="utf-8")
    return manifest, img_dir
