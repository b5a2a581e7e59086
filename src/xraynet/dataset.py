"""Dataset ingestion, class statistics, weighted sampling, and batching.

Manifests are CSV files whose column names and label-derivation rules come
from an editable `ManifestConfig` (a default CoronaHack-style mapping ships
with the package). Sampling weights are reciprocal class counts, so every
class carries equal total probability mass regardless of its size.
Manifest and synthetic bundles are split one way, by `split_bundle`, and
training batches augment on the fixed schedule of `images`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

# augment, resize_bilinear and to_unit_float stay importable from here:
# perfbench/tracing.py wraps the dataset module's names
from .images import (GrayImage, augment, load_image, resize_augmented,  # noqa: F401
                     resize_bilinear, to_unit_float)
from .rng import Pcg32, derive_stream

SPLITS = ("Train", "Test")
VAL_FRACTION = 0.1  # share of each class's Train records held out for validation


class ClassLabel(IntEnum):
    """Stable encoding used across the whole toolkit."""

    Normal = 0
    Bacteria = 1
    Virus = 2
    Covid19 = 3


CLASS_NAMES = tuple(c.name for c in ClassLabel)


@dataclass(frozen=True)
class SampleRecord:
    image_ref: str
    label: int
    split: str

    def __post_init__(self):
        if not self.image_ref:
            raise ValueError("image_ref must be nonempty")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")


@dataclass(frozen=True)
class LabelRule:
    when: dict[str, str]
    label: str


@dataclass(frozen=True)
class ManifestConfig:
    """Column names plus first-match-wins label derivation rules."""

    image_column: str
    split_column: str
    split_values: dict[str, str]
    label_rules: tuple[LabelRule, ...]

    @classmethod
    def from_dict(cls, d: dict) -> "ManifestConfig":
        try:
            rules = tuple(LabelRule(dict(r["when"]), r["label"]) for r in d["label_rules"])
            config = cls(image_column=d["image_column"], split_column=d["split_column"],
                         split_values=dict(d["split_values"]), label_rules=rules)
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed mapping ({type(e).__name__}: {e})") from None
        for r in rules:
            if r.label not in CLASS_NAMES:
                raise ValueError(f"rule maps to unknown label {r.label!r}")
        return config

    @classmethod
    def from_json(cls, path) -> "ManifestConfig":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def required_columns(self) -> set[str]:
        cols = {self.image_column, self.split_column}
        for rule in self.label_rules:
            cols.update(rule.when)
        return cols


def default_mapping() -> ManifestConfig:
    path = Path(__file__).parent / "configs" / "coronahack_mapping.json"
    return ManifestConfig.from_json(path)


@dataclass
class ParseResult:
    records: list[SampleRecord]
    skipped: list[tuple[int, str]] = field(default_factory=list)

    @property
    def skip_count(self) -> int:
        return len(self.skipped)


def parse_manifest(data: "bytes | str", config: ManifestConfig) -> ParseResult:
    """One record per CSV row; rows matching no rule are skipped with a reason."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValueError("manifest has no header row")
    header = set(reader.fieldnames)
    missing = sorted(config.required_columns() - header)
    if missing:
        raise ValueError(f"manifest is missing configured columns: {missing}")

    result = ParseResult(records=[])
    for rownum, row in enumerate(reader, start=2):  # header is line 1
        cells = {k: (v or "").strip() for k, v in row.items() if k is not None}
        ref = cells.get(config.image_column, "")
        if not ref:
            result.skipped.append((rownum, "empty image reference"))
            continue
        raw_split = cells.get(config.split_column, "")
        split = config.split_values.get(raw_split)
        if split is None:
            result.skipped.append((rownum, f"unknown split value {raw_split!r}"))
            continue
        label = None
        for rule in config.label_rules:
            if all(cells.get(col) == val for col, val in rule.when.items()):
                label = ClassLabel[rule.label]
                break
        if label is None:
            result.skipped.append((rownum, "no label rule matched"))
            continue
        result.records.append(SampleRecord(image_ref=ref, label=int(label), split=split))
    return result


def class_distribution(records: Sequence[SampleRecord]) -> np.ndarray:
    """(4, 2) counts, rows ordered as CLASS_NAMES and columns as SPLITS."""
    out = np.zeros((len(CLASS_NAMES), len(SPLITS)), dtype=np.int64)
    for r in records:
        out[r.label, SPLITS.index(r.split)] += 1
    return out


def compute_class_weights(counts: Sequence[int]) -> np.ndarray:
    """weight_c = 1 / count_c."""
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 1):
        bad = int(np.argmin(counts))
        raise ValueError(
            f"class {bad} has count {counts[bad]}; drop empty classes before weighting")
    return 1.0 / counts.astype(np.float64)


def sample_weights(records: Sequence[SampleRecord], class_weights: np.ndarray) -> np.ndarray:
    return np.asarray([class_weights[r.label] for r in records], dtype=np.float64)


def weighted_sample(weights: np.ndarray, n: int, rng: Pcg32) -> np.ndarray:
    """n indices drawn with replacement, P(i) = weights[i] / sum(weights)."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        raise ValueError("cannot sample from an empty weight vector")
    if np.any(weights <= 0):
        raise ValueError("all sampling weights must be positive")
    if n < 1:
        raise ValueError("need n >= 1 draws")
    cum = np.cumsum(weights)
    total = cum[-1]
    u = rng.uniforms(n) * total
    return np.searchsorted(cum, u, side="right").astype(np.int64)


def binary_filter(records: Sequence[SampleRecord], a: int, b: int) -> list[SampleRecord]:
    """Keep only classes a and b, relabelled to 0 and 1."""
    if a == b:
        raise ValueError("binary_filter needs two distinct classes")
    out = []
    for r in records:
        if r.label == a:
            out.append(SampleRecord(r.image_ref, 0, r.split))
        elif r.label == b:
            out.append(SampleRecord(r.image_ref, 1, r.split))
    if not out:
        raise ValueError(f"no records of class {a} or {b}")
    return out


def stratified_val_split(records: Sequence[SampleRecord],
                         rng: Pcg32) -> tuple[list[SampleRecord], list[SampleRecord]]:
    """Carve a seeded, class-stratified validation subset out of `records`.

    Each class with at least 2 samples contributes
    max(1, round(VAL_FRACTION * n)) of them, never all (VAL_FRACTION < 0.75
    keeps that below n); classes with a single sample stay in train. Both
    outputs preserve the original record order.
    """
    by_class: dict[int, list[int]] = {}
    for i, r in enumerate(records):
        by_class.setdefault(r.label, []).append(i)
    val_idx: set[int] = set()
    for label in sorted(by_class):
        idxs = list(by_class[label])
        if len(idxs) < 2:
            continue
        k = max(1, int(len(idxs) * VAL_FRACTION + 0.5))
        rng.shuffle(idxs)
        val_idx.update(idxs[:k])
    train = [r for i, r in enumerate(records) if i not in val_idx]
    val = [r for i, r in enumerate(records) if i in val_idx]
    return train, val


# ---------------------------------------------------------------------------
# assembled data bundle and batching
# ---------------------------------------------------------------------------

@dataclass
class DataBundle:
    """Train/val/test records plus an image source, ready for the training loop."""

    train: list[SampleRecord]
    val: list[SampleRecord]
    test: list[SampleRecord]
    images: Callable[[str], GrayImage]
    num_classes: int
    input_size: int

    def train_class_counts(self) -> np.ndarray:
        counts = np.zeros(self.num_classes, dtype=np.int64)
        for r in self.train:
            counts[r.label] += 1
        return counts


def split_bundle(records: Sequence[SampleRecord], images: Callable[[str], GrayImage],
                 input_size: int, seed: int, binary: tuple[int, int] | None) -> DataBundle:
    """Bundle `records` as every data source does: keep only the `binary`
    classes (relabelled 0 and 1) when given, take the Test records as the
    test split, and hold out `VAL_FRACTION` of each class's Train records,
    drawn from the seed's "valsplit" stream, for validation."""
    num_classes = len(CLASS_NAMES)
    if binary is not None:
        records = binary_filter(records, *binary)
        num_classes = 2
    train_pool = [r for r in records if r.split == "Train"]
    test = [r for r in records if r.split == "Test"]
    train, val = stratified_val_split(train_pool, derive_stream(seed, "valsplit"))
    return DataBundle(train=train, val=val, test=test, images=images,
                      num_classes=num_classes, input_size=input_size)


def from_manifest(manifest_path, images_root, mapping: ManifestConfig | None = None,
                  input_size: int = 64, seed: int = 0,
                  binary: tuple[int, int] | None = None,
                  extra_manifest=None, extra_images_root=None) -> DataBundle:
    """Bundle a manifest (plus an optional supplementary manifest, e.g. extra
    minority-class samples) into train/val/test splits by `split_bundle`.

    Supplementary records keep their own split tags. Main-manifest images
    load from `images_root`; supplementary ones from `extra_images_root`, or
    from `images_root` when it is not given. Each record the bundle keeps
    must name an existing file, so a missing image fails here, before any
    training starts.
    """
    mapping = mapping or default_mapping()
    records = parse_manifest(Path(manifest_path).read_bytes(), mapping).records
    root = Path(images_root)
    if extra_manifest is not None:
        extra = parse_manifest(Path(extra_manifest).read_bytes(), mapping).records
        if extra_images_root:
            # refs rebased onto the absolute extra root, which `root / ref` keeps
            extra_root = Path(extra_images_root).absolute()
            extra = [SampleRecord(str(extra_root / r.image_ref), r.label, r.split)
                     for r in extra]
        records = records + extra

    bundle = split_bundle(records, lambda ref: load_image(root / ref), input_size, seed, binary)
    missing = [r.image_ref for r in bundle.train + bundle.val + bundle.test
               if not (root / r.image_ref).is_file()]
    if missing:
        raise FileNotFoundError(
            f"{len(missing)} manifest image(s) not found, first: {root / missing[0]}")
    return bundle


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def make_batch(records: Sequence[SampleRecord], indices: Sequence[int],
               images: Callable[[str], GrayImage], size: int,
               augment_rngs: Sequence[Pcg32] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Assemble (N, 1, size, size) float32 pixels in [0, 1] plus labels.

    Batch order equals index order. `augment_rngs`, when given, supplies one
    pre-derived augmentation stream per position, so composition is identical
    for any worker layout; None means no augmentation. Each sample comes from
    `images.resize_augmented`: flips, rotation and the float conversion are
    evaluated only at the source pixels the resize reads, never at source
    resolution, and the result is bit for bit
    `resize_bilinear(to_unit_float(augment(img, rng)), size, size)`.
    """
    n = len(indices)
    x = np.empty((n, 1, size, size), dtype=np.float32)
    labels = np.empty(n, dtype=np.int64)
    for pos, idx in enumerate(indices):
        rec = records[idx]
        rng = augment_rngs[pos] if augment_rngs is not None else None
        x[pos, 0] = resize_augmented(images(rec.image_ref), size, rng)
        labels[pos] = rec.label
    return x, labels
