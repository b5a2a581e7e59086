"""Training: Adam optimization, step LR schedule, presets, and run records.

A preset code fully determines {architecture family, checkpoint usage,
loss, sampler}; everything else (epochs, learning rate, batch size, seed)
lives in `TrainConfig`, whose field defaults are the CLI's. One recipe
serves every preset: the learning rate is multiplied by `LR_FACTOR` every
`LR_STEP` epochs, and Adam keeps its published defaults. Runs are
deterministic given the resolved config: the sampler, augmentation, and
initialization all draw from purpose-tagged streams of the run seed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Variable
from .checkpoint import load_checkpoint, save_checkpoint
from .dataset import DataBundle, compute_class_weights, make_batch, one_hot, sample_weights, weighted_sample
from .losses import cross_entropy, focal_loss
from .metrics import accuracy, confusion, epoch_average_accuracy, per_class_from_confusion
from .nn import ArchitectureConfig, Model, build_model, freeze_backbone
from .rng import check_seed, derive_stream

_AUG_EPOCH_STRIDE = 1_000_003  # distinct augmentation stream per (epoch, position)
LR_STEP = 10
LR_FACTOR = 0.5


class TrainingAborted(RuntimeError):
    """Raised when a run goes non-finite: a forward pass's logits, or a
    gradient that would corrupt the optimizer state."""


@dataclass(frozen=True)
class Preset:
    family: str
    pretrained: bool
    loss: str      # "ce" | "focal"
    sampler: str   # "plain" | "weighted"


PRESETS: dict[str, Preset] = {
    "PRCE": Preset("resnet", True, "ce", "plain"),
    "PRCEW": Preset("resnet", True, "ce", "weighted"),
    "PRFL": Preset("resnet", True, "focal", "plain"),
    "PDCXCE": Preset("densenet", True, "ce", "plain"),
    "PDCXFL": Preset("densenet", True, "focal", "plain"),
    "RCE": Preset("resnet", False, "ce", "plain"),
    "RFL": Preset("resnet", False, "focal", "plain"),
    # scratch DenseNet: the vehicle that produces checkpoints for PDCX* presets
    "DCE": Preset("densenet", False, "ce", "plain"),
}


def canonical_preset(code: str) -> str:
    code = code.upper()
    if code not in PRESETS:
        valid = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown preset {code!r}; valid codes: {valid}")
    return code


@dataclass
class TrainConfig:
    """Full run description; `preset` pins family, checkpoint usage, loss, sampler."""

    preset: str
    num_classes: int = 4
    epochs: int = 20
    base_lr: float = 1e-3
    batch_size: int = 8
    seed: int = 0
    input_size: int = 64
    checkpoint: str | None = None
    freeze: bool = False
    augment: bool = True

    def __post_init__(self):
        self.preset = canonical_preset(self.preset)
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (np.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
        _check_batch_size(self.batch_size)
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if (self.checkpoint or self.freeze) and not self.spec.pretrained:
            raise ValueError(f"preset {self.preset} trains from scratch and takes no "
                             "checkpoint and no frozen backbone")
        # the checkpoint records the seed as well, so reject it up front
        check_seed(self.seed)

    @property
    def spec(self) -> Preset:
        return PRESETS[self.preset]

    def to_dict(self) -> dict:
        d = asdict(self)
        d["family"] = self.spec.family
        d["pretrained"] = self.spec.pretrained
        d["loss"] = self.spec.loss
        d["sampler"] = self.spec.sampler
        return d


def _check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ValueError("batch_size must be positive")


def lr_at_epoch(epoch: int, config: TrainConfig) -> float:
    """base_lr * LR_FACTOR ** floor(epoch / LR_STEP), epochs counted from 0."""
    if epoch < 0:
        raise ValueError("epoch index must be non-negative")
    return config.base_lr * LR_FACTOR ** (epoch // LR_STEP)


class Adam:
    """Adam with bias correction and the defaults of Kingma & Ba (2015); state
    kept in float64 for exact unit tests."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self):
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Variable], lr: float) -> None:
        """One update over all trainable parameters, or none if a gradient is non-finite."""
        live = {name: p for name, p in params.items() if p.requires_grad}
        for name, p in live.items():
            if not np.all(np.isfinite(p.grad)):
                raise TrainingAborted(f"non-finite gradient in {name!r}")
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name, p in live.items():
            g = p.grad.astype(np.float64)
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros(p.data.shape, dtype=np.float64)
            v = self.v.get(name)
            if v is None:
                v = self.v[name] = np.zeros(p.data.shape, dtype=np.float64)
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)
            p.data -= update.astype(p.data.dtype)


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


@dataclass
class RunRecord:
    config: dict
    epoch_metrics: list[EpochMetrics]
    test_loss: float
    test_accuracy: float
    train_acc_avg: float
    val_acc_avg: float
    wall_clock: float
    seed: int
    test_confusion: np.ndarray | None = None
    model: "Model | None" = field(default=None, repr=False, compare=False)


def make_loss(config: TrainConfig):
    """(logits, targets) -> loss for the preset, read from this module when
    called, so a wrapper installed here before the call is the one returned."""
    return focal_loss if config.spec.loss == "focal" else cross_entropy


def _forward(model: Model, x: np.ndarray, train: bool) -> Variable:
    """The model's logits for `x`, which must be finite: a diverged run
    aborts here rather than failing the loss's input checks."""
    logits = model.forward(x, train=train)
    if not np.all(np.isfinite(logits.data)):
        raise TrainingAborted("non-finite logits in the forward pass")
    return logits


def _batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)


def evaluate(model: Model, records, bundle: DataBundle, loss_fn,
             batch_size: int) -> tuple[float, float, np.ndarray]:
    """Eval-mode loss/accuracy/confusion over `records` in file order; the
    forward passes and losses build no graph."""
    if not records:
        raise ValueError("cannot evaluate an empty split")
    _check_batch_size(batch_size)
    total_loss = 0.0
    all_logits = []
    all_labels = []
    for lo, hi in _batches(len(records), batch_size):
        x, labels = make_batch(records, range(lo, hi), bundle.images, bundle.input_size)
        with ad.no_grad():
            logits = _forward(model, x, train=False)
            loss = loss_fn(logits, one_hot(labels, bundle.num_classes))
        total_loss += loss.item() * (hi - lo)
        all_logits.append(logits.data)
        all_labels.append(labels)
    logits = np.concatenate(all_logits)
    labels = np.concatenate(all_labels)
    return (total_loss / len(records), accuracy(logits, labels),
            confusion(logits, labels, bundle.num_classes))


def _epoch_indices(bundle: DataBundle, config: TrainConfig, epoch: int) -> np.ndarray:
    n = len(bundle.train)
    rng = derive_stream(config.seed, "sampler", epoch)
    if config.spec.sampler == "weighted":
        weights = sample_weights(bundle.train, compute_class_weights(bundle.train_class_counts()))
        return weighted_sample(weights, n, rng)
    order = list(range(n))
    rng.shuffle(order)
    return np.asarray(order, dtype=np.int64)


def train_epoch(model: Model, bundle: DataBundle, config: TrainConfig,
                optimizer: Adam, epoch: int, loss_fn=None) -> EpochMetrics:
    """One pass of sampled batches: forward, loss, backward, Adam step."""
    if not bundle.train:
        raise ValueError("cannot train on an empty split")
    loss_fn = loss_fn or make_loss(config)
    lr = lr_at_epoch(epoch, config)
    indices = _epoch_indices(bundle, config, epoch)

    loss_sum = 0.0
    correct = 0
    for lo, hi in _batches(len(indices), config.batch_size):
        batch_idx = indices[lo:hi]
        rngs = None
        if config.augment:
            rngs = [derive_stream(config.seed, "augment", epoch * _AUG_EPOCH_STRIDE + lo + k)
                    for k in range(len(batch_idx))]
        x, labels = make_batch(bundle.train, batch_idx, bundle.images, bundle.input_size, rngs)
        logits = _forward(model, x, train=True)
        loss = loss_fn(logits, one_hot(labels, bundle.num_classes))
        model.store.zero_grads()
        ad.backward(loss)
        optimizer.step(model.store.params, lr)
        loss_sum += loss.item() * len(labels)
        correct += int((logits.data.argmax(axis=1) == labels).sum())

    val_loss, val_acc, _ = evaluate(model, bundle.val, bundle, loss_fn, config.batch_size)
    return EpochMetrics(epoch=epoch, lr=lr,
                        train_loss=loss_sum / len(indices),
                        train_acc=correct / len(indices),
                        val_loss=val_loss, val_acc=val_acc)


def fit(config: TrainConfig, bundle: DataBundle, run_dir=None) -> RunRecord:
    """Run the configured training protocol and (optionally) write run artifacts."""
    if config.num_classes != bundle.num_classes:
        raise ValueError(
            f"config expects {config.num_classes} classes but data has {bundle.num_classes}")
    if config.input_size != bundle.input_size:
        raise ValueError(
            f"config expects {config.input_size} px inputs but data is {bundle.input_size} px")
    if config.spec.pretrained:
        if not config.checkpoint:
            raise ValueError(f"preset {config.preset} needs a pretrained checkpoint (--checkpoint)")
    for split_name, records in (("train", bundle.train), ("val", bundle.val),
                                ("test", bundle.test)):
        if not records:
            raise ValueError(f"{split_name} split is empty; cannot run the configured protocol")
    if config.spec.sampler == "weighted":
        compute_class_weights(bundle.train_class_counts())  # rejects an empty train class

    start = time.monotonic()
    # a rejected checkpoint raises here, before the run directory exists
    arch = ArchitectureConfig(config.spec.family, config.input_size, config.num_classes)
    model = build_model(arch, derive_stream(config.seed, "init"))
    if config.spec.pretrained:
        load_checkpoint(model, config.checkpoint, backbone_only=True)
    if config.freeze:
        freeze_backbone(model)
    if run_dir is not None:
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")

    optimizer = Adam()
    loss_fn = make_loss(config)
    history: list[EpochMetrics] = []
    for epoch in range(config.epochs):
        history.append(train_epoch(model, bundle, config, optimizer, epoch, loss_fn))

    test_loss, test_acc, test_conf = evaluate(model, bundle.test, bundle, loss_fn, config.batch_size)
    record = RunRecord(
        config=config.to_dict(),
        epoch_metrics=history,
        test_loss=test_loss,
        test_accuracy=test_acc,
        train_acc_avg=epoch_average_accuracy([m.train_acc for m in history]),
        val_acc_avg=epoch_average_accuracy([m.val_acc for m in history]),
        wall_clock=time.monotonic() - start,
        seed=config.seed,
        test_confusion=test_conf,
        model=model,
    )
    if run_dir is not None:
        export_metrics(record, run_dir)
        save_checkpoint(model, run_dir / "model.xrnc", epoch=config.epochs, seed=config.seed)
    return record


# metrics.csv has one column per EpochMetrics field, in field order; each
# value is written as repr() of its declared type and read back by that type
METRIC_COLUMNS = tuple(f.name for f in fields(EpochMetrics))
_COLUMN_TYPES = get_type_hints(EpochMetrics)


def export_metrics(record: RunRecord, run_dir) -> tuple[Path, Path]:
    """Write plot-ready metrics.csv plus the run.json summary."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    csv_path = run_dir / "metrics.csv"
    lines = [",".join(METRIC_COLUMNS)]
    for m in record.epoch_metrics:
        lines.append(",".join(repr(_COLUMN_TYPES[c](getattr(m, c))) for c in METRIC_COLUMNS))
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    summary = {
        "preset": record.config["preset"],
        "seed": record.seed,
        "epochs": len(record.epoch_metrics),
        "test_accuracy": record.test_accuracy,
        "test_loss": record.test_loss,
        "train_acc_avg": record.train_acc_avg,
        "val_acc_avg": record.val_acc_avg,
        "epoch_metrics": "metrics.csv",
        "wall_clock": record.wall_clock,
        "config": record.config,
    }
    if record.test_confusion is not None:
        # the minority recall the paper reports; a class with no test samples
        # has none and is written null, not json's non-standard NaN
        recall = per_class_from_confusion(record.test_confusion)
        summary["test_confusion"] = record.test_confusion.tolist()
        summary["test_recall"] = [None if np.isnan(r) else float(r) for r in recall]
    json_path = run_dir / "run.json"
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return csv_path, json_path


def parse_metrics_csv(path) -> list[EpochMetrics]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != ",".join(METRIC_COLUMNS):
        raise ValueError(f"{path}: unexpected metrics header")
    out = []
    for line in lines[1:]:
        values = zip(METRIC_COLUMNS, line.split(","), strict=True)
        out.append(EpochMetrics(**{c: _COLUMN_TYPES[c](v) for c, v in values}))
    return out
