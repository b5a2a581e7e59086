"""Command-line surface: stats, synth, pretrain, train, eval, gradcheck, curves.

Exit codes: 0 success, 1 internal/numeric failure, 2 usage or configuration
error. Every training run echoes its fully resolved configuration (seed
included) into the run directory before any computation starts.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, model_from_checkpoint, save_checkpoint
from .dataset import (CLASS_NAMES, ClassLabel, ManifestConfig, SPLITS, class_distribution,
                      default_mapping, from_manifest, parse_manifest)
from .images import intensity_histogram, load_image
from .losses import FocalParams, cross_entropy
from .metrics import per_class_from_confusion
from .synth import synthetic_bundle, write_synthetic_dataset
from .training import (PRESETS, TrainConfig, TrainingAborted, canonical_preset, evaluate,
                       fit, parse_metrics_csv)
from .verification import run_scope, settings


class UsageError(ValueError):
    pass


def _parse_binary(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise UsageError(f"--binary expects two classes, got {text!r}")
    out = []
    for p in parts:
        if p.isdigit():
            v = int(p)
            if v > 3:
                raise UsageError(f"class index {v} out of range 0..3")
        else:
            try:
                v = int(ClassLabel[p.capitalize()])
            except KeyError:
                raise UsageError(f"unknown class {p!r}; expected one of {CLASS_NAMES}") from None
        out.append(v)
    if out[0] == out[1]:
        raise UsageError("--binary needs two distinct classes")
    return out[0], out[1]


def _load_mapping(path: str | None) -> ManifestConfig:
    if path is None:
        return default_mapping()
    p = Path(path)
    if not p.exists():
        raise UsageError(f"mapping file not found: {p}")
    return ManifestConfig.from_json(p)


def _build_bundle(args):
    binary = _parse_binary(args.binary) if getattr(args, "binary", None) else None
    if getattr(args, "synthetic", None):
        counts = args.synthetic
        if binary is not None:
            per_class = [0, 0, 0, 0]
            per_class[binary[0]] = counts
            per_class[binary[1]] = counts
            counts = per_class
        return synthetic_bundle(counts, size=args.size, seed=args.seed, binary=binary)
    if getattr(args, "manifest", None):
        manifest = Path(args.manifest)
        if not manifest.exists():
            raise UsageError(f"manifest not found: {manifest}")
        if not getattr(args, "images_root", None):
            raise UsageError("--images-root is required with --manifest")
        extra = getattr(args, "extra_manifest", None)
        if extra and not Path(extra).exists():
            raise UsageError(f"extra manifest not found: {extra}")
        return from_manifest(manifest, args.images_root, _load_mapping(args.mapping),
                             input_size=args.size, seed=args.seed, binary=binary,
                             extra_manifest=extra,
                             extra_images_root=getattr(args, "extra_images_root", None))
    raise UsageError("provide a data source: --synthetic N or --manifest PATH")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    manifest = Path(args.manifest)
    if not manifest.exists():
        raise UsageError(f"manifest not found: {manifest}")
    mapping = _load_mapping(args.mapping)
    result = parse_manifest(manifest.read_bytes(), mapping)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    counts = class_distribution(result.records)
    lines = ["class,split,count"]
    for ci, name in enumerate(CLASS_NAMES):
        for si, split in enumerate(SPLITS):
            lines.append(f"{name},{split},{counts[ci, si]}")
    (out / "class_distribution.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"parsed {len(result.records)} records ({result.skip_count} rows skipped)")
    for ci, name in enumerate(CLASS_NAMES):
        print(f"  {name}: {int(counts[ci].sum())} (train {counts[ci, 0]}, test {counts[ci, 1]})")

    if args.images_root:
        root = Path(args.images_root)
        per_class: dict[int, int] = {}
        written = 0
        for rec in result.records:
            k = per_class.get(rec.label, 0)
            if k >= args.hist_samples:
                continue
            img = load_image(root / rec.image_ref)
            hist = intensity_histogram(img)
            name = CLASS_NAMES[rec.label]
            rows = ["class,bin,count"]
            rows.extend(f"{name},{b},{hist[b]}" for b in range(256))
            (out / f"hist_{name}_{k}.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
            per_class[rec.label] = k + 1
            written += 1
        print(f"wrote {written} per-sample histogram files")
    return 0


def cmd_synth(args) -> int:
    counts = [int(c) for c in args.counts.split(",")] if args.counts else args.per_class
    if counts is None:
        raise UsageError("provide --per-class N or --counts a,b,c,d")
    manifest, img_dir = write_synthetic_dataset(args.out, counts, size=args.size, seed=args.seed)
    print(f"wrote {manifest} and images under {img_dir}")
    return 0


def _train_config(args, num_classes: int) -> TrainConfig:
    focal = FocalParams(alpha=args.alpha, gamma=args.gamma)
    return TrainConfig(
        preset=args.preset, num_classes=num_classes, epochs=args.epochs,
        base_lr=args.lr, batch_size=args.batch_size, seed=args.seed,
        input_size=args.size, checkpoint=args.checkpoint, freeze=args.freeze,
        augment=not args.no_augment, focal=focal)


def cmd_train(args) -> int:
    canonical_preset(args.preset)  # reject unknown codes before touching data
    bundle = _build_bundle(args)
    config = _train_config(args, bundle.num_classes)
    if config.spec.pretrained and not config.checkpoint:
        raise UsageError(f"preset {config.preset} requires --checkpoint")
    record = fit(config, bundle, run_dir=args.out)
    print(f"preset {config.preset}: test_accuracy={record.test_accuracy:.4f} "
          f"train_acc_avg={record.train_acc_avg:.4f} val_acc_avg={record.val_acc_avg:.4f}")
    print(f"run artifacts in {args.out}")
    return 0


def cmd_pretrain(args) -> int:
    if args.arch == "resnet":
        preset = "RCE"
    elif args.arch == "densenet":
        preset = "DCE"
    else:
        raise UsageError(f"unknown architecture {args.arch!r}")
    bundle = synthetic_bundle(args.per_class, size=args.size, seed=args.seed)
    config = TrainConfig(preset=preset, num_classes=4, epochs=args.epochs,
                         batch_size=args.batch_size, seed=args.seed, input_size=args.size)
    record = fit(config, bundle)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(record.model, out, epoch=config.epochs, seed=config.seed)
    print(f"pretrained {args.arch} backbone -> {out} "
          f"(train_acc_avg={record.train_acc_avg:.4f})")
    return 0


def cmd_eval(args) -> int:
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise UsageError(f"checkpoint not found: {ckpt}")
    model, meta = model_from_checkpoint(ckpt)
    args.size = meta["arch"]["input_size"]
    bundle = _build_bundle(args)
    if bundle.num_classes != model.num_classes:
        raise UsageError(f"checkpoint has {model.num_classes} classes "
                         f"but the data source has {bundle.num_classes}")
    records = {"train": bundle.train, "val": bundle.val, "test": bundle.test}[args.split]
    loss, acc, conf = evaluate(model, records, bundle, cross_entropy, args.batch_size)
    print(f"split={args.split} loss={loss:.4f} accuracy={acc:.4f}")
    per_class = per_class_from_confusion(conf)
    for ci in range(bundle.num_classes):
        pc = "n/a" if np.isnan(per_class[ci]) else f"{per_class[ci]:.4f}"
        print(f"  class {ci}: acc={pc} row={conf[ci].tolist()}")
    return 0


def cmd_gradcheck(args) -> int:
    _, _, threshold = settings(args.f64)
    if args.threshold is not None:
        threshold = args.threshold
    errors = run_scope(args.scope, f64=args.f64)
    failed = False
    for name, err in errors.items():
        status = "ok" if err < threshold else "FAIL"
        print(f"{name}: max_rel_error={err:.3e} [{status}]")
        failed |= err >= threshold
    if failed:
        print(f"gradcheck failed at threshold {threshold:g}", file=sys.stderr)
        return 1
    return 0


def cmd_export_curves(args) -> int:
    run = Path(args.run)
    metrics = run / "metrics.csv"
    if not metrics.exists():
        raise UsageError(f"no metrics.csv under {run}")
    history = parse_metrics_csv(metrics)
    acc_lines = ["epoch,train_acc,val_acc"]
    loss_lines = ["epoch,train_loss,val_loss"]
    for m in history:
        acc_lines.append(f"{m.epoch},{m.train_acc!r},{m.val_acc!r}")
        loss_lines.append(f"{m.epoch},{m.train_loss!r},{m.val_loss!r}")
    (run / "curves_accuracy.csv").write_text("\n".join(acc_lines) + "\n", encoding="utf-8")
    (run / "curves_loss.csv").write_text("\n".join(loss_lines) + "\n", encoding="utf-8")
    print(f"wrote curves_accuracy.csv and curves_loss.csv under {run}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--synthetic", type=int, metavar="N",
                   help="use N synthetic samples per class instead of a manifest")
    p.add_argument("--manifest", help="dataset manifest CSV")
    p.add_argument("--mapping", help="manifest mapping JSON (default: CoronaHack mapping)")
    p.add_argument("--images-root", help="directory resolving manifest image references")
    p.add_argument("--binary", metavar="A,B",
                   help="restrict to two classes relabelled 0/1 (names or indices)")
    p.add_argument("--extra-manifest",
                   help="supplementary manifest appended to the dataset (e.g. extra samples)")
    p.add_argument("--extra-images-root",
                   help="image root for supplementary manifest references")
    p.add_argument("--size", type=int, default=64, help="input resolution (default 64)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xraynet",
        description="Desk-scale training toolkit for imbalanced chest X-ray classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="class distribution and intensity histograms")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mapping")
    p.add_argument("--images-root")
    p.add_argument("--hist-samples", type=int, default=2,
                   help="histogram files per class (default 2)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic PGM dataset + manifest")
    p.add_argument("--per-class", type=int)
    p.add_argument("--counts", metavar="a,b,c,d", help="explicit per-class counts")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="train a backbone on synthetic data, save a checkpoint")
    p.add_argument("--arch", choices=("resnet", "densenet"), default="resnet")
    p.add_argument("--per-class", type=int, default=10)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="run a training preset")
    p.add_argument("--preset", required=True,
                   help="one of " + ", ".join(sorted(PRESETS)))
    p.add_argument("--checkpoint", help="pretrained checkpoint (PR*/PD* presets)")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--gamma", type=float, default=2.0, help="focal loss gamma")
    p.add_argument("--alpha", type=float, default=0.25, help="focal loss alpha")
    p.add_argument("--freeze", action="store_true", help="freeze the backbone")
    p.add_argument("--no-augment", action="store_true", help="disable flip/rotation augmentation")
    _add_data_flags(p)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a data split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    _add_data_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--scope", choices=("ops", "losses", "resnet", "densenet", "all"),
                   default="all")
    p.add_argument("--f64", action="store_true", help="float64 verification mode")
    p.add_argument("--threshold", type=float, help="override the pass threshold")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("export-curves", help="re-emit accuracy/loss curves from a run directory")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_export_curves)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CheckpointError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingAborted as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # internal failure
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
