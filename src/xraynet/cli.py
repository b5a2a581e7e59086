"""Command-line surface: stats, synth, train, eval, gradcheck.

Exit codes: 0 success, 1 internal/numeric failure, 2 usage or configuration
error. Every training run echoes its fully resolved configuration (seed
included) into the run directory before training starts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .checkpoint import model_from_checkpoint
from .dataset import (CLASS_NAMES, ClassLabel, ManifestConfig, SPLITS, class_distribution,
                      default_mapping, from_manifest, parse_manifest)
from .images import intensity_histogram, load_image
from .losses import cross_entropy
from .metrics import per_class_from_confusion
from .synth import synthetic_bundle, write_synthetic_dataset
from .training import PRESETS, TrainConfig, TrainingAborted, evaluate, fit
from .verification import check_all, settings

HIST_SAMPLES = 2  # per-sample histogram files `stats` writes for each class
_DEFAULTS = {f.name: f.default for f in fields(TrainConfig)}


def _parse_binary(text: str) -> tuple[int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"--binary expects two classes, got {text!r}")
    out = []
    for p in parts:
        if p.isdigit():
            v = int(p)
            if v >= len(CLASS_NAMES):
                raise ValueError(f"class index {v} out of range 0..{len(CLASS_NAMES) - 1}")
        else:
            try:
                v = int(ClassLabel[p.capitalize()])
            except KeyError:
                raise ValueError(f"unknown class {p!r}; expected one of {CLASS_NAMES}") from None
        out.append(v)
    if out[0] == out[1]:
        raise ValueError("--binary needs two distinct classes")
    return out[0], out[1]


def _parse_counts(text: str) -> int | list[int]:
    """`N`, the same count for every class, or one count per class, `a,b,c,d`."""
    try:
        counts = [int(c) for c in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or a,b,c,d counts, got {text!r}") from None
    return counts[0] if len(counts) == 1 else counts


def _load_mapping(path: str | None) -> ManifestConfig:
    return default_mapping() if path is None else ManifestConfig.from_json(path)


def _build_bundle(args):
    # a flag the chosen source ignores is an error, not a silent no-op
    manifest_flags = {"--mapping": args.mapping, "--images-root": args.images_root,
                      "--extra-manifest": args.extra_manifest,
                      "--extra-images-root": args.extra_images_root}
    if args.synthetic is not None and any(manifest_flags.values()):
        given = ", ".join(f for f, v in manifest_flags.items() if v)
        raise ValueError(f"--synthetic ignores manifest flags: {given}")
    if args.extra_images_root and not args.extra_manifest:
        raise ValueError("--extra-images-root needs --extra-manifest")
    binary = _parse_binary(args.binary) if args.binary else None
    if args.synthetic is not None:
        return synthetic_bundle(args.synthetic, size=args.size, seed=args.seed, binary=binary)
    if args.manifest:
        if not args.images_root:
            raise ValueError("--images-root is required with --manifest")
        return from_manifest(args.manifest, args.images_root, _load_mapping(args.mapping),
                             input_size=args.size, seed=args.seed, binary=binary,
                             extra_manifest=args.extra_manifest,
                             extra_images_root=args.extra_images_root)
    raise ValueError("provide a data source: --synthetic N or --manifest PATH")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_stats(args) -> int:
    mapping = _load_mapping(args.mapping)
    result = parse_manifest(Path(args.manifest).read_bytes(), mapping)

    counts = class_distribution(result.records)
    lines = ["class,split,count"]
    for ci, name in enumerate(CLASS_NAMES):
        for si, split in enumerate(SPLITS):
            lines.append(f"{name},{split},{counts[ci, si]}")
    files = {"class_distribution.csv": lines}
    print(f"parsed {len(result.records)} records ({result.skip_count} rows skipped)")
    for ci, name in enumerate(CLASS_NAMES):
        print(f"  {name}: {int(counts[ci].sum())} (train {counts[ci, 0]}, test {counts[ci, 1]})")

    if args.images_root:
        root = Path(args.images_root)
        per_class: dict[int, int] = {}
        for rec in result.records:
            k = per_class.get(rec.label, 0)
            if k >= HIST_SAMPLES:
                continue
            hist = intensity_histogram(load_image(root / rec.image_ref))
            name = CLASS_NAMES[rec.label]
            rows = ["class,bin,count"]
            rows.extend(f"{name},{b},{hist[b]}" for b in range(256))
            files[f"hist_{name}_{k}.csv"] = rows
            per_class[rec.label] = k + 1

    # every image has loaded before --out is made, so a failed load writes nothing
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for fname, rows in files.items():
        (out / fname).write_text("\n".join(rows) + "\n", encoding="utf-8")
    if args.images_root:
        print(f"wrote {len(files) - 1} per-sample histogram files")
    return 0


def cmd_synth(args) -> int:
    manifest, img_dir = write_synthetic_dataset(args.out, args.counts, args.size, args.seed)
    print(f"wrote {manifest} and images under {img_dir}")
    return 0


def cmd_train(args) -> int:
    bundle = _build_bundle(args)
    config = TrainConfig(
        preset=args.preset, num_classes=bundle.num_classes, epochs=args.epochs,
        base_lr=args.lr, batch_size=args.batch_size, seed=args.seed,
        input_size=args.size, checkpoint=args.checkpoint, freeze=args.freeze,
        augment=not args.no_augment)
    record = fit(config, bundle, run_dir=args.out)
    print(f"preset {config.preset}: test_accuracy={record.test_accuracy:.4f} "
          f"train_acc_avg={record.train_acc_avg:.4f} val_acc_avg={record.val_acc_avg:.4f}")
    print(f"run artifacts in {args.out}")
    return 0


def cmd_eval(args) -> int:
    model, meta = model_from_checkpoint(args.checkpoint)
    args.size = meta["arch"].input_size  # eval has no --size: the checkpoint fixes it
    bundle = _build_bundle(args)
    if bundle.num_classes != model.config.num_classes:
        raise ValueError(f"checkpoint has {model.config.num_classes} classes "
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
    _, threshold = settings(args.f64)
    errors = check_all(args.f64)
    failed = False
    for name, err in errors.items():
        status = "ok" if err < threshold else "FAIL"
        print(f"{name}: max_rel_error={err:.3e} [{status}]")
        failed |= err >= threshold
    if failed:
        print(f"gradcheck failed at threshold {threshold:g}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_data_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--synthetic", type=_parse_counts, metavar="N|a,b,c,d",
                        help="synthetic samples, N per class or a,b,c,d, instead of a manifest")
    source.add_argument("--manifest", help="dataset manifest CSV")
    p.add_argument("--mapping", help="manifest mapping JSON (default: CoronaHack mapping)")
    p.add_argument("--images-root", help="directory resolving manifest image references")
    p.add_argument("--binary", metavar="A,B",
                   help="restrict to two classes relabelled 0/1 (names or indices)")
    p.add_argument("--extra-manifest",
                   help="supplementary manifest appended to the dataset (e.g. extra samples)")
    p.add_argument("--extra-images-root",
                   help="image root for supplementary manifest references "
                        "(default: --images-root)")
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"])
    p.add_argument("--batch-size", type=int, default=_DEFAULTS["batch_size"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xraynet",
        description="Desk-scale training toolkit for imbalanced chest X-ray classification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="class distribution and intensity histograms")
    p.add_argument("--manifest", required=True)
    p.add_argument("--mapping")
    p.add_argument("--images-root")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic PGM dataset + manifest")
    p.add_argument("--counts", type=_parse_counts, required=True, metavar="N|a,b,c,d")
    p.add_argument("--size", type=int, default=_DEFAULTS["input_size"])
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run a training preset")
    p.add_argument("--preset", required=True,
                   help="one of " + ", ".join(sorted(PRESETS)))
    p.add_argument("--checkpoint", help="pretrained checkpoint (PR*/PD* presets)")
    p.add_argument("--epochs", type=int, default=_DEFAULTS["epochs"])
    p.add_argument("--lr", type=float, default=_DEFAULTS["base_lr"])
    p.add_argument("--freeze", action="store_true", help="freeze the backbone")
    p.add_argument("--no-augment", action="store_true", help="disable flip/rotation augmentation")
    p.add_argument("--size", type=int, default=_DEFAULTS["input_size"], help="input resolution")
    _add_data_flags(p)
    p.add_argument("--out", required=True, help="run directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a data split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    _add_data_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--f64", action="store_true", help="float64 verification mode")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TrainingAborted as e:
        print(f"{'training' if args.command == 'train' else 'evaluation'} aborted: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # internal failure
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
