"""Seeded on-disk inputs for the `transfer_hires` workload.

Writes 1024 px binary PGM chest-film stand-ins plus a CoronaHack-shaped
manifest. Pixels come from numpy's PCG64 generator keyed by (seed, image
index), so any single image can be regenerated without the rest; the
program under test never sees this generator, only the files.

The two classes of the binary task are separable bar patterns, the same
scheme as xraynet's synthetic set scaled to the source resolution:
Normal has horizontal bars with a 384 px period, Covid19 vertical bars
with a 128 px period (24 and 8 px once resized to the 64 px input).

The workload also starts from a pretrained 4-class MiniResNet checkpoint,
which is written anew on every call, in this process, so that neither its
cost nor its memory lands in the measured process.

Run as a script to (re)make the cached images for one seed and write the
checkpoint:

    python3 perfbench/fixtures.py --seed 3 --out perfbench/.fixtures/transfer_hires \
        --checkpoint perfbench/.out/pretrained.xrnc
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

VERSION = 1
SOURCE_SIZE = 1024
# (class index, split) -> image count; Normal:Covid19 is 5:1 in both splits
IMAGE_COUNTS = {(0, "Train"): 40, (3, "Train"): 8, (0, "Test"): 10, (3, "Test"): 2}
# Bacteria/Virus rows are listed as in CoronaHack (scaled like the Normal rows)
# but have no files: the binary Normal-vs-Covid19 filter drops them unread.
LISTED_ONLY = {(1, "Train"): 71, (2, "Train"): 38, (1, "Test"): 10, (2, "Test"): 6}
# class index -> (bar orientation, period in source pixels)
PATTERNS = {0: ("h", 384.0), 3: ("v", 128.0)}
_LABEL_COLUMNS = {
    0: ("Normal", "", ""),
    1: ("Pnemonia", "bacteria", ""),
    2: ("Pnemonia", "Virus", ""),
    3: ("Pnemonia", "Virus", "COVID-19"),
}
_HEADER = "X_ray_image_name,Label,Dataset_type,Label_1_Virus_category,Label_2_Virus_category"


def image_list() -> list[tuple[int, str, int, str]]:
    """(index, split, label, file name) of every image file, in manifest order."""
    out = []
    for (label, split), count in IMAGE_COUNTS.items():
        for i in range(count):
            idx = len(out)
            out.append((idx, split, label, f"{split.lower()}_c{label}_{i:03d}.pgm"))
    return out


def source_pixels(seed: int, index: int, label: int) -> np.ndarray:
    """The exact (1024, 1024) uint8 raster of image `index` for `seed`."""
    gen = np.random.Generator(np.random.PCG64([seed, index]))
    orient, period = PATTERNS[label]
    phase, amplitude, base = gen.uniform(0.0, period), gen.uniform(45.0, 70.0), gen.uniform(110.0, 140.0)
    wave = base + amplitude * np.sin(2.0 * np.pi * (np.arange(SOURCE_SIZE) + phase) / period)
    img = wave[:, None] if orient == "h" else wave[None, :]
    img = img + gen.integers(-12, 13, size=(SOURCE_SIZE, SOURCE_SIZE))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def manifest_text() -> str:
    rows = [_HEADER]
    for _, split, label, name in image_list():
        rows.append(",".join([f"images/{name}", _LABEL_COLUMNS[label][0], split.upper(),
                              *_LABEL_COLUMNS[label][1:]]))
    for (label, split), count in LISTED_ONLY.items():
        for i in range(count):
            rows.append(",".join([f"images/{split.lower()}_c{label}_{i:03d}.pgm",
                                  _LABEL_COLUMNS[label][0], split.upper(), *_LABEL_COLUMNS[label][1:]]))
    return "\n".join(rows) + "\n"


def _stamp(seed: int) -> dict:
    return {"version": VERSION, "seed": seed, "images": len(image_list())}


def is_current(out: Path, seed: int) -> bool:
    """True when `out` holds the complete fixture set for `seed`."""
    try:
        stamp = json.loads((out / "stamp.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return False
    if stamp != _stamp(seed) or not (out / "manifest.csv").is_file():
        return False
    size = len(f"P5\n{SOURCE_SIZE} {SOURCE_SIZE}\n255\n") + SOURCE_SIZE * SOURCE_SIZE
    for _, _, _, name in image_list():
        path = out / "images" / name
        if not path.is_file() or path.stat().st_size != size:
            return False
    return True


def write_fixtures(out: Path, seed: int) -> None:
    """Write the set for `seed` into a sibling temp dir, then swap it in."""
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "images").mkdir(parents=True)
    header = f"P5\n{SOURCE_SIZE} {SOURCE_SIZE}\n255\n".encode("ascii")
    for idx, _, label, name in image_list():
        (tmp / "images" / name).write_bytes(header + source_pixels(seed, idx, label).tobytes())
    (tmp / "manifest.csv").write_text(manifest_text(), encoding="utf-8")
    (tmp / "stamp.json").write_text(json.dumps(_stamp(seed)), encoding="utf-8")
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)


def pretrain_checkpoint(seed: int, path: Path) -> None:
    """Write the 4-class MiniResNet checkpoint `transfer_hires` starts from.

    Two RCE epochs on xraynet's 64 px synthetic set are enough for the
    frozen features to separate the bar patterns. The writer's state
    tensors also go to `<path>.npz`, so the load can be checked without
    xraynet's own checkpoint reader.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from xraynet import checkpoint, nn, rng, synth, training

    bundle = synth.synthetic_bundle(10, size=64, seed=seed)
    config = training.TrainConfig(preset="RCE", batch_size=8, seed=seed, input_size=64)
    model = nn.build_model(nn.mini_resnet(num_classes=4, input_size=64),
                           rng.derive_stream(seed, "bench.pretrain"))
    optimizer = training.Adam()
    for epoch in range(2):
        training.train_epoch(model, bundle, config, optimizer, epoch)
    checkpoint.save_checkpoint(model, path, epoch=2, seed=seed)
    np.savez(str(path) + ".npz", **model.store.state_tensors())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--checkpoint", type=Path, required=True)
    args = ap.parse_args()
    if not is_current(args.out, args.seed):
        write_fixtures(args.out, args.seed)
    args.checkpoint.parent.mkdir(parents=True, exist_ok=True)
    pretrain_checkpoint(args.seed, args.checkpoint)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
