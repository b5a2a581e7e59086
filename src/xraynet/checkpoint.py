"""Binary checkpoint store: the transfer-learning currency.

Wire format (little-endian throughout):

    magic "XRNC" | u32 version = 1 | u32 tensor count |
    per tensor: u16 name length, UTF-8 name, u8 ndim, ndim x u32 dims,
                prod(dims) x f32 values |
    trailing u32 CRC32 of all preceding bytes

Run metadata (epoch, seed, and the architecture: family, input channels,
input size, class count) rides inside the same format as reserved ``meta.*``
tensors, so a checkpoint stays a single self-describing file. Model state
round-trips bit-exactly.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .nn import FAMILIES, HEAD_PREFIX, ArchitectureConfig, Model
from .rng import Pcg32

MAGIC = b"XRNC"
VERSION = 1
META_PREFIX = "meta."
# the run metadata records every file must carry, by shape
META_SHAPES = {"meta.arch": (4,), "meta.epoch": (1,), "meta.seed": (4,)}


class CheckpointError(ValueError):
    """Raised for malformed, truncated, or mismatched checkpoint files."""


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode("utf-8")
    if len(nb) > 0xFFFF:
        raise CheckpointError(f"tensor name too long: {name!r}")
    if arr.ndim > 0xFF:
        raise CheckpointError(f"tensor rank {arr.ndim} unsupported")
    parts = [struct.pack("<H", len(nb)), nb, struct.pack("<B", arr.ndim)]
    for d in arr.shape:
        parts.append(struct.pack("<I", d))
    parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def _meta_tensors(model: Model, epoch: int, seed: int) -> dict[str, np.ndarray]:
    cfg = model.config
    return {
        # the 1 is the input channel count, which every Mini backbone fixes
        "meta.arch": np.array([FAMILIES.index(cfg.family), 1,
                               cfg.input_size, cfg.num_classes], dtype=np.float32),
        "meta.epoch": np.array([epoch], dtype=np.float32),
        "meta.seed": np.array([(seed >> (16 * i)) & 0xFFFF for i in range(4)], dtype=np.float32),
    }


def save_checkpoint(model: Model, path, epoch: int = 0, seed: int = 0) -> None:
    """Write model parameters, batch-norm buffers, and metadata to `path`.

    The file is replaced atomically: a write that fails part-way leaves the
    previous file at `path` as it was.
    """
    tensors = dict(model.store.state_tensors())
    tensors.update(_meta_tensors(model, epoch, seed))
    body = [MAGIC, struct.pack("<I", VERSION), struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        body.append(_pack_tensor(name, np.asarray(arr)))
    blob = b"".join(body)
    blob += struct.pack("<I", zlib.crc32(blob))
    # write a sibling file, then rename it over `path`: a failed or interrupted
    # write leaves any previous checkpoint intact
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Parse a checkpoint file into (state tensors, metadata).

    The one reader of ``meta.*``: each `META_SHAPES` record must be present at
    its shape and `meta.arch` must name a family; `meta.digest` is ignored.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated checkpoint (only {len(blob)} bytes)")
    payload, crc_bytes = blob[:-4], blob[-4:]
    if zlib.crc32(payload) != struct.unpack("<I", crc_bytes)[0]:
        raise CheckpointError(f"{path}: CRC mismatch, file corrupt")
    if payload[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {payload[:4]!r}, not a checkpoint")
    version, count = struct.unpack_from("<II", payload, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    off = 12
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (nlen,) = struct.unpack_from("<H", payload, off)
            off += 2
            name = payload[off:off + nlen].decode("utf-8")
            off += nlen
            (ndim,) = struct.unpack_from("<B", payload, off)
            off += 1
            dims = struct.unpack_from(f"<{ndim}I", payload, off)
            off += 4 * ndim
            n = int(np.prod(dims)) if ndim else 1
            arr = np.frombuffer(payload, dtype="<f4", count=n, offset=off).reshape(dims)
            off += 4 * n
        except (struct.error, ValueError) as e:
            raise CheckpointError(f"{path}: truncated tensor record ({e})") from None
        tensors[name] = arr.copy()
    if off != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - off} trailing bytes after tensor records")

    for name, shape in META_SHAPES.items():
        rec = tensors.get(name)
        if rec is None or rec.shape != shape:
            raise CheckpointError(f"{path}: metadata record {name} must have shape {shape}, "
                                  f"found {None if rec is None else rec.shape}")
    arch = tensors["meta.arch"]
    if arch[0] not in range(len(FAMILIES)):
        raise CheckpointError(f"{path}: unknown family code {arch[0]} in meta.arch")
    limbs = tensors["meta.seed"].astype(np.int64)
    meta = {
        "epoch": int(tensors["meta.epoch"][0]),
        "seed": int(sum(int(limbs[i]) << (16 * i) for i in range(4))),
        "arch": {
            "family": FAMILIES[int(arch[0])],
            "input_channels": int(arch[1]),
            "input_size": int(arch[2]),
            "num_classes": int(arch[3]),
        },
    }
    state = {n: a for n, a in tensors.items() if not n.startswith(META_PREFIX)}
    return state, meta


def _copy_state(model: Model, state: dict[str, np.ndarray], path,
                backbone_only: bool = False) -> None:
    targets = model.store.state_tensors()
    extra = sorted(set(state) - set(targets))
    if extra:
        raise CheckpointError(f"{path}: tensors not present in the target model: {extra}")
    copies = []
    for name, dst in targets.items():
        if backbone_only and name.startswith(HEAD_PREFIX):
            continue
        src = state.get(name)
        if src is None:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if src.shape != dst.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: file {src.shape} vs model {dst.shape}")
        copies.append((dst, src))
    for dst, src in copies:
        np.copyto(dst, src.astype(dst.dtype, copy=False))


def load_checkpoint(model: Model, path, backbone_only: bool = False) -> dict:
    """Load a checkpoint into `model`, returning its metadata.

    The family that `meta.arch` records must be the model's, and every tensor
    must match the model by name and shape; all are checked before any is
    copied, so a rejected file leaves the model untouched. With
    `backbone_only`, the file's classifier-head tensors are never read: the
    model keeps its own head, whatever the file's class count.
    """
    state, meta = read_checkpoint(path)
    family = meta["arch"]["family"]
    if family != model.config.family:
        raise CheckpointError(
            f"{path}: checkpoint holds a {family} backbone, the target model is a "
            f"{model.config.family}")
    _copy_state(model, state, path, backbone_only)
    return meta


def model_from_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild a Mini-preset model described by a checkpoint's metadata and load it."""
    state, meta = read_checkpoint(path)
    arch = meta["arch"]
    config = ArchitectureConfig(arch["family"], arch["input_size"], arch["num_classes"])
    model = Model(config, Pcg32(0, 0))
    _copy_state(model, state, path)
    return model, meta
