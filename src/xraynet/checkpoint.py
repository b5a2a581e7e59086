"""Binary checkpoint store: the transfer-learning currency.

Wire format (little-endian throughout):

    magic "XRNC" | u32 version = 1 | u32 tensor count |
    per tensor: u16 name length, UTF-8 name, u8 ndim, ndim x u32 dims,
                prod(dims) x f32 values |
    trailing u32 CRC32 of all preceding bytes

Run metadata (epoch, seed, architecture fingerprint) rides inside the same
format as reserved ``meta.*`` tensors, so a checkpoint stays a single
self-describing file. Model state round-trips bit-exactly.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

import numpy as np

from .nn import HEAD_PREFIX, ArchitectureConfig, Model
from .rng import Pcg32

MAGIC = b"XRNC"
VERSION = 1
META_PREFIX = "meta."

_FAMILY_CODES = {"resnet": 0.0, "densenet": 1.0}
_FAMILY_NAMES = {0: "resnet", 1: "densenet"}


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
    digest = cfg.backbone_digest()
    return {
        # the 1 is the input channel count, which every Mini backbone fixes
        "meta.arch": np.array([_FAMILY_CODES[cfg.family], 1,
                               cfg.input_size, model.num_classes], dtype=np.float32),
        "meta.digest": np.array([(digest >> (8 * i)) & 0xFF for i in range(4)], dtype=np.float32),
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
    """Parse a checkpoint file into (state tensors, metadata)."""
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

    meta: dict = {}
    state = {n: a for n, a in tensors.items() if not n.startswith(META_PREFIX)}
    if "meta.epoch" in tensors:
        meta["epoch"] = int(tensors["meta.epoch"][0])
    if "meta.seed" in tensors:
        limbs = tensors["meta.seed"].astype(np.int64)
        meta["seed"] = int(sum(int(limbs[i]) << (16 * i) for i in range(4)))
    if "meta.digest" in tensors:
        b = tensors["meta.digest"].astype(np.int64)
        meta["digest"] = int(sum(int(b[i]) << (8 * i) for i in range(4)))
    if "meta.arch" in tensors:
        a = tensors["meta.arch"]
        meta["arch"] = {
            "family": _FAMILY_NAMES.get(int(a[0]), "unknown"),
            "input_channels": int(a[1]),
            "input_size": int(a[2]),
            "num_classes": int(a[3]),
        }
    return state, meta


def load_checkpoint(model: Model, path, allow_head_mismatch: bool = False) -> dict:
    """Load a checkpoint into `model`, returning its metadata.

    Every tensor must match the model by name and shape; all are checked
    before any is copied, so a rejected file leaves the model untouched. With
    `allow_head_mismatch`, classifier-head tensors that are missing or
    differently shaped are skipped (the model keeps its current head).
    """
    state, meta = read_checkpoint(path)
    digest = meta.get("digest")
    if digest is not None and digest != model.config.backbone_digest():
        raise CheckpointError(
            f"{path}: checkpoint backbone does not match the target model "
            f"(digest {digest:#010x} vs {model.config.backbone_digest():#010x})")

    targets = model.store.state_tensors()
    extra = sorted(set(state) - set(targets))
    if extra:
        raise CheckpointError(f"{path}: tensors not present in the target model: {extra}")
    copies = []
    for name, dst in targets.items():
        src = state.get(name)
        is_head = name.startswith(HEAD_PREFIX)
        if src is None:
            if is_head and allow_head_mismatch:
                continue
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if src.shape != dst.shape:
            if is_head and allow_head_mismatch:
                continue
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: file {src.shape} vs model {dst.shape}")
        copies.append((dst, src))
    for dst, src in copies:
        np.copyto(dst, src.astype(dst.dtype, copy=False))
    return meta


def model_from_checkpoint(path) -> tuple[Model, dict]:
    """Rebuild a Mini-preset model described by a checkpoint's metadata and load it."""
    _, meta = read_checkpoint(path)
    arch = meta.get("arch")
    if not arch or arch["family"] not in ("resnet", "densenet"):
        raise CheckpointError(f"{path}: checkpoint carries no usable architecture metadata")
    config = ArchitectureConfig(arch["family"], arch["input_size"], arch["num_classes"])
    model = Model(config, Pcg32(0, 0))
    load_checkpoint(model, path)
    return model, meta
