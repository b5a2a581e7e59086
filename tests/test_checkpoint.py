import struct
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from xraynet.checkpoint import (MAGIC, VERSION, CheckpointError, _meta_tensors, _pack_tensor,
                                load_checkpoint, model_from_checkpoint, read_checkpoint,
                                save_checkpoint)
from xraynet.nn import HEAD_PREFIX, build_model, mini_densenet, mini_resnet, replace_head
from xraynet.rng import derive_stream


def _write_raw(path, records, version=VERSION, extra_count=0, tail=b""):
    """A checkpoint file holding exactly the (name, array) `records`, in
    order, with a valid CRC; the header may claim another version or
    `extra_count` more records, and `tail` bytes may follow the records."""
    records = list(records)
    blob = b"".join([MAGIC, struct.pack("<II", version, len(records) + extra_count)]
                    + [_pack_tensor(n, a) for n, a in records] + [tail])
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


@pytest.fixture
def resnet_model():
    return build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(1, "init"))


def test_round_trip_bit_exact(tmp_path, resnet_model):
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path, epoch=3, seed=42)
    other = build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(99, "init"))
    meta = load_checkpoint(other, path)
    for name, arr in resnet_model.store.state_tensors().items():
        npt.assert_array_equal(other.store.state_tensors()[name], arr)
    assert meta["epoch"] == 3
    assert meta["seed"] == 42
    assert meta["arch"] == mini_resnet(num_classes=4, input_size=32)


def test_save_load_save_byte_identical(tmp_path, resnet_model):
    p1 = tmp_path / "a.xrnc"
    p2 = tmp_path / "b.xrnc"
    save_checkpoint(resnet_model, p1, epoch=1, seed=7)
    other = build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(5, "init"))
    load_checkpoint(other, p1)
    save_checkpoint(other, p2, epoch=1, seed=7)
    assert p1.read_bytes() == p2.read_bytes()


def test_corrupt_magic_rejected(tmp_path, resnet_model):
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"JUNK"
    # keep CRC consistent so the magic check itself is what fires
    import struct, zlib
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(path)


def test_flipped_byte_fails_crc(tmp_path, resnet_model):
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        read_checkpoint(path)


def test_truncated_file_rejected(tmp_path, resnet_model):
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 3])
    with pytest.raises(CheckpointError):
        read_checkpoint(path)
    path.write_bytes(blob[:10])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(path)


def test_head_mismatch_requires_flag(tmp_path, resnet_model):
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    two_class = build_model(mini_resnet(num_classes=2, input_size=32), derive_stream(2, "init"))
    with pytest.raises(CheckpointError, match="head.weight"):
        load_checkpoint(two_class, path)


@pytest.mark.parametrize("num_classes", [4, 2], ids=["same_shape", "mismatched_shape"])
def test_backbone_only_keeps_the_model_head(tmp_path, resnet_model, num_classes):
    # shift every source tensor, buffers and zero-initialised biases included,
    # so no tensor of the target equals the file's before the load
    for arr in resnet_model.store.state_tensors().values():
        arr += 0.25
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    target = build_model(mini_resnet(num_classes=num_classes, input_size=32),
                         derive_stream(2, "init"))
    head = {n: a.copy() for n, a in target.store.state_tensors().items()
            if n.startswith(HEAD_PREFIX)}
    assert sorted(head) == ["head.bias", "head.weight"]
    load_checkpoint(target, path, backbone_only=True)
    source = resnet_model.store.state_tensors()
    for name, arr in target.store.state_tensors().items():
        npt.assert_array_equal(arr, head[name] if name in head else source[name])
    assert target.config.num_classes == num_classes


def test_family_mismatch_rejected_before_any_copy(tmp_path, resnet_model):
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    dense = build_model(mini_densenet(num_classes=4, input_size=32), derive_stream(3, "init"))
    before = {n: a.copy() for n, a in dense.store.state_tensors().items()}
    with pytest.raises(CheckpointError, match="holds a resnet backbone"):
        load_checkpoint(dense, path)
    for name, arr in dense.store.state_tensors().items():
        npt.assert_array_equal(arr, before[name])


@pytest.mark.parametrize("config,code,digest", [(mini_resnet, 0, 2485430723),
                                                (mini_densenet, 1, 2258372125)])
def test_files_of_earlier_versions_stay_loadable(tmp_path, config, code, digest):
    # the layout earlier versions wrote, with the topology CRC they carried
    # in meta.digest (now ignored), saved at epoch 3 with seed 42
    source = build_model(config(num_classes=4, input_size=32), derive_stream(1, "init"))
    tensors = dict(source.store.state_tensors())
    tensors["meta.arch"] = np.array([code, 1, 32, 4], dtype=np.float32)
    tensors["meta.digest"] = np.array([(digest >> (8 * i)) & 0xFF for i in range(4)],
                                      dtype=np.float32)
    tensors["meta.epoch"] = np.array([3], dtype=np.float32)
    tensors["meta.seed"] = np.array([42, 0, 0, 0], dtype=np.float32)
    old = tmp_path / "old.xrnc"
    _write_raw(old, tensors.items())
    target = build_model(config(num_classes=4, input_size=32), derive_stream(99, "init"))
    meta = load_checkpoint(target, old)
    assert meta == {"epoch": 3, "seed": 42, "arch": config(num_classes=4, input_size=32)}
    for name, arr in source.store.state_tensors().items():
        npt.assert_array_equal(target.store.state_tensors()[name], arr)
    # a new file is the same records without meta.digest, so the 4-entry
    # meta.arch that earlier readers parse is still there
    new = tmp_path / "new.xrnc"
    save_checkpoint(target, new, epoch=3, seed=42)
    del tensors["meta.digest"]
    expected = tmp_path / "expected.xrnc"
    _write_raw(expected, tensors.items())
    assert new.read_bytes() == expected.read_bytes()


def test_model_from_checkpoint_rebuilds(tmp_path):
    model = build_model(mini_densenet(num_classes=3, input_size=16), derive_stream(4, "init"))
    path = tmp_path / "d.xrnc"
    save_checkpoint(model, path, epoch=2, seed=9)
    rebuilt, meta = model_from_checkpoint(path)
    assert meta["arch"] == mini_densenet(num_classes=3, input_size=16)
    assert rebuilt.config.num_classes == 3
    for name, arr in model.store.state_tensors().items():
        npt.assert_array_equal(rebuilt.store.state_tensors()[name], arr)


def test_round_trip_after_head_replacement(tmp_path, resnet_model):
    replace_head(resnet_model, 2, derive_stream(7, "head"))
    path = tmp_path / "two.xrnc"
    save_checkpoint(resnet_model, path)
    target = build_model(mini_resnet(num_classes=2, input_size=32), derive_stream(6, "init"))
    load_checkpoint(target, path)
    for name, arr in resnet_model.store.state_tensors().items():
        npt.assert_array_equal(target.store.state_tensors()[name], arr)


def test_replaced_head_sets_the_class_count_everywhere(tmp_path, resnet_model):
    replace_head(resnet_model, 2, derive_stream(7, "head"))
    assert resnet_model.config.num_classes == 2
    path = tmp_path / "two.xrnc"
    save_checkpoint(resnet_model, path)
    rebuilt, meta = model_from_checkpoint(path)
    assert rebuilt.config == meta["arch"] == mini_resnet(num_classes=2, input_size=32)
    assert rebuilt.head.weight.shape == (2, rebuilt.feature_dim)


def test_running_stats_round_trip(tmp_path, resnet_model):
    # mutate a running buffer, then confirm it survives the trip
    resnet_model.store.buffers["stem.bn.running_mean"][...] = 0.25
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    other = build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(8, "init"))
    load_checkpoint(other, path)
    npt.assert_array_equal(other.store.buffers["stem.bn.running_mean"],
                           np.full(16, 0.25, dtype=np.float32))


# an entry of meta.epoch or meta.seed that is no whole number below its bound
META_DEFECTS = {"inf_epoch": ("meta.epoch", 0, np.inf), "nan_epoch": ("meta.epoch", 0, np.nan),
                "negative_epoch": ("meta.epoch", 0, -1),
                "nan_seed_limb": ("meta.seed", 1, np.nan),
                "fractional_seed_limb": ("meta.seed", 0, 5.5),
                "seed_limb_over_16_bits": ("meta.seed", 2, 70000)}


@pytest.mark.parametrize("defect", ["last_shape", "no_metadata", "short_arch",
                                    "unknown_family", "fractional_family", "one_class",
                                    "zero_size", "nan_size", "fractional_size",
                                    "fractional_classes", *META_DEFECTS, "version",
                                    "record_count", "trailing_bytes", "extra_tensor",
                                    "missing_tensor", "duplicate_record"])
def test_rejected_load_leaves_model_untouched(tmp_path, resnet_model, defect):
    # every tensor of a differently seeded model, with one defect: the last
    # buffer's shape or presence, checked after all the others have passed, a
    # tensor the model lacks, a metadata record or an impossible meta.arch
    # (family code, class count or input size, or a fractional one, which
    # int() would truncate to a valid record), an entry of meta.epoch or
    # meta.seed that is no whole number in [0, 2**24) or in a seed limb's
    # [0, 2**16), or the byte layout (under a recomputed CRC), each checked
    # before any tensor is copied and named with the file, or a second record
    # of a tensor (zeros, which a later-record-wins reader would load);
    # rebuilding a model from the file fails the same way
    source = build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(11, "init"))
    tensors = dict(source.store.state_tensors())
    last = list(tensors)[-1]
    tensors.update(_meta_tensors(source, 0, 0))
    match = "meta.arch"
    layout, extra = {}, []
    if defect == "last_shape":
        tensors[last] = np.zeros(tensors[last].size + 1, dtype=np.float32)
        match = f"shape mismatch for '{last}'"
    elif defect == "no_metadata":
        tensors = dict(source.store.state_tensors())
    elif defect == "short_arch":
        tensors["meta.arch"] = tensors["meta.arch"][:2]
    elif defect == "unknown_family":
        tensors["meta.arch"][0] = 7
    elif defect == "fractional_family":
        tensors["meta.arch"][0] = 0.5
    elif defect == "one_class":
        tensors["meta.arch"][3] = 1
    elif defect == "zero_size":
        tensors["meta.arch"][2] = 0
    elif defect == "nan_size":
        tensors["meta.arch"][2] = np.nan
    elif defect == "fractional_size":
        tensors["meta.arch"][2] = 32.9
    elif defect == "fractional_classes":
        tensors["meta.arch"][3] = 4.5
    elif defect in META_DEFECTS:
        match, i, value = META_DEFECTS[defect]
        tensors[match][i] = value
    elif defect == "version":
        layout, match = {"version": VERSION + 1}, f"unsupported version {VERSION + 1}"
    elif defect == "record_count":
        layout, match = {"extra_count": 1}, "truncated tensor record"
    elif defect == "trailing_bytes":
        layout, match = {"tail": b"\x00" * 3}, "3 trailing bytes"
    elif defect == "extra_tensor":
        tensors["stage9.block0.conv1.kernel"] = np.ones((2, 2), dtype=np.float32)
        match = "not present in the target model: .'stage9.block0.conv1.kernel'."
    elif defect == "duplicate_record":
        extra = [("stem.conv.kernel", np.zeros_like(tensors["stem.conv.kernel"]))]
        match = "duplicate tensor record 'stem.conv.kernel'"
    else:
        del tensors[last]
        match = f"missing tensor '{last}'"
    path = tmp_path / "bad.xrnc"
    _write_raw(path, [*tensors.items(), *extra], **layout)
    before = {n: a.copy() for n, a in resnet_model.store.state_tensors().items()}
    with pytest.raises(CheckpointError, match=match) as exc:
        load_checkpoint(resnet_model, path)
    assert str(exc.value).startswith(f"{path}: ")
    for name, arr in resnet_model.store.state_tensors().items():
        npt.assert_array_equal(arr, before[name])
    with pytest.raises(CheckpointError, match=match):
        model_from_checkpoint(path)


def test_model_from_checkpoint_reads_the_file_once(tmp_path, resnet_model, monkeypatch):
    import xraynet.checkpoint as ckpt_module

    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    calls = []
    read = ckpt_module.read_checkpoint
    monkeypatch.setattr(ckpt_module, "read_checkpoint",
                        lambda p: calls.append(p) or read(p))
    model_from_checkpoint(path)
    assert calls == [path]


def test_failed_write_keeps_previous_file(tmp_path, resnet_model, monkeypatch):
    import xraynet.checkpoint as ckpt_module

    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path, epoch=1)
    before = path.read_bytes()

    class FailingFile:
        """Writes half of what it is given, then fails as a full disk would."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(ckpt_module, "open", lambda p, mode: FailingFile(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(resnet_model, path, epoch=2)
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]
