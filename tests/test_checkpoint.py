import struct
import zlib

import numpy as np
import numpy.testing as npt
import pytest

from xraynet.checkpoint import (MAGIC, VERSION, CheckpointError, _meta_tensors, _pack_tensor,
                                load_checkpoint, model_from_checkpoint, read_checkpoint,
                                save_checkpoint)
from xraynet.nn import build_model, mini_densenet, mini_resnet, replace_head
from xraynet.rng import derive_stream


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
    assert meta["arch"]["family"] == "resnet"
    assert meta["arch"]["num_classes"] == 4


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


def test_head_mismatch_skips_head_when_allowed(tmp_path, resnet_model):
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    two_class = build_model(mini_resnet(num_classes=2, input_size=32), derive_stream(2, "init"))
    fresh_head = two_class.store.params["head.weight"].data.copy()
    load_checkpoint(two_class, path, allow_head_mismatch=True)
    npt.assert_array_equal(two_class.store.params["head.weight"].data, fresh_head)
    npt.assert_array_equal(two_class.store.params["stem.conv.kernel"].data,
                           resnet_model.store.params["stem.conv.kernel"].data)
    assert two_class.num_classes == 2


def test_family_mismatch_rejected_via_digest(tmp_path, resnet_model):
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    dense = build_model(mini_densenet(num_classes=4, input_size=32), derive_stream(3, "init"))
    with pytest.raises(CheckpointError, match="backbone"):
        load_checkpoint(dense, path)


def test_files_of_earlier_versions_stay_loadable(tmp_path, resnet_model):
    # the digests and the 1-channel arch entry that earlier versions wrote:
    # a change to either rejects every checkpoint saved before it
    assert mini_resnet().backbone_digest() == 2485430723
    assert mini_densenet().backbone_digest() == 2258372125
    assert mini_resnet(num_classes=2, input_size=32).backbone_digest() == 2485430723
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    _, meta = read_checkpoint(path)
    assert meta["arch"]["input_channels"] == 1
    assert meta["digest"] == 2485430723


def test_model_from_checkpoint_rebuilds(tmp_path):
    model = build_model(mini_densenet(num_classes=3, input_size=16), derive_stream(4, "init"))
    path = tmp_path / "d.xrnc"
    save_checkpoint(model, path, epoch=2, seed=9)
    rebuilt, meta = model_from_checkpoint(path)
    assert meta["arch"]["family"] == "densenet"
    assert rebuilt.num_classes == 3
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


def test_running_stats_round_trip(tmp_path, resnet_model):
    # mutate a running buffer, then confirm it survives the trip
    resnet_model.store.buffers["stem.bn.running_mean"][...] = 0.25
    path = tmp_path / "model.xrnc"
    save_checkpoint(resnet_model, path)
    other = build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(8, "init"))
    load_checkpoint(other, path)
    npt.assert_array_equal(other.store.buffers["stem.bn.running_mean"],
                           np.full(16, 0.25, dtype=np.float32))


def test_rejected_load_leaves_model_untouched(tmp_path, resnet_model):
    # every tensor of a differently seeded model, but the last buffer has one
    # entry too many: the shape check fires after all the others have passed
    source = build_model(mini_resnet(num_classes=4, input_size=32), derive_stream(11, "init"))
    tensors = dict(source.store.state_tensors())
    last = list(tensors)[-1]
    tensors[last] = np.zeros(tensors[last].size + 1, dtype=np.float32)
    tensors.update(_meta_tensors(source, 0, 0))
    blob = b"".join([MAGIC, struct.pack("<II", VERSION, len(tensors))]
                    + [_pack_tensor(n, a) for n, a in tensors.items()])
    path = tmp_path / "bad.xrnc"
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
    before = {n: a.copy() for n, a in resnet_model.store.state_tensors().items()}
    with pytest.raises(CheckpointError, match=f"shape mismatch for '{last}'"):
        load_checkpoint(resnet_model, path)
    for name, arr in resnet_model.store.state_tensors().items():
        npt.assert_array_equal(arr, before[name])


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
