import numpy as np
import numpy.testing as npt
import pytest

from xraynet.dataset import class_distribution, default_mapping, parse_manifest
from xraynet.images import read_pgm
from xraynet.synth import make_synthetic_dataset, synthetic_bundle, write_synthetic_dataset
from xraynet.training import TrainConfig, fit


def gradient_features(pixels: np.ndarray) -> np.ndarray:
    """Directional gradient energies at two scales: enough to separate
    orientation (dx vs dy) and frequency (lag-1 vs lag-4 ratio)."""
    p = pixels.astype(np.float64) / 255.0
    return np.array([
        np.abs(np.diff(p, axis=1)).mean(),          # vertical-bar energy
        np.abs(np.diff(p, axis=0)).mean(),          # horizontal-bar energy
        np.abs(p[:, 4:] - p[:, :-4]).mean(),
        np.abs(p[4:, :] - p[:-4, :]).mean(),
        p.std(),
    ])


class TestGenerator:
    def test_record_counts(self):
        records, images = make_synthetic_dataset(5, size=64, seed=0)
        assert len(records) == 20
        for c in range(4):
            assert sum(r.label == c for r in records) == 5
        assert set(images) == {r.image_ref for r in records}

    def test_same_seed_bit_identical(self):
        _, a = make_synthetic_dataset(3, size=32, seed=9)
        _, b = make_synthetic_dataset(3, size=32, seed=9)
        for ref in a:
            npt.assert_array_equal(a[ref].pixels, b[ref].pixels)

    def test_different_seeds_differ(self):
        _, a = make_synthetic_dataset(1, size=32, seed=1)
        _, b = make_synthetic_dataset(1, size=32, seed=2)
        assert any(not np.array_equal(a[r].pixels, b[r].pixels) for r in a)

    def test_per_class_counts_with_zeros(self):
        records, _ = make_synthetic_dataset((4, 0, 0, 2), size=16, seed=3)
        assert len(records) == 6
        assert sum(r.label == 0 for r in records) == 4
        assert sum(r.label == 3 for r in records) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_dataset(0, size=16, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_dataset(2, size=8, seed=0)
        with pytest.raises(ValueError):
            make_synthetic_dataset((1, 2, 3), size=16, seed=0)

    def test_linear_classifier_separates_classes(self):
        # least-squares one-vs-all on pixel statistics, disjoint train/eval pools
        train_recs, train_imgs = make_synthetic_dataset(25, size=64, seed=11)
        eval_recs, eval_imgs = make_synthetic_dataset(25, size=64, seed=11, split="Test")

        def featurize(records, images):
            x = np.stack([gradient_features(images[r.image_ref].pixels) for r in records])
            y = np.array([r.label for r in records])
            return np.hstack([x, np.ones((len(records), 1))]), y

        xtr, ytr = featurize(train_recs, train_imgs)
        xev, yev = featurize(eval_recs, eval_imgs)
        onehot = np.eye(4)[ytr]
        coef, *_ = np.linalg.lstsq(xtr, onehot, rcond=None)
        acc = float((np.argmax(xev @ coef, axis=1) == yev).mean())
        assert acc > 0.90


class TestBundle:
    def test_splits_and_counts(self):
        bundle = synthetic_bundle(10, size=32, seed=0)
        assert len(bundle.train) + len(bundle.val) == 40
        assert len(bundle.test) == 40
        assert bundle.num_classes == 4
        npt.assert_array_equal(bundle.train_class_counts() +
                               np.bincount([r.label for r in bundle.val], minlength=4),
                               [10, 10, 10, 10])

    def test_train_and_test_pools_disjoint_images(self):
        bundle = synthetic_bundle(2, size=32, seed=1)
        train_refs = {r.image_ref for r in bundle.train + bundle.val}
        test_refs = {r.image_ref for r in bundle.test}
        assert not train_refs & test_refs

    def test_binary_bundle(self):
        bundle = synthetic_bundle((20, 0, 4, 0), size=32, seed=2,
                                  test_per_class=(5, 0, 5, 0), binary=(0, 2))
        assert bundle.num_classes == 2
        counts = bundle.train_class_counts()
        assert counts.sum() + len(bundle.val) == 24
        assert {r.label for r in bundle.test} == {0, 1}

    @pytest.mark.parametrize("binary, bad", [((0, 7), 7), ((4, 0), 4), ((0, -1), -1)])
    def test_binary_class_index_outside_the_classes_rejected(self, binary, bad):
        with pytest.raises(ValueError, match=f"class index {bad} out of range 0..3"):
            synthetic_bundle(3, size=16, binary=binary)

    def test_binary_bundle_without_test_records_fails_in_fit(self):
        bundle = synthetic_bundle((3, 0, 3, 0), size=16, seed=2,
                                  test_per_class=(0, 3, 0, 3), binary=(0, 2))
        assert bundle.test == [] and bundle.num_classes == 2
        with pytest.raises(ValueError, match="test split is empty"):
            fit(TrainConfig(preset="RCE", num_classes=2, input_size=16), bundle)


class TestDiskExport:
    def test_write_and_reparse(self, tmp_path):
        manifest, img_dir = write_synthetic_dataset(tmp_path, 3, size=16, seed=4)
        result = parse_manifest(manifest.read_bytes(), default_mapping())
        assert result.skip_count == 0
        counts = class_distribution(result.records)
        npt.assert_array_equal(counts[:, 0], [3, 3, 3, 3])
        npt.assert_array_equal(counts[:, 1], [3, 3, 3, 3])  # disjoint test pool
        # every referenced image decodes and has the advertised size
        for rec in result.records:
            img = read_pgm((tmp_path / rec.image_ref).read_bytes())
            assert (img.height, img.width) == (16, 16)

    def test_written_images_match_generator(self, tmp_path):
        manifest, img_dir = write_synthetic_dataset(tmp_path, 1, size=16, seed=5)
        for split in ("Train", "Test"):
            _, images = make_synthetic_dataset(1, size=16, seed=5, split=split)
            for ref, img in images.items():
                on_disk = read_pgm((img_dir / ref).read_bytes())
                npt.assert_array_equal(on_disk.pixels, img.pixels)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
    def test_seed_outside_64_bits_rejected_before_anything_is_written(self, tmp_path, seed):
        out = tmp_path / "data"
        with pytest.raises(ValueError, match="seed"):
            write_synthetic_dataset(out, 1, size=16, seed=seed)
        assert not out.exists()
        with pytest.raises(ValueError, match="seed"):
            synthetic_bundle(1, size=16, seed=seed)
