import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xraynet.dataset import (ClassLabel, SampleRecord, binary_filter,
                             class_distribution, compute_class_weights, default_mapping,
                             make_batch, one_hot, parse_manifest, sample_weights,
                             stratified_val_split, weighted_sample)
from scripted import ScriptedStream
from xraynet import images
from xraynet.images import GrayImage, augment, resize_bilinear, to_unit_float
from xraynet.rng import Pcg32, derive_stream
from xraynet.synth import make_synthetic_dataset, manifest_csv

# paper-reported CoronaHack class sizes, used to build a same-shape manifest
CORONAHACK_COUNTS = {"Normal": 1575, "Bacteria": 2778, "Virus": 1494, "Covid19": 82}

# chi-square 99.9% quantile, 9 degrees of freedom (frozen from scipy.stats.chi2.ppf)
CHI2_999_DF9 = 27.877164871256568


def coronahack_like_manifest(counts=CORONAHACK_COUNTS, split="TRAIN"):
    rows = ["X_ray_image_name,Label,Dataset_type,Label_1_Virus_category,Label_2_Virus_category"]
    spec = {
        "Normal": ("Normal", "", ""),
        "Bacteria": ("Pnemonia", "bacteria", ""),
        "Virus": ("Pnemonia", "Virus", ""),
        "Covid19": ("Pnemonia", "Virus", "COVID-19"),
    }
    i = 0
    for name, n in counts.items():
        label, l1, l2 = spec[name]
        for _ in range(n):
            rows.append(f"img_{i:05d}.jpeg,{label},{split},{l1},{l2}")
            i += 1
    return "\n".join(rows) + "\n"


class TestParseManifest:
    def test_four_rows_all_labels(self):
        csv = coronahack_like_manifest({"Normal": 1, "Bacteria": 1, "Virus": 1, "Covid19": 1})
        result = parse_manifest(csv, default_mapping())
        assert [r.label for r in result.records] == [0, 1, 2, 3]
        assert result.skip_count == 0

    def test_unmatched_row_skipped_with_reason(self):
        csv = ("X_ray_image_name,Label,Dataset_type,Label_1_Virus_category,Label_2_Virus_category\n"
               "a.jpeg,Normal,TRAIN,,\n"
               "b.jpeg,Pnemonia,TRAIN,Stress-Smoking,\n")
        result = parse_manifest(csv, default_mapping())
        assert len(result.records) == 1
        assert result.skip_count == 1
        assert result.skipped[0][1] == "no label rule matched"

    def test_unknown_split_skipped(self):
        csv = ("X_ray_image_name,Label,Dataset_type,Label_1_Virus_category,Label_2_Virus_category\n"
               "a.jpeg,Normal,WEIRD,,\n")
        result = parse_manifest(csv, default_mapping())
        assert result.skip_count == 1
        assert "WEIRD" in result.skipped[0][1]

    def test_missing_configured_column_rejected(self):
        with pytest.raises(ValueError, match="missing configured columns"):
            parse_manifest("X_ray_image_name,Label\na,Normal\n", default_mapping())

    def test_paper_class_counts_reproduced_exactly(self):
        result = parse_manifest(coronahack_like_manifest(), default_mapping())
        counts = class_distribution(result.records)
        total_per_class = counts.sum(axis=1)
        npt.assert_array_equal(total_per_class, [1575, 2778, 1494, 82])
        assert result.skip_count == 0

    def test_byte_and_str_inputs_agree(self):
        csv = coronahack_like_manifest({"Normal": 2, "Bacteria": 0, "Virus": 0, "Covid19": 1})
        a = parse_manifest(csv, default_mapping())
        b = parse_manifest(csv.encode("utf-8"), default_mapping())
        assert a.records == b.records

    def test_rule_order_puts_covid_before_virus(self):
        # covid rows also match the generic virus rule; first match must win
        csv = ("X_ray_image_name,Label,Dataset_type,Label_1_Virus_category,Label_2_Virus_category\n"
               "a.jpeg,Pnemonia,TRAIN,Virus,COVID-19\n")
        result = parse_manifest(csv, default_mapping())
        assert result.records[0].label == int(ClassLabel.Covid19)


class TestClassDistribution:
    def test_empty_is_all_zeros(self):
        npt.assert_array_equal(class_distribution([]), np.zeros((4, 2), dtype=np.int64))

    def test_balanced_synthetic_40(self):
        records, _ = make_synthetic_dataset(10, size=16, seed=0)
        counts = class_distribution(records)
        npt.assert_array_equal(counts[:, 0], [10, 10, 10, 10])
        npt.assert_array_equal(counts[:, 1], [0, 0, 0, 0])

    def test_split_attribution(self):
        records = [SampleRecord("a", 0, "Train"), SampleRecord("b", 0, "Test"),
                   SampleRecord("c", 3, "Test")]
        counts = class_distribution(records)
        assert counts[0, 0] == 1 and counts[0, 1] == 1 and counts[3, 1] == 1


class TestClassWeights:
    def test_paper_counts_reciprocals(self):
        w = compute_class_weights([1575, 2778, 1494, 82])
        npt.assert_allclose(w, [6.3492e-4, 3.5997e-4, 6.6934e-4, 1.21951e-2], rtol=1e-4)
        assert w[3] / w[0] == pytest.approx(1575 / 82, abs=1e-3)  # 19.207

    def test_balanced_counts_equal_weights(self):
        w = compute_class_weights([7, 7, 7, 7])
        npt.assert_allclose(w, np.full(4, 1 / 7))

    def test_two_singletons(self):
        npt.assert_allclose(compute_class_weights([1, 1]), [1.0, 1.0])

    def test_zero_count_rejected_with_instruction(self):
        with pytest.raises(ValueError, match="drop"):
            compute_class_weights([5, 0, 3, 2])

    def test_per_sample_weights(self):
        records = [SampleRecord("a", 0, "Train"), SampleRecord("b", 1, "Train"),
                   SampleRecord("c", 0, "Train")]
        w = sample_weights(records, np.array([0.5, 0.25]))
        npt.assert_allclose(w, [0.5, 0.25, 0.5])


class TestWeightedSample:
    def test_uniform_weights_chi_square(self):
        n_idx, draws = 10, 100_000
        idx = weighted_sample(np.ones(n_idx), draws, derive_stream(1, "sampler"))
        counts = np.bincount(idx, minlength=n_idx)
        expected = draws / n_idx
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_999_DF9

    def test_reciprocal_weights_balance_classes(self):
        counts = [1575, 2778, 1494, 82]
        class_w = compute_class_weights(counts)
        labels = np.repeat(np.arange(4), counts)
        weights = class_w[labels]
        idx = weighted_sample(weights, 100_000, derive_stream(2, "sampler"))
        freq = np.bincount(labels[idx], minlength=4) / 100_000
        npt.assert_allclose(freq, 0.25, atol=0.01)

    def test_degenerate_mass(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_sample(np.array([1.0, 0.0]), 5, Pcg32(0, 0))
        idx = weighted_sample(np.array([1.0, 1e-12]), 2000, Pcg32(1, 0))
        assert np.mean(idx == 0) > 0.999

    def test_deterministic_given_stream(self):
        w = np.array([0.2, 0.3, 0.5])
        a = weighted_sample(w, 50, derive_stream(3, "sampler", 7))
        b = weighted_sample(w, 50, derive_stream(3, "sampler", 7))
        npt.assert_array_equal(a, b)

    def test_needs_at_least_one_draw(self):
        with pytest.raises(ValueError):
            weighted_sample(np.ones(3), 0, Pcg32(0, 0))


class TestBinaryFilter:
    def test_paper_bacteria_virus_count(self):
        result = parse_manifest(coronahack_like_manifest(), default_mapping())
        sub = binary_filter(result.records, int(ClassLabel.Bacteria), int(ClassLabel.Virus))
        assert len(sub) == 2778 + 1494 == 4272
        assert {r.label for r in sub} == {0, 1}

    def test_same_class_rejected(self):
        records = [SampleRecord("a", 0, "Train")]
        with pytest.raises(ValueError, match="distinct"):
            binary_filter(records, 0, 0)

    def test_empty_result_rejected(self):
        records = [SampleRecord("a", 0, "Train")]
        with pytest.raises(ValueError, match="no records"):
            binary_filter(records, 1, 2)

    def test_balanced_synthetic_pair(self):
        records, _ = make_synthetic_dataset(6, size=16, seed=1)
        sub = binary_filter(records, 2, 0)
        assert len(sub) == 12
        assert sum(r.label == 0 for r in sub) == 6  # class 2 -> 0


class TestValSplit:
    def test_stratified_and_deterministic(self):
        records, _ = make_synthetic_dataset(20, size=16, seed=2)
        t1, v1 = stratified_val_split(records, derive_stream(5, "valsplit"))
        t2, v2 = stratified_val_split(records, derive_stream(5, "valsplit"))
        assert t1 == t2 and v1 == v2
        assert len(v1) == 8  # 2 per class
        for c in range(4):
            assert sum(r.label == c for r in v1) == 2

    def test_never_consumes_whole_class(self):
        records = [SampleRecord(f"r{i}", 0, "Train") for i in range(2)]
        train, val = stratified_val_split(records, derive_stream(6, "valsplit"))
        assert len(train) == 1 and len(val) == 1

    def test_singleton_class_stays_in_train(self):
        records = [SampleRecord("solo", 0, "Train")] + \
                  [SampleRecord(f"r{i}", 1, "Train") for i in range(10)]
        train, val = stratified_val_split(records, derive_stream(7, "valsplit"))
        assert any(r.image_ref == "solo" for r in train)
        assert sum(r.label == 1 for r in val) == 1


class TestMakeBatch:
    def test_order_and_scaling(self):
        records, images = make_synthetic_dataset(2, size=16, seed=4)
        x, labels = make_batch(records, [3, 0, 5], images.__getitem__, 16)
        assert x.shape == (3, 1, 16, 16) and x.dtype == np.float32
        assert labels.tolist() == [records[3].label, records[0].label, records[5].label]
        assert 0.0 <= x.min() and x.max() <= 1.0
        expect = images[records[3].image_ref].pixels.astype(np.float32) / 255.0
        npt.assert_allclose(x[0, 0], expect)

    def test_resize_applied(self):
        records, images = make_synthetic_dataset(1, size=32, seed=5)
        x, _ = make_batch(records, [0], images.__getitem__, 16)
        assert x.shape == (1, 1, 16, 16)

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(1, 90), w=st.integers(1, 90), size=st.integers(1, 120),
           seed=st.integers(0, 2**16))
    @example(h=64, w=64, size=64, seed=1)   # identity resize
    @example(h=64, w=64, size=1, seed=2)
    @example(h=90, w=90, size=16, seed=3)   # downscale
    @example(h=7, w=5, size=32, seed=4)     # upscale
    @example(h=37, w=90, size=20, seed=5)   # non-square
    @example(h=90, w=64, size=64, seed=6)   # one axis identity
    def test_bit_identical_to_full_resolution_composition(self, h, w, size, seed):
        pixels = np.floor(Pcg32(seed, 3).uniform_array((h, w), 0, 256)).astype(np.uint8)
        img = GrayImage(pixels)
        # (ROTATION_RANGE, angle uniform): angles 0 (twice), 15, -15, 45 and 180
        rotations = [None, (0.0, 0.3), (15.0, 0.5), (15.0, 1.0), (15.0, 0.0), (45.0, 1.0),
                     (180.0, 1.0)]
        for flip_h in (False, True):
            for flip_v in (False, True):
                for rotation in rotations:
                    uniforms = [0.25 if flip_h else 0.75, 0.25 if flip_v else 0.75,
                                0.75 if rotation is None else 0.25,
                                0.5 if rotation is None else rotation[1]]
                    half_width = images.ROTATION_RANGE if rotation is None else rotation[0]
                    with mock.patch.object(images, "ROTATION_RANGE", half_width):
                        expect = resize_bilinear(
                            to_unit_float(augment(img, ScriptedStream(uniforms))), size, size)
                        x, _ = make_batch([SampleRecord("a", 0, "Train")], [0], lambda ref: img,
                                          size, [ScriptedStream(uniforms)])
                    assert x[0, 0].tobytes() == expect.tobytes(), (flip_h, flip_v, rotation)

    def test_seeded_batch_bit_identical_to_composition(self):
        records, sources = make_synthetic_dataset(2, size=48, seed=9)
        # the streams rotate some samples and leave others upright
        drawn = [images._draw_transforms(derive_stream(4, "augment", k)) for k in range(len(records))]
        assert {angle is None for _, _, angle in drawn} == {True, False}
        for size in (48, 20, 64):
            x, _ = make_batch(records, range(len(records)), sources.__getitem__, size,
                              [derive_stream(4, "augment", k) for k in range(len(records))])
            for k, rec in enumerate(records):
                aug = augment(sources[rec.image_ref], derive_stream(4, "augment", k))
                expect = resize_bilinear(to_unit_float(aug), size, size)
                assert x[k, 0].tobytes() == expect.tobytes()

    def test_allocates_nothing_at_source_resolution(self):
        # a 2048 px source is 4 MiB of uint8; flipping or rotating it at full
        # resolution would allocate a multiple of that
        side = 2048
        img = GrayImage((np.arange(side * side, dtype=np.int64).reshape(side, side) % 251)
                        .astype(np.uint8))
        tracemalloc.start()
        try:
            # both flips and a 12 degree rotation
            x, _ = make_batch([SampleRecord("a", 0, "Train")], [0], lambda ref: img, 64,
                              [ScriptedStream([0.25, 0.25, 0.25, 0.9])])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < img.pixels.nbytes, f"peak {peak / 2**20:.1f} MiB"
        assert x.shape == (1, 1, 64, 64) and 0.0 < x.max() <= 1.0

    def test_one_hot(self):
        t = one_hot(np.array([0, 2]), 3)
        npt.assert_array_equal(t, [[1, 0, 0], [0, 0, 1]])


def test_manifest_csv_round_trip():
    records, _ = make_synthetic_dataset((3, 1, 4, 2), size=16, seed=6)
    parsed = parse_manifest(manifest_csv(records), default_mapping())
    assert parsed.skip_count == 0
    counts = class_distribution(parsed.records)
    npt.assert_array_equal(counts[:, 0], [3, 1, 4, 2])


def test_extra_manifest_appends_records(tmp_path):
    from xraynet.dataset import from_manifest
    from xraynet.synth import write_synthetic_dataset

    main_manifest, _ = write_synthetic_dataset(tmp_path / "main", (5, 5, 5, 1), size=16, seed=1)
    extra_manifest, _ = write_synthetic_dataset(tmp_path / "extra", (0, 0, 0, 4), size=16,
                                                seed=2, prefix="extra")

    base = from_manifest(main_manifest, tmp_path / "main", input_size=16)
    merged = from_manifest(main_manifest, tmp_path / "main", input_size=16,
                           extra_manifest=extra_manifest,
                           extra_images_root=tmp_path / "extra")
    npt.assert_array_equal(class_distribution(base.train + base.val)[:, 0], [5, 5, 5, 1])
    npt.assert_array_equal(class_distribution(merged.train + merged.val)[:, 0], [5, 5, 5, 5])
    # images from both roots resolve through the merged source
    pool = merged.train + merged.val
    x, labels = make_batch(pool, range(len(pool)), merged.images, 16)
    assert x.shape[0] == 20 and np.bincount(labels, minlength=4).tolist() == [5, 5, 5, 5]


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 5])
def test_from_manifest_rejects_seed_outside_64_bits(tmp_path, seed):
    from xraynet.dataset import from_manifest
    from xraynet.synth import write_synthetic_dataset

    manifest, _ = write_synthetic_dataset(tmp_path, 1, size=16, seed=1)
    with pytest.raises(ValueError, match="seed"):
        from_manifest(manifest, tmp_path, input_size=16, seed=seed)
