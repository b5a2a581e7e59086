import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scripted import ScriptedStream
from xraynet import images
from xraynet.images import (GrayImage, augment, hflip, intensity_histogram, load_image, read_pgm,
                            resize_bilinear, rotate, to_unit_float, vflip, write_pgm)
from xraynet.rng import Pcg32, derive_stream


def random_image(seed=0, h=16, w=16):
    rng = Pcg32(seed, 0)
    return GrayImage(np.floor(rng.uniform_array((h, w), 0, 256)).astype(np.uint8))


class TestPgm:
    def test_reference_decode(self):
        # header "P5 2 2 255", the single separator byte, then raster (0,255,0,255)
        img = read_pgm(b"P5 2 2 255\n\x00\xff\x00\xff")
        npt.assert_array_equal(img.pixels, [[0, 255], [0, 255]])

    def test_header_with_comments_and_newlines(self):
        img = read_pgm(b"P5\n# a comment\n2 3\n255\n" + bytes(range(6)))
        assert (img.width, img.height) == (2, 3)
        npt.assert_array_equal(img.pixels, np.arange(6, dtype=np.uint8).reshape(3, 2))

    def test_low_maxval_rescales_to_full_range(self):
        img = read_pgm(b"P5 4 1 15\n" + bytes([0, 1, 8, 15]))
        # v * 255 / 15, rounded: 1 -> 17, 8 -> 136
        npt.assert_array_equal(img.pixels, [[0, 17, 136, 255]])
        assert to_unit_float(img)[0, 3] == 1.0
        img = read_pgm(b"P5 2 1 2\n" + bytes([1, 2]))
        npt.assert_array_equal(img.pixels, [[128, 255]])  # 127.5 rounds half up

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(ValueError, match="exceeds maxval"):
            read_pgm(b"P5 2 1 100\n" + bytes([100, 200]))

    def test_maxval_255_decodes_raster_unchanged(self):
        raster = bytes(range(256))
        img = read_pgm(b"P5 16 16 255\n" + raster)
        assert img.pixels.tobytes() == raster

    def test_round_trip(self):
        img = random_image(1)
        again = read_pgm(write_pgm(img))
        npt.assert_array_equal(again.pixels, img.pixels)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="P5"):
            read_pgm(b"P2 1 1 255 0")
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(b"P5 1 1 65535 \x00\x00")
        with pytest.raises(ValueError, match="raster"):
            read_pgm(b"P5 4 4 255 \x00\x01")
        with pytest.raises(ValueError, match="truncated PGM header"):
            read_pgm(b"P5 4 4")
        with pytest.raises(ValueError, match="malformed PGM header fields"):
            read_pgm(b"P5 4 x4 255 " + bytes(16))
        with pytest.raises(ValueError, match="bad PGM dimensions 0x4"):
            read_pgm(b"P5 0 4 255 ")

    def test_load_image_pgm_and_missing(self, tmp_path):
        img = random_image(2)
        p = tmp_path / "x.pgm"
        p.write_bytes(write_pgm(img))
        npt.assert_array_equal(load_image(p).pixels, img.pixels)
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "absent.pgm")

    def test_load_image_of_a_corrupt_pgm_names_the_path(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5 4 4 255 \x00\x01")
        with pytest.raises(ValueError) as exc:
            load_image(p)
        assert str(exc.value) == f"{p}: PGM raster has 2 bytes, expected 16"

    def test_png_adapter(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        img = random_image(3)
        p = tmp_path / "x.png"
        PIL.fromarray(img.pixels, mode="L").save(p)
        npt.assert_array_equal(load_image(p).pixels, img.pixels)

    def test_unit_float_scaling(self):
        ones = to_unit_float(GrayImage(np.full((4, 4), 255, dtype=np.uint8)))
        npt.assert_array_equal(ones, np.ones((4, 4), dtype=np.float32))
        assert ones.dtype == np.float32


class TestHistogram:
    def test_constant_image(self):
        hist = intensity_histogram(GrayImage(np.full((64, 64), 128, dtype=np.uint8)))
        assert hist[128] == 4096
        assert hist.sum() == 4096
        assert np.count_nonzero(hist) == 1

    def test_one_pixel_per_intensity(self):
        img = GrayImage(np.arange(256, dtype=np.uint8).reshape(16, 16))
        npt.assert_array_equal(intensity_histogram(img), np.ones(256, dtype=np.int64))

    def test_against_counting_oracle(self):
        img = random_image(4)
        counts = [0] * 256
        for v in img.pixels.reshape(-1):
            counts[int(v)] += 1
        npt.assert_array_equal(intensity_histogram(img), np.array(counts))

    def test_bins_sum_to_pixel_count(self):
        img = random_image(5, h=7, w=13)
        assert intensity_histogram(img).sum() == 7 * 13


class TestFlipsAndRotation:
    def test_hflip_reference(self):
        img = GrayImage(np.array([[1, 2]], dtype=np.uint8))
        npt.assert_array_equal(hflip(img).pixels, [[2, 1]])

    @settings(max_examples=25, deadline=None)
    @given(hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)))
    def test_flips_are_involutions_and_preserve_histogram(self, pixels):
        img = GrayImage(pixels)
        npt.assert_array_equal(hflip(hflip(img)).pixels, pixels)
        npt.assert_array_equal(vflip(vflip(img)).pixels, pixels)
        base = intensity_histogram(img)
        npt.assert_array_equal(intensity_histogram(hflip(img)), base)
        npt.assert_array_equal(intensity_histogram(vflip(img)), base)
        npt.assert_array_equal(intensity_histogram(vflip(hflip(img))), base)

    def test_rotation_by_zero_is_bit_identical(self):
        img = random_image(6, h=31, w=17)
        npt.assert_array_equal(rotate(img, 0.0).pixels, img.pixels)

    def test_rotation_90_of_symmetric_disk_keeps_mass(self):
        # rotation must not invent intensity: total mass within a couple of
        # quantization steps per pixel for an interior-supported pattern
        pix = np.zeros((17, 17), dtype=np.uint8)
        pix[6:11, 6:11] = 200
        img = GrayImage(pix)
        rot = rotate(img, 45.0)
        assert abs(int(rot.pixels.sum()) - int(pix.sum())) < 0.05 * pix.sum()

    def test_rotation_fills_outside_with_zero(self):
        img = GrayImage(np.full((9, 9), 250, dtype=np.uint8))
        rot = rotate(img, 45.0)
        assert rot.pixels[0, 0] == 0 and rot.pixels[-1, -1] == 0


    @pytest.mark.parametrize("shape", [(17, 17), (31, 12), (1, 9), (40, 41)])
    @pytest.mark.parametrize("degrees", [0.0, 15.0, -15.0, 45.0, 180.0, 7.3])
    def test_rotation_matches_padded_reference(self, shape, degrees):
        img = random_image(10, *shape)
        npt.assert_array_equal(rotate(img, degrees).pixels,
                               padded_rotation_reference(img.pixels, degrees))


def padded_rotation_reference(pix, degrees):
    """Rotation as a full-resolution float64 copy of `pix` with a 1-pixel zero
    border, sampled bilinearly at every output pixel's inverse-rotated position."""
    h, w = pix.shape
    theta = np.deg2rad(degrees)
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64),
                         indexing="ij")
    dx, dy = xs - cx, ys - cy
    sy = cy - sin * dx + cos * dy + 1.0
    sx = cx + cos * dx + sin * dy + 1.0
    padded = np.zeros((h + 2, w + 2), dtype=np.float64)
    padded[1:-1, 1:-1] = pix
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    fy, fx = sy - y0, sx - x0
    inside = (y0 >= 0) & (y0 <= h) & (x0 >= 0) & (x0 <= w)
    y0, x0 = np.clip(y0, 0, h), np.clip(x0, 0, w)
    val = (padded[y0, x0] * (1 - fy) * (1 - fx) + padded[y0, x0 + 1] * (1 - fy) * fx
           + padded[y0 + 1, x0] * fy * (1 - fx) + padded[y0 + 1, x0 + 1] * fy * fx)
    return np.clip(np.rint(np.where(inside, val, 0.0)), 0, 255).astype(np.uint8)


class TestAugment:
    def test_forced_hflip(self):
        img = GrayImage(np.array([[1, 2]], dtype=np.uint8))
        # uniforms (hflip, vflip, rotate, angle): only the hflip coin fires
        out = augment(img, ScriptedStream([0.25, 0.75, 0.75, 0.5]))
        npt.assert_array_equal(out.pixels, [[2, 1]])

    def test_forced_zero_angle_rotation_is_identity(self):
        img = random_image(7)
        # the rotation coin fires, and the middle of the angle range is 0 degrees
        out = augment(img, ScriptedStream([0.75, 0.75, 0.0, 0.5]))
        npt.assert_array_equal(out.pixels, img.pixels)

    def test_deterministic_given_stream(self):
        img = random_image(8)
        a = augment(img, derive_stream(3, "augment", 5))
        b = augment(img, derive_stream(3, "augment", 5))
        npt.assert_array_equal(a.pixels, b.pixels)

    def test_stream_consumption_independent_of_outcomes(self):
        # four uniforms are always drawn, so the next draw is outcome-independent
        for forced in ([0.0, 0.0, 0.0, 0.5], [0.99, 0.99, 0.99, 0.5]):  # all fire, none fire
            stream = ScriptedStream(forced + [0.125])
            augment(random_image(9), stream)
            assert stream.uniforms == [0.125]
        outcomes = set()
        for k in range(16):
            rng = derive_stream(4, "augment", k)
            augment(random_image(9), rng)
            marker = rng.next_u32()
            rng2 = derive_stream(4, "augment", k)
            for _ in range(4):
                rng2.uniform()
            assert marker == rng2.next_u32()
            flip_h, flip_v, angle = images._draw_transforms(derive_stream(4, "augment", k))
            outcomes.add((flip_h, flip_v, angle is None))
        assert len(outcomes) >= 4  # the streams cover several outcome patterns
        assert {rotated for _, _, rotated in outcomes} == {True, False}

    def test_schedule_shares_and_angle_range(self):
        # the fixed schedule, pinned: each decision follows its own raw uniform,
        # and each coin's share over 2000 seeded streams lies within 4 sigma of
        # its probability
        draws = []
        for k in range(2000):
            raw = derive_stream(0, "augment", k)
            u_h, u_v, u_r, u_angle = (raw.uniform() for _ in range(4))
            draw = images._draw_transforms(derive_stream(0, "augment", k))
            assert draw == (u_h < 0.5, u_v < 0.5, -15.0 + 30.0 * u_angle if u_r < 0.3 else None)
            draws.append(draw)
        n = len(draws)
        angles = np.array([a for _, _, a in draws if a is not None])
        for share, p in ((sum(h for h, _, _ in draws) / n, 0.5),
                         (sum(v for _, v, _ in draws) / n, 0.5),
                         (len(angles) / n, 0.3)):
            assert abs(share - p) < 4 * np.sqrt(p * (1 - p) / n), (share, p)
        assert angles.min() >= -15.0 and angles.max() <= 15.0
        assert angles.min() < -14.0 and angles.max() > 14.0  # the whole range is drawn


def reference_bilinear(arr, out_h, out_w):
    """Direct per-pixel bilinear interpolation, half-pixel centers, edge clamp."""
    h, w = arr.shape
    out = np.zeros((out_h, out_w), dtype=np.float64)
    for oy in range(out_h):
        for ox in range(out_w):
            sy = min(max((oy + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            sx = min(max((ox + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            out[oy, ox] = (arr[y0, x0] * (1 - fy) * (1 - fx) + arr[y0, x1] * (1 - fy) * fx
                           + arr[y1, x0] * fy * (1 - fx) + arr[y1, x1] * fy * fx)
    return out


class TestResize:
    def test_checkerboard_to_2x2(self):
        board = np.indices((4, 4)).sum(axis=0) % 2
        arr = (board * 1.0).astype(np.float32)
        out = resize_bilinear(arr, 2, 2)
        npt.assert_allclose(out, np.full((2, 2), 0.5, dtype=np.float32), atol=1e-7)
        npt.assert_allclose(out, reference_bilinear(arr, 2, 2), atol=1e-6)

    @pytest.mark.parametrize("shape,target", [((4, 4), (2, 2)), ((5, 7), (3, 4)),
                                              ((3, 3), (9, 9)), ((8, 8), (5, 5))])
    def test_against_interpolation_oracle(self, shape, target):
        rng = Pcg32(shape[0] * 31 + target[0], 0)
        arr = rng.uniform_array(shape, 0, 1).astype(np.float32)
        out = resize_bilinear(arr, *target)
        npt.assert_allclose(out, reference_bilinear(arr, *target), atol=1e-6)

    def test_identity_size_is_same_object(self):
        arr = np.ones((6, 6), dtype=np.float32)
        assert resize_bilinear(arr, 6, 6) is arr
