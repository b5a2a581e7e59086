"""Grayscale image handling: PGM I/O, augmentation, histograms, resizing.

Binary PGM (P5, maxval 255) is the canonical on-disk format; PNG/JPEG decode
through an optional Pillow adapter behind the same `GrayImage` type. Flips
are exact pixel permutations (they preserve the intensity histogram bit for
bit); rotation resamples bilinearly around the image center with zero fill,
and a rotation by 0 degrees is an exact identity.

Every run augments with one fixed schedule: hflip with probability
`P_HFLIP`, vflip with `P_VFLIP`, and with `P_ROTATE` a rotation by an angle
drawn uniformly from [-`ROTATION_RANGE`, +`ROTATION_RANGE`] degrees.

The resize to `size` reads at most 2*size rows and columns of its source,
and flips, rotation and the unit-float conversion compute each pixel on its
own, so `resize_augmented` (the training input path) evaluates them only at
those resize taps, then blends: bit-identical to the full-resolution
`resize_bilinear(to_unit_float(augment(img, ...)), size, size)`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import Pcg32


@dataclass
class GrayImage:
    """8-bit grayscale raster, row-major (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.ndim != 2:
            raise ValueError(f"GrayImage needs a 2-D array, got shape {self.pixels.shape}")
        if self.pixels.dtype != np.uint8:
            if self.pixels.min() < 0 or self.pixels.max() > 255:
                raise ValueError("intensities must lie in [0, 255]")
            self.pixels = self.pixels.astype(np.uint8)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


# the augmentation schedule: each transform fires independently
P_HFLIP = 0.5
P_VFLIP = 0.5
P_ROTATE = 0.3
ROTATION_RANGE = 15.0  # half-width in degrees of the uniform rotation angle


# ---------------------------------------------------------------------------
# PGM (P5) codec and the optional Pillow adapter
# ---------------------------------------------------------------------------

def read_pgm(data: bytes) -> GrayImage:
    """Decode binary PGM (P5, maxval <= 255), rescaling samples to 0..255."""
    if not data.startswith(b"P5"):
        raise ValueError("not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated PGM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        width, height, maxval = (int(f) for f in fields)
    except ValueError:
        raise ValueError(f"malformed PGM header fields {fields}") from None
    if width < 1 or height < 1:
        raise ValueError(f"bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ValueError(f"unsupported PGM maxval {maxval} (only 8-bit supported)")
    n = width * height
    raster = data[pos:pos + n]
    if len(raster) != n:
        raise ValueError(f"PGM raster has {len(raster)} bytes, expected {n}")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if maxval == 255:
        return GrayImage(pixels.copy())
    top = int(pixels.max())
    if top > maxval:
        raise ValueError(f"PGM sample {top} exceeds maxval {maxval}")
    # v * 255 / maxval, rounded half up in integers
    scaled = (pixels.astype(np.int32) * 510 + maxval) // (2 * maxval)
    return GrayImage(scaled.astype(np.uint8))


def write_pgm(img: GrayImage) -> bytes:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def load_image(path) -> GrayImage:
    """Read a grayscale image; PGM natively, other formats via Pillow."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"image not found: {path}")
    if path.suffix.lower() == ".pgm":
        try:
            return read_pgm(path.read_bytes())
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None
    try:
        from PIL import Image
    except ImportError:
        raise ValueError(
            f"{path}: decoding {path.suffix!r} needs Pillow (install the 'png' extra)") from None
    try:
        with Image.open(path) as im:
            return GrayImage(np.asarray(im.convert("L"), dtype=np.uint8))
    except Exception as e:
        raise ValueError(f"{path}: cannot decode image ({e})") from None


# ---------------------------------------------------------------------------
# statistics and transforms
# ---------------------------------------------------------------------------

def intensity_histogram(img: GrayImage) -> np.ndarray:
    """256-bin intensity counts; bins sum to width * height."""
    return np.bincount(img.pixels.reshape(-1), minlength=256).astype(np.int64)


def hflip(img: GrayImage) -> GrayImage:
    return GrayImage(img.pixels[:, ::-1].copy())


def vflip(img: GrayImage) -> GrayImage:
    return GrayImage(img.pixels[::-1, :].copy())


def rotate(img: GrayImage, degrees: float) -> GrayImage:
    """Rotate about the image center, bilinear interpolation, zero fill."""
    h, w = img.pixels.shape
    return GrayImage(_rotate_at(img.pixels, degrees, np.arange(h), np.arange(w)))


def _rotate_at(pix: np.ndarray, degrees: float, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """uint8 pixels of `pix` rotated by `degrees`, at output rows x cols only."""
    h, w = pix.shape
    theta = np.deg2rad(degrees)
    cos, sin = np.cos(theta), np.sin(theta)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # inverse mapping: output pixel samples the source rotated by -degrees
    dx = cols.astype(np.float64)[None, :] - cx
    dy = rows.astype(np.float64)[:, None] - cy
    sx = cx + cos * dx + sin * dy
    sy = cy - sin * dx + cos * dy
    return _bilinear_zero_fill(pix, sy, sx)


def _bilinear_zero_fill(pix: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    h, w = pix.shape
    # coordinates of a 1-pixel zero border around pix: bordered index b is
    # source index b - 1, and the shift fixes how fy and fx round
    sy = sy + 1.0
    sx = sx + 1.0
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    fy = sy - y0
    fx = sx - x0
    inside = (y0 >= 0) & (y0 + 1 <= h + 1) & (x0 >= 0) & (x0 + 1 <= w + 1)
    y0c = np.clip(y0, 0, h) - 1
    x0c = np.clip(x0, 0, w) - 1

    def tap(ys, xs):  # source pixels, zero outside the image
        ok = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
        return np.where(ok, pix[np.clip(ys, 0, h - 1), np.clip(xs, 0, w - 1)], 0)

    val = np.where(inside, _bilinear(tap, y0c, y0c + 1, fy, x0c, x0c + 1, fx), 0.0)
    return np.clip(np.rint(val), 0, 255).astype(np.uint8)


def _draw_transforms(rng: Pcg32) -> tuple[bool, bool, float | None]:
    """(hflip, vflip, rotation angle or None), drawn as `augment` documents."""
    u_h, u_v, u_r, u_angle = (rng.uniform() for _ in range(4))
    angle = None
    if u_r < P_ROTATE:
        angle = -ROTATION_RANGE + 2.0 * ROTATION_RANGE * u_angle
    return u_h < P_HFLIP, u_v < P_VFLIP, angle


def augment(img: GrayImage, rng: Pcg32) -> GrayImage:
    """Apply hflip, then vflip, then rotation, each by its own coin.

    Exactly four uniforms are consumed per call regardless of outcomes, so
    the stream position never depends on which transforms fired.
    """
    flip_h, flip_v, angle = _draw_transforms(rng)
    if flip_h:
        img = hflip(img)
    if flip_v:
        img = vflip(img)
    if angle is not None:
        img = rotate(img, angle)
    return img


def to_unit_float(img: GrayImage) -> np.ndarray:
    """(H, W) float32 in [0, 1]."""
    return img.pixels.astype(np.float32) / np.float32(255.0)


def resize_bilinear(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a float image using half-pixel-center sampling.

    A no-op (the same array) when the size already matches, so resizing is
    bit-exact for identity targets.
    """
    h, w = arr.shape
    if (h, w) == (out_h, out_w):
        return arr
    return _blend(arr, _taps(h, out_h), _taps(w, out_w)).astype(arr.dtype, copy=False)


def _taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The resize's two source indices and the weight of the second, per output index."""
    pos = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    pos = np.clip(pos, 0, n_in - 1)
    i0 = np.floor(pos).astype(np.int64)
    return i0, np.minimum(i0 + 1, n_in - 1), pos - i0


def _blend(arr: np.ndarray, row_taps, col_taps) -> np.ndarray:
    """float64 bilinear blend of `arr` at the given row and column taps."""
    y0, y1, fy = row_taps
    x0, x1, fx = col_taps
    return _bilinear(lambda ys, xs: arr[np.ix_(ys, xs)], y0, y1, fy[:, None], x0, x1, fx[None, :])


def _bilinear(tap, y0, y1, fy, x0, x1, fx) -> np.ndarray:
    """The four-corner blend of `tap(ys, xs)` samples: rows y0/y1 weighted
    1-fy/fy, columns x0/x1 weighted 1-fx/fx."""
    return (tap(y0, x0) * (1 - fy) * (1 - fx) + tap(y0, x1) * (1 - fy) * fx
            + tap(y1, x0) * fy * (1 - fx) + tap(y1, x1) * fy * fx)


def _tap_grid(n_in: int, n_out: int):
    """The distinct source indices the resize reads along one axis, and its
    taps re-indexed into that list."""
    i0, i1, frac = _taps(n_in, n_out)
    grid, where = np.unique(np.concatenate([i0, i1]), return_inverse=True)
    return grid, (where[:n_out], where[n_out:], frac)


def resize_augmented(img: GrayImage, size: int, rng: Pcg32 | None) -> np.ndarray:
    """(size, size) float32 in [0, 1]: bit for bit
    `resize_bilinear(to_unit_float(augment(img, rng)), size, size)`, or the
    same without `augment` when `rng` is None.

    Flips, rotation and the unit-float conversion are evaluated only at the
    source pixels the resize reads, then blended; flips are views of the
    source, so nothing the size of the source is allocated.
    """
    flip_h, flip_v, angle = (False, False, None) if rng is None else _draw_transforms(rng)
    pix = img.pixels[::-1 if flip_v else 1, ::-1 if flip_h else 1]
    h, w = pix.shape
    if (h, w) == (size, size):  # the resize is the identity, as in resize_bilinear
        grid = pix if angle is None else _rotate_at(pix, angle, np.arange(h), np.arange(w))
        return to_unit_float(GrayImage(grid))
    rows, row_taps = _tap_grid(h, size)
    cols, col_taps = _tap_grid(w, size)
    grid = pix[np.ix_(rows, cols)] if angle is None else _rotate_at(pix, angle, rows, cols)
    return _blend(to_unit_float(GrayImage(grid)), row_taps, col_taps).astype(np.float32)
