"""Bitmap rendering of point clouds, reproducing the reference recipe.

A square window of half-width `range` is mapped onto a 2*res x 2*res
grid with res = unit_res * range.  Each point z lands at 1-based
coordinates

    row = round(res - unit_res * Im z)
    col = round(res + unit_res * Re z)

and, when strictly interior (1 < row < 2*res and 1 < col < 2*res), stamps
a fixed 3x3 intensity kernel centered there.  Overlapping stamps combine
by elementwise maximum, which keeps the accumulation order-independent
(an overwriting stamp would make output depend on point order).  The
final grayscale image is 1 - accumulated, so points are dark on white.

Rounding is half-away-from-zero throughout; exact .5 ties do not occur
for cyclotomic coordinates, so this is a determinism pin, not a
behavioral choice.  PNG output is written by a tiny built-in encoder
(8-bit grayscale, zlib-compressed, fixed settings) so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Iterable

import numpy as np

KERNEL = np.array(
    [
        [0.3, 0.75, 0.3],
        [0.75, 1.0, 0.75],
        [0.3, 0.75, 0.3],
    ]
)


def round_half_away(x):
    """Round to nearest integer, ties away from zero, elementwise; the
    result is a float (array)."""
    return np.where(x >= 0, np.floor(x + 0.5), -np.floor(-x + 0.5))


@dataclass(frozen=True)
class BitmapSpec:
    """Plot window and resolution: extent +-range, unit_res pixels per unit."""

    range: float
    unit_res: int

    def __post_init__(self):
        if self.range <= 0:
            raise ValueError(f"range must be positive, got {self.range}")
        if self.unit_res <= 0 or self.unit_res != int(self.unit_res):
            raise ValueError(f"unit_res must be a positive integer, got {self.unit_res}")
        res = self.unit_res * self.range
        if abs(res - round(res)) > 1e-9 or round(res) <= 0:
            raise ValueError(f"unit_res * range = {res} must be a positive integer")

    @property
    def res(self) -> int:
        return round(self.unit_res * self.range)

    @property
    def side(self) -> int:
        return 2 * self.res


@dataclass(frozen=True)
class GrayImage:
    """Final grayscale raster, values in [0, 1], 0 = black."""

    spec: BitmapSpec
    pixels: np.ndarray

    def __post_init__(self):
        side = self.spec.side
        if self.pixels.shape != (side, side):
            raise ValueError(f"expected {side}x{side} pixels, got {self.pixels.shape}")


def render_bitmap(values: Iterable[complex], spec: BitmapSpec) -> GrayImage:
    """Stamp every point into one accumulator and invert."""
    res = spec.res
    side = spec.side
    unit = spec.unit_res
    z = np.fromiter(values, dtype=complex)
    row = round_half_away(res - unit * z.imag)
    col = round_half_away(res + unit * z.real)
    interior = (1 < row) & (row < side) & (1 < col) & (col < side)
    # 1-based center (row, col); the 3x3 block is 0-based rows row-2..row
    row = row[interior].astype(np.int64) - 2
    col = col[interior].astype(np.int64) - 2
    acc = np.zeros((side, side))
    for (dr, dc), weight in np.ndenumerate(KERNEL):
        np.maximum.at(acc, (row + dr, col + dc), weight)
    return GrayImage(spec, 1.0 - acc)


def image_bytes(img: GrayImage) -> bytes:
    """8-bit quantization: byte = round(255 * clamp(v, 0, 1)), row-major."""
    clamped = np.clip(img.pixels, 0.0, 1.0)
    # half-away-from-zero on nonnegative values = floor(x + 0.5)
    quantized = np.floor(255.0 * clamped + 0.5).astype(np.uint8)
    return quantized.tobytes()


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    body = tag + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))


def encode_png(img: GrayImage) -> bytes:
    """Minimal deterministic PNG: 8-bit grayscale, filter 0, zlib level 9.

    Level 9 stays although level 6 compresses an 800 x 800 render about
    10x faster (for a file ~14% larger): the PNG bytes are pinned by
    SHA-256 in tests/test_golden.py and perfbench/golden.json, and another
    level changes them.
    """
    side = img.spec.side
    raw = image_bytes(img)
    scanlines = b"".join(
        b"\x00" + raw[r * side : (r + 1) * side] for r in range(side)
    )
    ihdr = struct.pack(">IIBBBBB", side, side, 8, 0, 0, 0, 0)
    return b"".join(
        [
            b"\x89PNG\r\n\x1a\n",
            _png_chunk(b"IHDR", ihdr),
            _png_chunk(b"IDAT", zlib.compress(scanlines, 9)),
            _png_chunk(b"IEND", b""),
        ]
    )


def write_png(img: GrayImage, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode_png(img))


def round11(v: float) -> float:
    """v rounded to 11 decimal places, with -0.0 folded into +0.0 so that
    it never prints as "-0.00000000000"."""
    r = round(v, 11)
    return 0.0 if r == 0 else r


def export_points(values: Iterable[complex], fmt: str = "csv") -> str:
    """Serialize a deduplicated point list: CSV rows or a JSON array.

    Floats are printed with 11 decimal places (12 significant digits at
    plot scale) so files diff cleanly across runs: round11 of each
    coordinate, which for a Python float is what .11f prints once a
    "-0.00000000000" is folded into "0.00000000000".
    """
    if fmt == "csv":
        lines = ["re,im"]
        lines += [f"{z.real:.11f},{z.imag:.11f}" for z in values]
        return ("\n".join(lines) + "\n").replace("-0.00000000000", "0.00000000000")
    if fmt == "json":
        import json

        pts = [[round11(z.real), round11(z.imag)] for z in values]
        return json.dumps(pts, separators=(",", ":"))
    raise ValueError(f"unknown format {fmt!r}")
