"""Bitmap rendering of point clouds, reproducing the reference recipe.

A square window of half-width `range` is mapped onto a 2*res x 2*res
grid with res = unit_res * range.  Each point z lands at 1-based
coordinates

    row = round(res - unit_res * Im z)
    col = round(res + unit_res * Re z)

and, when strictly interior (1 < row < 2*res and 1 < col < 2*res), stamps
a fixed 3x3 intensity kernel centered there.  The raster holds the PNG's
8-bit gray levels from the start: white is 255, and a kernel weight w
leaves the byte round(255 * (1 - w)), so points are dark on white.
Overlapping stamps combine by elementwise minimum, the darkest wins,
which keeps the result order-independent (an overwriting stamp would
make output depend on point order).

Rounding is half-away-from-zero throughout; exact .5 ties do not occur
for cyclotomic coordinates, so this is a determinism pin, not a
behavioral choice.  PNG output is written by a tiny built-in encoder
(8-bit grayscale, zlib-compressed, fixed settings) so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

KERNEL = np.array(
    [
        [0.3, 0.75, 0.3],
        [0.75, 1.0, 0.75],
        [0.3, 0.75, 0.3],
    ]
)
# the byte each kernel weight leaves: floor(255 * (1 - w) + 0.5), which is
# [[179, 64, 179], [64, 0, 64], [179, 64, 179]]
_LEVELS = np.floor(255.0 * (1.0 - KERNEL) + 0.5).astype(np.uint8)
# points per chunk of export_points text
_EXPORT_POINTS = 1 << 16


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
        if not 0 < self.range < math.inf:  # also refuses nan
            raise ValueError(f"range must be positive and finite, got {self.range}")
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
    """Final grayscale raster: side x side uint8 gray levels, the PNG's
    pixels row by row, 0 = black and 255 = white."""

    spec: BitmapSpec
    pixels: np.ndarray

    def __post_init__(self):
        side = self.spec.side
        if self.pixels.dtype != np.uint8 or self.pixels.shape != (side, side):
            raise ValueError(f"expected {side}x{side} uint8 pixels, got {self.pixels.dtype} {self.pixels.shape}")


def render_bitmap(values: Iterable[complex], spec: BitmapSpec) -> GrayImage:
    """Stamp every point's kernel levels into one white byte raster,
    keeping the darkest level at each pixel."""
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
    pixels = np.full((side, side), 255, dtype=np.uint8)
    for (dr, dc), level in np.ndenumerate(_LEVELS):
        np.minimum.at(pixels, (row + dr, col + dc), level)
    return GrayImage(spec, pixels)


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    body = tag + payload
    return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))


def encode_png(img: GrayImage) -> bytes:
    """Minimal deterministic PNG: 8-bit grayscale, zlib level 9, each row
    of img.pixels written as is behind its filter-type-0 byte.

    Level 9 stays although level 6 compresses an 800 x 800 render about
    10x faster (for a file ~14% larger): the PNG bytes are pinned by
    SHA-256 in tests/test_golden.py and perfbench/golden.json, and another
    level changes them.
    """
    side = img.spec.side
    scanlines = np.pad(img.pixels, ((0, 0), (1, 0))).tobytes()
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


def export_points(values: Sequence[complex], fmt: str = "csv") -> Iterator[str]:
    """Serialize a deduplicated point list, CSV rows or a JSON array, as
    chunks of text of _EXPORT_POINTS points each, so that only one chunk's
    text is held at once.

    Floats are printed with 11 decimal places (12 significant digits at
    plot scale) so files diff cleanly across runs: round11 of each
    coordinate, which for a Python float is what .11f prints once a
    "-0.00000000000" is folded into "0.00000000000".
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    return _export_chunks(values, fmt)


def _export_chunks(values: Sequence[complex], fmt: str) -> Iterator[str]:
    yield "re,im\n" if fmt == "csv" else "["
    for lo in range(0, len(values), _EXPORT_POINTS):
        chunk = values[lo : lo + _EXPORT_POINTS]
        if fmt == "csv":
            text = "".join([f"{z.real:.11f},{z.imag:.11f}\n" for z in chunk])
            yield text.replace("-0.00000000000", "0.00000000000")
        else:
            pts = [[round11(z.real), round11(z.imag)] for z in chunk]
            yield ("," if lo else "") + json.dumps(pts, separators=(",", ":"))[1:-1]  # no outer brackets
    if fmt == "json":
        yield "]"
