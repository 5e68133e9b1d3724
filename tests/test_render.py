import json
import struct
import tracemalloc
import zlib
from math import floor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symchar import render
from symchar.render import (
    BitmapSpec,
    GrayImage,
    KERNEL,
    encode_png,
    export_points,
    render_bitmap,
    round11,
    round_half_away,
    write_png,
)


def decode_png(data):
    """Minimal grayscale filter-0 PNG reader for round-trip checks."""
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos = 8
    width = height = None
    idat = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if tag == b"IHDR":
            width, height, depth, color = struct.unpack(">IIBB", payload[:10])
            assert depth == 8 and color == 0
        elif tag == b"IDAT":
            idat += payload
        pos += 12 + length
    raw = zlib.decompress(idat)
    rows = []
    stride = width + 1
    for r in range(height):
        line = raw[r * stride : (r + 1) * stride]
        assert line[0] == 0  # filter type 0 on every scanline
        rows.append(list(line[1:]))
    return np.array(rows, dtype=np.uint8)


def test_spec_validation():
    spec = BitmapSpec(2, 4)
    assert spec.res == 8
    assert spec.side == 16
    BitmapSpec(2.5, 4)  # res = 10, fine
    with pytest.raises(ValueError):
        BitmapSpec(2.3, 3)  # res = 6.9 not an integer
    with pytest.raises(ValueError):
        BitmapSpec(0, 4)
    with pytest.raises(ValueError):
        BitmapSpec(2, 0)


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_spec_refuses_nonfinite_range(bad):
    with pytest.raises(ValueError, match="range"):
        BitmapSpec(bad, 1)


def test_kernel_shape():
    assert KERNEL.shape == (3, 3)
    assert KERNEL[1, 1] == 1.0
    assert KERNEL[0, 0] == 0.3 and KERNEL[0, 1] == 0.75


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(-0.5) == -1
    assert round_half_away(2.4) == 2


def test_single_point_stamp():
    # origin lands at row = col = res (1-based), darkening a 3x3 box
    spec = BitmapSpec(2, 2)
    img = render_bitmap([0j], spec)
    assert img.pixels.shape == (8, 8) and img.pixels.dtype == np.uint8
    box = img.pixels[2:5, 2:5]  # 1-based rows/cols res-1..res+1
    assert box.tolist() == [[179, 64, 179], [64, 0, 64], [179, 64, 179]]
    assert np.array_equal(box, quantize(1 - KERNEL))
    assert (img.pixels == 255).sum() == 64 - 9


def test_corner_points_dropped():
    # the 1 < row < 2*res guard drops stamps that would fall on the frame
    spec = BitmapSpec(1, 2)
    img = render_bitmap([2 + 2j, -5 - 5j], spec)
    assert np.all(img.pixels == 255)


def test_overlap_takes_max_not_sum():
    spec = BitmapSpec(2, 2)
    one = render_bitmap([0j], spec)
    two = render_bitmap([0j, 0j], spec)
    assert np.array_equal(one.pixels, two.pixels)
    # side by side, each overlapped pixel takes the darker of its two levels
    near = render_bitmap([0j, 0.5 + 0j], spec)
    assert near.pixels[2].tolist() == [255, 255, 179, 64, 64, 179, 255, 255]
    assert near.pixels[3].tolist() == [255, 255, 64, 0, 0, 64, 255, 255]


def test_gray_image_needs_side_by_side_bytes():
    spec = BitmapSpec(1, 2)
    GrayImage(spec, np.full((4, 4), 255, dtype=np.uint8))
    with pytest.raises(ValueError):
        GrayImage(spec, np.full((4, 4), 1.0))
    with pytest.raises(ValueError):
        GrayImage(spec, np.full((4, 5), 255, dtype=np.uint8))


def test_png_round_trip():
    spec = BitmapSpec(2, 8)
    img = render_bitmap([0j, 1 + 1j, -0.5 - 0.25j], spec)
    png = encode_png(img)
    assert np.array_equal(decode_png(png), img.pixels)


def test_write_png(tmp_path):
    spec = BitmapSpec(1, 4)
    img = render_bitmap([0.2 + 0.1j], spec)
    out = tmp_path / "img.png"
    write_png(img, str(out))
    assert decode_png(out.read_bytes()).shape == (8, 8)


def test_empty_cloud_all_white():
    spec = BitmapSpec(2, 4)
    img = render_bitmap([], spec)
    assert img.pixels.dtype == np.uint8 and np.all(img.pixels == 255)
    assert np.all(decode_png(encode_png(img)) == 255)


def test_pixel_value_lattice():
    spec = BitmapSpec(3, 5)
    img = render_bitmap([0j, 1 + 1j, -2 + 0.5j, 1.5 - 2.2j], spec)
    assert set(np.unique(img.pixels).tolist()) <= {0, 64, 179, 255}


def test_permuting_cloud_is_bit_identical():
    vals = [0j, 1 + 1j, -0.5 + 0.25j, 0.3 - 0.9j, 1 + 1j]
    spec = BitmapSpec(2, 8)
    a = encode_png(render_bitmap(vals, spec))
    b = encode_png(render_bitmap(list(reversed(vals)), spec))
    assert a == b


def quantize(gray):
    """8-bit levels of a float raster in [0, 1]: round(255 * clamp(v, 0, 1))."""
    return np.floor(255.0 * np.clip(gray, 0.0, 1.0) + 0.5).astype(np.uint8)


def reference_bitmap(values, spec):
    """One 3x3 stamp per point, in a Python loop, into a float accumulator
    of kernel weights, then inverted: quantized, the bytes render_bitmap
    must reproduce exactly."""
    def rnd(x):
        return floor(x + 0.5) if x >= 0 else -floor(-x + 0.5)

    res, side, unit = spec.res, spec.side, spec.unit_res
    acc = np.zeros((side, side))
    for z in values:
        row = rnd(res - unit * z.imag)
        col = rnd(res + unit * z.real)
        if 1 < row < side and 1 < col < side:
            box = acc[row - 2 : row + 1, col - 2 : col + 1]
            np.maximum(box, KERNEL, out=box)
    return 1.0 - acc


def test_render_matches_reference_loop():
    rng = np.random.default_rng(5)
    spec = BitmapSpec(3, 4)
    # points spread past the frame, on half-pixel ties and stacked on each other
    vals = list(rng.uniform(-3.6, 3.6, 400) + 1j * rng.uniform(-3.6, 3.6, 400))
    vals += [complex(k / 8, -k / 8) for k in range(-28, 29)] + [0.25 + 0.5j] * 3
    img = render_bitmap(vals, spec)
    assert np.array_equal(img.pixels, quantize(reference_bitmap(vals, spec)))
    assert np.array_equal(render_bitmap(np.array(vals), spec).pixels, img.pixels)


def test_render_and_encode_peak_memory():
    # an 800 x 800 raster: the byte raster, its padded scanlines and their
    # bytes copy, not float temporaries of 8 bytes per pixel each
    spec = BitmapSpec(80, 5)
    rng = np.random.default_rng(7)
    vals = rng.uniform(-80, 80, 20000) + 1j * rng.uniform(-80, 80, 20000)
    tracemalloc.start()
    try:
        encode_png(render_bitmap(vals, spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * spec.side**2


def export(values, fmt):
    return "".join(export_points(values, fmt))


def test_export_points_empty():
    assert export([], "csv") == "re,im\n"
    assert json.loads(export([], "json")) == []


def test_export_points_csv():
    out = export([0.5 + 0.25j, -1j], "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "re,im"
    assert lines[1] == "0.50000000000,0.25000000000"
    assert lines[2] == "0.00000000000,-1.00000000000"


def test_export_points_json():
    out = export([1 + 2j], "json")
    data = json.loads(out)
    assert data == [[1.0, 2.0]]


def test_export_points_no_negative_zero():
    out = export([complex(-1e-14, -1e-14)], "csv")
    assert "-0.0" not in out


def reference_csv(values):
    """Each coordinate through round11, then printed to 11 places."""
    rows = [f"{round11(z.real):.11f},{round11(z.imag):.11f}" for z in values]
    return "\n".join(["re,im", *rows]) + "\n"


_HALF = 0.5e-11
# +-0.0, values rounding to -0, exact ties j/4096 = x.xxxxxxxxxxx5 and
# neighbours of the half-unit 0.5e-11 on both sides
_csv_coords = (
    [0.0, -0.0, -1e-13, 1e-13, -4.9e-12, 1e300, -1e300, float("inf"), -float("inf"), float("nan")]
    + [j / 4096 for j in range(-9000, 9001, 7)]
    + [s * float(v) for s in (1, -1) for v in (_HALF, np.nextafter(_HALF, 0), np.nextafter(_HALF, 1), 3 * _HALF, 12345.5 + _HALF)]
)


def test_export_points_csv_matches_round11():
    coords = [float(v) for v in _csv_coords]
    values = [complex(a, b) for a, b in zip(coords, coords[1:] + coords[:1])]
    values += [complex(a, b) for a, b in zip(coords[::-1], coords)]
    assert export(values, "csv") == reference_csv(values)


@pytest.mark.parametrize("points", [1, 2, 3, 1000])
def test_export_points_chunks_join_to_the_whole_text(points, monkeypatch):
    # a chunk boundary falls anywhere in the list, and the JSON separators
    # between chunks give the bytes of one json.dumps
    monkeypatch.setattr(render, "_EXPORT_POINTS", points)
    coords = [float(v) for v in _csv_coords if np.isfinite(v)]
    values = [complex(a, b) for a, b in zip(coords, coords[1:] + coords[:1])][:2500]
    for n in (0, 1, 2, 3, 4, len(values)):
        assert export(values[:n], "csv") == reference_csv(values[:n])
        pts = [[round11(z.real), round11(z.imag)] for z in values[:n]]
        assert export(values[:n], "json") == json.dumps(pts, separators=(",", ":"))
    assert len(list(export_points(values, "csv"))) == 1 + -(-len(values) // points)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(complex, st.floats(), st.floats() | st.sampled_from(_csv_coords)), max_size=30))
def test_export_points_csv_matches_round11_anywhere(values):
    assert export(values, "csv") == reference_csv(values)


def test_export_points_bad_format():
    with pytest.raises(ValueError):
        export_points([0j], "xml")
