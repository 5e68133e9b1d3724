import json
import struct
import zlib
from math import floor

import numpy as np
import pytest

from symchar.render import (
    BitmapSpec,
    GrayImage,
    KERNEL,
    encode_png,
    export_points,
    image_bytes,
    render_bitmap,
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
    assert img.pixels.shape == (8, 8)
    box = img.pixels[2:5, 2:5]  # 1-based rows/cols res-1..res+1
    assert np.allclose(box, 1 - KERNEL)
    total = img.pixels.sum()
    assert np.isclose(total, 64 - KERNEL.sum())


def test_corner_points_dropped():
    # the 1 < row < 2*res guard drops stamps that would fall on the frame
    spec = BitmapSpec(1, 2)
    img = render_bitmap([2 + 2j, -5 - 5j], spec)
    assert np.allclose(img.pixels, 1.0)


def test_overlap_takes_max_not_sum():
    spec = BitmapSpec(2, 2)
    one = render_bitmap([0j], spec)
    two = render_bitmap([0j, 0j], spec)
    assert np.array_equal(one.pixels, two.pixels)


def test_image_bytes_quantization():
    spec = BitmapSpec(1, 2)
    img = GrayImage(spec, np.full((4, 4), 0.5))
    data = np.frombuffer(image_bytes(img), dtype=np.uint8)
    assert np.all(data == 128)  # floor(127.5 + 0.5)


def test_png_round_trip():
    spec = BitmapSpec(2, 8)
    img = render_bitmap([0j, 1 + 1j, -0.5 - 0.25j], spec)
    png = encode_png(img)
    back = decode_png(png)
    flat = np.frombuffer(image_bytes(img), dtype=np.uint8).reshape(back.shape)
    assert np.array_equal(back, flat)


def test_write_png(tmp_path):
    spec = BitmapSpec(1, 4)
    img = render_bitmap([0.2 + 0.1j], spec)
    out = tmp_path / "img.png"
    write_png(img, str(out))
    assert decode_png(out.read_bytes()).shape == (8, 8)


def test_empty_cloud_all_white():
    spec = BitmapSpec(2, 4)
    img = render_bitmap([], spec)
    assert np.all(img.pixels == 1.0)
    assert np.all(np.frombuffer(image_bytes(img), dtype=np.uint8) == 255)


def test_pixel_value_lattice():
    spec = BitmapSpec(3, 5)
    img = render_bitmap([0j, 1 + 1j, -2 + 0.5j, 1.5 - 2.2j], spec)
    assert set(np.round(np.unique(img.pixels), 10)) <= {0.0, 0.25, 0.7, 1.0}


def test_permuting_cloud_is_bit_identical():
    vals = [0j, 1 + 1j, -0.5 + 0.25j, 0.3 - 0.9j, 1 + 1j]
    spec = BitmapSpec(2, 8)
    a = encode_png(render_bitmap(vals, spec))
    b = encode_png(render_bitmap(list(reversed(vals)), spec))
    assert a == b


def reference_bitmap(values, spec):
    """One 3x3 stamp per point, in a Python loop: the rule render_bitmap
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
    assert np.array_equal(img.pixels, reference_bitmap(vals, spec))
    assert np.array_equal(render_bitmap(np.array(vals), spec).pixels, img.pixels)


def test_export_points_empty():
    assert export_points([], "csv") == "re,im\n"
    assert json.loads(export_points([], "json")) == []


def test_export_points_csv():
    out = export_points([0.5 + 0.25j, -1j], "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "re,im"
    assert lines[1] == "0.50000000000,0.25000000000"
    assert lines[2] == "0.00000000000,-1.00000000000"


def test_export_points_json():
    out = export_points([1 + 2j], "json")
    data = json.loads(out)
    assert data == [[1.0, 2.0]]


def test_export_points_no_negative_zero():
    out = export_points([complex(-1e-14, -1e-14)], "csv")
    assert "-0.0" not in out


def test_export_points_bad_format():
    with pytest.raises(ValueError):
        export_points([0j], "xml")
