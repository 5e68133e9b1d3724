"""Output checks for benchmark jobs, run outside the timed region.

Every check works for any seed: values are compared against an independent
reference (a direct sum over the orbit with integer dot-product counts, the
quantity `permanent_oracle` computes another way) at superclasses drawn from
the run's seed, and structural facts come from the job's parameters.  A check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import cmath
import json
import random
import re
import struct
import zlib
from itertools import permutations
from math import floor, gcd

import numpy as np

from jobs import Job, orbit_count, orbit_matrix_rank, rank_mod_p

TOL = 1e-9
SAMPLES = 24


def reference_value(n: int, entries, y) -> complex:
    """sigma_X(y) from exact counts c_t = #{x in X : x.y = t mod n}."""
    counts = [0] * n
    for x in set(permutations(entries)):
        counts[sum(a * b for a, b in zip(x, y)) % n] += 1
    return sum(c * cmath.exp(2j * cmath.pi * t / n) for t, c in enumerate(counts) if c)


def sample_values(job: Job, seed: int) -> list[complex]:
    """Reference values at superclasses Y drawn from the seed."""
    rng = random.Random(f"check/{seed}/{job.key}")
    ys = [sorted(rng.randrange(job.n) for _ in range(job.d)) for _ in range(SAMPLES)]
    return [reference_value(job.n, job.entries, y) for y in ys]


def _nearest(points: np.ndarray, z: complex) -> float:
    return float(np.abs(points - z).min()) if len(points) else float("inf")


def missing_values(points: np.ndarray, values: list[complex]) -> list[complex]:
    return [z for z in values if _nearest(points, z) > TOL]


def rotation_closed(points: np.ndarray, fold: int) -> bool:
    """Is every point rotated by 2*pi/fold within TOL of some point?"""
    if fold <= 1:
        return True
    q = 1e-8  # grid for candidate lookup; far coarser than TOL, so a partner sits in a neighbouring cell
    cells: dict[tuple[int, int], list[complex]] = {}
    for z in points.tolist():
        cells.setdefault((floor(z.real / q), floor(z.imag / q)), []).append(z)
    rot = cmath.exp(2j * cmath.pi / fold)
    for z in (points * rot).tolist():
        kr, ki = floor(z.real / q), floor(z.imag / q)
        if not any(
            abs(z - w) <= TOL
            for dr in (-1, 0, 1)
            for di in (-1, 0, 1)
            for w in cells.get((kr + dr, ki + di), ())
        ):
            return False
    return True


def read_csv_points(path: str) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "re,im":
            raise ValueError(f"CSV header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return data[:, 0] + 1j * data[:, 1] if data.size else np.empty(0, dtype=complex)


def decode_png(data: bytes) -> np.ndarray:
    """8-bit grayscale PNG to a (height, width) uint8 array; filter type 0 only."""
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("bad PNG signature")
    pos, header, idat = 8, None, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        if zlib.crc32(tag + body) != crc:
            raise ValueError(f"bad CRC in {tag!r}")
        if tag == b"IHDR":
            header = struct.unpack(">IIBBBBB", body)
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
        pos += 12 + length
    if header is None:
        raise ValueError("no IHDR")
    width, height, depth, color, _, _, interlace = header
    if (depth, color, interlace) != (8, 0, 0):
        raise ValueError(f"unsupported PNG format {header}")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    if raw.size != height * (width + 1):
        raise ValueError("IDAT size does not match IHDR")
    rows = raw.reshape(height, width + 1)
    if rows[:, 0].any():
        raise ValueError("scanline filters other than 0 are not decoded")
    return rows[:, 1:]


def _round_half_away(x: float) -> int:
    return floor(x + 0.5) if x >= 0 else -floor(-x + 0.5)


# ---------------------------------------------------------------------------
# per-kind checks


def _json_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def check_verify(job: Job, stdout: str, path, seed) -> list[str]:
    records = _json_lines(stdout)
    problems = []
    if len(records) != job.lines:
        problems.append(f"{len(records)} JSON lines, expected {job.lines}")
    for rec in records:
        if job.check == "permanent":
            want = orbit_count(job.n, job.d) * job.params["samples"]
            if rec.get("failures") != 0 or rec.get("samples") != want:
                problems.append(f"permanent record {rec}")
        elif rec.get("passed") is not True:
            problems.append(f"not passed: {json.dumps(rec)[:200]}")
            break
    if job.check == "full-union" and records and records[0].get("order") != job.n // gcd(job.n, job.d):
        problems.append(f"full-union order {records[0].get('order')}")
    if job.check == "hypocycloid" and records:
        info = records[0].get("info", {})
        if info.get("superclasses") != orbit_count(job.n, job.d) or not info.get("points"):
            problems.append(f"hypocycloid info {info}")
    return problems


def check_walk(job: Job, stdout: str, path, seed) -> list[str]:
    problems = check_verify(job, stdout, path, seed)
    records = _json_lines(stdout)
    if records and records[0].get("params", {}).get("reduced_modulus") != job.params["reduced"]:
        problems.append(f"walk params {records[0].get('params')}")
    return problems


def check_image(job: Job, stdout: str, path, seed) -> list[str]:
    points = read_csv_points(path)
    problems = []
    if not 0 < len(points) <= orbit_count(job.n, job.d):
        problems.append(f"{len(points)} points for {orbit_count(job.n, job.d)} superclasses")
    missing = missing_values(points, sample_values(job, seed))
    if missing:
        problems.append(f"{len(missing)} reference values not in the image, e.g. {missing[0]}")
    fold = job.n // gcd(job.n, sum(job.entries) % job.n)
    if not rotation_closed(points, fold):
        problems.append(f"image not closed under rotation by 2pi/{fold}")
    return problems


def check_render(job: Job, stdout: str, path, seed) -> list[str]:
    side, unit = job.params["side"], job.params["unit_res"]
    res = side // 2
    problems = []
    m = re.search(r"\((\d+)x(\d+), (\d+) points\)", stdout)
    if not m or int(m.group(1)) != side or int(m.group(3)) < 1:
        problems.append(f"render stdout {stdout.strip()!r}")
    with open(path, "rb") as fh:
        pixels = decode_png(fh.read())
    if pixels.shape != (side, side):
        return problems + [f"PNG is {pixels.shape}, expected {side}x{side}"]
    for z in sample_values(job, seed):
        row = _round_half_away(res - unit * z.imag)
        col = _round_half_away(res + unit * z.real)
        if 1 < row < side and 1 < col < side and pixels[row - 1, col - 1] != 0:
            problems.append(f"pixel ({row}, {col}) of value {z} is {pixels[row - 1, col - 1]}, expected 0")
            break
    return problems


def check_reduce(job: Job, stdout: str, path, seed) -> list[str]:
    n, d = job.n, job.d
    records = _json_lines(stdout)
    if len(records) != 2:
        return [f"{len(records)} JSON lines, expected certificate and exponents"]
    cert, exps = records
    problems = []
    cols = sorted(set(permutations(job.entries)))
    matrix = cert["matrix"]
    if sorted(zip(*matrix)) != cols:
        problems.append("certificate matrix columns are not the orbit")
    reducer, reduced = cert["reducer"], cert["reduced"]
    product = [[sum(r[t] * matrix[t][c] for t in range(d)) % n for c in range(len(cols))] for r in reducer]
    if product != [[v % n for v in row] for row in reduced]:
        problems.append("reducer * matrix != reduced")
    if rank_mod_p(reducer, n) != d:  # n is prime: a unit determinant means full rank
        problems.append("reducer determinant is not a unit")
    rank = orbit_matrix_rank(job.entries, n)
    if cert["zero_rows"] != d - rank or not cert["complete"] or rank_mod_p(reduced, n) != rank:
        problems.append(f"zero_rows {cert['zero_rows']} for rank {rank}")
    if len(exps.get("rows", [])) != rank:
        problems.append(f"torus map has {len(exps.get('rows', []))} variables, expected {rank}")
    # sampled on the grid of n-th roots, the torus map's values are exactly sigma_X's
    missing = missing_values(read_csv_points(path), sample_values(job, seed))
    if missing:
        problems.append(f"{len(missing)} reference values not in the torus sample, e.g. {missing[0]}")
    return problems


CHECKS = {
    "verify": check_verify,
    "walk": check_walk,
    "image": check_image,
    "render": check_render,
    "reduce": check_reduce,
}


def check(job: Job, rc, stdout: str, path, seed: int) -> list[str]:
    """Problems with one job's output; exit code first, then content."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        return CHECKS[job.kind](job, stdout, path, seed)
    except (OSError, ValueError, KeyError, IndexError, TypeError, struct.error, zlib.error) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def points(job: Job, stdout: str, path) -> int | None:
    """Point count of an output, pinned for the default seed."""
    if job.kind in ("image", "reduce") and path:
        with open(path) as fh:
            return sum(1 for _ in fh) - 1
    if job.kind == "render":
        m = re.search(r", (\d+) points\)", stdout)
        return int(m.group(1)) if m else None
    if job.check == "hypocycloid" and stdout.strip():
        return json.loads(stdout.splitlines()[0]).get("info", {}).get("points")
    return None
