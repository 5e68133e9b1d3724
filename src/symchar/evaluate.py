"""Exact evaluation of symmetric supercharacters.

For an orbit X of (Z/nZ)^d and a point y, the supercharacter value is

    sigma_X(y) = sum over x in X of e(x.y / n),        e(t) = exp(2*pi*i*t)

Everything identity-shaped is done on integer counts rather than on
floats.  dot_counts(rep, y) gives c_t = #{x in X : x.y = t mod n} as an
(n,) int64 array for one point y, or as a (rows, n) array for a block of
points, one row each.  sigma_X(y) is then sum_t c_t e(t/n)
(counts_value), and the conjugation / translation / reflection
identities become exact index shifts and reversals along the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import floor
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, DimensionTooLarge
from .orbits import (
    OrbitRep,
    distinct_permutations,
    enumerate_orbits,
    orbit_count,
    rotation_order,
    stabilizer_order,
    superclass_array,
)

DEFAULT_BUDGET = 5_000_000
DEDUPE_DECIMALS = 9
# evaluation blocks are capped at this many (orbit element, point) pairs,
# so that their scratch arrays (about 2 MB in values_on_block) stay in cache
_BLOCK_CELLS = 65_536
# A value shares its rounded key only with values within 1e-9 in both
# coordinates, so within (1 + _SLANT) * 1e-9 along p = re + _SLANT * im.
# _NEAR covers that and the float error of p and of its gaps while every
# coordinate is below _BIG in modulus (under 1e-9 there).
_SLANT = 0.618
_NEAR = 4e-9
_BIG = 2.0**20


@lru_cache(maxsize=256)
def roots_of_unity(n: int) -> np.ndarray:
    """Table of the n-th roots of unity e(t/n), t = 0..n-1."""
    table = np.exp(2j * np.pi * np.arange(n) / n)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=16)  # up to 1 MB each
def _periodic_roots(n: int, top: int) -> np.ndarray:
    """roots_of_unity(n) repeated out to length top + 1: entry t is e(t/n)."""
    table = np.resize(roots_of_unity(n), top + 1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4096)
def orbit_elements(rep: OrbitRep) -> tuple[tuple[int, ...], ...]:
    """The orbit as a tuple of tuples, in lexicographic order."""
    return tuple(distinct_permutations(rep))


@lru_cache(maxsize=1024)
def orbit_array(rep: OrbitRep) -> np.ndarray:
    """The orbit as an (orbit_size, d) integer array."""
    arr = np.array(orbit_elements(rep), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def dot_counts(rep: OrbitRep, y: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exact counts c_t = #{x in X : x.y = t mod n} over the orbit X of rep.

    y is one point, shape (d,), giving an (n,) int64 array, or a block of
    points, shape (rows, d), giving (rows, n) with one counts row per point.
    Entries of y may be any integers; they are reduced mod n first.
    """
    n, d = rep.n, rep.d
    ys = np.asarray(y)
    if ys.dtype.kind != "i":  # unsigned, wider than int64, or made float by mixing such integers
        ys = np.array(y, dtype=object) % n
    if ys.ndim not in (1, 2) or ys.shape[-1] != d:
        raise DimensionMismatch(f"y has shape {ys.shape}, expected ({d},) or (rows, {d})")
    block = ys.reshape(-1, d)
    elems = orbit_array(rep)
    # every temporary below has at most _BLOCK_CELLS cells
    step = max(1, _BLOCK_CELLS // max(len(elems), n))
    counts = np.empty((len(block), n), dtype=np.int64)
    for lo in range(0, len(block), step):
        dots = (block[lo : lo + step].astype(np.int64) % n) @ elems.T
        np.mod(dots, n, out=dots)
        rows = len(dots)
        dots += n * np.arange(rows)[:, None]
        counts[lo : lo + rows] = np.bincount(dots.ravel(), minlength=rows * n).reshape(rows, n)
    return counts.reshape(ys.shape[:-1] + (n,))


def counts_value(counts: np.ndarray) -> np.ndarray | complex:
    """sum_t c_t e(t/n) over the last axis of an integer counts array.

    The terms are added in order t = 0, ..., n-1, so every row gets the
    same float value whatever the block it was computed in.
    """
    table = roots_of_unity(counts.shape[-1])
    acc = np.zeros(counts.shape[:-1], dtype=complex)
    for t in range(len(table)):
        acc += counts[..., t] * table[t]
    return acc[()]


def supercharacter(rep: OrbitRep, y: Sequence[int] | np.ndarray) -> np.ndarray | complex:
    """sigma_X(y) for X the orbit of rep, at one point or at each row of a block."""
    return counts_value(dot_counts(rep, y))


def permanent_oracle(rep: OrbitRep, y: Sequence[int], max_d: int = 10) -> complex:
    """Independent evaluation of sigma_X(y) through a matrix permanent.

    With M[j][k] = e(x_j y_k / n) for any orbit member x, per(M) equals the
    full-group sum over S_d and hence stabilizer_order(X) * sigma_X(y).
    Uses Ryser's formula with Gray-code subset stepping, O(2^d d).
    """
    d = rep.d
    if d > max_d:
        raise DimensionTooLarge(f"permanent of a {d}x{d} matrix refused (cutoff {max_d})")
    if len(y) != d:
        raise DimensionMismatch(f"y has length {len(y)}, expected {d}")
    n = rep.n
    table = roots_of_unity(n)
    mat = np.empty((d, d), dtype=complex)
    for j, xj in enumerate(rep.entries):
        for k, yk in enumerate(y):
            mat[j, k] = table[(xj * yk) % n]
    total = 0j
    rowsum = np.zeros(d, dtype=complex)
    gray = 0
    parity = 1  # (-1)^|S| for the current subset S encoded by gray
    for step in range(1, 1 << d):
        new_gray = step ^ (step >> 1)
        changed = new_gray ^ gray
        col = changed.bit_length() - 1
        if new_gray & changed:
            rowsum += mat[:, col]
        else:
            rowsum -= mat[:, col]
        parity = -parity
        gray = new_gray
        total += parity * np.prod(rowsum)
    per = total * (-1) ** d
    return complex(per) / stabilizer_order(rep)


# ---------------------------------------------------------------------------
# point clouds


def _round_coord(v: float) -> float:
    r = round(v, DEDUPE_DECIMALS)
    return 0.0 if r == 0 else r  # fold -0.0 into +0.0


def dedupe_values(values: Iterable[complex] | np.ndarray) -> tuple[complex, ...]:
    """Deduplicate complex values, keyed on coordinates rounded to 1e-9.

    The first value seen in iteration order represents its bucket, so the
    result is deterministic for a deterministic input order.  Only values
    that can share a key with another value are looked up: those whose
    neighbour in the order of p = re + _SLANT * im lies within _NEAR, and
    those too large or not finite for that test.  Every other value is its
    own bucket and is kept.  Exact repeats among the looked-up values are
    dropped first, as whole arrays (runs of equal values in p order, then
    np.unique): the first occurrence of each bucket is also the first
    occurrence of its exact value, so only those first occurrences, kept
    in input order, need rounding.
    """
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=complex)
    if not len(arr):
        return ()
    re, im = arr.real, arr.imag
    with np.errstate(invalid="ignore"):  # inf - inf; such values are looked up anyway
        p = re + _SLANT * im
        order = np.argsort(p)
        close = np.diff(p[order]) <= _NEAR
    near = ~((np.abs(re) < _BIG) & (np.abs(im) < _BIG))
    near[order[1:][close]] = True
    near[order[:-1][close]] = True
    keep = ~near
    # of equal values next to each other in p order, only the first
    # occurrence is looked up
    ordered = arr[order]
    runs = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    first_seen = np.zeros(len(arr), dtype=bool)
    first_seen[np.minimum.reduceat(order, runs)] = True
    crowd = np.flatnonzero(near & first_seen)
    _, first = np.unique(arr[crowd], return_index=True, equal_nan=False)
    first.sort()
    crowd = crowd[first]
    seen: dict[tuple[float, float], None] = {}
    for i, z in zip(crowd.tolist(), arr[crowd].tolist()):
        key = (_round_coord(z.real), _round_coord(z.imag))
        if key not in seen:
            seen[key] = None
            keep[i] = True
    return tuple(arr[keep].tolist())


@dataclass(frozen=True)
class PointCloud:
    """Deduplicated set of supercharacter values in the complex plane."""

    n: int
    d: int
    rep: OrbitRep | None
    values: tuple[complex, ...]

    @classmethod
    def from_values(cls, n, d, rep, values):
        return cls(n, d, rep, dedupe_values(values))


class _Matcher:
    """Tolerance-based membership for a set of complex points.

    Buckets points on a grid of width 2*tol; a query within tol of a
    stored point is always found by scanning the 3x3 neighborhood of its
    own bucket.
    """

    def __init__(self, values: Iterable[complex], tol: float = 1e-9):
        self.tol = tol
        self.width = 2.0 * tol
        self.buckets: dict[tuple[int, int], list[complex]] = {}
        for z in values:
            self.buckets.setdefault(self._key(z), []).append(z)

    def _key(self, z: complex) -> tuple[int, int]:
        return (floor(z.real / self.width + 0.5), floor(z.imag / self.width + 0.5))

    def contains(self, z: complex) -> bool:
        kr, ki = self._key(z)
        for dr in (-1, 0, 1):
            for di in (-1, 0, 1):
                for w in self.buckets.get((kr + dr, ki + di), ()):
                    if abs(z - w) <= self.tol:
                        return True
        return False


def values_match(a: Iterable[complex], b: Iterable[complex], tol: float = 1e-9) -> bool:
    """Symmetric set equality up to tol: every point of each side is
    within tol of some point of the other."""
    only_a, only_b = cloud_difference(a, b, tol)
    return not only_a and not only_b


def cloud_difference(a: Iterable[complex], b: Iterable[complex], tol: float = 1e-9) -> tuple[list[complex], list[complex]]:
    """Points of a not matched in b, and points of b not matched in a."""
    a = list(a)
    b = list(b)
    mb = _Matcher(b, tol)
    ma = _Matcher(a, tol)
    return [z for z in a if not mb.contains(z)], [w for w in b if not ma.contains(w)]


def rotation_closed(values: Sequence[complex], fold: int, tol: float = 1e-9) -> bool:
    """Is the value set invariant under rotation by 2*pi/fold?"""
    if fold <= 1:
        return True
    rot = np.exp(2j * np.pi / fold)
    matcher = _Matcher(values, tol)
    return all(matcher.contains(z * rot) for z in values)


# ---------------------------------------------------------------------------
# image computation


def odometer_blocks(base: int, width: int, block_rows: int):
    """Yield all base**width digit tuples in odometer (lexicographic) order,
    as (rows, width) integer arrays of at most block_rows rows."""
    total = base**width
    for lo in range(0, total, block_rows):
        idx = np.arange(lo, min(lo + block_rows, total), dtype=np.int64)
        block = np.empty((len(idx), width), dtype=np.int64)
        for col in range(width - 1, -1, -1):
            block[:, col] = idx % base
            idx //= base
        yield block


def values_on_block(rep: OrbitRep, block: np.ndarray) -> np.ndarray:
    """sigma_X at each row of `block`, via the root table.

    Every entry of `block` must lie in [0, n), as in superclass and
    odometer rows, so that each dot product x.y is an integer in
    [0, top] with top = d(n-1)^2.  When top < _BLOCK_CELLS the dots come
    from a float64 matmul, exact since every partial sum is an integer
    below 2^53, and index the root table repeated out to length top + 1,
    so no mod is taken.  Otherwise they come from an int64 matmul reduced
    mod n.  Each row is then the sum of its roots over the orbit in orbit
    order, so a value is bitwise the same in either branch and in any
    block.  The rows go through _BLOCK_CELLS cells at a time, in scratch
    arrays allocated once per call.
    """
    n, d = rep.n, rep.d
    elems = orbit_array(rep)
    r = len(elems)
    top = d * (n - 1) ** 2
    periodic = top < _BLOCK_CELLS
    kind = np.float64 if periodic else np.int64
    table = _periodic_roots(n, top) if periodic else roots_of_unity(n)
    step = max(1, _BLOCK_CELLS // r)
    rows = min(step, len(block))
    xs = elems.T.astype(kind)
    ys = np.empty((rows, d), dtype=kind)
    dots = np.empty((rows, r), dtype=kind)
    idx = np.empty((rows, r), dtype=np.intp) if periodic else dots
    terms = np.empty((rows, r), dtype=complex)
    out = np.empty(len(block), dtype=complex)
    for lo in range(0, len(block), step):
        m = min(step, len(block) - lo)
        np.copyto(ys[:m], block[lo : lo + m])
        np.matmul(ys[:m], xs, out=dots[:m])
        if periodic:
            np.copyto(idx[:m], dots[:m], casting="unsafe")
        else:
            np.mod(dots[:m], n, out=idx[:m])
        np.take(table, idx[:m], out=terms[:m], mode="clip")  # in range; mode "raise" buffers `out`
        terms[:m].sum(axis=1, out=out[lo : lo + m])
    return out


def image(
    rep: OrbitRep,
    budget: int = DEFAULT_BUDGET,
    full_group: bool = False,
) -> PointCloud:
    """All values of sigma_X, deduplicated.

    By default y runs over the canonical superclass representatives (the
    value is constant on superclasses), and only over those whose first
    entry is < L = rotation_order(rep).  A superclass Y with first entry
    m >= L adds nothing: with q = m // L, Y - qL*1 is sorted and earlier
    in the enumeration, and since L*[x] = 0 mod n its dot products equal
    those of Y mod n element by element, so its value is bitwise the same.
    The result is therefore that of the full sweep, order included.  The
    budget still counts all C(n+d-1, d) superclasses.
    full_group=True instead sweeps all n^d points as an oracle for the
    constancy.  The points are held as one array of the smallest unsigned
    dtype that holds n - 1, in index order, and evaluated in one call.
    """
    n, d = rep.n, rep.d
    total = n**d if full_group else orbit_count(n, d)
    if total > budget:
        raise BudgetExceeded(total, budget)
    if full_group:
        # row i holds the base-n digits of i: the odometer order
        points = np.indices((n,) * d, dtype=np.min_scalar_type(n - 1)).reshape(d, -1).T
    else:
        points = superclass_array(n, d, rotation_order(rep))
    return PointCloud.from_values(n, d, rep, values_on_block(rep, points))


def union_image(n: int, d: int, budget: int = DEFAULT_BUDGET) -> PointCloud:
    """Union of the images of every orbit at (n, d), deduplicated."""
    count = orbit_count(n, d)
    if count * count > budget:
        raise BudgetExceeded(count * count, budget)
    values: list[complex] = []
    for rep in enumerate_orbits(n, d):
        values.extend(image(rep, budget=budget).values)
    return PointCloud.from_values(n, d, None, values)
