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

from functools import lru_cache, partial
from numbers import Integral
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, DimensionTooLarge
from .orbits import (
    OrbitRep,
    block_rows,
    enumerate_orbits,
    orbit_array,
    orbit_count,
    point_array,
    rotation_order,
    stabilizer_order,
    superclass_array,
    superclass_chunks,
    unit_class_firsts,
)

DEFAULT_BUDGET = 5_000_000
PERMANENT_MAX_D = 10
DEDUPE_DECIMALS = 9
# Euclidean distance within which two computed values count as one point
TOL = 1e-9
# image sweeps go through _dedupe_chunks in blocks of at most this many rows
_CHUNK_ROWS = 1 << 18
# complex terms in one block (128 float lanes) of numpy's pairwise sum
_PAIRWISE_TERMS = 64
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


def _point_block(y: Sequence[int] | np.ndarray, n: int, d: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """y, one point of shape (d,) or a block of shape (rows, d) holding any
    integers, as a (rows, d) int64 array reduced mod n, and y's shape
    without its last axis: () for one point.  Raises ValueError for an
    entry that is not an integer."""
    ys = np.asarray(y)
    if ys.dtype.kind != "i":  # unsigned, wider than int64, made float by mixing such integers, or not integers
        ys = np.array(y, dtype=object)
        for v in ys.flat:
            if not isinstance(v, Integral):
                raise ValueError(f"entries of y must be integers, got {v!r}")
        ys = ys % n
    if ys.ndim not in (1, 2) or ys.shape[-1] != d:
        raise DimensionMismatch(f"y has shape {ys.shape}, expected ({d},) or (rows, {d})")
    return ys.reshape(-1, d).astype(np.int64) % n, ys.shape[:-1]


def dot_counts(rep: OrbitRep, y: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exact counts c_t = #{x in X : x.y = t mod n} over the orbit X of rep.

    y is one point, shape (d,), giving an (n,) int64 array, or a block of
    points, shape (rows, d), giving (rows, n) with one counts row per point.
    Entries of y may be any integers, not floats; they are reduced mod n first.
    """
    n = rep.n
    block, lead = _point_block(y, n, rep.d)
    elems = orbit_array(rep)
    # every temporary below fits in one block
    step = block_rows(max(len(elems), n))
    counts = np.empty((len(block), n), dtype=np.int64)
    for lo in range(0, len(block), step):
        dots = block[lo : lo + step] @ elems.T
        np.mod(dots, n, out=dots)
        rows = len(dots)
        dots += n * np.arange(rows)[:, None]
        counts[lo : lo + rows] = np.bincount(dots.ravel(), minlength=rows * n).reshape(rows, n)
    return counts.reshape(lead + (n,))


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


def supercharacters(reps: Sequence[OrbitRep], ys: Sequence | np.ndarray) -> np.ndarray:
    """supercharacter(reps[i], ys[i]) for each of k orbits at one n, bitwise,
    as a (k, samples) array; ys has shape (k, samples, d), integer entries
    in [0, n).

    The counts of all k orbits come from one bincount keyed by (orbit,
    sample, t) over their elements, then go through one counts_value, so
    the caller bounds the block by its element-sample pairs.  One orbit
    goes through supercharacter, whose dot_counts blocks its points.
    """
    if len(reps) == 1:
        return supercharacter(reps[0], ys[0])[None]
    n = reps[0].n
    ys = np.asarray(ys, dtype=np.int64)
    k, samples, _ = ys.shape
    elems = [orbit_array(rep) for rep in reps]
    owner = np.repeat(np.arange(k), [len(e) for e in elems])  # the orbit of each element
    dots = np.einsum("ed,esd->es", np.concatenate(elems), ys[owner]) % n
    dots += (owner[:, None] * samples + np.arange(samples)) * n
    counts = np.bincount(dots.ravel(), minlength=k * samples * n)
    return counts_value(counts.reshape(k, samples, n))


@lru_cache(maxsize=16)
def _column_set_layers(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The subset lattice of d columns, layer by layer, for permanent_oracle.

    Entry L - 1 is (sources, cols), both of shape (L, C(d, L)), for the
    column sets of size L in a fixed order: set i less its column
    cols[m, i] is set sources[m, i] of layer L - 1.
    """
    layers = [[mask for mask in range(1 << d) if mask.bit_count() == size] for size in range(d + 1)]
    steps = []
    for below, layer in zip(layers, layers[1:]):
        where = {mask: i for i, mask in enumerate(below)}
        cols = [[k for k in range(d) if mask >> k & 1] for mask in layer]
        sources = [[where[mask ^ 1 << k] for k in row] for mask, row in zip(layer, cols)]
        steps.append((np.array(sources, dtype=np.int64).T.copy(), np.array(cols, dtype=np.int64).T.copy()))
    return tuple(steps)


def permanent_oracle(rep: OrbitRep, y: Sequence[int] | np.ndarray) -> np.ndarray | complex:
    """Independent evaluation of sigma_X(y) through a matrix permanent.

    With M[j][k] = e(x_j y_k / n) for any orbit member x, per(M) equals the
    full-group sum over S_d and hence stabilizer_order(X) * sigma_X(y).
    y is one point, shape (d,), giving a complex, or a block of points,
    shape (rows, d), giving one value per row.

    Over column sets C, let P(C) be the sum of prod_{j < |C|} M[j][pi(j)]
    over the bijections pi from rows 0..|C|-1 onto C, so that
    P(all columns) = per(M) and

        P(C) = sum over k in C of P(C - {k}) * M[|C| - 1][k].

    All 2^d sets of a point are filled in layer by layer, O(2^d d).  P(C)
    is a sum of |C|! unit terms, and so is every partial sum bounded, so
    the rounding error stays near d * d! ulp.  Ryser's formula instead adds
    row-sum products as large as d^d that cancel down to per(M), which at
    d = 10 costs it three more digits.  Points go through in blocks of
    orbits.block_rows(C) points, C the products of the widest layer, and a
    point's value has the same bits in any block.
    """
    n, d = rep.n, rep.d
    if d > PERMANENT_MAX_D:
        raise DimensionTooLarge(f"permanent of a {d}x{d} matrix refused (cutoff {PERMANENT_MAX_D})")
    block, lead = _point_block(y, n, d)
    x = np.array(rep.entries, dtype=np.int64)
    layers = _column_set_layers(d)
    table = roots_of_unity(n)
    step = block_rows(max(cols.size for _, cols in layers))
    per = np.empty(len(block), dtype=complex)
    for lo in range(0, len(block), step):
        mats = table[(x[:, None] * block[lo : lo + step, None, :]) % n]  # M of each point
        sets = np.ones((len(mats), 1), dtype=complex)  # P(empty set) = 1
        for j, (sources, cols) in enumerate(layers[:-1]):
            sets = (sets[:, sources] * mats[:, j, cols]).sum(axis=1)
        sources, cols = layers[-1]
        # the last layer's d terms added in order from 0.0 in any block, as
        # sum(axis=1) adds several points'; one point's lie contiguous, and
        # sum would add them pairwise
        running = np.add.accumulate(sets[:, sources[:, 0]] * mats[:, d - 1, cols[:, 0]], axis=1)
        np.add(running[:, -1], 0.0, out=per[lo : lo + step])
    per /= stabilizer_order(rep)
    return per if lead else complex(per[0])


# ---------------------------------------------------------------------------
# value sets: deduplicated 1-D complex128 arrays, in first-seen order


def _round_coord(v: float) -> float:
    r = round(v, DEDUPE_DECIMALS)
    return 0.0 if r == 0 else r  # fold -0.0 into +0.0


def _round_coords(v: np.ndarray) -> np.ndarray:
    """_round_coord of every entry of a float array, bit for bit.

    round(v, 9) is the double nearest to M * 1e-9, M the integer nearest
    to the exact product v * 1e9 (ties to even).  With m = rint(fl(v * 1e9)),
    m / 1e9 is the double nearest to m * 1e-9, since m and 1e9 are exact
    doubles while |v| < _BIG, so the two agree whenever m = M.  fl() is off
    by at most half a float spacing of the product, so m = M unless
    fl(v * 1e9) lies within one spacing of a half-integer.  Such undecided
    values, found by comparing with np.spacing rather than a fixed margin
    (one spacing is 1/8 near 2^20), go to round, as do values with
    |v| >= _BIG and values not finite.
    """
    scale = 10.0**DEDUPE_DECIMALS
    with np.errstate(invalid="ignore", over="ignore"):
        undecided = ~(np.abs(v) < _BIG)
        scaled = v * scale
        keys = np.rint(scaled)  # m, for now
        # in place, so that at most three temporaries of v's size are held
        gap = np.abs(scaled - keys)
        np.subtract(0.5, gap, out=gap)
        np.abs(gap, out=gap)  # distance from fl(v * 1e9) to the nearest half-integer
        np.abs(scaled, out=scaled)
        undecided |= gap <= np.spacing(scaled, out=scaled)
        keys /= scale
        keys += 0.0  # folds -0.0 into +0.0
    for i in np.flatnonzero(undecided).tolist():
        keys[i] = _round_coord(float(v[i]))
    return keys


def dedupe_values(values: Iterable[complex] | np.ndarray) -> np.ndarray:
    """Deduplicate complex values, keyed on coordinates rounded to 1e-9.

    The first value seen in iteration order represents its bucket, so the
    result is deterministic for a deterministic input order.  Only values
    that can share a key with another value are keyed: those whose
    neighbour in the order of p = re + _SLANT * im lies within _NEAR, and
    those too large or not finite for that test.  Every other value is its
    own bucket and is kept.  Of each run of equal values next to each
    other in p order only the first occurrence is keyed, which leaves the
    first occurrence of every exact value and so of every bucket.  Keys
    come from _round_coords as arrays: rint(v * 1e9) / 1e9 equals
    round(v, 9) bit for bit wherever v * 1e9 is not within float error of a
    half-integer, and round itself is called for the rest.  The first
    occurrence of each key pair is kept.  Keys compare as floats, so NaN
    keys never merge and infinite ones do, as they would in a dict of
    round() results.

    So the result, a new 1-D complex128 array, holds the first value of
    each class of equal keys, and deduplicating the concatenation of
    deduplicated pieces gives the result of the whole input, order included.
    """
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=complex)
    if not len(arr):
        return arr.copy()
    re, im = arr.real, arr.imag
    with np.errstate(invalid="ignore"):  # inf - inf; such values are keyed anyway
        p = re + _SLANT * im
        order = np.argsort(p)
        close = np.diff(p[order]) <= _NEAR
    near = ~((np.abs(re) < _BIG) & (np.abs(im) < _BIG))
    near[order[1:][close]] = True
    near[order[:-1][close]] = True
    keep = ~near
    # of equal values next to each other in p order, only the first
    # occurrence is keyed
    ordered = arr[order]
    runs = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    first_seen = np.zeros(len(arr), dtype=bool)
    first_seen[np.minimum.reduceat(order, runs)] = True
    crowd = np.flatnonzero(near & first_seen)
    keys = _round_coords(arr[crowd].view(np.float64)).view(complex)  # both parts in one call
    _, first = np.unique(keys, return_index=True, equal_nan=False)  # stable: first occurrences
    keep[crowd[first]] = True
    return arr[keep]


def _unmatched(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the points of the complex array a with no point of b within TOL.

    A point within TOL of z has a real part within TOL of z's, so b is
    sorted by real part, and z is compared only with the points of b whose
    real parts lie in [re z - 2*TOL, re z + 2*TOL], found by searchsorted:
    every such (z, w) pair is tested for |z - w| <= TOL in one array pass.
    """
    near = b[np.argsort(b.real, kind="stable")]
    lo = np.searchsorted(near.real, a.real - 2.0 * TOL, side="left")
    count = np.searchsorted(near.real, a.real + 2.0 * TOL, side="right") - lo
    point = np.repeat(np.arange(len(a)), count)  # each candidate pair's point of a
    pair = np.arange(len(point)) + np.repeat(lo - (np.cumsum(count) - count), count)  # and of near
    unmatched = np.ones(len(a), dtype=bool)
    unmatched[point[np.abs(a[point] - near[pair]) <= TOL]] = False
    return unmatched


def cloud_difference(a: Sequence[complex] | np.ndarray, b: Sequence[complex] | np.ndarray) -> tuple[list, list]:
    """Points of a not within TOL of a point of b, and points of b not within
    TOL of a point of a, as lists.  Both are empty exactly when the sets match."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a[_unmatched(a, b)].tolist(), b[_unmatched(b, a)].tolist()


def rotation_witness(values: Sequence[complex] | np.ndarray, fold: int) -> tuple[complex, complex] | None:
    """The first value whose rotation by 2*pi/fold (one array product) is not
    within TOL of a value, with that rotated value; None when the set is rotation-closed."""
    if fold <= 1:
        return None
    values = np.asarray(values, dtype=complex)
    rotated = values * np.exp(2j * np.pi / fold)
    unmatched = np.flatnonzero(_unmatched(rotated, values))
    if not len(unmatched):
        return None
    return complex(values[unmatched[0]]), complex(rotated[unmatched[0]])


# ---------------------------------------------------------------------------
# image computation


def root_sums(n: int, elems: np.ndarray, block: np.ndarray) -> np.ndarray:
    """sum over rows x of elems of e(x.y / n), at each row y of `block`.

    elems is one orbit's rows, shape (r, d), giving (rows,) values, or a
    stack of k orbits of r rows each, shape (k, r, d), giving (k, rows).
    Every entry of `elems` and `block` must lie in [0, n), as in orbit,
    superclass and odometer rows, so that each dot product x.y is an
    integer in [0, top] with top = d(n-1)^2.  When top < block_rows(1) the
    dots come from a float64 matmul, exact since every partial sum is an
    integer below 2^53, and index the root table repeated out to length
    top + 1, so no mod is taken.  Otherwise they come from an int64 matmul
    reduced mod n.  For one orbit each row is then the sum of its roots
    over the rows of elems, by numpy's sum along the row, so a value is
    bitwise the same in either branch and in any block.  The rows go
    through in blocks of block_rows(r), in scratch arrays allocated once
    per call.  A stack of k > r orbits with r <= _PAIRWISE_TERMS goes
    through _stacked_sums, whose values are bitwise those of one call per
    orbit.  Any other stack is summed orbit by orbit: its r passes would
    outnumber k calls, or its rows span more than one block of numpy's
    pairwise sum.
    """
    r, d = elems.shape[-2:]
    if elems.ndim == 3 and (len(elems) <= r or r > _PAIRWISE_TERMS):
        return np.array([root_sums(n, e, block) for e in elems]).reshape(len(elems), len(block))
    top = d * (n - 1) ** 2
    periodic = top < block_rows(1)  # the table, top + 1 roots long, fits in one block
    table = _periodic_roots(n, top) if periodic else roots_of_unity(n)
    if elems.ndim == 3:
        return _stacked_sums(n, elems, block, table, periodic)
    kind = np.float64 if periodic else np.int64
    step = block_rows(r)
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


def _pairwise_add(r: int, term: Callable[[int, np.ndarray], None], acc: np.ndarray, out: np.ndarray) -> None:
    """out = the sum of terms 0 .. r-1, r <= _PAIRWISE_TERMS, entry by entry,
    in the order numpy's complex add.reduce adds the terms of one row.

    term(p, a) writes term p into the array a; acc holds min(r, 4) + 1
    scratch arrays of out's shape.  A row of at most 128 float lanes is one
    block of numpy's pairwise sum: fewer than four terms are added in
    order; otherwise terms 0-3 start four accumulators, term p goes into
    accumulator p mod 4 while a full group of four remains, the
    accumulators are added as (a0 + a1) + (a2 + a3) and the leftover terms
    in order.  The reduction then adds the sum to its initial 0.0.
    """
    if r < 4:
        total, spare = acc[0], acc[1]
        term(0, total)
        for p in range(1, r):
            term(p, spare)
            total += spare
    else:
        total, spare = acc[0], acc[4]
        for p in range(4):
            term(p, acc[p])
        full = r - r % 4
        for p in range(4, full):
            term(p, spare)
            acc[p % 4] += spare
        total += acc[1]
        acc[2] += acc[3]
        total += acc[2]
        for p in range(full, r):
            term(p, spare)
            total += spare
    np.add(total, 0.0, out=out)


def _stacked_sums(n: int, elems: np.ndarray, block: np.ndarray, table: np.ndarray, periodic: bool) -> np.ndarray:
    """root_sums of a (k, r, d) stack of orbits, r <= _PAIRWISE_TERMS, as
    (k, rows), in root_sums' branch (periodic or not) and its root table.

    Each term position p is one (orbits, rows) block: the p-th rows of a
    block of orbits times the block's points, by the same exact matmul as
    root_sums, cast to indices (periodic) or reduced mod n, gathered from
    `table` and added by _pairwise_add in the order of numpy's row sum, so
    each value is bitwise root_sums of its own orbit.  Blocks hold up to
    block_rows(1) points and block_rows(4 * points) orbits, so that the
    four accumulators hold one block of values together, in scratch
    arrays allocated once per call.
    """
    k, r, d = elems.shape
    kind = np.float64 if periodic else np.int64
    rows = max(1, min(len(block), block_rows(1)))
    orbits = min(k, block_rows(4 * rows))
    xs = np.ascontiguousarray(elems.transpose(1, 0, 2), dtype=kind)  # xs[p]: the p-th row of every orbit
    ys = np.empty((d, rows), dtype=kind)
    dots = np.empty(orbits * rows, dtype=kind)
    idx = np.empty(orbits * rows, dtype=np.intp) if periodic else dots
    acc = np.empty((min(r, 4) + 1, orbits * rows), dtype=complex)
    out = np.empty((k, len(block)), dtype=complex)
    for lo in range(0, len(block), rows):
        m = min(rows, len(block) - lo)
        np.copyto(ys[:, :m], block[lo : lo + m].T)
        for first in range(0, k, orbits):
            shape = (min(orbits, k - first), m)
            size = shape[0] * m
            dot, ind = dots[:size].reshape(shape), idx[:size].reshape(shape)

            def term(p: int, into: np.ndarray) -> None:
                np.matmul(xs[p, first : first + shape[0]], ys[:, :m], out=dot)
                if periodic:
                    np.copyto(ind, dot, casting="unsafe")
                else:
                    np.mod(dot, n, out=ind)
                np.take(table, ind, out=into, mode="clip")

            _pairwise_add(r, term, acc[:, :size].reshape((-1, *shape)), out[first : first + shape[0], lo : lo + m])
    return out


def values_on_block(rep: OrbitRep, block: np.ndarray, elems: np.ndarray | None = None) -> np.ndarray:
    """sigma_X at each row of `block`, whose entries lie in [0, n).  elems,
    the orbit's rows in the order of orbit_array(rep), is that array unless
    the caller has them.  table.build_table instead passes a (k, r, d)
    stack of k orbits of r elements each, at rep's n, and gets their values
    as (k, rows), each row bitwise that of its own orbit (root_sums)."""
    return root_sums(rep.n, orbit_array(rep) if elems is None else elems, block)


def _dedupe_chunks(blocks: Iterable[Any], values_of: Callable[[Any], np.ndarray]) -> np.ndarray:
    """dedupe_values of values_of(block) for each block, concatenated.

    Before a block's values are added, the values held are deduplicated if
    they are more than twice as many as after the last time, and more than
    _CHUNK_ROWS, so at most about twice the values kept and two blocks'
    values are held.  Deduplicating deduplicated pieces keeps the first
    value of each key, so the result is that of one dedupe_values over all
    blocks, order included.  As in a sweep of one block, the last block is
    held through the final dedupe and the values are freed before it: the
    other order gave small image sweeps a quarter more page faults and a
    tenth more time (glibc malloc, x86-64).
    """
    held: list[np.ndarray] = []
    count = base = 0  # values held, and held after the last dedupe
    for block in blocks:
        if count > max(2 * base, _CHUNK_ROWS):
            held = [dedupe_values(np.concatenate(held))]
            count = base = len(held[0])
        held.append(values_of(block))
        count += len(held[-1])
    if len(held) > 1:
        held = [np.concatenate(held)]  # the final dedupe holds only the merged values
    return dedupe_values(held.pop())


def image(rep: OrbitRep, budget: int = DEFAULT_BUDGET, full_group: bool = False) -> np.ndarray:
    """All values of sigma_X as one array, deduplicated by dedupe_values.

    By default y runs over the canonical superclass representatives (the
    value is constant on superclasses), and of those only over the ones
    least among their translates Y + cL*1 mod n, re-sorted, with
    L = rotation_order(rep) (every one at L = n).  Since L*[x] = 0 mod n,
    a translate has Y's dot products mod n, so the value of Y.  One that
    does not wrap mod n keeps their order, so its value is bitwise the
    same; one that wraps sums the same terms in another order, so its
    value can differ in the last bits.  The least translate comes first in
    the enumeration, so the values kept are those of the full sweep, order
    included, except where a wrapped translate's float and the least one's
    straddle a rounding boundary of dedupe_values: the full sweep keeps
    both, this sweep only the first.  The budget still counts all
    C(n+d-1, d) superclasses.  The rows come from orbits.superclass_chunks
    in blocks of at most _CHUNK_ROWS, each evaluated in turn through
    _dedupe_chunks, so memory follows the values kept, not the rows swept.
    full_group=True instead sweeps all n^d points as an oracle for the
    constancy, in the odometer order of point_array and in blocks alike.
    """
    n, d = rep.n, rep.d
    BudgetExceeded.check(n**d if full_group else orbit_count(n, d), budget)
    if full_group:
        blocks = np.split(point_array(n, d), range(_CHUNK_ROWS, n**d, _CHUNK_ROWS))
    else:
        blocks = superclass_chunks(n, d, rotation_order(rep), _CHUNK_ROWS)
    return _dedupe_chunks(blocks, partial(values_on_block, rep))


def orbit_sweeps(n: int, d: int) -> Iterator[tuple[OrbitRep, np.ndarray]]:
    """Each orbit at (n, d) in enumeration order, with the rows image() sweeps
    for it: the least translates superclass_array(n, d, L) of its rotation
    order L, built once per L and shared by the orbits of that L.  Each
    caller charges its own budget before the first row is built.
    """
    swept = {}  # by rotation order
    for rep in enumerate_orbits(n, d):
        step = rotation_order(rep)
        if step not in swept:
            swept[step] = superclass_array(n, d, step)
        yield rep, swept[step]


def union_image(n: int, d: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Union of the images of every orbit at (n, d): the dedupe_values array
    of their values concatenated in enumeration order.  The N images of N superclasses
    count N^2 against the budget before any work, so an orbit's at most N
    values go through _dedupe_chunks as one block.

    Only the orbits first in their class {uX : u a unit mod n} are swept
    (orbits.unit_class_firsts).  sigma_{uX}(Y) = sigma_X(uY), Y -> uY
    permutes the superclasses, and uX has X's rotation order, so uX has
    X's image as a set; X comes first in enumeration order, so the values
    kept are those of the sweep over every orbit, order included, except
    where two floats of one value straddle a rounding boundary of
    dedupe_values, as in image().
    """
    BudgetExceeded.check(orbit_count(n, d) ** 2, budget)
    sweeps = (sweep for sweep, first in zip(orbit_sweeps(n, d), unit_class_firsts(n, d)) if first)
    return _dedupe_chunks(sweeps, lambda sweep: values_on_block(*sweep))
