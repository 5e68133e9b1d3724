"""Superclasses of (Z/nZ)^d under the coordinate-permutation action of S_d.

A superclass is the orbit of a tuple under permutation of its entries, so
it is represented canonically by the weakly increasing tuple of residues.
Orbits are enumerated in lexicographic order of those canonical tuples,
which matches itertools.combinations_with_replacement(range(n), d); a
position in that order can be unranked.  Sweeps take the representatives
least among their translates by multiples of a divisor of n (all of them
at n) as one array or in blocks of rows; only this module chooses them.
Every orbit's elements come as one array (orbit_array) or grouped from one
pass over the points (orbit_arrays), in lexicographic order, and the
orbits first in their class under the unit multipliers are flagged in one
pass over the representatives (unit_class_firsts).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations_with_replacement
from math import comb, factorial, gcd
from operator import index
from typing import Iterator, Sequence

import numpy as np

# evaluation blocks are capped at this many (orbit element, point) pairs,
# so that their scratch arrays (about 2 MB in evaluate.root_sums) stay in cache
_BLOCK_CELLS = 65_536


@dataclass(frozen=True)
class OrbitRep:
    """Canonical representative of an S_d-orbit in (Z/nZ)^d.

    entries is weakly increasing with every residue in [0, n).  n and the
    entries are integers (numpy ones too); anything else raises TypeError.
    """

    n: int
    entries: tuple[int, ...]

    def __post_init__(self):
        for v in (self.n, *self.entries):
            index(v)  # the integer rule of canonicalize: a float or a Fraction raises TypeError
        if self.n <= 0:
            raise ValueError(f"modulus must be positive, got {self.n}")
        if not self.entries:
            raise ValueError("orbit representative must have at least one entry")
        if any(not 0 <= v < self.n for v in self.entries):
            raise ValueError(f"entries {self.entries} not reduced mod {self.n}")
        if any(a > b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError(f"entries {self.entries} not sorted")

    @property
    def d(self) -> int:
        return len(self.entries)


def canonicalize(vec: Sequence[int], n: int) -> OrbitRep:
    """Reduce a tuple mod n and sort it into the canonical representative.

    n and the entries may be any integers, numpy ones too; the entries
    become Python ints.  A float raises TypeError.
    """
    n = index(n)
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    return OrbitRep(n, tuple(sorted(index(v) % n for v in vec)))


def residue_multiplicities(rep: OrbitRep) -> tuple[int, ...]:
    """How many entries of the representative equal each residue 0..n-1."""
    counts = [0] * rep.n
    for v in rep.entries:
        counts[v] += 1
    return tuple(counts)


def stabilizer_order(rep: OrbitRep) -> int:
    """|stab(x)| = product of k! over entry multiplicities k."""
    order = 1
    for k in residue_multiplicities(rep):
        if k > 1:
            order *= factorial(k)
    return order


def orbit_size(rep: OrbitRep) -> int:
    """Number of distinct tuples in the orbit: d! / prod(k_m!)."""
    return factorial(rep.d) // stabilizer_order(rep)


def orbit_sum(rep: OrbitRep) -> int:
    """[x] = sum of the entries mod n; constant on the orbit."""
    return sum(rep.entries) % rep.n


def rotation_order(rep: OrbitRep) -> int:
    """n / gcd(n, [x]): the least L > 0 with L*[x] = 0 mod n (1 when [x] = 0)."""
    return rep.n // gcd(rep.n, orbit_sum(rep))


def shift_orbit(rep: OrbitRep, j: int) -> OrbitRep:
    """Orbit of x + j*(1,...,1)."""
    return canonicalize([v + j for v in rep.entries], rep.n)


def negate_orbit(rep: OrbitRep) -> OrbitRep:
    """Orbit of -x."""
    return canonicalize([-v for v in rep.entries], rep.n)


def orbit_count(n: int, d: int) -> int:
    """Number of S_d-orbits of (Z/nZ)^d: C(n+d-1, d)."""
    return comb(n + d - 1, d)


def distinct_permutations(rep: OrbitRep) -> Iterator[tuple[int, ...]]:
    """All distinct permutations of the representative, lexicographically.

    Standard next-permutation stepping on the sorted tuple: each step finds
    the rightmost ascent, swaps in the next larger suffix entry and
    reverses the tail.  Yields each element of the orbit exactly once.
    """
    a = list(rep.entries)
    d = len(a)
    while True:
        yield tuple(a)
        i = d - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = d - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])


@lru_cache(maxsize=1024)
def orbit_array(rep: OrbitRep) -> np.ndarray:
    """The orbit as an (orbit_size, d) int64 array, rows in lexicographic order."""
    arr = np.array(list(distinct_permutations(rep)), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def unrank_orbit(n: int, d: int, index: int) -> OrbitRep:
    """The index-th orbit (0-based) in lexicographic enumeration order.

    Weakly increasing d-tuples over [0, n) biject with d-subsets of
    [0, n+d-1) via b_i = a_i + i, and the bijection preserves
    lexicographic order, so this unranks a combination.
    """
    total = orbit_count(n, d)
    if not 0 <= index < total:
        raise IndexError(f"orbit index {index} out of range for {total} orbits")
    entries = []
    m = n + d - 1
    prev = 0
    remaining = index
    for slot in range(d):
        for c in range(prev, m):
            block = comb(m - c - 1, d - slot - 1)
            if remaining < block:
                entries.append(c - slot)
                prev = c + 1
                break
            remaining -= block
    return OrbitRep(n, tuple(entries))


def enumerate_orbits(n: int, d: int) -> Iterator[OrbitRep]:
    """Stream all C(n+d-1, d) canonical representatives in lexicographic order."""
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    return (OrbitRep(n, t) for t in combinations_with_replacement(range(n), d))


@lru_cache(maxsize=64)
def _translate_key_weights(n: int, d: int) -> np.ndarray:
    """Weights that pack the sort keys of a row's translates into limbs.

    For a sorted row y with cyclic gaps g_j = y_(j+1) - y_j and
    g_(d-1) = n + y_0 - y_(d-1), key k is (y_k mod L, g_k, ..., g_(k+d-2)),
    gap indices mod d.  Its digits lie in [0, n] and are packed in base
    n + 1, as many to a limb as keep the limb below 2^51.  The gaps are
    linear in y, so with z = (y mod L, y, 1) the product z @ W holds limb l
    of key k in column l*d + k (row l*d + k of W.T @ z when z holds one
    row y per column).  The terms of each entry are integers whose moduli
    add up to less than 4 * 2^51 = 2^53, so a float64 matmul computes
    every entry exactly, in any order of summation.
    """
    base = n + 1
    per = 1
    while base ** (per + 1) <= 2**51:
        per += 1
    limbs = -(-d // per)
    first = np.zeros((d, limbs * d))
    gaps = np.zeros((d, limbs * d))  # weight of g_j in each limb of each key
    for k in range(d):
        for i in range(d):  # digit i of key k
            limb = i // per
            weight = base ** (min((limb + 1) * per, d) - 1 - i)
            if i == 0:
                first[k, k] = weight
            else:
                gaps[(k + i - 1) % d, limb * d + k] = weight
    # g_(j-1) adds y_j and g_j subtracts it; g_(d-1) adds n
    w = np.vstack([first, np.roll(gaps, 1, axis=0) - gaps, n * gaps[-1:]])
    w.setflags(write=False)
    return w


def _least_translates(block: np.ndarray, n: int, step: int) -> np.ndarray:
    """The rows of `block` that are lexicographically least among their
    translates y + c*step*1 mod n, re-sorted, for c = 0 .. n/step - 1.

    Rows must be sorted, with entries in [0, n) and first entry < step, and
    step must divide n.  At step = n a row is its only translate, so the
    block is returned as it is.  Key k of _translate_key_weights is at
    least the re-sorted translate that brings y_k to y_k mod step (equal to
    it unless that translate puts another entry first), and every re-sorted
    translate is at least the key of the entry it puts first.  So a row,
    whose own key is key 0, is least exactly when key 0 is at most every
    key k, compared limb by limb, and each class of translates keeps one
    row.  Rows go through about _BLOCK_CELLS cells at a time.
    """
    if step == n:
        return block
    d = block.shape[1]
    w = _translate_key_weights(n, d)
    size = max(1, _BLOCK_CELLS // max(w.shape))
    keep = np.empty(len(block), dtype=bool)
    for lo in range(0, len(block), size):
        y = block[lo : lo + size].T
        # z and the keys transposed: each limb of each key is a contiguous row
        z = np.empty((2 * d + 1, y.shape[1]))
        z[:d] = y % step
        z[d:-1] = y
        z[-1] = 1
        keys = w.T @ z
        *high, low = range(0, w.shape[1], d)
        least = keys[low : low + d] >= keys[low]  # key 0 <= key k in the limbs from here on
        for col in reversed(high):
            own, other = keys[col], keys[col : col + d]
            least = (other > own) | ((other == own) & least)
        least.all(axis=0, out=keep[lo : lo + y.shape[1]])
    return block[keep]


def _next_entries(rows: np.ndarray, n: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the candidate next entries of each row start, and how many there are.

    A sorted row y = (y_0, ..., y_(t-1)) with y_0 < step, step a divisor of
    n, is extended only by the entries v >= y_(t-1) that can keep it least
    among its translates y + c*step*1 mod n, re-sorted: by the keys of
    _translate_key_weights, key 0 <= key t needs v mod step >= y_0 in the
    first digit, and when t >= 2 and y_(t-1) = y_0 mod step, so that keys
    0 and t - 1 tie there, key 0 <= key t - 1 needs
    v - y_(t-1) >= y_1 - y_0 in the second.  The entries with
    v mod step >= y_0 are numbered j = 0, 1, ... in increasing order, as
    v = j + y_0 * (1 + j // (step - y_0)); a row's candidates are `count`
    consecutive numbers from `start`.  At step = 1 (where y_0 = 0) and at
    step = n (where v >= y_0) every entry from the bound on is a candidate
    and is its own number; at step = n the second rule is vacuous too.
    """
    lo = rows[:, -1].astype(np.int64)
    if step == n:
        return lo, n - lo
    first = rows[:, 0].astype(np.int64)
    if rows.shape[1] > 1:
        lo += np.where(lo % step == first, rows[:, 1] - first, 0)
        np.minimum(lo, n, out=lo)
    if step == 1:
        return lo, n - lo
    width = step - first
    start = lo // step * width + np.maximum(lo % step - first, 0)
    return start, n // step * width - start


def _extend(rows: np.ndarray, n: int, step: int) -> np.ndarray:
    """Each row, repeated once per candidate next entry (_next_entries) and
    extended by those entries in increasing order."""
    start, count = _next_entries(rows, n, step)
    ends = np.cumsum(count)
    out = np.empty((ends[-1], rows.shape[1] + 1), dtype=rows.dtype)
    out[:, :-1] = np.repeat(rows, count, axis=0)
    # copy i of a row whose copies end at position e gets number start + i
    numbers = np.arange(ends[-1]) - np.repeat(ends - count - start, count)
    if step not in (1, n):
        first = np.repeat(rows[:, 0].astype(np.int64), count)
        numbers += first * (1 + numbers // (step - first))
    out[:, -1] = numbers
    return out


def _candidates(n: int, d: int, step: int) -> np.ndarray:
    """The candidates for least among their translates by multiples of
    step, in order: the sorted rows with first entry < step whose every
    entry passes the rules of _next_entries, built by _extend.  They hold
    every row that _least_translates keeps of all rows with first entry
    < step, so its filter of them is its filter of that whole prefix."""
    rows = np.arange(step, dtype=np.min_scalar_type(n - 1))[:, None]
    for _ in range(d - 1):
        rows = _extend(rows, n, step)
    return rows


def superclass_array(n: int, d: int, translate_step: int | None = None) -> np.ndarray:
    """The canonical representatives least among their translates
    Y + cL*1 mod n, re-sorted, for L = translate_step a divisor of n, as
    one (rows, d) array: _least_translates of _candidates, so each class of
    translates keeps its first row; all C(n+d-1, d) at L = n, the default.
    Rows are in the lexicographic order of enumerate_orbits; entries use
    the smallest unsigned dtype that holds n - 1.
    """
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    step = n if translate_step is None else translate_step
    if step < 1 or n % step:
        raise ValueError(f"translate_step must be a positive divisor of {n}, got {step}")
    return _least_translates(_candidates(n, d, step), n, step)


def superclass_chunks(n: int, d: int, translate_step: int, rows: int) -> Iterator[np.ndarray]:
    """The rows of superclass_array(n, d, translate_step), in order, as
    consecutive blocks of 1 to `rows` rows, without building them all: each
    block of _candidate_chunks filtered by _least_translates in turn, less
    the blocks it empties.  When the rows with first entry < translate_step
    are at most `rows`, the one block is superclass_array(n, d,
    translate_step)."""
    if min(n, d, rows, translate_step) < 1 or n % translate_step:
        raise ValueError(f"need n, d, rows >= 1 and translate_step dividing n, got {n}, {d}, {rows}, {translate_step}")
    blocks = _candidate_chunks(n, d, translate_step, rows)
    yield from filter(len, map(partial(_least_translates, n=n, step=translate_step), blocks))  # holds no candidates


def _candidate_chunks(n: int, d: int, step: int, rows: int) -> Iterator[np.ndarray]:
    """_candidates(n, d, step) in consecutive blocks of 1 to `rows` rows,
    one block when the rows with first entry < step fit.  Otherwise they are
    the extensions (_extend) of the (d-1)-entry candidates, which come in
    blocks from this function at d - 1, each cut into runs that extend to
    at most `rows` rows, counted by _next_entries; a single row that
    extends to more (only when rows < n) is extended alone and sliced, and
    a run that extends to none is skipped."""
    if orbit_count(n, d) - orbit_count(n - step, d) <= rows:
        yield _candidates(n, d, step)
        return
    if d == 1:
        yield from _slices(_candidates(n, 1, step), rows)
        return
    for block in _candidate_chunks(n, d - 1, step, rows):
        ends = np.cumsum(_next_entries(block, n, step)[1])
        i = 0
        while i < len(block):
            done = ends[i - 1] if i else 0
            j = int(np.searchsorted(ends, done + rows, side="right"))
            if j == i:
                j = i + 1
                yield from _slices(_extend(block[i:j], n, step), rows)
            elif ends[j - 1] > done:
                yield _extend(block[i:j], n, step)
            i = j


def _slices(a: np.ndarray, rows: int) -> Iterator[np.ndarray]:
    return (a[lo : lo + rows] for lo in range(0, len(a), rows))


def point_array(n: int, d: int) -> np.ndarray:
    """All n^d points of (Z/nZ)^d as one (n^d, d) array in odometer order.

    Row i holds the base-n digits of i, most significant first.  Entries
    use the smallest unsigned dtype that holds n - 1.
    """
    return np.indices((n,) * d, dtype=np.min_scalar_type(n - 1)).reshape(d, -1).T


def orbit_arrays(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every orbit's elements, from one array pass over point_array(n, d).

    Returns the n^d points as one (n^d, d) int64 array grouped by orbit, the
    orbits in enumeration order, and the (N,) int64 orbit sizes: orbit i is
    the sizes[i] rows from sizes[:i].sum() on.  A point's orbit is keyed by
    its sorted entries read as a base-n number, which orders orbits as
    enumerate_orbits does.  The points come in odometer order, which is
    lexicographic, and the grouping sort is stable, so each orbit's rows
    are in the lexicographic order of distinct_permutations, its first row
    the representative.
    """
    points = point_array(n, d)
    keys = np.sort(points, axis=1).astype(np.int64) @ n ** np.arange(d - 1, -1, -1, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return points[order].astype(np.int64), np.diff(starts, append=len(keys))


def unit_class_firsts(n: int, d: int) -> np.ndarray:
    """For each orbit X in enumeration order, whether it is first in its
    class {uX : u a unit mod n}, as an (N,) bool array.

    uX is re-sorted, and enumeration order is lexicographic, so X is first
    exactly when its representative is at most sort(u * X mod n) for every
    unit u.  One pass per unit over the rows of superclass_array(n, d),
    each compared at its first differing column.
    """
    reps = superclass_array(n, d).astype(np.int64)
    first = np.ones(len(reps), dtype=bool)
    rows = np.arange(len(reps))
    for u in range(2, n):
        if gcd(u, n) == 1:
            other = np.sort(u * reps % n, axis=1)
            col = np.argmax(reps != other, axis=1)  # 0 where the rows are equal
            first &= reps[rows, col] <= other[rows, col]
    return first
