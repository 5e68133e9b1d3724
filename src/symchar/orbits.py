"""Superclasses of (Z/nZ)^d under the coordinate-permutation action of S_d.

A superclass is the orbit of a tuple under permutation of its entries, so
it is represented canonically by the weakly increasing tuple of residues.
Orbits are enumerated in lexicographic order of those canonical tuples,
which matches itertools.combinations_with_replacement(range(n), d); a
position in that order can be unranked.  Whole sweeps take all
representatives at once as one array instead, or in blocks of rows, or
only the candidates for least among their translates by multiples of a
divisor of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, factorial, gcd
from operator import index
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class OrbitRep:
    """Canonical representative of an S_d-orbit in (Z/nZ)^d.

    entries is weakly increasing with every residue in [0, n).
    """

    n: int
    entries: tuple[int, ...]

    def __post_init__(self):
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


def _next_entries(rows: np.ndarray, n: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Where the candidate next entries of each row start, and how many there are.

    A sorted row y = (y_0, ..., y_(t-1)) with y_0 < step, step a divisor of
    n, is extended only by the entries v >= y_(t-1) that can keep it least
    among its translates y + c*step*1 mod n, re-sorted: by the keys of
    evaluate._translate_key_weights, key 0 <= key t needs v mod step >= y_0
    in the first digit, and when t >= 2 and y_(t-1) = y_0 mod step, so that
    keys 0 and t - 1 tie there, key 0 <= key t - 1 needs
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


def superclass_array(n: int, d: int, translate_step: int | None = None) -> np.ndarray:
    """All C(n+d-1, d) canonical representatives as one (rows, d) array.

    Rows are in the lexicographic order of enumerate_orbits.  Built by
    prefix extension (_extend) from the one-entry rows.  Entries use the
    smallest unsigned dtype that holds n - 1.  With translate_step = L, a
    divisor of n, only the candidates for least among their translates by
    multiples of L are built: the rows with first entry < L whose every
    entry passes the two rules of _next_entries.  At L = n that is every
    row.  Every row that evaluate._least_translates keeps of the rows with
    first entry < L is a candidate, so its filter of the candidates is its
    filter of that whole prefix, in the same order.
    """
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    step = n if translate_step is None else translate_step
    if step < 1 or n % step:
        raise ValueError(f"translate_step must be a positive divisor of {n}, got {step}")
    rows = np.arange(step, dtype=np.min_scalar_type(n - 1))[:, None]
    for _ in range(d - 1):
        rows = _extend(rows, n, step)
    return rows


def superclass_chunks(n: int, d: int, translate_step: int, rows: int) -> Iterator[np.ndarray]:
    """The rows of superclass_array(n, d, translate_step), in order, as
    consecutive blocks of 1 to `rows` rows, without building them all.

    The d-entry rows are the extensions (_extend) of the (d-1)-entry rows,
    which come in blocks from this function at d - 1.  Each of those blocks
    is cut into runs that extend to at most `rows` rows, counted by
    _next_entries; a single row that extends to more (only when rows < n)
    is extended alone and sliced, and a run that extends to none is
    skipped.  When the rows with first entry < translate_step, of which
    the candidates are some, are at most `rows`, the one block is
    superclass_array(n, d, translate_step).
    """
    if rows < 1 or translate_step < 1 or n % translate_step:
        raise ValueError(f"need rows >= 1 and translate_step dividing {n}, got {rows} and {translate_step}")
    if orbit_count(n, d) - orbit_count(n - translate_step, d) <= rows:
        yield superclass_array(n, d, translate_step)
        return
    if d == 1:
        yield from _slices(superclass_array(n, 1, translate_step), rows)
        return
    for block in superclass_chunks(n, d - 1, translate_step, rows):
        ends = np.cumsum(_next_entries(block, n, translate_step)[1])
        i = 0
        while i < len(block):
            done = ends[i - 1] if i else 0
            j = int(np.searchsorted(ends, done + rows, side="right"))
            if j == i:
                j = i + 1
                yield from _slices(_extend(block[i:j], n, translate_step), rows)
            elif ends[j - 1] > done:
                yield _extend(block[i:j], n, translate_step)
            i = j


def _slices(a: np.ndarray, rows: int) -> Iterator[np.ndarray]:
    return (a[lo : lo + rows] for lo in range(0, len(a), rows))


def point_array(n: int, d: int) -> np.ndarray:
    """All n^d points of (Z/nZ)^d as one (n^d, d) array in odometer order.

    Row i holds the base-n digits of i, most significant first.  Entries
    use the smallest unsigned dtype that holds n - 1.
    """
    return np.indices((n,) * d, dtype=np.min_scalar_type(n - 1)).reshape(d, -1).T
