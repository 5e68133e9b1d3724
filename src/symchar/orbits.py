"""Superclasses of (Z/nZ)^d under the coordinate-permutation action of S_d.

A superclass is the orbit of a tuple under permutation of its entries, so
it is represented canonically by the weakly increasing tuple of residues.
Orbits are enumerated in lexicographic order of those canonical tuples,
which matches itertools.combinations_with_replacement(range(n), d); a
position in that order can be unranked.  Whole sweeps take all
representatives at once as one array instead, or in blocks of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, factorial, gcd
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
    """Reduce a tuple mod n and sort it into the canonical representative."""
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    return OrbitRep(n, tuple(sorted(v % n for v in vec)))


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


def _extend(rows: np.ndarray, n: int) -> np.ndarray:
    """Each row ending in v, repeated n - v times and extended by v, v+1, ..., n-1."""
    reps = n - rows[:, -1].astype(np.int64)
    ends = np.cumsum(reps)
    out = np.empty((ends[-1], rows.shape[1] + 1), dtype=rows.dtype)
    out[:, :-1] = np.repeat(rows, reps, axis=0)
    # copy i of a row whose copies end at position e gets v + (i - (e - reps)) = n - e + i
    out[:, -1] = np.arange(ends[-1]) - np.repeat(ends - n, reps)
    return out


def superclass_array(n: int, d: int, first_below: int | None = None) -> np.ndarray:
    """All C(n+d-1, d) canonical representatives as one (rows, d) array.

    Rows are in the lexicographic order of enumerate_orbits.  Built by
    prefix extension (_extend) from the one-entry rows.  Entries use the
    smallest unsigned dtype that holds n - 1.  With first_below = L in
    [1, n], only the rows whose first entry is < L are built; they are a
    prefix of the full array.
    """
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    if first_below is None:
        first_below = n
    if not 1 <= first_below <= n:
        raise ValueError(f"first_below must be in [1, {n}], got {first_below}")
    rows = np.arange(first_below, dtype=np.min_scalar_type(n - 1))[:, None]
    for _ in range(d - 1):
        rows = _extend(rows, n)
    return rows


def superclass_chunks(n: int, d: int, first_below: int, rows: int) -> Iterator[np.ndarray]:
    """The rows of superclass_array(n, d, first_below), in order, as
    consecutive blocks of 1 to `rows` rows, without building them all.

    The d-entry rows are the extensions (_extend) of the (d-1)-entry rows,
    which come in blocks from this function at d - 1.  Each of those blocks
    is cut into runs that extend to at most `rows` rows; a single row that
    extends to more (only when rows < n) is extended alone and sliced.  A
    prefix of at most `rows` rows is the one block
    superclass_array(n, d, first_below).
    """
    if rows < 1 or not 1 <= first_below <= n:
        raise ValueError(f"need rows >= 1 and first_below in [1, {n}], got {rows} and {first_below}")
    if orbit_count(n, d) - orbit_count(n - first_below, d) <= rows:
        yield superclass_array(n, d, first_below)
        return
    if d == 1:
        yield from _slices(superclass_array(n, 1, first_below), rows)
        return
    for block in superclass_chunks(n, d - 1, first_below, rows):
        ends = np.cumsum(n - block[:, -1].astype(np.int64))
        i = 0
        while i < len(block):
            j = int(np.searchsorted(ends, (ends[i - 1] if i else 0) + rows, side="right"))
            if j > i:
                yield _extend(block[i:j], n)
            else:
                j = i + 1
                yield from _slices(_extend(block[i:j], n), rows)
            i = j


def _slices(a: np.ndarray, rows: int) -> Iterator[np.ndarray]:
    return (a[lo : lo + rows] for lo in range(0, len(a), rows))


def point_array(n: int, d: int) -> np.ndarray:
    """All n^d points of (Z/nZ)^d as one (n^d, d) array in odometer order.

    Row i holds the base-n digits of i, most significant first.  Entries
    use the smallest unsigned dtype that holds n - 1.
    """
    return np.indices((n,) * d, dtype=np.min_scalar_type(n - 1)).reshape(d, -1).T
