"""Superclasses of (Z/nZ)^d under the coordinate-permutation action of S_d.

A superclass is the orbit of a tuple under permutation of its entries, so
it is represented canonically by the weakly increasing tuple of residues.
Orbits are enumerated in lexicographic order of those canonical tuples,
which matches itertools.combinations_with_replacement(range(n), d); a
position in that order can be ranked and unranked.  Whole sweeps take all
representatives at once as one array instead.
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


def rank_orbit(rep: OrbitRep) -> int:
    """Inverse of unrank_orbit: position in lexicographic enumeration."""
    n, d = rep.n, rep.d
    m = n + d - 1
    rank = 0
    prev = 0
    for slot, v in enumerate(rep.entries):
        c = v + slot
        for lower in range(prev, c):
            rank += comb(m - lower - 1, d - slot - 1)
        prev = c + 1
    return rank


def enumerate_orbits(n: int, d: int) -> Iterator[OrbitRep]:
    """Stream all C(n+d-1, d) canonical representatives in lexicographic order."""
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    return (OrbitRep(n, t) for t in combinations_with_replacement(range(n), d))


def superclass_array(n: int, d: int, first_below: int | None = None) -> np.ndarray:
    """All C(n+d-1, d) canonical representatives as one (rows, d) array.

    Rows are in the lexicographic order of enumerate_orbits.  Built by
    prefix extension: each row ending in v is repeated n - v times and
    extended by v, v+1, ..., n-1.  Entries use the smallest unsigned
    dtype that holds n - 1.  With first_below = L in [1, n], only the
    rows whose first entry is < L are built; they are a prefix of the
    full array.
    """
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    if d <= 0:
        raise ValueError(f"d must be positive, got {d}")
    if first_below is None:
        first_below = n
    if not 1 <= first_below <= n:
        raise ValueError(f"first_below must be in [1, {n}], got {first_below}")
    dtype = np.min_scalar_type(n - 1)
    rows = np.arange(first_below, dtype=dtype)[:, None]
    for _ in range(d - 1):
        last = rows[:, -1].astype(np.int64)
        reps = n - last
        ends = np.cumsum(reps)
        # copy i of a row starting at position s gets last + (i - s)
        col = np.arange(ends[-1]) - np.repeat(ends - reps - last, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), col.astype(dtype)])
    return rows


def superclass_chunks(n: int, d: int, first_below: int, rows: int) -> Iterator[np.ndarray]:
    """The rows of superclass_array(n, d, first_below), in order, as
    consecutive blocks of at most `rows` rows, without building them all.

    The rows that extend a prefix p by a next entry in [lo, hi), with k
    entries left, are p followed by superclass_array(n - lo, k, hi - lo) + lo.
    Ranges of next entries are taken as wide as fit in `rows`, a next entry
    whose rows alone do not fit is split by the entry after it, and
    neighbouring pieces are joined up to `rows`.  A prefix of at most
    `rows` rows is the one block superclass_array(n, d, first_below).
    """
    if rows < 1 or not 1 <= first_below <= n:
        raise ValueError(f"need rows >= 1 and first_below in [1, {n}], got {rows} and {first_below}")
    if orbit_count(n, d) - orbit_count(n - first_below, d) <= rows:
        yield superclass_array(n, d, first_below)
        return
    dtype = np.min_scalar_type(n - 1)

    def pieces(prefix: tuple[int, ...], lo: int, hi: int) -> Iterator[np.ndarray]:
        k = d - len(prefix)
        v = lo
        while v < hi:
            w = v + 1
            if k > 1 and orbit_count(n - v, k - 1) > rows:
                yield from pieces(prefix + (v,), v, n)
            else:
                if orbit_count(n - v, k) - orbit_count(n - hi, k) <= rows:
                    w = hi
                while w < hi and orbit_count(n - v, k) - orbit_count(n - w - 1, k) <= rows:
                    w += 1
                tail = superclass_array(n - v, k, w - v)
                piece = np.empty((len(tail), d), dtype=dtype)
                piece[:, : len(prefix)] = prefix
                np.add(tail, v, out=piece[:, len(prefix) :], dtype=dtype)
                yield piece
            v = w

    pending: list[np.ndarray] = []
    held = 0
    for piece in pieces((), 0, first_below):
        if held + len(piece) > rows:
            yield pending[0] if len(pending) == 1 else np.concatenate(pending)
            pending, held = [], 0
        pending.append(piece)
        held += len(piece)
    yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def point_array(n: int, d: int) -> np.ndarray:
    """All n^d points of (Z/nZ)^d as one (n^d, d) array in odometer order.

    Row i holds the base-n digits of i, most significant first.  Entries
    use the smallest unsigned dtype that holds n - 1.
    """
    return np.indices((n,) * d, dtype=np.min_scalar_type(n - 1)).reshape(d, -1).T
