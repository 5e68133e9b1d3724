"""The N x N supercharacter table at (n, d) and its unitary normalization.

Rows index the supercharacters sigma_i, columns the superclasses X_j, so
S[i][j] = sigma_i(X_j) with N = C(n+d-1, d).  The normalized form

    U[i][j] = S[i][j] * sqrt(|X_j|) / (sqrt(|X_i|) * sqrt(n^d))

is symmetric and unitary; applying it twice permutes coordinates by the
negation map X -> -X.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded
from .evaluate import DEFAULT_BUDGET, values_on_block
from .orbits import OrbitRep, block_rows, enumerate_orbits, orbit_arrays, orbit_count


@dataclass(frozen=True)
class SuperTable:
    """Exactly evaluated supercharacter table."""

    n: int
    d: int
    orbits: tuple[OrbitRep, ...]
    sizes: np.ndarray = field(repr=False)  # |X_j|, shape (N,)
    values: np.ndarray = field(repr=False)  # S[i][j], shape (N, N)

    def json_chunks(self) -> Iterator[str]:
        """The table as one compact JSON object, in chunks of text: n, d,
        orbits, sizes, and values as rows of [re, im] pairs.  Each table
        row is one chunk, so that only one row's [re, im] lists and text
        are held at once."""
        dumps = json.JSONEncoder(separators=(",", ":")).encode
        orbits = [list(rep.entries) for rep in self.orbits]
        yield f'{{"n":{dumps(self.n)},"d":{dumps(self.d)},"orbits":{dumps(orbits)},'
        yield f'"sizes":{dumps(self.sizes.tolist())},"values":['
        for i, row in enumerate(self.values):
            yield ("," if i else "") + dumps(row.view(float).reshape(-1, 2).tolist())  # [re, im] per value
        yield "]}"


@dataclass(frozen=True)
class UnitaryTable:
    """Normalized table U with its measured symmetry/unitarity residuals."""

    table: SuperTable
    matrix: np.ndarray = field(repr=False)
    residual_symmetry: float = 0.0
    residual_unitary: float = 0.0


def build_table(n: int, d: int, budget: int = DEFAULT_BUDGET) -> SuperTable:
    """Evaluate S[i][j] = sigma_{X_i}(X_j) for all orbit pairs.

    The N^2 evaluations count against budget before any work.  Every
    orbit's elements and size come from one orbits.orbit_arrays pass, its
    rows in the order of orbits.orbit_array, which values_on_block takes
    in place of building that array.
    """
    count = orbit_count(n, d)
    BudgetExceeded.check(count * count, budget)
    orbits = tuple(enumerate_orbits(n, d))
    points, sizes = orbit_arrays(n, d)
    starts = np.cumsum(sizes) - sizes
    reps = points[starts]  # an orbit's first row is its representative
    values = np.empty((count, count), dtype=complex)
    for i, (rep, lo, hi) in enumerate(zip(orbits, starts.tolist(), (starts + sizes).tolist())):
        values[i] = values_on_block(rep, reps, points[lo:hi])
    return SuperTable(n, d, orbits, sizes, values)


# the largest residuals max|U - U^T| and max|U U^H - I| that verify unitary passes
RESIDUAL_SYMMETRY_MAX = 1e-9
RESIDUAL_UNITARY_MAX = 1e-8


def build_unitary(table: SuperTable) -> UnitaryTable:
    """U[i][j] = S[i][j] sqrt(|X_j|) / (sqrt(|X_i|) sqrt(n^d)).

    The residuals max|U - U^T| and max|U U^H - I| are taken in blocks of
    orbits.block_rows(N) columns, rounded down to a multiple of 16 but at
    least 16.  Both matrices have entries of equal modulus across the
    diagonal (U - U^T is antisymmetric, the Gram matrix Hermitian), so each
    block lo:hi takes only its rows from lo on:
    u[lo:, lo:hi] - u[lo:hi, lo:].T, and the Gram block by the same product
    as the whole-array formula u @ u.conj().T restricted to those rows and
    columns.  So U, built in place, is the only N x N array held, and the
    Gram products cost about half the whole one.
    """
    root = np.sqrt(table.sizes.astype(float))
    norm = float(table.n) ** (table.d / 2.0)
    u = table.values * root[None, :]
    u /= root[:, None]
    u /= norm
    # blocks start on multiples of 16 columns, so that the BLAS kernel tiles
    # each one as it tiles those rows and columns of the whole product
    step = max(16, block_rows(len(u)) // 16 * 16)
    edges = list(range(step, len(u), step))
    if edges and edges[-1] == len(u) - 1:
        edges.pop()  # a one-column block would be a matrix-vector product
    symmetry, unitary = [], []
    for lo, hi in zip([0] + edges, edges + [len(u)]):
        symmetry.append(np.abs(u[lo:, lo:hi] - u[lo:hi, lo:].T).max())
        gram = u[lo:] @ np.conj(u[lo:hi]).T  # rows lo: of columns lo:hi of u @ u.conj().T
        gram[: hi - lo].reshape(-1)[:: hi - lo + 1] -= 1  # their slice of the diagonal
        unitary.append(np.abs(gram).max())
    return UnitaryTable(table, u, float(np.max(symmetry)), float(np.max(unitary)))

