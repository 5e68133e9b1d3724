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
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch
from .evaluate import DEFAULT_BUDGET, values_on_block
from .orbits import OrbitRep, enumerate_orbits, negate_orbit, orbit_count, orbit_size, rank_orbit


@dataclass(frozen=True)
class SuperTable:
    """Exactly evaluated supercharacter table."""

    n: int
    d: int
    orbits: tuple[OrbitRep, ...]
    sizes: np.ndarray = field(repr=False)  # |X_j|, shape (N,)
    values: np.ndarray = field(repr=False)  # S[i][j], shape (N, N)

    @property
    def count(self) -> int:
        return len(self.orbits)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "d": self.d,
                "orbits": [list(rep.entries) for rep in self.orbits],
                "sizes": self.sizes.tolist(),
                "values": [[[z.real, z.imag] for z in row] for row in self.values],
            },
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class UnitaryTable:
    """Normalized table U with its measured symmetry/unitarity residuals."""

    table: SuperTable
    matrix: np.ndarray = field(repr=False)
    residual_symmetry: float = 0.0
    residual_unitary: float = 0.0


def build_table(n: int, d: int, budget: int = DEFAULT_BUDGET) -> SuperTable:
    """Evaluate S[i][j] = sigma_{X_i}(X_j) for all orbit pairs.

    The N^2 evaluations count against budget before any work.
    """
    count = orbit_count(n, d)
    if count * count > budget:
        raise BudgetExceeded(count * count, budget)
    orbits = tuple(enumerate_orbits(n, d))
    reps = np.array([rep.entries for rep in orbits], dtype=np.int64)
    sizes = np.array([orbit_size(rep) for rep in orbits], dtype=np.int64)
    values = np.empty((count, count), dtype=complex)
    for i, rep in enumerate(orbits):
        values[i] = values_on_block(rep, reps)
    return SuperTable(n, d, orbits, sizes, values)


def build_unitary(table: SuperTable) -> UnitaryTable:
    """U[i][j] = S[i][j] sqrt(|X_j|) / (sqrt(|X_i|) sqrt(n^d))."""
    root = np.sqrt(table.sizes.astype(float))
    norm = float(table.n) ** (table.d / 2.0)
    # in place, so at most u, u.conj() and the Gram matrix are held at once
    u = table.values * root[None, :]
    u /= root[:, None]
    u /= norm
    residual_symmetry = float(np.abs(u - u.T).max())
    gram = u @ u.conj().T
    gram[np.diag_indices_from(gram)] -= 1
    residual_unitary = float(np.abs(gram).max())
    return UnitaryTable(table, u, residual_symmetry, residual_unitary)


def negation_permutation(table: SuperTable) -> np.ndarray:
    """Index permutation sending each orbit to its negation -X."""
    return np.array([rank_orbit(negate_orbit(rep)) for rep in table.orbits], dtype=np.int64)


def superclass_transform(unitary: UnitaryTable, f: Sequence[complex]) -> np.ndarray:
    """Apply U to a superclass function given as a vector over orbits."""
    vec = np.asarray(f, dtype=complex)
    if vec.shape != (unitary.table.count,):
        raise DimensionMismatch(
            f"expected a vector of length {unitary.table.count}, got shape {vec.shape}"
        )
    return unitary.matrix @ vec


def second_orthogonality_residual(table: SuperTable) -> float:
    """max over row pairs i != i' of |sum_j |X_j| S[i][j] conj(S[i'][j])|."""
    weighted = table.values * table.sizes[None, :]
    gram = weighted @ table.values.conj().T
    off = gram - np.diag(np.diag(gram))
    return float(np.abs(off).max())
