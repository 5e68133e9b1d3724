"""Row reduction of orbit matrices over Z/nZ and the induced torus maps.

Writing the orbit of x as the columns of a d x r matrix A over Z/nZ, a
left multiplication B = R*A with det(R) a unit mod n rewrites sigma_X as
a sum of monomials in d - k torus variables, where k is the number of
zero rows of B: each nonzero column pattern contributes one monomial
whose exponents are that column of B.  For the orbit of
(1, ..., 1, 1-d) with gcd(n, d) = 1 the resulting map is

    g(z_1, ..., z_{d-1}) = z_1 + ... + z_{d-1} + 1/(z_1 ... z_{d-1})

whose image over the full torus is the region bounded by the d-cusp
hypocycloid x = (d-1) cos t + cos((d-1) t), y = (d-1) sin t - sin((d-1) t).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, pi
from typing import Sequence

import numpy as np

from .errors import BudgetExceeded, HypothesisFailed, NoUnitPivot, VerificationFailed
from . import evaluate
from .evaluate import DEFAULT_BUDGET, TOL, image, root_sums
from .modring import mod_inverse
from .orbits import OrbitRep, canonicalize, orbit_array, orbit_count, point_array
from .report import IdentityReport

# ---------------------------------------------------------------------------
# orbit matrices and reduction certificates


@dataclass(frozen=True)
class OrbitMatrix:
    """d x r matrix over Z/nZ whose columns are the orbit elements of rep,
    in lexicographic (distinct-permutation) order."""

    rep: OrbitRep
    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.rep.n

    @property
    def d(self) -> int:
        return self.rep.d

    @property
    def r(self) -> int:
        return len(self.rows[0])


def orbit_matrix(rep: OrbitRep) -> OrbitMatrix:
    return OrbitMatrix(rep, tuple(map(tuple, orbit_array(rep).T.tolist())))


def _mat_mul_mod(lhs: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for row in lhs:
        out.append(
            tuple(sum(a * rhs[t][c] for t, a in enumerate(row)) % n for c in range(len(rhs[0])))
        )
    return tuple(out)


def _det_int(mat: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    m = len(mat)
    work = [list(row) for row in mat]
    sign = 1
    prev = 1
    for i in range(m - 1):
        if work[i][i] == 0:
            for j in range(i + 1, m):
                if work[j][i] != 0:
                    work[i], work[j] = work[j], work[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, m):
            for c in range(i + 1, m):
                work[j][c] = (work[j][c] * work[i][i] - work[j][i] * work[i][c]) // prev
            work[j][i] = 0
        prev = work[i][i]
    return sign * work[m - 1][m - 1]


def _trailing_zero_rows(rows: Sequence[Sequence[int]]) -> int:
    """Number of all-zero rows at the bottom of rows."""
    k = 0
    for row in reversed(rows):
        if any(row):
            break
        k += 1
    return k


def _symmetric_lift(v: int, n: int) -> int:
    """Representative of v mod n in (-n/2, n/2]."""
    v %= n
    return v if 2 * v <= n else v - n


@dataclass(frozen=True)
class ReductionCertificate:
    """Witness that reduced = reducer * matrix over Z/nZ with unit det.

    zero_rows counts the trailing all-zero rows of the reduced matrix.
    complete records whether elimination pivoted every nonzero row; a
    stalled (partial) reduction is flagged complete=False.
    Validation happens at construction: the product identity and the unit
    determinant are rechecked from scratch.
    """

    matrix: OrbitMatrix
    reducer: tuple[tuple[int, ...], ...]
    reduced: tuple[tuple[int, ...], ...]
    det: int
    zero_rows: int
    complete: bool = True

    def __post_init__(self):
        n, d = self.matrix.n, self.matrix.d
        if len(self.reducer) != d or any(len(row) != d for row in self.reducer):
            raise VerificationFailed("reducer is not d x d")
        if _mat_mul_mod(self.reducer, self.matrix.rows, n) != self.reduced:
            raise VerificationFailed(
                "certificate product mismatch: reducer * matrix != reduced",
                witness={"rep": self.matrix.rep},
            )
        det = _det_int(self.reducer) % n
        if det != self.det % n:
            raise VerificationFailed("certificate determinant mismatch")
        if n > 1 and gcd(det, n) != 1:
            raise VerificationFailed(
                f"determinant {det} is not a unit mod {n}", witness={"rep": self.matrix.rep}
            )
        if _trailing_zero_rows(self.reduced) != self.zero_rows:
            raise VerificationFailed("trailing zero row count mismatch")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.matrix.n,
                "orbit": list(self.matrix.rep.entries),
                "matrix": [list(r) for r in self.matrix.rows],
                "reducer": [list(r) for r in self.reducer],
                "reduced": [list(r) for r in self.reduced],
                "det": self.det,
                "zero_rows": self.zero_rows,
                "complete": self.complete,
            },
            separators=(",", ":"),
        )


def certificate_from_rows(matrix: OrbitMatrix, reducer_rows: Sequence[Sequence[int]]) -> ReductionCertificate:
    """Build and validate a certificate from a caller-supplied reducer.

    Lets a known-good reduction be checked against this exact orbit
    matrix (column order included), e.g. when comparing against an
    expected reduced form.
    """
    n = matrix.n
    reducer = tuple(tuple(v % n for v in row) for row in reducer_rows)
    reduced = _mat_mul_mod(reducer, matrix.rows, n)
    return ReductionCertificate(matrix, reducer, reduced, _det_int(reducer) % n, _trailing_zero_rows(reduced))


def row_reduce_mod_n(matrix: OrbitMatrix) -> ReductionCertificate:
    """Gaussian elimination over Z/nZ restricted to unit pivots.

    Row operations only (columns are orbit elements and stay put): swap
    and subtract-multiple, both of determinant +-1, so det(R) is a unit
    for any n without row scaling.  They act on the augmented matrix
    [A | I], whose last d columns end as the reducer R and first r as
    B = R*A.  Pivots are chosen among entries of A's columns coprime to
    n, preferring the smallest symmetric-lift absolute value (ties:
    leftmost column, then topmost row), and the pivot column is cleared
    in every other row.  Rows that never pivot are moved to the bottom;
    if any of them is nonzero in B the reduction has stalled, which
    raises NoUnitPivot carrying the partial certificate.
    """
    n, d, r = matrix.n, matrix.d, matrix.r
    aug = [list(row) + [int(i == j) for j in range(d)] for i, row in enumerate(matrix.rows)]
    remaining = set(range(d))
    pivots: list[tuple[int, int]] = []  # (column, row), in pivot order
    while remaining:
        units = [
            (abs(_symmetric_lift(v, n)), c, i)
            for i in remaining
            for c, v in enumerate(aug[i][:r])
            if v and gcd(v, n) == 1
        ]
        if not units:
            break
        _, col, row = min(units)
        inv = mod_inverse(aug[row][col], n)
        for i in range(d):
            if i != row and aug[i][col]:
                f = (aug[i][col] * inv) % n
                aug[i] = [(a - f * b) % n for a, b in zip(aug[i], aug[row])]
        pivots.append((col, row))
        remaining.discard(row)
    zero = sorted(i for i in remaining if not any(aug[i][:r]))
    stalled = sorted(i for i in remaining if any(aug[i][:r]))
    # final row order: pivot rows by pivot column, stalled rows, zero rows
    order = [row for _, row in sorted(pivots)] + stalled + zero
    reducer = tuple(tuple(aug[i][r:]) for i in order)
    cert = ReductionCertificate(
        matrix, reducer, tuple(tuple(aug[i][:r]) for i in order), _det_int(reducer) % n, len(zero), complete=not stalled
    )
    if stalled:
        err = NoUnitPivot(
            f"no unit pivot for rows {stalled} of the orbit matrix of {matrix.rep.entries} mod {n}"
        )
        err.certificate = cert
        raise err
    return cert


# ---------------------------------------------------------------------------
# torus maps


@dataclass(frozen=True)
class ExponentMatrix:
    """Integer exponents of the monomial map g(z) = sum_l prod_j z_j^e[j][l],
    lifted to the symmetric range (-n/2, n/2] of the originating modulus."""

    n: int
    rows: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "rows": [list(r) for r in self.rows]}, separators=(",", ":"))


def torus_map(cert: ReductionCertificate) -> ExponentMatrix:
    """Exponent matrix of the reduced form: nonzero rows of B, lifted."""
    if not cert.complete:
        raise HypothesisFailed("torus map of a stalled (partial) reduction is not defined")
    n = cert.matrix.n
    rows = tuple(
        tuple(_symmetric_lift(v, n) for v in row) for row in cert.reduced if any(row)
    )
    return ExponentMatrix(n, rows)


def sample_torus_map(
    exponents: ExponentMatrix,
    grid: int,
    budget: int = DEFAULT_BUDGET,
) -> np.ndarray:
    """Values of the monomial map at all grid-th roots of unity, as dedupe_values' array.

    z_j = e(m_j / grid) over every tuple m in [0, grid)^variables, in
    odometer order; each term l contributes e((sum_j e[j][l] m_j) / grid).
    Reducing the exponents mod grid leaves every term unchanged, so the
    map is a root sum over the exponent columns, as a supercharacter is
    over its orbit.
    """
    rows = exponents.rows
    if grid < 1:
        raise ValueError(f"grid must be positive, got {grid}")
    if not rows or not rows[0]:
        raise ValueError("the map has no variables or no terms, so there is nothing to sample")
    v = len(rows)
    BudgetExceeded.check(grid**v, budget)
    emat = np.array(rows, dtype=np.int64)  # (vars x terms)
    values = root_sums(grid, emat.T % grid, point_array(grid, v))
    return evaluate.dedupe_values(values)


# ---------------------------------------------------------------------------
# hypocycloid geometry
#
# z(t) = (d-1) e^{it} + e^{-i(d-1)t} = e^{it} ((d-1) + e^{-idt}) is invariant
# under rotation by 2 pi/d and under conjugation (t -> -t).  For d >= 3 it is
# star-shaped: Im(z' conj z) = (d-1)(d-2)(1 - cos dt) >= 0, so the angle
# arg z(t) = t + arg((d-1) + e^{-idt}) increases with t, and each ray from the
# origin meets the curve once, at radius |(d-1) + e^{-idt}|.


def _bisect(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Elementwise root of fn, increasing on each [lo, hi], by 64 halvings."""
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = fn(mid) < 0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _param_at_angle(theta: np.ndarray, d: int) -> np.ndarray:
    """t with arg z(t) = theta; |arg((d-1) + e^{-idt})| <= asin(1/(d-1))
    brackets it."""
    half = np.arcsin(1.0 / (d - 1))
    return _bisect(lambda t: t + np.angle((d - 1) + np.exp(-1j * d * t)) - theta, theta - half, theta + half)


def _radial_accept(r: np.ndarray, phi: np.ndarray, d: int) -> np.ndarray:
    """r <= rho(phi) + TOL, where rho(phi) is the curve's radius on the ray
    at angle phi in [0, pi/d] (d >= 3); see hypocycloid_contains_many."""
    s = r - TOL
    c = np.clip((s * s - ((d - 1) ** 2 + 1)) / (2 * (d - 1)), -1.0, 1.0)
    t = np.arccos(c) / d
    return (s <= d - 2) | ((s <= d) & (phi <= t + np.angle((d - 1) + np.exp(-1j * d * t))))


def hypocycloid_contains_many(values: Sequence[complex] | np.ndarray, d: int) -> np.ndarray:
    """Which values lie in the filled d-cusp hypocycloid, up to TOL.

    TOL is a Euclidean distance: a value passes exactly when its distance
    to the filled region is at most TOL, and each pass is witnessed by the
    value being inside or by a curve point within TOL of it.  For d = 2
    the region is the segment [-2, 2].

    For d >= 3 every value is folded by the dihedral symmetry into the
    wedge 0 <= phi = arg p <= pi/d, which holds the arc 0 <= t <= pi/d.
    It passes if r = |p| exceeds the curve's radius rho(phi) on its ray by
    at most TOL.  That radial test has a closed form.  On the arc,
    |z(t)|^2 = (d-1)^2 + 1 + 2(d-1) cos(dt) decreases from d^2 to (d-2)^2
    while arg z(t) increases from 0 to pi/d, so the arc is a graph
    r = rho(phi) with rho decreasing from d to d - 2.  With s = r - TOL,
    s <= rho(phi) therefore holds exactly when s <= d - 2 (the inscribed
    circle, which the whole curve encloses), or when s <= d and phi is at
    most the angle arg z(t_s) of the arc point of radius s, where

        t_s = arccos((s^2 - (d-1)^2 - 1) / (2(d-1))) / d.

    For d - 2 < s <= d the arccos argument lies in [-1, 1] in exact
    arithmetic, and rounding can push it past an end by an ulp or so.
    Clipping then puts t_s at the end the exact argument sits next to: the
    valley (pi/d, where every folded phi passes) or the cusp (0, where
    only phi = 0 does).  Near those ends arccos is badly conditioned, but
    the computed t_s is the exact parameter of a radius within a few ulps
    of s, and arg z(t) is smooth in t, so a verdict can move only for a
    value whose radial distance from the curve is within rounding of TOL.
    The tests compare its verdicts with those of the 64-step bisection for
    the parameter at angle phi that it replaces.  Within about 1e-6 of a
    cusp's ray, where rho changes fast with phi, the bisection's radius is
    the less accurate of the two.

    A value the radial test rejects lies outside, and a curve point within
    TOL of it makes an angle of at most asin(TOL/|p|) with it.  The
    candidates are the nearest point of the arc within that angle (the
    root of the derivative of |z(t) - p|^2, which increases there, found
    by bisection) and the cusp d, which that root can miss when p lies
    beyond the cusp.
    """
    if d < 2:
        raise ValueError("needs d >= 2")
    z = np.asarray(values, dtype=complex)
    if d == 2:
        return np.abs(z - np.clip(z.real, -2.0, 2.0)) <= TOL
    r = np.abs(z)
    wedge = 2 * pi / d
    phi = np.mod(np.angle(z), wedge)
    phi = np.minimum(phi, wedge - phi)
    ok = _radial_accept(r, phi, d)
    rest = np.flatnonzero(~ok)
    if len(rest):
        r, phi = r[rest], phi[rest]
        p = r * np.exp(1j * phi)
        spread = np.arcsin(TOL / r)
        lo = np.maximum(_param_at_angle(phi - spread, d), 0.0)
        hi = np.minimum(_param_at_angle(phi + spread, d), pi / d)

        def curve(t):
            return (d - 1) * np.exp(1j * t) + np.exp(-1j * (d - 1) * t)

        def slope(t):  # d/dt |z(t) - p|^2 / 2
            tangent = 1j * (d - 1) * (np.exp(1j * t) - np.exp(-1j * (d - 1) * t))
            return ((curve(t) - p) * np.conj(tangent)).real

        nearest = np.abs(curve(_bisect(slope, lo, hi)) - p)
        ok[rest] = np.minimum(nearest, np.abs(d - p)) <= TOL
    return ok


def hypocycloid_orbit_check(n: int, d: int, budget: int = DEFAULT_BUDGET) -> IdentityReport:
    """Every value of sigma_X for X = orbit of (1,...,1,1-d) lies within TOL
    of the filled d-cusp hypocycloid; the witness lists every value that
    does not."""
    if d < 2:
        raise ValueError("needs d >= 2")
    rep = canonicalize((1,) * (d - 1) + (1 - d,), n)
    values = image(rep, budget=budget)
    ok = hypocycloid_contains_many(values, d)
    passed = bool(ok.all())
    witness = None
    if not passed:
        witness = {"x": rep, "outside": values[~ok].tolist()}
    superclasses = orbit_count(n, d)
    return IdentityReport(
        "hypocycloid",
        {"x": rep, "n": n, "d": d},
        False,
        passed,
        witness,
        info={
            "points": len(values),
            "superclasses": superclasses,
            "fill_ratio": len(values) / superclasses,
        },
    )
