"""Exact verification of the supercharacter identities.

Every identity here is checked on integer counts, never on floats.
dot_counts gives one counts row c[t] = #{x in X : x.y = t mod n} per point
y of a block, and each identity compares whole count matrices, so a sweep
and the per-pair check share one code path (the per-pair check is the
one-row case):

* conjugation      sigma_X(-y) = conj(sigma_X(y)) = sigma_{-X}(y)
  is an index reversal t -> -t of the counts;
* translation      sigma_{X+j1}(y+k1) = e(([y]j + [x]k + djk)/n) sigma_X(y)
  is an index shift of the counts;
* line rotation    sigma_X(y + l*1) = e([x]l/n) sigma_X(y)
  gives the image an n/gcd(n,[x])-fold rotational symmetry;
* reflection       X = r*1 - X implies sigma_X(y) = e(r[y]/n) conj(sigma_X(y)),
  a shifted index reversal, which pins values to 2n/gcd(r,n) rays.

Numeric tolerances appear only where the claim itself is geometric
(rotational closure of a computed point set, ray membership).
"""

from __future__ import annotations

from math import gcd, pi
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, HypothesisFailed, VerificationFailed
from .evaluate import (
    DEFAULT_BUDGET,
    cloud_difference,
    counts_value,
    dot_counts,
    image,
    orbit_array,
    rotation_closed,
    roots_of_unity,
    supercharacter,
    union_image,
)
from .modring import solve_bilinear_congruence
from .orbits import (
    OrbitRep,
    canonicalize,
    enumerate_orbits,
    negate_orbit,
    orbit_count,
    orbit_sum,
    rotation_order,
    shift_orbit,
    superclass_array,
)
from .report import IdentityReport


def _shifted(counts: np.ndarray, t0: Sequence[int]) -> np.ndarray:
    """Counts of e(t0/n) times the value, one row per shift t0[i].

    out[i, t] = counts[(t - t0[i]) % n] for a single counts row.
    """
    n = len(counts)
    return counts[(np.arange(n) - np.asarray(t0)[:, None]) % n]


def _conjugate_reports(x_rep: OrbitRep, y_reps: Sequence[OrbitRep]) -> Iterator[IdentityReport]:
    """Conjugation identity at (X, Y) for each Y, from three count matrices."""
    n = x_rep.n
    ys = np.array([y_rep.entries for y_rep in y_reps])
    base = dot_counts(x_rep, ys)
    neg_y = dot_counts(x_rep, -ys)
    neg_x = dot_counts(negate_orbit(x_rep), ys)
    reversed_counts = base[:, -np.arange(n) % n]
    passed = ((neg_y == reversed_counts) & (neg_x == reversed_counts)).all(axis=1)
    for i, (y_rep, ok) in enumerate(zip(y_reps, passed.tolist())):
        witness = None
        if not ok:
            witness = {
                "x": x_rep,
                "y": y_rep,
                "counts": base[i].tolist(),
                "counts_at_minus_y": neg_y[i].tolist(),
                "counts_of_minus_x": neg_x[i].tolist(),
            }
        yield IdentityReport("conjugate", {"x": x_rep, "y": y_rep, "n": n}, True, ok, witness)


def conjugate_identity(x_rep: OrbitRep, y_rep: OrbitRep) -> IdentityReport:
    """Check the conjugation identity at (X, Y), exactly.

    dot_counts(X, -y) must equal the index reversal of dot_counts(X, y),
    and dot_counts(-X, y) must equal the same reversal.
    """
    return next(_conjugate_reports(x_rep, [y_rep]))


def _translation_reports(
    x_rep: OrbitRep, y_rep: OrbitRep, js: Sequence[int], ks: Sequence[int]
) -> Iterator[IdentityReport]:
    """Translation identity at (X, Y) for each j in js and k in ks, k fastest.

    One count matrix per j: row k holds dot_counts(X + j1, y + k1).
    """
    n, d = x_rep.n, x_rep.d
    sx, sy = orbit_sum(x_rep), orbit_sum(y_rep)
    base = dot_counts(x_rep, y_rep.entries)
    for j in js:
        shifts = [(sy * j + sx * k + d * j * k) % n for k in ks]
        lhs = dot_counts(shift_orbit(x_rep, j), np.add.outer([k % n for k in ks], y_rep.entries))
        rhs = _shifted(base, shifts)
        passed = (lhs == rhs).all(axis=1)
        for i, (k, ok) in enumerate(zip(ks, passed.tolist())):
            witness = None
            if not ok:
                witness = {
                    "x": x_rep,
                    "y": y_rep,
                    "j": j,
                    "k": k,
                    "shift": shifts[i],
                    "lhs": lhs[i].tolist(),
                    "rhs": rhs[i].tolist(),
                }
            yield IdentityReport(
                "translation", {"x": x_rep, "y": y_rep, "j": j, "k": k, "n": n}, True, ok, witness
            )


def translation_identity(x_rep: OrbitRep, y_rep: OrbitRep, j: int, k: int) -> IdentityReport:
    """Check the translation identity at (X, Y, j, k), exactly.

    Shifting X by j*1 and y by k*1 multiplies the value by e(t0/n) with
    t0 = [y]j + [x]k + djk, i.e. shifts the counts vector by t0.
    """
    return next(_translation_reports(x_rep, y_rep, [j], [k]))


def _sample_orbits(n: int, d: int, limit: int = 12) -> list[OrbitRep]:
    """Deterministic small sample of orbits spread across the enumeration."""
    total = orbit_count(n, d)
    if total <= limit:
        return list(enumerate_orbits(n, d))
    from .orbits import unrank_orbit

    idx = sorted({(i * (total - 1)) // (limit - 1) for i in range(limit)})
    return [unrank_orbit(n, d, i) for i in idx]


def dihedral_order(x_rep: OrbitRep, check: bool = True) -> int:
    """Rotational symmetry order n/gcd(n, [x]) of the image of sigma_X.

    With check=True the identity behind it, sigma_X(y + l*1) =
    e([x]l/n) sigma_X(y), is verified exactly (as a counts shift) for
    every l on a deterministic sample of superclasses Y.
    """
    n = x_rep.n
    sx = orbit_sum(x_rep)
    order = rotation_order(x_rep)
    if check:
        ells = np.arange(n)
        for y_rep in _sample_orbits(n, x_rep.d):
            # row l holds the counts at y + l*1; row 0 is y itself
            lhs = dot_counts(x_rep, np.add.outer(ells, y_rep.entries))
            bad = np.flatnonzero(~(lhs == _shifted(lhs[0], sx * ells % n)).all(axis=1))
            if len(bad):
                raise VerificationFailed(
                    "line-shift identity failed",
                    witness={"x": x_rep, "y": y_rep, "l": int(bad[0])},
                )
    return order


def full_union_symmetry(
    n: int,
    d: int,
    budget: int = DEFAULT_BUDGET,
    tol: float = 1e-9,
    witness_orbits: int = 8,
) -> int:
    """Rotational symmetry order n/gcd(n,d) of the union of all images.

    Verifies two ways: the computed union point set is closed under
    rotation by 2*pi*gcd(n,d)/n within tol, and for sampled (X, Y) the
    bilinear congruence solver produces (j, k) whose translation shifts
    the counts by exactly gcd(n, d), exhibiting the rotated value as
    another supercharacter value.
    """
    g = gcd(n, d)
    order = n // g
    cloud = union_image(n, d, budget=budget)
    if not rotation_closed(cloud.values, order, tol):
        raise VerificationFailed(
            "union cloud not rotation-closed", witness={"n": n, "d": d, "order": order}
        )
    for x_rep in _sample_orbits(n, d, witness_orbits):
        for y_rep in _sample_orbits(n, d, witness_orbits):
            sol = solve_bilinear_congruence(orbit_sum(y_rep), orbit_sum(x_rep), d, n)
            t0 = (orbit_sum(y_rep) * sol.j + orbit_sum(x_rep) * sol.k + d * sol.j * sol.k) % n
            if t0 != g % n:
                raise VerificationFailed(
                    "witness shift is not gcd(n,d)",
                    witness={"x": x_rep, "y": y_rep, "j": sol.j, "k": sol.k, "t0": t0},
                )
            report = translation_identity(x_rep, y_rep, sol.j, sol.k)
            if not report.passed:
                raise VerificationFailed("witness translation failed", witness=report.witness)
    return order


# ---------------------------------------------------------------------------
# reflection ("spike") structure


def spike_detect(x_rep: OrbitRep) -> int | None:
    """Smallest r with r*1 - X = X as orbits, or None if there is none."""
    shifts = spike_shifts(x_rep)
    return shifts[0] if shifts else None


def spike_shifts(x_rep: OrbitRep) -> list[int]:
    """All r with r*1 - X = X, in increasing order."""
    return [
        r
        for r in range(x_rep.n)
        if canonicalize([r - v for v in x_rep.entries], x_rep.n) == x_rep
    ]


def ray_count(x_rep: OrbitRep, r: int) -> int:
    """Number of rays 2n/gcd(r,n) the image of sigma_X is confined to."""
    return 2 * x_rep.n // gcd(r, x_rep.n)


def spike_identity(
    x_rep: OrbitRep,
    r: int,
    y: OrbitRep | Sequence[int] | None = None,
    tol: float = 1e-9,
    budget: int = DEFAULT_BUDGET,
) -> IdentityReport:
    """Check the reflection identity for X = r*1 - X.

    Counts level (exact): dot_counts(X, y) must equal its index reversal
    shifted by r*[y].  Value level (numeric): sigma_X(y) must lie within
    tol of one of the 2n/gcd(r,n) lines through the origin at angles
    pi*m*gcd(r,n)/n (Euclidean distance, which avoids amplifying float
    noise in the argument of small-modulus values).
    When y is None both checks run over every superclass Y in enumeration
    order, and those C(n+d-1, d) superclasses count against the budget
    before any work.  The witness names the first counts failure, else the
    first ray failure; info["ray_max_modulus"] holds the largest modulus on
    each ray over the points before the first ray failure.
    """
    n, d = x_rep.n, x_rep.d
    if y is None and orbit_count(n, d) > budget:
        raise BudgetExceeded(orbit_count(n, d), budget)
    if canonicalize([r - v for v in x_rep.entries], n) != x_rep:
        raise HypothesisFailed(f"orbit {x_rep.entries} is not fixed by x -> {r}-x mod {n}")
    g = gcd(r, n)
    rays = 2 * n // g
    if y is None:
        ys = superclass_array(n, d).astype(np.int64)
    else:
        ys = np.array([[v % n for v in getattr(y, "entries", y)]], dtype=np.int64)

    def y_at(i: int):
        return OrbitRep(n, tuple(ys[i].tolist())) if y is None else y

    counts = dot_counts(x_rep, ys)
    mirror = (r * (ys.sum(axis=1) % n)[:, None] - np.arange(n)) % n
    bad_counts = np.flatnonzero(~(counts == np.take_along_axis(counts, mirror, axis=1)).all(axis=1))
    z = counts_value(counts)
    # np.hypot, not np.abs: np.abs of a complex array can differ from abs() in the last bit
    modulus = np.hypot(z.real, z.imag)
    angle = np.angle(z)
    spacing = pi * g / n
    theta = angle % spacing
    on_ray = (modulus < tol) | (modulus * np.sin(np.minimum(theta, spacing - theta)) <= tol)
    bad_ray = np.flatnonzero(~on_ray)
    before = slice(0, bad_ray[0] if len(bad_ray) else len(z))
    big = modulus[before] >= tol
    ray = np.rint((angle[before] % (2 * pi)) / spacing).astype(np.int64) % rays
    ray_max = np.zeros(rays)
    np.maximum.at(ray_max, ray[big], modulus[before][big])
    witness = None
    if len(bad_counts):
        witness = {"x": x_rep, "y": y_at(bad_counts[0]), "failure": "counts"}
    elif len(bad_ray):
        i = bad_ray[0]
        witness = {"x": x_rep, "y": y_at(i), "value": complex(z[i]), "failure": "ray"}
    return IdentityReport(
        "spike",
        {"x": x_rep, "r": r, "rays": rays, "all_r": spike_shifts(x_rep)},
        False,
        witness is None,
        witness,
        info={"ray_max_modulus": ray_max.tolist()},
    )


def spike_factor_check(n: int, d: int, tol: float = 1e-9) -> IdentityReport:
    """For X = orbit of (0, 1, ..., 1, 2), check the factored form.

    sigma_X(y) = e([y]/n) * (|W(y)|^2 - d) where W(y) = sum e(y_i/n) is
    the d-step walk sum; the real factor lies in [-d, d^2 - d].
    """
    if d < 2:
        raise HypothesisFailed("needs d >= 2")
    if n < 3:
        # mod 1 or 2 the entries 0, 1, 2 are not distinct residues, so X is another orbit
        raise HypothesisFailed("needs n >= 3")
    x_rep = canonicalize((0,) + (1,) * (d - 2) + (2,), n)
    table = roots_of_unity(n)
    ys = superclass_array(n, d).astype(np.int64)
    z = supercharacter(x_rep, ys)
    walk = np.zeros(len(ys), dtype=complex)
    for col in ys.T:
        walk += table[col]
    factor = np.hypot(walk.real, walk.imag) ** 2 - d
    predicted = table[ys.sum(axis=1) % n] * factor
    error = z - predicted
    bad = np.flatnonzero(np.hypot(error.real, error.imag) > tol)
    good = factor[: bad[0] if len(bad) else len(ys)]
    lo = float(good.min()) if len(good) else float("inf")
    hi = float(good.max()) if len(good) else float("-inf")
    witness = None
    if len(bad):
        i = bad[0]
        y_rep = OrbitRep(n, tuple(ys[i].tolist()))
        witness = {"x": x_rep, "y": y_rep, "value": complex(z[i]), "predicted": complex(predicted[i])}
    passed = witness is None and lo >= -d - tol and hi <= d * d - d + tol
    return IdentityReport(
        "spike-factor",
        {"x": x_rep, "n": n, "d": d},
        False,
        passed,
        witness,
        info={"factor_min": lo, "factor_max": hi, "bounds": [-d, d * d - d]},
    )


# ---------------------------------------------------------------------------
# restricted walks


def walk_reduction_check(
    n: int, d: int, a: int, budget: int = DEFAULT_BUDGET, tol: float = 1e-9
) -> IdentityReport:
    """Image of the orbit of (0,...,0,a) mod n equals the image of
    (0,...,0,1) mod n/gcd(n,a), as point sets.

    sigma for this orbit is the d-step walk sum with step a, and a*y mod n
    ranges over exactly the multiples of gcd(n, a).
    """
    a %= n
    if a == 0:
        raise HypothesisFailed("a must be nonzero mod n")
    r = n // gcd(n, a)
    big = image(canonicalize((0,) * (d - 1) + (a,), n), budget=budget)
    small = image(canonicalize((0,) * (d - 1) + (1,), r), budget=budget)
    only_big, only_small = cloud_difference(big.values, small.values, tol)
    passed = not only_big and not only_small
    witness = None
    if not passed:
        witness = {"n": n, "a": a, "r": r, "only_big": only_big, "only_small": only_small}
    return IdentityReport(
        "walk-reduction",
        {"n": n, "d": d, "a": a, "reduced_modulus": r},
        False,
        passed,
        witness,
        info={"points": len(big.values), "reduced_points": len(small.values)},
    )


# ---------------------------------------------------------------------------
# sweeps used by the CLI and the test suite


def sweep_conjugate(n: int, d: int, budget: int = DEFAULT_BUDGET) -> Iterator[IdentityReport]:
    count = orbit_count(n, d)
    total = 3 * count * count
    if total > budget:
        raise BudgetExceeded(total, budget)
    y_reps = list(enumerate_orbits(n, d))
    for x_rep in y_reps:
        yield from _conjugate_reports(x_rep, y_reps)


def sweep_translation(n: int, d: int, budget: int = DEFAULT_BUDGET) -> Iterator[IdentityReport]:
    count = orbit_count(n, d)
    total = count * count * n * n
    if total > budget:
        raise BudgetExceeded(total, budget)
    reps = list(enumerate_orbits(n, d))
    for x_rep in reps:
        for y_rep in reps:
            yield from _translation_reports(x_rep, y_rep, range(n), range(n))


def sweep_constancy(n: int, d: int, budget: int = DEFAULT_BUDGET) -> Iterator[IdentityReport]:
    """dot_counts(X, y) is the same row for every y in the orbit Y.

    One count matrix per X over every point of (Z/nZ)^d, grouped by orbit.
    """
    total = orbit_count(n, d) * n**d
    if total > budget:
        raise BudgetExceeded(total, budget)
    y_reps = list(enumerate_orbits(n, d))
    orbits = [orbit_array(y_rep) for y_rep in y_reps]
    sizes = [len(orbit) for orbit in orbits]
    starts = np.cumsum([0] + sizes[:-1])
    first_row = np.repeat(starts, sizes)
    points = np.concatenate(orbits)
    for x_rep in y_reps:
        counts = dot_counts(x_rep, points)
        same = (counts == counts[first_row]).all(axis=1)
        for y_rep, ok in zip(y_reps, np.logical_and.reduceat(same, starts).tolist()):
            yield IdentityReport(
                "constancy",
                {"x": x_rep, "y": y_rep, "n": n},
                True,
                ok,
                None if ok else {"x": x_rep, "y": y_rep},
            )


def sweep_dihedral(n: int, d: int, budget: int = DEFAULT_BUDGET, tol: float = 1e-9) -> Iterator[IdentityReport]:
    for x_rep in enumerate_orbits(n, d):
        order = dihedral_order(x_rep, check=True)
        cloud = image(x_rep, budget=budget)
        ok = rotation_closed(cloud.values, order, tol)
        yield IdentityReport(
            "dihedral",
            {"x": x_rep, "order": order},
            False,
            ok,
            None if ok else {"x": x_rep, "order": order},
            info={"points": len(cloud.values)},
        )


def sweep_spikes(
    n: int, d: int, tol: float = 1e-9, budget: int = DEFAULT_BUDGET
) -> Iterator[IdentityReport]:
    count = orbit_count(n, d)
    total = count * count
    if total > budget:
        raise BudgetExceeded(total, budget)
    for x_rep in enumerate_orbits(n, d):
        r = spike_detect(x_rep)
        if r is not None:
            yield spike_identity(x_rep, r, tol=tol, budget=budget)
