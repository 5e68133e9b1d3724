"""Exact verification of the supercharacter identities.

Every identity here is checked on integer counts vectors, never on
floats:

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

from .errors import HypothesisFailed, VerificationFailed
from .evaluate import (
    DEFAULT_BUDGET,
    CountsVector,
    cloud_difference,
    dot_counts,
    image,
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
    shift_orbit,
)
from .report import IdentityReport


def conjugate_identity(x_rep: OrbitRep, y_rep: OrbitRep) -> IdentityReport:
    """Check the conjugation identity at (X, Y), exactly.

    dot_counts(X, -y) must equal the index reversal of dot_counts(X, y),
    and dot_counts(-X, y) must equal the same reversal.
    """
    n = x_rep.n
    y = y_rep.entries
    base = dot_counts(x_rep, y)
    reversed_counts = base.reversed_index()
    neg_y = dot_counts(x_rep, [-v for v in y])
    neg_x = dot_counts(negate_orbit(x_rep), y)
    passed = neg_y == reversed_counts and neg_x == reversed_counts
    witness = None
    if not passed:
        witness = {
            "x": x_rep,
            "y": y_rep,
            "counts": list(base.counts),
            "counts_at_minus_y": list(neg_y.counts),
            "counts_of_minus_x": list(neg_x.counts),
        }
    return IdentityReport("conjugate", {"x": x_rep, "y": y_rep, "n": n}, True, passed, witness)


def translation_identity(x_rep: OrbitRep, y_rep: OrbitRep, j: int, k: int) -> IdentityReport:
    """Check the translation identity at (X, Y, j, k), exactly.

    Shifting X by j*1 and y by k*1 multiplies the value by e(t0/n) with
    t0 = [y]j + [x]k + djk, i.e. shifts the counts vector by t0.
    """
    n, d = x_rep.n, x_rep.d
    t0 = (orbit_sum(y_rep) * j + orbit_sum(x_rep) * k + d * j * k) % n
    lhs = dot_counts(shift_orbit(x_rep, j), [v + k for v in y_rep.entries])
    rhs = dot_counts(x_rep, y_rep.entries).shifted(t0)
    passed = lhs == rhs
    witness = None
    if not passed:
        witness = {
            "x": x_rep,
            "y": y_rep,
            "j": j,
            "k": k,
            "shift": t0,
            "lhs": list(lhs.counts),
            "rhs": list(rhs.counts),
        }
    return IdentityReport(
        "translation", {"x": x_rep, "y": y_rep, "j": j, "k": k, "n": n}, True, passed, witness
    )


def real_valued_check(x_rep: OrbitRep) -> bool:
    """sigma_X is real-valued exactly when -X = X."""
    return negate_orbit(x_rep) == x_rep


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
    order = n // gcd(n, sx) if sx else 1
    if check:
        for y_rep in _sample_orbits(n, x_rep.d):
            base = dot_counts(x_rep, y_rep.entries)
            for ell in range(n):
                lhs = dot_counts(x_rep, [v + ell for v in y_rep.entries])
                if lhs != base.shifted((sx * ell) % n):
                    raise VerificationFailed(
                        "line-shift identity failed",
                        witness={"x": x_rep, "y": y_rep, "l": ell},
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


def _on_ray_set(z: complex, n: int, g: int, tol: float) -> bool:
    """Is z within tol of the union of lines at angles pi*m*g/n?

    Checked as Euclidean distance from z to the nearest of those lines
    through the origin, which avoids amplifying float noise in the
    argument of small-modulus values.
    """
    if abs(z) < tol:
        return True
    spacing = pi * g / n
    theta = np.angle(z) % spacing
    theta = min(theta, spacing - theta)
    return abs(z) * np.sin(theta) <= tol


def spike_identity(
    x_rep: OrbitRep, r: int, y: OrbitRep | Sequence[int] | None = None, tol: float = 1e-9
) -> IdentityReport:
    """Check the reflection identity for X = r*1 - X.

    Counts level (exact): dot_counts(X, y) must equal its index reversal
    shifted by r*[y].  Value level (numeric): sigma_X(y) must lie on one
    of the 2n/gcd(r,n) rays at angles pi*m*gcd(r,n)/n.
    When y is None the counts check runs over every superclass Y and the
    ray check over the whole image.
    """
    n = x_rep.n
    if canonicalize([r - v for v in x_rep.entries], n) != x_rep:
        raise HypothesisFailed(f"orbit {x_rep.entries} is not fixed by x -> {r}-x mod {n}")
    if isinstance(y, OrbitRep):
        y = y.entries
    g = gcd(r, n)
    rays = 2 * n // g

    def counts_ok(cv: CountsVector, yv: Sequence[int]) -> bool:
        sy = sum(yv) % n
        target = tuple(cv.counts[(r * sy - t) % n] for t in range(n))
        return cv.counts == target

    if y is not None:
        cv = dot_counts(x_rep, y)
        cv_ok = counts_ok(cv, y)
        z = cv.value()
        ray_ok = _on_ray_set(z, n, g, tol)
        passed = cv_ok and ray_ok
        witness = None if passed else {"x": x_rep, "y": list(y), "value": z}
        return IdentityReport(
            "spike",
            {"x": x_rep, "r": r, "rays": rays, "all_r": spike_shifts(x_rep)},
            False,
            passed,
            witness,
        )
    # one pass for both checks; each stops at its own first failure
    bad_counts = None
    ray_max: list[float] = [0.0] * rays
    bad_ray = None
    for y_rep in enumerate_orbits(n, x_rep.d):
        cv = dot_counts(x_rep, y_rep.entries)
        if bad_counts is None and not counts_ok(cv, y_rep.entries):
            bad_counts = y_rep
        if bad_ray is None:
            z = cv.value()
            if not _on_ray_set(z, n, g, tol):
                bad_ray = (y_rep, z)
            elif abs(z) >= tol:
                m = int(round((np.angle(z) % (2 * pi)) / (pi * g / n))) % rays
                ray_max[m] = max(ray_max[m], abs(z))
        if bad_counts is not None and bad_ray is not None:
            break
    passed = bad_counts is None and bad_ray is None
    witness = None
    if bad_counts is not None:
        witness = {"x": x_rep, "y": bad_counts, "failure": "counts"}
    elif bad_ray is not None:
        witness = {"x": x_rep, "y": bad_ray[0], "value": bad_ray[1], "failure": "ray"}
    return IdentityReport(
        "spike",
        {"x": x_rep, "r": r, "rays": rays, "all_r": spike_shifts(x_rep)},
        False,
        passed,
        witness,
        info={"ray_max_modulus": ray_max},
    )


def spike_factor_check(n: int, d: int, tol: float = 1e-9) -> IdentityReport:
    """For X = orbit of (0, 1, ..., 1, 2), check the factored form.

    sigma_X(y) = e([y]/n) * (|W(y)|^2 - d) where W(y) = sum e(y_i/n) is
    the d-step walk sum; the real factor lies in [-d, d^2 - d].
    """
    if d < 2:
        raise HypothesisFailed("needs d >= 2")
    x_rep = canonicalize((0,) + (1,) * (d - 2) + (2,), n)
    table = roots_of_unity(n)
    lo, hi = float("inf"), float("-inf")
    witness = None
    for y_rep in enumerate_orbits(n, d):
        y = y_rep.entries
        z = supercharacter(x_rep, y)
        walk = sum(table[v] for v in y)
        factor = abs(walk) ** 2 - d
        predicted = table[sum(y) % n] * factor
        if abs(z - predicted) > tol:
            witness = {"x": x_rep, "y": y_rep, "value": z, "predicted": predicted}
            break
        lo, hi = min(lo, factor), max(hi, factor)
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


def sweep_conjugate(n: int, d: int) -> Iterator[IdentityReport]:
    for x_rep in enumerate_orbits(n, d):
        for y_rep in enumerate_orbits(n, d):
            yield conjugate_identity(x_rep, y_rep)


def sweep_translation(n: int, d: int) -> Iterator[IdentityReport]:
    for x_rep in enumerate_orbits(n, d):
        for y_rep in enumerate_orbits(n, d):
            for j in range(n):
                for k in range(n):
                    yield translation_identity(x_rep, y_rep, j, k)


def sweep_constancy(n: int, d: int) -> Iterator[IdentityReport]:
    from .evaluate import constancy_check

    for x_rep in enumerate_orbits(n, d):
        for y_rep in enumerate_orbits(n, d):
            ok = constancy_check(x_rep, y_rep)
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


def sweep_spikes(n: int, d: int, tol: float = 1e-9) -> Iterator[IdentityReport]:
    for x_rep in enumerate_orbits(n, d):
        r = spike_detect(x_rep)
        if r is not None:
            yield spike_identity(x_rep, r, tol=tol)
