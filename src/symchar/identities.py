"""Verification of the supercharacter identities.

The count identities are exact.  dot_counts gives one integer counts row
c[t] = #{x in X : x.y = t mod n} per point y of a block, and each identity
compares whole count matrices, so a sweep and a per-pair check share one
code path.  _translation_block gives a report.ReportBlock of every
translation record at one X: sweep_translation yields one block per X,
translation_identity takes the one record of a one-row block, and
full_union_symmetry reads its (Y, j, k) pairs off one block per sampled X.
spike_identity and sweep_spikes build their records with _spike_record, the
sweep from one superclass build for every orbit.  The identities:

* conjugation      sigma_X(-y) = conj(sigma_X(y)) = sigma_{-X}(y)
  is an index reversal t -> -t of the counts;
* translation      sigma_{X+j1}(y+k1) = e(([y]j + [x]k + djk)/n) sigma_X(y)
  is an index shift of the counts;
* line rotation    sigma_X(y + l*1) = e([x]l/n) sigma_X(y)
  gives the image an n/gcd(n,[x])-fold rotational symmetry;
* reflection       X = r*1 - X implies sigma_X(y) = e(r[y]/n) conj(sigma_X(y)),
  a shifted index reversal, which pins values to 2n/gcd(r,n) rays.

The claims below are about computed floats, and each is compared within
evaluate.TOL, a Euclidean distance in the complex plane:

* rotational closure of an image or of the union of all images
  (sweep_dihedral, full_union_symmetry);
* equality of the two walk images as point sets (walk_reduction_check);
* ray membership of spike values (spike_identity).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, pi
from typing import Iterator, Sequence

import numpy as np

from . import evaluate
from .errors import BudgetExceeded, HypothesisFailed, VerificationFailed
from .evaluate import (
    DEFAULT_BUDGET,
    TOL,
    cloud_difference,
    counts_value,
    dot_counts,
    image,
    rotation_witness,
    union_image,
)
from .modring import solve_bilinear_congruence
from .orbits import (
    OrbitRep,
    block_rows,
    canonicalize,
    enumerate_orbits,
    negate_orbit,
    orbit_arrays,
    orbit_count,
    orbit_sum,
    rotation_order,
    shift_orbit,
    superclass_array,
    unrank_orbit,
)
from .report import IdentityReport, ParamValues, ReportBlock

_UNION_WITNESS_ORBITS = 8
_LINE_SHIFT_SAMPLES = 12  # superclasses at which dihedral_order checks every line shift


def _entries(reps: Sequence[OrbitRep]) -> np.ndarray:
    """The entries of each orbit, one int64 row per orbit."""
    return np.array([rep.entries for rep in reps], dtype=np.int64)


def _conjugate_block(x_rep: OrbitRep, y_reps: Sequence[OrbitRep], ys: np.ndarray) -> ReportBlock:
    """Conjugation identity at (X, Y) for each Y, from three count matrices;
    ys holds the entries of y_reps."""
    n = x_rep.n
    base = dot_counts(x_rep, ys)
    neg_y = dot_counts(x_rep, -ys)
    neg_x = dot_counts(negate_orbit(x_rep), ys)
    reversed_counts = base[:, -np.arange(n) % n]
    passed = ((neg_y == reversed_counts) & (neg_x == reversed_counts)).all(axis=1)
    witnesses = {
        i: {
            "x": x_rep,
            "y": y_reps[i],
            "counts": base[i].tolist(),
            "counts_at_minus_y": neg_y[i].tolist(),
            "counts_of_minus_x": neg_x[i].tolist(),
        }
        for i in np.flatnonzero(~passed).tolist()
    }
    return ReportBlock("conjugate", {"x": x_rep, "n": n}, ("y",), (y_reps,), passed, witnesses)


def _translation_block(
    x_rep: OrbitRep, y_reps: Sequence[OrbitRep], ys: np.ndarray, js: Sequence[int], ks: Sequence[int]
) -> ReportBlock:
    """Translation identity at (X, Y, j, k) for each Y in y_reps, j in js and
    k in ks, in that order with k fastest; ys holds the entries of y_reps.

    One count matrix for the base rows dot_counts(X, y) of every Y, then one
    per j whose rows are dot_counts(X + j1, y + k1) for every (Y, k).
    """
    n, d = x_rep.n, x_rep.d
    kr = np.array([k % n for k in ks], dtype=np.int64)
    base = dot_counts(x_rep, ys)
    # shifted rows: row (Y, k) holds y + k1, so one count matrix covers every (Y, k) of a j
    shifted = (ys[:, None, :] + kr[:, None]).reshape(-1, d)
    sy = ys.sum(axis=1) % n
    sx = orbit_sum(x_rep)
    t = np.arange(n)
    rows = np.arange(len(ys))[:, None, None]
    passed = np.empty((len(ys), len(js), len(kr)), dtype=bool)
    witnesses = {}
    for ji, j in enumerate(js):
        jr = j % n
        shifts = (sy[:, None] * jr + sx * kr + d * jr * kr) % n
        lhs = dot_counts(shift_orbit(x_rep, j), shifted).reshape(len(ys), len(kr), n)
        rhs = base[rows, (t - shifts[:, :, None]) % n]
        passed[:, ji] = (lhs == rhs).all(axis=2)
        for yi, ki in np.argwhere(~passed[:, ji]).tolist():
            witnesses[(yi * len(js) + ji) * len(kr) + ki] = {
                "x": x_rep,
                "y": y_reps[yi],
                "j": j,
                "k": ks[ki],
                "shift": int(shifts[yi, ki]),
                "lhs": lhs[yi, ki].tolist(),
                "rhs": rhs[yi, ki].tolist(),
            }
    return ReportBlock("translation", {"x": x_rep, "n": n}, ("y", "j", "k"), (y_reps, js, ks), passed, witnesses)


def translation_identity(x_rep: OrbitRep, y_rep: OrbitRep, j: int, k: int) -> IdentityReport:
    """Check the translation identity at (X, Y, j, k), exactly.

    Shifting X by j*1 and y by k*1 multiplies the value by e(t0/n) with
    t0 = [y]j + [x]k + djk, i.e. shifts the counts vector by t0.
    """
    return next(iter(_translation_block(x_rep, [y_rep], _entries([y_rep]), [j], [k])))


@lru_cache(maxsize=64)
def _sample_orbits(n: int, d: int, limit: int = _LINE_SHIFT_SAMPLES) -> tuple[OrbitRep, ...]:
    """Deterministic sample of orbits spread across the enumeration, every orbit when N <= limit."""
    total = orbit_count(n, d)
    idx = sorted({(i * (total - 1)) // (limit - 1) for i in range(limit)})
    return tuple(unrank_orbit(n, d, i) for i in idx)


def dihedral_order(x_rep: OrbitRep) -> int:
    """Rotational symmetry order n/gcd(n, [x]) of the image of sigma_X.

    The identity behind it, sigma_X(y + l*1) = e([x]l/n) sigma_X(y), is
    verified exactly (as a counts shift) for every l on a deterministic
    sample of superclasses Y, all in one count matrix.  The witness is the
    first failing (Y, l), Y in sample order and l fastest.  The shift does
    not depend on y, so one (n, n) index table serves every sample, which
    _translation_block's per-Y shifts would not.
    """
    n = x_rep.n
    samples = _sample_orbits(n, x_rep.d)
    ells = np.arange(n)
    ys = np.array([y_rep.entries for y_rep in samples], dtype=np.int64)
    # lhs[s, l] holds the counts at y_s + l*1; lhs[s, 0] is y_s itself
    lhs = dot_counts(x_rep, (ys[:, None, :] + ells[:, None]).reshape(-1, x_rep.d)).reshape(len(ys), n, n)
    rhs = lhs[:, 0][:, (ells - (orbit_sum(x_rep) * ells % n)[:, None]) % n]
    bad = np.argwhere(~(lhs == rhs).all(axis=2))
    if len(bad):
        s, ell = bad[0].tolist()
        raise VerificationFailed(
            "line-shift identity failed",
            witness={"x": x_rep, "y": samples[s], "l": ell},
        )
    return rotation_order(x_rep)


def full_union_symmetry(n: int, d: int, budget: int = DEFAULT_BUDGET) -> int:
    """Rotational symmetry order n/gcd(n,d) of the union of all images.

    Verifies two ways: the computed union point set is closed under
    rotation by 2*pi*gcd(n,d)/n within TOL, and for sampled (X, Y) the
    bilinear congruence solver produces (j, k) whose translation shifts
    the counts by exactly gcd(n, d), exhibiting the rotated value as
    another supercharacter value.  X and Y each run over a sample of
    _UNION_WITNESS_ORBITS orbits.  An unclosed union raises with the first
    value whose rotation has no match and that rotated value as witness.
    The pairs of one X are solved in Y order up to the first whose shift
    t0 is not gcd(n, d).  The translations of the pairs before it are read
    off one _translation_block over their Y and the distinct j and k, and
    only then does that shift raise, so the first failing (X, Y) raises,
    with translation_identity's witness for a failed translation.
    """
    g = gcd(n, d)
    order = n // g
    unclosed = rotation_witness(union_image(n, d, budget=budget), order)
    if unclosed is not None:
        value, rotated = unclosed
        raise VerificationFailed(
            "union cloud not rotation-closed",
            witness={"n": n, "d": d, "order": order, "value": value, "rotated": rotated},
        )
    samples = _sample_orbits(n, d, _UNION_WITNESS_ORBITS)
    ys = _entries(samples)
    for x_rep in samples:
        sols, wrong = [], None
        for y_rep in samples:
            sol = solve_bilinear_congruence(orbit_sum(y_rep), orbit_sum(x_rep), d, n)
            t0 = (orbit_sum(y_rep) * sol.j + orbit_sum(x_rep) * sol.k + d * sol.j * sol.k) % n
            if t0 != g % n:
                wrong = {"x": x_rep, "y": y_rep, "j": sol.j, "k": sol.k, "t0": t0}
                break
            sols.append(sol)
        if sols:
            js = list(dict.fromkeys(sol.j for sol in sols))
            ks = list(dict.fromkeys(sol.k for sol in sols))
            block = _translation_block(x_rep, samples[: len(sols)], ys[: len(sols)], js, ks)
            for i, sol in enumerate(sols):
                flat = (i * len(js) + js.index(sol.j)) * len(ks) + ks.index(sol.k)
                if flat in block.witnesses:
                    raise VerificationFailed("witness translation failed", witness=block.witnesses[flat])
        if wrong is not None:
            raise VerificationFailed("witness shift is not gcd(n,d)", witness=wrong)
    return order


# ---------------------------------------------------------------------------
# reflection ("spike") structure


def spike_shifts(x_rep: OrbitRep) -> list[int]:
    """All r with r*1 - X = X, in increasing order, from one array pass
    over every r (_reflection_shifts)."""
    return np.flatnonzero(_reflection_shifts(_entries([x_rep]), x_rep.n)[0]).tolist()


def _reflection_shifts(reps: np.ndarray, n: int) -> np.ndarray:
    """Whether r*1 - X = X, as a (rows, n) bool array: entry [i, r] for the
    orbit X whose sorted entries are row i of the int64 array reps.

    r*1 - X re-sorted is the sort of (r - X[::-1]) mod n, taken for every r
    at once, in blocks of block_rows(n * d).
    """
    d = reps.shape[1]
    r = np.arange(n)[:, None]
    fixed = np.empty((len(reps), n), dtype=bool)
    step = block_rows(n * d)
    for lo in range(0, len(reps), step):
        x = reps[lo : lo + step]
        mirrored = np.sort((r - x[:, None, ::-1]) % n, axis=2)
        fixed[lo : lo + step] = (mirrored == x[:, None]).all(axis=2)
    return fixed


def spike_identity(x_rep: OrbitRep, r: int, budget: int = DEFAULT_BUDGET) -> IdentityReport:
    """Check the reflection identity for X = r*1 - X over every superclass Y.

    The C(n+d-1, d) superclasses count against the budget before any work,
    and an r mod n not in spike_shifts(x_rep) raises HypothesisFailed.  The
    record is _spike_record's over every superclass row.
    """
    n, d = x_rep.n, x_rep.d
    BudgetExceeded.check(orbit_count(n, d), budget)
    all_r = spike_shifts(x_rep)
    if r % n not in all_r:
        raise HypothesisFailed(f"orbit {x_rep.entries} is not fixed by x -> {r}-x mod {n}")
    return _spike_record(x_rep, r, all_r, superclass_array(n, d).astype(np.int64))


def _spike_record(x_rep: OrbitRep, r: int, all_r: list[int], ys: np.ndarray) -> IdentityReport:
    """The reflection record of X at r, whose shifts r*1 - X = X are all_r,
    over ys, the int64 rows of every superclass in enumeration order.

    Counts level (exact): dot_counts(X, y) must equal its index reversal
    shifted by r*[y].  Value level (numeric): sigma_X(y) must lie within
    TOL of one of the 2n/gcd(r,n) lines through the origin at angles
    pi*m*gcd(r,n)/n (Euclidean distance, which avoids amplifying float
    noise in the argument of small-modulus values).  The witness names the
    first counts failure, else the first ray failure; info["ray_max_modulus"]
    holds the largest modulus on each ray over the points before the first
    ray failure.
    """
    n = x_rep.n
    g = gcd(r, n)
    rays = 2 * n // g
    counts = dot_counts(x_rep, ys)
    mirror = (r * (ys.sum(axis=1) % n)[:, None] - np.arange(n)) % n
    bad_counts = np.flatnonzero(~(counts == np.take_along_axis(counts, mirror, axis=1)).all(axis=1))
    z = counts_value(counts)
    # np.hypot, not np.abs: np.abs of a complex array can differ from abs() in the last bit
    modulus = np.hypot(z.real, z.imag)
    angle = np.angle(z)
    spacing = pi * g / n
    theta = angle % spacing
    on_ray = (modulus < TOL) | (modulus * np.sin(np.minimum(theta, spacing - theta)) <= TOL)
    bad_ray = np.flatnonzero(~on_ray)
    before = slice(0, bad_ray[0] if len(bad_ray) else len(z))
    big = modulus[before] >= TOL
    ray = np.rint((angle[before] % (2 * pi)) / spacing).astype(np.int64) % rays
    ray_max = np.zeros(rays)
    np.maximum.at(ray_max, ray[big], modulus[before][big])
    witness = None
    if len(bad_counts):
        witness = {"x": x_rep, "y": OrbitRep(n, tuple(ys[bad_counts[0]].tolist())), "failure": "counts"}
    elif len(bad_ray):
        i = bad_ray[0]
        witness = {"x": x_rep, "y": OrbitRep(n, tuple(ys[i].tolist())), "value": complex(z[i]), "failure": "ray"}
    return IdentityReport(
        "spike",
        {"x": x_rep, "r": r, "rays": rays, "all_r": all_r},
        False,
        witness is None,
        witness,
        info={"ray_max_modulus": ray_max.tolist()},
    )


# ---------------------------------------------------------------------------
# restricted walks


def walk_reduction_check(n: int, d: int, a: int, budget: int = DEFAULT_BUDGET) -> IdentityReport:
    """Image of the orbit of (0,...,0,a) mod n equals the image of
    (0,...,0,1) mod n/gcd(n,a), as point sets matched within TOL.

    sigma for this orbit is the d-step walk sum with step a, and a*y mod n
    ranges over exactly the multiples of gcd(n, a).  The two images'
    C(n+d-1, d) + C(r+d-1, d) superclasses, r = n/gcd(n, a), count against
    the budget before either is computed.
    """
    if n <= 0 or d <= 0:
        raise ValueError(f"n and d must be positive, got n={n}, d={d}")
    a %= n
    if a == 0:
        raise HypothesisFailed("a must be nonzero mod n")
    r = n // gcd(n, a)
    BudgetExceeded.check(orbit_count(n, d) + orbit_count(r, d), budget)
    big = image(canonicalize((0,) * (d - 1) + (a,), n), budget=budget)
    small = image(canonicalize((0,) * (d - 1) + (1,), r), budget=budget)
    only_big, only_small = cloud_difference(big, small)
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
        info={"points": len(big), "reduced_points": len(small)},
    )


# ---------------------------------------------------------------------------
# sweeps used by the CLI and the test suite


def sweep_conjugate(n: int, d: int, budget: int = DEFAULT_BUDGET) -> Iterator[ReportBlock]:
    """One block per X of the conjugation records at every Y."""
    BudgetExceeded.check(3 * orbit_count(n, d) ** 2, budget)
    y_reps = ParamValues(enumerate_orbits(n, d))
    ys = _entries(y_reps)
    for x_rep in y_reps:
        yield _conjugate_block(x_rep, y_reps, ys)


def sweep_translation(n: int, d: int, budget: int = DEFAULT_BUDGET) -> Iterator[ReportBlock]:
    """One block per X of the translation records at every (Y, j, k)."""
    BudgetExceeded.check((orbit_count(n, d) * n) ** 2, budget)
    reps = ParamValues(enumerate_orbits(n, d))
    ys = _entries(reps)
    shifts = ParamValues(range(n))
    for x_rep in reps:
        yield _translation_block(x_rep, reps, ys, shifts, shifts)


def sweep_constancy(n: int, d: int, budget: int = DEFAULT_BUDGET) -> Iterator[ReportBlock]:
    """dot_counts(X, y) is the same row for every y in the orbit Y.

    One count matrix per X over every point of (Z/nZ)^d, grouped by orbit,
    and one block per X of the records at every Y.
    """
    BudgetExceeded.check(orbit_count(n, d) * n**d, budget)
    y_reps = ParamValues(enumerate_orbits(n, d))
    points, sizes = orbit_arrays(n, d)
    starts = np.cumsum(sizes) - sizes
    first_row = np.repeat(starts, sizes)
    for x_rep in y_reps:
        counts = dot_counts(x_rep, points)
        same = (counts == counts[first_row]).all(axis=1)
        passed = np.logical_and.reduceat(same, starts)
        witnesses = {i: {"x": x_rep, "y": y_reps[i]} for i in np.flatnonzero(~passed).tolist()}
        yield ReportBlock("constancy", {"x": x_rep, "n": n}, ("y",), (y_reps,), passed, witnesses)


def sweep_dihedral(n: int, d: int, budget: int = DEFAULT_BUDGET) -> Iterator[IdentityReport]:
    """Each image is closed under rotation by 2*pi/dihedral_order(X), within TOL.

    Each of the N orbits evaluates its image at N superclasses, from the
    rows of evaluate.orbit_sweeps, and dihedral_order's count rows at its
    min(_LINE_SHIFT_SAMPLES, N) sampled superclasses times n line shifts,
    all charged against the budget before any work.  A failed record's
    witness adds the first value whose rotation has no match ("value") and
    that rotated value ("rotated").
    """
    count = orbit_count(n, d)
    BudgetExceeded.check(count * (count + min(_LINE_SHIFT_SAMPLES, count) * n), budget)
    for x_rep, rows in evaluate.orbit_sweeps(n, d):
        order = dihedral_order(x_rep)
        values = evaluate.dedupe_values(evaluate.values_on_block(x_rep, rows))
        unclosed = rotation_witness(values, order)
        witness = None
        if unclosed is not None:
            witness = {"x": x_rep, "order": order, "value": unclosed[0], "rotated": unclosed[1]}
        yield IdentityReport(
            "dihedral",
            {"x": x_rep, "order": order},
            False,
            witness is None,
            witness,
            info={"points": len(values)},
        )


def sweep_spikes(n: int, d: int, budget: int = DEFAULT_BUDGET) -> Iterator[IdentityReport]:
    """spike_identity's record at its least r of each orbit X with
    r*1 - X = X, in enumeration order.  The superclass rows are built once:
    one _reflection_shifts pass over them gives every orbit's shifts, and
    each record is _spike_record's over them.  The at most N records of N
    superclasses each count N^2 against the budget before any work."""
    BudgetExceeded.check(orbit_count(n, d) ** 2, budget)
    ys = superclass_array(n, d).astype(np.int64)
    for x_rep, shifts in zip(enumerate_orbits(n, d), _reflection_shifts(ys, n)):
        all_r = np.flatnonzero(shifts).tolist()
        if all_r:
            yield _spike_record(x_rep, all_r[0], all_r, ys)
