import cmath
import json
from itertools import chain
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symchar import evaluate, identities, orbits
from symchar.errors import BudgetExceeded, HypothesisFailed, VerificationFailed
from symchar.evaluate import TOL, dot_counts, roots_of_unity, supercharacter
from symchar.modring import CongruenceSolution, solve_bilinear_congruence
from symchar.identities import (
    dihedral_order,
    full_union_symmetry,
    spike_identity,
    spike_shifts,
    sweep_conjugate,
    sweep_constancy,
    sweep_dihedral,
    sweep_spikes,
    sweep_translation,
    translation_identity,
    walk_reduction_check,
)
from symchar.orbits import (
    canonicalize,
    distinct_permutations,
    enumerate_orbits,
    negate_orbit,
    orbit_count,
    orbit_sum,
    shift_orbit,
    superclass_array,
    unrank_orbit,
)


def reference_counts(rep, y):
    """One orbit element at a time, as a list: the counts a witness must carry."""
    n = rep.n
    counts = [0] * n
    for x in distinct_permutations(rep):
        counts[sum(a * b for a, b in zip(x, y)) % n] += 1
    return counts


def conjugate_record(X, Y):
    """The conjugation record at (X, Y): the one record of a one-row block."""
    return next(iter(identities._conjugate_block(X, [Y], np.array([Y.entries]))))


def spike_factor_form(n, d):
    """For X = orbit of (0, 1, ..., 1, 2), sigma_X at every superclass y, its
    factored form e([y]/n)(|W(y)|^2 - d) with the walk sum W(y) = sum e(y_i/n),
    and the real factor |W(y)|^2 - d."""
    X = canonicalize((0,) + (1,) * (d - 2) + (2,), n)
    assert X.entries == (0,) + (1,) * (d - 2) + (2,)  # three distinct residues
    table = roots_of_unity(n)
    ys = superclass_array(n, d).astype(np.int64)
    factor = np.abs(table[ys].sum(axis=1)) ** 2 - d
    return supercharacter(X, ys), table[ys.sum(axis=1) % n] * factor, factor


def real_valued_check(x_rep):
    """sigma_X is real-valued exactly when -X = X."""
    return negate_orbit(x_rep) == x_rep


def test_conjugate_small_sweep():
    for rep in chain.from_iterable(sweep_conjugate(4, 2)):
        assert rep.exact and rep.passed, rep.to_json()


def test_translation_small_sweep():
    for rep in chain.from_iterable(sweep_translation(3, 2)):
        assert rep.exact and rep.passed, rep.to_json()


@pytest.mark.parametrize("n, d", [(4, 2), (3, 3)])
def test_exact_sweeps_yield_one_block_per_x(n, d):
    reps = list(enumerate_orbits(n, d))
    for sweep, per_x in [(sweep_conjugate, len(reps)), (sweep_translation, len(reps) * n * n), (sweep_constancy, len(reps))]:
        blocks = list(sweep(n, d))
        assert [block.shared["x"] for block in blocks] == reps
        assert [block.passed.size for block in blocks] == [per_x] * len(reps)
        assert all(r.params["x"] == block.shared["x"] for block in blocks for r in block)


def test_translation_specific():
    X = canonicalize((0, 1, 1, 28), 30)
    Y = canonicalize((1, 2, 3, 4), 30)
    for j, k in [(0, 0), (1, 0), (0, 1), (7, 11), (29, 29), (2**63, 2**63), (-1, 2**64 - 1), (3, -(2**63) - 1)]:
        assert translation_identity(X, Y, j, k).passed


def test_conjugate_means_reversed_counts():
    X = canonicalize((1, 2, 4), 9)
    Y = canonicalize((0, 1, 5), 9)
    counts = dot_counts(X, Y.entries)
    neg = dot_counts(X, [(-v) % 9 for v in Y.entries])
    assert neg.tolist() == counts[-np.arange(9) % 9].tolist()
    assert conjugate_record(X, Y).passed


def test_real_valued_iff_palindromic_counts():
    # X = -X as orbits forces sigma_X real everywhere
    X = canonicalize((1, 4), 5)  # -1 = 4, -4 = 1
    assert real_valued_check(X)
    for y_rep in enumerate_orbits(5, 2):
        z = supercharacter(X, y_rep.entries)
        assert abs(z.imag) < 1e-9


def test_constancy_sweep():
    for rep in chain.from_iterable(sweep_constancy(4, 3)):
        assert rep.passed


def test_dihedral_order_is_n_over_gcd():
    for rep in enumerate_orbits(6, 2):
        expect = 6 // gcd(6, orbit_sum(rep) % 6) if orbit_sum(rep) % 6 else 1
        assert dihedral_order(rep) == expect


def test_dihedral_order_shift_covariance():
    # shifting X by j*1 moves [X] by d*j, so the order tracks gcd(n, [X]+dj)
    X = canonicalize((0, 0, 1), 12)
    for j in range(12):
        shifted = shift_orbit(X, j)
        s = orbit_sum(shifted) % 12
        expect = 12 // gcd(12, s) if s else 1
        assert dihedral_order(shifted) == expect


def test_dihedral_sweep():
    for rep in sweep_dihedral(5, 2):
        assert rep.passed, rep.to_json()


def test_dihedral_sweep_charges_every_image_first(monkeypatch):
    # n = 5, d = 3: N = 35 images of 35 superclasses each, and dihedral_order's
    # 12 sampled superclasses times 5 line shifts per orbit: 35 * (35 + 60)
    assert sum(rep.passed for rep in sweep_dihedral(5, 3, budget=35 * 95)) == 35
    monkeypatch.setattr(evaluate, "orbit_sweeps", None)
    monkeypatch.setattr(identities, "dihedral_order", None)
    with pytest.raises(BudgetExceeded) as info:
        next(sweep_dihedral(5, 3, budget=35 * 95 - 1))
    assert (info.value.required, info.value.budget) == (35 * 95, 35 * 95 - 1)


def test_full_union_symmetry_order():
    assert full_union_symmetry(9, 3) == 3
    assert full_union_symmetry(5, 3) == 5


def _rotation(order):
    return np.exp(2j * np.pi / order)


def test_dihedral_witness_shows_the_unmatched_rotation(monkeypatch):
    real_dedupe = evaluate.dedupe_values
    dropped = []  # the first value of each image, one image per record

    def dedupe_without_first(values):
        kept = real_dedupe(values)
        dropped.append(kept[0])
        return kept[1:]

    monkeypatch.setattr(evaluate, "dedupe_values", dedupe_without_first)
    i, report = next((i, r) for i, r in enumerate(sweep_dihedral(5, 2)) if not r.passed)
    x, order = report.params["x"], report.params["order"]
    value, rotated = report.witness["value"], report.witness["rotated"]
    assert report.witness["x"] == x and report.witness["order"] == order
    assert rotated == value * _rotation(order)
    assert abs(rotated - dropped[i]) <= TOL  # the dropped value was its match
    assert json.loads(report.to_json())["witness"]["rotated"] == [rotated.real, rotated.imag]


def test_full_union_witness_shows_the_unmatched_rotation(monkeypatch):
    real_union = identities.union_image
    dropped = []

    def union_without_first(n, d, **kwargs):
        values = real_union(n, d, **kwargs)
        dropped.append(values[0])
        return values[1:]

    monkeypatch.setattr(identities, "union_image", union_without_first)
    with pytest.raises(VerificationFailed) as info:
        full_union_symmetry(9, 3)
    witness = info.value.witness
    assert (witness["n"], witness["d"], witness["order"]) == (9, 3, 3)
    assert witness["rotated"] == witness["value"] * _rotation(3)
    assert abs(witness["rotated"] - dropped[0]) <= TOL


@pytest.mark.parametrize("limit", [8, 12])
@pytest.mark.parametrize("n, d", [(7, 1), (8, 1), (9, 1), (11, 1), (12, 1), (13, 1), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_sample_orbits_spread_over_the_enumeration(n, d, limit):
    # N = 4 ... 13 orbits, on both sides of N = limit: the sample positions
    # are every orbit when N <= limit, else limit distinct positions
    total = orbit_count(n, d)
    positions = sorted({i * (total - 1) // (limit - 1) for i in range(limit)})
    samples = identities._sample_orbits(n, d, limit)
    assert samples == tuple(unrank_orbit(n, d, i) for i in positions)
    assert len(samples) == min(total, limit)
    if total <= limit:
        assert samples == tuple(enumerate_orbits(n, d))


def union_witness_reference(n, d):
    """The first failure of full_union_symmetry's sampled (X, Y) pairs, one
    translation_identity call per pair in X-then-Y order: (message, witness),
    or None when every pair passes."""
    g = gcd(n, d)
    samples = identities._sample_orbits(n, d, identities._UNION_WITNESS_ORBITS)
    for x in samples:
        for y in samples:
            sol = identities.solve_bilinear_congruence(orbit_sum(y), orbit_sum(x), d, n)
            t0 = (orbit_sum(y) * sol.j + orbit_sum(x) * sol.k + d * sol.j * sol.k) % n
            if t0 != g % n:
                return "witness shift is not gcd(n,d)", {"x": x, "y": y, "j": sol.j, "k": sol.k, "t0": t0}
            report = translation_identity(x, y, sol.j, sol.k)
            if not report.passed:
                return "witness translation failed", report.witness
    return None


def _solver_wrong_at(call):
    """The bilinear solver, answering (0, 0) at its call number `call`."""
    calls = []

    def solve(a, b, d, n):
        calls.append((a, b))
        return CongruenceSolution(0, 0, "crt") if len(calls) - 1 == call else solve_bilinear_congruence(a, b, d, n)

    return solve


@pytest.mark.parametrize(
    "broken_j, wrong_call",
    [
        ("all", None),  # every translation fails, the first at the first pair
        (6, None),  # X0's j are 1, 3, 3, 3, 3, 3, 6, 2: the first failure is (X0, Y6)
        (6, 7),  # that translation fails before (X0, Y7)'s shift is wrong
        (6, 4),  # (X0, Y4)'s shift is wrong before (X0, Y6)'s translation fails
        (None, 10),  # X0 passes and (X1, Y2)'s shift is wrong
    ],
)
def test_full_union_witness_is_the_first_failing_pair(broken_j, wrong_call, monkeypatch):
    n, d = 9, 3
    real_shift = identities.shift_orbit
    if broken_j is not None:
        monkeypatch.setattr(
            identities, "shift_orbit", lambda rep, j: rep if broken_j in ("all", j % n) else real_shift(rep, j)
        )
    if wrong_call is not None:
        monkeypatch.setattr(identities, "solve_bilinear_congruence", _solver_wrong_at(wrong_call))
    expected = union_witness_reference(n, d)
    if wrong_call is not None:  # a fresh call count
        monkeypatch.setattr(identities, "solve_bilinear_congruence", _solver_wrong_at(wrong_call))
    with pytest.raises(VerificationFailed) as info:
        full_union_symmetry(n, d)
    assert expected is not None and (str(info.value), info.value.witness) == expected


def test_full_union_wrong_shift_raises_before_any_counts(monkeypatch):
    monkeypatch.setattr(identities, "solve_bilinear_congruence", _solver_wrong_at(0))
    monkeypatch.setattr(identities, "dot_counts", None)  # a count matrix would raise TypeError
    with pytest.raises(VerificationFailed) as info:
        full_union_symmetry(9, 3)
    X = identities._sample_orbits(9, 3, identities._UNION_WITNESS_ORBITS)[0]
    assert str(info.value) == "witness shift is not gcd(n,d)"
    assert info.value.witness == {"x": X, "y": X, "j": 0, "k": 0, "t0": 0}


@pytest.mark.parametrize("n, d", [(9, 3), (7, 4), (12, 2)])
def test_full_union_makes_one_count_matrix_per_x_and_distinct_j(n, d, monkeypatch):
    samples = identities._sample_orbits(n, d, identities._UNION_WITNESS_ORBITS)
    m = len(samples)
    expected = rows = 0
    for x in samples:
        sols = [identities.solve_bilinear_congruence(orbit_sum(y), orbit_sum(x), d, n) for y in samples]
        js, ks = {sol.j for sol in sols}, {sol.k for sol in sols}
        expected += 1 + len(js)
        rows += m + len(js) * m * len(ks)  # the base rows, then every (Y, k) of each j
    calls = []
    monkeypatch.setattr(identities, "dot_counts", lambda rep, ys: calls.append(len(ys)) or dot_counts(rep, ys))
    assert full_union_symmetry(n, d) == n // gcd(n, d)
    assert len(calls) == expected and sum(calls) == rows


def reference_spike_shifts(rep):
    return [r for r in range(rep.n) if canonicalize([r - v for v in rep.entries], rep.n) == rep]


def test_spike_shifts_match_canonicalize_reference():
    for n in range(1, 13):
        for d in range(1, 5):
            for rep in enumerate_orbits(n, d):
                assert spike_shifts(rep) == reference_spike_shifts(rep)


@pytest.mark.parametrize("cells", [1, 40, 65_536])  # one orbit per block, a few, all
def test_spike_sweep_shifts_in_blocks(cells, monkeypatch):
    monkeypatch.setattr(orbits, "_BLOCK_CELLS", cells)
    fixed = identities._reflection_shifts(superclass_array(7, 4).astype(np.int64), 7)
    want = [[r in reference_spike_shifts(rep) for r in range(7)] for rep in enumerate_orbits(7, 4)]
    assert fixed.tolist() == want


def test_spike_shifts_examples():
    X = canonicalize((1, 2, 3), 17)
    assert spike_shifts(X)[0] == 4
    assert spike_identity(X, 4).params["rays"] == 34
    Y = canonicalize((1, 1, 10, 10), 16)
    assert spike_shifts(Y)[0] == 11
    assert spike_identity(Y, 11).params["rays"] == 32


def test_spike_shifts_none():
    assert spike_shifts(canonicalize((0, 1, 3), 7)) == []


def test_spike_identity_small():
    X = canonicalize((1, 4), 5)  # 0*1 - X = X, real line spike
    r = spike_shifts(X)[0]
    assert r == 0
    report = spike_identity(X, r)
    assert report.passed, report.to_json()


def test_spike_identity_rejects_non_spike():
    X = canonicalize((0, 1, 3), 7)
    with pytest.raises(HypothesisFailed):
        spike_identity(X, 2)


def test_spike_identity_reads_r_mod_n():
    X = canonicalize((1, 2, 3), 17)
    assert spike_identity(X, 4 - 17).passed and spike_identity(X, 4 + 17).params["all_r"] == [4]
    with pytest.raises(HypothesisFailed):
        spike_identity(X, 5 + 17)


def test_spike_identity_budget(monkeypatch):
    X = canonicalize((1, 2, 3), 17)
    total = orbit_count(17, 3)
    assert spike_identity(X, 4, budget=total).passed
    # refused before the superclasses are built or counted
    monkeypatch.setattr(identities, "superclass_array", None)
    monkeypatch.setattr(identities, "dot_counts", None)
    with pytest.raises(BudgetExceeded) as info:
        spike_identity(X, 4, budget=total - 1)
    assert (info.value.required, info.value.budget) == (total, total - 1)


def test_sweep_spikes_builds_the_superclasses_once(monkeypatch):
    built = []
    real = identities.superclass_array
    monkeypatch.setattr(identities, "superclass_array", lambda *a: built.append(a) or real(*a))
    reports = list(sweep_spikes(6, 4))
    assert reports and all(r.passed for r in reports)
    assert built == [(6, 4)]


def test_spike_rays_17():
    X = canonicalize((1, 2, 3), 17)
    report = spike_identity(X, 4)
    assert report.passed, report.to_json()
    assert report.params["rays"] == 34
    assert len(report.info["ray_max_modulus"]) == 34


def test_spike_identity_counts_each_superclass_once(monkeypatch):
    calls = []

    def counting(rep, ys):
        calls.append(np.asarray(ys).tolist())
        return dot_counts(rep, ys)

    monkeypatch.setattr(identities, "dot_counts", counting)
    report = spike_identity(canonicalize((1, 2, 3), 17), 4)
    assert report.passed
    assert calls == [[list(rep.entries) for rep in enumerate_orbits(17, 3)]]


def test_conjugate_witness_carries_reference_counts(monkeypatch):
    X = canonicalize((0, 1, 3), 7)  # -X = (0, 4, 6) != X
    wrong = canonicalize((0, 1, 4), 7)
    monkeypatch.setattr(identities, "negate_orbit", lambda rep: wrong)
    reports = [r for r in chain.from_iterable(sweep_conjugate(7, 3)) if r.params["x"] == X]
    for Y, report in zip(enumerate_orbits(7, 3), reports):
        y = Y.entries
        counts = reference_counts(X, y)
        expected_pass = reference_counts(wrong, y) == [counts[-t % 7] for t in range(7)]
        assert report.passed == expected_pass
        if not expected_pass:
            assert report.witness == {
                "x": X,
                "y": Y,
                "counts": counts,
                "counts_at_minus_y": reference_counts(X, [-v for v in y]),
                "counts_of_minus_x": reference_counts(wrong, y),
            }
            assert report.to_json() == conjugate_record(X, Y).to_json()
    assert not all(r.passed for r in reports)


def test_translation_witness_carries_reference_counts(monkeypatch):
    n, d = 5, 3
    X, Y = canonicalize((0, 1, 3), n), canonicalize((1, 1, 4), n)
    monkeypatch.setattr(identities, "shift_orbit", lambda rep, j: rep)  # forgets to shift X
    reports = [r for r in chain.from_iterable(sweep_translation(n, d)) if r.params["x"] == X and r.params["y"] == Y]
    assert [(r.params["j"], r.params["k"]) for r in reports] == [(j, k) for j in range(n) for k in range(n)]
    base = reference_counts(X, Y.entries)
    for report in reports:
        j, k = report.params["j"], report.params["k"]
        t0 = (orbit_sum(Y) * j + orbit_sum(X) * k + d * j * k) % n
        lhs = reference_counts(X, [v + k for v in Y.entries])
        rhs = [base[(t - t0) % n] for t in range(n)]
        assert report.passed == (lhs == rhs)
        if lhs != rhs:
            assert report.witness == {"x": X, "y": Y, "j": j, "k": k, "shift": t0, "lhs": lhs, "rhs": rhs}
            assert report.to_json() == translation_identity(X, Y, j, k).to_json()
    assert not all(r.passed for r in reports)


def reference_translation(n, d, shift):
    """Translation records per (X, Y, j, k), one orbit element at a time.

    shift(X, j) is the orbit the left-hand side evaluates: X + j1 when the
    code is right, something else to provoke witnesses.
    """
    for X in enumerate_orbits(n, d):
        for Y in enumerate_orbits(n, d):
            base = reference_counts(X, Y.entries)
            for j in range(n):
                for k in range(n):
                    t0 = (sum(Y.entries) * j + sum(X.entries) * k + d * j * k) % n
                    lhs = reference_counts(shift(X, j), [v + k for v in Y.entries])
                    rhs = [base[(t - t0) % n] for t in range(n)]
                    witness = None
                    if lhs != rhs:
                        witness = {"x": X, "y": Y, "j": j, "k": k, "shift": t0, "lhs": lhs, "rhs": rhs}
                    yield ("translation", {"x": X, "y": Y, "j": j, "k": k, "n": n}, True, lhs == rhs, witness)


@pytest.mark.parametrize("n, d", [(3, 2), (4, 3), (5, 2)])
@pytest.mark.parametrize("broken", [False, True], ids=["shifted", "unshifted"])
def test_translation_sweep_matches_per_pair_reference(n, d, broken, monkeypatch):
    if broken:
        monkeypatch.setattr(identities, "shift_orbit", lambda rep, j: rep)  # forgets to shift X
        shift = lambda X, j: X  # noqa: E731
    else:
        shift = lambda X, j: canonicalize([v + j for v in X.entries], n)  # noqa: E731
    got = [(r.name, r.params, r.exact, r.passed, r.witness) for r in chain.from_iterable(sweep_translation(n, d))]
    expected = list(reference_translation(n, d, shift))
    assert got == expected
    assert all(r[3] for r in expected) != broken


def test_translation_sweep_makes_n_plus_one_block_calls_per_x(monkeypatch):
    n, d = 4, 3
    calls = []

    def counting(rep, ys):
        calls.append(rep)
        return dot_counts(rep, ys)

    monkeypatch.setattr(identities, "dot_counts", counting)
    assert sum(1 for _ in chain.from_iterable(sweep_translation(n, d))) == orbit_count(n, d) ** 2 * n * n
    assert len(calls) == orbit_count(n, d) * (n + 1)


@pytest.mark.parametrize("n, d", [(6, 4), (4, 2)])
def test_dihedral_order_makes_one_block_call(n, d, monkeypatch):
    calls = []

    def counting(rep, ys):
        calls.append(len(ys))
        return dot_counts(rep, ys)

    monkeypatch.setattr(identities, "dot_counts", counting)
    for X in enumerate_orbits(n, d):
        calls.clear()
        dihedral_order(X)
        assert calls == [min(12, orbit_count(n, d)) * n]


def test_constancy_witness_names_the_broken_orbit(monkeypatch):
    broken = canonicalize((0, 1, 2), 4)
    real = identities.orbit_arrays

    def orbit_arrays(n, d):
        points, sizes = real(n, d)
        i = list(enumerate_orbits(n, d)).index(broken)
        sizes = sizes.copy()
        sizes[i] += 1
        return np.insert(points, sizes[: i + 1].sum() - 1, [0, 0, 3], axis=0), sizes  # a point of another orbit

    monkeypatch.setattr(identities, "orbit_arrays", orbit_arrays)
    failed = [(r.params["x"], r.params["y"], r.witness) for r in chain.from_iterable(sweep_constancy(4, 3)) if not r.passed]
    expected = [
        (X, broken, {"x": X, "y": broken})
        for X in enumerate_orbits(4, 3)
        if reference_counts(X, (0, 0, 3)) != reference_counts(X, (0, 1, 2))
    ]
    assert failed == expected and expected


def test_dihedral_witness_names_the_first_bad_shift(monkeypatch):
    X = canonicalize((0, 1, 2), 6)  # [X] = 3
    monkeypatch.setattr(identities, "orbit_sum", lambda rep: 1)
    with pytest.raises(VerificationFailed) as info:
        dihedral_order(X)
    Y = identities._sample_orbits(6, 3)[0]
    base = reference_counts(X, Y.entries)
    ell = next(
        ell
        for ell in range(6)
        if reference_counts(X, [v + ell for v in Y.entries]) != [base[(t - ell) % 6] for t in range(6)]
    )
    assert info.value.witness == {"x": X, "y": Y, "l": ell}


def test_spike_counts_witness_is_the_first_asymmetric_superclass(monkeypatch):
    X = canonicalize((1, 2, 3), 17)
    other = canonicalize((0, 1, 3), 17)  # not a spike: its counts are not reflected
    monkeypatch.setattr(identities, "dot_counts", lambda rep, ys: dot_counts(other, ys))
    report = spike_identity(X, 4)

    def reflected(Y):
        c = reference_counts(other, Y.entries)
        return c == [c[(4 * sum(Y.entries) - t) % 17] for t in range(17)]

    first = next(Y for Y in enumerate_orbits(17, 3) if not reflected(Y))
    assert not report.passed
    assert report.witness == {"x": X, "y": first, "failure": "counts"}


def test_spike_ray_witness_and_ray_maxima_before_it(monkeypatch):
    X = canonicalize((1, 2, 3), 17)
    tol = 1e-15  # float noise pushes some values off their rays
    monkeypatch.setattr(identities, "TOL", tol)
    report = spike_identity(X, 4)
    assert not report.passed and report.witness["failure"] == "ray"
    first = report.witness["y"]
    ray_max = [0.0] * 34
    for Y in enumerate_orbits(17, 3):
        if Y == first:
            break
        z = complex(supercharacter(X, Y.entries))
        if abs(z) >= tol:
            m = round((cmath.phase(z) % (2 * cmath.pi)) / (cmath.pi / 17)) % 34
            ray_max[m] = max(ray_max[m], abs(z))
    assert 0 < sum(v > 0 for v in ray_max)
    assert report.witness["value"] == complex(supercharacter(X, first.entries))
    assert report.info["ray_max_modulus"] == ray_max


def test_spike_sweep_small():
    for rep in sweep_spikes(8, 2):
        assert rep.passed, rep.to_json()


def test_spike_factor_small():
    values, factored, factor = spike_factor_form(7, 3)
    assert np.abs(values - factored).max() <= TOL
    assert factor.min() >= -3 - TOL and factor.max() <= 6 + TOL


def test_spike_factor_smallest_modulus():
    for d in (2, 3, 4):
        values, factored, factor = spike_factor_form(3, d)
        assert np.abs(values - factored).max() <= TOL
        assert factor.min() >= -d - TOL and factor.max() <= d * d - d + TOL


def test_walk_reduction():
    report = walk_reduction_check(24, 3, 6)
    assert report.passed
    assert report.params["reduced_modulus"] == 4


def test_walk_reduction_identity_step():
    report = walk_reduction_check(10, 2, 1)
    assert report.passed
    assert report.params["reduced_modulus"] == 10


def test_walk_zero_step_rejected():
    with pytest.raises(HypothesisFailed):
        walk_reduction_check(6, 2, 6)


def test_walk_witness_names_the_mismatch(monkeypatch):
    real_image = identities.image
    moved = {}

    def perturbed_image(rep, **kwargs):
        values = real_image(rep, **kwargs)
        if rep.n != 3:  # perturb only the reduced-modulus image
            return values
        moved["from"] = values[1]
        moved["to"] = values[1] + 1e-6
        return values[:1] + (moved["to"],) + values[2:]

    monkeypatch.setattr(identities, "image", perturbed_image)
    report = walk_reduction_check(24, 3, 8)
    assert not report.passed
    assert report.witness["only_big"] == [moved["from"]]
    assert report.witness["only_small"] == [moved["to"]]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_translation_and_conjugate_hold_everywhere(n, d, data):
    draw = lambda: tuple(data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(d))
    X = canonicalize(draw(), n)
    Y = canonicalize(draw(), n)
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert conjugate_record(X, Y).passed
    assert translation_identity(X, Y, j, k).passed
