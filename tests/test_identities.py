import cmath
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symchar import identities
from symchar.errors import BudgetExceeded, HypothesisFailed, VerificationFailed
from symchar.evaluate import PointCloud, dot_counts, orbit_elements, supercharacter
from symchar.identities import (
    conjugate_identity,
    dihedral_order,
    full_union_symmetry,
    ray_count,
    spike_detect,
    spike_factor_check,
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
from symchar.orbits import canonicalize, enumerate_orbits, negate_orbit, orbit_count, orbit_sum, shift_orbit


def reference_counts(rep, y):
    """One orbit element at a time, as a list: the counts a witness must carry."""
    n = rep.n
    counts = [0] * n
    for x in orbit_elements(rep):
        counts[sum(a * b for a, b in zip(x, y)) % n] += 1
    return counts


def real_valued_check(x_rep):
    """sigma_X is real-valued exactly when -X = X."""
    return negate_orbit(x_rep) == x_rep


def test_conjugate_small_sweep():
    for rep in sweep_conjugate(4, 2):
        assert rep.exact and rep.passed, rep.to_json()


def test_translation_small_sweep():
    for rep in sweep_translation(3, 2):
        assert rep.exact and rep.passed, rep.to_json()


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
    assert conjugate_identity(X, Y).passed


def test_real_valued_iff_palindromic_counts():
    # X = -X as orbits forces sigma_X real everywhere
    X = canonicalize((1, 4), 5)  # -1 = 4, -4 = 1
    assert real_valued_check(X)
    for y_rep in enumerate_orbits(5, 2):
        z = supercharacter(X, y_rep.entries)
        assert abs(z.imag) < 1e-9


def test_constancy_sweep():
    for rep in sweep_constancy(4, 3):
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


def test_full_union_symmetry_order():
    assert full_union_symmetry(9, 3) == 3
    assert full_union_symmetry(5, 3) == 5


def test_spike_detect_examples():
    X = canonicalize((1, 2, 3), 17)
    assert spike_detect(X) == 4
    assert 4 in spike_shifts(X)
    assert ray_count(X, 4) == 34
    Y = canonicalize((1, 1, 10, 10), 16)
    assert spike_detect(Y) == 11
    assert ray_count(Y, 11) == 32


def test_spike_detect_none():
    assert spike_detect(canonicalize((0, 1, 3), 7)) is None


def test_spike_identity_at_one_point():
    X = canonicalize((1, 2, 3), 17)
    for y in ([1, 5, 9], canonicalize((2, 2, 16), 17), [-30, 10**30, 4]):
        report = spike_identity(X, 4, y=y)
        assert report.passed, report.to_json()
        assert report.to_json()
    off = spike_identity(X, 4, y=[1, 5, 9], tol=-1.0)
    assert off.witness == {"x": X, "y": [1, 5, 9], "value": complex(supercharacter(X, [1, 5, 9])), "failure": "ray"}
    wide = [2**63, -1, 2**64 - 1]
    value = spike_identity(X, 4, y=wide, tol=-1.0).witness["value"]
    assert value == complex(supercharacter(X, [v % 17 for v in wide]))


def test_spike_identity_small():
    X = canonicalize((1, 4), 5)  # 0*1 - X = X, real line spike
    r = spike_detect(X)
    assert r == 0
    report = spike_identity(X, r)
    assert report.passed, report.to_json()


def test_spike_identity_rejects_non_spike():
    X = canonicalize((0, 1, 3), 7)
    with pytest.raises(HypothesisFailed):
        spike_identity(X, 2)


def test_spike_identity_budget(monkeypatch):
    X = canonicalize((1, 2, 3), 17)
    total = orbit_count(17, 3)
    assert spike_identity(X, 4, budget=total).passed
    # refused before the superclasses are built or counted; one point is not budgeted
    monkeypatch.setattr(identities, "superclass_array", None)
    monkeypatch.setattr(identities, "dot_counts", None)
    with pytest.raises(BudgetExceeded) as info:
        spike_identity(X, 4, budget=total - 1)
    assert (info.value.required, info.value.budget) == (total, total - 1)
    monkeypatch.undo()
    assert spike_identity(X, 4, y=[1, 5, 9], budget=0).passed


def test_sweep_spikes_passes_its_budget(monkeypatch):
    seen = []
    real = identities.spike_identity
    monkeypatch.setattr(identities, "spike_identity", lambda *a, **kw: seen.append(kw["budget"]) or real(*a, **kw))
    assert all(rep.passed for rep in sweep_spikes(5, 2, budget=300))
    assert seen and set(seen) == {300}


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
    reports = [r for r in sweep_conjugate(7, 3) if r.params["x"] == X]
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
            assert report.to_json() == conjugate_identity(X, Y).to_json()
    assert not all(r.passed for r in reports)


def test_translation_witness_carries_reference_counts(monkeypatch):
    n, d = 5, 3
    X, Y = canonicalize((0, 1, 3), n), canonicalize((1, 1, 4), n)
    monkeypatch.setattr(identities, "shift_orbit", lambda rep, j: rep)  # forgets to shift X
    reports = [r for r in sweep_translation(n, d) if r.params["x"] == X and r.params["y"] == Y]
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


def test_constancy_witness_names_the_broken_orbit(monkeypatch):
    broken = canonicalize((0, 1, 2), 4)
    real = identities.orbit_array

    def orbit_array(rep):
        if rep != broken:
            return real(rep)
        return np.vstack([real(rep), [[0, 0, 3]]])  # a point of another orbit

    monkeypatch.setattr(identities, "orbit_array", orbit_array)
    failed = [(r.params["x"], r.params["y"], r.witness) for r in sweep_constancy(4, 3) if not r.passed]
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


def test_spike_ray_witness_and_ray_maxima_before_it():
    X = canonicalize((1, 2, 3), 17)
    tol = 1e-15  # float noise pushes some values off their rays
    report = spike_identity(X, 4, tol=tol)
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
    report = spike_factor_check(7, 3)
    assert report.passed, report.to_json()
    assert report.info["factor_min"] >= -3 - 1e-9
    assert report.info["factor_max"] <= 6 + 1e-9


@pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (2, 3), (2, 4)])
def test_spike_factor_needs_three_residues(n, d):
    # mod 1 or 2 the orbit of (0, 1, ..., 1, 2) is some other orbit
    with pytest.raises(HypothesisFailed):
        spike_factor_check(n, d)


def test_spike_factor_smallest_modulus():
    for d in (2, 3, 4):
        report = spike_factor_check(3, d)
        assert report.passed, report.to_json()


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
        cloud = real_image(rep, **kwargs)
        if rep.n != 3:  # perturb only the reduced-modulus cloud
            return cloud
        moved["from"] = cloud.values[1]
        moved["to"] = cloud.values[1] + 1e-6
        values = cloud.values[:1] + (moved["to"],) + cloud.values[2:]
        return PointCloud(cloud.n, cloud.d, cloud.rep, values)

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
    assert conjugate_identity(X, Y).passed
    assert translation_identity(X, Y, j, k).passed
