from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from symchar import identities
from symchar.errors import HypothesisFailed
from symchar.evaluate import PointCloud, dot_counts, image, supercharacter
from symchar.identities import (
    conjugate_identity,
    dihedral_order,
    full_union_symmetry,
    ray_count,
    real_valued_check,
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
from symchar.orbits import canonicalize, enumerate_orbits, orbit_sum, shift_orbit


def test_conjugate_small_sweep():
    for rep in sweep_conjugate(4, 2):
        assert rep.exact and rep.passed, rep.to_json()


def test_translation_small_sweep():
    for rep in sweep_translation(3, 2):
        assert rep.exact and rep.passed, rep.to_json()


def test_translation_specific():
    X = canonicalize((0, 1, 1, 28), 30)
    Y = canonicalize((1, 2, 3, 4), 30)
    for j, k in [(0, 0), (1, 0), (0, 1), (7, 11), (29, 29)]:
        assert translation_identity(X, Y, j, k).passed


def test_conjugate_means_reversed_counts():
    X = canonicalize((1, 2, 4), 9)
    Y = canonicalize((0, 1, 5), 9)
    cv = dot_counts(X, Y.entries)
    neg = dot_counts(X, [(-v) % 9 for v in Y.entries])
    assert neg == cv.reversed_index()
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


def test_spike_rays_17():
    X = canonicalize((1, 2, 3), 17)
    report = spike_identity(X, 4)
    assert report.passed, report.to_json()
    assert report.params["rays"] == 34
    assert len(report.info["ray_max_modulus"]) == 34


def test_spike_identity_counts_each_superclass_once(monkeypatch):
    from symchar import evaluate

    calls = []

    def counting(rep, y):
        calls.append(tuple(y))
        return dot_counts(rep, y)

    monkeypatch.setattr(identities, "dot_counts", counting)
    monkeypatch.setattr(evaluate, "dot_counts", counting)
    report = spike_identity(canonicalize((1, 2, 3), 17), 4)
    assert report.passed
    assert calls == [rep.entries for rep in enumerate_orbits(17, 3)]


def test_spike_sweep_small():
    for rep in sweep_spikes(8, 2):
        assert rep.passed, rep.to_json()


def test_spike_factor_small():
    report = spike_factor_check(7, 3)
    assert report.passed, report.to_json()
    assert report.info["factor_min"] >= -3 - 1e-9
    assert report.info["factor_max"] <= 6 + 1e-9


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
