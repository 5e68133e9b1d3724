import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symchar.errors import BudgetExceeded, DimensionTooLarge
from symchar.evaluate import (
    CountsVector,
    DEDUPE_DECIMALS,
    DEFAULT_BUDGET,
    constancy_check,
    dedupe_values,
    dot_counts,
    dot_counts_symmetrized,
    image,
    permanent_oracle,
    supercharacter,
    union_image,
    values_match,
)
from symchar.orbits import canonicalize, enumerate_orbits, orbit_size


def e(t):
    return cmath.exp(2j * cmath.pi * t)


def test_dot_counts_by_hand():
    # X = orbit of (0, 1) in Z/3: {(0, 1), (1, 0)}; y = (1, 2)
    # dots: 0*1 + 1*2 = 2, 1*1 + 0*2 = 1
    cv = dot_counts(canonicalize((0, 1), 3), (1, 2))
    assert cv.counts == (0, 1, 1)
    assert abs(cv.value() - (e(1 / 3) + e(2 / 3))) < 1e-12
    assert abs(cv.value() - (-1)) < 1e-12


def test_counts_vector_total_and_shift():
    cv = CountsVector(5, (2, 1, 0, 0, 1))
    assert cv.total() == 4
    shifted = cv.shifted(2)
    assert shifted.counts == (0, 1, 2, 1, 0)
    assert cv.shifted(0) == cv
    assert cv.shifted(5) == cv


def test_counts_reversal_and_palindrome():
    cv = CountsVector(5, (2, 1, 0, 0, 1))
    assert cv.reversed_index().counts == (2, 1, 0, 0, 1)
    cv2 = CountsVector(5, (0, 3, 0, 0, 1))
    assert cv2.reversed_index().counts == (0, 1, 0, 0, 3)
    assert not cv2.is_palindromic()
    assert CountsVector(4, (1, 2, 0, 2)).is_palindromic()


def test_supercharacter_at_zero_is_orbit_size():
    for n, d in [(3, 2), (5, 3), (4, 4)]:
        for rep in enumerate_orbits(n, d):
            assert abs(supercharacter(rep, (0,) * d) - orbit_size(rep)) < 1e-9


def test_permanent_oracle_two_by_two():
    # X = orbit of (1, 2) in Z/3, y = (1, 1):
    # sigma = e(1/3 + 2/3) + e(2/3 + 1/3) = 2, permanent route must agree
    rep = canonicalize((1, 2), 3)
    val = permanent_oracle(rep, (1, 1))
    assert abs(val - 2) < 1e-12
    assert abs(val - supercharacter(rep, (1, 1))) < 1e-12


def test_permanent_oracle_dimension_cutoff():
    rep = canonicalize(tuple(range(11)), 13)
    with pytest.raises(DimensionTooLarge):
        permanent_oracle(rep, (0,) * 11)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=4), st.data())
def test_permanent_matches_direct_sum(n, d, data):
    entries = tuple(sorted(data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(d)))
    y = [data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(d)]
    rep = canonicalize(entries, n)
    assert abs(supercharacter(rep, y) - permanent_oracle(rep, y)) < 1e-9


def test_symmetrized_counts_scale_by_stabilizer():
    rep = canonicalize((0, 1, 1, 3), 5)
    y = (1, 2, 0, 3)
    plain = dot_counts(rep, y)
    full = dot_counts_symmetrized(rep, y)
    assert full.counts == tuple(2 * c for c in plain.counts)


def test_symmetrized_counts_cutoff():
    rep = canonicalize((0,) * 7, 3)
    with pytest.raises(DimensionTooLarge):
        dot_counts_symmetrized(rep, (0,) * 7)


def test_constancy_on_superclasses():
    # sigma_X takes one value per superclass: permuting y must not move it
    for x_rep in enumerate_orbits(4, 3):
        for y_rep in enumerate_orbits(4, 3):
            assert constancy_check(x_rep, y_rep)


def test_image_d1_is_root_circle():
    cloud = image(canonicalize((1,), 5))
    expect = [e(k / 5) for k in range(5)]
    assert values_match(cloud.values, expect)


def test_image_full_group_agrees_with_reps():
    rep = canonicalize((1, 2), 3)
    a = image(rep)
    b = image(rep, full_group=True)
    assert values_match(a.values, b.values)


def test_image_zero_orbit():
    cloud = image(canonicalize((0, 0), 4))
    assert values_match(cloud.values, [1.0])


def test_image_budget_enforced():
    with pytest.raises(BudgetExceeded) as info:
        image(canonicalize((1, 2, 3), 30), budget=100)
    assert info.value.required > 100
    assert info.value.budget == 100


def test_max_modulus_at_zero():
    rep = canonicalize((1, 3, 4), 9)
    cloud = image(rep)
    assert max(abs(v) for v in cloud.values) <= orbit_size(rep) + 1e-9


def test_dedupe_values():
    vals = [1 + 0j, 1 + 1e-12j, 0.5 + 0.5j, 1 + 0j]
    out = dedupe_values(vals)
    assert len(out) == 2
    assert out[0] == 1 + 0j  # first-seen representative survives


def reference_dedupe(values):
    """One dict lookup per value, in input order: the rule dedupe_values
    must reproduce exactly."""
    def rounded(v):
        r = round(v, DEDUPE_DECIMALS)
        return 0.0 if r == 0 else r

    seen = {}
    out = []
    for z in values:
        key = (rounded(z.real), rounded(z.imag))
        if key not in seen:
            seen[key] = None
            out.append(complex(z))
    return tuple(out)


# +-0.0, values 0.5e-9 apart and values on (or a hair off) rounding boundaries
_coords = st.sampled_from(
    [0.0, -0.0, 5e-10, -5e-10, 1e-9, 1.5e-9, 2.5e-9, 0.1234567895, 0.12345678949999999, -0.1234567895, 1.0, 1.0000000005, -1.0000000005]
) | st.floats(min_value=-2, max_value=2, allow_nan=False).map(lambda v: round(v, 10))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, _coords, _coords), max_size=60), st.data())
def test_dedupe_values_matches_reference(vals, data):
    # exact repeats of earlier values, placed anywhere in the list
    for _ in range(data.draw(st.integers(0, 10))):
        if vals:
            vals.insert(data.draw(st.integers(0, len(vals))), data.draw(st.sampled_from(vals)))
    expected = repr(reference_dedupe(vals))
    assert repr(dedupe_values(vals)) == expected
    assert repr(dedupe_values(np.array(vals, dtype=complex))) == expected
    assert repr(dedupe_values(iter(vals))) == expected


def test_dedupe_values_keeps_first_signed_zero():
    assert repr(dedupe_values([complex(-0.0, 0.0), 0j, complex(0.0, -0.0)])) == repr((complex(-0.0, 0.0),))
    assert dedupe_values([]) == ()


def test_values_match_respects_tolerance():
    assert values_match([1 + 0j], [1 + 5e-10j], tol=1e-9)
    assert not values_match([1 + 0j], [1 + 1e-8j], tol=1e-9)
    assert not values_match([1 + 0j, 2 + 0j], [1 + 0j])


def test_values_match_across_bucket_edges():
    # values straddling a rounding-bucket boundary must still pair up
    base = 0.1234567895
    assert values_match([base + 4.9e-10 + 0j], [base - 4.9e-10 + 0j], tol=1e-9)


def test_union_image_contains_each_orbit():
    cloud = union_image(3, 2)
    for rep in enumerate_orbits(3, 2):
        single = image(rep)
        for v in single.values:
            assert values_match([v], cloud.values) or any(abs(v - u) <= 1e-9 for u in cloud.values)


def test_default_budget_value():
    assert DEFAULT_BUDGET == 5_000_000
