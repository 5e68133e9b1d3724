from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symchar.orbits import (
    OrbitRep,
    canonicalize,
    distinct_permutations,
    enumerate_orbits,
    negate_orbit,
    orbit_count,
    orbit_size,
    orbit_sum,
    rank_orbit,
    residue_multiplicities,
    rotation_order,
    shift_orbit,
    stabilizer_order,
    superclass_array,
    unrank_orbit,
)


def test_canonicalize_reduces_and_sorts():
    assert canonicalize((-1, 1), 5).entries == (1, 4)
    assert canonicalize((7, 3, 12), 5).entries == (2, 2, 3)
    assert canonicalize((0,), 1).entries == (0,)


def test_rep_validation():
    with pytest.raises(ValueError):
        OrbitRep(5, (3, 1))  # not sorted
    with pytest.raises(ValueError):
        OrbitRep(5, (0, 7))  # not reduced
    with pytest.raises(ValueError):
        OrbitRep(0, (0,))
    with pytest.raises(ValueError):
        OrbitRep(5, ())


def test_counting():
    assert orbit_count(3, 2) == 6
    assert orbit_count(5, 3) == comb(7, 3)
    reps = list(enumerate_orbits(4, 3))
    assert len(reps) == orbit_count(4, 3)
    assert reps == sorted(reps, key=lambda r: r.entries)
    assert len(set(reps)) == len(reps)


def test_orbit_sizes_partition_the_group():
    for n, d in [(2, 3), (3, 2), (4, 3), (5, 2), (3, 4)]:
        assert sum(orbit_size(rep) for rep in enumerate_orbits(n, d)) == n**d


def test_stabilizer_times_orbit():
    rep = canonicalize((0, 1, 1, 2), 5)
    assert stabilizer_order(rep) == 2
    assert orbit_size(rep) == 12
    assert residue_multiplicities(rep) == (1, 2, 1, 0, 0)
    assert len(list(distinct_permutations(rep))) == 12


def test_distinct_permutations_lex_and_complete():
    rep = canonicalize((0, 1, 1), 3)
    perms = list(distinct_permutations(rep))
    assert perms[0] == (0, 1, 1)
    assert perms == sorted(perms)
    assert set(perms) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_shift_and_negate():
    assert shift_orbit(canonicalize((0, 1, 1, 28), 30), 15).entries == (13, 15, 16, 16)
    assert negate_orbit(canonicalize((1, 2, 3), 7)).entries == (4, 5, 6)
    assert orbit_sum(canonicalize((1, 2, 3), 7)) == 6


def test_rank_unrank_roundtrip():
    for n, d in [(3, 2), (5, 3), (7, 2), (4, 4)]:
        for i, rep in enumerate(enumerate_orbits(n, d)):
            assert rank_orbit(rep) == i
            assert unrank_orbit(n, d, i) == rep


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=5), st.data())
def test_unrank_in_range(n, d, data):
    i = data.draw(st.integers(min_value=0, max_value=orbit_count(n, d) - 1))
    rep = unrank_orbit(n, d, i)
    assert rank_orbit(rep) == i


def test_enumerate_with_bounds():
    full = list(enumerate_orbits(6, 3))
    assert full == list(enumerate_orbits(6, 3, 0, len(full)))
    assert full[10:25] == list(enumerate_orbits(6, 3, 10, 25))
    assert list(enumerate_orbits(6, 3, len(full))) == []


def test_superclass_array_matches_combinations():
    for n in range(1, 13):
        for d in range(1, 7):
            arr = superclass_array(n, d)
            assert arr.dtype == np.uint8
            assert arr.tolist() == [list(c) for c in combinations_with_replacement(range(n), d)]


def test_superclass_array_dtype_and_validation():
    assert superclass_array(256, 1).dtype == np.uint8
    wide = superclass_array(257, 2)
    assert wide.dtype == np.uint16
    assert wide.tolist() == [list(c) for c in combinations_with_replacement(range(257), 2)]
    with pytest.raises(ValueError):
        superclass_array(0, 2)
    with pytest.raises(ValueError):
        superclass_array(3, 0)


def test_superclass_array_first_below_is_prefix():
    for n in range(1, 13):
        for d in range(1, 7):
            full = superclass_array(n, d)
            for first_below in range(1, n + 1):
                part = superclass_array(n, d, first_below)
                assert part.dtype == full.dtype
                assert np.array_equal(part, full[full[:, 0] < first_below])
                assert np.array_equal(part, full[: len(part)])
    assert np.array_equal(superclass_array(5, 3, None), superclass_array(5, 3))
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            superclass_array(5, 3, bad)


def test_rotation_order():
    assert rotation_order(canonicalize((0,), 1)) == 1
    for rep in enumerate_orbits(12, 3):
        order = rotation_order(rep)
        assert order * orbit_sum(rep) % 12 == 0
        assert all(k * orbit_sum(rep) % 12 for k in range(1, order))
