from itertools import combinations_with_replacement, islice, product
from functools import lru_cache
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
    point_array,
    residue_multiplicities,
    rotation_order,
    shift_orbit,
    stabilizer_order,
    superclass_array,
    superclass_chunks,
    unrank_orbit,
)


def test_canonicalize_reduces_and_sorts():
    assert canonicalize((-1, 1), 5).entries == (1, 4)
    assert canonicalize((7, 3, 12), 5).entries == (2, 2, 3)
    assert canonicalize((0,), 1).entries == (0,)


def test_canonicalize_makes_python_int_entries():
    rep = canonicalize(np.array([3, 1]), np.int64(5))
    assert rep == OrbitRep(5, (1, 3))
    assert all(type(v) is int for v in (rep.n, *rep.entries))
    with pytest.raises(TypeError):
        canonicalize([1.5], 3)
    with pytest.raises(TypeError):
        canonicalize([1], 3.0)


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
            assert unrank_orbit(n, d, i) == rep


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=5), st.data())
def test_unrank_in_range(n, d, data):
    i = data.draw(st.integers(min_value=0, max_value=orbit_count(n, d) - 1))
    assert unrank_orbit(n, d, i).entries == next(islice(combinations_with_replacement(range(n), d), i, None))


def test_enumerate_matches_combinations():
    for n in range(1, 8):
        for d in range(1, 5):
            want = list(combinations_with_replacement(range(n), d))
            assert [rep.entries for rep in enumerate_orbits(n, d)] == want
            assert all(rep.n == n for rep in enumerate_orbits(n, d))
    with pytest.raises(ValueError):
        enumerate_orbits(3, 0)


def test_point_array_is_the_odometer():
    for n, d in [(1, 1), (1, 3), (2, 3), (3, 2), (7, 3), (256, 2), (257, 2)]:
        arr = point_array(n, d)
        assert arr.dtype == np.min_scalar_type(n - 1) and arr.shape == (n**d, d)
        assert arr.tolist() == [list(p) for p in product(range(n), repeat=d)]


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


def divisors(n):
    return [s for s in range(1, n + 1) if n % s == 0]


@lru_cache(maxsize=None)
def candidates_reference(n, d, step):
    """The sorted d-tuples over [0, n) with first entry < step whose every
    entry y_t, t >= 1, has y_t mod step >= y_0 and, when t >= 2 and
    y_(t-1) = y_0 mod step, y_t - y_(t-1) >= y_1 - y_0; in
    lexicographic order."""
    return [
        list(y)
        for y in combinations_with_replacement(range(n), d)
        if y[0] < step
        and all(
            y[t] % step >= y[0] and (t < 2 or (y[t - 1] - y[0]) % step or y[t] - y[t - 1] >= y[1] - y[0])
            for t in range(1, d)
        )
    ]


def test_superclass_array_translate_step_gives_the_candidates():
    for n in range(1, 13):
        for d in range(1, 7):
            full = superclass_array(n, d)
            for step in divisors(n):
                part = superclass_array(n, d, step)
                assert part.dtype == full.dtype
                assert part.tolist() == candidates_reference(n, d, step), (n, d, step)
            assert np.array_equal(superclass_array(n, d, n), full)  # L = n: every row
    assert np.array_equal(superclass_array(5, 3, None), superclass_array(5, 3))
    for bad in (0, 6, -1, 2):
        with pytest.raises(ValueError):
            superclass_array(5, 3, bad)
    with pytest.raises(ValueError):
        superclass_array(12, 3, 5)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.data())
def test_superclass_chunks_are_the_candidates_in_blocks(n, d, data):
    step = data.draw(st.sampled_from(divisors(n)))
    rows = data.draw(st.sampled_from([1, 2, 3, 7, 40]) | st.integers(1, 2000))
    part = superclass_array(n, d, step)
    chunks = list(superclass_chunks(n, d, step, rows))
    assert all(1 <= len(c) <= rows and c.dtype == part.dtype for c in chunks)
    assert np.concatenate(chunks).tolist() == candidates_reference(n, d, step)
    if orbit_count(n, d) - orbit_count(n - step, d) <= rows:  # the rows with first entry < step
        assert len(chunks) == 1


def test_superclass_chunks_wide_entries_and_validation():
    # tails are built in the dtype of n - 1 before the offset is added
    full = superclass_array(300, 3)
    chunks = list(superclass_chunks(300, 3, 300, 5000))
    assert chunks[0].dtype == np.uint16 and np.array_equal(np.concatenate(chunks), full)
    for step, rows in [(5, 0), (0, 10), (6, 10), (2, 10)]:
        with pytest.raises(ValueError):
            next(superclass_chunks(5, 3, step, rows))


@pytest.mark.parametrize("rows", [1, 7, 299])
@pytest.mark.parametrize("d, step", [(2, 300), (3, 2)])
def test_superclass_chunks_narrower_than_one_row_extension(d, step, rows):
    # rows < n: a row ending in a small entry extends to more than `rows`
    # rows, which are sliced; entries are uint16
    chunks = list(superclass_chunks(300, d, step, rows))
    assert all(1 <= len(c) <= rows and c.dtype == np.uint16 for c in chunks)
    assert np.concatenate(chunks).tolist() == candidates_reference(300, d, step)


def test_superclass_chunks_of_one_entry():
    assert [c.tolist() for c in superclass_chunks(5, 1, 1, 1)] == [[[0]]]
    assert [c.tolist() for c in superclass_chunks(5, 1, 5, 2)] == [[[0], [1]], [[2], [3]], [[4]]]


def test_rotation_order():
    assert rotation_order(canonicalize((0,), 1)) == 1
    for rep in enumerate_orbits(12, 3):
        order = rotation_order(rep)
        assert order * orbit_sum(rep) % 12 == 0
        assert all(k * orbit_sum(rep) % 12 for k in range(1, order))
