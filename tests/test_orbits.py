from itertools import combinations_with_replacement, islice, product
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symchar import evaluate, identities, orbits, table
from symchar.evaluate import dot_counts, permanent_oracle, values_on_block
from symchar.orbits import (
    OrbitRep,
    canonicalize,
    distinct_permutations,
    enumerate_orbits,
    negate_orbit,
    orbit_arrays,
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
    unit_class_firsts,
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


@pytest.mark.parametrize(
    "n, entries",
    [
        (3, (0.5, 1.5)),  # int64 casts would truncate these to (0, 1)
        (3, (0, 1.0)),
        (3, (float("nan"),)),
        (3, (Fraction(1, 2),)),
        (3, (Fraction(1, 1),)),
        (3.0, (0, 1)),
    ],
)
def test_rep_refuses_non_integers(n, entries):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        OrbitRep(n, entries)


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


def test_orbit_arrays_match_each_orbit():
    # one grouping pass gives every orbit's distinct_permutations, row for
    # row, and its orbit_size
    for n in range(1, 13):
        for d in range(1, 6):
            points, sizes = orbit_arrays(n, d)
            reps = list(enumerate_orbits(n, d))
            assert points.dtype == np.int64 and sizes.dtype == np.int64
            assert sizes.tolist() == [orbit_size(rep) for rep in reps]
            want = [np.array(list(distinct_permutations(rep)), dtype=np.int64) for rep in reps]
            assert np.array_equal(points, np.concatenate(want))


def test_unit_class_firsts_match_canonicalize_oracle():
    # X is first when no earlier orbit of the enumeration is some uX
    for n in range(1, 13):
        units = [u for u in range(n) if gcd(u, n) == 1]
        for d in range(1, 6):
            seen, want = set(), []
            for rep in enumerate_orbits(n, d):
                want.append(rep not in seen)
                seen.update(canonicalize([u * v for v in rep.entries], n) for u in units)
            assert unit_class_firsts(n, d).tolist() == want


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


def least_translates_reference(rows, n, step):
    """The rows that equal the least of their translates y + c*step*1 mod n,
    re-sorted, one translate at a time: a row is dropped when a translate
    is smaller at the first entry where the two differ.  Returned as an
    int64 array."""
    y = np.asarray(rows, dtype=np.int64)
    least = np.ones(len(y), dtype=bool)
    for c in range(1, n // step):
        t = np.sort((y + c * step) % n, axis=1)
        differ = t != y
        at = differ.argmax(axis=1)[:, None]
        least &= ~differ.any(axis=1) | (np.take_along_axis(y, at, 1) < np.take_along_axis(t, at, 1))[:, 0]
    return y[least]


def prefix_rows(n, d, step):
    """Every superclass row with first entry < step, unpruned."""
    full = superclass_array(n, d)
    return full[full[:, 0] < step]


@lru_cache(maxsize=None)
def least_reference(n, d, step):
    """What superclass_array(n, d, step) must hold, as an int64 array."""
    return least_translates_reference(prefix_rows(n, d, step), n, step)


def test_superclass_array_translate_step_gives_the_candidates():
    # the private builder makes the candidates; the public array keeps
    # the least translates of the whole prefix
    for n in range(1, 13):
        for d in range(1, 7):
            full = superclass_array(n, d)
            for step in divisors(n):
                candidates = orbits._candidates(n, d, step)
                assert candidates.tolist() == candidates_reference(n, d, step), (n, d, step)
                part = superclass_array(n, d, step)
                assert part.dtype == candidates.dtype == full.dtype
                assert np.array_equal(part, least_reference(n, d, step)), (n, d, step)
            assert np.array_equal(superclass_array(n, d, n), full)  # L = n: every row
    assert np.array_equal(superclass_array(5, 3, None), superclass_array(5, 3))
    for bad in (0, 6, -1, 2):
        with pytest.raises(ValueError):
            superclass_array(5, 3, bad)
    with pytest.raises(ValueError):
        superclass_array(12, 3, 5)


def assert_blocks(chunks, rows, dtype, expected):
    assert all(1 <= len(c) <= rows and c.dtype == dtype for c in chunks)
    assert np.concatenate(chunks).tolist() == list(expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.data())
def test_superclass_chunks_are_the_candidates_in_blocks(n, d, data):
    step = data.draw(st.sampled_from(divisors(n)))
    rows = data.draw(st.sampled_from([1, 2, 3, 7, 40]) | st.integers(1, 2000))
    part = superclass_array(n, d, step)
    chunks = list(superclass_chunks(n, d, step, rows))
    assert_blocks(chunks, rows, part.dtype, least_reference(n, d, step).tolist())
    candidates = list(orbits._candidate_chunks(n, d, step, rows))
    assert_blocks(candidates, rows, part.dtype, candidates_reference(n, d, step))
    if orbit_count(n, d) - orbit_count(n - step, d) <= rows:  # the rows with first entry < step
        assert len(chunks) == len(candidates) == 1


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
    assert_blocks(list(superclass_chunks(300, d, step, rows)), rows, np.uint16, least_reference(300, d, step).tolist())
    candidates = list(orbits._candidate_chunks(300, d, step, rows))
    assert_blocks(candidates, rows, np.uint16, candidates_reference(300, d, step))


def test_superclass_chunks_of_one_entry():
    assert [c.tolist() for c in superclass_chunks(5, 1, 1, 1)] == [[[0]]]
    assert [c.tolist() for c in superclass_chunks(5, 1, 5, 2)] == [[[0], [1]], [[2], [3]], [[4]]]


def test_rotation_order():
    assert rotation_order(canonicalize((0,), 1)) == 1
    for rep in enumerate_orbits(12, 3):
        order = rotation_order(rep)
        assert order * orbit_sum(rep) % 12 == 0
        assert all(k * orbit_sum(rep) % 12 for k in range(1, order))


def test_block_rows_is_each_pass_formula_before_it():
    cells = orbits._BLOCK_CELLS
    for w in range(1, 2**17 + 1):
        # each array pass's own formula before block_rows, at a block width w as that pass measured it
        old = [
            max(1, cells // max(w, 1)),  # dot_counts: max(len(elems), n)
            max(1, cells // max([w])),  # permanent_oracle: max(cols.size for _, cols in layers)
            max(1, cells // w),  # root_sums: r
            max(1, cells // max((1, w))),  # _least_translates: max(w.shape)
            max(1, cells // (w * 1)),  # _reflection_shifts: n * d
        ]
        assert old == [orbits.block_rows(w)] * 5, w
    for N in range(1, 3001):  # build_unitary's columns per block
        assert max(16, orbits.block_rows(N) // 16 * 16) == max(16, cells // N // 16 * 16), N


@pytest.mark.parametrize("N", [1, 17, 300, 1001])
def test_unitary_column_blocks_follow_block_rows(N, monkeypatch):
    step = max(16, orbits._BLOCK_CELLS // N // 16 * 16)  # the column step before block_rows
    edges = list(range(step, N, step))
    if edges and edges[-1] == N - 1:
        edges.pop()
    widths = []
    conj = np.conj
    monkeypatch.setattr(np, "conj", lambda a: widths.append(len(a)) or conj(a))  # once per column block
    uni = table.build_unitary(table.SuperTable(1, 1, (), np.ones(N, dtype=np.int64), np.eye(N, dtype=complex)))
    monkeypatch.undo()
    assert widths == np.diff([0] + edges + [N]).tolist()
    assert (uni.residual_symmetry, uni.residual_unitary) == (0.0, 0.0)


def test_only_orbits_binds_the_block_size():
    for module in (evaluate, identities, table):
        assert not hasattr(module, "_BLOCK_CELLS"), module.__name__


def _blocks_seen(name, rows_of, call):
    """call(), and the rows of each block it hands to np.<name>, read from
    that call's arguments by rows_of (None skips the call)."""
    seen = []
    real = getattr(np, name)

    def spy(*args, **kwargs):
        rows = rows_of(*args, **kwargs)
        if rows is not None:
            seen.append(rows)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, name, spy)
        out = call()
    return out, seen


def _block_sizes(total, width):
    step = orbits.block_rows(width)
    return [min(step, total - lo) for lo in range(0, total, step)]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("cells", [1, 7, 60])
def test_patching_orbits_alone_splits_every_pass(cells):
    rng = np.random.default_rng(5)
    rep = canonicalize((0, 1, 2), 11)  # 6 orbit elements, 11 residues
    ys = rng.integers(0, 11, (50, 3))
    rep5 = canonicalize((0, 1, 1, 3, 5), 7)
    ys5 = rng.integers(0, 7, (40, 5))
    kernel_cases = [canonicalize(e, n) for n, e in [(1, (0, 0, 0)), (2, (0, 1, 1)), (3, (0, 1, 2)), (13, (0, 1, 3))]]
    # each full group repeated out to 200 rows, enough for blocks of 60 cells to split
    fulls = [np.resize(np.array(list(product(range(k.n), repeat=k.d))), (200, k.d)) for k in kernel_cases]
    reps = superclass_array(7, 4).astype(np.int64)
    passes = [  # call, the numpy function it calls once per block, rows of that block, rows in all, row width
        (
            lambda: dot_counts(rep, ys),
            "bincount",
            lambda x, minlength: minlength // 11,
            len(ys),
            max(orbit_size(rep), 11),
        ),
        (
            lambda: permanent_oracle(rep5, ys5),
            "ones",
            lambda shape, dtype: shape[0],
            len(ys5),
            max(cols.size for _, cols in evaluate._column_set_layers(5)),
        ),
        (
            lambda: superclass_array(12, 3, 4),
            "empty",
            lambda shape, **kw: None if kw or isinstance(shape, int) else shape[1],  # z = (y mod L, y, 1)
            len(orbits._candidates(12, 3, 4)),
            max(orbits._translate_key_weights(12, 3).shape),
        ),
        (
            lambda: identities._reflection_shifts(reps, 7),
            "sort",
            lambda a, axis: len(a),
            len(reps),
            7 * 4,
        ),
    ]
    branches = set()
    for k, full in zip(kernel_cases, fulls):
        periodic = k.d * (k.n - 1) ** 2 < cells  # the branch root_sums takes
        branches.add(periodic)
        dtype = np.float64 if periodic else np.int64
        passes.append(
            (
                lambda k=k, full=full: values_on_block(k, full),
                "matmul",
                lambda a, b, out, dtype=dtype: len(a) if a.dtype == dtype else -1,
                len(full),
                orbit_size(k),
            )
        )
    assert branches == {True, False}  # both root-sum branches
    for call, name, rows_of, total, width in passes:
        whole = call()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orbits, "_BLOCK_CELLS", cells)
            got, seen = _blocks_seen(name, rows_of, call)
            want = _block_sizes(total, width)
        assert len(want) > 1 and seen == want, name
        assert _same_bits(got, whole), name
