import cmath
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symchar import evaluate
from symchar.errors import BudgetExceeded, DimensionMismatch, DimensionTooLarge
from symchar.evaluate import (
    DEDUPE_DECIMALS,
    DEFAULT_BUDGET,
    counts_value,
    dedupe_values,
    dot_counts,
    image,
    odometer_blocks,
    orbit_array,
    orbit_elements,
    permanent_oracle,
    roots_of_unity,
    supercharacter,
    union_image,
    values_match,
    values_on_block,
)
from symchar.orbits import canonicalize, enumerate_orbits, orbit_size, rotation_order, superclass_array


def e(t):
    return cmath.exp(2j * cmath.pi * t)


def reference_dot_counts(rep, y):
    """One orbit element at a time: the counts dot_counts must reproduce."""
    n = rep.n
    yr = [v % n for v in y]
    counts = [0] * n
    for x in orbit_elements(rep):
        counts[sum(xi * yi for xi, yi in zip(x, yr)) % n] += 1
    return counts


def reference_value(counts):
    """sum_t c_t e(t/n) one nonzero count at a time, in order of t."""
    table = roots_of_unity(len(counts))
    acc = 0j
    for t, c in enumerate(counts):
        if c:
            acc += c * table[t]
    return acc


def dot_counts_symmetrized(rep, y, max_d=6):
    """Counts of pi(x).y over all d! permutations pi (stabilizer included).

    Independent route to the same value: summing over the full group hits
    each orbit element |stab(x)| times, so these counts equal
    stabilizer_order(rep) * dot_counts(rep, y).
    """
    if rep.d > max_d:
        raise DimensionTooLarge(f"full-group sum over {rep.d}! permutations refused")
    n = rep.n
    counts = [0] * n
    for x in permutations(rep.entries):
        counts[sum(xi * yi for xi, yi in zip(x, y)) % n] += 1
    return counts


def test_dot_counts_by_hand():
    # X = orbit of (0, 1) in Z/3: {(0, 1), (1, 0)}; y = (1, 2)
    # dots: 0*1 + 1*2 = 2, 1*1 + 0*2 = 1
    counts = dot_counts(canonicalize((0, 1), 3), (1, 2))
    assert counts.dtype == np.int64 and counts.tolist() == [0, 1, 1]
    assert abs(counts_value(counts) - (e(1 / 3) + e(2 / 3))) < 1e-12
    assert abs(counts_value(counts) - (-1)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=9),
    st.sampled_from([1, 7, 30, 4_000_000]),
    st.data(),
)
def test_dot_counts_matches_reference(n, d, rows, cells, data):
    entry = st.integers(min_value=-3 * n, max_value=3 * n)
    rep = canonicalize([data.draw(entry) for _ in range(d)], n)
    ys = [[data.draw(entry) for _ in range(d)] for _ in range(rows)]
    expected = [reference_dot_counts(rep, y) for y in ys]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_BLOCK_CELLS", cells)  # small caps split the block
        block = dot_counts(rep, np.array(ys, dtype=np.int64).reshape(rows, d))
        singles = [dot_counts(rep, y) for y in ys]
    assert block.shape == (rows, n) and block.dtype == np.int64
    assert block.tolist() == expected
    assert [c.tolist() for c in singles] == expected
    values = counts_value(block)
    assert values.shape == (rows,)
    for row, z in zip(expected, values):
        assert repr(complex(z)) == repr(complex(reference_value(row)))


def test_dot_counts_temporaries_stay_under_the_cap(monkeypatch):
    seen = []
    bincount = np.bincount

    def spy(x, minlength=0):
        seen.append((x.size, minlength))
        return bincount(x, minlength=minlength)

    monkeypatch.setattr(evaluate, "_BLOCK_CELLS", 40)
    monkeypatch.setattr(np, "bincount", spy)
    rep = canonicalize((0, 1, 2), 11)  # 6 orbit elements, 11 residues
    ys = np.arange(3 * 50).reshape(50, 3)
    counts = dot_counts(rep, ys)
    monkeypatch.undo()
    assert counts.tolist() == [reference_dot_counts(rep, y) for y in ys.tolist()]
    assert len(seen) == 17  # 3 rows per block
    assert max(size for size, _ in seen) <= 40 and max(m for _, m in seen) <= 40


def test_dot_counts_shapes():
    rep = canonicalize((1, 2), 5)
    assert dot_counts(rep, np.empty((0, 2), dtype=np.int64)).shape == (0, 5)
    for bad in ([1], [[1, 2, 3]], 4, [[[1, 2]]]):
        with pytest.raises(DimensionMismatch):
            dot_counts(rep, bad)


@pytest.mark.parametrize(
    "n, y",
    [
        (5, [10**30, -(10**30) - 1]),
        (5, [2**63, 1]),
        (5, [2**63, -1]),
        (5, [2**64 - 1, 2]),
        (7, [[2**63, -1], [3, 2**64 - 1], [-(2**63) - 1, 4]]),
        (5, np.array([2**63, 2**64 - 1], dtype=np.uint64)),
        (300, np.array([[200, 255], [1, 0]], dtype=np.uint8)),
    ],
)
def test_dot_counts_entries_beyond_int64(n, y):
    # numpy holds these as object, uint64, uint8 or float64, not int64; counts must stay exact
    rep = canonicalize((1, 2), n)
    rows = [list(map(int, row)) for row in np.array(y, dtype=object).reshape(-1, 2)]
    want = [reference_dot_counts(rep, row) for row in rows]
    assert dot_counts(rep, y).reshape(-1, n).tolist() == want
    values = np.ravel(supercharacter(rep, y))
    assert [repr(complex(z)) for z in values] == [repr(complex(reference_value(c))) for c in want]


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
    assert full == (2 * plain).tolist()


def test_symmetrized_counts_cutoff():
    rep = canonicalize((0,) * 7, 3)
    with pytest.raises(DimensionTooLarge):
        dot_counts_symmetrized(rep, (0,) * 7)


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


def reference_values_on_block(rep, block):
    """The kernel before the periodic table: int64 dots mod n index the
    root table, summed over the orbit in one expression."""
    elems = orbit_array(rep)
    return roots_of_unity(rep.n)[(np.asarray(block, dtype=np.int64) @ elems.T) % rep.n].sum(axis=1)


def assert_kernel_bitwise(rep, block):
    got = values_on_block(rep, block)
    want = reference_values_on_block(rep, block)
    assert got.dtype == complex and got.shape == (len(block),)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=40),
    st.sampled_from([1, 7, 60, 65_536]),
    st.sampled_from([np.int64, np.uint8]),
    st.data(),
)
def test_values_on_block_matches_reference(n, d, rows, cells, dtype, data):
    entry = st.integers(min_value=0, max_value=n - 1)
    rep = canonicalize([data.draw(entry) for _ in range(d)], n)
    block = np.array([[data.draw(entry) for _ in range(d)] for _ in range(rows)], dtype=dtype).reshape(rows, d)
    with pytest.MonkeyPatch.context() as mp:
        # top = d(n-1)^2 >= cells takes the mod-n branch; small caps split the rows into blocks
        mp.setattr(evaluate, "_BLOCK_CELLS", cells)
        assert_kernel_bitwise(rep, block)


@pytest.mark.parametrize("cells", [1, 60, 65_536])
@pytest.mark.parametrize(
    "n, entries",
    [(1, (0,)), (1, (0, 0, 0)), (9, (4,)), (7, (0, 1, 3)), (5, (0, 1, 2, 4)), (6, (1, 1, 4, 5)), (3, (0, 1, 1, 2, 2))],
)
def test_values_on_block_full_group_and_superclasses(n, entries, cells):
    rep = canonicalize(entries, n)
    d = len(entries)
    full = np.concatenate(list(odometer_blocks(n, d, 50)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_BLOCK_CELLS", cells)
        assert_kernel_bitwise(rep, full)
        assert_kernel_bitwise(rep, superclass_array(n, d))
        assert_kernel_bitwise(rep, np.empty((0, d), dtype=np.int64))


def test_values_on_block_branches():
    # top = d(n-1)^2: (13, 6) indexes the periodic table, (400, 2) reduces mod n
    for n, entries in [(13, (0, 1, 3, 4, 6, 9)), (400, (1, 2)), (257, (0, 3, 256))]:
        rep = canonicalize(entries, n)
        ys = superclass_array(n, len(entries))
        assert_kernel_bitwise(rep, ys[:: max(1, len(ys) // 5000)])


def test_values_on_block_scratch_stays_block_sized():
    rep = canonicalize((0, 1, 3, 4, 6, 9), 13)  # 720 orbit elements
    ys = superclass_array(13, 6)  # 18,564 rows: 13.4M cells in 205 blocks
    orbit_array(rep)
    tracemalloc.start()
    try:
        out = values_on_block(rep, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result plus one block's scratch (about 2 MB), not 13.4M cells of it
    assert peak < out.nbytes + 4 * 2**20
    assert_kernel_bitwise(rep, ys[::37])


def full_sweep_image(rep):
    """Deduplicated values over every superclass: what image must reproduce."""
    return dedupe_values(values_on_block(rep, superclass_array(rep.n, rep.d).astype(np.int64)))


@st.composite
def _orbits(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    d = draw(st.integers(min_value=1, max_value=5))
    entries = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(d)]
    if draw(st.booleans()):
        entries[-1] -= sum(entries)  # [x] = 0, so L = 1
    return canonicalize(entries, n)


@settings(max_examples=150, deadline=None)
@given(_orbits(), st.sampled_from([7, 60, 4_000_000]))
@example(canonicalize((0, 1, 5), 6), 4_000_000)  # L = 1
@example(canonicalize((1, 1, 3), 12), 60)  # L = n
@example(canonicalize((0, 1, 3), 12), 7)  # L = 3
@example(canonicalize((0, 0, 0), 1), 4_000_000)  # n = 1
@example(canonicalize((3,), 8), 4_000_000)  # d = 1, L = 8
@example(canonicalize((4,), 8), 7)  # d = 1, L = 2
def test_image_matches_full_sweep(rep, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_BLOCK_CELLS", cells)  # small caps split the prefix into blocks
        values = image(rep).values
    assert repr(values) == repr(full_sweep_image(rep))


def test_image_sweeps_only_the_rotation_prefix(monkeypatch):
    rep = canonicalize((0, 1, 3), 12)  # [x] = 4, L = 3
    assert rotation_order(rep) == 3
    seen = []
    real = evaluate.values_on_block
    monkeypatch.setattr(evaluate, "values_on_block", lambda r, blk: seen.append(blk.copy()) or real(r, blk))
    image(rep)
    rows = np.concatenate(seen)
    full = superclass_array(12, 3)
    assert np.array_equal(rows, full[full[:, 0] < 3])
    # the budget still counts every superclass
    with pytest.raises(BudgetExceeded) as info:
        image(rep, budget=len(full) - 1)
    assert info.value.required == len(full)


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


# +-0.0, values 0.5e-9 apart, values on (or a hair off) rounding boundaries,
# either side of the 2^20 cut below which neighbours are found along a line,
# |z| >= 2^25 where float spacing exceeds 1e-9, and nan/inf
_coords = st.sampled_from(
    [0.0, -0.0, 5e-10, -5e-10, 1e-9, 1.5e-9, 2.5e-9, 0.1234567895, 0.12345678949999999, -0.1234567895, 1.0, 1.0000000005, -1.0000000005]
    + [2.0**20, np.nextafter(2.0**20, 0), 2.0**20 - 5e-10, -(2.0**20) + 1e-9, 2.0**25, np.nextafter(2.0**25, np.inf), -(2.0**25), 1e300]
    + [float("nan"), float("inf"), -float("inf")]
) | st.floats(min_value=-2, max_value=2, allow_nan=False).map(lambda v: round(v, 10))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, _coords, _coords), max_size=60), st.data())
def test_dedupe_values_matches_reference(vals, data):
    # exact repeats of earlier values, values 1e-9 off in both coordinates
    # and conjugates, each placed anywhere in the list
    step = st.sampled_from([-1e-9, 0.0, 1e-9])
    for _ in range(data.draw(st.integers(0, 10))):
        if vals:
            z = data.draw(st.sampled_from(vals))
            twin = data.draw(
                st.sampled_from([z, z.conjugate(), complex(z.real + data.draw(step), z.imag + data.draw(step))])
            )
            vals.insert(data.draw(st.integers(0, len(vals))), twin)
    expected = repr(reference_dedupe(vals))
    assert repr(dedupe_values(vals)) == expected
    assert repr(dedupe_values(np.array(vals, dtype=complex))) == expected
    assert repr(dedupe_values(iter(vals))) == expected


def test_dedupe_values_rounds_only_near_values(monkeypatch):
    rounded = []
    real = evaluate._round_coord
    monkeypatch.setattr(evaluate, "_round_coord", lambda v: rounded.append(v) or real(v))
    spread = np.arange(1, 2001) * np.exp(0.7j * np.arange(2000))  # no two values near each other
    assert dedupe_values(spread) == tuple(spread.tolist())
    assert rounded == []
    crowded = np.concatenate([spread, [spread[5] + 1e-10, spread[7]]])
    assert dedupe_values(crowded) == tuple(spread.tolist())
    assert len(rounded) == 2 * 3  # spread[5], its neighbour and spread[7]; its repeat is dropped whole


def test_dedupe_values_large_coordinates():
    # at 2^25 one float step of p = re + 0.618 im is 7.45e-9: the two values
    # share a key, but their p round to neighbouring floats
    pair = [complex(2**25, 6.0e-9), complex(2**25, 6.4e-9)]
    assert dedupe_values(pair) == reference_dedupe(pair) == (pair[0],)
    spread = [complex(2**25, 0.1), complex(2**25, 0.2), complex(float("inf"), 1), complex(float("inf"), 1)]
    assert dedupe_values(spread) == reference_dedupe(spread) == tuple(spread[:3])


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
