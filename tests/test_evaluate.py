import cmath
import math
import tracemalloc
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symchar import evaluate, orbits
from symchar.asymptotic import ExponentMatrix, sample_torus_map
from symchar.errors import BudgetExceeded, DimensionMismatch, DimensionTooLarge
from symchar.evaluate import (
    DEDUPE_DECIMALS,
    DEFAULT_BUDGET,
    TOL,
    cloud_difference,
    counts_value,
    dedupe_values,
    dot_counts,
    image,
    orbit_sweeps,
    permanent_oracle,
    roots_of_unity,
    rotation_witness,
    supercharacter,
    union_image,
    values_on_block,
)
from symchar.identities import sweep_dihedral
from symchar.orbits import (
    canonicalize,
    distinct_permutations,
    enumerate_orbits,
    orbit_array,
    orbit_count,
    orbit_size,
    point_array,
    rotation_order,
    stabilizer_order,
    superclass_array,
    superclass_chunks,
)
from test_orbits import divisors, least_translates_reference, prefix_rows


def e(t):
    return cmath.exp(2j * cmath.pi * t)


def reference_dot_counts(rep, y):
    """One orbit element at a time: the counts dot_counts must reproduce."""
    n = rep.n
    yr = [v % n for v in y]
    counts = [0] * n
    for x in distinct_permutations(rep):
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
        mp.setattr(orbits, "_BLOCK_CELLS", cells)  # small caps split the block
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

    monkeypatch.setattr(orbits, "_BLOCK_CELLS", 40)
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


@pytest.mark.parametrize("y", [[1.5, 2], [math.nan, 1], [math.inf, 1], np.array([[1.0, 2.0], [0.0, 1.0]])])
def test_point_entries_must_be_integers(y):
    rep = canonicalize((0, 1), 3)
    for evaluator in (dot_counts, supercharacter, permanent_oracle):
        with pytest.raises(ValueError, match="must be integers"):
            evaluator(rep, y)


def test_supercharacter_at_zero_is_orbit_size():
    for n, d in [(3, 2), (5, 3), (4, 4)]:
        for rep in enumerate_orbits(n, d):
            assert abs(supercharacter(rep, (0,) * d) - orbit_size(rep)) < 1e-9


@pytest.mark.parametrize("n, d, samples", [(7, 4, 10), (5, 2, 3), (3, 6, 2), (13, 3, 1)])
def test_supercharacters_is_one_call_per_orbit(n, d, samples):
    rng = np.random.default_rng(n * d)
    reps = list(enumerate_orbits(n, d))
    ys = rng.integers(0, n, (len(reps), samples, d))
    want = np.array([supercharacter(rep, y) for rep, y in zip(reps, ys)])
    for lo, hi in [(0, len(reps)), (3, 4), (1, 9)]:
        got = evaluate.supercharacters(reps[lo:hi], ys[lo:hi].tolist())
        assert got.shape == (hi - lo, samples) and got.tobytes() == want[lo:hi].tobytes()


def test_permanent_oracle_two_by_two():
    # X = orbit of (1, 2) in Z/3, y = (1, 1):
    # sigma = e(1/3 + 2/3) + e(2/3 + 1/3) = 2, permanent route must agree
    rep = canonicalize((1, 2), 3)
    val = permanent_oracle(rep, (1, 1))
    assert abs(val - 2) < 1e-12
    assert abs(val - supercharacter(rep, (1, 1))) < 1e-12


def gray_code_permanent(rep, y):
    """Ryser's formula one column set at a time, in Gray-code order, exactly.

    M[j][k] is the monomial z^(x_j y_k mod n) of Z[z]/(z^n - 1).  An element
    sum_t c_t z^t with every c_t in [0, 2^64) is held as the integer
    sum_t c_t 2^(64 t), and reducing a product modulo 2^(64 n) - 1 wraps
    z^n to 1.  The coefficients of a product of d row sums add up to |S|^d,
    and the terms of each sign are summed apart, so no coefficient
    overflows; e(t/n) is applied to their difference only.
    """
    n, d = rep.n, rep.d
    bits = 64
    wrap = (1 << (bits * n)) - 1
    mono = [[1 << (bits * ((xj * yk) % n)) for yk in y] for xj in rep.entries]
    rowsum = [0] * d
    sums = {1: 0, -1: 0}  # by the sign (-1)^(d - |S|) of the term
    gray = 0
    parity = (-1) ** d  # (-1)^(d - |S|) for the current set S encoded by gray
    for step in range(1, 1 << d):
        new_gray = step ^ (step >> 1)
        changed = new_gray ^ gray
        col = changed.bit_length() - 1
        sign = 1 if new_gray & changed else -1
        for j in range(d):
            rowsum[j] += sign * mono[j][col]
        parity = -parity
        gray = new_gray
        term = 1
        for r in rowsum:
            term = term * r % wrap
        sums[parity] += term
    mask = (1 << bits) - 1
    coeffs = [((sums[1] >> (bits * t)) & mask) - ((sums[-1] >> (bits * t)) & mask) for t in range(n)]
    table = roots_of_unity(n)
    return complex(sum(c * table[t] for t, c in enumerate(coeffs))) / stabilizer_order(rep)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 10), st.integers(0, 12), st.data())
def test_permanent_oracle_matches_gray_code_loop(n, d, rows, data):
    entries = tuple(sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))))
    rep = canonicalize(entries, n)
    ys = data.draw(st.lists(st.lists(st.integers(-50, 50), min_size=d, max_size=d), min_size=rows, max_size=rows))
    want = [gray_code_permanent(rep, y) for y in ys]
    block = permanent_oracle(rep, np.array(ys, dtype=np.int64).reshape(rows, d))
    assert block.shape == (rows,)
    assert all(abs(a - b) <= 1e-12 * max(1, orbit_size(rep)) for a, b in zip(block, want))
    for y, w in zip(ys, want):
        one = permanent_oracle(rep, y)
        assert isinstance(one, complex) and abs(one - w) <= 1e-12 * max(1, orbit_size(rep))


def test_permanent_oracle_blocks_and_big_entries(monkeypatch):
    rep = canonicalize((0, 1, 1, 3, 5), 7)
    ys = np.random.default_rng(3).integers(0, 7, (40, 5))
    whole = permanent_oracle(rep, ys)
    monkeypatch.setattr(orbits, "_BLOCK_CELLS", 1)  # one point per chunk
    assert permanent_oracle(rep, ys).tobytes() == whole.tobytes()
    big = [2**63, 2**70 + 1, -(2**64), 3, 4]
    assert abs(permanent_oracle(rep, big) - gray_code_permanent(rep, [v % 7 for v in big])) <= 1e-12
    with pytest.raises(DimensionMismatch):
        permanent_oracle(rep, [1, 2, 3])


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
    expect = [e(k / 5) for k in range(5)]
    assert cloud_difference(image(canonicalize((1,), 5)), expect) == ([], [])


def test_image_full_group_agrees_with_reps():
    rep = canonicalize((1, 2), 3)
    assert cloud_difference(image(rep), image(rep, full_group=True)) == ([], [])


@pytest.mark.parametrize("rows", [1, 7, 100])
@pytest.mark.parametrize("n, entries", [(5, (0, 1, 1, 3)), (7, (0, 0, 2)), (4, (1, 1, 1, 3))])
def test_full_group_image_in_blocks_is_one_sweep(n, entries, rows):
    # n^d points, above every block size, through _dedupe_chunks in
    # consecutive blocks: same values, same order, same bits
    rep = canonicalize(entries, n)
    whole = image(rep, full_group=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_CHUNK_ROWS", rows)
        blocked = image(rep, full_group=True)
    assert np.array(blocked).tobytes() == np.array(whole).tobytes()
    assert repr(whole.tolist()) == repr(dedupe_values(values_on_block(rep, point_array(n, len(entries)))).tolist())


def test_image_zero_orbit():
    assert cloud_difference(image(canonicalize((0, 0), 4)), [1.0]) == ([], [])


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
        mp.setattr(orbits, "_BLOCK_CELLS", cells)
        assert_kernel_bitwise(rep, block)


@pytest.mark.parametrize("cells", [1, 60, 65_536])
@pytest.mark.parametrize(
    "n, entries",
    [(1, (0,)), (1, (0, 0, 0)), (9, (4,)), (7, (0, 1, 3)), (5, (0, 1, 2, 4)), (6, (1, 1, 4, 5)), (3, (0, 1, 1, 2, 2))],
)
def test_values_on_block_full_group_and_superclasses(n, entries, cells):
    rep = canonicalize(entries, n)
    d = len(entries)
    full = np.array(list(product(range(n), repeat=d)), dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbits, "_BLOCK_CELLS", cells)
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


@pytest.mark.parametrize("r", range(1, evaluate._PAIRWISE_TERMS + 1))
def test_pairwise_add_is_numpy_row_sum(r):
    # if numpy changes the order of its pairwise sum, this fails by name
    rng = np.random.default_rng(r)
    parts = rng.standard_normal((2, 60, r)) * 10.0 ** rng.integers(-12, 12, (2, 60, r))
    parts[rng.random(parts.shape) < 0.15] = 0.0
    parts[rng.random(parts.shape) < 0.15] = -0.0
    terms = np.empty((60, r), dtype=complex)
    terms.real, terms.imag = parts
    acc = np.empty((min(r, 4) + 1, 60), dtype=complex)
    out = np.empty(60, dtype=complex)
    evaluate._pairwise_add(r, lambda p, into: np.copyto(into, terms[:, p]), acc, out)
    assert out.tobytes() == terms.sum(axis=-1).tobytes()


@pytest.mark.parametrize("cells, rows", [(60, 100), (400, 30)])  # blocks split the rows, or the stack
@pytest.mark.parametrize("n, d", [(5, 3), (30, 2)])  # top = d(n-1)^2 below both caps, above both
@pytest.mark.parametrize(
    "k, r", [(k, r) for k in range(1, 6) for r in (1, 2, 3, 4, 7, 65)] + [(r + 1, r) for r in (5, 9, 24, 64)]
)
def test_stacked_root_sums_is_one_call_per_orbit(k, r, n, d, cells, rows, monkeypatch):
    rng = np.random.default_rng(k * 1000 + r)
    stack = rng.integers(0, n, (k, r, d))
    block = rng.integers(0, n, (rows, d)).astype(np.uint8)
    monkeypatch.setattr(orbits, "_BLOCK_CELLS", cells)
    stacked = []
    real = evaluate._stacked_sums
    monkeypatch.setattr(evaluate, "_stacked_sums", lambda *args: stacked.append(args[1].shape) or real(*args))
    got = evaluate.root_sums(n, stack, block)
    want = np.array([evaluate.root_sums(n, elems, block) for elems in stack])
    assert got.shape == (k, rows) and got.tobytes() == want.tobytes()
    # only a stack of more orbits than terms, at most 64 of them, takes the term-by-term loop
    assert stacked == ([(k, r, d)] if k > r <= evaluate._PAIRWISE_TERMS else [])


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
        mp.setattr(orbits, "_BLOCK_CELLS", cells)  # small caps split the kernel's blocks and the filter's slices
        values = image(rep)
    assert repr(values.tolist()) == repr(full_sweep_image(rep).tolist())


def union_reference(n, d):
    """dedupe_values over every orbit's full sweep, concatenated in
    enumeration order: what union_image must reproduce."""
    return dedupe_values(np.concatenate([values_on_block(rep, superclass_array(n, d)) for rep in enumerate_orbits(n, d)]))


@settings(max_examples=100, deadline=None)
@given(_orbits(), st.sampled_from([1, 2, 5, 40]))
@example(canonicalize((0, 1, 5), 6), 3)  # L = 1
@example(canonicalize((1, 1, 3), 12), 7)  # L = n
@example(canonicalize((3,), 8), 2)  # d = 1, L = 8
@example(canonicalize((4,), 8), 1)  # d = 1, L = 2
@example(canonicalize((2, 5), 11), 4)  # d = 2, L = n
@example(canonicalize((3, 5), 8), 5)  # d = 2, L = 1
def test_multi_chunk_image_matches_full_sweep(rep, rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_CHUNK_ROWS", rows)  # many chunks, and compactions from 2 rows up
        values = image(rep)
    assert repr(values.tolist()) == repr(full_sweep_image(rep).tolist())


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("n, d", [(1, 3), (5, 1), (6, 2), (4, 3), (3, 4)])
def test_multi_chunk_union_image_matches_reference(n, d, rows, monkeypatch):
    expected = repr(union_reference(n, d).tolist())
    assert repr(union_image(n, d).tolist()) == expected
    monkeypatch.setattr(evaluate, "_CHUNK_ROWS", rows)
    assert repr(union_image(n, d).tolist()) == expected


def test_union_image_of_unit_class_firsts_is_the_every_orbit_union():
    # uX has X's image, so sweeping one orbit per unit class keeps the
    # values, and their order, of sweeping every orbit
    for n in range(1, 13):
        for d in range(1, 5):
            if orbit_count(n, d) ** 2 <= DEFAULT_BUDGET:
                every = dedupe_values(np.concatenate([values_on_block(*sweep) for sweep in orbit_sweeps(n, d)]))
                assert repr(union_image(n, d).tolist()) == repr(every.tolist()), (n, d)


@pytest.mark.parametrize(
    "sweep", [union_image, lambda n, d: list(sweep_dihedral(n, d))], ids=["union_image", "sweep_dihedral"]
)
def test_union_image_builds_the_superclasses_once(sweep, monkeypatch):
    built = []
    real = evaluate.superclass_array
    monkeypatch.setattr(evaluate, "superclass_array", lambda *a: built.append(a) or real(*a))
    sweep(5, 3)
    # one build per rotation order, the first at [x] = 0 (L = 1), not one per orbit
    assert built == [(5, 3, 1), (5, 3, 5)]


@pytest.mark.parametrize("n, d", [(1, 3), (5, 1), (6, 2), (4, 3), (3, 4), (12, 3)])
def test_orbit_sweeps_give_each_image(n, d):
    # L = 1, 1 < L < n, L = n and d = 1 among them; (12, 3) has six orders
    sweeps = list(orbit_sweeps(n, d))
    assert [rep for rep, _ in sweeps] == list(enumerate_orbits(n, d))
    for rep, rows in sweeps:
        assert repr(dedupe_values(values_on_block(rep, rows)).tolist()) == repr(image(rep).tolist())


def test_multi_chunk_image_peak_memory():
    # (1,1,1,1,1,25) mod 30 has L = 1: 278,256 prefix rows, of which 74,095
    # are built as candidates, the 54,132 least translates are swept, and
    # 252 values kept.  In chunks of 4,096 candidate rows the sweep holds at
    # most three chunks' values and their dedupe scratch, far below the
    # 4.5 MB of the prefix's values.
    rep = canonicalize((1, 1, 1, 1, 1, 25), 30)
    assert rotation_order(rep) == 1
    rows = orbit_count(30, 6) - orbit_count(29, 6)
    orbit_array(rep)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_CHUNK_ROWS", 1 << 12)
        tracemalloc.start()
        try:
            values = image(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(values) == 252
    assert peak < rows * np.dtype(complex).itemsize / 2


def test_image_sweeps_only_least_translates(monkeypatch):
    seen = []
    real = evaluate.values_on_block
    monkeypatch.setattr(evaluate, "values_on_block", lambda r, blk: seen.append(blk.copy()) or real(r, blk))
    full = superclass_array(12, 3)
    rep = canonicalize((0, 1, 3), 12)  # [x] = 4, L = 3
    assert rotation_order(rep) == 3
    image(rep)
    assert np.array_equal(np.concatenate(seen), least_translates_reference(full, 12, 3))
    seen.clear()
    image(canonicalize((1, 1, 3), 12))  # L = n: every superclass
    assert np.array_equal(np.concatenate(seen), full)
    # the budget still counts every superclass
    with pytest.raises(BudgetExceeded) as info:
        image(rep, budget=len(full) - 1)
    assert info.value.required == len(full)


def test_least_translates_matches_brute_force():
    for n in range(1, 13):
        for d in range(1, 6):
            for step in divisors(n):
                rows = prefix_rows(n, d, step)
                got = orbits._least_translates(rows, n, step)
                assert got.dtype == rows.dtype
                assert np.array_equal(got, least_translates_reference(rows, n, step)), (n, d, step)


def test_least_translates_of_the_candidates_is_that_of_the_prefix():
    # orbits._candidates(n, d, step) prunes by two necessary rules only; the
    # filter must keep from it exactly the rows it keeps of the whole prefix
    for n in range(1, 31):
        for d in range(1, 6):
            for step in divisors(n):
                got = orbits._least_translates(orbits._candidates(n, d, step), n, step)
                assert np.array_equal(got, least_translates_reference(prefix_rows(n, d, step), n, step)), (n, d, step)


@pytest.mark.parametrize("d, step, every", [(2, 1, 1), (2, 4, 1), (2, 150, 1), (3, 1, 37), (3, 2, 97)])
def test_least_translates_of_uint16_rows(d, step, every):
    rows = orbits._candidates(300, d, step)[::every]
    assert rows.dtype == np.uint16
    assert np.array_equal(orbits._least_translates(rows, 300, step), least_translates_reference(rows, 300, step))
    if every == 1:
        expected = least_translates_reference(prefix_rows(300, d, step), 300, step)
        assert np.array_equal(orbits._least_translates(rows, 300, step), expected)


def test_least_translates_over_two_limbs():
    # base 4 digits at d = 30 and base 256 digits at d = 8 need two limbs
    assert orbits._translate_key_weights(3, 30).shape == (61, 60)
    assert orbits._translate_key_weights(255, 8).shape == (17, 16)
    for step in (1, 3):
        expected = least_translates_reference(prefix_rows(3, 30, step), 3, step)
        assert np.array_equal(orbits._least_translates(prefix_rows(3, 30, step), 3, step), expected)
        assert np.array_equal(superclass_array(3, 30, step), expected)
    # cyclic gaps (a, a, a, a, a, a, b, c) with b, c > a, started at every
    # position: the keys of the translates that start a run of a's agree in
    # the first limb (the first entry and five gaps) and differ in the second
    cycles = [[a] * 6 + [b, 255 - 6 * a - b] for a in range(25, 31) for b in range(a + 1, 255 - 7 * a)]
    starts = [np.roll(c, -r)[:7] for c in cycles for r in range(8)]
    for step in (1, 5, 17):
        firsts = np.arange(len(starts)) % step
        rows = np.cumsum(np.column_stack([firsts, starts]), axis=1).astype(np.uint8)
        assert np.array_equal(orbits._least_translates(rows, 255, step), least_translates_reference(rows, 255, step))


@pytest.mark.parametrize("rows", [1, 7, 40])
@pytest.mark.parametrize(
    "n, d, step", [(12, 4, 1), (12, 3, 4), (30, 4, 5), (300, 2, 2), (300, 2, 4), (3, 30, 1), (3, 30, 3)]
)
def test_least_translates_of_blocks_is_that_of_the_prefix(n, d, step, rows, monkeypatch):
    # the candidates in blocks; uint16 entries at n = 300, two-limb keys at d = 30
    expected = least_translates_reference(prefix_rows(n, d, step), n, step)
    monkeypatch.setattr(orbits, "_BLOCK_CELLS", 50)  # a few rows per slice
    blocks = [orbits._least_translates(b, n, step) for b in orbits._candidate_chunks(n, d, step, rows)]
    assert np.array_equal(np.concatenate(blocks), expected)
    assert np.array_equal(np.concatenate(list(superclass_chunks(n, d, step, rows))), expected)


def test_max_modulus_at_zero():
    rep = canonicalize((1, 3, 4), 9)
    assert max(abs(v) for v in image(rep)) <= orbit_size(rep) + 1e-9


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
    return out


def _undecided_coords():
    """Doubles nearest to (m + 1/2) * 1e-9 and their float neighbours, for m
    just above +-2^19 and just below +-2^20: one ulp of v * 1e9 is 1/16
    and 1/8 there, so fl(v * 1e9) can round across or onto the half-integer
    that round(v, 9) decides by.  Also exact decimal ties j / 1024 * 1e-9
    away from the next digit, there and near zero."""
    out = []
    for base in (2**19, -(2**19), 2**20 - 1, -(2**20) + 1):
        m0 = base * 10**9
        for k in range(6):
            h = (m0 + k + 0.5) / 1e9
            out += [h, float(np.nextafter(h, np.inf)), float(np.nextafter(h, -np.inf))]
    out += [j / 1024 for j in (1, 3, -5, 1023)]
    out += [2.0**19 + 2.0**-10, -(2.0**19) - 3 * 2.0**-10, 2.0**20 - 2.0**-10]
    return out


# +-0.0, values 0.5e-9 apart, values on (or a hair off) rounding boundaries,
# either side of the 2^20 cut below which neighbours are found along a line,
# |z| >= 2^25 where float spacing exceeds 1e-9, nan/inf, and values whose
# key _round_coords must leave to round
_coords = st.sampled_from(
    [0.0, -0.0, 5e-10, -5e-10, 1e-9, 1.5e-9, 2.5e-9, 0.1234567895, 0.12345678949999999, -0.1234567895, 1.0, 1.0000000005, -1.0000000005]
    + [2.0**20, np.nextafter(2.0**20, 0), 2.0**20 - 5e-10, -(2.0**20) + 1e-9, 2.0**25, np.nextafter(2.0**25, np.inf), -(2.0**25), 1e300]
    + [float("nan"), float("inf"), -float("inf")]
    + _undecided_coords()
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
    assert repr(dedupe_values(vals).tolist()) == expected
    assert repr(dedupe_values(np.array(vals, dtype=complex)).tolist()) == expected
    assert repr(dedupe_values(iter(vals)).tolist()) == expected


def test_round_coords_equals_round():
    # bit for bit, -0.0 folded, on random values of every scale up to 2^21,
    # on the undecided values and on nan/inf; the rint key alone gets some
    # undecided values wrong, so they exercise the fallback to round
    rng = np.random.default_rng(7)
    undecided = np.array(_undecided_coords())
    vals = np.concatenate(
        [
            rng.uniform(-1, 1, 4000) * 2.0 ** rng.integers(-40, 22, 4000),
            undecided,
            -undecided,
            [0.0, -0.0, -1e-12, 0.5e-9, -0.5e-9, 1e300, -1e300, np.inf, -np.inf, np.nan],
        ]
    )
    got = evaluate._round_coords(vals)
    want = np.array([evaluate._round_coord(v) for v in vals.tolist()])
    assert got.tobytes() == want.tobytes()
    naive = np.rint(undecided * 1e9) / 1e9 + 0.0
    assert (naive != [evaluate._round_coord(v) for v in undecided.tolist()]).any()


def test_dedupe_values_calls_round_only_when_undecided(monkeypatch):
    rounded = []
    real = evaluate._round_coord
    monkeypatch.setattr(evaluate, "_round_coord", lambda v: rounded.append(v) or real(v))
    spread = np.arange(1, 2001) * np.exp(0.7j * np.arange(2000))  # no two values near each other
    assert dedupe_values(spread).tolist() == spread.tolist()
    # small values, each with a near twin 1e-10 off and exact repeats
    small = np.exp(0.7j * np.arange(2000)) * np.linspace(0.01, 3, 2000)
    crowded = np.concatenate([small, small + 1e-10, small[::7], small + 1e-10j])
    kept = dedupe_values(crowded)
    assert rounded == []
    assert kept.tolist() == reference_dedupe(crowded.tolist()) and len(small) < len(kept) < len(crowded)
    tie = complex(0.1234567895, 0.5)  # 0.1234567895 * 1e9 is a half-integer up to float error
    ties = [tie, tie - 2e-10, tie + 2e-10, tie, 3 + 0j]
    assert dedupe_values(ties).tolist() == reference_dedupe(ties)
    assert 0.1234567895 in rounded


def test_dedupe_values_large_coordinates():
    # at 2^25 one float step of p = re + 0.618 im is 7.45e-9: the two values
    # share a key, but their p round to neighbouring floats
    pair = [complex(2**25, 6.0e-9), complex(2**25, 6.4e-9)]
    assert dedupe_values(pair).tolist() == reference_dedupe(pair) == [pair[0]]
    spread = [complex(2**25, 0.1), complex(2**25, 0.2), complex(float("inf"), 1), complex(float("inf"), 1)]
    assert dedupe_values(spread).tolist() == reference_dedupe(spread) == spread[:3]


def test_dedupe_values_keeps_first_signed_zero():
    assert repr(dedupe_values([complex(-0.0, 0.0), 0j, complex(0.0, -0.0)]).tolist()) == repr([complex(-0.0, 0.0)])
    assert dedupe_values([]).tolist() == []


def test_value_sets_are_complex_arrays():
    # every value set is a new 1-D complex128 array, empty ones included
    arr = np.array([1 + 0j, 2j, 1 + 0j, 3 + 0j])
    empty = np.empty(0, dtype=complex)
    sets = [
        image(canonicalize((1, 2), 5)),
        image(canonicalize((1, 2), 5), full_group=True),
        union_image(4, 2),
        sample_torus_map(ExponentMatrix(8, ((1, 0, -1), (0, 1, -1))), 3),
        dedupe_values(arr),
        dedupe_values(empty),
        dedupe_values([]),
        dedupe_values(iter([1j, 1j])),
    ]
    for values in sets:
        assert type(values) is np.ndarray and values.dtype == np.complex128 and values.ndim == 1
    kept = dedupe_values(arr)
    assert kept.tolist() == [1 + 0j, 2j, 3 + 0j] and not np.shares_memory(kept, arr)
    kept[0] = 5
    assert arr[0] == 1
    assert dedupe_values(empty) is not empty and len(dedupe_values(empty)) == 0


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, _coords, _coords), max_size=60), st.data())
def test_dedupe_of_deduped_chunks_is_dedupe_of_all(vals, data):
    # near and exact twins of earlier values planted after them, so across
    # chunk edges when a cut falls between; then random cuts
    step = st.sampled_from([-1e-9, -5e-10, 0.0, 5e-10, 1e-9])
    for _ in range(data.draw(st.integers(0, 12))):
        if vals:
            z = data.draw(st.sampled_from(vals))
            twin = complex(z.real + data.draw(step), z.imag + data.draw(step))
            vals.insert(data.draw(st.integers(vals.index(z) + 1, len(vals))), twin)
    arr = np.array(vals, dtype=complex)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(vals)), max_size=8)))
    chunks = np.split(arr, cuts)
    expected = repr(dedupe_values(arr).tolist())
    assert repr(dedupe_values(np.concatenate([dedupe_values(c) for c in chunks])).tolist()) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluate, "_CHUNK_ROWS", data.draw(st.sampled_from([1, 2, 4, 1 << 18])))
        assert repr(evaluate._dedupe_chunks(iter(chunks), np.asarray).tolist()) == expected


def test_cloud_difference_respects_tolerance():
    assert cloud_difference([1 + 0j], [1 + 5e-10j]) == ([], [])
    assert cloud_difference([1 + 0j], [1 + 1e-8j]) == ([1 + 0j], [1 + 1e-8j])
    assert cloud_difference([1 + 0j, 2 + 0j], [1 + 0j]) == ([2 + 0j], [])


def test_cloud_difference_across_bucket_edges():
    # values straddling a rounding-bucket boundary must still pair up
    base = 0.1234567895
    assert cloud_difference([base + 4.9e-10 + 0j], [base - 4.9e-10 + 0j]) == ([], [])


def test_cloud_difference_keeps_input_order():
    a = [3 + 0j, 1j, 2 + 0j, 1 + 0j, -1j]
    assert cloud_difference(a, [1j, 1 + 1e-10j]) == ([3 + 0j, 2 + 0j, -1j], [])


@pytest.mark.parametrize("seed", range(40))
def test_cloud_difference_is_the_pairwise_definition(seed):
    # clouds with clustered real parts (columns of a lattice) and pairs up
    # to 1.2 * TOL apart in each coordinate, compared in both orders
    rng = np.random.default_rng(seed)
    m = int(rng.choice([0, 1, 3, 15, 60, 300]))
    base = np.where(rng.random(m) < 0.5, rng.uniform(-5, 5, m), rng.integers(-3, 4, m) / 2)
    base = base + 1j * np.where(rng.random(m) < 0.5, rng.uniform(-5, 5, m), rng.integers(-3, 4, m))
    moved = base + TOL * (rng.uniform(-1.2, 1.2, m) + 1j * rng.uniform(-1.2, 1.2, m))
    a = base.tolist()
    b = rng.permutation(np.concatenate([moved[rng.random(m) < 0.8], rng.uniform(-5, 5, 4)])).tolist()
    for p, q in ((a, b), (b, a)):
        assert cloud_difference(p, q)[0] == [z for z in p if not any(abs(z - w) <= TOL for w in q)]


def test_rotation_closed_within_tolerance():
    square = [1 + 0j, 1j, -1 + 0j, -1j]
    assert rotation_witness(square, 4) is None and rotation_witness(square, 2) is None
    assert rotation_witness(square, 3) is not None
    value, rotated = rotation_witness(square[:3], 4)
    assert value == -1 and abs(rotated + 1j) < 1e-15
    assert rotation_witness([1 + 0j, 5e-10 + 1j, -1 + 0j, -1j], 4) is None
    assert rotation_witness([1 + 0j, 2e-9 + 1j, -1 + 0j, -1j], 4) is not None
    assert rotation_witness([5 + 0j], 1) is None and rotation_witness([], 3) is None


def test_union_image_contains_each_orbit():
    cloud = union_image(3, 2)
    for rep in enumerate_orbits(3, 2):
        assert cloud_difference(image(rep), cloud)[0] == []


def test_default_budget_value():
    assert DEFAULT_BUDGET == 5_000_000
