import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import symchar
from symchar import orbits
from symchar.errors import BudgetExceeded
from symchar.evaluate import DEFAULT_BUDGET, values_on_block
from symchar.orbits import enumerate_orbits, negate_orbit, orbit_array, orbit_size
from symchar.table import build_table, build_unitary
from test_evaluate import in_order_sums


def negation_index(tab):
    """The index of -X for each orbit X of the table."""
    index = {rep: i for i, rep in enumerate(tab.orbits)}
    return np.array([index[negate_orbit(rep)] for rep in tab.orbits])


def test_n2_d1_table():
    tab = build_table(2, 1)
    assert len(tab.orbits) == 2
    S = np.array(tab.values)
    assert np.allclose(S, [[1, 1], [1, -1]])
    uni = build_unitary(tab)
    assert np.allclose(uni.matrix, S / math.sqrt(2))


def test_zero_orbit_row_and_column():
    # first row: sigma_0 = 1 everywhere; first column: sigma_X(0) = |X|
    tab = build_table(4, 3)
    S = np.array(tab.values)
    assert np.allclose(S[0], 1)
    assert np.allclose(S[:, 0], tab.sizes)


def test_unitary_residuals_small():
    for n, d in [(2, 2), (3, 2), (4, 2), (3, 3)]:
        uni = build_unitary(build_table(n, d))
        assert uni.residual_symmetry <= 1e-9
        assert uni.residual_unitary <= 1e-8


def reference_residuals(tab):
    """Both residuals by the whole-array formula: u, u - u.T, the Gram
    matrix and Gram - I as separate temporaries."""
    root = np.sqrt(tab.sizes.astype(float))
    u = tab.values * root[None, :] / root[:, None] / float(tab.n) ** (tab.d / 2.0)
    gram = u @ u.conj().T
    return float(np.abs(u - u.T).max()), float(np.abs(gram - np.eye(len(u))).max()), u


@pytest.mark.parametrize("n, d", [(7, 4), (10, 4), (12, 4), (5, 5), (2, 9)])
def test_table_is_each_orbit_on_the_representatives(n, d):
    # the one-pass orbit arrays and the stacked kernel give each size group
    # with more orbits than elements its in-order sums, and any other group
    # one call per orbit, bitwise, with orbits of 1 to 126 elements; at
    # (12, 4) the 495 orbits of 24 elements fill more than ten blocks
    tab = build_table(n, d)
    reps = np.array([rep.entries for rep in enumerate_orbits(n, d)], dtype=np.int64)
    assert tab.orbits == tuple(enumerate_orbits(n, d))
    assert tab.sizes.tolist() == [orbit_size(rep) for rep in tab.orbits]
    for size in sorted(set(tab.sizes.tolist())):
        group = np.flatnonzero(tab.sizes == size)
        if len(group) > size:
            want = in_order_sums(n, np.array([orbit_array(tab.orbits[i]) for i in group]), reps)
        else:
            want = np.array([values_on_block(tab.orbits[i], reps) for i in group])
        assert tab.values[group].tobytes() == want.tobytes()
    one_call = np.array([values_on_block(rep, reps) for rep in tab.orbits])
    assert np.abs(tab.values - one_call).max() <= 1e-12


def assert_table_bytes_in_blocks(cells, n, d, monkeypatch):
    default = build_table(n, d).values.tobytes()
    monkeypatch.setattr(orbits, "_BLOCK_CELLS", cells)
    assert build_table(n, d).values.tobytes() == default


@pytest.mark.parametrize("n, d", [(7, 4), (5, 5), (2, 9)])
def test_table_is_each_orbit_in_small_blocks(n, d, monkeypatch):
    # 60-cell blocks split every call's rows, take the mod-n branch and
    # stack one orbit per kernel block
    assert_table_bytes_in_blocks(60, n, d, monkeypatch)


@pytest.mark.parametrize("n, d", [(7, 4), (5, 5), (10, 4)])
def test_table_is_each_orbit_in_split_stacks(n, d, monkeypatch):
    # 2,000-cell blocks cut the size groups into other stacks than the
    # default blocks, which the kernel splits into blocks of 2 or 3 orbits
    assert_table_bytes_in_blocks(2000, n, d, monkeypatch)


def test_table_output_per_blas_thread_count():
    # the matmuls are exact and the sums in a fixed order, so the thread
    # count cannot move a bit
    outputs = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "symchar.cli", "table", "7", "4"],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def assert_residuals_match_whole_array_formula(n, d):
    tab = build_table(n, d)
    uni = build_unitary(tab)
    symmetry, unitary, u = reference_residuals(tab)
    assert (uni.residual_symmetry, uni.residual_unitary) == (symmetry, unitary)
    assert np.array_equal(uni.matrix, u)


@pytest.mark.parametrize("n, d", [(3, 2), (6, 3), (7, 4), (10, 4)])
def test_unitary_residuals_match_whole_array_formula(n, d):
    assert_residuals_match_whole_array_formula(n, d)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_unitary_residuals_match_whole_array_formula_per_blas_thread_count(threads):
    # at (7, 4) the whole-array residual_unitary differs between 1 and 2
    # OpenBLAS threads; the half Gram product must equal it under each, so
    # each subprocess compares with the formula computed in that process
    paths = [str(Path(__file__).parent), str(Path(symchar.__file__).parents[1])]
    script = "from test_table import assert_residuals_match_whole_array_formula as check; check(7, 4)"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(paths)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_build_unitary_peak_memory():
    # the returned u plus one column block's scratch (about 4 MB): no whole
    # u.conj() copy and no N x N Gram matrix
    tab = build_table(11, 4)  # N = 1,001: a 16 MB table, 64-column blocks
    tracemalloc.start()
    try:
        build_unitary(tab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * tab.values.nbytes


@pytest.mark.parametrize("n, d", [(1, 1), (3, 2), (5, 3)])
def test_table_json_is_one_json_dumps(n, d):
    # written row by row, the bytes of one json.dumps of the whole table
    tab = build_table(n, d)
    whole = {
        "n": n,
        "d": d,
        "orbits": [list(rep.entries) for rep in tab.orbits],
        "sizes": tab.sizes.tolist(),
        "values": [[[z.real, z.imag] for z in row] for row in tab.values],
    }
    assert "".join(tab.json_chunks()) == json.dumps(whole, separators=(",", ":"))


def test_unitary_squared_is_negation():
    tab = build_table(5, 2)
    uni = build_unitary(tab)
    N = len(tab.orbits)
    P = np.zeros((N, N))
    P[np.arange(N), negation_index(tab)] = 1
    assert np.abs(uni.matrix @ uni.matrix - P).max() < 1e-8


def test_second_orthogonality():
    for n, d in [(3, 2), (4, 2), (5, 2)]:
        tab = build_table(n, d)
        gram = (tab.values * tab.sizes) @ tab.values.conj().T  # sum_j |X_j| S[i][j] conj(S[i'][j])
        assert np.abs(gram - np.diag(np.diag(gram))).max() < 1e-8


def test_superclass_transform_constant():
    # transform of the all-ones class function: only the trivial line survives
    tab = build_table(2, 1)
    uni = build_unitary(tab)
    out = uni.matrix @ np.ones(2)
    assert np.allclose(out, [math.sqrt(2), 0])


def test_transform_twice_is_negation_permutation():
    tab = build_table(5, 2)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(len(tab.orbits)) + 1j * rng.standard_normal(len(tab.orbits))
    u = build_unitary(tab).matrix
    assert np.abs(u @ (u @ f) - f[negation_index(tab)]).max() < 1e-9


def test_transform_preserves_norm():
    tab = build_table(4, 3)
    uni = build_unitary(tab)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = rng.standard_normal(len(tab.orbits)) + 1j * rng.standard_normal(len(tab.orbits))
        out = uni.matrix @ f
        assert abs(np.linalg.norm(out) - np.linalg.norm(f)) < 1e-9


def test_transform_of_zero_indicator_is_size_column():
    tab = build_table(3, 2)
    f = np.zeros(len(tab.orbits))
    f[0] = 1.0  # the zero orbit is enumerated first
    out = build_unitary(tab).matrix @ f
    expect = np.sqrt(tab.sizes.astype(float)) / 3.0  # sqrt(|X_i|) / sqrt(n^d)
    assert np.allclose(out, expect)


def test_orbit_budget():
    # (3, 2) has N = 6 superclasses: N^2 = 36 evaluations, charged up front
    with pytest.raises(BudgetExceeded) as info:
        build_table(3, 2, budget=35)
    assert (info.value.required, info.value.budget) == (36, 35)
    assert len(build_table(3, 2, budget=36).orbits) == 6
    with pytest.raises(BudgetExceeded) as info:
        build_table(50, 4)
    assert info.value.budget == DEFAULT_BUDGET
