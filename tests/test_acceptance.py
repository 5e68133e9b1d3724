"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run `pytest -v -s tests/test_acceptance.py` to see the per-criterion lines.
Each test is self-contained and asserts everything it prints.
"""

import random
from itertools import chain
import time
from math import gcd

import numpy as np

from symchar.asymptotic import (
    certificate_from_rows,
    hypocycloid_orbit_check,
    orbit_matrix,
    row_reduce_mod_n,
    sample_torus_map,
    torus_map,
)
from symchar.evaluate import TOL, cloud_difference, image, permanent_oracle, roots_of_unity, rotation_witness, supercharacter
from symchar.identities import (
    dihedral_order,
    full_union_symmetry,
    spike_identity,
    spike_shifts,
    sweep_conjugate,
    sweep_constancy,
    sweep_translation,
    walk_reduction_check,
)
from symchar.modring import solve_bilinear_brute, solve_bilinear_congruence
from symchar.orbits import canonicalize, enumerate_orbits, superclass_array
from symchar.render import BitmapSpec, encode_png, render_bitmap
from symchar.table import build_table, build_unitary


def emit(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def test_criterion_01_exact_identity_sweep():
    pairs = [(2, 2), (3, 2), (3, 3), (4, 3), (5, 2), (6, 2), (4, 4)]
    t0 = time.time()
    checks = 0
    for n, d in pairs:
        for rep in chain.from_iterable(sweep_conjugate(n, d)):
            assert rep.exact and rep.passed, rep.to_json()
            checks += 1
        for rep in chain.from_iterable(sweep_translation(n, d)):
            assert rep.exact and rep.passed, rep.to_json()
            checks += 1
    elapsed = time.time() - t0
    emit(1, elapsed < 120, f"{checks} conjugate/translation checks, all exact, {elapsed:.1f}s")


def test_criterion_02_constancy_on_superclasses():
    checks = 0
    for n in range(2, 6):
        for d in range(1, 5):
            for rep in chain.from_iterable(sweep_constancy(n, d)):
                assert rep.passed, rep.to_json()
                checks += 1
    emit(2, True, f"{checks} (X, Y) pairs constant on superclasses, exact")


def test_criterion_03_permanent_oracle():
    rng = random.Random(20260822)
    worst = 0.0
    checks = 0
    for n in range(2, 8):
        for d in range(1, 5):
            for rep in enumerate_orbits(n, d):
                for _ in range(50):
                    y = [rng.randrange(n) for _ in range(d)]
                    worst = max(worst, abs(supercharacter(rep, y) - permanent_oracle(rep, y)))
                    checks += 1
    emit(3, worst <= 1e-9, f"{checks} random evaluations, max |direct - permanent| = {worst:.2e}")


def test_criterion_04_dihedral_orders():
    results = []
    for a in [5, 7, 2, 1, 6, 10]:
        X = canonicalize((0, 0, 0, 1, a), 12)
        order = dihedral_order(X)  # checks the exact counts-shift identity on sampled Y
        assert order == 12 // gcd(12, 1 + a), (a, order)
        assert rotation_witness(image(X), order) is None, (a, order)
        results.append(order)
    emit(4, True, f"orders for a in (5,7,2,1,6,10): {results}, closure within 1e-9")


def test_criterion_05_full_union_symmetry():
    t0 = time.time()
    got = []
    for (n, d), expect in [((9, 3), 3), ((3, 6), 1), ((4, 6), 2)]:
        order = full_union_symmetry(n, d)
        assert order == expect, (n, d, order)
        got.append(order)
    elapsed = time.time() - t0
    emit(5, elapsed < 300, f"union clouds rotation-closed with orders {got}, {elapsed:.1f}s")


def test_criterion_06_spikes():
    X = canonicalize((1, 2, 3), 17)
    assert spike_shifts(X)[0] == 4
    rep = spike_identity(X, 4)
    assert rep.passed and rep.params["rays"] == 34, rep.to_json()

    Y = canonicalize((1, 1, 10, 10), 16)
    assert spike_shifts(Y)[0] == 11
    rep = spike_identity(Y, 11)
    assert rep.passed and rep.params["rays"] == 32, rep.to_json()

    # X = orbit of (0, 1, 1, 2) mod 11: sigma_X(y) = e([y]/11)(|W(y)|^2 - 4)
    # with the walk sum W(y) = sum e(y_i/11), whose real factor lies in [-4, 12]
    table = roots_of_unity(11)
    ys = superclass_array(11, 4).astype(np.int64)
    factor = np.abs(table[ys].sum(axis=1)) ** 2 - 4
    values = supercharacter(canonicalize((0, 1, 1, 2), 11), ys)
    assert np.abs(values - table[ys.sum(axis=1) % 11] * factor).max() <= TOL
    lo, hi = factor.min(), factor.max()
    assert lo >= -4 - TOL and hi <= 12 + TOL
    emit(6, True, f"rays 34 and 32 detected; real factor range [{lo:.3f}, {hi:.3f}] in [-4, 12]")


def test_criterion_07_hypocycloid_containment():
    t0 = time.time()
    points = []
    for n in (19, 20, 23, 24):
        rep = hypocycloid_orbit_check(n, 6)
        assert rep.passed, rep.to_json()
        points.append(rep.info["points"])
    elapsed = time.time() - t0
    emit(7, elapsed < 60, f"all image points inside the 6-cusp envelope, {points} points, {elapsed:.1f}s")


def test_criterion_08_reduction_certificates():
    hummingbird = orbit_matrix(canonicalize((1, 2, 44), 47))
    own = row_reduce_mod_n(hummingbird)  # certificate revalidates R*A = B and det on construction
    assert own.complete and own.zero_rows == 1 and gcd(own.det, 47) == 1

    known = certificate_from_rows(hummingbird, [[3, 1, 0], [2, -1, 0], [1, 1, 1]])
    assert known.zero_rows == 1 and gcd(known.det, 47) == 1
    expect = sorted([(5, 0), (0, 5), (7, 3), (3, 7), (-8, -7), (-7, -8)])
    assert sorted(zip(*torus_map(known).rows)) == expect  # the reduced form up to column order

    manta = row_reduce_mod_n(orbit_matrix(canonicalize((0, 1, 1, 15), 17)))
    assert manta.complete and manta.zero_rows == 1 and gcd(manta.det, 17) == 1
    emit(8, True, "n=47 and n=17 certificates validate, k=1, exponent multiset reproduced")


def test_criterion_09_image_equals_torus_sample():
    # the map reduce derives, g(z) = z_1 + z_2^-3 + z_1^-1 z_2^3; on the 7th roots
    # of unity w = z_2^-3 runs over them too, so it samples z_1 + w + 1/(z_1 w)
    exponents = torus_map(row_reduce_mod_n(orbit_matrix(canonicalize((1, 1, 5), 7))))
    assert exponents.rows == ((1, 0, -1), (0, -3, 3))
    direct = image(canonicalize((1, 1, 5), 7))
    sampled = sample_torus_map(exponents, 7)
    ok = cloud_difference(sampled, direct) == ([], [])
    emit(9, ok, f"{len(direct)} image points equal the grid-7 monomial sample")


def test_criterion_10_walk_reduction():
    rep = walk_reduction_check(24, 3, 8)
    assert rep.params["reduced_modulus"] == 3
    emit(10, rep.passed, f"step-8 walk image mod 24 equals step-1 image mod 3 ({rep.info['points']} points)")


def test_criterion_11_unitary_table():
    worst_sym, worst_uni = 0.0, 0.0
    for n, d in [(3, 2), (4, 3), (5, 3), (6, 2)]:
        uni = build_unitary(build_table(n, d))
        worst_sym = max(worst_sym, uni.residual_symmetry)
        worst_uni = max(worst_uni, uni.residual_unitary)
    ok = worst_sym <= 1e-9 and worst_uni <= 1e-8
    emit(11, ok, f"max |U - U^T| = {worst_sym:.2e}, max |U conj(U)^T - I| = {worst_uni:.2e}")


def test_criterion_12_congruence_solver():
    failures = 0
    checks = 0
    for n in range(2, 25):
        for d in range(1, 9):
            g = gcd(n, d)
            for a in range(n):
                for b in range(n):
                    fast = solve_bilinear_congruence(a, b, d, n)
                    slow = solve_bilinear_brute(a, b, d, n)
                    for s in (fast, slow):
                        checks += 1
                        if (a * s.j + b * s.k + d * s.j * s.k) % n != g % n:
                            failures += 1
    emit(12, failures == 0, f"{checks} solver outputs satisfy the congruence, {failures} failures")


def test_criterion_13_renderer_determinism():
    from symchar.render import KERNEL

    assert KERNEL.tolist() == [[0.3, 0.75, 0.3], [0.75, 1.0, 0.75], [0.3, 0.75, 0.3]]
    spec = BitmapSpec(7, 30)
    rep = canonicalize((1, 1, 1, 1, 1, 14), 19)
    first = image(rep)
    second = image(rep)
    png_a = encode_png(render_bitmap(first, spec))
    png_b = encode_png(render_bitmap(first, spec))
    png_c = encode_png(render_bitmap(second, spec))
    # guard: a point that would stamp on the frame is dropped entirely
    on_frame = render_bitmap([complex(7.0, 7.0)], spec)
    assert np.all(on_frame.pixels == 255)
    ok = first == second and png_a == png_b == png_c
    emit(13, ok, f"{len(first)} points at range 7, unit_res 30: byte-identical ({len(png_a)} bytes)")
