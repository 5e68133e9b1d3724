from itertools import product
from math import cos, gcd, pi, sin

import numpy as np
import pytest

import symchar.asymptotic as asymptotic
from symchar.asymptotic import (
    ExponentMatrix,
    ReductionCertificate,
    certificate_from_rows,
    hypocycloid_contains_many,
    hypocycloid_orbit_check,
    orbit_matrix,
    row_reduce_mod_n,
    sample_torus_map,
    torus_map,
)
from symchar.errors import HypothesisFailed, NoUnitPivot, VerificationFailed
from symchar.evaluate import TOL, cloud_difference, dedupe_values, image, roots_of_unity
from symchar.orbits import canonicalize

# z_1 + ... + z_{d-1} + 1/(z_1 ... z_{d-1}), the map whose image fills the
# d-cusp hypocycloid, at d = 3 and 4
HYPOCYCLOID_3 = ExponentMatrix(6, ((1, 0, -1), (0, 1, -1)))
HYPOCYCLOID_4 = ExponentMatrix(8, ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)))


def test_orbit_matrix_columns_are_orbit_elements():
    M = orbit_matrix(canonicalize((1, 2, 44), 47))
    assert M.d == 3 and M.r == 6 and M.n == 47
    cols = {tuple(M.rows[i][c] for i in range(3)) for c in range(6)}
    assert cols == {
        (1, 2, 44), (1, 44, 2), (2, 1, 44), (2, 44, 1), (44, 1, 2), (44, 2, 1),
    }


def test_row_reduce_hummingbird():
    cert = row_reduce_mod_n(orbit_matrix(canonicalize((1, 2, 44), 47)))
    assert cert.zero_rows == 1
    assert gcd(cert.det, 47) == 1
    assert cert.complete


def test_row_reduce_zero_sum_forces_zero_row():
    # [X] = 0 mod n makes the all-ones vector a left null vector
    for entries, n in [((1, 2, 44), 47), ((0, 1, 1, 15), 17), ((1, 4), 5)]:
        assert sum(entries) % n == 0
        cert = row_reduce_mod_n(orbit_matrix(canonicalize(entries, n)))
        assert cert.zero_rows >= 1


def test_row_reduce_identity_like():
    cert = row_reduce_mod_n(orbit_matrix(canonicalize((1, 2), 5)))
    assert cert.zero_rows == 0
    assert cert.complete


def test_no_unit_pivot_attaches_partial():
    with pytest.raises(NoUnitPivot) as info:
        row_reduce_mod_n(orbit_matrix(canonicalize((2, 4), 6)))
    cert = info.value.certificate
    assert not cert.complete
    assert cert.zero_rows == 0
    assert cert.reduced == ((2, 4), (4, 2))


def test_certificate_recomputes_and_rejects_tampering():
    M = orbit_matrix(canonicalize((1, 2), 5))
    cert = row_reduce_mod_n(M)
    with pytest.raises(VerificationFailed):
        ReductionCertificate(M, cert.reducer, cert.reduced, (cert.det + 1) % 5, cert.zero_rows)
    bad_reduced = tuple(tuple((v + 1) % 5 for v in row) for row in cert.reduced)
    with pytest.raises(VerificationFailed):
        ReductionCertificate(M, cert.reducer, bad_reduced, cert.det, cert.zero_rows)


def test_certificate_rejects_nonunit_det():
    M = orbit_matrix(canonicalize((1, 2, 3), 6))
    rows = ((2, 0, 0), (0, 1, 0), (0, 0, 1))  # det 2, not a unit mod 6
    with pytest.raises(VerificationFailed):
        certificate_from_rows(M, rows)


def test_certificate_from_supplied_reducer():
    M = orbit_matrix(canonicalize((1, 2, 44), 47))
    cert = certificate_from_rows(M, [[3, 1, 0], [2, -1, 0], [1, 1, 1]])
    assert cert.zero_rows == 1
    assert cert.det == 42  # -5 mod 47, a unit
    assert gcd(cert.det, 47) == 1
    em = torus_map(cert)
    # the reduced form up to column order
    assert sorted(zip(*em.rows)) == sorted([(5, 0), (0, 5), (7, 3), (3, 7), (-8, -7), (-7, -8)])


def test_torus_map_lifts_to_symmetric_range():
    cert = row_reduce_mod_n(orbit_matrix(canonicalize((1, 2, 44), 47)))
    em = torus_map(cert)
    assert len(em.rows) == 2
    assert all(-23 <= v <= 23 for row in em.rows for v in row)


def test_torus_map_requires_complete():
    with pytest.raises(NoUnitPivot) as info:
        row_reduce_mod_n(orbit_matrix(canonicalize((2, 4), 6)))
    with pytest.raises(HypothesisFailed):
        torus_map(info.value.certificate)


def test_sample_torus_map_matches_direct_image():
    # the orbit (1, 1, 5) mod 7 reduces to the full d = 3 monomial map,
    # so sampling that map on the 7-grid recovers the sigma image exactly
    rep = canonicalize((1, 1, 5), 7)
    cert = row_reduce_mod_n(orbit_matrix(rep))
    sampled = sample_torus_map(torus_map(cert), 7)
    assert cloud_difference(sampled, image(rep)) == ([], [])


def test_orbit_matrix_trivial_cases():
    single = orbit_matrix(canonicalize((2, 2, 2), 5))
    assert single.r == 1 and single.rows == ((2,), (2,), (2,))
    pair = orbit_matrix(canonicalize((0, 1), 3))
    assert pair.rows == ((0, 1), (1, 0))


def test_sample_grid_one():
    # every z_j = 1, so g collapses to the number of monomials
    values = sample_torus_map(HYPOCYCLOID_4, 1)
    assert len(values) == 1
    assert abs(values[0] - 4) < 1e-12


def test_hummingbird_sample_equals_image():
    # det R a unit makes y -> (R^-T)y bijective, so sampling the reduced
    # two-variable map on the full 47-grid recovers the sigma image as a set
    rep = canonicalize((1, 2, 44), 47)
    cert = certificate_from_rows(orbit_matrix(rep), [[3, 1, 0], [2, -1, 0], [1, 1, 1]])
    sampled = sample_torus_map(torus_map(cert), 47)
    assert cloud_difference(sampled, image(rep)) == ([], [])


def reference_torus_values(rows, grid):
    """The torus sample before it shared the supercharacter kernel: int64
    phases m @ e over the odometer, reduced mod grid, gathered from the
    root table and summed over the terms."""
    m = np.array(list(product(range(grid), repeat=len(rows))), dtype=np.int64)
    phases = (m @ np.array(rows, dtype=np.int64)) % grid
    return roots_of_unity(grid)[phases].sum(axis=1)


@pytest.mark.parametrize(
    "rows, grid",
    [
        (((5, 0, 7, 3, -8, -7), (0, 5, 3, 7, -7, -8)), 47),  # the hummingbird's torus map
        (HYPOCYCLOID_4.rows, 47),  # 103,823 points x 4 terms: many kernel blocks
        (HYPOCYCLOID_4.rows, 1),
        (HYPOCYCLOID_3.rows, 2),
        (((3, -5, 0), (-1, 4, 2)), 2),
        (((5,), (-7,)), 9),  # one term
        (((1, -1, 3), (0, 2, -5)), 200),  # top = 2 * 199^2 takes the mod-n branch
    ],
)
def test_sample_torus_map_bitwise_as_gather(rows, grid):
    values = sample_torus_map(ExponentMatrix(grid, rows), grid)
    want = dedupe_values(reference_torus_values(rows, grid))
    assert np.array(values).tobytes() == np.array(want).tobytes()


def test_sample_rejects_map_without_variables():
    cert = row_reduce_mod_n(orbit_matrix(canonicalize((0, 0), 5)))
    em = torus_map(cert)
    assert em.rows == ()
    with pytest.raises(ValueError):
        sample_torus_map(em, 5)
    with pytest.raises(ValueError):
        sample_torus_map(ExponentMatrix(5, ((),)), 5)


def test_sample_budget():
    from symchar.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        sample_torus_map(HYPOCYCLOID_4, 100, budget=1000)  # 100^3 grid points


def test_boundary_point_on_curve():
    # theta = pi/4, d = 4: x = 3 cos(pi/4) + cos(3 pi/4), y = 3 sin(pi/4) - sin(3 pi/4)
    z = complex(3 * cos(pi / 4) + cos(3 * pi / 4), 3 * sin(pi / 4) - sin(3 * pi / 4))
    assert hypocycloid_contains_many([z, z * 0.99, z * 1.05], 4).tolist() == [True, True, False]


def test_containment_basics():
    # 3 is the cusp of the 3-cusp curve
    assert hypocycloid_contains_many([0j, 3, 3.2, 2 + 2j], 3).tolist() == [True, True, False, False]
    flags = hypocycloid_contains_many([0j, 6 + 0j, 7 + 0j], 6)
    assert flags.tolist() == [True, True, False]
    assert hypocycloid_contains_many([], 5).tolist() == []


def test_degenerate_two_cusp():
    # d = 2 collapses to the segment [-2, 2] on the real axis
    assert hypocycloid_contains_many([1.5, 1.5 + 0.1j], 2).tolist() == [True, False]


def _curve(t, d):
    return (d - 1) * np.exp(1j * t) + np.exp(-1j * (d - 1) * t)


def _outward_normal(t, d):
    tangent = 1j * (d - 1) * (np.exp(1j * t) - np.exp(-1j * (d - 1) * t))
    return -1j * tangent / np.abs(tangent)


def _oracle_distance(p, d, mp):
    """Distance from p to the filled d-cusp hypocycloid, at 40 digits.

    A nearest curve point is a critical point of |z(t) - p|^2.  With
    w = e^{it}, w^d * 2 Re[(z - p) conj z'] / (d - 1) is a polynomial of
    degree 2d in w: its roots near the unit circle (numpy) and the cusps
    are the candidates, each Newton-polished in t with mpmath.  p is inside
    when it lies on the inner side of the normal at its nearest smooth
    point; a nearest cusp means p is outside.
    """
    a = d - 1
    coeffs = np.zeros(2 * d + 1, dtype=complex)  # coeffs[k + d] multiplies w^k
    for k1, c1 in ((1, a), (1 - d, 1), (0, -p)):
        for k2, c2 in ((-1, 1), (d - 1, -1)):
            coeffs[k1 + k2 + d] += -1j * c1 * c2
            coeffs[d - k1 - k2] += 1j * np.conj(c1) * c2
    seeds = [np.angle(w) for w in np.roots(coeffs[::-1]) if abs(abs(w) - 1) < 1e-3]
    seeds += [2 * pi * k / d for k in range(d)]
    far = np.abs(_curve(np.array(seeds), d) - p)
    seeds = [t for t, f in zip(seeds, far) if f <= far.min() + 1e-6]
    with mp.workdps(40):
        q = mp.mpc(p.real, p.imag)

        def parts(t):
            e1, e2 = mp.expj(t), mp.expj(-a * t)
            return a * e1 + e2, 1j * a * (e1 - e2), -a * e1 - a * a * e2

        best = None
        for t in map(mp.mpf, seeds):
            for _ in range(8):
                z, z1, z2 = parts(t)
                curvature = abs(z1) ** 2 + mp.re((z - q) * mp.conj(z2))
                if curvature <= 0:
                    break
                t -= mp.re((z - q) * mp.conj(z1)) / curvature
            z, z1, _ = parts(t)
            if best is None or abs(z - q) < best[0]:
                best = (abs(z - q), z, z1)
        dist, z, z1 = best
        if abs(z1) > 1e-12 and mp.re((q - z) * mp.conj(-1j * z1)) < 0:
            return 0.0
        return float(dist)


@pytest.mark.parametrize("d", range(3, 9))
def test_containment_matches_nearest_point_oracle(d):
    # accepted exactly when the distance to the filled region is <= tol;
    # 100 points lie within 3 tol of the curve, three in four of them within
    # 0.01 of a cusp, where the curve runs almost radially and the radial
    # test alone rejects points within tol; 20 more lie anywhere in the box
    mp = pytest.importorskip("mpmath")
    tol = TOL
    rng = np.random.default_rng(d)
    t = 2 * pi * rng.integers(d, size=100) / d + rng.choice([-1, 1], 100) * 10 ** rng.uniform(-4, -2, 100)
    t[::4] = rng.uniform(0, 2 * pi, 25)
    offset = rng.uniform(-3 * tol, 3 * tol, 100)
    direction = np.where(np.arange(100) % 2 == 1, _outward_normal(t, d), np.exp(1j * rng.uniform(0, 2 * pi, 100)))
    box = rng.uniform(-d, d, 20) + 1j * rng.uniform(-d, d, 20)
    pts = np.concatenate([_curve(t, d) + offset * direction, box])
    dist = np.array([_oracle_distance(p, d, mp) for p in pts])
    clear = np.abs(dist - tol) > 1e-12
    assert clear.sum() >= 115
    assert 0 < (dist[clear] <= tol).sum() < clear.sum()
    got = hypocycloid_contains_many(pts, d)
    assert got[clear].tolist() == (dist[clear] <= tol).tolist()


@pytest.mark.parametrize("d", range(2, 9))
def test_normal_offsets_and_cusps(d):
    cusps = d * np.exp(2j * pi * np.arange(d) / d)
    if d == 2:
        on = np.linspace(-2, 2, 41).astype(complex)
        outside = np.concatenate([on + 1e-7j, on - 1e-7j, [2 + 1e-7, -2 - 1e-7]])
        inside = on
    else:
        # 60 points on each arc between two cusps, the cusps left out
        s = np.linspace(1e-3, 2 * pi / d - 1e-3, 60)
        t = (s[None, :] + 2 * pi * np.arange(d)[:, None] / d).ravel()
        on = _curve(t, d)
        outside = on + 1e-7 * _outward_normal(t, d)
        # near a cusp the region is a horn narrower than 1e-6
        wide = np.minimum(s, 2 * pi / d - s) > 0.05
        inward = (on - 1e-6 * _outward_normal(t, d)).reshape(d, 60)[:, wide].ravel()
        inside = np.concatenate([on, inward])
    assert hypocycloid_contains_many(cusps, d).all()
    assert hypocycloid_contains_many(inside, d).all()
    assert not hypocycloid_contains_many(outside, d).any()


def _fold(values, d):
    """|p| and arg p folded into the wedge [0, pi/d]."""
    z = np.asarray(values, dtype=complex)
    wedge = 2 * pi / d
    phi = np.mod(np.angle(z), wedge)
    return np.abs(z), np.minimum(phi, wedge - phi)


def reference_radial(r, phi, d, tol):
    """r <= rho(phi) + tol, with the curve's parameter at angle phi found by
    bisection."""
    return r <= np.abs((d - 1) + np.exp(-1j * d * asymptotic._param_at_angle(phi, d))) + tol


def reference_contains(values, d, tol=1e-9):
    """hypocycloid_contains_many for d >= 3 as it was before the closed-form
    radial test and without the inner-disk accept: a bisection for the
    curve's parameter at each value's angle, the radial test against the
    radius there, then the nearest-point fallback."""
    r, phi = _fold(values, d)
    ok = reference_radial(r, phi, d, tol)
    rest = np.flatnonzero(~ok)
    if len(rest):
        p = r[rest] * np.exp(1j * phi[rest])
        spread = np.arcsin(tol / r[rest])
        lo = np.maximum(asymptotic._param_at_angle(phi[rest] - spread, d), 0.0)
        hi = np.minimum(asymptotic._param_at_angle(phi[rest] + spread, d), pi / d)

        def slope(t):
            tangent = 1j * (d - 1) * (np.exp(1j * t) - np.exp(-1j * (d - 1) * t))
            return ((_curve(t, d) - p) * np.conj(tangent)).real

        nearest = np.abs(_curve(asymptotic._bisect(slope, lo, hi), d) - p)
        ok[rest] = np.minimum(nearest, np.abs(d - p)) <= tol
    return ok


@pytest.mark.parametrize("d", range(3, 8))
def test_inner_disk_accept_keeps_every_verdict(d, monkeypatch):
    # points in an annulus around r = d - 2 (the inscribed circle, which
    # the curve touches between cusps, at angles pi/d + 2 pi k/d), and
    # points at or near those angles within 1e-3 or 1e-9 of it
    rng = np.random.default_rng(d)
    r = np.concatenate(
        [rng.uniform(d - 2.5, d - 1.5, 3000), d - 2 + rng.uniform(-1e-3, 1e-3, 300), d - 2 + rng.uniform(-1e-9, 1e-9, 300), [d - 2] * 10]
    )
    valley = pi / d + 2 * pi * rng.integers(d, size=610) / d
    angle = np.concatenate([rng.uniform(0, 2 * pi, 3000), valley[:300] + rng.normal(0, 1e-3, 300), valley[300:]])
    pts = r * np.exp(1j * angle)
    want = reference_contains(pts, d)
    assert 0 < want.sum() < len(pts)
    sizes = []
    real = asymptotic._bisect
    monkeypatch.setattr(asymptotic, "_bisect", lambda fn, lo, hi: sizes.append(len(lo)) or real(fn, lo, hi))
    assert hypocycloid_contains_many(pts, d).tolist() == want.tolist()
    assert max(sizes) <= np.count_nonzero(np.abs(pts) > d - 2)
    sizes.clear()
    inner = pts[np.abs(pts) <= d - 2]
    assert hypocycloid_contains_many(inner, d).all()
    assert sizes == [] or max(sizes) == 0


@pytest.mark.parametrize("d", range(3, 9))
def test_closed_form_radial_test_keeps_every_verdict(d):
    # curve points near the cusps (t = 2 pi k/d) and the valleys
    # (t = pi/d + 2 pi k/d), anywhere on the curve and exactly at both,
    # moved radially by 0, 0.5, 0.999, 1.001 and 2 tol inward and outward,
    # and points on the inscribed circle |p| = d - 2
    tol = TOL
    rng = np.random.default_rng(d)
    k = 2 * pi * rng.integers(d, size=600) / d
    t = np.concatenate(
        [
            k[:300] + rng.normal(0, 1e-3, 300),
            k[300:] + pi / d + rng.normal(0, 1e-3, 300),
            rng.uniform(0, 2 * pi, 300),
            2 * pi * np.arange(d) / d,
            pi / d + 2 * pi * np.arange(d) / d,
        ]
    )
    on = _curve(t, d)
    offsets = tol * np.array([0, 0.5, -0.5, 0.999, -0.999, 1.001, -1.001, 2, -2])
    moved = on[None, :] * (1 + offsets[:, None] / np.abs(on)[None, :])
    circle = (d - 2) * np.exp(1j * rng.uniform(0, 2 * pi, 300))
    pts = np.concatenate([moved.ravel(), circle])
    want = reference_contains(pts, d, tol)
    assert 0 < want.sum() < len(pts)
    with np.errstate(invalid="raise"):
        assert hypocycloid_contains_many(pts, d).tolist() == want.tolist()
    # the radial flags alone agree too, except within 1e-6 of a cusp's ray:
    # there the radius on a ray changes fast with its angle, so the
    # bisection's radius is off by more than the tol boundary's margin
    r, phi = _fold(pts, d)
    away = phi > 1e-6
    radial = asymptotic._radial_accept(r, phi, d)
    assert 0 < radial[away].sum() < away.sum()
    assert radial[away].tolist() == reference_radial(r, phi, d, tol)[away].tolist()


@pytest.mark.parametrize("n, d", [(13, 6), (15, 6), (16, 6), (19, 5), (20, 5)])
def test_bench_images_never_reach_the_fallback(n, d, monkeypatch):
    calls = []
    monkeypatch.setattr(asymptotic, "_bisect", lambda *args: calls.append(args))
    assert hypocycloid_orbit_check(n, d).passed
    assert calls == []


def test_orbit_check_small():
    report = hypocycloid_orbit_check(19, 6)
    assert report.passed, report.to_json()
    assert 0 < report.info["fill_ratio"] <= 1


def test_orbit_witness_lists_every_outside_point(monkeypatch):
    real_image = asymptotic.image
    t = np.linspace(0.2, 5.9, 5)
    pushed = (_curve(t, 6) + 1e-7 * _outward_normal(t, 6)).tolist()

    def image_with_outliers(rep, budget):
        return real_image(rep, budget=budget) + tuple(pushed)

    monkeypatch.setattr(asymptotic, "image", image_with_outliers)
    report = hypocycloid_orbit_check(19, 6)
    assert not report.passed
    assert report.witness["outside"] == pushed


def test_boundary_validation():
    with pytest.raises(ValueError):
        hypocycloid_contains_many([0j], 1)
