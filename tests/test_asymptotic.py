from math import cos, gcd, pi, sin

import numpy as np
import pytest

from symchar.asymptotic import (
    ExponentMatrix,
    _dist_to_polyline,
    _winding_numbers,
    ReductionCertificate,
    certificate_from_rows,
    hypocycloid_boundary,
    hypocycloid_contains,
    hypocycloid_contains_many,
    hypocycloid_exponents,
    hypocycloid_orbit_check,
    orbit_matrix,
    polygon_sagitta_bound,
    row_reduce_mod_n,
    sample_torus_map,
    torus_map,
)
from symchar.errors import HypothesisFailed, NoUnitPivot, VerificationFailed
from symchar.evaluate import image, values_match
from symchar.orbits import canonicalize


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
    partial = row_reduce_mod_n(orbit_matrix(canonicalize((2, 4), 6)), allow_partial=True)
    assert partial.reduced == cert.reduced


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
    assert em.column_multiset() == tuple(
        sorted([(5, 0), (0, 5), (7, 3), (3, 7), (-8, -7), (-7, -8)])
    )


def test_torus_map_lifts_to_symmetric_range():
    cert = row_reduce_mod_n(orbit_matrix(canonicalize((1, 2, 44), 47)))
    em = torus_map(cert)
    assert em.variables == 2
    assert all(-23 <= v <= 23 for row in em.rows for v in row)


def test_torus_map_requires_complete():
    partial = row_reduce_mod_n(orbit_matrix(canonicalize((2, 4), 6)), allow_partial=True)
    with pytest.raises(HypothesisFailed):
        torus_map(partial)


def test_hypocycloid_exponents_shape():
    em = hypocycloid_exponents(4)
    assert em.rows == ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1))
    assert em.variables == 3 and em.terms == 4


def test_sample_torus_map_matches_direct_image():
    # the orbit (1, 1, 5) mod 7 reduces to the full d = 3 monomial map,
    # so sampling that map on the 7-grid recovers the sigma image exactly
    rep = canonicalize((1, 1, 5), 7)
    cert = row_reduce_mod_n(orbit_matrix(rep))
    cloud = sample_torus_map(torus_map(cert), 7)
    direct = image(rep)
    assert values_match(cloud.values, direct.values)


def test_orbit_matrix_trivial_cases():
    single = orbit_matrix(canonicalize((2, 2, 2), 5))
    assert single.r == 1 and single.rows == ((2,), (2,), (2,))
    pair = orbit_matrix(canonicalize((0, 1), 3))
    assert pair.rows == ((0, 1), (1, 0))


def test_sample_grid_one():
    # every z_j = 1, so g collapses to the number of monomials
    cloud = sample_torus_map(hypocycloid_exponents(4), 1)
    assert len(cloud.values) == 1
    assert abs(cloud.values[0] - 4) < 1e-12


def test_hummingbird_sample_equals_image():
    # det R a unit makes y -> (R^-T)y bijective, so sampling the reduced
    # two-variable map on the full 47-grid recovers the sigma image as a set
    rep = canonicalize((1, 2, 44), 47)
    cert = certificate_from_rows(orbit_matrix(rep), [[3, 1, 0], [2, -1, 0], [1, 1, 1]])
    sampled = sample_torus_map(torus_map(cert), 47)
    direct = image(rep)
    assert values_match(sampled.values, direct.values)


def test_sample_budget():
    from symchar.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        sample_torus_map(hypocycloid_exponents(6), 100, budget=1000)


def test_boundary_shape_and_cusp():
    # open polyline of exactly `samples` rows; segments close via roll
    d = 4
    poly = hypocycloid_boundary(d, 2048)
    assert poly.shape == (2048, 2)
    # theta = 0 is the cusp at d on the real axis
    assert np.allclose(poly[0], [d, 0], atol=1e-12)


def test_boundary_point_on_curve():
    # theta = pi/4, d = 4: x = 3 cos(pi/4) + cos(3 pi/4), y = 3 sin(pi/4) - sin(3 pi/4)
    z = complex(3 * cos(pi / 4) + cos(3 * pi / 4), 3 * sin(pi / 4) - sin(3 * pi / 4))
    assert hypocycloid_contains(z, 4)
    assert hypocycloid_contains(z * 0.99, 4)
    assert not hypocycloid_contains(z * 1.05, 4)


def test_containment_basics():
    assert hypocycloid_contains(0, 3)
    assert hypocycloid_contains(3, 3)  # cusp of the 3-cusp curve
    assert not hypocycloid_contains(3.2, 3)
    assert not hypocycloid_contains(2 + 2j, 3)
    flags = hypocycloid_contains_many([0j, 6 + 0j, 7 + 0j], 6)
    assert flags.tolist() == [True, True, False]


@pytest.mark.parametrize("samples", [64, 4096])
@pytest.mark.parametrize("d", range(2, 9))
def test_inner_disc_shortcut_keeps_verdicts(d, samples):
    rng = np.random.default_rng(d * samples)
    sagitta = polygon_sagitta_bound(d, samples)
    inner = (d - 2) - 2 * sagitta
    angles = rng.uniform(0, 2 * pi, 200)
    cusps = d * np.exp(2j * pi * np.arange(d) / d)
    pts = np.concatenate(
        [
            (inner + 1e-12) * np.exp(1j * angles),
            (inner - 1e-12) * np.exp(1j * angles),
            cusps,
            rng.uniform(-d, d, 400) + 1j * rng.uniform(-d, d, 400),
        ]
    )
    # the unfiltered rule: nonzero winding, else within tol + sagitta
    poly = hypocycloid_boundary(d, samples)
    xy = np.column_stack([pts.real, pts.imag])
    expected = _winding_numbers(poly, xy) != 0
    expected[~expected] = _dist_to_polyline(poly, xy[~expected]) <= 1e-9 + sagitta
    assert hypocycloid_contains_many(pts.tolist(), d, 1e-9, samples).tolist() == expected.tolist()
    assert hypocycloid_contains_many(cusps, d, 1e-9, samples).all()


def test_sagitta_bound_scales():
    assert polygon_sagitta_bound(6, 4096) < 1e-5
    assert polygon_sagitta_bound(6, 8192) < polygon_sagitta_bound(6, 4096)


def test_degenerate_two_cusp():
    # d = 2 collapses to the segment [-2, 2] on the real axis
    assert hypocycloid_contains(1.5, 2)
    assert not hypocycloid_contains(1.5 + 0.1j, 2)


def test_orbit_check_small():
    report = hypocycloid_orbit_check(19, 6)
    assert report.passed, report.to_json()
    assert 0 < report.info["fill_ratio"] <= 1


def test_boundary_validation():
    with pytest.raises(ValueError):
        hypocycloid_boundary(1)
    with pytest.raises(ValueError):
        hypocycloid_boundary(4, 5)
