"""Linear Born rates: closed forms, 1D reduction, validity bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from locfield.born import (ORIENTATIONS, RateBreakdown, SphereConfig,
                           ValidityReport, _moments, gamma_b_center_closed,
                           gamma_b_sphere_linear, gamma_b_sphere_rows,
                           gamma_c_linear, gamma_total_linear, quad,
                           validity_check)
from locfield.errors import AccuracyError, DomainError
from locfield.greens import (StarBoundary, _brace_coeffs, _gauss_legendre,
                             _sphere_distance, f_integrand)


# -- configuration records ----------------------------------------------------


def test_sphere_config_invariants():
    cfg = SphereConfig(q_R=2.0, q_L=0.5, q_C=0.01)
    assert cfg.boundary().q_max == 2.5
    with pytest.raises(DomainError):
        SphereConfig(q_R=0.0)
    with pytest.raises(DomainError):
        SphereConfig(q_R=2.0, q_L=-0.1)
    with pytest.raises(DomainError):
        SphereConfig(q_R=2.0, nu=-1.0)
    # emitter cavity reaching the surface is rejected
    with pytest.raises(DomainError):
        SphereConfig(q_R=1.0, q_L=0.995, q_C=0.01)
    with pytest.raises(DomainError):
        SphereConfig(q_R=1.0, q_L=0.97, q_C=0.01, nu=2.5)


def test_cavity_radius_guard_rails():
    with pytest.warns(UserWarning):
        gamma_c_linear(0.1 + 0j, 0.15)
    with pytest.raises(DomainError):
        gamma_c_linear(0.1 + 0j, 0.25)
    with pytest.warns(UserWarning):
        SphereConfig(q_R=2.0, q_C=0.15)


def test_rate_breakdown_identity():
    b = RateBreakdown.from_parts(0.125, -0.25)
    assert b.total_ratio == 1.0 + 0.125 - 0.25
    with pytest.raises(DomainError):
        RateBreakdown(gamma_c_ratio=0.1, gamma_b_ratio=0.2,
                      total_ratio=1.25)


# -- cavity term ---------------------------------------------------------------


def test_gamma_c_linear_values():
    # pure absorption: Im chi (1/q_C^3 + 1/q_C)
    assert_allclose(gamma_c_linear(1e-6j, 0.01), 1.0001, rtol=1e-12)
    # transparent: (7/6) Re chi
    assert_allclose(gamma_c_linear(0.12, 0.01), 0.14, rtol=1e-14)
    with pytest.raises(DomainError):
        gamma_c_linear(0.1 - 1e-9j, 0.01)
    with pytest.raises(DomainError):
        gamma_c_linear(complex(np.inf, 0), 0.01)


# -- body term -----------------------------------------------------------------


def test_center_closed_form_matches_quadrature():
    for q_R in (0.5, 1.556, 4.0, 9.3):
        for chi in (0.05, 0.1 + 1e-8j, 0.2 + 1e-7j):
            cfg = SphereConfig(q_R=q_R, q_L=0.0, q_C=0.01)
            g_quad = gamma_b_sphere_linear(cfg, chi, "radial")
            g_closed = gamma_b_center_closed(q_R, chi)
            assert abs(g_quad - g_closed) <= 1e-10 * max(abs(g_closed), 1.0)


def test_body_term_linearity_in_chi():
    cfg = SphereConfig(q_R=3.0, q_L=1.0, q_C=0.01)
    g1 = gamma_b_sphere_linear(cfg, 0.05, "tangential")
    g2 = gamma_b_sphere_linear(cfg, 0.10, "tangential")
    assert_allclose(g2, 2.0 * g1, rtol=1e-10)
    # additive over independent real/imaginary parts
    ga = gamma_b_sphere_linear(cfg, 0.1, "radial")
    gb = gamma_b_sphere_linear(cfg, 1e-3j, "radial")
    gab = gamma_b_sphere_linear(cfg, 0.1 + 1e-3j, "radial")
    assert_allclose(gab, ga + gb, atol=1e-12)


def test_center_large_sphere_oscillation_bound():
    # gamma_b -> -(chi/2) cos(2 q_R) with remainder below 2 chi / q_R
    chi = 0.1
    for q_R in (10.0, 15.0, 22.0, 40.0):
        g = gamma_b_center_closed(q_R, chi)
        assert abs(g + 0.5 * chi * np.cos(2 * q_R)) <= 2.0 * chi / q_R


def test_orientation_degeneracy_at_center():
    chi = 0.1 + 1e-8j
    for q_R in (1.0, 2.0, 5.0):
        cfg = SphereConfig(q_R=q_R, q_L=0.0, q_C=0.01)
        gr = gamma_b_sphere_linear(cfg, chi, "radial")
        gt = gamma_b_sphere_linear(cfg, chi, "tangential")
        assert abs(gr - gt) <= 1e-12


def test_body_term_zero_chi_and_validation():
    cfg = SphereConfig(q_R=2.0)
    assert gamma_b_sphere_linear(cfg, 0.0) == 0.0
    with pytest.raises(DomainError):
        gamma_b_sphere_linear(cfg, 0.1, "diagonal")
    with pytest.raises(DomainError):
        gamma_b_sphere_linear(cfg, 0.1, tol=0.0)
    with pytest.raises(DomainError):
        gamma_b_center_closed(-1.0, 0.1)


def _split_quad_body_term(q_R, q_L, chi, orientation):
    """gamma_b of a displaced emitter by adaptive scipy quadrature in
    x = cos(theta), split where the integrand steepens toward the
    surface at x = 1.  The azimuthal average of (s.d)^2 is taken at
    phi = pi/4, where the tangential d = x-hat sees (1 - x^2)/2."""
    from scipy.integrate import quad
    q_outer = StarBoundary.sphere(q_R, q_L).q_outer
    d = np.array([0.0, 0.0, 1.0] if orientation == "radial"
                 else [1.0, 0.0, 0.0])

    def rate_density(x):
        sin_t = np.sqrt(1.0 - x * x) / np.sqrt(2.0)
        s = np.array([sin_t, sin_t, x])
        F = f_integrand(float(q_outer(np.arccos(x), 0.0)), s)
        return -0.75 * np.imag(chi * (d @ F @ d))

    cuts = (-1.0, 0.0, 0.5, 0.9, 0.99, 0.999, 1.0)
    return sum(quad(rate_density, a, b, epsabs=1e-14, epsrel=1e-13,
                    limit=200)[0] for a, b in zip(cuts[:-1], cuts[1:]))


@pytest.mark.parametrize("q_R, q_L", [
    (5.0, 3.0), (50.0, 30.0), (10.0, 9.9), (1.0, 0.9899), (0.5, 0.4899),
    (50.0, 49.98), (200.0, 199.98)])
@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_body_term_off_center_matches_split_quadrature(q_R, q_L,
                                                       orientation):
    # the near-surface cases come within 1e-4 q_R of the clearance limit
    # q_L + q_C = q_R
    chi = 0.1 + 1e-8j
    cfg = SphereConfig(q_R=q_R, q_L=q_L, q_C=0.01)
    got = gamma_b_sphere_linear(cfg, chi, orientation)
    want = _split_quad_body_term(q_R, q_L, chi, orientation)
    assert abs(got - want) <= 1e-12


def test_body_term_refuses_unsettled_rule():
    # at q_R = 1000 and a distance 0.02 from the surface, the spike of the
    # integrand at x = 1 is too narrow for 2048 nodes
    cfg = SphereConfig(q_R=1000.0, q_L=999.98, q_C=0.01)
    for orientation in ORIENTATIONS:
        with pytest.raises(AccuracyError, match="n = 2048"):
            gamma_b_sphere_linear(cfg, 0.1 + 1e-8j, orientation)


# the two rates the rule gives up on, as it words them
UNSETTLED = {
    "radial": "1D Gauss-Legendre rule did not settle to 1e-10 by n = 2048; "
              "last change 6.688e-05",
    "tangential": "1D Gauss-Legendre rule did not settle to 1e-10 by "
                  "n = 2048; last change 5.319e-05",
}


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_body_term_rows_fail_one_by_one(orientation):
    # rows that settle at n = 128 around the row q_R = 1000, q_L = 999.98
    # that does not settle by n = 2048: only that row reports the error
    q_R = np.array([2.0, 1000.0, 5.0, 50.0, 1.0])
    q_L = np.array([0.5, 999.98, 3.0, 10.0, 0.0])
    chi = 0.1 + 1e-8j
    values, errors = gamma_b_sphere_rows(q_R, q_L, chi, orientation)
    assert list(errors) == [1]
    assert isinstance(errors[1], AccuracyError)
    assert str(errors[1]) == UNSETTLED[orientation]
    assert np.isnan(values[1])
    with pytest.raises(AccuracyError) as scalar:
        gamma_b_sphere_linear(SphereConfig(q_R=1000.0, q_L=999.98),
                              chi, orientation)
    assert str(scalar.value) == UNSETTLED[orientation]
    for k in (0, 2, 3, 4):
        want = gamma_b_sphere_linear(SphereConfig(q_R=q_R[k], q_L=q_L[k]),
                                     chi, orientation)
        assert abs(values[k] - want) <= 1e-13 * abs(want)


def _full_node_terms(q_R, q_L, x):
    # P and Q of the chi-free rate density f = P + z Q at every node of
    # each geometry, no distance shared: the reference for the moments
    return _brace_coeffs(_sphere_distance(q_R, q_L, x))


def _full_node_row(q_R, q_L, chi, orientation):
    # one row alone in the paper's order, -(3/4) Im[chi Int f dx] with
    # f = P + z Q chi-free, Int f dx taken as Int P + Int z Q and z = x^2
    # (radial) or (1 - x^2)/2 (tangential): the values the rows must
    # equal bit for bit
    def rule(x, w, idx):
        P, Q = (a[None, :] for a in _full_node_terms(q_R, q_L, x))
        m0, m1, m2 = ((P * w).sum(axis=1), (Q * w).sum(axis=1),
                      (Q * (w * x * x)).sum(axis=1))
        integral = m0 + m2 if orientation == "radial" else m0 + 0.5 * (m1 - m2)
        return -0.75 * (chi * integral).imag

    values, _ = quad(rule, 1, 1.0e-10)
    return values[0]


def test_body_term_rows_share_geometries_bit_for_bit():
    # geometries shared across a complex and a real chi and both
    # orientations, centered rows, and the geometry that does not settle
    rows = [
        (5.0, 3.0, 0.1 + 1e-8j, "radial"),
        (1000.0, 999.98, 0.1 + 1e-8j, "radial"),
        (2.0, 0.0, 0.1 + 1e-8j, "tangential"),
        (5.0, 3.0, 0.2, "tangential"),
        (2.0, 0.0, 0.2, "radial"),
        (50.0, 30.0, 0.1 + 1e-8j, "tangential"),
        (5.0, 3.0, 0.2, "radial"),
        (1000.0, 999.98, 0.1 + 1e-8j, "tangential"),
        (7.0, 0.0, 0.05j, "radial"),
        (5.0, 3.0, 0.1 + 1e-8j, "tangential"),
        (2.0, 0.5, 0.2, "tangential"),
        (50.0, 30.0, 0.1 + 1e-8j, "radial"),
    ]
    q_R, q_L, chi, orientation = zip(*rows)
    values, errors = gamma_b_sphere_rows(q_R, q_L, chi, orientation)
    assert {k: str(exc) for k, exc in errors.items()} == {
        1: UNSETTLED["radial"], 7: UNSETTLED["tangential"]}
    for k, (qr, ql, c, o) in enumerate(rows):
        if k in errors:
            assert np.isnan(values[k])
            continue
        assert values[k] == gamma_b_sphere_linear(
            SphereConfig(q_R=qr, q_L=ql), c, o), rows[k]
        assert values[k] == _full_node_row(qr, ql, c, o), rows[k]


def test_centered_geometry_is_one_column_equal_to_its_nodes(monkeypatch):
    x, w = _gauss_legendre(128)
    q_R = np.array([0.5, 2.0, 5.0, 7.3, 1000.0 / 3.0])
    q_L = np.array([0.0, 1.5, 0.0, 0.0, 100.0])
    for qr in q_R:
        assert np.all(_sphere_distance(qr, 0.0, x) == qr)
    # the moments of a centered geometry come from one distance, in the
    # one brace/Ei/phase call of the block; they equal those of every
    # node evaluated, to the byte
    sizes = []

    def brace_coeffs(q):
        sizes.append(np.size(q))
        return _brace_coeffs(q)

    monkeypatch.setattr("locfield.born._brace_coeffs", brace_coeffs)
    moments = _moments(q_R, q_L, x, w)
    assert sizes == [3 + 2 * x.size]
    P, Q = _full_node_terms(q_R[:, None], q_L[:, None], x)
    full = np.stack([(P * w).sum(axis=1), (Q * w).sum(axis=1),
                     (Q * (w * x * x)).sum(axis=1)])
    assert moments.tobytes() == full.tobytes()
    # and a geometry's moments do not depend on the geometries beside it
    for k in range(q_R.size):
        alone = _moments(q_R[k:k + 1], q_L[k:k + 1], x, w)
        assert alone.tobytes() == full[:, k:k + 1].tobytes()


# a sphere geometry (q_R, q_L), the emitter at the center or off it by
# q_R (1 - gap) with the gap to the surface from 0.01 q_R to 0.9 q_R, so
# that rows settle at different passes; and a passive chi: real,
# complex or purely imaginary
_GEOMETRIES = st.builds(
    lambda q_R, gap: (q_R, q_R * (1.0 - gap)), st.floats(0.3, 50.0),
    st.one_of(st.just(1.0), st.floats(-2.0, -0.05).map(lambda e: 10.0**e)))
_PARTS = st.floats(0.0, 0.3, allow_subnormal=False)
_CHIS = st.one_of(st.builds(lambda re, sign: complex(sign * re), _PARTS,
                            st.sampled_from((1.0, -1.0))),
                  st.builds(lambda im: 1j * im, _PARTS),
                  st.builds(complex, _PARTS, _PARTS))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_GEOMETRIES, min_size=1, max_size=3).flatmap(
    lambda geometries: st.lists(st.tuples(
        st.sampled_from(geometries), _CHIS, st.sampled_from(ORIENTATIONS)),
        min_size=1, max_size=8)), data=st.data())
def test_body_term_rows_equal_their_single_rows(rows, data):
    # a shuffled batch sharing a few geometries, centered ones among
    # them: every row is its own gamma_b_sphere_linear call, to the bit
    rows = data.draw(st.permutations(rows))
    geometries, chi, orientation = zip(*rows)
    q_R, q_L = zip(*geometries)
    values, errors = gamma_b_sphere_rows(q_R, q_L, chi, orientation)
    for k, ((qr, ql), c, o) in enumerate(rows):
        config = SphereConfig(q_R=qr, q_L=ql, q_C=1e-3)
        if k in errors:  # a row that does not settle fails alone, too
            with pytest.raises(AccuracyError) as single:
                gamma_b_sphere_linear(config, c, o)
            assert str(single.value) == str(errors[k]), rows[k]
            assert np.isnan(values[k])
        else:
            assert values[k] == gamma_b_sphere_linear(config, c, o), rows[k]


def test_body_term_rows_broadcast_and_zero_chi():
    values, errors = gamma_b_sphere_rows(3.0, [0.0, 1.0, 2.0],
                                         [0.1, 0.0, 0.05j], "tangential")
    assert errors == {} and values.shape == (3,)
    assert values[1] == 0.0
    assert values[0] == gamma_b_sphere_linear(SphereConfig(q_R=3.0), 0.1,
                                              "tangential")
    # every row is checked, once, as arrays: emitter inside the sphere,
    # chi finite and passive
    for q_L, chi, message in ((2.0, 0.1, "emitter inside sphere"),
                              (0.5, 0.1 - 1j, "passive"),
                              (0.5, np.nan, "chi must be finite")):
        with pytest.raises(DomainError, match=message):
            gamma_b_sphere_rows([1.0, 1.0], [0.0, q_L], [0.1, chi])


# -- assembled rate -------------------------------------------------------------


def test_total_linear_bulk():
    out = gamma_total_linear(StarBoundary.bulk(), 0.12, q_C=0.01)
    assert_allclose(out.total_ratio, 1.0 + 7.0 * 0.12 / 6.0, rtol=1e-14)
    assert out.gamma_b_ratio == 0.0
    with pytest.raises(DomainError):
        gamma_total_linear(StarBoundary.bulk(), 0.12)     # q_C missing


def test_total_linear_sphere_paths_agree():
    chi = 0.1 + 1e-8j
    cfg = SphereConfig(q_R=5.0, q_L=1.0, q_C=0.01)
    via_1d = gamma_total_linear(cfg, chi, orientation="tangential")
    via_2d = gamma_total_linear(StarBoundary.sphere(5.0, 1.0), chi,
                                q_C=0.01, dipole=[1.0, 0.0, 0.0])
    assert abs(via_1d.total_ratio - via_2d.total_ratio) < 1e-8
    with pytest.raises(DomainError):
        gamma_total_linear(cfg, chi, q_C=0.02)   # conflicting q_C
    with pytest.raises(DomainError):
        gamma_total_linear(3.0, chi)             # unsupported geometry


def test_total_linear_vs_exact_small_chi():
    # one figure-scale spot check against the independent Mie route
    from locfield.mie import gamma_center_exact
    chi = 0.1 + 1e-8j
    cfg = SphereConfig(q_R=2.0, q_L=0.0, q_C=0.01)
    lin = gamma_total_linear(cfg, chi).total_ratio
    exact = gamma_center_exact(1.0 + chi, 2.0, 0.01)
    assert abs(lin - exact) < 0.01


# -- validity report -------------------------------------------------------------


def test_validity_examples():
    r = validity_check(None, 1e-2, q_C=0.01)
    assert r.chi_size_ok and r.absorption_ok and r.all_ok
    assert_allclose(r.chi_size_value, 1e-2, rtol=1e-15)
    r = validity_check(None, 2.0, q_C=0.01)
    assert not r.chi_size_ok
    r = validity_check(None, 0.0, q_C=0.01)
    assert r.chi_size_value == 0.0 and r.absorption_value == 0.0
    assert r.all_ok
    # the numbers are checked: q_C as a cavity radius, boundary_max > 0
    for kwargs in ({"q_C": 0.0}, {"q_C": -0.01}, {"q_C": 0.5},
                   {"q_C": 0.01, "boundary_max": np.nan},
                   {"q_C": 0.01, "boundary_max": -1.0}):
        with pytest.raises(DomainError):
            validity_check(None, 0.1, **kwargs)


def test_validity_sphere_geometry():
    cfg = SphereConfig(q_R=2.0, q_L=1.0, q_C=0.01)
    r = validity_check(cfg, 0.09 + 2e-7j)
    assert_allclose(r.chi_size_value, abs(0.09 + 2e-7j) * 3.0, rtol=1e-15)
    assert_allclose(r.absorption_value, 2e-7 / 0.01**3, rtol=1e-12)
    assert r.chi_size_ok and not r.absorption_ok
    # explicit overrides win
    r2 = validity_check(cfg, 0.1, boundary_max=10.0)
    assert not r2.chi_size_ok
    with pytest.raises(DomainError):
        validity_check(None, 0.1)   # bulk needs q_C


def test_validity_report_is_plain_data():
    r = ValidityReport(0.1, True, 0.0, True)
    assert r.all_ok
    r = ValidityReport(0.1, True, 1.0, False)
    assert not r.all_ok


def test_orientations_constant():
    assert ORIENTATIONS == ("radial", "tangential")
