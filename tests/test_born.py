"""Linear Born rates: closed forms, 1D reduction, validity bookkeeping."""

import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from locfield import rates
from locfield.born import (_CLOSED_FORM_REL, _RULE_BLOCK, ORIENTATIONS,
                           RateBreakdown, ValidityReport, _center_rows,
                           _certified, _gamma_b_rows, _gauss_rule,
                           _validity_report, gamma_b_sphere_linear,
                           gamma_c_linear, gamma_total_linear, quad,
                           validity_check)
from locfield.errors import AccuracyError, DomainError
from locfield.greens import (StarBoundary, _brace_coeffs, _brace_parts,
                             _gauss_legendre, _sphere_moments, f_integrand)
from locfield.rates import RateRequest, compute
from moment_reference import mp_body_term, mp_sphere_moments


# -- configuration records ----------------------------------------------------


def test_cavity_radius_guard_rails():
    with pytest.warns(UserWarning):
        gamma_c_linear(0.1 + 0j, 0.15)
    with pytest.raises(DomainError):
        gamma_c_linear(0.1 + 0j, 0.25)
    with pytest.warns(UserWarning):
        RateRequest(eps=1.1, method="linear_born", q_R=2.0, q_C=0.15)


def test_rate_breakdown_identity():
    b = RateBreakdown(0.125, -0.25)
    assert b.total_ratio == 1.0 + 0.125 - 0.25
    # the total is formed from the parts, never given
    with pytest.raises(TypeError):
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


@pytest.mark.parametrize("chi", [None, [0.1], "abc", ["x"],
                                 [[0.1], [0.1, 0.2]]])
def test_chi_must_be_a_number(chi):
    # a chi that complex() refuses is a DomainError naming it, as an eps
    # is, in every function that takes one chi
    message = f"^chi must be a number, got {re.escape(repr(chi))}$"
    for call in (lambda: gamma_c_linear(chi, 0.01),
                 lambda: gamma_b_sphere_linear(2.0, 0.0, chi),
                 lambda: gamma_b_sphere_linear(2.0, 0.5, chi),
                 lambda: gamma_total_linear(StarBoundary.bulk(), chi, 0.01),
                 lambda: validity_check(StarBoundary.bulk(), chi, 0.01)):
        with pytest.raises(DomainError, match=message):
            call()


# -- body term -----------------------------------------------------------------


def _rows(q_R, q_L, chi, orientation="radial"):
    """The row kernel on scalars or sequences, broadcast to (N,) arrays
    of the kernel's dtypes, as compute's columns hand it its rows."""
    return _gamma_b_rows(*(a.ravel() for a in np.broadcast_arrays(
        np.asarray(q_R, float), np.asarray(q_L, float),
        np.asarray(chi, complex), np.asarray(orientation))))


def test_center_closed_form_matches_quadrature():
    # a centred row is the closed form in either orientation; the
    # reference is scipy's adaptive quadrature of the angular integral
    for q_R in (0.5, 1.556, 4.0, 9.3):
        for chi in (0.05, 0.1 + 1e-8j, 0.2 + 1e-7j):
            g_closed = gamma_b_sphere_linear(q_R, 0.0, chi)
            assert gamma_b_sphere_linear(q_R, 0.0, chi,
                                         "tangential") == g_closed
            want = _split_quad_body_term(q_R, 0.0, chi, "radial")
            assert abs(want - g_closed) <= 1e-10 * max(abs(g_closed), 1.0)


def test_body_term_linearity_in_chi():
    cfg = (3.0, 1.0)
    g1 = gamma_b_sphere_linear(*cfg, 0.05, "tangential")
    g2 = gamma_b_sphere_linear(*cfg, 0.10, "tangential")
    assert_allclose(g2, 2.0 * g1, rtol=1e-10)
    # additive over independent real/imaginary parts
    ga = gamma_b_sphere_linear(*cfg, 0.1, "radial")
    gb = gamma_b_sphere_linear(*cfg, 1e-3j, "radial")
    gab = gamma_b_sphere_linear(*cfg, 0.1 + 1e-3j, "radial")
    assert_allclose(gab, ga + gb, atol=1e-12)


def test_center_large_sphere_oscillation_bound():
    # gamma_b -> -(chi/2) cos(2 q_R) with remainder below 2 chi / q_R
    chi = 0.1
    for q_R in (10.0, 15.0, 22.0, 40.0):
        g = gamma_b_sphere_linear(q_R, 0.0, chi)
        assert abs(g + 0.5 * chi * np.cos(2 * q_R)) <= 2.0 * chi / q_R


def _mp_center_rate(q_R, chi):
    # Tomas's closed form at 40 digits, at the double q_R and chi
    with mpmath.workdps(40):
        t = 1 / mpmath.mpf(q_R)
        c = mpmath.mpc(chi.real, chi.imag)
        return -mpmath.im(c * (t**3 - t + 1j * (mpmath.mpf(0.5) - 2 * t**2))
                          * mpmath.expj(2 * mpmath.mpf(q_R)))


@pytest.mark.parametrize("chi", [0.1, -0.3, 1e-3j, 0.3j, 0.1 + 1e-8j,
                                 0.2 + 0.2j])
def test_center_rows_against_mpmath(chi):
    # every centred row returned is within its rounding bound and the
    # fixed tol of the 40-digit rate; every row refused has its bound
    # above tol, and none of them is at q_R >= 0.05; the orientations
    # agree to the bit
    tol = 1.0e-10
    q_R = np.logspace(-6, 3, 181)
    values, errors = _rows(q_R, 0.0, chi, "radial")
    tangential, t_errors = _rows(q_R, 0.0, chi, "tangential")
    assert tangential.tobytes() == values.tobytes()
    assert {k: str(e) for k, e in t_errors.items()} == {
        k: str(e) for k, e in errors.items()}
    _, bounds = _center_rows(q_R, np.full(q_R.size, complex(chi)))
    assert 0 < len(errors) < q_R.size
    for k, q in enumerate(q_R.tolist()):
        if k in errors:
            assert isinstance(errors[k], AccuracyError)
            assert f"at q_R = {q:g} may be off by" in str(errors[k])
            assert bounds[k] > tol and q < 0.05 and np.isnan(values[k])
            continue
        err = abs(mpmath.mpf(values[k]) - _mp_center_rate(q, complex(chi)))
        assert err <= bounds[k] <= tol, q


def test_center_rows_refuse_tiny_spheres():
    # at chi = 0.1 the rule returned these off by 8.6e-10 and 3.0e-7
    chi = 0.1
    for q_R, text in ((1e-4, "5.8e-08"), (1e-5, "5.8e-06")):
        for orientation in ORIENTATIONS:
            with pytest.raises(AccuracyError) as refused:
                gamma_b_sphere_linear(q_R, 0.0, chi, orientation)
            assert str(refused.value) == (
                f"linear centre rate at q_R = {q_R:g} may be off by {text} "
                f"from rounding, above tol = 1e-10")
    # where t^3 leaves double range: typed errors and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match="q_R = 1e-120 may be off "
                           "by inf"):
            gamma_b_sphere_linear(1e-120, 0.0, chi)


def test_offcentre_rule_refuses_tiny_spheres():
    # the Gauss-Legendre rule this rule replaced returned
    # -0.11666666637193909 here, 4.2e-10 from the 40-digit rate, at
    # tol = 1e-10
    chi = 0.1
    values, errors = _rows(1e-4, 3e-5, chi)
    assert np.isnan(values[0])
    assert isinstance(errors[0], AccuracyError)
    assert str(errors[0]) == ("linear body rate at q_R = 0.0001, q_L = "
                              "3e-05 may be off by 3.0e-07 from rounding, "
                              "above tol = 1e-10")
    # the rows its bound admits are within tol of the 40-digit rate
    for q_R in (0.01, 0.1, 1.0):
        for orientation in ORIENTATIONS:
            values, errors = _rows(q_R, 0.3 * q_R, chi, orientation)
            assert errors == {}, (q_R, orientation)
            want = mp_body_term(q_R, 0.3 * q_R, chi, orientation)
            assert abs(values[0] - want) <= 1e-10, (q_R, orientation)
    # where 1/q^3 leaves double range: a typed error and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, errors = _rows(1e-120, 3e-121, chi)
        assert "has a rounding bound that is not a number" in str(errors[0])


def test_orientation_degeneracy_at_center():
    chi = 0.1 + 1e-8j
    for q_R in (1.0, 2.0, 5.0):
        gr = gamma_b_sphere_linear(q_R, 0.0, chi, "radial")
        gt = gamma_b_sphere_linear(q_R, 0.0, chi, "tangential")
        assert abs(gr - gt) <= 1e-12


def test_body_term_zero_chi_and_validation():
    assert gamma_b_sphere_linear(2.0, 0.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        gamma_b_sphere_linear(2.0, 0.0, 0.1, "diagonal")
    # the tolerance is fixed at 1e-10, not a parameter
    with pytest.raises(TypeError):
        gamma_b_sphere_linear(2.0, 0.0, 0.1, tol=1e-12)
    with pytest.raises(TypeError):
        gamma_total_linear(StarBoundary.bulk(), 0.1, 0.01, tol=1e-12)
    with pytest.raises(DomainError):
        gamma_b_sphere_linear(-1.0, 0.0, 0.1)


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
    got = gamma_b_sphere_linear(q_R, q_L, chi, orientation)
    want = _split_quad_body_term(q_R, q_L, chi, orientation)
    assert abs(got - want) <= 1e-12


def test_body_term_settles_at_the_surface_edge():
    # at q_R = 1000 and a distance 0.02 from the surface, the spike of the
    # integrand at x = 1 is too narrow for 2048 Gauss-Legendre nodes; the
    # closed form of the moments takes it with no quadrature
    chi = 0.1 + 1e-8j
    for orientation in ORIENTATIONS:
        got = gamma_b_sphere_linear(1000.0, 999.98, chi, orientation)
        want = mp_body_term(1000.0, 999.98, chi, orientation)
        assert abs(got - want) <= 1e-12 * abs(want), orientation


# the rate that no route certifies, at q_R = 1e4 and q_L = 9000, in
# either orientation: the closed form's rounding bound on M2, which
# cancels as q_L/q_R falls, is above 1e-13 of M2 below q_L/q_R of about
# 0.94 there, and the rule's truncation estimate above about 0.66
UNCERTIFIED = ("linear body rate at q_R = 10000, q_L = 9000 has moments "
               "that may be off by 1.7e-07 of themselves, above 1e-13")


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_body_term_rows_fail_one_by_one(orientation):
    # rows that are formed around the row q_R = 1e4, q_L = 9000 that no
    # route certifies: only that row reports the error
    q_R = np.array([2.0, 1e4, 5.0, 50.0, 1.0])
    q_L = np.array([0.5, 9000.0, 3.0, 10.0, 0.0])
    chi = 0.1 + 1e-8j
    values, errors = _rows(q_R, q_L, chi, orientation)
    assert list(errors) == [1]
    assert isinstance(errors[1], AccuracyError)
    assert str(errors[1]) == UNCERTIFIED
    assert np.isnan(values[1])
    with pytest.raises(AccuracyError) as scalar:
        gamma_b_sphere_linear(1e4, 9000.0, chi, orientation)
    assert str(scalar.value) == UNCERTIFIED
    for k in (0, 2, 3, 4):
        want = gamma_b_sphere_linear(q_R[k], q_L[k], chi, orientation)
        assert abs(values[k] - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("orientation", ORIENTATIONS)
def test_rule_returns_large_spheres_near_their_centre(orientation):
    # at q_R = 1e5 the Gauss-Legendre rule this rule replaced did not
    # settle by 2048 nodes from q_L of about 1000 on, and the closed form
    # cancels: the rule returns the 40-digit rate to tol
    chi = 0.1 + 1e-8j
    q_L = np.array([1000.0, 1500.0, 2000.0, 50000.0])
    values, errors = _rows(1e5, q_L, chi, orientation)
    assert errors == {}
    for k, ql in enumerate(q_L.tolist()):
        want = mp_body_term(1e5, ql, chi, orientation)
        assert abs(values[k] - want) <= 1e-10, ql


def _route_row(q_R, q_L, chi, orientation, tol=1.0e-10,
               kernel=_sphere_moments):
    # one row alone from the moments of its geometry by one kernel, the
    # closed form, the Gauss rule or the Filon rule, in the kernel's
    # order, or from the centre's closed form, or None where the kernel's
    # bound does not certify the row: the values the rows must equal bit
    # for bit
    if q_L == 0.0:
        return _center_rows(np.array([q_R]), np.array([complex(chi)]))[0][0]
    moments, bounds = kernel(np.array([q_R]), np.array([q_L]))
    (m0, m1, m2), (b0, b1, b2) = moments, bounds
    radial = orientation == "radial"
    b, chi = (b0 + b2 if radial else b0 + 0.5 * (b1 + b2))[0], complex(chi)
    if np.iscomplexobj(bounds):  # the real and imaginary parts apart
        error = 0.75 * ((abs(chi.real) * b.imag if chi.real else 0.0)
                        + (abs(chi.imag) * b.real if chi.imag else 0.0))
    else:
        error = 0.75 * abs(chi) * b
    if (np.abs(bounds) > _CLOSED_FORM_REL * np.abs(moments)).any() or (
            error > tol):
        return None
    integral = m0 + m2 if radial else m0 + 0.5 * (m1 - m2)
    return (-0.75 * (chi * integral).imag)[0]


def _closed_form_row(q_R, q_L, chi, orientation):
    return _route_row(q_R, q_L, chi, orientation)


def _gauss_row(q_R, q_L, chi, orientation):
    return _route_row(q_R, q_L, chi, orientation, kernel=_gauss_rule)


def _rule_row(q_R, q_L, chi, orientation):
    return _route_row(q_R, q_L, chi, orientation, kernel=quad)


def _route(q_R, q_L, chi, orientation):
    # the single-row reference of the route a row takes: the closed form
    # where it certifies the row, else the Gauss rule where it does, else
    # the Filon rule where it does, else None
    for row in (_closed_form_row, _gauss_row, _rule_row):
        if row(q_R, q_L, chi, orientation) is not None:
            return row
    return None


def test_body_term_rows_share_geometries_bit_for_bit():
    # geometries shared across a complex and a real chi and both
    # orientations, centered rows, rows that take the closed form, the
    # Gauss rule or the Filon rule, and the geometry that none certifies;
    # the last row's closed-form moments are certified but not its rate
    # (0.75 |chi| times their bound is 5.9e-10), so it goes on to the Gauss
    # rule (9.4e-11)
    rows = [
        (5.0, 3.0, 0.1 + 1e-8j, "radial"),
        (1e4, 9000.0, 0.1 + 1e-8j, "radial"),
        (2.0, 0.0, 0.1 + 1e-8j, "tangential"),
        (5.0, 3.0, 0.2, "tangential"),
        (2.0, 0.0, 0.2, "radial"),
        (50.0, 30.0, 0.1 + 1e-8j, "tangential"),
        (5.0, 3.0, 0.2, "radial"),
        (1e4, 9000.0, 0.1 + 1e-8j, "tangential"),
        (7.0, 0.0, 0.05j, "radial"),
        (5.0, 3.0, 0.1 + 1e-8j, "tangential"),
        (2.0, 0.5, 0.2, "tangential"),
        (50.0, 30.0, 0.1 + 1e-8j, "radial"),
        (5.0, 0.25, 0.2, "radial"),
        (5.0, 0.25, 0.1 + 1e-8j, "tangential"),
        (1e5, 2000.0, 0.3j, "radial"),
        (0.5, 0.1, 1000.0, "radial"),
    ]
    q_R, q_L, chi, orientation = zip(*rows)
    values, errors = _rows(q_R, q_L, chi, orientation)
    assert {k: str(exc) for k, exc in errors.items()} == {
        1: UNCERTIFIED, 7: UNCERTIFIED}
    routes = [_route(*row) for row in rows]
    assert [k for k, r in enumerate(routes) if r is _closed_form_row] == [
        0, 2, 3, 4, 5, 6, 8, 9, 10, 11]
    assert [k for k, r in enumerate(routes) if r is _gauss_row] == [
        12, 13, 15]
    assert [k for k, r in enumerate(routes) if r is _rule_row] == [14]
    for k, (qr, ql, c, o) in enumerate(rows):
        if k in errors:
            assert np.isnan(values[k]) and routes[k] is None
            continue
        assert values[k] == gamma_b_sphere_linear(qr, ql, c, o), rows[k]
        assert values[k] == routes[k](qr, ql, c, o), rows[k]
    # the row the Gauss rule certifies is within the fixed tol of the
    # 40-digit rate
    assert abs(values[15] - mp_body_term(0.5, 0.1, 1000.0, "radial")) <= 1e-10


def test_moments_are_one_call_equal_to_their_nodes(monkeypatch):
    # the rule's amplitudes of all the geometries come from one Ei call
    # over every node; the moments equal the rule written out node by node
    # on P and Q, its weights from scipy's j_l and numpy's P_l
    from scipy.special import spherical_jn
    q_R = np.array([0.5, 2.0, 5.0, 7.3, 1000.0 / 3.0, 1e5])
    q_L = np.array([0.1, 1.5, 0.25, 4.0, 100.0, 2000.0])
    sizes = []

    def brace_parts(q):
        sizes.append(np.size(q))
        return _brace_parts(q)

    monkeypatch.setattr("locfield.born._brace_parts", brace_parts)
    moments, _ = quad(q_R, q_L)
    n = 32
    assert sizes == [q_R.size * n]
    x, w = _gauss_legendre(n)
    legendre = np.polynomial.legendre.legvander(x, n - 1)
    far = np.pi * np.array([-4.0 / 3.0, 4.0, 4.0])
    for k in range(q_R.size):
        r, ql = q_R[k], q_L[k]
        j = spherical_jn(np.arange(n), 2.0 * ql)
        weights = w * (legendre @ ((2 * np.arange(n) + 1) * 1j**np.arange(n)
                                   * j))
        q = r + ql * x
        a = 1.0 + (r * r - ql * ql) / q**2
        cos2 = ((r * r - ql * ql - q * q) / (2.0 * ql * q))**2
        P, Q = _brace_coeffs(q)
        for m, (f, z) in enumerate(((P, 1.0), (Q, 1.0), (Q, cos2))):
            want = (2.0 * far[m] * (1.0 if m < 2 else 1.0 / 3.0)
                    + 0.5 * np.exp(2j * r) * np.sum(
                        weights * (f - far[m]) * np.exp(-2j * q) * a * z))
            assert abs(moments[m, k] - want) <= 1e-13 * abs(want), (k, m)


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
    values, errors = _rows(q_R, q_L, chi, orientation)
    for k, ((qr, ql), c, o) in enumerate(rows):
        if k in errors:  # a row that does not settle fails alone, too
            with pytest.raises(AccuracyError) as single:
                gamma_b_sphere_linear(qr, ql, c, o)
            assert str(single.value) == str(errors[k]), rows[k]
            assert np.isnan(values[k])
        else:
            assert values[k] == gamma_b_sphere_linear(qr, ql, c, o), rows[k]


def test_near_surface_rate_builds_no_rule(monkeypatch):
    # a row the closed form certifies makes no Gauss-Legendre rule, so a
    # first rate in a process does not pay for one (leggauss(2048) alone
    # takes about 0.8 s)
    def no_rule(n):
        raise AssertionError(f"Gauss-Legendre rule of {n} nodes asked for")

    monkeypatch.setattr("locfield.born._gauss_legendre", no_rule)
    for orientation in ORIENTATIONS:
        gamma_b_sphere_linear(200.0, 199.98, 0.1 + 1e-8j, orientation)


@pytest.mark.parametrize("q_R", [0.5, 1.0, 5.0, 20.0, 50.0])
def test_closed_form_agrees_with_the_rule_where_both_settle(q_R):
    # where both routes certify a row they agree, and each gives the
    # 40-digit rate
    chi = 0.1 + 1e-8j
    checked = 0
    for ratio in (0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 0.99):
        for orientation in ORIENTATIONS:
            closed = _closed_form_row(q_R, q_R * ratio, chi, orientation)
            rule = _rule_row(q_R, q_R * ratio, chi, orientation)
            if closed is None or rule is None:
                continue
            checked += 1
            want = mp_body_term(q_R, q_R * ratio, chi, orientation)
            scale = max(1.0, abs(want))
            assert abs(closed - rule) <= 1e-12 * scale
            assert abs(closed - want) <= 1e-12 * scale
            assert abs(rule - want) <= 1e-12 * scale
    assert checked >= 4


# geometries on both sides of the routing boundaries: the Gauss rule
# hands over to the closed form where q_L/q_R passes about 0.17 (M2's
# rounding bound falls below 1e-13 of M2), and to the Filon rule in
# spheres of q_R above about 15 where q_L passes about 1.47 (the Gauss
# rule's truncation)
_NEAR_BOUNDARY = st.one_of(
    st.builds(lambda q_R, ratio: (q_R, q_R * ratio), st.floats(0.3, 50.0),
              st.floats(0.05, 0.6)),
    st.tuples(st.floats(15.0, 50.0), st.floats(1.0, 3.5)))


@settings(max_examples=40, deadline=2000, derandomize=True, database=None)
@given(rows=st.lists(st.tuples(_NEAR_BOUNDARY, _CHIS,
                               st.sampled_from(ORIENTATIONS)),
                     min_size=1, max_size=4))
@example(rows=[((1.0, 0.15), 0.1, "radial"), ((1.0, 0.2), 0.1, "radial"),
               ((20.0, 1.45), 0.1j, "tangential"),
               ((20.0, 1.5), 0.1j, "tangential")])
def test_body_term_is_continuous_across_the_routing_boundary(rows):
    # whichever route a row takes, it gives the 40-digit rate to 1e-12,
    # and a batch gives each row's single value to the bit
    geometries, chi, orientation = zip(*rows)
    q_R, q_L = zip(*geometries)
    values, errors = _rows(q_R, q_L, chi, orientation)
    assert errors == {}
    for k, ((qr, ql), c, o) in enumerate(rows):
        assert values[k] == gamma_b_sphere_linear(qr, ql, c, o), rows[k]
        want = mp_body_term(qr, ql, c, o)
        assert abs(values[k] - want) <= 1e-12 * max(1.0, abs(want))


def test_rows_past_the_gauss_rule_reach_the_filon_rule(monkeypatch):
    # only the geometries that neither the closed form nor the Gauss rule
    # certifies go to the Filon rule, in one call: their values are its
    # own, bit for bit, and its refusals name their bound
    rows = [(100.0, 10.0, 0.1 + 1e-8j, "radial"),  # between the other two
            (1e4, 9000.0, 0.1 + 1e-8j, "tangential"),  # none
            (1e-4, 3e-5, 0.1, "radial"),  # over the rule's rounding bound
            (5.0, 0.25, 0.2, "radial"),  # the Gauss rule
            (5.0, 3.0, 0.2, "tangential")]  # the closed form
    seen = []

    def spy(q_R, q_L):
        seen.append(len(q_R))
        return quad(q_R, q_L)

    monkeypatch.setattr("locfield.born.quad", spy)
    q_R, q_L, chi, orientation = zip(*rows)
    values, errors = _rows(q_R, q_L, chi, orientation)
    assert seen == [3]
    assert {k: str(exc) for k, exc in errors.items()} == {
        1: UNCERTIFIED,
        2: "linear body rate at q_R = 0.0001, q_L = 3e-05 may be off by "
           "3.0e-07 from rounding, above tol = 1e-10"}
    assert [_route(*row) for row in rows] == [_rule_row, None, None,
                                              _gauss_row, _closed_form_row]
    for k in (0, 3, 4):
        assert values[k] == _route(*rows[k])(*rows[k])


# the rule's reach: its bound certifies a geometry out to q_L/q_R of
# about 0.65 for q_R up to 5, 0.55 at q_R = 50, 0.66 at q_R = 1e4 and
# 0.7 at q_R = 1e5
RULE_EDGE = {1e-3: 0.65, 0.05: 0.65, 1.0: 0.65, 5.0: 0.7, 20.0: 0.59,
             100.0: 0.55, 1e3: 0.6, 1e5: 0.7}


def test_rule_moments_against_mpmath():
    # within 1e-14 of the 40-digit moments wherever the bound certifies a
    # geometry, out to the rule's edge, each part within its part of the
    # bound
    errors = []
    for q_R, edge in RULE_EDGE.items():
        q_L = q_R * edge * np.array([1e-4, 0.02, 0.1, 0.3, 0.6, 0.85, 1.0])
        moments, bounds = quad(np.full(q_L.size, q_R), q_L)
        assert _certified(moments, np.abs(bounds)).all(), q_R
        for k, ql in enumerate(q_L):
            want = np.array([complex(m) for m in mp_sphere_moments(q_R, ql)])
            error = moments[:, k] - want
            assert (np.abs(error.real) <= bounds[:, k].real).all(), (q_R, ql)
            assert (np.abs(error.imag) <= bounds[:, k].imag).all(), (q_R, ql)
            errors.extend(np.abs(error) / np.abs(want))
    assert max(errors) <= 1e-14
    assert np.median(errors) <= 2e-16


def test_rule_bound_catches_the_truncation_past_the_edge():
    # past the edge the rule's truncation grows to 1e-7 of a moment, and
    # its estimate stays above it, so no such geometry is certified
    for q_R, q_L in ((0.01, 0.008), (1.0, 0.75), (1.0, 0.9), (20.0, 14.0),
                     (100.0, 70.0), (1e3, 900.0), (1e4, 9000.0),
                     (1e5, 80000.0)):
        moments, bounds = quad(np.array([q_R]), np.array([q_L]))
        assert not _certified(moments, np.abs(bounds))[0], (q_R, q_L)
        want = np.array([complex(m) for m in mp_sphere_moments(q_R, q_L)])
        error = moments[:, 0] - want
        assert (np.abs(error.real) <= bounds[:, 0].real).all(), (q_R, q_L)
        assert (np.abs(error.imag) <= bounds[:, 0].imag).all(), (q_R, q_L)


def test_rule_moments_alone_equal_their_batch():
    # a geometry's moments and bounds do not depend on the geometries
    # beside it, nor on the block it falls in, with no warning past double
    # range
    rng = np.random.default_rng(7)
    q_R = np.r_[0.05, 5.0, 100.0, 1e5, 1e-120, 1e300, 1e308,
                10.0 ** rng.uniform(-2, 5, _RULE_BLOCK)]
    q_L = q_R * np.r_[0.2, 0.05, 0.01, 0.02, 0.3, 1e-300, 1e-308,
                      rng.uniform(0.0, 0.9, _RULE_BLOCK)]
    with np.errstate(all="raise"):
        moments, bounds = quad(q_R, q_L)
    assert _certified(moments, np.abs(bounds))[:7].tolist() == [True] * 4 + [
        False, True, False]
    for k in list(range(7)) + [100, _RULE_BLOCK + 6]:
        # the same bits, NaNs aside, whose sign SIMD lanes may flip
        for alone, batch in zip(quad(q_R[k:k + 1], q_L[k:k + 1]),
                                (moments[:, k:k + 1], bounds[:, k:k + 1])):
            assert_array_equal(alone, batch)
            finite = np.isfinite(batch)
            assert alone[finite].tobytes() == batch[finite].tobytes()


def test_body_term_rows_broadcast_and_zero_chi():
    values, errors = _rows(3.0, [0.0, 1.0, 2.0], [0.1, 0.0, 0.05j],
                           "tangential")
    assert errors == {} and values.shape == (3,)
    assert values[1] == 0.0
    assert values[1] == gamma_b_sphere_linear(3.0, 1.0, 0.0, "tangential")
    assert values[0] == gamma_b_sphere_linear(3.0, 0.0, 0.1, "tangential")
    assert values[2] == gamma_b_sphere_linear(3.0, 2.0, 0.05j, "tangential")
    # the kernel takes checked rows; the checked entry refuses an emitter
    # outside the sphere, a non-finite chi and a chi that is not passive
    for q_L, chi, message in ((2.0, 0.1, "emitter inside sphere"),
                              (0.5, 0.1 - 1j, "passive"),
                              (0.5, np.nan, "chi must be finite")):
        with pytest.raises(DomainError, match=message):
            gamma_b_sphere_linear(1.0, q_L, chi)


# -- assembled rate -------------------------------------------------------------


def test_total_linear_bulk():
    out = gamma_total_linear(StarBoundary.bulk(), 0.12, 0.01)
    assert_allclose(out.total_ratio, 1.0 + 7.0 * 0.12 / 6.0, rtol=1e-14)
    assert out.gamma_b_ratio == 0.0


def test_total_linear_sphere_paths_agree():
    # the 2-D angular rule of a StarBoundary sphere and the 1-D row kernel
    # behind compute give one rate: a z dipole is radial, an x dipole
    # tangential to the displacement along +z
    eps = 1.1 + 1e-8j
    boundary = StarBoundary.sphere(5.0, 1.0)
    for orientation, dipole in (("radial", [0.0, 0.0, 1.0]),
                                ("tangential", [1.0, 0.0, 0.0])):
        via_rows = compute(RateRequest(eps=eps, method="linear_born",
                                       q_R=5.0, q_L=1.0, q_C=0.01,
                                       orientation=orientation))
        via_2d = gamma_total_linear(boundary, eps - 1.0, 0.01, dipole=dipole)
        assert abs(via_rows.total_ratio - via_2d.total_ratio) < 1e-8
        assert via_rows.gamma_c_ratio == via_2d.gamma_c_ratio


def test_total_linear_vs_exact_small_chi():
    # one figure-scale spot check against the independent Mie route
    from locfield.mie import gamma_center_exact
    eps = 1.1 + 1e-8j
    lin = compute(RateRequest(eps=eps, method="linear_born", q_R=2.0,
                              q_C=0.01)).total_ratio
    exact = gamma_center_exact(eps, 2.0, 0.01)
    assert abs(lin - exact) < 0.01


def test_total_linear_checks_each_rule_once(monkeypatch):
    # chi, q_C and the dipole are checked once per call, and the tensor
    # cores they feed check nothing again: one chi rule and one number
    # per input, counted where each module looks them up
    import locfield.born
    import locfield.errors
    import locfield.greens
    from locfield.greens import cavity_green_linear
    calls = []
    for module in (locfield.born, locfield.greens):
        def check_chi(chi, _check=module.check_chi):
            calls.append("check_chi")
            return _check(chi)
        monkeypatch.setattr(module, "check_chi", check_chi)
    for module in (locfield.born, locfield.errors, locfield.greens):
        def number(name, value, kind=complex, _number=module.number):
            calls.append(name)
            return _number(name, value, kind)
        monkeypatch.setattr(module, "number", number)
    sphere = StarBoundary.sphere(2.0, 0.5)
    for call in (lambda: cavity_green_linear(0.01, 0.1 + 1e-3j),
                 lambda: gamma_total_linear(StarBoundary.bulk(), 0.1, 0.01),
                 lambda: gamma_total_linear(sphere, 0.1 + 1e-3j, 0.01)):
        calls.clear()
        call()
        assert calls == ["check_chi", "chi", "q_C"]


# -- validity report -------------------------------------------------------------


def test_validity_examples():
    bulk = StarBoundary.bulk()
    r = validity_check(bulk, 1e-2, 0.01)
    assert r.chi_size_ok and r.absorption_ok and r.all_ok
    assert_allclose(r.chi_size_value, 1e-2, rtol=1e-15)
    r = validity_check(bulk, 2.0, 0.01)
    assert not r.chi_size_ok
    r = validity_check(bulk, 0.0, 0.01)
    assert r.chi_size_value == 0.0 and r.absorption_value == 0.0
    assert r.all_ok
    # the numbers are checked: q_C as a cavity radius, and a boundary's
    # q_max > 0 when the boundary is made
    for q_C in (0.0, -0.01, 0.5):
        with pytest.raises(DomainError):
            validity_check(bulk, 0.1, q_C)
    for q_max in (np.nan, -1.0, 0.0):
        with pytest.raises(DomainError, match="^q_max must be positive"):
            StarBoundary(q_outer=lambda theta, phi: 1.0, q_max=q_max)


def test_validity_sphere_geometry():
    r = validity_check(StarBoundary.sphere(2.0, 1.0), 0.09 + 2e-7j, 0.01)
    assert_allclose(r.chi_size_value, abs(0.09 + 2e-7j) * 3.0, rtol=1e-15)
    assert_allclose(r.absorption_value, 2e-7 / 0.01**3, rtol=1e-12)
    assert r.chi_size_ok and not r.absorption_ok
    # chi_size reads the boundary's q_max, here q_R + q_L = 10
    r2 = validity_check(StarBoundary.sphere(6.0, 4.0), 0.1, 0.01)
    assert r2.chi_size_value == 0.1 * 10.0 and not r2.chi_size_ok


@pytest.mark.parametrize("eps", [1.0, 1.1, 1.1 + 1e-8j, 2.25 + 0.1j,
                                 1.0 + 0.3j])
def test_validity_check_equals_the_requests_report(eps):
    # validity_check of a boundary gives compute's report of the request
    # on the same geometry, chi = eps - 1 as compute forms it
    for q_R, q_L, q_C in ((2.0, 0.0, 0.01), (2.0, 1.0, 0.05), (0.5, 0.4, 0.1),
                          (40.0, 12.5, 0.001)):
        request = RateRequest(eps=eps, method="linear_born", q_R=q_R,
                              q_L=q_L, q_C=q_C)
        assert validity_check(StarBoundary.sphere(q_R, q_L), eps - 1.0,
                              q_C) == compute(request).validity
    if eps in (1.0, 1.1):
        # q_max = q_R + q_L beyond double range is inf for the boundary as
        # for the request, and |chi| q_max is 0 at chi = 0 (once NaN, with
        # a numpy warning), inf otherwise; the report is the request's
        # column's, since at eps = 1.1 its body term fails
        request = RateRequest(eps=eps, method="linear_born", q_R=1.7e308,
                              q_L=1e308)
        (column,) = rates._compute_columns([rates._request_column([request])])
        report = validity_check(StarBoundary.sphere(1.7e308, 1e308),
                                eps - 1.0, 0.01)
        assert report == _validity_report(column.chi_size.item(),
                                          column.absorption.item())
        assert report.chi_size_value == (0.0 if eps == 1.0 else math.inf)
    for q_C in (0.01, 0.1):
        request = RateRequest(eps=eps, method="linear_born",
                              geometry="bulk", q_C=q_C)
        assert validity_check(StarBoundary.bulk(), eps - 1.0,
                              q_C) == compute(request).validity


def test_validity_report_is_plain_data():
    r = ValidityReport(0.1, True, 0.0, True)
    assert r.all_ok
    r = ValidityReport(0.1, True, 1.0, False)
    assert not r.all_ok


def test_orientations_constant():
    assert ORIENTATIONS == ("radial", "tangential")
