"""Sphere scattering series: coefficients, series rates, assembled center rate."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from locfield import RateRequest, compute, mie
from locfield.born import ORIENTATIONS, SphereConfig, gamma_b_sphere_linear
from locfield.cavity import gamma_bulk
from locfield.errors import (AccuracyError, DomainError, LocfieldError,
                             NonFiniteError, SingularityError)
from locfield.greens import Permittivity
from locfield.mie import (MieSeriesSettings, body_green_center,
                          gamma_b_center, gamma_b_exact, gamma_center_exact,
                          sphere_coefficients)
from locfield.specfun import (riccati_derivative, riccati_upward,
                              spherical_bessel_j, spherical_hankel_h1)

mpmath.mp.dps = 40


# -- high-precision oracle --------------------------------------------------------


def _mp_jh(m, z):
    z = mpmath.mpc(z)
    pref = mpmath.sqrt(mpmath.pi / (2 * z))
    j = pref * mpmath.besselj(m + mpmath.mpf(1) / 2, z)
    h = pref * mpmath.hankel1(m + mpmath.mpf(1) / 2, z)
    return j, h


def _mp_coefficients(eps, q_R, m):
    eps = mpmath.mpc(eps)
    n = mpmath.sqrt(eps)
    z0 = mpmath.mpc(q_R)
    z1 = n * q_R
    j_z1, h_z1 = _mp_jh(m, z1)
    _, h_z0 = _mp_jh(m, z0)
    jp_z1, hp_z1 = _mp_jh(m - 1, z1)
    _, hp_z0 = _mp_jh(m - 1, z0)
    xi0p = z0 * hp_z0 - m * h_z0
    xi1p = z1 * hp_z1 - m * h_z1
    ps1p = z1 * jp_z1 - m * j_z1
    C_N = -(eps * h_z1 * xi0p - xi1p * h_z0) / (eps * j_z1 * xi0p
                                                - ps1p * h_z0)
    C_M = -(h_z1 * xi0p - xi1p * h_z0) / (j_z1 * xi0p - ps1p * h_z0)
    return complex(C_N), complex(C_M)


# -- independent double-precision oracle -------------------------------------------
#
# Log-derivative formulation: with D = psi'/psi (downward recurrence),
# Dh = xi'/(z h) (upward recurrence from closed-form h_0, h_1), and j from
# a downward continued-fraction ratio chain,
#
#   C^N = -[h(z1)/j(z1)] (eps z0 Dh(z0) - z1 Dh(z1))
#                       / (eps z0 Dh(z0) - z1 D(z1)),
#
# C^M the same without eps.  No shared code with the implementation.


def _logderiv_psi(z, m):
    nstart = m + int(16 + 2 * abs(z) ** 0.5) + 8
    d = 0.0j
    for k in range(nstart, m, -1):
        d = k / z - 1.0 / (d + k / z)
    return d


def _hankel_chain(z, mmax):
    h = [0j] * (mmax + 1)
    h[0] = -1j * cmath.exp(1j * z) / z
    if mmax >= 1:
        h[1] = -cmath.exp(1j * z) * (z + 1j) / z**2
    for k in range(1, mmax):
        h[k + 1] = (2 * k + 1) / z * h[k] - h[k - 1]
    return h


def _spherical_j(z, m):
    top = m + 30
    t = z / (2 * top + 1)
    ratios = {}
    for k in range(top - 1, 0, -1):
        t = 1.0 / ((2 * k + 1) / z - t)
        ratios[k] = t
    j = cmath.sin(z) / z
    for k in range(1, m + 1):
        j *= ratios[k]
    return j


def _cf_coefficients(eps, q_R, m):
    n = cmath.sqrt(eps)
    z0 = complex(q_R)
    z1 = n * q_R
    hs0 = _hankel_chain(z0, m)
    hs1 = _hankel_chain(z1, m)
    dh0 = (z0 * hs0[m - 1] - m * hs0[m]) / (z0 * hs0[m])
    dh1 = (z1 * hs1[m - 1] - m * hs1[m]) / (z1 * hs1[m])
    d1 = _logderiv_psi(z1, m)
    front = -hs1[m] / _spherical_j(z1, m)
    C_N = front * (eps * z0 * dh0 - z1 * dh1) / (eps * z0 * dh0 - z1 * d1)
    C_M = front * (z0 * dh0 - z1 * dh1) / (z0 * dh0 - z1 * d1)
    return C_N, C_M


# -- coefficients -------------------------------------------------------------------


def test_coefficients_vacuum_vanish_exactly():
    C_N, C_M = sphere_coefficients(1.0, 2.0, 1)
    assert C_N == 0 and C_M == 0


@pytest.mark.parametrize("m", [1, 3, 7])
@pytest.mark.parametrize("q_R", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("eps", [1.1 + 1e-8j, 2.0 + 0.05j])
def test_coefficients_against_mpmath(eps, q_R, m):
    C_N, C_M = sphere_coefficients(eps, q_R, m)
    o_N, o_M = _mp_coefficients(eps, q_R, m)
    assert_allclose(C_N, o_N, rtol=1e-10)
    assert_allclose(C_M, o_M, rtol=1e-10)


def test_coefficients_against_log_derivative_oracle():
    for eps in (1.1 + 1e-8j, 1.2 + 1e-8j, 2.0 + 0.05j):
        for q_R in (0.5, 2.0, 5.0, 10.0):
            for m in range(1, 12):
                C_N, C_M = sphere_coefficients(eps, q_R, m)
                o_N, o_M = _cf_coefficients(eps, q_R, m)
                assert_allclose(C_N, o_N, rtol=1e-10)
                assert_allclose(C_M, o_M, rtol=1e-10)


def test_coefficient_validation():
    with pytest.raises(DomainError):
        sphere_coefficients(1.1, 2.0, 0)
    with pytest.raises(DomainError):
        sphere_coefficients(1.1, -1.0, 1)
    with pytest.raises(DomainError):
        sphere_coefficients([1.1, 1.2], [2.0, np.inf], 1)
    with pytest.raises(DomainError):
        sphere_coefficients([1.1, 1.2 - 1e-3j], [2.0, 3.0], 1)  # active
    # a sequence is checked as one array, by Permittivity's checks in
    # their order, and Permittivity records in it stand for their values
    for eps, message in (([1.1, 1.2 - 1e-3j, np.nan], "must be finite"),
                         ([0.0, 1.2 - 1e-3j], "passive medium required"),
                         ([1.1, 0.0], "must be nonzero")):
        with pytest.raises(DomainError, match=message):
            gamma_b_center(eps, 2.0)
    records = gamma_b_center([Permittivity(1.1 + 1e-8j), 1.2], [2.0, 3.0])
    assert records.tolist() == gamma_b_center([1.1 + 1e-8j, 1.2],
                                              [2.0, 3.0]).tolist()


def _scipy_route_dipole_coefficients(eps, q_R):
    """sphere_coefficients(eps, q_R, 1) from the order-generic Bessel
    functions, called in the order the scipy-backed route called them."""
    n = Permittivity(eps).n
    z0, z1 = q_R + 0j, n * q_R
    # the Hankel prefactor overflows with a numpy warning before the
    # wrapper's own check raises NonFiniteError
    with np.errstate(all="ignore"):
        h0, h1 = spherical_hankel_h1(1, z0), spherical_hankel_h1(1, z1)
        j1 = spherical_bessel_j(1, z1)
        return mie._coefficients(eps, 1, h0, h1, j1,
                                 riccati_derivative("hankel_h1", 1, z0),
                                 riccati_derivative("hankel_h1", 1, z1),
                                 riccati_derivative("bessel_j", 1, z1))


@pytest.mark.parametrize("eps", [1.1, 2.25 + 1e-3j, 1.0 + 100j, 100j,
                                 -4.0 + 1e-3j, 3.0 + 1e5j])
def test_dipole_coefficients_match_scipy_route(eps):
    # the closed-form m = 1 route refuses what the scipy-backed calls
    # refused, with the same error and text, and agrees where they return
    # (C_1^M cancels to a part in 1e11 at q_R = 0.01 in either route)
    for q_R in (1e-160, 0.01, 1.0, 60.0, 150.0, 9999.0, 1e4, 2e4):
        try:
            want = _scipy_route_dipole_coefficients(eps, q_R)
        except LocfieldError as exc:
            with pytest.raises(type(exc)) as got:
                sphere_coefficients(eps, q_R, 1)
            assert str(got.value) == str(exc), (eps, q_R)
        else:
            got = sphere_coefficients(eps, q_R, 1)
            assert_allclose(got[0], want[0], rtol=1e-12, err_msg=str(q_R))
            assert_allclose(got[1], want[1], rtol=1e-10, err_msg=str(q_R))


def test_coefficients_and_center_rate_on_arrays():
    # a curve of spheres in one call equals the scalar calls point by point
    eps = [1.1 + 1e-8j, 1.2 + 1e-7j, 2.0 + 0.05j, 1.1 + 1e-8j]
    q_R = np.array([0.5, 2.0, 5.0, 9.3])
    for m in (1, 4):
        C_N, C_M = sphere_coefficients(eps, q_R, m)
        for k in range(len(q_R)):
            s_N, s_M = sphere_coefficients(eps[k], q_R[k], m)
            assert_allclose(C_N[k], s_N, rtol=1e-14)
            assert_allclose(C_M[k], s_M, rtol=1e-14)
    # one permittivity against an array of radii broadcasts
    C_N, _ = sphere_coefficients(1.1 + 1e-8j, q_R, 1)
    assert C_N.shape == q_R.shape
    centre = gamma_b_center(eps, q_R)
    for k in range(len(q_R)):
        assert_allclose(centre[k], gamma_b_exact(eps[k], q_R[k], 0.0),
                        rtol=1e-13)
    assert isinstance(gamma_b_center(1.2, 3.0), float)


# -- center tensor ------------------------------------------------------------------


def test_body_green_center_isotropic():
    g = body_green_center(1.5 + 0.02j, 3.0)
    C_N, _ = sphere_coefficients(1.5 + 0.02j, 3.0, 1)
    expected = 1j * np.sqrt(complex(1.5 + 0.02j)) * C_N / (6 * np.pi)
    assert np.array_equal(g, g[0, 0] * np.eye(3))   # isotropic, zero off-diag
    assert np.array_equal(g, g.T)
    assert_allclose(g[0, 0], expected, rtol=1e-14)


# -- series rates -------------------------------------------------------------------


def test_center_limit_orientation_independent():
    eps = 1.1 + 1e-8j
    r = gamma_b_exact(eps, 2.0, 0.0, orient="radial")
    t = gamma_b_exact(eps, 2.0, 0.0, orient="tangential")
    assert r == t
    C_N, _ = sphere_coefficients(eps, 2.0, 1)
    e = complex(eps)
    K = 9j * e * e * np.sqrt(e) / (2 * e + 1) ** 2
    assert_allclose(r, np.imag(K * C_N), rtol=1e-14)


def test_series_continuous_at_center():
    for orient in ("radial", "tangential"):
        lim = gamma_b_exact(1.1 + 1e-8j, 2.0, 0.0, orient=orient)
        near = gamma_b_exact(1.1 + 1e-8j, 2.0, 1e-6, orient=orient)
        assert abs(near - lim) < 1e-8


def test_truncation_insensitive():
    tight = MieSeriesSettings(term_tolerance=1e-16, consecutive_small=5,
                              m_max=80)
    for orient in ("radial", "tangential"):
        a = gamma_b_exact(1.1 + 1e-8j, 2.0, 1.0, orient=orient)
        b = gamma_b_exact(1.1 + 1e-8j, 2.0, 1.0, orient=orient,
                          settings=tight)
        assert_allclose(a, b, rtol=1e-13)


def test_agrees_with_linear_response_for_small_chi():
    # the linear route lacks the O(chi^2) pieces; the gap must be small at
    # chi = 0.1 and shrink ~quadratically when chi halves
    cfg = SphereConfig(q_R=5.0, q_L=1.0)
    for orient in ("radial", "tangential"):
        gap = {}
        for chi in (0.1, 0.05):
            exact = gamma_b_exact(1.0 + chi + 1e-8j, 5.0, 1.0, orient=orient)
            lin = gamma_b_sphere_linear(cfg, chi + 1e-8j, orientation=orient)
            gap[chi] = abs(exact - lin)
        assert gap[0.1] < 0.02
        assert gap[0.05] / gap[0.1] < 0.35


def test_series_cap_raises():
    with pytest.raises(AccuracyError):
        gamma_b_exact(1.1 + 1e-8j, 20.0, 1.0,
                      settings=MieSeriesSettings(m_max=2))


def test_near_surface_needs_explicit_truncation():
    # interior terms decay like (q_L/q_R)^{2m}, so close to the surface
    # the default cap is honest about giving up; a raised cap converges
    with pytest.raises(AccuracyError):
        gamma_b_exact(1.1 + 1e-8j, 1.0, 0.6)
    raised = MieSeriesSettings(m_max=60)
    a = gamma_b_exact(1.1 + 1e-8j, 1.0, 0.6, settings=raised)
    b = gamma_b_exact(1.1 + 1e-8j, 1.0, 0.6,
                      settings=MieSeriesSettings(m_max=120))
    assert_allclose(a, b, rtol=1e-13)


def test_rate_validation():
    with pytest.raises(DomainError):
        gamma_b_exact(1.1, 2.0, 2.0)          # q_L == q_R
    with pytest.raises(DomainError):
        gamma_b_exact(1.1, 2.0, -0.5)
    with pytest.raises(DomainError):
        gamma_b_exact(1.1, 2.0, 1.0, orient="up")
    # non-finite settings would silently truncate the series (an infinite
    # tolerance stops it after consecutive_small terms) or fail untyped
    for bad in ({"m_max": 0}, {"m_max": 2.5}, {"m_max": math.inf},
                {"m_max": math.nan}, {"term_tolerance": 0.0},
                {"term_tolerance": math.inf}, {"term_tolerance": math.nan},
                {"consecutive_small": 0}, {"consecutive_small": math.inf},
                {"consecutive_small": math.nan}):
        (name, _), = bad.items()
        with pytest.raises(DomainError, match=f"^{name} must be"):
            MieSeriesSettings(**bad)


def test_series_stops_at_the_order_cap():
    # the default cap ceil(q_R |n|) + 30 = 240 passes the largest order
    # specfun admits; the series ends there with its own AccuracyError
    with pytest.raises(AccuracyError, match="ORDER_MAX = 200, below "
                                            "m_max = 240"):
        gamma_b_exact(1.1 + 1e-8j, 200.0, 190.0)
    # a series that converges below the cap is unaffected by a larger one
    for orient in ("radial", "tangential"):
        assert gamma_b_exact(1.1 + 1e-8j, 5.0, 2.0, orient=orient,
                             settings=MieSeriesSettings(m_max=500)) \
            == gamma_b_exact(1.1 + 1e-8j, 5.0, 2.0, orient=orient)


# -- the series' order walk ---------------------------------------------------------


def _record_calls(monkeypatch, replace=None):
    """Wrap the Bessel and Hankel functions that mie looks up, recording
    (name, m, z) of each call; replace maps such a triple to the value
    that call returns instead.  Riccati derivatives and per-order
    coefficients must not be called at all."""
    calls, replace = [], replace or {}
    for name in ("spherical_hankel_h1", "spherical_bessel_j"):
        def wrapped(m, z, f=getattr(mie, name), name=name):
            calls.append((name, m, z))
            return replace[name, m, z] if (name, m, z) in replace else f(m, z)
        monkeypatch.setattr(mie, name, wrapped)
    for name in ("riccati_derivative", "sphere_coefficients"):
        monkeypatch.setattr(mie, name, None)
    return calls


@pytest.mark.parametrize("orient", ORIENTATIONS)
def test_series_evaluates_each_value_once(monkeypatch, orient):
    # four checked calls per order: h_m(q_R), h_m(n q_R), j_m(n q_R) and
    # j_m(n q_L), from the start values at m = 0 up to the last order
    # walked; every Riccati derivative comes from these and order m - 1
    eps, q_R, q_L = 1.2 + 1e-6j, 5.0, 2.0
    n = Permittivity(eps).n
    calls = _record_calls(monkeypatch)
    gamma_b_exact(eps, q_R, q_L, orient)
    last = calls[-1][1]
    assert last > 10
    assert calls == [call for m in range(last + 1) for call in (
        ("spherical_hankel_h1", m, q_R), ("spherical_hankel_h1", m, n * q_R),
        ("spherical_bessel_j", m, n * q_R),
        ("spherical_bessel_j", m, n * q_L))]


@pytest.mark.parametrize("q_R", [0.5, 2.0, 7.3, 20.0])
@pytest.mark.parametrize("eps", [1.05 + 1e-8j, 1.5 + 1e-6j])
def test_carried_derivatives_match_riccati_derivative(eps, q_R):
    # the upward identity on carried values, as the series walks the
    # orders, against specfun's own derivative for m = 1..60 over the
    # exact_offcenter ranges, down to a tiny x (q_L/q_R = 1e-6): within
    # 1e-15 of |z f_{m-1}| + m |f_m|, the size of the two terms combined
    n = Permittivity(eps).n
    for kind, f, z in (("hankel_h1", spherical_hankel_h1, q_R + 0j),
                       ("hankel_h1", spherical_hankel_h1, n * q_R),
                       ("bessel_j", spherical_bessel_j, n * q_R),
                       ("bessel_j", spherical_bessel_j, n * q_R * 0.5),
                       ("bessel_j", spherical_bessel_j, n * q_R * 0.05),
                       ("bessel_j", spherical_bessel_j, n * q_R * 1e-6)):
        prev = f(0, z)
        for m in range(1, 61):
            value = f(m, z)
            got = riccati_upward(kind, m, z, prev, value)
            want = riccati_derivative(kind, m, z)
            assert abs(got - want) <= 1e-15 * (abs(z * prev)
                                               + m * abs(value)), (kind, m, z)
            prev = value


def test_series_errors_keep_their_order_and_text(monkeypatch):
    # q_R = 1, q_L = 0.95 needs orders past 149, where h_m(1) overflows:
    # the first call of order 149 raises, before any derivative of it
    calls = _record_calls(monkeypatch)
    for orient in ORIENTATIONS:
        with pytest.raises(NonFiniteError, match=r"^spherical_hankel_h1 "
                           r"overflowed or produced NaN; argument too deep "
                           r"in the complex plane for double precision$"):
            gamma_b_exact(1.1 + 1e-8j, 1.0, 0.95, orient,
                          MieSeriesSettings(m_max=200))
        assert calls[-1] == ("spherical_hankel_h1", 149, 1.0)


def test_coefficient_overflow_is_typed():
    # eps = 1e-300 puts C_1^N and C_1^M near 1e450: one NonFiniteError
    # from the coefficients, with no numpy warning before it, for the
    # centred exact rate and for scalar and array coefficient calls
    message = r"^sphere coefficients at m = 1 overflowed or produced NaN"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=message):
            compute(RateRequest(eps=1e-300, method="exact", q_R=1.0))
        for eps in (1e-310, [1e-310, 2.0], np.array([2.0, 1e-300])):
            with pytest.raises(NonFiniteError, match=message):
                sphere_coefficients(eps, 60.0, 1)


@pytest.mark.parametrize("orient", ORIENTATIONS)
def test_series_overflow_is_typed(orient):
    # deep in a strongly absorbing sphere j_1(n q_L)^2 leaves double
    # range at the first order: a NonFiniteError, not Python's
    # OverflowError from complex exponentiation
    with pytest.raises(NonFiniteError, match=r"^sphere series overflowed "
                       r"at m = 1: .*\(q_R = 60, q_L = 53\)$"):
        gamma_b_exact(1.0 + 100j, 60.0, 53.0, orient)


@pytest.mark.parametrize("name, at, kind", [
    ("spherical_hankel_h1", "z0", "hankel_h1"),
    ("spherical_hankel_h1", "z1", "hankel_h1"),
    ("spherical_bessel_j", "z1", "bessel_j"),
    ("spherical_bessel_j", "x", "bessel_j")])
def test_series_checks_every_carried_derivative(monkeypatch, name, at, kind):
    # a finite value so large that z f_{m-1} - m f_m overflows raises
    # NonFiniteError with riccati_derivative's text, not an inf term
    eps, q_R, q_L = 1.2 + 1e-6j, 5.0, 2.0
    n = Permittivity(eps).n
    z = {"z0": q_R, "z1": n * q_R, "x": n * q_L}[at]
    _record_calls(monkeypatch, {(name, 5, z): 1e308 + 0j})
    with pytest.raises(NonFiniteError,
                       match=rf"^riccati_derivative\[{kind}\] overflowed"):
        gamma_b_exact(eps, q_R, q_L, "tangential")


def test_series_pole_names_its_order(monkeypatch):
    # j_3(n q_R) = h_3(q_R) = 0 empties both denominators at m = 3
    eps, q_R = 1.2 + 1e-6j, 5.0
    n = Permittivity(eps).n
    _record_calls(monkeypatch, {("spherical_hankel_h1", 3, q_R): 0j,
                                ("spherical_bessel_j", 3, n * q_R): 0j})
    with pytest.raises(SingularityError, match=r"^sphere coefficient "
                       r"denominator vanished at m = 3 \(resonance pole\)$"):
        gamma_b_exact(eps, q_R, 2.0)


# -- invariants of the exact rate (drawn where the series converges) ----------------

_EPS = st.builds(complex, st.floats(1.05, 2.5),
                 st.floats(-8.0, -1.0).map(lambda e: 10.0 ** e))
_Q_R = st.floats(0.0, 1.0).map(lambda u: 0.5 * 40.0 ** u)  # 0.5 .. 20


def _q_L2_coefficient(eps, q_R, orient):
    """(a, A): gamma_b_exact - gamma_b_center = a q_L^2 + O(q_L^4) from
    the m <= 2 terms of the series expanded in x = n q_L, and A the sum
    of the magnitudes that make up a."""
    K = 9j * eps * eps * cmath.sqrt(eps) / (2 * eps + 1) ** 2
    N1, M1 = sphere_coefficients(eps, q_R, 1)
    N2, _ = sphere_coefficients(eps, q_R, 2)
    parts = ((-0.2 * N1, 0.2 * N2) if orient == "radial"
             else (0.25 * M1, -0.4 * N1, 0.15 * N2))
    return ((K * eps * sum(parts)).imag,
            abs(K * eps) * sum(abs(p) for p in parts))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(eps=_EPS, q_R=_Q_R, ratio=st.floats(-4.0, -2.0).map(lambda e: 10 ** e))
def test_offcentre_rate_tends_to_the_centre_as_q_L_squared(eps, q_R, ratio):
    # the gap to the centre rate is a q_L^2, from the coefficients of
    # orders 1 and 2, up to an O(q_L^4) remainder; at q_L <= 1e-2 q_R that
    # stays below a tenth of A q_L^2 (at most 0.018 of it in 3,000
    # random cases at q_L = 1e-3..1e-2 q_R)
    q_L = ratio * q_R
    centre = gamma_b_center(eps, q_R)
    for orient in ORIENTATIONS:
        a, A = _q_L2_coefficient(eps, q_R, orient)
        gap = gamma_b_exact(eps, q_R, q_L, orient) - centre
        assert abs(gap - a * q_L**2) <= 0.1 * A * q_L**2, orient


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(eps=_EPS, q_R=_Q_R)
def test_orientations_agree_at_the_centre(eps, q_R):
    # at q_L = 0 both orientations are the centre rate, bit for bit; at
    # q_L = 1e-6 q_R both series give it up to their q_L^2 terms
    centre = gamma_b_center(eps, q_R)
    assert all(gamma_b_exact(eps, q_R, 0.0, o) == centre
               for o in ORIENTATIONS)
    q_L = 1e-6 * q_R
    radial, tangential = (gamma_b_exact(eps, q_R, q_L, o)
                          for o in ORIENTATIONS)
    bound = sum(_q_L2_coefficient(eps, q_R, o)[1] for o in ORIENTATIONS)
    assert abs(radial - tangential) <= bound * q_L**2


# -- assembled center rate ----------------------------------------------------------


def test_center_rate_vacuum_is_unity():
    assert gamma_center_exact(1.0, 2.0, 0.01) == 1.0


def test_center_rate_oscillates_about_bulk():
    bulk = gamma_bulk(1.1)
    vals = np.array([gamma_center_exact(1.1 + 1e-8j, q, 0.01) - bulk
                     for q in np.linspace(1.0, 10.0, 40)])
    signs = np.sign(vals)
    assert int(np.sum(signs[1:] != signs[:-1])) >= 3


def test_center_rate_validation():
    with pytest.raises(DomainError):
        gamma_center_exact(1.1, 0.005, 0.01)   # cavity would poke out
    with pytest.raises(DomainError):
        gamma_center_exact(1.1, 2.0, 0.0)
    # q_C follows gamma_c_exact's rules: at most 0.2, however large q_R
    with pytest.raises(DomainError, match="too large"):
        gamma_center_exact(1.1, 2.0, 0.25)
