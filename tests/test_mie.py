"""Sphere scattering series: coefficients, series rates, assembled center rate."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from locfield.born import SphereConfig, gamma_b_sphere_linear
from locfield.cavity import gamma_bulk
from locfield.errors import AccuracyError, DomainError
from locfield.greens import Permittivity
from locfield.mie import (MieSeriesSettings, body_green_center,
                          gamma_b_center, gamma_b_exact, gamma_center_exact,
                          sphere_coefficients)

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
