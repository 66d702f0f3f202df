"""Sphere scattering series: coefficients, series rates, assembled center rate."""

import cmath
import importlib
import itertools
import json
import math
import re
import warnings
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import locfield
from locfield import (AtomParams, CavityCoefficients, RateBreakdown,
                      RateRequest, StarBoundary, ValidityReport,
                      body_green_linear, born, cavity, cavity_green_linear,
                      compute, compute_batch, f_integrand, gamma0_si,
                      gamma_b_corrected, gamma_c_linear,
                      gamma_total_linear, gamma_uncorrected,
                      gamma_weak_absorption, mie,
                      outside_scatter_coefficients, rates, specfun,
                      transmission_coefficient, vacuum_green, validity_check)
from locfield.born import ORIENTATIONS, gamma_b_sphere_linear
from locfield.cavity import gamma_bulk, gamma_c_exact
from locfield.errors import (AccuracyError, DomainError, LocfieldError,
                             NonFiniteError, SingularityError)
from locfield.mie import (body_green_center, gamma_b_exact,
                          gamma_center_exact, sphere_coefficients)
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
    # the order is checked by the whole-number rule that
    # outside_scatter_coefficients' m_max takes, not rounded: 1.5 is not
    # C_1, and "2" is not C_2
    for m in (1.5, "2", None, math.inf, -1):
        for call in (lambda: sphere_coefficients(1.1, 2.0, m),
                     lambda: cavity.outside_scatter_coefficients(1.1, 0.01,
                                                                 m)):
            with pytest.raises(DomainError, match="^m(_max)? must be a "
                               "whole number >= 1$"):
                call()
    assert sphere_coefficients(1.1, 2.0, 2.0) == sphere_coefficients(
        1.1, 2.0, 2)
    with pytest.raises(DomainError):
        sphere_coefficients(1.1, -1.0, 1)
    with pytest.raises(DomainError, match="^q_R must be positive and "
                       "finite$"):
        sphere_coefficients(1.2, np.inf, 1)
    with pytest.raises(DomainError, match="^passive medium required"):
        sphere_coefficients(1.2 - 1e-3j, 3.0, 1)
    # one sphere per call: a sequence is no permittivity and no radius
    # (a curve of centred rates is compute_batch)
    for eps, q_R, message in (([1.1, 1.2], 2.0, r"^eps must be a number, "),
                              (1.1, [2.0, 3.0], r"^q_R must be a real "
                               r"number, ")):
        with pytest.raises(DomainError, match=message):
            sphere_coefficients(eps, q_R, 1)


def _scipy_route_dipole_coefficients(eps, q_R):
    """sphere_coefficients(eps, q_R, 1) from the order-generic Bessel
    functions, called in the order the scipy-backed route called them."""
    n = complex(np.sqrt(eps))
    z0, z1 = q_R + 0j, n * q_R
    # the Hankel prefactor overflows with a numpy warning before the
    # wrapper's own check raises NonFiniteError
    with np.errstate(all="ignore"):
        h0, h1 = spherical_hankel_h1(1, z0), spherical_hankel_h1(1, z1)
        j1 = spherical_bessel_j(1, z1)
        return mie._finite_coefficients(
            eps, 1, h0, h1, j1, riccati_derivative("hankel_h1", 1, z0),
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


# -- center tensor ------------------------------------------------------------------


def test_body_green_center_isotropic():
    g = body_green_center(1.5 + 0.02j, 3.0)
    C_N, _ = sphere_coefficients(1.5 + 0.02j, 3.0, 1)
    expected = 1j * np.sqrt(complex(1.5 + 0.02j)) * C_N / (6 * np.pi)
    assert np.array_equal(g, g[0, 0] * np.eye(3))   # isotropic, zero off-diag
    assert np.array_equal(g, g.T)
    assert_allclose(g[0, 0], expected, rtol=1e-14)
    # its rate is compute's centred exact body term
    rate = compute(RateRequest(eps=1.5 + 0.02j, method="exact", q_R=3.0))
    assert_allclose(cavity.gamma_b_corrected(1.5 + 0.02j, g, [0.0, 0.0, 1.0]),
                    rate.gamma_b_ratio, rtol=1e-13)


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


@pytest.mark.parametrize("orient", ORIENTATIONS)
def test_linear_order_holds_near_the_surface(orient):
    # the paper's claim, exact = linear + O(chi^2), near the surface:
    # q_L/q_R up to 0.95, where the series needs hundreds of orders past
    # q_R |n| before its own test stops it.  A bound,
    # not a fitted slope: the largest gap/chi^2 measured is 0.56, and where
    # the chi^2 coefficient is small (q_R = 2, q_L/q_R = 0.7, tangential)
    # the slope over chi in [1e-3, 1e-2] is 2.24
    for q_R in (1.0, 2.0, 5.0):
        for ratio in (0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95):
            for chi in (1e-3, 1e-2):
                exact = gamma_b_exact(1.0 + chi + 1e-12j, q_R, ratio * q_R,
                                      orient)
                lin = gamma_b_sphere_linear(q_R, ratio * q_R, chi + 1e-12j,
                                            orientation=orient)
                assert abs(exact - lin) <= chi**2, (q_R, ratio, chi)


def test_agrees_with_linear_response_for_small_chi():
    # the linear route lacks the O(chi^2) pieces; the gap must be small at
    # chi = 0.1 and shrink ~quadratically when chi halves
    for orient in ("radial", "tangential"):
        gap = {}
        for chi in (0.1, 0.05):
            exact = gamma_b_exact(1.0 + chi + 1e-8j, 5.0, 1.0, orient=orient)
            lin = gamma_b_sphere_linear(5.0, 1.0, chi + 1e-8j,
                                        orientation=orient)
            gap[chi] = abs(exact - lin)
        assert gap[0.1] < 0.02
        assert gap[0.05] / gap[0.1] < 0.35


# chi = c d for c over a decade, along directions d of both signs of Re chi
# and the imaginary axis, where the chi^2 term of the gap vanishes
_GAP_CHI = np.geomspace(1e-3, 1e-2, 3)
_GAP_DIRECTIONS = (1, -1, 1 + 0.5j, -1 + 0.5j, 0.5 + 1j, 0.2 + 1j,
                   -0.2 + 1j, 1j)


def test_exact_minus_linear_is_second_order_in_chi():
    # the gap between the exact and linear_born totals is O(chi^2): its
    # fitted log-log slope in |chi| is 2 +- 0.1 where Re chi != 0 and at
    # least 1.9 on the imaginary axis (3 there: the gap's chi^2 term is
    # real and drops out of the rate),
    # over q_R 0.5-20, q_L/q_R 0-0.9 and both orientations
    cases = list(itertools.product(_GAP_DIRECTIONS, (0.5, 2.0, 7.0, 20.0),
                                   (0.0, 0.3, 0.9), ORIENTATIONS))

    def totals(method):
        return [r.total_ratio for r in compute_batch(
            RateRequest(eps=1 + c * d, method=method, q_R=q_R,
                        q_L=ratio * q_R, orientation=orient)
            for d, q_R, ratio, orient in cases for c in _GAP_CHI)]

    gap = np.abs(np.subtract(totals("exact"), totals("linear_born")))
    slopes = np.polyfit(np.log(_GAP_CHI),
                        np.log(gap.reshape(len(cases), -1)).T, 1)[0]
    for case, slope in zip(cases, slopes.tolist()):
        assert slope >= 1.9, case
        if case[0].real != 0:
            assert slope <= 2.1, case


def test_near_surface_converges_by_itself():
    # interior terms decay like (q_L/q_R)^{2m}, so near the surface the
    # series walks well past q_R |n| orders before its own test stops it;
    # these are the rates of the 40-digit table, to its 2e-13 rule
    table = json.loads(Path(__file__).with_name("offcenter_reference.json")
                       .read_text(encoding="utf-8"))
    expected = {row["orientation"]: row["gamma_b"] for row in table
                if row["set"] == "grid" and row["eps"] == [1.1, 1e-8]
                and (row["q_R"], row["q_L"]) == (1.0, 0.6)}
    assert sorted(expected) == sorted(ORIENTATIONS)
    for orient, value in expected.items():
        got = gamma_b_exact(1.1 + 1e-8j, 1.0, 0.6, orient)
        assert abs(got - value) <= 2e-13 * max(abs(value), 0.01)


def test_rate_validation():
    with pytest.raises(DomainError):
        gamma_b_exact(1.1, 2.0, 2.0)          # q_L == q_R
    with pytest.raises(DomainError):
        gamma_b_exact(1.1, 2.0, -0.5)
    with pytest.raises(DomainError):
        gamma_b_exact(1.1, 2.0, 1.0, orient="up")


def test_series_stops_at_the_order_cap():
    # an emitter 1/2000 of the radius from the surface needs about 58,000
    # orders, past the 5,000 the series takes: it ends there with its own
    # AccuracyError, which names the order needed.  At q_L/q_R = 0.95 the
    # same sphere needs about 700 and returns its rate
    with pytest.raises(AccuracyError, match=r"^sphere series not converged "
                       r"by m = 5000: about 5\.8e\+04 orders needed, 5000 "
                       r"allowed \(q_R = 200, q_L = 199\.9\)$"):
        gamma_b_exact(1.1 + 1e-8j, 200.0, 199.9)
    assert np.isfinite(gamma_b_exact(1.1 + 1e-8j, 200.0, 190.0))


# -- the series' order walk ---------------------------------------------------------


def _record_walk(monkeypatch):
    """Wrap what the series calls for a request, recording ("check", z) of
    each argument check and ("j", z, top) of each table of Bessel ratios
    (both tables come from one call, in the order z, x).  The
    scipy-backed functions and sphere_coefficients must not be called at
    all."""
    calls = []
    check, tables = mie._check_point, mie._bessel_ratio_tables

    def checked(z):
        calls.append(("check", z))
        return check(z)

    def ratios(z, x, top):
        calls.extend((("j", z, top), ("j", x, top)))
        return tables(z, x, top)

    monkeypatch.setattr(mie, "_check_point", checked)
    monkeypatch.setattr(mie, "_bessel_ratio_tables", ratios)
    for name in ("spherical_hankel_h1", "spherical_bessel_j",
                 "riccati_derivative", "sphere_coefficients"):
        monkeypatch.setattr(mie, name, None)
    return calls


@pytest.mark.parametrize("orient", ORIENTATIONS)
def test_series_evaluates_each_value_once(monkeypatch, orient):
    # one check of each of the three arguments q_R, n q_R, n q_L, in that
    # order, and one table of Bessel ratios of n q_R and one of n q_L, to
    # the order where the terms have fallen below 1e-16 of the largest;
    # the Hankel ratios are carried in the walk
    eps, q_R, q_L = 1.2 + 1e-6j, 5.0, 2.0
    n = complex(np.sqrt(eps))
    calls = _record_walk(monkeypatch)
    gamma_b_exact(eps, q_R, q_L, orient)
    fall = np.log(q_R / q_L)
    top = int(8 + abs(n * q_R) + 18.4 / fall + np.log1p(18.4 / fall) / fall)
    assert calls == [("check", q_R), ("check", n * q_R), ("check", n * q_L),
                     ("j", n * q_R, top), ("j", n * q_L, top)]


def test_series_makes_no_scipy_special_call(monkeypatch):
    # the off-centre series, by itself and through compute, in nearly
    # transparent and in absorbing spheres, runs on specfun's recurrences
    # alone; sphere coefficients of one order m > 1 still call scipy
    class NoScipy:
        def __getattr__(self, name):
            raise AssertionError(f"scipy.special.{name} was called")

    monkeypatch.setattr(specfun, "_sp", NoScipy())
    for eps, q_R, q_L in ((1.05 + 1e-8j, 0.5, 0.2), (1.5 + 1e-6j, 20.0, 9.0),
                          (2.25 + 0.1j, 5.0, 2.5), (1.0 + 2j, 0.05, 0.01)):
        for orient in ORIENTATIONS:
            assert np.isfinite(gamma_b_exact(eps, q_R, q_L, orient))
    compute(RateRequest(eps=1.2 + 1e-7j, method="exact", q_R=3.0, q_L=1.0))
    with pytest.raises(AssertionError, match="was called"):
        sphere_coefficients(1.2, 3.0, 2)


@pytest.mark.parametrize("q_R", [0.5, 2.0, 7.3, 20.0])
@pytest.mark.parametrize("eps", [1.05 + 1e-8j, 1.5 + 1e-6j])
def test_carried_derivatives_match_riccati_derivative(eps, q_R):
    # the upward identity on values carried order by order, as
    # riccati_derivative applies it to h_m, against specfun's own
    # derivative for m = 1..60 over the
    # exact_offcenter ranges, down to a tiny x (q_L/q_R = 1e-6): within
    # 1e-15 of |z f_{m-1}| + m |f_m|, the size of the two terms combined
    n = complex(np.sqrt(eps))
    for kind, f, z in (("hankel_h1", spherical_hankel_h1, q_R + 0j),
                       ("hankel_h1", spherical_hankel_h1, n * q_R),
                       ("bessel_j", spherical_bessel_j, n * q_R),
                       ("bessel_j", spherical_bessel_j, n * q_R * 0.5),
                       ("bessel_j", spherical_bessel_j, n * q_R * 0.05),
                       ("bessel_j", spherical_bessel_j, n * q_R * 1e-6)):
        prev = f(0, z)
        for m in range(1, 61):
            value = f(m, z)
            got = riccati_upward(m, z, prev, value)
            want = riccati_derivative(kind, m, z)
            assert abs(got - want) <= 1e-15 * (abs(z * prev)
                                               + m * abs(value)), (kind, m, z)
            prev = value


def test_series_errors_keep_their_order_and_text(monkeypatch):
    # q_R = 1, q_L = 0.9999 needs about 300,000 orders: the series raises
    # its AccuracyError at the limit of 5,000, after one check of each
    # argument and tables of Bessel ratios built once, to that limit
    calls = _record_walk(monkeypatch)
    n = complex(np.sqrt(1.1 + 1e-8j))
    for orient in ORIENTATIONS:
        calls.clear()
        with pytest.raises(AccuracyError, match=r"^sphere series not "
                           r"converged by m = 5000: about 3\.05e\+05 orders "
                           r"needed, 5000 allowed \(q_R = 1, q_L = 0\.9999\)$"):
            gamma_b_exact(1.1 + 1e-8j, 1.0, 0.9999, orient)
        assert calls == [("check", 1.0), ("check", n), ("check", n * 0.9999),
                         ("j", n, 5000), ("j", n * 0.9999, 5000)]


# where the direct form's coefficient denominator left double range (at
# m = 119 and 121), so that Python's abs of it raised OverflowError: the
# first is a rate (tools/offcenter_reference.body_rates at 40 digits,
# with the digits that h_m's J + i Y cancels added), the second needs
# about 28,000 orders
_BEYOND_ABS = [
    ((1e5 + 1e5j, 1.5776403738407436, 1.262112299072595, "tangential"),
     -1.4598593590880917e-39),
    ((0.001 + 1e5j, 0.2963991134633263, 0.29610271434986296, "radial"),
     r"^sphere series not converged by m = 5000: about 2\.83e\+04 orders "
     r"needed, 5000 allowed \(q_R = 0\.296399, q_L = 0\.296103\)$")]


@pytest.mark.parametrize("args, want", _BEYOND_ABS, ids=["rate", "limit"])
def test_former_coefficient_overflows_keep_to_their_row(args, want):
    # the rate to 1e-12 of itself, or the order limit's AccuracyError,
    # through gamma_b_exact, compute and compute_batch, whose good request
    # beside it still returns its rate
    eps, q_R, q_L, orient = args
    request = RateRequest(eps=eps, method="exact", q_R=q_R, q_L=q_L,
                          q_C=1e-4, orientation=orient)
    good = RateRequest(eps=1.1 + 1e-8j, method="exact", q_R=3.0, q_L=1.0)
    if isinstance(want, float):
        assert abs(gamma_b_exact(*args) - want) <= 1e-12 * abs(want)
        assert compute_batch([request, good]) == [compute(request),
                                                  compute(good)]
        return
    with pytest.raises(AccuracyError, match=want):
        gamma_b_exact(*args)
    with pytest.raises(AccuracyError, match=want):
        compute(request)
    bad, result = compute_batch([request, good])
    assert isinstance(bad, AccuracyError) and re.match(want, str(bad))
    assert result == compute(good)


def test_coefficient_overflow_is_typed():
    # eps = 1e-300 puts C_1^N and C_1^M near 1e450: one NonFiniteError
    # from the coefficients, with no numpy warning before it, for the
    # centred exact rate, for the coefficients and for the centre tensor
    message = r"^sphere coefficients at m = 1 overflowed or produced NaN"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=message):
            compute(RateRequest(eps=1e-300, method="exact", q_R=1.0))
        for eps in (1e-310, 1e-300):
            for call in (lambda: sphere_coefficients(eps, 60.0, 1),
                         lambda: body_green_center(eps, 60.0),
                         lambda: gamma_b_exact(eps, 60.0, 0.0)):
                with pytest.raises(NonFiniteError, match=message):
                    call()
    # other terms past double range keep their typed errors, with no
    # numpy warning before them: n q_R (the argument q_R is refused),
    # h_2 at a tiny q, and the linear rate's rounding bound
    hankel = r"^spherical_hankel_h1 overflowed or produced NaN"
    for error, message, call in (
            (DomainError, r"^\|z\| must be < 10000$",
             lambda: sphere_coefficients(1e300, 1e308, 1)),
            (DomainError, r"^\|z\| must be < 10000$",
             lambda: body_green_center(1e300, 1e308)),
            (DomainError, r"^\|z\| must be < 10000$",
             lambda: compute(RateRequest(eps=1e300, method="exact",
                                         q_R=1e308))),
            (NonFiniteError, hankel,
             lambda: sphere_coefficients(1.1, 1e-120, 2)),
            (NonFiniteError, hankel,
             lambda: outside_scatter_coefficients(1.1, 1e-120, 2)),
            *((AccuracyError, r"^linear body rate at q_R = 10000, q_L = "
               r"3000 may be off by 2\.5e\+284 from rounding",
               lambda method=method: compute(RateRequest(
                   eps=1e300, method=method, q_R=1e4, q_L=3e3)))
              for method in ("linear_born", "uncorrected"))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                call()


@pytest.mark.parametrize("orient", ORIENTATIONS)
def test_series_overflow_is_typed(orient):
    # deep in a strongly absorbing sphere sin(n q_R), of which j_1(n q_R)
    # is made, leaves double range (Im n q_R = 1407): a NonFiniteError,
    # not Python's OverflowError from complex arithmetic
    with pytest.raises(NonFiniteError, match=r"^spherical_bessel_j "
                       r"overflowed or produced NaN"):
        gamma_b_exact(1.0 + 100j, 200.0, 100.0, orient)


# eps = 1 + 100j, q_R = 60: gamma_b from tools/offcenter_reference.py's
# body_rates, at 40 digits plus the ~370 that h_m(n q_R)'s J + i Y cancels
# (Im n q_R = 422); C_m ~ e^{-844} and j_m(x)^2 ~ e^{253} (q_L = 18) are
# each beyond double range
_ABSORBING = {(18.0, "radial"): 1.6558666565360846e-260,
              (18.0, "tangential"): 4.8044512145979413e-259,
              (53.0, "radial"): -5.8965875931868461e-47,
              (53.0, "tangential"): -3.1768068536343791e-44}


@pytest.mark.parametrize("q_L, orient", sorted(_ABSORBING))
def test_strongly_absorbing_sphere_against_mpmath(q_L, orient):
    # rates too small for the table's rule, which floors |ref| at 0.01,
    # held to 1e-12 of themselves: the ratio form carries no factor that
    # leaves double range
    want = _ABSORBING[q_L, orient]
    assert abs(gamma_b_exact(1.0 + 100j, 60.0, q_L, orient) - want) \
        <= 1e-12 * abs(want)


# eps = (w/4)^2 puts n q_R = w, at q_R = 4, on the first zero of j_1
# (w = 4.4934...) or of j_2 (5.7634...), where a Bessel ratio of n q_R is
# about 2e-16 and the next about 5e15; gamma_b at q_L = 2 and 3.6 from
# tools/offcenter_reference.body_rates at 40 digits
_AT_A_ZERO = {
    (4.493409457909064, 2.0, "radial"): 0.0034231061815132072,
    (4.493409457909064, 2.0, "tangential"): -0.047849022841757995,
    (4.493409457909064, 3.6, "radial"): -0.22831009271475916,
    (4.493409457909064, 3.6, "tangential"): -0.04691994858191631,
    (5.76345919689455, 2.0, "radial"): 0.17941770451913627,
    (5.76345919689455, 2.0, "tangential"): 0.03660532342774824,
    (5.76345919689455, 3.6, "radial"): -0.9634745966827875,
    (5.76345919689455, 3.6, "tangential"): -0.2968847637109582}


def test_series_through_a_zero_of_j_m():
    # rho_m = j_m(x)/j_m(n q_R) and B1 = n q_R j_{m-1}/j_m - m are huge
    # there and P_m = h_m j_m is tiny; their product keeps the table's
    # 2e-13 x max(|ref|, 0.01) (2.3e-14 measured)
    for (w, q_L, orient), want in _AT_A_ZERO.items():
        got = gamma_b_exact((w / 4.0) ** 2, 4.0, q_L, orient)
        assert abs(got - want) <= 2e-13 * max(abs(want), 0.01), (w, q_L)


def test_series_pole_names_its_order(monkeypatch):
    # eps A0 = B1 empties C_m^N's denominator: with eps = 0 handed to the
    # series and j_4(z1)/j_3(z1) = 4/z1, B1 = 4 - z1 j_4/j_3 = 0 at m = 3
    tables = mie._bessel_ratio_tables

    def ratios(w, x, top):
        j1, r, jx, rx = tables(w, x, top)
        if w == 5.0:
            r[4] = 4.0 / w
        return j1, r, jx, rx

    monkeypatch.setattr(mie, "_bessel_ratio_tables", ratios)
    with pytest.raises(SingularityError, match=r"^sphere coefficient "
                       r"denominator vanished at m = 3 \(resonance pole\)$"):
        mie._series(0j, 1.0 + 0j, 5.0, 2.0, "radial")


def test_subnormal_offset_is_refused_for_what_it_is():
    # |n q_L| = 9.4e-323: below 1/(largest double) 1/(n q_L) leaves double
    # range, and the refusal says so; the centre of the same sphere
    # returns its rate
    args = (-5.409430790265708 + 2.876432724082736e-10j, 0.02573436651202789)
    with pytest.raises(DomainError, match=r"^\|n q_L\| = 9\.39e-323 is "
                       r"below 5\.6e-309, where 1/\(n q_L\) leaves double "
                       r"range; take q_L = 0 for the centre$"):
        gamma_b_exact(*args, 4e-323, "radial")
    assert np.isfinite(gamma_b_exact(*args, 0.0, "radial"))


@pytest.mark.parametrize("eps, q_R, q_L, kind, message", [
    (4.0, 2e4, 1.0, DomainError, "sphere series argument q_R = 20000 is "
     "refused: |z| must be < 10000 (q_R = 20000, q_L = 1)"),
    (1e300, 5.0, 1.0, DomainError, "sphere series argument n q_R = "
     "5e+150+0j is refused: |z| must be < 10000 (q_R = 5, q_L = 1)"),
    # n = 1e-150 takes the subnormal q_L to 0
    (1e-300, 2.0, 4e-323, SingularityError, "sphere series argument n q_L "
     "= 0+0j is refused: function is singular at z = 0 (q_R = 2, q_L = "
     "3.95253e-323)")], ids=["q_R", "n q_R", "n q_L"])
def test_series_argument_refusals_name_their_argument(eps, q_R, q_L, kind,
                                                      message):
    # the first of q_R, n q_R and n q_L that the Bessel functions refuse
    # is named, with its value and the request's q_R and q_L, in the
    # refusal's own type, from compute and from gamma_b_exact alike
    for call in (lambda: compute(RateRequest(eps=eps, method="exact",
                                             q_R=q_R, q_L=q_L)),
                 lambda: gamma_b_exact(eps, q_R, q_L)):
        with pytest.raises(DomainError) as refused:
            call()
        assert type(refused.value) is kind
        assert str(refused.value) == message


# -- invariants of the exact rate (drawn where the series converges) ----------------

_EPS = st.builds(complex, st.floats(1.05, 2.5),
                 st.floats(-8.0, -1.0).map(lambda e: 10.0 ** e))
_Q_R = st.floats(0.0, 1.0).map(lambda u: 0.5 * 40.0 ** u)  # 0.5 .. 20


def _q_L2_coefficient(eps, q_R, orient):
    """(a, A): gamma_b_exact - its centre value = a q_L^2 + O(q_L^4) from
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
    centre = gamma_b_exact(eps, q_R, 0.0)
    for orient in ORIENTATIONS:
        a, A = _q_L2_coefficient(eps, q_R, orient)
        gap = gamma_b_exact(eps, q_R, q_L, orient) - centre
        assert abs(gap - a * q_L**2) <= 0.1 * A * q_L**2, orient


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(eps=_EPS, q_R=_Q_R)
def test_orientations_agree_at_the_centre(eps, q_R):
    # at q_L = 0 both orientations are the centre rate, bit for bit; at
    # q_L = 1e-6 q_R both series give it up to their q_L^2 terms
    centre = gamma_b_exact(eps, q_R, 0.0)
    assert gamma_b_exact(eps, q_R, 0.0, "tangential") == centre
    q_L = 1e-6 * q_R
    radial, tangential = (gamma_b_exact(eps, q_R, q_L, o)
                          for o in ORIENTATIONS)
    bound = sum(_q_L2_coefficient(eps, q_R, o)[1] for o in ORIENTATIONS)
    assert abs(radial - tangential) <= bound * q_L**2


# -- assembled center rate ----------------------------------------------------------


def test_center_rate_vacuum_is_unity():
    assert gamma_center_exact(1.0, 2.0, 0.01) == 1.0


# the grid on which the scalar calls once ran in Python complex
# arithmetic and differed from the columns in the last bits
_ONE_PATH_EPS = (1.1, 1.1 + 1e-8j, 1.3 + 0.01j, 2.25 + 0.1j, 1.05 + 1e-6j,
                 1.0)
_ONE_PATH_Q_R = np.append(np.geomspace(0.5, 20.0, 40), 0.01)


def _outcome(call):
    try:
        return call()
    except LocfieldError as exc:
        return type(exc), str(exc)


def test_scalar_calls_are_one_element_columns():
    # a scalar call runs the column code that compute runs, so each centre
    # number equals the same point of a column, bit for bit
    q_C = 1e-3
    for eps in _ONE_PATH_EPS:
        for q_R in _ONE_PATH_Q_R.tolist():
            request = RateRequest(eps=eps, method="exact", q_R=q_R, q_C=q_C)
            got = _outcome(lambda: compute(request))
            parts = (_outcome(lambda: gamma_c_exact(eps, q_C)),
                     _outcome(lambda: gamma_b_exact(eps, q_R, 0.0)),
                     _outcome(lambda: gamma_center_exact(eps, q_R, q_C)))
            if isinstance(got, tuple):  # an error, the same on each route
                assert got in parts[1:], (eps, q_R)
            else:
                assert parts == (got.gamma_c_ratio, got.gamma_b_ratio,
                                 got.total_ratio), (eps, q_R)
    # and each pair of coefficients the same point of a column of the
    # coefficient kernels
    eps, q_R = (a.ravel() for a in np.meshgrid(np.array(_ONE_PATH_EPS,
                                                        dtype=complex),
                                               _ONE_PATH_Q_R))
    n = np.sqrt(eps)
    for m in (1, 4):
        C_N, C_M = mie._finite_coefficients(
            eps, m, *mie._order_values(m, q_R + 0j, n * q_R))
        for k, (e, q) in enumerate(zip(eps.tolist(), q_R.tolist())):
            assert sphere_coefficients(e, q, m) == (C_N[k], C_M[k]), (e, q, m)


def test_refused_centre_rows_stay_one_kernel_call(monkeypatch):
    # a centred exact curve down to small spheres: the rounding bound
    # refuses 148 of its 400 rows, by mask, so the curve is still one call
    # of the centre kernel, and each row's outcome is compute's alone;
    # only a row whose kernel raises (here an overflow) sends the centred
    # rows one by one
    kernel, calls = mie._center_rate, []

    def counted(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(mie, "_center_rate", counted)
    curve = [RateRequest(eps=1.1 + 1e-8j, method="exact", q_R=q_R,
                         q_C=1e-5)
             for q_R in np.geomspace(1e-4, 10.0, 400).tolist()]
    overflow = [RateRequest(eps=1e-300, method="exact", q_R=1.0, q_C=1e-5)]
    # (the first 50 rows, below q_R = 4.2e-4, are all refused)
    for requests, sizes, count in ((curve, [400], 148),
                                   (curve[:50] + overflow, [51] + [1] * 51,
                                    50)):
        calls.clear()
        results = compute_batch(requests)
        assert calls == sizes
        assert sum(type(r) is AccuracyError for r in results) == count
        for request, result in zip(requests, results):
            assert _outcome(lambda: compute(request)) == (
                (type(result), str(result))
                if isinstance(result, LocfieldError) else result)
    assert type(results[-1]) is NonFiniteError


def test_vacuum_rows_are_exact():
    # eps = 1: C_m = 0, and the centre rate is 0 with no rounding guard,
    # which the column's rounding noise once tripped ("off by a relative
    # 6.3e+06")
    assert compute(RateRequest(eps=1.0, method="exact",
                               q_R=0.01)).total_ratio == 1.0
    assert [gamma_b_exact(1.0, q_R, 0.0) for q_R in (0.01, 1e-6)] == [0.0,
                                                                       0.0]
    for m in (1, 4):
        assert sphere_coefficients(1.0, 0.01, m) == (0j, 0j)
    assert gamma_b_exact(1.0, 2.0, 1.5, "tangential") == 0.0


def test_exact_kernel_keeps_each_rows_error():
    # one column: centred rows, one of them a tiny transparent sphere the
    # centre call refuses, and off-centre rows, one of them overflowing;
    # each error stays on its row, and every other row is compute's alone
    rows = [(1.1 + 1e-8j, 2.0, 0.0), (1.1, 1e-5, 0.0),
            (1.0 + 100j, 200.0, 100.0), (1.2 + 1e-7j, 5.0, 0.0),
            (1.1 + 1e-8j, 3.0, 1.0), (1.3, 0.5, 0.0)]
    requests = [RateRequest(eps=e, method="exact", q_R=q_R, q_L=q_L,
                            q_C=1e-6) for e, q_R, q_L in rows]
    results = compute_batch(requests)
    assert {k: type(r) for k, r in enumerate(results)
            if isinstance(r, LocfieldError)} == {1: AccuracyError,
                                                  2: NonFiniteError}
    assert str(results[1]).startswith("centre rate at q_R = 1e-05 ")
    assert str(results[2]).startswith("spherical_bessel_j overflowed")
    for request, result in zip(requests, results):
        if isinstance(result, LocfieldError):
            with pytest.raises(type(result)) as alone:
                compute(request)
            assert str(alone.value) == str(result)
        else:
            assert result == compute(request)
    eps, q_R, q_L = map(np.array, zip(*rows))
    values, errors = mie._gamma_b_rows(eps, np.sqrt(eps), q_R, q_L,
                                       np.full(eps.size, "radial"))
    assert sorted(errors) == [1, 2] and np.isnan(values[[1, 2]]).all()


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
    # q_R follows a sphere request's rule at q_L = 0, q_C <= q_R: a cavity
    # that touches the surface is compute's rate, not a refusal
    eps = 1.1 + 1e-8j
    assert gamma_center_exact(eps, 0.01, 0.01) == compute(RateRequest(
        eps=eps, method="exact", q_R=0.01, q_C=0.01)).total_ratio
    for q_R, message in ((0.005, "emitter too close to the surface"),
                         (math.inf, "q_R must be finite"),
                         (math.nan, "q_R must be finite")):
        with pytest.raises(DomainError, match=message):
            gamma_center_exact(1.1, q_R, 0.01)
    # each refusal is the exact request's, in its order: the sphere rule
    # before the method's and the cavity terms' (where q_C once came
    # first, and a pole before a bad q_R)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # q_C = 0.15 warns
        for eps in (1.1, -0.5, -0.5 + 1e-155j, 1e-300):
            for q_R in (1e-120, 2.0, math.inf, -1.0):
                for q_C in (0.01, 0.15, 0.25, 1e-120, math.inf):
                    got = _outcome(lambda: gamma_center_exact(eps, q_R, q_C))
                    want = _outcome(lambda: compute(RateRequest(
                        eps=eps, method="exact", q_R=q_R, q_C=q_C)))
                    assert got == (want if isinstance(want, tuple)
                                   else want.total_ratio), (eps, q_R, q_C)


def _mp_center_rate(eps, q_R):
    # Im[K C_1^N] at 60 digits, K = i n L^2 and L = 3 eps/(2 eps + 1)
    with mpmath.workdps(60):
        e = mpmath.mpc(eps)
        n = mpmath.sqrt(e)
        z0, z1 = mpmath.mpc(q_R), n * q_R
        h0, xi0p = (-mpmath.expj(z0) * (1 / z0 + 1j / z0**2),
                    mpmath.expj(z0) * (1 / z0 + 1j / z0**2 - 1j))
        h1, xi1p = (-mpmath.expj(z1) * (1 / z1 + 1j / z1**2),
                    mpmath.expj(z1) * (1 / z1 + 1j / z1**2 - 1j))
        j1 = (mpmath.sin(z1) - z1 * mpmath.cos(z1)) / z1**2
        ps1p = mpmath.sin(z1) - j1
        C_N = -(e * h1 * xi0p - xi1p * h0) / (e * j1 * xi0p - ps1p * h0)
        return float((1j * n * (3 * e / (2 * e + 1))**2 * C_N).imag)


def test_center_rate_of_a_tiny_transparent_sphere_is_refused():
    # in a transparent host the rate is Re C_1^N, which at a small sphere
    # sits under Im C_1^N ~ 1/q_R^3: at q_R = 1e-8 the double-precision
    # rate was 2.97 against -0.1194, at 1e-5 off by 9.5e-6 of itself
    for q_R in (1e-8, 1e-5):
        with pytest.raises(AccuracyError, match=rf"^centre rate at q_R = "
                           rf"{q_R:g} may be off by a relative "):
            gamma_b_exact(1.1, q_R, 0.0)
    got, want = gamma_b_exact(1.1, 0.01, 0.0), _mp_center_rate(1.1, 0.01)
    assert abs(got - want) <= 1e-11 * abs(want)
    assert gamma_b_exact(1.0, 0.01, 0.0) == 0.0


# spheres so small that C_1^N's rounding swamps the rate: a transparent
# host, where the rate is the small real part of K times the sum (the
# double-precision sum gave -0.844 against -1.509 from 40-digit mpmath),
# and the lossless Frohlich pole eps = -2, where C_1^N's denominator
# cancels (1.83e48 against 2.16e32)
_TINY_SPHERES = [
    ((2.25, 1.5621345181484196e-08, 1.5621345181484196e-14, "tangential"),
     "1.3e+08"),
    ((-2.0, 1.3041047308660494e-08, 1.2388994943227469e-08, "radial"),
     "2.0e+08")]


@pytest.mark.parametrize("args, bound", _TINY_SPHERES)
def test_tiny_offcentre_spheres_are_refused_as_the_centre_is(args, bound):
    # the series refuses by the centre's rounding bound, with K times the
    # sum in place of K C_1^N, through gamma_b_exact, compute and
    # compute_batch, whose good request beside it keeps its rate; the
    # centre of the same sphere refuses too
    eps, q_R, q_L, orient = args
    message = (rf"^sphere series rate at q_R = {q_R:g}, q_L = {q_L:g} may "
               rf"be off by a relative {re.escape(bound)} from rounding, "
               r"above 1e-08$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AccuracyError, match=message):
            gamma_b_exact(*args)
        request = RateRequest(eps=eps, method="exact", q_R=q_R, q_L=q_L,
                              q_C=q_R / 100, orientation=orient)
        with pytest.raises(AccuracyError, match=message):
            compute(request)
        good = RateRequest(eps=eps, method="exact", q_R=2.0, q_L=1.0,
                           q_C=q_R / 100, orientation=orient)
        refused, kept = compute_batch([request, good])
        assert isinstance(refused, AccuracyError)
        assert re.match(message, str(refused))
        assert kept == compute(good)
        with pytest.raises(AccuracyError, match=r"^centre rate at q_R = "):
            gamma_b_exact(eps, q_R, 0.0)


def _count_calls(monkeypatch, module_names, name, calls):
    """Wrap the function ``name`` wherever the package's modules hold it,
    counting its calls by first argument in ``calls``."""
    original = getattr(importlib.import_module("locfield.errors"), name)

    def counted(*args, **kwargs):
        calls[name, args[0] if isinstance(args[0], str) else None] += 1
        return original(*args, **kwargs)

    for module in module_names:
        module = importlib.import_module(f"locfield.{module}")
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)


# every rule of locfield.errors, and the modules that look them up
_RULES = ("positive", "whole_number", "inside_sphere", "number", "array",
          "check_eps", "check_chi", "chi_faults", "permittivity_faults",
          "method_faults", "eps_size_faults", "finite_rate", "finite_faults",
          "qc_faults", "cavity_scale_faults", "cavity_term_faults",
          "check_qc", "warn_qc", "sphere_faults", "orientation_faults")
_RULE_MODULES = ("errors", "greens", "born", "rates", "mie", "cavity", "cli")


def test_exact_requests_are_checked_once(monkeypatch):
    # a request runs every rule when it is made: its own (permittivity,
    # sphere) and compute's (the method's, the q_C cavity scale's and,
    # on linear_born, the cavity term's), and compute and compute_batch
    # run none; the rows kernels take their rows unchecked, the exact
    # one with no gamma_b_exact, no eps check and no rule per row, the
    # linear one (linear_born and uncorrected) with no array conversion,
    # sphere, chi or orientation rule, centred rows included
    calls = Counter()
    for name in _RULES:
        _count_calls(monkeypatch, _RULE_MODULES, name, calls)
    made = ((1.2 + 1e-7j, 1.0, "exact"), (1.5, 0.5, "exact"),
            (1.1 + 1e-8j, 2.0, "exact"), (1.3 + 1e-6j, 0.0, "exact"),
            (1.4 + 1e-7j, 0.0, "weak_absorption"),
            (1.2 + 1e-7j, 1.0, "linear_born"),
            (1.1 + 1e-8j, 0.0, "linear_born"),
            (1.5, 0.5, "uncorrected"), (1.3, 0.0, "uncorrected"))
    requests = [RateRequest(eps=eps, method=method, q_R=3.0, q_L=q_L)
                for eps, q_L, method in made]
    methods = Counter(method for *_, method in made)
    assert calls == {
        ("number", "eps"): 9, ("check_eps", None): 9,
        ("permittivity_faults", None): 9, ("sphere_faults", None): 9,
        ("qc_faults", None): 9, ("positive", "q_C"): 9,
        ("warn_qc", None): 9, ("orientation_faults", "radial"): 9,
        ("cavity_term_faults", "q_C"): 9,
        ("finite_faults", None): methods["linear_born"],
        **{("method_faults", method): count
           for method, count in methods.items()},
        **{("eps_size_faults", method): count
           for method, count in methods.items()
           if method in ("exact", "weak_absorption")}}

    def refused(*args, **kwargs):
        raise AssertionError("a row was checked again")

    for module, name in ((mie, "gamma_b_exact"), (mie, "check_eps"),
                         (cavity, "check_eps"),
                         (born, "gamma_b_sphere_linear"),
                         (born, "check_chi")):
        monkeypatch.setattr(module, name, refused)
    for batch in (*([request] for request in requests), requests):
        calls.clear()
        results = (compute_batch(batch) if len(batch) > 1
                   else [compute(batch[0])])
        assert all(r.total_ratio > 0 for r in results)
        assert calls == {}


def _sweep_column(method):
    """The rates of one sweep column of three points, as a sweep's curve
    computes them."""
    return rates._compute_columns([rates._Column(
        method, "radial", 0.01, np.full(3, 1.1 + 1e-8j),
        np.full(3, 3.0), np.array([0.0, 0.5, 1.0]))])


# a call of every public callable of locfield but the exception types
_PUBLIC_CALLS = {
    "AtomParams": lambda: AtomParams(k_A=1e7, d_A=1e-29),
    "CavityCoefficients": lambda: CavityCoefficients(1.0, np.zeros(1),
                                                     np.zeros(1)),
    "RateBreakdown": lambda: RateBreakdown(0.1, 0.2),
    "ValidityReport": lambda: ValidityReport(0.1, True, 0.0, True),
    "RateRequest": lambda: RateRequest(eps=1.1 + 1e-8j, method="exact",
                                       q_R=2.0, q_L=0.5),
    "StarBoundary": lambda: StarBoundary.sphere(2.0, 0.5),
    "body_green_center": lambda: body_green_center(1.1 + 1e-8j, 2.0),
    "body_green_linear": lambda: body_green_linear(
        StarBoundary.sphere(2.0, 0.5), 0.1),
    "cavity_green_linear": lambda: cavity_green_linear(0.01, 0.1 + 1e-8j),
    "compute": lambda: compute(RateRequest(
        eps=1.1 + 1e-8j, method="linear_born", q_R=2.0, q_L=0.5)),
    # two requests, made beforehand, on one column
    "compute_batch": lambda: compute_batch(_UNCORRECTED),
    "f_integrand": lambda: f_integrand(0.5, [0.0, 0.0, 1.0]),
    "gamma0_si": lambda: gamma0_si(AtomParams(k_A=1e7, d_A=1e-29)),
    "gamma_b_corrected": lambda: gamma_b_corrected(1.1, _G, [0.0, 0.0, 1.0]),
    "gamma_b_exact": lambda: gamma_b_exact(1.1 + 1e-8j, 2.0, 0.5),
    "gamma_b_sphere_linear": lambda: gamma_b_sphere_linear(2.0, 0.5, 0.1),
    "gamma_bulk": lambda: gamma_bulk(1.1),
    "gamma_c_exact": lambda: gamma_c_exact(1.1 + 1e-8j, 0.01),
    "gamma_c_linear": lambda: gamma_c_linear(0.1 + 1e-8j, 0.01),
    "gamma_center_exact": lambda: gamma_center_exact(1.1 + 1e-8j, 2.0, 0.01),
    "gamma_total_linear": lambda: gamma_total_linear(
        StarBoundary.sphere(2.0, 0.5), 0.1, 0.01),
    "gamma_uncorrected": lambda: gamma_uncorrected(1.1, _G, [0.0, 0.0, 1.0]),
    "gamma_weak_absorption": lambda: gamma_weak_absorption(
        1.1 + 1e-8j, 0.01, 1.2, _G, [0.0, 0.0, 1.0]),
    "outside_scatter_coefficients":
        lambda: outside_scatter_coefficients(1.1 + 1e-8j, 0.05, 3),
    "sphere_coefficients": lambda: sphere_coefficients(1.1 + 1e-8j, 2.0, 3),
    "transmission_coefficient":
        lambda: transmission_coefficient(1.1 + 1e-8j, 0.05),
    "vacuum_green": lambda: vacuum_green(0.5, [0.0, 0.0, 1.0]),
    "validity_check": lambda: validity_check(StarBoundary.bulk(), 0.1, 0.01),
}
_G = 1e-3j * np.eye(3)
_UNCORRECTED = [RateRequest(eps=1.1, method="uncorrected", q_R=2.0, q_L=q_L)
                for q_L in (0.0, 0.5)]


def test_centre_entries_check_each_rule_once(monkeypatch):
    # every public callable runs each rule once on each argument, and
    # the public entries call the unchecked kernels and cores, not each
    # other (outside_scatter_coefficients ran the permittivity and q_C
    # rules twice, through transmission_coefficient, and vacuum_green q's
    # positivity, through ab_coefficients); the one exception is q_C's
    # positivity, part of both the cavity-radius and the cavity-scale
    # rule, which a RateRequest, having checked q_C as a radius, runs
    # once (its cavity-term rule alone).  The centre entries and the
    # scalar linear entry, a request and a sweep column, run exactly
    # these rules: the kernels take their one-element columns unchecked
    calls = Counter()
    for name in _RULES:
        _count_calls(monkeypatch, _RULE_MODULES, name, calls)
    public = [getattr(locfield, name) for name in locfield.__all__]
    assert set(_PUBLIC_CALLS) == {
        obj.__name__ for obj in public if callable(obj)
        and not (isinstance(obj, type) and issubclass(obj, Exception))}
    for name, call in _PUBLIC_CALLS.items():
        calls.clear()
        call()
        radius_rules = (calls[("qc_faults", None)]
                        + calls[("sphere_faults", None)])
        twice = ({("positive", "q_C")} if radius_rules
                 and calls[("cavity_scale_faults", "q_C")] else set())
        assert [key for key, count in calls.items()
                if count > (2 if key in twice else 1)] == [], (name, calls)
    eps = 1.1 + 1e-8j
    eps_rule = {("number", "eps"): 1, ("check_eps", None): 1,
                ("permittivity_faults", None): 1}
    exact = {("method_faults", "exact"): 1, ("eps_size_faults", "exact"): 1}
    for call, checks in (
            (lambda: gamma_b_exact(eps, 2.0, 0.0),
             {**eps_rule, **exact, ("number", "q_R"): 1,
              ("number", "q_L"): 1, ("inside_sphere", None): 1,
              ("positive", "q_R"): 1, ("orientation_faults", "radial"): 1}),
            (lambda: gamma_center_exact(eps, 2.0, 0.01),
             {**eps_rule, **exact, ("number", "q_R"): 1,
              ("number", "q_C"): 1, ("sphere_faults", None): 1,
              ("qc_faults", None): 1, ("cavity_scale_faults", "q_C"): 1,
              ("cavity_term_faults", "q_C"): 1,
              ("positive", "q_C"): 2, ("warn_qc", None): 1}),
            (lambda: body_green_center(eps, 2.0),
             {**eps_rule, ("number", "q_R"): 1, ("positive", "q_R"): 1,
              ("whole_number", "m"): 1}),
            (lambda: sphere_coefficients(eps, 2.0, 3),
             {**eps_rule, ("number", "q_R"): 1, ("positive", "q_R"): 1,
              ("whole_number", "m"): 1}),
            (lambda: gamma_b_sphere_linear(2.0, 0.5, 0.1, "tangential"),
             {("number", "q_R"): 1, ("number", "q_L"): 1,
              ("number", "chi"): 1, ("inside_sphere", None): 1,
              ("positive", "q_R"): 1, ("chi_faults", None): 1,
              ("orientation_faults", "tangential"): 1}),
            (lambda: transmission_coefficient(eps, 0.05),
             {**eps_rule, ("number", "q_C"): 1, ("positive", "q_C"): 1}),
            (lambda: outside_scatter_coefficients(eps, 0.05, 3),
             {**eps_rule, ("number", "q_C"): 1, ("positive", "q_C"): 1,
              ("whole_number", "m_max"): 1}),
            (lambda: vacuum_green(0.5, [0.0, 0.0, 1.0]),
             {("cavity_scale_faults", "q"): 1, ("cavity_term_faults", "q"): 1,
              ("positive", "q"): 1}),
            (lambda: RateRequest(eps=eps, method="exact", q_R=2.0, q_L=0.5),
             {**eps_rule, **exact, ("orientation_faults", "radial"): 1,
              ("sphere_faults", None): 1, ("qc_faults", None): 1,
              ("positive", "q_C"): 1, ("cavity_term_faults", "q_C"): 1,
              ("warn_qc", None): 1}),
            (lambda: _sweep_column("linear_born"),
             {("permittivity_faults", None): 1, ("sphere_faults", None): 1,
              ("qc_faults", None): 1, ("method_faults", "linear_born"): 1,
              ("cavity_scale_faults", "q_C"): 1, ("positive", "q_C"): 2,
              ("cavity_term_faults", "q_C"): 1, ("finite_faults", None): 1,
              ("warn_qc", None): 1}),
            (lambda: _sweep_column("uncorrected"),
             {("permittivity_faults", None): 1, ("sphere_faults", None): 1,
              ("qc_faults", None): 1, ("method_faults", "uncorrected"): 1,
              ("cavity_scale_faults", "q_C"): 1, ("positive", "q_C"): 2,
              ("cavity_term_faults", "q_C"): 1, ("warn_qc", None): 1})):
        calls.clear()
        call()
        assert calls == checks


def test_exact_columns_form_their_parts_once(monkeypatch):
    # a column forms s = 2 eps + 1, n = sqrt(eps) and chi = eps - 1 once
    # and hands them on: four exact requests on two columns (two
    # orientations) form them twice, a weak_absorption column takes the
    # root of Re eps once, and no row takes its own root, centred rows
    # included
    requests = [RateRequest(eps=eps, method=method, q_R=3.0, q_L=q_L,
                            orientation=orientation)
                for eps, q_L, orientation, method in (
                    (1.2 + 1e-7j, 1.0, "radial", "exact"),
                    (1.5, 0.5, "tangential", "exact"),
                    (1.1 + 1e-8j, 2.0, "radial", "exact"),
                    (1.3 + 1e-6j, 0.0, "radial", "exact"),
                    (1.4 + 1e-7j, 0.0, "radial", "weak_absorption"))]
    alone = [compute(r) for r in requests]
    calls = Counter()

    def counted(name, function):
        def spy(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return spy

    monkeypatch.setattr(cavity, "_medium",
                        counted("_medium", cavity._medium))
    monkeypatch.setattr(mie.np, "sqrt", counted("sqrt", mie.np.sqrt))
    assert compute_batch(requests) == alone
    assert calls == {"_medium": 2, "sqrt": 3}
