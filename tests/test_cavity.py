"""Real-cavity model: coefficients, exact cavity rate, bulk limits."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from locfield.born import gamma_c_linear, gamma_total_linear
from locfield.cavity import (BULK_MODELS, gamma_b_corrected, gamma_bulk,
                             gamma_c_exact, gamma_weak_absorption,
                             outside_scatter_coefficients,
                             transmission_coefficient)
from locfield.errors import (DomainError, InvariantError, LocfieldError,
                             NonFiniteError, SingularityError)
from locfield.greens import StarBoundary, vacuum_green
from locfield.rates import gamma_uncorrected
from locfield.specfun import (riccati_derivative, spherical_bessel_j,
                              spherical_hankel_h1)

mpmath.mp.dps = 40

Z = np.array([0.0, 0.0, 1.0])
ZEROS = np.zeros((3, 3), dtype=complex)


def _mp_jh(m, z):
    z = mpmath.mpc(z)
    pref = mpmath.sqrt(mpmath.pi / (2 * z))
    j = pref * mpmath.besselj(m + mpmath.mpf(1) / 2, z)
    h = pref * mpmath.hankel1(m + mpmath.mpf(1) / 2, z)
    return j, h


def _mp_transmission(eps, q_C):
    # [z f_m]' = z f_{m-1} - m f_m keeps everything closed-form
    eps = mpmath.mpc(eps)
    n = mpmath.sqrt(eps)
    z0 = mpmath.mpc(q_C)
    z1 = n * q_C
    j0_z0, h0_z0 = _mp_jh(0, z0)
    j1_z0, h1_z0 = _mp_jh(1, z0)
    j0_z1, h0_z1 = _mp_jh(0, z1)
    j1_z1, h1_z1 = _mp_jh(1, z1)
    xi1p_z0 = z0 * h0_z0 - h1_z0
    xi1p_z1 = z1 * h0_z1 - h1_z1
    psi1p_z0 = z0 * j0_z0 - j1_z0
    num = j1_z0 * xi1p_z0 - psi1p_z0 * h1_z0
    den = j1_z0 * xi1p_z1 - eps * psi1p_z0 * h1_z1
    return complex(n * num / den)


# -- transmission coefficient ---------------------------------------------------


def test_transmission_vacuum_is_exactly_one():
    assert transmission_coefficient(1.0, 0.3) == 1.0 + 0.0j


def test_transmission_small_cavity_limit():
    eps = 1.1
    limit = np.sqrt(eps) * 3 * eps / (2 * eps + 1)
    assert_allclose(transmission_coefficient(eps, 1e-4), limit, rtol=1e-8)
    assert_allclose(abs(limit), 1.0815841246, rtol=1e-9)


def test_transmission_approach_rate():
    # |A - limit| should vanish at least linearly in q_C (measured: ~q_C^2)
    eps = 1.3 + 1e-8j
    limit = np.sqrt(complex(eps)) * 3 * eps / (2 * eps + 1)
    qc = np.geomspace(1e-3, 1e-1, 9)
    dev = np.array([abs(transmission_coefficient(eps, q) - limit)
                    for q in qc])
    slope = np.polyfit(np.log(qc), np.log(dev), 1)[0]
    assert slope >= 0.9
    assert slope <= 2.5


def test_transmission_against_mpmath():
    for eps, q_C in ((1.2 + 1e-8j, 0.05), (2.0 + 0.05j, 0.1),
                     (1.1 + 0j, 0.02), (1.1 + 1e-8j, 0.01),
                     (2.25 + 1e-3j, 1e-3), (1.0 + 100j, 0.01),
                     (1.5 + 10j, 0.2)):
        assert_allclose(transmission_coefficient(eps, q_C),
                        _mp_transmission(eps, q_C), rtol=1e-12)


def _scipy_route_transmission(eps, q_C):
    """transmission_coefficient from the order-generic Bessel functions,
    called in the order the scipy-backed route called them."""
    eps = complex(eps)
    n = complex(np.sqrt(eps))
    z0, z1 = complex(q_C), n * q_C
    j, pj = spherical_bessel_j(1, z0), riccati_derivative("bessel_j", 1, z0)
    num = (j * riccati_derivative("hankel_h1", 1, z0)
           - pj * spherical_hankel_h1(1, z0))
    den = (j * riccati_derivative("hankel_h1", 1, z1)
           - eps * pj * spherical_hankel_h1(1, z1))
    if abs(den) < 1.0e-300:
        raise SingularityError("cavity transmission denominator vanished")
    return n * num / den


@pytest.mark.parametrize("eps", [1.1, 2.25 + 1e-3j, 1.0 + 100j, 100j,
                                 -4.0 + 1e-3j, 3.0 + 1e5j])
def test_transmission_matches_scipy_route(eps):
    # the closed forms refuse what the scipy-backed calls refused, with
    # the same error and text, and agree where they return; far up the
    # plane, where h_1(n q_C) underflows, that is the vanished denominator
    for q_C in (1e-3, 0.01, 0.3, 1.0, 60.0, 99.0, 150.0, 500.0, 999.0,
                1e4, 2e4):
        try:
            want = _scipy_route_transmission(eps, q_C)
        except LocfieldError as exc:
            with pytest.raises(type(exc)) as got:
                transmission_coefficient(eps, q_C)
            assert str(got.value) == str(exc), q_C
        else:
            assert_allclose(transmission_coefficient(eps, q_C), want,
                            rtol=1e-12, err_msg=str(q_C))


def test_transmission_validation():
    with pytest.raises(DomainError):
        transmission_coefficient(1.1, 0.0)
    with pytest.raises(DomainError):
        transmission_coefficient(1.1, np.inf)


# -- outside-scattering coefficients ---------------------------------------------


def test_outside_scatter_vacuum_vanishes():
    c = outside_scatter_coefficients(1.0, 0.1, 3)
    assert np.all(c.B_M == 0)
    assert np.all(c.B_N == 0)
    assert c.A == 1.0 + 0j


def test_outside_scatter_power_laws():
    # |B_1^N| ~ q_C^3, |B_2^N| ~ q_C^5, |B_1^M| ~ q_C^5
    eps = 1.2 + 1e-8j
    qc = np.geomspace(1e-3, 1e-2, 7)
    mags = np.array([[abs(v) for v in
                      (c.B_N[0], c.B_N[1], c.B_M[0])]
                     for c in (outside_scatter_coefficients(eps, q, 2)
                               for q in qc)])
    slopes = [np.polyfit(np.log(qc), np.log(mags[:, k]), 1)[0]
              for k in range(3)]
    assert abs(slopes[0] - 3.0) < 0.1
    assert abs(slopes[1] - 5.0) < 0.1
    assert abs(slopes[2] - 5.0) < 0.1


def test_outside_scatter_validation():
    with pytest.raises(DomainError):
        outside_scatter_coefficients(1.1, 0.01, 0)


# -- exact cavity rate ------------------------------------------------------------


def test_gamma_c_exact_vacuum_and_transparent():
    assert gamma_c_exact(1.0, 0.01) == 0.0
    # transparent medium: only the constant term survives
    e = 1.44
    expected = 9.0 * e**2.5 / (2 * e + 1) ** 2 - 1.0
    assert_allclose(gamma_c_exact(e, 0.01), expected, rtol=1e-14)
    assert gamma_c_exact(e, 0.01) == gamma_c_exact(e, 0.001)


def test_gamma_c_exact_linearization():
    # difference to the linear form is -chi^2/8 + O(chi^3) for real chi
    for chi in (1e-3, 3e-3, 1e-2):
        d = gamma_c_exact(1.0 + chi, 0.01) - gamma_c_linear(chi, 0.01)
        assert_allclose(d, -chi**2 / 8.0, rtol=0.05)
    chis = np.geomspace(1e-3, 1e-1, 9)
    devs = np.array([abs(gamma_c_exact(1.0 + c, 0.01)
                         - gamma_c_linear(c, 0.01)) for c in chis])
    slope = np.polyfit(np.log(chis), np.log(devs), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_gamma_c_exact_absorbing_grows_with_smaller_cavity():
    eps = 1.1 + 0.01j
    assert gamma_c_exact(eps, 0.01) > gamma_c_exact(eps, 0.02) > 0


def test_gamma_c_exact_cavity_radius_guard():
    with pytest.raises(DomainError):
        gamma_c_exact(1.1, 0.25)
    with pytest.warns(UserWarning):
        gamma_c_exact(1.1, 0.15)


# -- corrected body term -----------------------------------------------------------


def test_gamma_b_corrected_vacuum_reduction():
    g = np.diag([0.01 + 0.002j, 0.01 + 0.002j, 0.02 + 0.004j]).astype(complex)
    got = gamma_b_corrected(1.0, g, Z)
    assert_allclose(got, 6 * np.pi * 0.004, rtol=1e-14)


def test_gamma_b_corrected_real_factor_pullout():
    e = 1.21
    g = np.diag([0.01 + 0.002j, 0.01 + 0.002j, 0.02 + 0.004j]).astype(complex)
    f2 = (3 * e / (2 * e + 1)) ** 2
    assert_allclose(gamma_b_corrected(e, g, Z),
                    f2 * 6 * np.pi * 0.004, rtol=1e-14)


def test_gamma_b_corrected_input_validation():
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(InvariantError):
        gamma_b_corrected(1.1, bad, Z)
    with pytest.raises(DomainError):
        gamma_b_corrected(1.1, np.zeros((2, 2)), Z)
    with pytest.raises(InvariantError):
        gamma_b_corrected(1.1, ZEROS, np.array([0.0, 0.0, 2.0]))


def test_gamma_b_corrected_next_to_the_pole_band():
    # just outside the pole band L^2 is about -1.4e308: with gB1 = 1e5 I
    # only the real part of L^2 d.gB1.d, which the rate does not use,
    # leaves double range, and 6 pi Im[...] comes back as 40-digit mpmath
    # has it; with gB1 = 1e5 (1 + i) I the rate itself does, and raises a
    # typed error.  No numpy warning either way
    eps = -0.5 + 6.4e-155j
    e = mpmath.mpc(eps.real, eps.imag)
    want = float(6 * mpmath.pi * mpmath.im((3 * e / (2 * e + 1)) ** 2 * 1e5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gamma_b_corrected(eps, 1e5 * np.eye(3), Z)
        with pytest.raises(NonFiniteError, match=r"^corrected body rate "
                           r"overflowed: 6 pi Im\[L\^2 d.gB1.d\] leaves "
                           r"double range$"):
            gamma_b_corrected(eps, (1e5 + 1e5j) * np.eye(3), Z)
    assert_allclose(got, want, rtol=1e-14)


def test_assembly_identity_with_mie_tensor():
    # 1 + gamma_c + corrected body term == fully assembled center rate
    from locfield.mie import body_green_center, gamma_center_exact
    for eps in (1.1 + 1e-8j, 1.5 + 0.02j):
        for q_R in (0.7, 2.0, 6.0):
            gB1 = body_green_center(eps, q_R)
            total = (1.0 + gamma_c_exact(eps, 0.01)
                     + gamma_b_corrected(eps, gB1, Z))
            assert_allclose(total, gamma_center_exact(eps, q_R, 0.01),
                            rtol=1e-12)


# -- weak absorption ----------------------------------------------------------------


def test_weak_absorption_transparent_reduces_to_corrected():
    eps = 1.21 + 0j
    gamma, cond = gamma_weak_absorption(eps, 0.01, 1.1, ZEROS, Z)
    f2 = (3 * 1.21 / (2 * 1.21 + 1)) ** 2
    assert_allclose(gamma, f2 * 1.1, rtol=1e-14)
    assert cond == 0.0


def test_weak_absorption_shift_arithmetic():
    # zero body input isolates the absorption shift delta
    eps = 1.1 + 1e-8j
    delta, cond = gamma_weak_absorption(eps, 0.01, 0.0, ZEROS, Z)
    re, im, qc = mpmath.mpf("1.1"), mpmath.mpf("1e-8"), mpmath.mpf("0.01")
    ref = (9 * im / ((2 * re + 1) ** 2 * qc**3)
           + 9 * (14 * re + 1) * im / (5 * (2 * re + 1) ** 3 * qc))
    assert_allclose(delta, float(ref), rtol=1e-13)
    assert_allclose(delta, 8.7890625e-3 + 9.0087890625e-7, rtol=1e-12)
    assert cond == 0.0


def test_weak_absorption_consistent_with_full_rate():
    # |weak - full| stays well inside delta * 1e-2 whenever the
    # smallness condition holds
    from locfield.mie import body_green_center, gamma_center_exact
    from locfield.rates import gamma_uncorrected
    for q_R in (2.0, 5.0):
        for q_C in (0.01, 0.05):
            for im in (1e-8, 1e-7):
                eps = complex(1.1, im)
                gB1 = body_green_center(1.1, q_R)
                gb_unc = gamma_uncorrected(1.1, gB1, Z)
                weak, cond = gamma_weak_absorption(eps, q_C, gb_unc, gB1, Z)
                delta, _ = gamma_weak_absorption(eps, q_C, 0.0, ZEROS, Z)
                full = gamma_center_exact(eps, q_R, q_C)
                assert cond < 1e-3
                assert abs(weak - full) <= delta * 1e-2


def test_weak_absorption_validation():
    with pytest.raises(DomainError):
        gamma_weak_absorption(-1.0 + 0j, 0.01, 1.0, ZEROS, Z)
    for gamma_b_uncorrected in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError,
                           match="^gamma_b_uncorrected must be finite$"):
            gamma_weak_absorption(1.1 + 1e-8j, 0.01, gamma_b_uncorrected,
                                  ZEROS, Z)


# -- one checked dipole contraction ------------------------------------------

# each caller of one dipole d, with the body tensor g where it takes one
_ONE_DIPOLE = {
    "gamma_uncorrected": lambda g, d: gamma_uncorrected(1.1, g, d),
    "gamma_b_corrected": lambda g, d: gamma_b_corrected(1.1, g, d),
    "gamma_weak_absorption": lambda g, d: gamma_weak_absorption(
        1.1 + 1e-8j, 0.01, 1.0, g, d),
    "gamma_total_linear": lambda g, d: gamma_total_linear(
        StarBoundary.sphere(1.0), 0.1, 0.01, dipole=d),
    "vacuum_green": lambda g, d: vacuum_green(1.0, d),
}
_ROWS = {"1x3": [Z], "2x3": [Z, [1.0, 0.0, 0.0]], "3x3": np.eye(3)}
_ASYMMETRIC = np.zeros((3, 3), dtype=complex)
_ASYMMETRIC[0, 1] = 1.0


@pytest.mark.parametrize("caller, g, d, kind, message", [
    *(pytest.param(caller, ZEROS, rows, DomainError,
                   rf"^expected a 3-vector, got shape \({len(rows)}, 3\)$",
                   id=f"{caller}-{shape}")
      for caller in _ONE_DIPOLE for shape, rows in _ROWS.items()),
    # gamma_uncorrected checks its tensor as the corrected rates do
    pytest.param("gamma_uncorrected", np.full((3, 3), np.nan), Z,
                 DomainError, "^gB1 must be finite$", id="nan-gB1"),
    pytest.param("gamma_uncorrected", _ASYMMETRIC, Z, InvariantError,
                 "^gB1 must be symmetric", id="asymmetric-gB1"),
    pytest.param("gamma_uncorrected", np.zeros((2, 2)), Z, DomainError,
                 r"^gB1 must be a 3x3 tensor, got shape \(2, 2\)$",
                 id="2x2-gB1"),
])
def test_one_dipole_callers_check_dipole_and_tensor(caller, g, d, kind,
                                                     message):
    with pytest.raises(kind, match=message):
        _ONE_DIPOLE[caller](g, d)


# -- bulk limits ----------------------------------------------------------------------


def test_bulk_models_reference_values():
    assert_allclose(gamma_bulk(1.1), 1.1153836285715772, rtol=1e-14)
    assert_allclose(gamma_bulk(1.1, model="virtual_cavity"),
                    ((1.1 + 2) / 3) ** 2 * np.sqrt(1.1), rtol=1e-14)
    assert_allclose(gamma_bulk(1.1, model="linear"), 1.0 + 0.7 / 6.0,
                    rtol=1e-14)
    for model in BULK_MODELS:
        assert gamma_bulk(1.0, model=model) == 1.0


def test_bulk_model_ordering_and_quadratic_difference():
    # real vs virtual cavity split at second order: -(4/9) chi^2
    chis = np.geomspace(1e-3, 1e-1, 9)
    diffs = np.array([abs(gamma_bulk(1 + c) -
                          gamma_bulk(1 + c, model="virtual_cavity"))
                      for c in chis])
    slope = np.polyfit(np.log(chis), np.log(diffs), 1)[0]
    assert abs(slope - 2.0) < 0.1
    assert_allclose(diffs[0], (4.0 / 9.0) * chis[0] ** 2, rtol=0.05)
    assert gamma_bulk(1.1) < gamma_bulk(1.1, model="virtual_cavity")


def test_bulk_refuses_absorbing_media():
    with pytest.raises(DomainError, match=r"use 1 \+ gamma_c_exact\(eps, "
                       r"q_C\)$"):
        gamma_bulk(1.1 + 0.01j)
    # the cavity radius is no setting of the bulk models
    with pytest.raises(TypeError):
        gamma_bulk(1.1, q_C=0.01)
    with pytest.raises(DomainError):
        gamma_bulk(1.1, model="point_dipole")
    with pytest.raises(DomainError):
        gamma_bulk(-2.0)


# the first Re eps at which each bulk model's formula, as written, leaves
# double range: 1.5 eps in real_cavity, ((eps + 2)/3)^2 sqrt(eps) in
# virtual_cavity (whose square raises OverflowError from 4.0e154) and
# 7 (eps - 1) in linear
_BULK_REFUSED_FROM = {"real_cavity": 1.1984620899082105e308,
                      "virtual_cavity": 4.8259545528918616e123,
                      "linear": 2.5681330498033083e307}


def test_bulk_models_past_double_range_are_refused():
    # a NonFiniteError where the formula overflows, never inf or an
    # untyped OverflowError, and no warning; below it the formula's bits
    formulas = {"real_cavity": lambda e: (1.5 * e / (e + 0.5)) ** 2
                * math.sqrt(e),
                "virtual_cavity": lambda e: ((e + 2.0) / 3.0) ** 2
                * math.sqrt(e),
                "linear": lambda e: 1.0 + 7.0 * (e - 1.0) / 6.0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, first in _BULK_REFUSED_FROM.items():
            last = math.nextafter(first, 0.0)
            for e in (4e154, 5e154, 1.19e308, 1.2e308, 1.5e308, last, first):
                if e < first:
                    assert gamma_bulk(e, model=model) == formulas[model](e)
                    continue
                with pytest.raises(NonFiniteError, match=(
                        f"^the bulk model '{model}' leaves double range$")):
                    gamma_bulk(e, model=model)
