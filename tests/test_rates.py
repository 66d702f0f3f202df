"""Emitter-level rate assembly: SI rates, method dispatch, cross-method checks."""

import csv
import dataclasses
import math
import pickle
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import constants

from locfield.born import (ORIENTATIONS, RateBreakdown, gamma_b_sphere_linear,
                           gamma_c_linear, gamma_total_linear, validity_check)
from locfield import rates
from locfield.cavity import (BULK_MODELS, gamma_b_corrected, gamma_bulk,
                             gamma_c_exact, gamma_weak_absorption,
                             outside_scatter_coefficients,
                             transmission_coefficient)
from locfield.cli import build_sweep, run_sweep
from locfield.errors import (QC_DEFAULT, AccuracyError, ConfigError,
                             DomainError, LocfieldError, NonFiniteError,
                             SingularityError)
from locfield.greens import (StarBoundary, ab_coefficients,
                             cavity_green_linear)
from locfield.mie import body_green_center, gamma_b_exact, gamma_center_exact
from locfield.rates import (GEOMETRIES, METHODS, AtomParams, RateRequest,
                            compute, compute_batch, gamma0_si,
                            gamma_uncorrected)

mpmath.mp.dps = 40

Z = np.array([0.0, 0.0, 1.0])


# -- free-space rate ------------------------------------------------------------


def test_gamma0_scalings_exact():
    base = AtomParams(k_A=5.0e6, d_A=1.0e-30)
    assert gamma0_si(AtomParams(k_A=1.0e7, d_A=1.0e-30)) \
        == 8.0 * gamma0_si(base)
    assert gamma0_si(AtomParams(k_A=5.0e6, d_A=2.0e-30)) \
        == 4.0 * gamma0_si(base)


def test_gamma0_against_high_precision_arithmetic():
    params = AtomParams(wavelength=1.0e-6, d_A=3.33564e-30)
    k = 2 * mpmath.pi / mpmath.mpf("1e-6")
    ref = (k**3 * mpmath.mpf("3.33564e-30") ** 2
           / (3 * mpmath.pi * mpmath.mpf(constants.hbar)
              * mpmath.mpf(constants.epsilon_0)))
    assert_allclose(gamma0_si(params), float(ref), rtol=1e-12)


@pytest.mark.parametrize("k_A, d_A", [(1e110, 1e-29), (1e100, 1.0)])
def test_gamma0_refuses_a_rate_past_double_range(k_A, d_A):
    # k_A^3 overflows, or the rate does after it
    with pytest.raises(NonFiniteError, match="leaves double range$"):
        gamma0_si(AtomParams(k_A=k_A, d_A=d_A))


def test_si_constants_equal_scipy_constants():
    # the package keeps the literals so that import leaves scipy.constants out
    assert rates._HBAR == constants.hbar
    assert rates._EPSILON_0 == constants.epsilon_0


def test_atom_params_validation():
    assert AtomParams(wavelength=2 * math.pi).wavenumber == 1.0
    assert AtomParams(k_A=3.5).wavenumber == 3.5
    with pytest.raises(DomainError):
        AtomParams()
    with pytest.raises(DomainError):
        AtomParams(k_A=1.0, wavelength=1.0)
    with pytest.raises(DomainError):
        AtomParams(k_A=-1.0)
    with pytest.raises(DomainError):
        AtomParams(wavelength=0.0)
    with pytest.raises(DomainError):
        AtomParams(k_A=1.0, d_A=-1.0e-30)
    for kwargs in ({"k_A": math.inf}, {"wavelength": math.inf},
                   {"k_A": 1.0, "d_A": math.inf}):
        with pytest.raises(DomainError, match="must be positive and finite"):
            AtomParams(**kwargs)
    with pytest.raises(DomainError):
        gamma0_si(AtomParams(k_A=1.0))


# -- uncorrected transparent-host rate ---------------------------------------------


def test_gamma_uncorrected_limits():
    zeros = np.zeros((3, 3), dtype=complex)
    assert gamma_uncorrected(1.1, zeros, Z) == math.sqrt(1.1)
    assert gamma_uncorrected(1.0, zeros, Z) == 1.0
    # the same rules, and texts, as the uncorrected method of a request
    with pytest.raises(DomainError, match="transparent host; use exact or weak_absorption"):
        gamma_uncorrected(1.1 + 1e-3j, zeros, Z)
    with pytest.raises(DomainError, match="needs Re eps > 0"):
        gamma_uncorrected(-1.0, zeros, Z)


def test_tensor_input_rates_refuse_a_rate_past_double_range():
    # a finite body tensor or uncorrected rate whose rate leaves double
    # range is a NonFiniteError in every rate that takes its tensor as
    # input, with no numpy warning; a rate inside double range comes back
    zeros = np.zeros((3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"^uncorrected rate "
                           r"overflowed: sqrt\(eps\) \+ 6 pi Im\[d\.gB1\.d\] "
                           r"leaves double range$"):
            gamma_uncorrected(1.1, 1e307j * np.eye(3), Z)
        with pytest.raises(NonFiniteError, match=r"^weak-absorption rate "
                           r"overflowed: L\^2 gamma_b_uncorrected \+ "
                           r"delta_gamma leaves double range$"):
            gamma_weak_absorption(1.1 + 1e-8j, 0.01, 1.7e308, zeros, Z)
        with pytest.raises(NonFiniteError, match=r"^corrected body rate "
                           r"overflowed"):
            gamma_b_corrected(1.1, 1e307j * np.eye(3), Z)
        assert gamma_uncorrected(1.1, 1e306j * np.eye(3), Z) == (
            math.sqrt(1.1) + 6.0 * math.pi * 1e306)
        assert math.isfinite(gamma_weak_absorption(
            1.1 + 1e-8j, 0.01, 1.5e308, zeros, Z)[0])


# every public function that takes eps, on a transparent eps that each of
# them takes, with the results compared bit for bit (pickled)
_G = 1e-3 * np.array([[1.0 + 2.0j, 0.5j, 0.0], [0.5j, 2.0 + 1.0j, 0.0],
                      [0.0, 0.0, 3.0 + 3.0j]])
_EPS_ENTRIES = {
    "transmission_coefficient":
        lambda eps: transmission_coefficient(eps, 0.05),
    "outside_scatter_coefficients":
        lambda eps: outside_scatter_coefficients(eps, 0.05, 3),
    "gamma_c_exact": lambda eps: gamma_c_exact(eps, 0.01),
    "gamma_b_corrected": lambda eps: gamma_b_corrected(eps, _G, Z),
    "gamma_weak_absorption":
        lambda eps: gamma_weak_absorption(eps, 0.01, 1.2, _G, Z),
    "gamma_bulk": lambda eps: [gamma_bulk(eps, model=model)
                               for model in BULK_MODELS],
    "body_green_center": lambda eps: body_green_center(eps, 2.0),
    "gamma_b_exact": lambda eps: [gamma_b_exact(eps, 2.0, q_L, orient)
                                  for q_L in (0.0, 0.5)
                                  for orient in ORIENTATIONS],
    "gamma_center_exact": lambda eps: gamma_center_exact(eps, 2.0, 0.01),
    "gamma_uncorrected": lambda eps: gamma_uncorrected(eps, _G, Z),
    "RateRequest": lambda eps: [compute(RateRequest(
        eps=eps, method=method, q_R=2.0,
        q_L=0.0 if method == "weak_absorption" else 0.5))
        for method in METHODS],
}


@pytest.mark.parametrize("entry", _EPS_ENTRIES)
def test_every_eps_entry_keeps_one_rule(entry):
    # eps is a complex checked by one rule wherever it is taken: an int,
    # a float, a complex and a numpy complex give the same bits; a gain
    # medium, zero, NaN and a value that complex() refuses give the same
    # DomainError text in every entry
    call = _EPS_ENTRIES[entry]
    results = [pickle.dumps(call(eps))
               for eps in (2, 2.0, 2.0 + 0j, np.complex128(2.0))]
    assert results[1:] == results[:-1]
    for eps, message in ((1.0 - 1e-3j, "passive medium required: Im eps "
                          ">= 0"),
                         (0.0, "permittivity must be nonzero"),
                         (complex(np.nan, 0.0), "permittivity must be finite"),
                         *((bad, f"eps must be a number, got {bad!r}")
                           for bad in (None, [1.1], "abc"))):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(eps)


# every public function that takes a length as a float, with a valid
# value of it (a whole one where int is valid too)
_LENGTH_ENTRIES = {
    "gamma_b_exact, q_R": ("q_R", 2, lambda q: gamma_b_exact(1.1, q, 0.5)),
    "gamma_b_exact, q_L": ("q_L", 1, lambda q: [
        gamma_b_exact(1.1 + 0.01j, 2.0, q, orient)
        for orient in ORIENTATIONS]),
    "gamma_center_exact": ("q_R", 2,
                           lambda q: gamma_center_exact(1.1, q, 0.01)),
    "gamma_c_exact": ("q_C", 0.0625, lambda q: gamma_c_exact(1.1 + 0.1j, q)),
    "transmission_coefficient": (
        "q_C", 0.0625, lambda q: transmission_coefficient(1.1, q)),
    "outside_scatter_coefficients": (
        "q_C", 0.0625, lambda q: outside_scatter_coefficients(1.1, q, 3)),
    "cavity_green_linear": ("q_C", 1, lambda q: cavity_green_linear(q, 0.1)),
    "gamma_c_linear": ("q_C", 0.0625, lambda q: gamma_c_linear(0.1j, q)),
    "gamma_total_linear": ("q_C", 0.0625, lambda q: gamma_total_linear(
        StarBoundary.bulk(), 0.1j, q)),
    "validity_check": ("q_C", 0.0625, lambda q: validity_check(
        StarBoundary.bulk(), 0.1j, q)),
    "gamma_b_sphere_linear, q_R": (
        "q_R", 2, lambda q: gamma_b_sphere_linear(q, 0.5, 0.1)),
    "gamma_b_sphere_linear, q_L": (
        "q_L", 1, lambda q: gamma_b_sphere_linear(2.0, q, 0.1)),
    # the array kernel, whose lengths may be arrays too
    "ab_coefficients": ("q", 1, ab_coefficients),
}


@pytest.mark.parametrize("entry", _LENGTH_ENTRIES)
def test_every_length_entry_keeps_one_rule(entry):
    # a length is a float checked as RateRequest checks its lengths: a
    # float, an int and numpy scalars give the same bits, and a value
    # that float() refuses, a ragged sequence in an array kernel too, is
    # a DomainError naming it
    name, value, call = _LENGTH_ENTRIES[entry]
    forms = [value, float(value), np.float64(value), np.float32(value)]
    results = [pickle.dumps(call(q)) for q in forms]
    assert results[1:] == results[:-1]
    for bad in (None, "abc", 1.0 + 1.0j, [1.0, [2.0]], [[1.0], [1.0, 2.0]]):
        with pytest.raises(DomainError, match=f"^{name} must be a real "
                                              f"number.*, got "
                                              f"{re.escape(repr(bad))}$"):
            call(bad)


def test_validity_check_lengths_are_real_numbers():
    # the q_max that validity_check reads is checked when its boundary is
    # made, as a float
    with pytest.raises(DomainError, match="^q_max must be a real number, "
                                          "got 'abc'$"):
        StarBoundary(q_outer=lambda theta, phi: 1.0, q_max="abc")
    boundary = StarBoundary(q_outer=lambda theta, phi: 1.0, q_max=3)
    assert type(boundary.q_max) is float
    assert validity_check(boundary, 0.1, 0.01) == validity_check(
        StarBoundary.sphere(2.0, 1.0), 0.1, 0.01)


# -- request validation ---------------------------------------------------------------


def test_request_config_errors():
    with pytest.raises(ConfigError):
        RateRequest(eps=1.1, method="perturbative")
    with pytest.raises(ConfigError):
        RateRequest(eps=1.1, method="exact", geometry="slab")
    with pytest.raises(ConfigError):
        RateRequest(eps=1.1, method="exact", q_R=2.0, orientation="up")
    with pytest.raises(ConfigError):
        RateRequest(eps=1.1, method="exact", geometry="sphere")   # no q_R
    with pytest.raises(ConfigError):
        RateRequest(eps=1.1, method="exact", geometry="bulk", q_R=2.0)
    with pytest.raises(ConfigError):
        RateRequest(eps=1.1, method="exact", geometry="bulk", q_L=0.5)
    with pytest.raises(ConfigError):
        RateRequest(eps=1.1, method="weak_absorption", q_R=2.0, q_L=0.5)
    # eager numeric validation at construction
    with pytest.raises(DomainError):
        RateRequest(eps=0.0, method="exact", q_R=2.0)
    with pytest.raises(DomainError):
        RateRequest(eps=1.1, method="exact", q_R=1.0, q_L=0.999)
    # a bulk request checks its cavity radius as a sphere request does
    for q_C in (0.0, -0.5, 0.5):
        with pytest.raises(DomainError, match="q_C"):
            RateRequest(eps=1.1, method="linear_born", geometry="bulk",
                        q_C=q_C)
    # tol and nu are retired, whatever the method and value
    for name in ("tol", "nu"):
        for value in (-1.0, 0.0, 1e-12, math.nan):
            with pytest.raises(TypeError, match=f"'{name}'"):
                RateRequest(eps=1.1, method="exact", q_R=2.0,
                            **{name: value})
    assert METHODS == ("linear_born", "exact", "weak_absorption",
                       "uncorrected")
    assert GEOMETRIES == ("sphere", "bulk")
    assert ORIENTATIONS == ("radial", "tangential")


def test_request_holds_eps_as_a_complex():
    # eps is held as a complex, as q_R, q_L and q_C are held as floats: a
    # complex and a numpy number give the same request, equal, hashed and
    # printed alike, and keep no other record
    req = RateRequest(eps=1.1 + 1e-8j, method="linear_born", q_R=2.0,
                      q_L=0.5)
    assert type(req.eps) is complex
    twin = RateRequest(eps=np.complex128(1.1 + 1e-8j), method="linear_born",
                       q_R=2.0, q_L=0.5)
    assert type(twin.eps) is complex
    assert twin == req and hash(twin) == hash(req)
    assert repr(twin) == repr(req)
    bulk = RateRequest(eps=1.1, method="exact", geometry="bulk")
    assert type(bulk.eps) is complex and "eps=(1.1+0j)" in repr(bulk)
    assert [f.name for f in dataclasses.fields(RateRequest)] == [
        "eps", "method", "geometry", "q_R", "q_L", "q_C", "orientation"]
    # replace checks the new numbers by the same rules
    moved = dataclasses.replace(req, q_L=1.0)
    assert moved.q_L == 1.0 and moved.eps == req.eps
    assert compute(moved) == compute(RateRequest(
        eps=1.1 + 1e-8j, method="linear_born", q_R=2.0, q_L=1.0))
    with pytest.raises(DomainError, match="emitter too close"):
        dataclasses.replace(req, q_L=1.995)
    with pytest.raises(DomainError, match="passive"):
        dataclasses.replace(req, eps=1.0 - 1.0j)


def test_request_numbers_are_floats():
    # q_R, q_L and q_C are held as floats: a numpy number hashes and
    # groups like the float it is, a numeric string reads as one, and a
    # value that float() refuses is a DomainError naming its field
    req = RateRequest(eps=1.2, method="exact", q_R=3, q_L=1,
                      q_C=np.array(0.01))
    assert [type(getattr(req, name)) for name in
            ("q_R", "q_L", "q_C")] == [float] * 3
    twin = RateRequest(eps=1.2, method="exact", q_R=3.0, q_L=1.0, q_C=0.01)
    assert req == twin and hash(req) == hash(twin)
    assert compute(req) == compute(twin)
    assert compute_batch([req, twin]) == [compute(twin)] * 2
    assert RateRequest(eps=1.2, method="exact", q_R=3.0,
                       q_C="0.02").q_C == 0.02
    for name, value in (("q_L", np.array([1.0])), ("q_R", "large"),
                        ("q_C", None), ("q_L", 1j)):
        with pytest.raises(DomainError,
                           match=f"^{name} must be a real number, got "):
            RateRequest(**{"eps": 1.2, "method": "exact", "q_R": 3.0,
                           name: value})


def test_sphere_request_keeps_its_cavity_clear():
    # a sphere is q_R > 0 and q_L >= 0 with the cavity q_C clear of the
    # surface, q_L + q_C <= q_R: a cavity past it is refused, naming both
    # sides, and one that touches it is not, 0.99 + 0.01 being 1.0 exactly
    for q_R, q_L in ((0.0, 0.0), (2.0, -0.1)):
        with pytest.raises(DomainError):
            RateRequest(eps=1.1, method="linear_born", q_R=q_R, q_L=q_L)
    for q_R, q_L, q_C, text in (
            (1.0, 0.995, 0.01, "1.005 exceeds q_R = 1"),
            (0.98, 0.97, 0.0101, "0.9801 exceeds q_R = 0.98")):
        with pytest.raises(DomainError, match="^" + re.escape(
                f"emitter too close to the surface: q_L + q_C = {text}")
                + "$"):
            RateRequest(eps=1.1, method="linear_born", q_R=q_R, q_L=q_L,
                        q_C=q_C)
    touching = RateRequest(eps=1.1, method="linear_born", q_R=1.0, q_L=0.99,
                           q_C=0.01)
    assert touching.q_L == 0.99
    assert math.isfinite(compute(touching).total_ratio)


# -- method dispatch ---------------------------------------------------------------


def test_vacuum_gives_unity_for_every_method():
    for method in METHODS:
        r = compute(RateRequest(eps=1.0, method=method, q_R=2.0))
        assert r.total_ratio == 1.0
        assert isinstance(r, RateBreakdown)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(METHODS), geometry=st.sampled_from(GEOMETRIES),
       orientation=st.sampled_from(ORIENTATIONS),
       q_R=st.floats(-1.5, 1.5).map(lambda e: 10.0**e),
       ratio=st.floats(0.0, 0.99))
def test_vacuum_is_unity_on_every_route(method, geometry, orientation, q_R,
                                        ratio):
    # the chi -> 0 limit at its endpoint: eps = 1 gives exactly the vacuum
    # rate, centred or off the centre (weak_absorption only at the
    # centre), with a body term of exactly 0
    sphere = geometry == "sphere"
    q_L = ratio * (q_R - 0.01) if sphere and method != "weak_absorption" \
        else 0.0
    r = compute(RateRequest(eps=1.0, method=method, geometry=geometry,
                            q_R=q_R if sphere else None, q_L=q_L,
                            orientation=orientation))
    assert r.total_ratio == 1.0 and r.gamma_b_ratio == 0.0


def test_bulk_linear_is_cavity_term_only():
    eps = 1.12 + 1e-8j
    r = compute(RateRequest(eps=eps, method="linear_born",
                            geometry="bulk", q_C=0.02))
    assert r.gamma_b_ratio == 0.0
    assert r.total_ratio == 1.0 + gamma_c_linear(eps - 1.0, 0.02)


def test_exact_center_equals_assembled_series():
    eps = 1.1 + 1e-8j
    r = compute(RateRequest(eps=eps, method="exact", q_R=2.0))
    assert_allclose(r.total_ratio, gamma_center_exact(eps, 2.0, 0.01),
                    rtol=1e-12)


def test_uncorrected_rejects_absorbing_host():
    with pytest.raises(DomainError):
        compute(RateRequest(eps=1.1 + 1e-3j, method="uncorrected", q_R=2.0))


# -- golden values: off-center uncorrected rate (radial, q_R = 1, eps = 1.1) ---------


def test_uncorrected_displacement_profile_golden():
    expected = {
        0.0: 0.9863868226880802,
        0.3: 0.9838973157707105,
        0.6: 0.9765277858861879,
        0.9: 0.9645659932848538,
    }
    for q_L, value in expected.items():
        r = compute(RateRequest(eps=1.1, method="uncorrected", q_R=1.0,
                                q_L=q_L))
        assert_allclose(r.total_ratio, value, rtol=1e-9)
    # rate is suppressed below vacuum and drops toward the surface
    vals = [expected[k] for k in sorted(expected)]
    assert all(v < 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_uncorrected_profile_against_exact_series():
    # independent route: sqrt(eps) + exact series body term with the
    # local-field factor divided back out; agreement to O(chi^2)
    f2 = (3 * 1.1 / (2 * 1.1 + 1)) ** 2
    for q_R, q_L in ((1.0, 0.0), (1.0, 0.3), (1.0, 0.6), (5.0, 4.0)):
        for orient in ("radial", "tangential"):
            unc = compute(RateRequest(eps=1.1, method="uncorrected",
                                      q_R=q_R, q_L=q_L,
                                      orientation=orient)).total_ratio
            alt = (math.sqrt(1.1)
                   + gamma_b_exact(1.1, q_R, q_L, orient=orient) / f2)
            assert abs(unc - alt) < 0.01


# -- cross-method consistency ---------------------------------------------------------


def test_exact_and_linear_agree_for_small_chi():
    bounds = {0.05: 4.0e-3, 0.1: 1.0e-2}
    for chi, bound in bounds.items():
        for q_R in (1.0, 3.0, 6.0):
            for orient in ("radial", "tangential"):
                e = compute(RateRequest(eps=1 + chi + 1e-8j, method="exact",
                                        q_R=q_R, orientation=orient))
                l = compute(RateRequest(eps=1 + chi + 1e-8j,
                                        method="linear_born", q_R=q_R,
                                        orientation=orient))
                assert abs(e.total_ratio - l.total_ratio) < bound


def test_weak_absorption_tracks_exact_rate():
    eps = 1.1 + 1e-7j
    weak = compute(RateRequest(eps=eps, method="weak_absorption",
                               q_R=2.0)).total_ratio
    exact = compute(RateRequest(eps=eps, method="exact", q_R=2.0)).total_ratio
    delta, _ = gamma_weak_absorption(eps, 0.01, 0.0,
                                     np.zeros((3, 3), dtype=complex), Z)
    assert abs(weak - exact) <= 1e-2 * delta


def test_weak_absorption_column_matches_the_public_split():
    # the column computes the split from the cavity closed forms and the
    # exact center body term at Re eps; the public functions assemble the
    # same total from the uncorrected rate and the body tensor
    dipoles = {"radial": Z, "tangential": np.array([1.0, 0.0, 0.0])}
    zeros = np.zeros((3, 3), dtype=complex)
    for orient, d in dipoles.items():
        for q_C in (0.01, 0.05):
            for re_eps in np.linspace(1.05, 3.0, 5):
                for im in (1e-8, 1e-6):
                    eps = complex(re_eps, im)
                    for q_R in (None, 0.7, 4.0):
                        gB1 = (zeros if q_R is None
                               else body_green_center(re_eps, q_R))
                        reference = gamma_weak_absorption(
                            eps, q_C, gamma_uncorrected(re_eps, gB1, d),
                            gB1, d)[0]
                        r = compute(RateRequest(
                            eps=eps, method="weak_absorption",
                            geometry="bulk" if q_R is None else "sphere",
                            q_R=q_R, q_C=q_C, orientation=orient))
                        assert_allclose(r.total_ratio, reference,
                                        rtol=1e-12, atol=0)


def test_rates_stay_positive():
    for method in ("linear_born", "exact"):
        for q_R in (0.7, 2.0, 5.0):
            for orient in ("radial", "tangential"):
                for q_L in (0.0, 0.4 * q_R):
                    r = compute(RateRequest(eps=1.1 + 1e-8j, method=method,
                                            q_R=q_R, q_L=q_L,
                                            orientation=orient))
                    assert r.total_ratio > 0.0


_PASSIVE_HOSTS = st.builds(
    lambda re, negative, im: complex(-re if negative else re, im),
    st.floats(0.05, 5.0), st.booleans(),
    st.one_of(st.just(0.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(("exact", "weak_absorption")),
       eps=_PASSIVE_HOSTS, q_R=st.floats(0.1, 30.0),
       ratio=st.floats(0.0, 0.95), orientation=st.sampled_from(ORIENTATIONS))
def test_passive_hosts_give_positive_rates(method, eps, q_R, ratio,
                                           orientation):
    # a passive host only takes energy from the emitter, so every rate the
    # exact and weak-absorption routes return is positive; weak_absorption
    # takes the centre and Re eps > 0, and other refusals are typed
    weak = method == "weak_absorption"
    if weak:
        eps = complex(abs(eps.real), eps.imag)
    request = RateRequest(eps=eps, method=method, q_R=q_R,
                          q_L=0.0 if weak else ratio * q_R,
                          orientation=orientation)
    try:
        rate = compute(request)
    except LocfieldError:
        return
    assert rate.total_ratio > 0.0, request


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(method=st.sampled_from(("exact", "linear_born")),
       angle=st.floats(0.0, math.pi),
       delta=st.floats(-6.0, -2.0).map(lambda e: 10.0**e),
       q_R=st.floats(0.0, 1.0).map(lambda u: 0.5 * 40.0**u),  # 0.5 .. 20
       ratio=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
       orientation=st.sampled_from(ORIENTATIONS))
def test_rates_tend_to_vacuum_as_chi_vanishes(method, angle, delta, q_R,
                                              ratio, orientation):
    # along chi = delta u, |u| = 1 and Im u >= 0, the second difference
    # D = Gamma(delta u) - 2 Gamma(delta u/2) + Gamma(0), Gamma(0) = 1, is
    # O(delta^2) on the exact route and rounding alone on linear_born,
    # which is linear in chi.  On the exact route the cavity term's chi^2
    # coefficient -(2/3)/q_C^3 gives |D| = delta^2 |Im u^2|/(3 q_C^3) to
    # leading order (0.35 allows for the next orders up to delta = 1e-2),
    # and the body term's D, from the image field of the sphere's surface
    # at distance q_R - q_L and a phase that grows with q_R, stays below
    # delta^2 (1/(q_R - q_L)^3 + q_R) (it reaches 0.3 of that at q_R = 0.5);
    # the exact series' rates carry up to 1e-8 of themselves from
    # rounding.  A near-vacuum row that the exact route cannot certify is
    # refused with a typed AccuracyError, and a subnormal q_L with its own
    # DomainError.  Re chi is a multiple of 2^-51, so that 1 + chi and
    # 1 + chi/2 are doubles and each rate is taken at its point of the ray
    chi = complex(round(delta * math.cos(angle) * 2.0**51) * 2.0**-51,
                  delta * math.sin(angle))
    try:
        rates_ = [compute(RateRequest(eps=1.0 + step, method=method,
                                      q_R=q_R, q_L=ratio * q_R,
                                      orientation=orientation))
                  for step in (chi, 0.5 * chi)]
    except AccuracyError:
        assert method == "exact"
        return
    except DomainError as refused:  # a subnormal q_L, whatever chi is
        assert method == "exact" and str(refused).startswith("|n q_L| = ")
        return
    second = rates_[0].total_ratio - 2.0 * rates_[1].total_ratio + 1.0
    body = rates_[0].gamma_b_ratio - 2.0 * rates_[1].gamma_b_ratio
    size = sum(abs(r.total_ratio) + abs(r.gamma_c_ratio)
               + abs(r.gamma_b_ratio) for r in rates_) + 1.0
    body_size = abs(rates_[0].gamma_b_ratio) + 2.0 * abs(
        rates_[1].gamma_b_ratio)
    rounding = 2.0**-50 * size
    if method == "linear_born":
        assert abs(second) <= rounding
        assert abs(body) <= 2.0**-50 * body_size
        return
    gap = q_R - ratio * q_R
    body_bound = delta**2 * (1.0 / gap**3 + q_R) + 1e-8 * body_size
    assert abs(body) <= body_bound
    assert abs(second) <= 0.35 * delta**2 / QC_DEFAULT**3 + body_bound + (
        rounding)


def test_validity_report_attached():
    r = compute(RateRequest(eps=1.1 + 2e-7j, method="linear_born", q_R=2.0))
    v = r.validity
    assert_allclose(v.chi_size_value, abs(0.1 + 2e-7j) * 2.0, rtol=1e-12)
    assert v.chi_size_ok
    assert_allclose(v.absorption_value, 2e-7 / 0.01**3, rtol=1e-12)
    assert not v.absorption_ok
    assert not v.all_ok


# -- batch entry point ------------------------------------------------------------------


def test_compute_batch_matches_compute_and_keeps_errors_on_their_requests():
    requests = [
        RateRequest(eps=1.1 + 1e-8j, method="exact", q_R=2.0),
        # Bessel argument beyond the validated range: fails inside the
        # array call for the whole curve, and only this request reports it
        RateRequest(eps=1.1 + 1e-8j, method="exact", q_R=20000.0),
        RateRequest(eps=1.2 + 1e-7j, method="exact", q_R=5.0),
        RateRequest(eps=1.1 + 1e-8j, method="exact", q_R=3.0, q_L=1.0,
                    orientation="tangential"),
        RateRequest(eps=1.1 + 1e-8j, method="linear_born", q_R=2.0, q_L=1.0),
        RateRequest(eps=1.1, method="uncorrected", q_R=2.0, q_L=1.0),
        RateRequest(eps=1.1 + 1e-3j, method="uncorrected", q_R=2.0),
        # a body term that no route certifies
        RateRequest(eps=1.1 + 1e-8j, method="linear_born", q_R=1e4,
                    q_L=9000.0),
        RateRequest(eps=1.1 + 1e-8j, method="linear_born", geometry="bulk"),
        RateRequest(eps=1.1 + 1e-7j, method="weak_absorption", q_R=2.0),
    ]
    results = compute_batch(requests)
    assert len(results) == len(requests)
    failed = [k for k, r in enumerate(results) if isinstance(r, LocfieldError)]
    assert failed == [1, 6, 7]
    for request, result in zip(requests, results):
        if isinstance(result, LocfieldError):
            with pytest.raises(type(result)) as single:
                compute(request)
            assert str(single.value) == str(result)
        else:
            assert result == compute(request)
    assert compute_batch([]) == []


def test_series_overflow_fails_only_its_own_request():
    # an off-centre series that overflows (sin(n q_R) at Im n q_R = 1407)
    # is a typed error of its own request; the request beside it finishes
    deep = RateRequest(eps=1.0 + 100j, method="exact", q_R=200.0, q_L=100.0)
    good = RateRequest(eps=1.1 + 1e-8j, method="exact", q_R=3.0, q_L=1.0)
    bad, result = compute_batch([deep, good])
    assert isinstance(bad, NonFiniteError)
    assert str(bad).startswith("spherical_bessel_j overflowed")
    assert result == compute(good)


def test_permittivities_the_rates_refuse_fail_their_own_requests():
    # the permittivity rule admits eps = -1/2, the pole of the exact
    # cavity terms, and Re eps <= 0, where the uncorrected rate has no
    # sqrt(eps) and the weak-absorption split no transparent host: each
    # is a typed error of its own request, and the requests beside it,
    # in its column too, finish
    requests = [
        RateRequest(eps=1.1 + 1e-8j, method="exact", q_R=2.0),
        RateRequest(eps=-0.5, method="exact", q_R=2.0),
        RateRequest(eps=-0.5, method="exact", q_R=2.0, q_L=0.5),
        RateRequest(eps=-0.5, method="exact", geometry="bulk"),
        RateRequest(eps=1.1, method="uncorrected", q_R=2.0),
        RateRequest(eps=-1.0, method="uncorrected", q_R=2.0),
        RateRequest(eps=0.0 + 1e-7j, method="uncorrected", geometry="bulk"),
        RateRequest(eps=1.2, method="uncorrected", q_R=2.0, q_L=1.0),
        RateRequest(eps=1.1 + 1e-7j, method="weak_absorption", q_R=2.0),
        RateRequest(eps=1e-7j, method="weak_absorption", q_R=2.0),
        RateRequest(eps=-1.0 + 1e-7j, method="weak_absorption", q_R=2.0),
        RateRequest(eps=1.2 + 1e-7j, method="weak_absorption", q_R=3.0),
        RateRequest(eps=1e-7j, method="weak_absorption", geometry="bulk"),
        RateRequest(eps=-1.0 + 1e-7j, method="weak_absorption",
                    geometry="bulk"),
        RateRequest(eps=1.1 + 1e-7j, method="weak_absorption",
                    geometry="bulk"),
    ]
    pole = "eps = -1/2 is the pole of the local-field factor 3 eps/(2 eps + 1)"
    re_eps = "the uncorrected rate needs Re eps > 0"
    weak = "weak-absorption split needs Re eps > 0"
    results = compute_batch(requests)
    assert {k: (type(r), str(r)) for k, r in enumerate(results)
            if isinstance(r, LocfieldError)} == {
        1: (SingularityError, pole), 2: (SingularityError, pole),
        3: (SingularityError, pole), 5: (DomainError, re_eps),
        6: (DomainError, re_eps), 9: (DomainError, weak),
        10: (DomainError, weak), 12: (DomainError, weak),
        13: (DomainError, weak)}
    for request, result in zip(requests, results):
        if isinstance(result, LocfieldError):
            with pytest.raises(type(result), match=re.escape(str(result))):
                compute(request)
        else:
            assert result == compute(request)
    # every public route to the local-field factor raises at its pole,
    # with no NaN and no RuntimeWarning on the way
    g = np.eye(3, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: gamma_c_exact(-0.5, 0.01),
                     lambda: gamma_b_exact(-0.5, 2.0, 1.0),
                     lambda: gamma_b_exact(-0.5, 2.0, 0.0),
                     lambda: gamma_center_exact(-0.5, 2.0, 0.01),
                     lambda: gamma_b_corrected(-0.5, g, Z)):
            with pytest.raises(SingularityError, match=re.escape(pole)):
                call()
    with pytest.raises(DomainError, match=re_eps):
        gamma_uncorrected(-1.0, np.zeros((3, 3)), Z)
    with pytest.raises(DomainError, match=weak):
        gamma_weak_absorption(1e-7j, 0.01, 1.0, np.zeros((3, 3)), Z)


def test_the_pole_band_is_refused():
    # eps = -1/2 is not the only point where the local-field factor
    # leaves double range: next to it n L^2, or the exact cavity terms in
    # 1/q_C^3, overflow.  Each route raises a typed error naming the pole
    # or q_C, where compute returned total_ratio = inf and gamma_c_exact
    # raised Python's OverflowError or ZeroDivisionError; nothing warns
    near = ("eps is too near -1/2, the pole of the local-field factor "
            "L = 3 eps/(2 eps + 1): L^2 leaves double range")
    g = np.eye(3, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (result,) = compute_batch([RateRequest(
            eps=-0.5 + 1e-12j, method="exact", geometry="bulk", q_C=1e-99)])
        assert isinstance(result, NonFiniteError)
        assert str(result) == ("q_C = 1e-99 is too small: the cavity terms "
                               "in 1/q_C^3 leave double range")
        # the rule bounds the factors of 1/q_C^3 and 1/q_C, which grow
        # like |2 eps + 1|^-2: here it lets q_C down to about 1.6e-95, and
        # at -0.5 + 1e-120j q_C = 0.01 (terms about 1e241) gives a rate
        for eps, q_C in ((-0.5 + 1e-12j, 0.01), (-0.5 + 1e-12j, 1e-93),
                         (-0.5 + 1e-120j, 0.01)):
            assert math.isfinite(compute(RateRequest(
                eps=eps, method="exact", geometry="bulk",
                q_C=q_C)).total_ratio)
            assert math.isfinite(gamma_c_exact(eps, q_C))
        for eps in (-0.5 + 1e-155j, -0.5 + 1e-160j, -0.5 + 1e-200j):
            for call in (lambda: gamma_c_exact(eps, 0.01),
                         lambda: gamma_b_exact(eps, 2.0, 0.0),
                         lambda: gamma_b_exact(eps, 2.0, 1.0),
                         lambda: gamma_b_corrected(eps, g, Z),
                         lambda: compute(RateRequest(eps=eps, method="exact",
                                                     q_R=2.0, q_L=1.0))):
                with pytest.raises(SingularityError, match=re.escape(near)):
                    call()
        # just outside the band K is a double, but K C_1^N and K times
        # the series sum need not be
        with pytest.raises(AccuracyError, match="relative inf from"):
            gamma_b_exact(-0.5 + 6.4e-155j, 1e-3, 0.0)
        with pytest.raises(NonFiniteError, match=r"^sphere series rate "
                           r"leaves double range \(q_R = 0.001, "):
            gamma_b_exact(-0.5 + 6.4e-155j, 1e-3, 5e-4)


# permittivities at the edges of compute's rules: the pole and the band
# about it, Re eps < 0 beside it, |eps| an ulp from EPS_MAX on either
# side (numpy's |eps|, which the rules take, and the builtin abs fall on
# either side of 1e300 and 1e100 at these), an absorbing host at and
# past the uncorrected method's tolerance, Re eps <= 0, and a linear
# cavity term 7/6 Re chi past double range
_EDGE_EPS = (-0.5, -0.5 + 5e-155j, -0.5 + 6e-155j, -0.5 + 1e-12j,
             -0.5000000000025849 + 5.889826751877822e-08j,
             -0.5012455850051827 + 2.3004964776730774e-11j,
             -0.4999999999923017 + 8.730948176853688e-08j,
             -0.5000000000132963 + 1.4821078407553092e-07j,
             -0.7 + 1e-3j, -2.0 + 0.1j, 1e300, 1e300j,
             4.166696814882728e+299 + 9.090579610390426e+299j,
             6.061609890915554e+299 + 7.953419738097239e+299j,
             1e100, 6.989049341671602e+99 + 7.1521457828878015e+99j,
             2.4138217218842696e+99 + 9.704301350172494e+99j,
             1.5 + 1e-6j, 1.5 + 1.1e-6j, 2.0 + 0.1j, 1j, -1.0 + 0.1j,
             1.6e308, 1.7e308 + 1.0j)
# cavity radii: the default, either side of the 1/q_C^3 limit at
# |Im eps| = 1, and, at the four near-pole eps of _EDGE_EPS with long
# digits, the radius at which the exact cavity-scale factor that numpy
# forms passes and one formed with the builtin abs fails, and the
# reverse, then the same with Python's complex quotient and product
_EDGE_QC = (0.01, 4.4e-103, 4.5e-103, 1.0267414276774222e-98,
            1.3470497613676256e-101, 7.897479459227754e-99,
            5.549786439912242e-99)


def _outcome(call):
    """What call returns, or the LocfieldError it raises."""
    try:
        return call()
    except LocfieldError as exc:
        return exc


def test_a_requests_verdict_is_the_sweeps():
    # at the edges of every rule, for every method in a sphere (centred
    # and not) and in bulk, a request fails as the sweep's point does,
    # with the error type and text that the sweep writes in its cell;
    # compute_batch gives compute's entries, and each compute of a
    # failing request raises an equal but new error
    requests, outcomes = [], []
    for method in METHODS:
        for q_C in _EDGE_QC:
            for q_R, q_L in ((None, 0.0), (2.0, 0.0), (2.0, 0.5)):
                size = len(_EDGE_EPS)
                (sweep,) = rates._compute_columns([rates._Column(
                    method, "radial", q_C, np.array(_EDGE_EPS),
                    None if q_R is None else np.full(size, q_R),
                    np.full(size, q_L))])
                for k, eps in enumerate(_EDGE_EPS):
                    request = _outcome(lambda: RateRequest(
                        eps=eps, method=method, q_R=q_R, q_L=q_L, q_C=q_C,
                        geometry="bulk" if q_R is None else "sphere"))
                    if isinstance(request, RateRequest):
                        result = _outcome(lambda: compute(request))
                        requests.append(request)
                        outcomes.append(result)
                    else:
                        result = request
                    if k in sweep.errors:
                        assert (type(result), str(result)) == (
                            type(sweep.errors[k]), str(sweep.errors[k])), (
                                method, q_C, q_R, q_L, eps)
                    else:
                        assert isinstance(result, RateBreakdown), (
                            method, q_C, q_R, q_L, eps, result)
    failed = [r for r in outcomes if isinstance(r, LocfieldError)]
    assert {type(r) for r in failed} >= {SingularityError, DomainError,
                                         NonFiniteError}
    for request, result, entry in zip(requests, outcomes,
                                      compute_batch(requests)):
        if isinstance(result, LocfieldError):
            again = _outcome(lambda: compute(request))
            assert again is not result and entry is not result
            assert ((type(again), str(again)) == (type(entry), str(entry))
                    == (type(result), str(result)))
        else:
            assert entry == result


def test_a_failing_request_is_the_request_it_was():
    # the rule a request fails is kept off its fields: it equals, hashes
    # and prints as a request that passes, and pickles with its error
    pole = RateRequest(eps=-0.5, method="exact", q_R=2.0)
    twin = RateRequest(eps=-0.5 + 0j, method="exact", q_R=2.0)
    assert pole == twin and hash(pole) == hash(twin)
    assert repr(pole) == (
        "RateRequest(eps=(-0.5+0j), method='exact', geometry='sphere', "
        "q_R=2.0, q_L=0.0, q_C=0.01, orientation='radial')")
    assert [f.name for f in dataclasses.fields(pole)] == [
        "eps", "method", "geometry", "q_R", "q_L", "q_C", "orientation"]
    linear = dataclasses.replace(pole, method="linear_born")
    assert isinstance(compute(linear), RateBreakdown)
    copy = pickle.loads(pickle.dumps(pole))
    assert copy == pole
    for request in (pole, copy):
        with pytest.raises(SingularityError, match="^eps = -1/2 is the pole"):
            compute(request)


@pytest.mark.parametrize("q_C", [1e-120, 1e-103])
def test_cavity_radius_beyond_double_range_fails_its_own_requests(q_C):
    # q_C passes the cavity-radius rule, but 1/q_C^3 is no double (at
    # 1e-103 the exact cavity term overflows): a NonFiniteError naming
    # q_C on every method, in bulk and in a sphere, and on each scalar
    # route; the requests beside them finish, and nothing warns
    message = (f"q_C = {q_C:g} is too small: the cavity terms in 1/q_C^3 "
               "leave double range")
    requests = []
    for method in METHODS:
        for geometry in GEOMETRIES:
            q_R = 2.0 if geometry == "sphere" else None
            requests += [RateRequest(eps=1.1 + 1e-8j, method=method,
                                     geometry=geometry, q_R=q_R, q_C=c)
                         for c in (q_C, 0.01)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = compute_batch(requests)
        for request, result in zip(requests, results):
            if request.q_C == q_C:
                assert isinstance(result, NonFiniteError)
                assert str(result) == message
                with pytest.raises(NonFiniteError, match=re.escape(message)):
                    compute(request)
            else:
                assert result == compute(request)
        g = np.zeros((3, 3))
        for call in (lambda: gamma_c_linear(0.1, q_C),
                     lambda: gamma_c_exact(1.1 + 1e-3j, q_C),
                     lambda: gamma_weak_absorption(1.1 + 1e-7j, q_C, 1.0, g,
                                                   Z),
                     lambda: cavity_green_linear(q_C, 0.1),
                     lambda: validity_check(StarBoundary.bulk(), 0.1, q_C),
                     lambda: validity_check(StarBoundary.sphere(1.0), 0.1,
                                            q_C)):
            with pytest.raises(NonFiniteError, match=re.escape(message)):
                call()


def test_cavity_terms_that_overflow_inside_the_old_rule_are_refused():
    # at q_C = 1.8e-103 1/q_C^3 is a double, but Im chi/q_C^3 at
    # Im chi = 2 and 2/q^3 are not: the NonFiniteError that names the
    # radius, on the batch and on each scalar route, where the batch once
    # returned total_ratio = inf and the shell tensor NaN; nothing warns
    q_C = 1.8e-103
    message = (f"q_C = {q_C:g} is too small: the cavity terms in 1/q_C^3 "
               "leave double range")
    requests = [RateRequest(eps=1 + 2j, method=method, geometry=geometry,
                            q_R=2.0 if geometry == "sphere" else None,
                            q_C=q_C)
                for method in ("linear_born", "exact", "weak_absorption")
                for geometry in GEOMETRIES]
    g = np.zeros((3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for result in compute_batch(requests):
            assert isinstance(result, NonFiniteError)
            assert str(result) == message
        for call in (lambda: gamma_c_linear(2j, q_C),
                     lambda: gamma_c_exact(1 + 2j, q_C),
                     lambda: gamma_weak_absorption(1 + 2j, q_C, 1.0, g, Z),
                     lambda: cavity_green_linear(q_C, 2j),
                     lambda: validity_check(StarBoundary.bulk(), 2j, q_C)):
            with pytest.raises(NonFiniteError, match=re.escape(message)):
                call()
        # a radius ten times larger leaves the same medium its rates
        (result,) = compute_batch([dataclasses.replace(requests[0],
                                                       q_C=1e-102)])
        assert math.isfinite(result.total_ratio)
        assert_allclose(cavity_green_linear(1e-102, 0.1)[0, 0],
                        0.1 / (6 * np.pi) * 1e306, rtol=1e-12)


# mixed batches: requests of every method, centred and off the centre
# (weak_absorption only centred), with centred spheres from q_R = 1e-5
# (the linear centre refuses below about 2e-3, the exact one below about
# 7e-3) up to 10, vacuum, transparent and absorbing hosts, the pole of L
# and its band, and now and then a cavity radius whose 1/q_C^3 is no
# double, or is one only for a medium with |Im chi| below 11 (1e-102)
_BATCH_REQUESTS = st.builds(
    lambda method, eps, q_R, ratio, orientation, q_C: RateRequest(
        eps=eps, method=method, q_R=q_R,
        q_L=0.0 if method == "weak_absorption" else q_R * ratio,
        orientation=orientation, q_C=q_C),
    st.sampled_from(METHODS),
    st.sampled_from((1.1, 1.1 + 1e-8j, 1.3, 1.0 + 0.1j, 0.8 + 0.2j, 1.0,
                     -0.5, -0.5 + 5e-155j, 1.0 + 20j)),
    st.floats(-5.0, 1.0).map(lambda e: 10.0**e),
    st.one_of(st.just(0.0), st.floats(0.05, 0.5)),
    st.sampled_from(ORIENTATIONS),
    st.sampled_from((1e-6, 1e-6, 1e-6, 1e-120, 1e-102)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(requests=st.lists(_BATCH_REQUESTS, min_size=1, max_size=8))
@example(requests=[
    RateRequest(eps=1.1, method="linear_born", q_R=1e-4, q_C=1e-6),
    RateRequest(eps=1.1, method="linear_born", q_R=0.01, q_C=1e-6),
    RateRequest(eps=1.1, method="uncorrected", q_R=1e-3, q_C=1e-6,
                orientation="tangential"),
    RateRequest(eps=1.1, method="exact", q_R=1e-3, q_C=1e-6),
    RateRequest(eps=1.1, method="linear_born", q_R=0.01, q_L=0.004,
                q_C=1e-6)])
@example(requests=[
    RateRequest(eps=eps, method="exact", q_R=2.0, q_L=q_L, q_C=q_C)
    for q_C in (1e-6, 1e-102) for q_L in (0.0, 0.9)
    for eps in (1.1 + 1e-8j, -0.5, 1.3, -0.5 + 5e-155j, 1.0 + 20j)])
# one exact column at Re eps < 0, where the q_C rule reads the column's
# h = eps + 1/2 and chi = eps - 1 as the cavity term does
@example(requests=[
    RateRequest(eps=eps, method="exact", q_R=2.0, q_L=q_L, q_C=1e-6)
    for q_L in (0.0, 0.9)
    for eps in (-0.5, -0.5 + 5e-155j, -0.3 + 0.01j, -2 + 0.1j, 1.2 + 1e-7j)])
def test_compute_batch_equals_compute_per_request(requests):
    # each request's entry is what compute gives it alone: the same
    # breakdown, or an error of the same type and text
    results = compute_batch(requests)
    assert len(results) == len(requests)
    for request, result in zip(requests, results):
        if isinstance(result, LocfieldError):
            with pytest.raises(LocfieldError) as single:
                compute(request)
            assert type(single.value) is type(result), request
            assert str(single.value) == str(result), request
        else:
            assert result == compute(request), request


def test_compute_batch_equals_its_slices_at_any_length():
    # one column of 17,000 centred exact requests, past the 16,384 complex
    # entries from which numpy works temporaries in place (once 6,973 of
    # them differed from compute): every entry is the one a batch of
    # 1,000 gives, which equals compute (above), bit for bit
    rng = np.random.default_rng(11)
    eps = 1.0 + rng.uniform(0.0, 2.0, 17_000) + 1j * rng.uniform(
        0.0, 1e-3, 17_000)
    q_R = rng.uniform(0.5, 20.0, 17_000)
    requests = [RateRequest(eps=e, method="exact", q_R=q)
                for e, q in zip(eps.tolist(), q_R.tolist())]
    sliced = [result for start in range(0, len(requests), 1000)
              for result in compute_batch(requests[start:start + 1000])]
    assert compute_batch(requests) == sliced


def test_an_absurd_radius_is_a_typed_error():
    # |chi| q_max beyond double range is an infinite validity value, which
    # fails, so that each route reaches its own typed refusal with no
    # numpy warning: the exact series its argument cap, the linear rule a
    # rounding bound that is NaN (once written "off by nan").  At
    # q_R = 1e300 the linear body term is the Taylor series in q_L, where
    # the rule's q_R^2 overflowed: a rate, 1.5e-16 from the 0.330984468435511
    # of a 330-digit mpmath quadrature of the moments' s-integrals, whose
    # validity report fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q_R in (1e308, 1e300):
            for method in ("exact", "linear_born", "uncorrected"):
                request = RateRequest(eps=4, method=method, q_R=q_R,
                                      q_L=1.0)
                if q_R == 1e300 and method != "exact":
                    rate = compute(request)
                    assert abs(rate.gamma_b_ratio - 0.330984468435511) <= (
                        1e-15)
                    assert not rate.validity.chi_size_ok
                    continue
                with pytest.raises(LocfieldError) as refused:
                    compute(request)
                if method == "exact":
                    assert type(refused.value) is DomainError
                    assert str(refused.value) == (
                        f"sphere series argument q_R = {q_R:g} is refused: "
                        f"|z| must be < 10000 (q_R = {q_R:g}, q_L = 1)")
                else:
                    assert type(refused.value) is AccuracyError
                    assert str(refused.value) == (
                        f"linear body rate at q_R = {q_R:g}, q_L = 1 has a "
                        "rounding bound that is not a number, so it cannot "
                        "be held to tol = 1e-10")
        report = validity_check(StarBoundary.sphere(1e308), 3.0, 0.01)
        assert report.chi_size_value == math.inf
        assert not report.chi_size_ok


def test_an_emitter_whose_q_max_leaves_double_range_warns_nothing():
    # q_L + q_R, the q_max of the validity value, beyond double range is
    # inf like the value itself, with no numpy warning ("overflow
    # encountered in add" once); each route then refuses as it would
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method, kind in (("exact", DomainError),
                             ("linear_born", AccuracyError),
                             ("uncorrected", AccuracyError)):
            with pytest.raises(kind):
                compute(RateRequest(eps=2.0, method=method, q_R=1.7e308,
                                    q_L=1e308))


def test_centred_refusal_stays_on_its_row():
    # a centred linear rate over its rounding bound fails alone; the
    # centred rows beside it, in its column too, finish
    requests = [RateRequest(eps=1.1, method="linear_born", q_R=q_R,
                            q_C=1e-6) for q_R in (0.01, 1e-4, 0.5, 1e-5)]
    results = compute_batch(requests)
    assert [isinstance(r, AccuracyError) for r in results] == [
        False, True, False, True]
    assert str(results[1]).startswith("linear centre rate at q_R = 0.0001 ")
    for request, result in zip(requests, results):
        if not isinstance(result, LocfieldError):
            assert result == compute(request)


# -- huge permittivities -----------------------------------------------------------

# |eps| just below and above where a term left double range (2.2e153 on
# the exact route, 1.65e102 on the weak-absorption one), where the rule
# of each route refuses (1e300 and 1e100) and at the top of double range
_HUGE_EPS = (1e100 * 0.99, 1e100 * 1.01, 1.6e102, 1.7e102, 2.1e153, 2.3e153,
             1e300 * 0.99, 1e300 * 1.01, 1e308, 1.7e308)


@pytest.mark.parametrize("size", _HUGE_EPS)
def test_huge_permittivities_end_in_a_rate_or_a_typed_error(size):
    # real or imaginary, at and off the centre: a finite rate or a
    # LocfieldError, never a numpy warning; beyond its rule's bound each
    # route refuses, naming |eps|.  The weak-absorption shift multiplies
    # 14 Re eps + 1 by Im eps, so at Re eps = 1e10 a large Im eps leaves
    # double range too (a warning at 1e10 + 1e299j): the bound is on |eps|
    for eps in (size, 1.0 + 1j * size, 1e10 + 1j * size,
                size * (0.6 + 0.8j)):
        for method, q_L in (("exact", 0.0), ("exact", 0.3),
                            ("weak_absorption", 0.0)):
            request = RateRequest(eps=eps, method=method, q_R=1.0, q_L=q_L)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    total = compute(request).total_ratio
                except LocfieldError as exc:
                    limit = 1e300 if method == "exact" else 1e100
                    assert (size <= limit) == ("|eps|" not in str(exc))
                    if size > limit:
                        assert type(exc) is DomainError
                        assert str(exc) == (
                            f"|eps| must be at most {limit:g} for the "
                            f"{method} rates: their terms leave double "
                            "range beyond")
                else:
                    assert math.isfinite(total)


def test_huge_permittivity_refusals_keep_to_their_rows(tmp_path):
    # compute_batch refuses the huge rows and returns the others' rates
    # as compute does; a sweep writes the refusal in its error column
    good = [RateRequest(eps=1.2 + 1e-7j, method="exact", q_R=2.0, q_L=0.5),
            RateRequest(eps=1.2 + 1e-7j, method="weak_absorption", q_R=2.0)]
    huge = [RateRequest(eps=2e300, method="exact", q_R=2.0, q_L=0.5),
            RateRequest(eps=1.2 + 2e100j, method="weak_absorption", q_R=2.0)]
    results = compute_batch([huge[0], good[0], huge[1], good[1]])
    assert results[1::2] == [compute(r) for r in good]
    for exc, limit in zip(results[0::2], ("1e+300", "1e+100")):
        assert type(exc) is DomainError
        assert str(exc).startswith(f"|eps| must be at most {limit} for")
    spec = build_sweep({
        "sweep": "im_chi", "lo": "1e99", "hi": "1e301", "points": "3",
        "log": "1", "eps_re": "1.1", "qr": "2", "qc": "0.01",
        "methods": "exact,weak_absorption"})
    run_sweep(spec, str(tmp_path / "huge.csv"))
    with open(tmp_path / "huge.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    errors = [row[header.index("error")] for row in rows]
    assert "|eps| must be at most" not in errors[0]
    assert ("gamma_weak_absorption: |eps| must be at most 1e+100 for the "
            "weak_absorption rates" in errors[1])
    assert ("gamma_exact: |eps| must be at most 1e+300 for the exact rates"
            in errors[2])


def test_a_linear_cavity_term_past_double_range_is_refused(tmp_path):
    # 7/6 Re chi leaves double range from |Re eps| = 1.5409e308 (less
    # where Im chi (1/q_C^3 + 1/q_C) adds to it): a NonFiniteError that
    # names the linear cavity term, in bulk and in a sphere, on the batch,
    # on the scalar routes and in a sweep's error cell, where the rate was
    # inf with "overflow encountered in multiply"; 1.5e308 keeps its rate
    message = ("the linear cavity term Im chi (1/q_C^3 + 1/q_C) + 7/6 Re "
               "chi leaves double range")
    huge = [RateRequest(eps=eps, method="linear_born", geometry=geometry,
                        q_R=q_R, q_L=q_L)
            for eps in (1.6e308, 1.5409e308, -1.6e308, 1.5e308 + 1.1e301j)
            for geometry, q_R, q_L in (("bulk", None, 0.0),
                                       ("sphere", 1e4, 3e3))]
    spec = build_sweep({"sweep": "qR", "lo": "1", "hi": "2", "points": "2",
                        "eps_re": "1.6e308", "methods": "linear_born"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for request, result in zip(huge, compute_batch(huge)):
            assert type(result) is NonFiniteError and str(result) == message
            with pytest.raises(NonFiniteError, match=re.escape(message)):
                compute(request)
        for call in (lambda: gamma_c_linear(1.6e308, 0.01),
                     lambda: gamma_total_linear(StarBoundary.bulk(), 1.6e308,
                                                0.01)):
            with pytest.raises(NonFiniteError, match=re.escape(message)):
                call()
        for eps in (1.5e308, 1.5408e308, -1.5e308):
            total = compute(RateRequest(eps=eps, method="linear_born",
                                        geometry="bulk")).total_ratio
            assert_allclose(total, 7.0 / 6.0 * eps, rtol=1e-15)
            assert gamma_c_linear(eps - 1.0, 0.01) == total - 1.0
        run_sweep(spec, str(tmp_path / "huge.csv"))
    with open(tmp_path / "huge.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert [row[header.index("error")] for row in rows] == [
        f"gamma_linear_born: {message}"] * 2


# -- warnings ---------------------------------------------------------------------------


def test_large_cavity_warning_names_the_callers_line(tmp_path):
    # however deep in the package a q_C warning is raised, it points at
    # the line that called in; a sweep warns once per curve with that
    # q_C (here an im_chi sweep, whose cavity terms are per point)
    spec = build_sweep({
        "sweep": "im_chi", "lo": "1e-8", "hi": "1e-7", "points": "5",
        "log": "1", "eps_re": "1.1", "qr": "2", "qc": "0.01,0.15",
        "methods": "linear_born,exact,weak_absorption,uncorrected"})
    calls = {
        "RateRequest": (lambda: RateRequest(eps=1.1, method="linear_born",
                                            q_R=2.0, q_C=0.15), 1),
        # a request warns when it is made, and its rate adds none
        "compute": (lambda: compute(RateRequest(
            eps=1.1, method="exact", q_R=2.0, q_C=0.15)), 1),
        "compute_batch": (lambda: compute_batch([RateRequest(
            eps=1.1, method="exact", q_R=2.0, q_C=0.15)] * 2), 1),
        "gamma_c_linear": (lambda: gamma_c_linear(0.1, 0.15), 1),
        "gamma_c_exact": (lambda: gamma_c_exact(1.1, 0.15), 1),
        "gamma_center_exact": (lambda: gamma_center_exact(1.1, 2.0, 0.15),
                               1),
        "run_sweep": (lambda: run_sweep(spec, str(tmp_path / "s.csv")), 4),
    }
    for name, (call, count) in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert len(caught) == count, name
        for w in caught:
            assert w.filename == __file__, (name, w.filename)
            assert str(w.message).startswith("q_C = 0.15 > 0.1"), name
