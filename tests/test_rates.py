"""Emitter-level rate assembly: SI rates, method dispatch, cross-method checks."""

import dataclasses
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import constants

from locfield.born import (ORIENTATIONS, RateBreakdown, SphereConfig,
                           gamma_c_linear)
from locfield import rates
from locfield.cavity import (gamma_b_corrected, gamma_c_exact,
                             gamma_weak_absorption)
from locfield.cli import build_sweep, run_sweep
from locfield.errors import (ConfigError, DomainError, LocfieldError,
                             SingularityError)
from locfield.greens import Permittivity
from locfield.mie import (MieSeriesSettings, body_green_center,
                          gamma_b_center, gamma_b_exact, gamma_center_exact)
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
    # so does tol, whatever the method
    for tol in (-1.0, 0.0, math.nan):
        with pytest.raises(DomainError, match="tol must be positive"):
            RateRequest(eps=1.1, method="exact", q_R=2.0, tol=tol)
    assert METHODS == ("linear_born", "exact", "weak_absorption",
                       "uncorrected")
    assert GEOMETRIES == ("sphere", "bulk")
    assert ORIENTATIONS == ("radial", "tangential")


def test_request_keeps_its_validated_records():
    req = RateRequest(eps=1.1 + 1e-8j, method="linear_born", q_R=2.0,
                      q_L=0.5)
    assert req.sphere_config() is req.sphere_config()
    assert req.sphere_config() == SphereConfig(q_R=2.0, q_L=0.5)
    assert req.permittivity is req.permittivity
    assert req.permittivity == Permittivity(1.1 + 1e-8j)
    bulk = RateRequest(eps=1.1, method="exact", geometry="bulk")
    assert bulk.sphere_config() is None
    # the records take no part in equality, hashing or repr
    twin = RateRequest(eps=1.1 + 1e-8j, method="linear_born", q_R=2.0,
                       q_L=0.5)
    assert twin == req and hash(twin) == hash(req)
    assert "_sphere" not in repr(req) and "_permittivity" not in repr(req)
    moved = dataclasses.replace(req, q_L=1.0)
    assert moved.sphere_config() == SphereConfig(q_R=2.0, q_L=1.0)


# -- method dispatch ---------------------------------------------------------------


def test_vacuum_gives_unity_for_every_method():
    for method in METHODS:
        r = compute(RateRequest(eps=1.0, method=method, q_R=2.0))
        assert r.total_ratio == 1.0
        assert isinstance(r, RateBreakdown)


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
    settings = MieSeriesSettings(m_max=120)
    for q_R, q_L in ((1.0, 0.0), (1.0, 0.3), (1.0, 0.6), (5.0, 4.0)):
        for orient in ("radial", "tangential"):
            unc = compute(RateRequest(eps=1.1, method="uncorrected",
                                      q_R=q_R, q_L=q_L,
                                      orientation=orient)).total_ratio
            alt = (math.sqrt(1.1)
                   + gamma_b_exact(1.1, q_R, q_L, orient=orient,
                                   settings=settings) / f2)
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
        RateRequest(eps=1.1 + 1e-8j, method="linear_born", q_R=1000.0,
                    q_L=999.98),
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


def test_permittivities_the_rates_refuse_fail_their_own_requests():
    # Permittivity admits eps = -1/2, the pole of the exact cavity terms,
    # and Re eps <= 0, where the uncorrected rate has no sqrt(eps) and
    # the weak-absorption split no transparent host: each is a typed
    # error of its own request, and the requests beside it, in its
    # column too, finish
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
                     lambda: gamma_b_center(-0.5, 2.0),
                     lambda: gamma_b_center([-0.5, 1.1], [2.0, 2.0]),
                     lambda: gamma_center_exact(-0.5, 2.0, 0.01),
                     lambda: gamma_b_corrected(-0.5, g, Z)):
            with pytest.raises(SingularityError, match=re.escape(pole)):
                call()
    with pytest.raises(DomainError, match=re_eps):
        gamma_uncorrected(-1.0, np.zeros((3, 3)), Z)
    with pytest.raises(DomainError, match=weak):
        gamma_weak_absorption(1e-7j, 0.01, 1.0, np.zeros((3, 3)), Z)


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
        "SphereConfig": (lambda: SphereConfig(q_R=2.0, q_C=0.15), 1),
        "RateRequest": (lambda: RateRequest(eps=1.1, method="linear_born",
                                            q_R=2.0, q_C=0.15), 1),
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
