"""Monte Carlo and quadrature validators."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf

import locfield
from locfield.errors import AccuracyError, DomainError
from locfield.greens import (StarBoundary, ab_coefficients,
                             body_green_linear, cavity_green_linear)
from locfield.oracle import RegionSampler, mc_delta1_green, quad_reference
from locfield.specfun import exponential_integral_ei

CHI = 0.1 + 1e-8j


def _assert_within_sigma(mean, stderr, target, n_sigma=3.0):
    delta = mean - target
    assert np.all(np.abs(delta.real) <= n_sigma * stderr.real)
    assert np.all(np.abs(delta.imag) <= n_sigma * stderr.imag)


# -- Monte Carlo vs closed forms ---------------------------------------------------


def test_zero_susceptibility_is_exactly_zero():
    samp = RegionSampler.shell(0.5, 2.0)
    mean, stderr = mc_delta1_green(samp, 0.0, 2000, seed=3)
    assert np.all(mean == 0) and np.all(stderr == 0)


def test_shell_importance_sampling_matches_closed_form():
    samp = RegionSampler.shell(0.1, 8.0)
    mean, stderr = mc_delta1_green(samp, CHI, 200_000, seed=42)
    target = cavity_green_linear(0.1, CHI) - cavity_green_linear(8.0, CHI)
    _assert_within_sigma(mean, stderr, target)
    # error bars should actually be small enough to mean something
    assert np.all(stderr.real[np.eye(3, dtype=bool)] < 0.05 * np.abs(
        target.real[np.eye(3, dtype=bool)]))


def test_shell_uniform_sampling_cross_check():
    # uniform mode only on a window where 1/q^4 variance stays finite-ish
    samp = RegionSampler.shell(1.0, 4.0, mode="uniform")
    mean, stderr = mc_delta1_green(samp, CHI, 200_000, seed=42)
    target = cavity_green_linear(1.0, CHI) - cavity_green_linear(4.0, CHI)
    _assert_within_sigma(mean, stderr, target)


def test_off_center_region_matches_boundary_quadrature():
    # strongest end-to-end check: raw volume MC against the radial
    # antiderivative + angular quadrature route, off-center geometry
    samp = RegionSampler.sphere_minus_cavity(2.0, 0.8, 0.1)
    mean, stderr = mc_delta1_green(samp, CHI, 400_000, seed=42)
    target = (cavity_green_linear(0.1, CHI)
              + body_green_linear(StarBoundary.sphere(2.0, 0.8), CHI))
    _assert_within_sigma(mean, stderr, target)


def test_sphere_sampler_integrates_gaussian():
    center = np.array([0.0, 0.0, 3.0])
    samp = RegionSampler.sphere(1.5, center)
    rng = np.random.default_rng(1234)
    pts, pdf = samp.sample(rng, 100_000)
    f = np.exp(-np.sum((pts - center) ** 2, axis=1)) / pdf
    closed = np.pi**1.5 * erf(1.5) - 2 * np.pi * 1.5 * np.exp(-1.5**2)
    sigma = f.std(ddof=1) / np.sqrt(len(f))
    assert abs(f.mean() - closed) <= 3.0 * sigma


def test_importance_weights_reproduce_volume():
    samp = RegionSampler.shell(0.1, 8.0)
    assert_allclose(samp.volume, 4 * np.pi / 3 * (8.0**3 - 0.1**3),
                    rtol=1e-15)
    rng = np.random.default_rng(77)
    _, pdf = samp.sample(rng, 200_000)
    w = 1.0 / pdf
    sigma = w.std(ddof=1) / np.sqrt(len(w))
    assert abs(w.mean() - samp.volume) <= 4.0 * sigma


def test_sampled_points_respect_geometry():
    rng = np.random.default_rng(5)
    for mode in ("importance", "uniform"):
        samp = RegionSampler.sphere_minus_cavity(2.0, 0.8, 0.1, mode=mode)
        pts, pdf = samp.sample(rng, 5000)
        assert np.all(np.linalg.norm(pts, axis=1) >= 0.1 - 1e-12)
        dist = np.linalg.norm(pts - np.array([0.0, 0.0, -0.8]), axis=1)
        assert np.all(dist <= 2.0 + 1e-12)
        assert np.all(pdf > 0)


def test_stderr_scales_as_inverse_sqrt_n():
    samp = RegionSampler.shell(0.1, 8.0)
    _, e1 = mc_delta1_green(samp, CHI, 100_000, seed=5)
    _, e4 = mc_delta1_green(samp, CHI, 400_000, seed=5)
    ratio = np.linalg.norm(np.abs(e4)) / np.linalg.norm(np.abs(e1))
    assert 0.35 < ratio < 0.65


def test_bit_reproducible_for_fixed_seed():
    samp = RegionSampler.shell(0.5, 3.0)
    a_mean, a_err = mc_delta1_green(samp, CHI, 5000, seed=11)
    b_mean, b_err = mc_delta1_green(samp, CHI, 5000, seed=11)
    c_mean, _ = mc_delta1_green(samp, CHI, 5000, seed=12)
    assert np.array_equal(a_mean, b_mean) and np.array_equal(a_err, b_err)
    assert not np.array_equal(a_mean, c_mean)


def test_sampler_validation():
    with pytest.raises(DomainError):
        RegionSampler.shell(0.0, 1.0)
    with pytest.raises(DomainError):
        RegionSampler.shell(2.0, 1.0)
    with pytest.raises(DomainError):
        RegionSampler.shell(1.0, 2.0, mode="stratified")
    with pytest.raises(DomainError):
        RegionSampler.sphere(1.0, [0.0, 0.0, 0.5])   # atom inside
    with pytest.raises(DomainError):
        RegionSampler.sphere(1.0, [[0.0, 0.0, 3.0]])
    with pytest.raises(DomainError):
        RegionSampler.sphere_minus_cavity(2.0, 1.5, 0.6)   # cavity pokes out
    with pytest.raises(DomainError):
        RegionSampler.sphere_minus_cavity(2.0, -0.1, 0.1)
    with pytest.raises(DomainError):
        mc_delta1_green(RegionSampler.shell(0.5, 2.0), CHI, 999, seed=0)


# -- quadrature reference ------------------------------------------------------------


def test_quad_reference_constant():
    val = quad_reference(lambda x: 2.5 + 0.5j, (0.0, 2.0))
    assert_allclose(val, 5.0 + 1.0j, rtol=1e-13)


def test_quad_reference_solid_angle_tensor():
    def integrand(theta, phi):
        s = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi),
                      np.cos(theta)])
        return np.sin(theta) * np.outer(s, s)

    val = quad_reference(integrand, ((0.0, np.pi), (0.0, 2 * np.pi)),
                         tol=1e-11)
    assert_allclose(val, (4 * np.pi / 3) * np.eye(3), atol=1e-11)


def test_quad_reference_radial_closed_form():
    # isotropic part of the volume integrand has antiderivative
    # -(c_I e^{2iq} + (4i/3) Ei(2iq)) with c_I as below
    def F(q):
        c_I = 1 / (3 * q**3) - 2j / (3 * q**2) - 5 / (3 * q) + 0.5j
        return (c_I * np.exp(2j * q)
                + (4j / 3) * exponential_integral_ei(2j * q))

    def integrand(q):
        a, _ = ab_coefficients(q)
        return q * q * np.exp(2j * q) * a * a

    val = quad_reference(integrand, (0.5, 3.0), tol=1e-12)
    assert_allclose(val, F(0.5) - F(3.0), atol=1e-10)


def test_quad_reference_refuses_uncertain_result():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(AccuracyError):
            quad_reference(lambda x: np.sin(1.0 / x), (1e-6, 1.0),
                           tol=1e-13)


def test_quad_reference_validation():
    with pytest.raises(DomainError):
        quad_reference(lambda x: x, (1.0, 0.0))
    with pytest.raises(DomainError):
        quad_reference(lambda x: x, "nonsense")
    with pytest.raises(DomainError):
        quad_reference(lambda x: x, (0.0, 1.0), tol=0.0)


def _fresh_python(*args):
    """Run a fresh interpreter that imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(locfield.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res


def test_import_defers_scipy_integrate_to_first_use():
    # a fresh interpreter, since this one has long loaded scipy.integrate
    code = ("import sys, locfield\n"
            "print('scipy.integrate' in sys.modules)\n"
            "from locfield.oracle import quad_reference\n"
            "print(quad_reference(lambda x: x * x, (0.0, 3.0)))\n")
    loaded, value = _fresh_python("-c", code).stdout.split()
    assert loaded == "False"
    assert_allclose(complex(value), 9.0, rtol=1e-13)


# no rate needs scipy.special: bulk, the dipole wave alone at the sphere
# centre, the linear Born and uncorrected body terms, whose Ei lies on the
# positive imaginary axis, and the off-centre series, which runs on
# specfun's recurrences; sphere coefficients of one order m > 1 load it
_SCIPY_FREE_REQUESTS = (
    dict(eps=1.2 + 1e-7j, method="exact", geometry="bulk"),
    dict(eps=1.2 + 1e-7j, method="linear_born", geometry="bulk"),
    dict(eps=1.2 + 1e-7j, method="exact", q_R=3.0),
    dict(eps=1.2 + 1e-7j, method="weak_absorption", q_R=3.0),
    dict(eps=1.2 + 1e-7j, method="weak_absorption", geometry="bulk"),
    dict(eps=1.2 + 1e-7j, method="linear_born", q_R=3.0, q_L=1.0),
    dict(eps=1.2 + 1e-7j, method="uncorrected", q_R=3.0),
    dict(eps=1.2 + 1e-7j, method="exact", q_R=3.0, q_L=1.0),
    dict(eps=1.2 + 1e-7j, method="exact", q_R=3.0, q_L=1.0,
         orientation="tangential"))


def test_import_defers_scipy_special_to_rates_that_need_it():
    code = ("import sys, locfield\n"
            "def rate(kw):\n"
            "    return locfield.compute(locfield.RateRequest(**kw))\n"
            f"for kw in {_SCIPY_FREE_REQUESTS!r}:\n"
            "    print(repr(rate(kw).total_ratio))\n"
            "print('scipy.special' in sys.modules, 'scipy' in sys.modules)\n"
            "locfield.sphere_coefficients(1.2, 3.0, 2)\n"
            "print('scipy.special' in sys.modules)\n")
    lines = _fresh_python("-c", code).stdout.splitlines()
    n = len(_SCIPY_FREE_REQUESTS)
    assert lines[n:] == ["False False", "True"]
    # the same rates as in this interpreter, which loaded scipy long ago
    for kw, value in zip(_SCIPY_FREE_REQUESTS, lines[:n], strict=True):
        assert float(value) == locfield.compute(locfield.RateRequest(**kw)
                                                ).total_ratio, kw


# despite the test's name, no kind of request loads scipy.special, the
# off-centre exact one included
@pytest.mark.parametrize("args", [
    ["--eps-re", "1.2", "--eps-im", "1e-7"],
    ["--eps-re", "1.2", "--eps-im", "1e-7", "--qr", "3"],
    ["--eps-re", "1.2", "--eps-im", "1e-7", "--qr", "3",
     "--method", "weak_absorption"],
    ["--eps-re", "1.2", "--eps-im", "1e-7", "--qr", "3", "--ql", "1",
     "--method", "linear_born"],
    ["--eps-re", "1.2", "--eps-im", "1e-7", "--qr", "3",
     "--method", "uncorrected"],
    ["--eps-re", "1.2", "--eps-im", "1e-7", "--qr", "3", "--ql", "1"],
], ids=["bulk", "centre_exact", "centre_weak_absorption",
        "offcentre_linear_born", "centre_uncorrected", "offcentre_exact"])
def test_cli_compute_imports_scipy_special_only_off_centre(args):
    res = _fresh_python("-X", "importtime", "-m", "locfield", "compute",
                        *args)
    assert not _imports_scipy_special(res)
    assert "total_ratio = " in res.stdout


def _imports_scipy_special(res):
    # -X importtime lists the modules the command imports (scipy.special
    # itself by its submodules)
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in res.stderr.splitlines()]
    return any(name.startswith("scipy.special.") for name in imported)


def test_linear_preset_sweep_never_imports_scipy_special(tmp_path):
    # every curve of fig5a is linear Born or uncorrected, q_L from 0 to 0.95
    res = _fresh_python("-X", "importtime", "-m", "locfield", "sweep",
                        "--preset", "fig5a", "--out",
                        str(tmp_path / "fig5a.csv"))
    assert not _imports_scipy_special(res)
    assert "wrote " in res.stdout
