"""Green-tensor building blocks: coefficients, antiderivative, boundaries."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from locfield.errors import DomainError, InvariantError, SingularityError
from locfield.greens import (Permittivity, StarBoundary, _brace_coeffs,
                             ab_coefficients, as_permittivity,
                             body_green_linear,
                             cavity_green_linear, f_constant_q, f_integrand,
                             unit_vector, vacuum_green)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


# -- permittivity and vectors ------------------------------------------------


def test_permittivity_properties():
    # 1.25 - 1 is exact in binary, so chi can be compared bitwise
    p = Permittivity(1.25 + 2e-8j)
    assert p.chi == 0.25 + 2e-8j
    assert_allclose(p.n, np.sqrt(1.25 + 2e-8j), rtol=1e-15)
    assert p.n.imag >= 0
    assert not p.is_absorbing()
    assert Permittivity(1.1 + 1e-3j).is_absorbing()
    with pytest.raises(TypeError):
        p.is_absorbing(1e-9)  # the threshold is fixed


def test_permittivity_validation():
    with pytest.raises(DomainError):
        Permittivity(1.0 - 1e-3j)   # gain medium
    with pytest.raises(DomainError):
        Permittivity(0.0)
    with pytest.raises(DomainError):
        Permittivity(complex(np.nan, 0.0))
    assert as_permittivity(2.25).epsilon == 2.25 + 0j
    p = Permittivity(1.5 + 0j)
    assert as_permittivity(p) is p


def test_unit_vector_policy():
    v = unit_vector([0.0, 0.0, 1.0])
    assert v.shape == (3,)
    with pytest.raises(InvariantError):
        unit_vector([0.0, 0.0, 1.0 + 1e-9])   # not silently renormalized
    with pytest.raises(DomainError):
        unit_vector([1.0, 0.0])
    with pytest.raises(DomainError):
        unit_vector([np.inf, 0.0, 0.0])


# -- a, b coefficients --------------------------------------------------------


def test_ab_at_unity():
    a, b = ab_coefficients(1.0)
    assert a == 1j
    assert b == -2.0 + 3j


def test_ab_rational_oracle():
    # with q = float(0.1) the coefficients are exact rationals in the
    # binary value of q; Fractions reproduce them to full precision
    q = 0.1
    F = Fraction(q)
    a, b = ab_coefficients(q)
    a_ref = complex(Fraction(1) / F - Fraction(1) / F**3) + 1j * float(Fraction(1) / F**2)
    b_ref = complex(Fraction(1) / F - Fraction(3) / F**3) + 3j * float(Fraction(1) / F**2)
    assert_allclose(a, a_ref, rtol=1e-14)
    assert_allclose(b, b_ref, rtol=1e-14)


def test_ab_validation():
    with pytest.raises(DomainError):
        ab_coefficients(0.0)
    with pytest.raises(DomainError):
        ab_coefficients(-1.0)
    with pytest.raises(DomainError):
        ab_coefficients(np.inf)
    a, b = ab_coefficients(np.array([1.0, 2.0]))
    assert a.shape == (2,)


# -- vacuum Green tensor ------------------------------------------------------


def test_vacuum_green_small_q_ldos():
    # Im G^(0) -> I/(6 pi), quadratically in q
    target = np.eye(3) / (6.0 * np.pi)
    errs = []
    for q in (1e-1, 1e-2, 1e-3):
        g = vacuum_green(q, Z)
        errs.append(np.max(np.abs(g.imag - target)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_vacuum_green_structure():
    g = vacuum_green(2.0, X)
    a, b = ab_coefficients(2.0)
    ref = np.exp(2j) / (4 * np.pi) * (a * np.eye(3) - b * np.outer(X, X))
    assert np.array_equal(g, ref)
    assert np.array_equal(g, g.T)      # exactly symmetric by construction
    with pytest.raises(SingularityError):
        vacuum_green(0.0, Z)


# -- radial antiderivative ----------------------------------------------------


def _ab_complex(q):
    # analytic continuation of the coefficients, for contour integration
    a = 1.0 / q + 1j / q**2 - 1.0 / q**3
    b = 1.0 / q + 3j / q**2 - 3.0 / q**3
    return a, b


def _ray_tail_oracle(q0, s, tol=1e-12):
    """int_{q0}^inf q^2 e^{2iq} [a^2 I + (b^2-2ab) ss] dq, evaluated on
    the rotated contour q = q0 + it where the integrand decays like
    e^{-2t} (the real-axis tail only converges in the Abel sense)."""
    ss = np.outer(s, s)

    def comps(t):
        q = q0 + 1j * t
        a, b = _ab_complex(q)
        w = 1j * q * q * np.exp(2j * q)
        return np.array([w * a * a, w * (b * b - 2 * a * b)])

    iso, aniso = (quad(lambda t, i=i: comps(t)[i], 0.0, np.inf,
                       complex_func=True, epsabs=tol, epsrel=1e-13,
                       limit=400)[0] for i in (0, 1))
    return iso * np.eye(3) + aniso * ss


def test_f_integrand_ray_identity():
    # F(q0) equals the convergent part of the outward ray integral minus
    # the universal 4 pi (I/3 - ss) constant from Ei(2iq) -> i pi
    rng = np.random.default_rng(5)
    v = rng.normal(size=3)
    for q0 in (0.7, 2.0):
        for s in (Z, v / np.linalg.norm(v)):
            ray = _ray_tail_oracle(q0, s)
            ss = np.outer(s, s)
            pred = f_integrand(q0, s) + 4.0 * np.pi * (np.eye(3) / 3.0 - ss)
            assert_allclose(pred, ray, atol=1e-10)


def test_f_integrand_is_antiderivative():
    # dF/dq = -q^2 e^{2iq} [a^2 I + (b^2 - 2ab) ss]
    h = 1e-6
    for q in (0.5, 1.7, 6.0):
        s = unit_vector(np.array([0.6, 0.0, 0.8]))
        fd = (f_integrand(q + h, s) - f_integrand(q - h, s)) / (2 * h)
        a, b = ab_coefficients(q)
        ss = np.outer(s, s)
        exact = -q * q * np.exp(2j * q) * (a * a * np.eye(3)
                                           + (b * b - 2 * a * b) * ss)
        assert_allclose(fd, exact, rtol=2e-7, atol=1e-9)


def test_f_integrand_shapes_and_validation():
    s = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    out = f_integrand(np.array([1.0, 2.0]), s)
    assert out.shape == (2, 3, 3)
    assert np.array_equal(out[0], f_integrand(1.0, Z))
    # broadcast: one q against many directions and vice versa
    assert f_integrand(np.array([1.0]), s).shape == (2, 3, 3)
    assert f_integrand(np.array([1.0, 2.0]), Z).shape == (2, 3, 3)
    with pytest.raises(InvariantError):
        f_integrand(1.0, np.array([0.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        f_integrand(-1.0, Z)
    with pytest.raises(DomainError):
        f_integrand(np.array([1.0, 2.0, 3.0]), s)


# -- constant-q closed form ---------------------------------------------------


def _mp_brace_coeffs(q):
    # P = cI e^{2iq} + (4i/3) Ei(2iq), Q = cS e^{2iq} - 4i Ei(2iq)
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        phase, ei = mpmath.expj(2 * q), mpmath.ei(mpmath.mpc(0, 2 * q))
        c_I = 1 / (3 * q**3) - 2j / (3 * q**2) - 5 / (3 * q) + 0.5j
        c_S = 1 / q**3 - 2j / q**2 + 3 / q - 0.5j
        return c_I * phase + 4j / 3 * ei, c_S * phase - 4j * ei


# q = 2 and 4 are the edges of the Ei pieces at y = 2q = 4 and 8
BRACE_Q = np.concatenate([np.geomspace(1e-3, 5e3, 46), [2.0, 4.0],
                          np.nextafter([2.0, 4.0], 0.0)])


def test_brace_coeffs_against_mpmath():
    P, Q = _brace_coeffs(BRACE_Q)
    for q, p, s in zip(BRACE_Q, P, Q):
        want_P, want_Q = _mp_brace_coeffs(q)
        assert abs(p - want_P) <= 1e-14 * abs(want_P), q
        assert abs(s - want_Q) <= 1e-14 * abs(want_Q), q


def test_brace_coeffs_arrays_equal_scalar_calls():
    P, Q = _brace_coeffs(BRACE_Q)
    for i, q in enumerate(BRACE_Q):
        for arg in (q, BRACE_Q[i:i + 1]):
            p, s = _brace_coeffs(arg)
            assert p.shape == s.shape == np.shape(arg)
            assert p.ravel()[0] == P[i] and s.ravel()[0] == Q[i], q


def test_f_constant_q_small_q_expansion():
    chi = 0.08 + 1e-8j
    for q in (1e-3, 1e-4):
        full = f_constant_q(q, chi)
        lead = -chi / (6.0 * np.pi) * (1.0 / q**3 + 1.0 / q + 7j / 6.0) * np.eye(3)
        err = np.max(np.abs(full - lead))
        assert err < 2.0 * abs(chi) * q   # next order is O(q)


def test_f_constant_q_against_angular_quadrature():
    from locfield.oracle import quad_reference
    q, chi = 0.5, 0.1

    def integrand(theta, phi):
        s = np.array([np.sin(theta) * np.cos(phi),
                      np.sin(theta) * np.sin(phi), np.cos(theta)])
        return (-chi / (16 * np.pi**2)) * f_integrand(q, s) * np.sin(theta)

    ref = quad_reference(integrand, ((0.0, np.pi), (0.0, 2 * np.pi)),
                         tol=1e-11)
    assert_allclose(f_constant_q(q, chi), ref, atol=1e-10)


def test_cavity_green_linear_sign():
    q_C, chi = 0.01, 0.05 + 1e-8j
    g = cavity_green_linear(q_C, chi)
    assert np.array_equal(g, -f_constant_q(q_C, chi))
    # leading near-field term chi/(6 pi q_C^3) dominates and is positive
    assert g[0, 0].real > 0
    assert abs(g[0, 0].real - chi.real / (6 * np.pi * q_C**3)) \
        < 1e-2 * abs(g[0, 0].real)


# -- boundaries and the body tensor -------------------------------------------


def test_star_boundary_sphere_geometry():
    b = StarBoundary.sphere(5.0, 1.0)
    assert b.q_max == 6.0
    assert not b.is_bulk
    assert_allclose(b.q_outer(0.0, 0.0), 4.0, rtol=1e-15)    # toward +z
    assert_allclose(b.q_outer(np.pi, 0.0), 6.0, rtol=1e-15)  # away from +z
    th = np.pi / 2
    assert_allclose(b.q_outer(th, 0.0), np.sqrt(24.0), rtol=1e-14)
    with pytest.raises(DomainError):
        StarBoundary.sphere(1.0, 1.0)
    with pytest.raises(DomainError):
        StarBoundary.sphere(-2.0)
    with pytest.raises(DomainError):
        StarBoundary(q_outer=None, q_max=1.0)


def test_body_green_bulk_and_zero_chi():
    assert np.all(body_green_linear(StarBoundary.bulk(), 0.1 + 0j) == 0)
    assert np.all(body_green_linear(StarBoundary.sphere(2.0), 0.0) == 0)


def test_body_green_centered_sphere_closed_form():
    # constant boundary distance: the angular quadrature must reproduce
    # the closed-form isotropic tensor
    chi = 0.1 + 1e-8j
    for q_R in (0.8, 3.0):
        g = body_green_linear(StarBoundary.sphere(q_R), chi)
        assert_allclose(g, f_constant_q(q_R, chi), atol=1e-12)


def test_body_green_off_center_vs_1d_reduction():
    # independent paths: 2D angular product rule here, adaptive 1D
    # reduction in locfield.born
    from locfield.born import SphereConfig, gamma_b_sphere_linear
    chi = 0.1 + 1e-8j
    cfg = SphereConfig(q_R=5.0, q_L=1.0, q_C=0.01)
    g = body_green_linear(StarBoundary.sphere(5.0, 1.0), chi)
    for orientation, d in (("radial", Z), ("tangential", X)):
        rate_2d = 6.0 * np.pi * float(np.imag(d @ g @ d))
        rate_1d = gamma_b_sphere_linear(cfg, chi, orientation)
        assert abs(rate_2d - rate_1d) < 1e-8


def test_body_green_symmetry_and_axial_structure():
    g = body_green_linear(StarBoundary.sphere(4.0, 2.0), 0.2 + 1e-8j)
    assert_allclose(g, g.T, atol=1e-15)
    # axisymmetric about z: xx == yy, off-diagonals vanish
    assert_allclose(g[0, 0], g[1, 1], rtol=1e-12)
    assert np.max(np.abs(g - np.diag(np.diag(g)))) < 1e-13 * np.max(np.abs(g))


def test_body_green_tolerance_validation():
    with pytest.raises(DomainError):
        body_green_linear(StarBoundary.sphere(2.0), 0.1, angular_tolerance=0.0)
