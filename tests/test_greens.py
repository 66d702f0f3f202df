"""Green-tensor building blocks: coefficients, antiderivative, boundaries."""

import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from locfield.born import _CLOSED_FORM_REL, _certified, _gauss_rule
from locfield.errors import (DomainError, InvariantError, NonFiniteError,
                             SingularityError)
from locfield.greens import (_MOMENT_Q, _MOMENT_T, StarBoundary,
                             _brace_coeffs, _sphere_moments, ab_coefficients,
                             body_green_linear, cavity_green_linear,
                             f_integrand, unit_vector, vacuum_green)
from moment_reference import (DERIVATION, mp_antiderivative, mp_brace_coeffs,
                              mp_sphere_moments)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


# -- unit vectors -------------------------------------------------------------


def test_unit_vector_policy():
    v = unit_vector([0.0, 0.0, 1.0])
    assert v.shape == (3,)
    with pytest.raises(InvariantError):
        unit_vector([0.0, 0.0, 1.0 + 1e-9])   # not silently renormalized
    with pytest.raises(DomainError):
        unit_vector([1.0, 0.0])
    with pytest.raises(DomainError):
        unit_vector([np.inf, 0.0, 0.0])
    # rows of unit vectors, each checked: the first that is off is named
    rows = unit_vector([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]])
    assert rows.shape == (2, 3)
    with pytest.raises(InvariantError, match="^vector norm 2.0 differs"):
        unit_vector([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [3.0, 0.0, 0.0]])
    for bad in ([[1.0, 0.0]], np.zeros((1, 1, 3)), [[0.0, np.nan, 1.0]]):
        with pytest.raises(DomainError):
            unit_vector(bad)


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


@pytest.mark.parametrize("q", [1e-103, 2.5e-103, 1e-200, 5e-324,
                               np.array([1.0, 1e-103, 1e-110])])
def test_ab_refuses_q_whose_cube_leaves_double_range(q):
    # where 3/q^3 leaves double range b is not a number: NonFiniteError
    # names the smallest q, with no numpy warning (an error in this suite)
    # and no ZeroDivisionError where q^2 underflows
    with pytest.raises(NonFiniteError, match=r"^q = (\S+) is too small: "
                       r"b\(q\) in 1/q\^3 leaves double range$") as got:
        ab_coefficients(q)
    assert float(got.value.args[0].split()[2]) == pytest.approx(np.min(q),
                                                                 rel=1e-5)
    # the smallest q that passes keeps its finite coefficients
    assert np.isfinite(ab_coefficients(2.6e-103)).all()


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
    assert np.array_equal(vacuum_green(np.float64(2.0), X), g)
    with pytest.raises(SingularityError):
        vacuum_green(0.0, Z)


@pytest.mark.parametrize("q", [-1.0, -0.0, np.inf, -np.inf, np.nan,
                               np.array([1.0, 2.0]), np.array([1.0]), [2.0]])
def test_vacuum_green_refuses_q_outside_its_domain(q):
    # q = 0 is the one singular point; a negative, non-finite or
    # non-scalar q is outside the domain
    if np.ndim(q) == 0 and q == 0:
        with pytest.raises(SingularityError, match="diverges at q = 0"):
            vacuum_green(q, Z)
        return
    with pytest.raises(DomainError, match="q must be positive and finite") \
            as refused:
        vacuum_green(q, Z)
    assert not isinstance(refused.value, SingularityError)


@pytest.mark.parametrize("q", [1e-103, 1e-160, 1e-320])
def test_vacuum_green_refuses_q_whose_cube_leaves_double_range(q):
    with pytest.raises(NonFiniteError, match="is too small: the cavity terms "
                       r"in 1/q\^3 leave double range$"):
        vacuum_green(q, Z)


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
    # a direction is checked by unit_vector's rule: a NaN one is refused,
    # not turned into a NaN tensor, and so is a row of the wrong length
    for bad in ([np.nan, 0.0, 0.0], [[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]],
                [[1.0, 0.0]]):
        with pytest.raises(DomainError):
            f_integrand(1.0, bad)


# -- constant-q closed form ---------------------------------------------------


# q = 2 and 4 are the edges of the Ei pieces at y = 2q = 4 and 8
BRACE_Q = np.concatenate([np.geomspace(1e-3, 5e3, 46), [2.0, 4.0],
                          np.nextafter([2.0, 4.0], 0.0)])


def test_brace_coeffs_against_mpmath():
    P, Q = _brace_coeffs(BRACE_Q)
    for q, p, s in zip(BRACE_Q, P, Q):
        want_P, want_Q = mp_brace_coeffs(q)
        assert abs(p - want_P) <= 1e-14 * abs(want_P), q
        assert abs(s - want_Q) <= 1e-14 * abs(want_Q), q


def test_brace_coeffs_arrays_equal_scalar_calls():
    P, Q = _brace_coeffs(BRACE_Q)
    for i, q in enumerate(BRACE_Q):
        for arg in (q, BRACE_Q[i:i + 1]):
            p, s = _brace_coeffs(arg)
            assert p.shape == s.shape == np.shape(arg)
            assert p.ravel()[0] == P[i] and s.ravel()[0] == Q[i], q


# -- closed-form moments of the off-centre sphere ---------------------------


def test_sphere_moment_tables_are_the_derived_ones():
    # the shipped literals are the exact rationals of the derivation,
    # rounded to double, row for row
    q_rows, t_rows = DERIVATION.tables()
    for table, rows in ((_MOMENT_Q, q_rows), (_MOMENT_T, t_rows)):
        assert table.shape == (len(rows[0]), len(rows), 1)
        assert table[:, :, 0].T.tolist() == [list(r) for r in rows]


def test_sphere_moment_antiderivatives_differentiate_to_the_density():
    # d/dq of each basis is q^k P or q^k Q, with P and Q as mpmath
    # evaluates them apart from the derivation (from double constants
    # such as 4j/3, so to about 1e-16)
    with mpmath.workdps(40):
        for basis, (density, k) in enumerate(DERIVATION.BASES):
            for q in (mpmath.mpf("0.3"), mpmath.mpf("3.7"),
                      mpmath.mpf(41)):
                got = mpmath.diff(lambda v: mp_antiderivative(basis, v), q)
                want = q**k * mp_brace_coeffs(q)["PQ".index(density)]
                assert abs(got - want) <= 1e-15 * abs(want), (basis, q)


def test_sphere_moments_against_mpmath():
    # within 1e-13 wherever the rounding bound routes a geometry to the
    # closed form, and every near-surface geometry is routed there
    q_R, ratio = (a.ravel() for a in np.meshgrid(
        [0.05, 1.0, 5.0, 50.0, 1000.0], [0.1, 0.5, 0.9, 0.99, 0.99998]))
    q_L = q_R * ratio
    moments, bounds = _sphere_moments(q_R, q_L)
    routed = (bounds <= _CLOSED_FORM_REL * np.abs(moments)).all(axis=0)
    assert routed[ratio >= 0.9].all()
    for k in np.flatnonzero(routed):
        for got, want in zip(moments[:, k], mp_sphere_moments(q_R[k],
                                                               q_L[k])):
            assert abs(got - want) <= 1e-13 * abs(want), (q_R[k], q_L[k])


def test_sphere_moments_alone_equal_their_batch():
    q_R = np.array([1000.0, 5.0, 10.0, 0.05, 200.0])
    q_L = np.array([999.98, 0.25, 5.0, 0.045, 199.98])
    moments, bounds = _sphere_moments(q_R, q_L)
    for k in range(q_R.size):
        m, b = _sphere_moments(q_R[k:k + 1], q_L[k:k + 1])
        assert m.tobytes() == moments[:, k:k + 1].tobytes()
        assert b.tobytes() == bounds[:, k:k + 1].tobytes()


# -- near-centre moments from a Gauss-Legendre rule ---------------------------


# the rule is certified out to q_L/q_R of about 0.24 in small spheres, 0.32
# at q_R = 5 and to q_L of about 1.46 in large ones
NEAR_EDGE = {0.05: 0.0121, 0.3: 0.0744, 1.0: 0.271, 5.0: 1.6, 20.0: 1.48,
             100.0: 1.46}


def test_near_centre_moments_against_mpmath():
    # within their bounds of the 40-digit moments wherever the bound
    # certifies a geometry, out to the rule's edge: a few rounding errors;
    # at q_R = 1e4, q_L = 1 the phase e^{2iq} formed from the rounded q,
    # not as e^{2iq_R} e^{2iq_L s}, puts M2 off by 2.7e-14 of itself,
    # outside its bound
    errors = []
    for q_R, edge in [*NEAR_EDGE.items(), (1e4, 1.0)]:
        q_L = edge * np.array([1e-3, 0.02, 0.1, 0.3, 0.6, 0.85, 1.0])
        moments, bounds = _gauss_rule(np.full(q_L.size, q_R), q_L)
        assert _certified(moments, bounds).all(), q_R
        for k, ql in enumerate(q_L):
            want = np.array([complex(m) for m in mp_sphere_moments(q_R, ql)])
            error = np.abs(moments[:, k] - want)
            assert (error <= bounds[:, k]).all(), (q_R, ql)
            errors.extend(error / np.abs(want))
    assert max(errors) <= 5e-15
    assert np.median(errors) <= 4e-16


def test_near_centre_bound_catches_the_truncation_past_the_edge():
    # past the edge the rule's truncation grows from 1e-11 to 2e-2 of a
    # moment, and its estimate stays above it, so no such geometry is
    # certified
    for q_R, q_L in ((0.05, 0.04), (1.0, 0.6), (1.0, 0.9), (5.0, 4.0),
                     (20.0, 8.0), (20.0, 12.0), (100.0, 6.0), (100.0, 20.0),
                     (1000.0, 10.0), (1e4, 20.0)):
        moments, bounds = _gauss_rule(np.array([q_R]), np.array([q_L]))
        assert not _certified(moments, bounds)[0], (q_R, q_L)
        want = np.array([complex(m) for m in mp_sphere_moments(q_R, q_L)])
        assert (np.abs(moments[:, 0] - want) <= bounds[:, 0]).all(), (q_R,
                                                                     q_L)


def test_near_centre_moments_alone_equal_their_batch():
    q_R = np.array([0.05, 5.0, 100.0, 1.0, 20.0, 1e4, 1e300, 1e5, 1e-120])
    q_L = np.array([0.01, 0.25, 1.0, 0.2, 1.4, 1.0, 1.0, 2000.0, 3e-121])
    with np.errstate(all="raise"):
        moments, bounds = _gauss_rule(q_R, q_L)
    # a geometry past the rule's reach is not certified, with no warning
    assert _certified(moments, bounds).tolist() == [True] * 7 + [False] * 2
    for k in range(q_R.size):
        m, b = _gauss_rule(q_R[k:k + 1], q_L[k:k + 1])
        assert m.tobytes() == moments[:, k:k + 1].tobytes()
        assert b.tobytes() == bounds[:, k:k + 1].tobytes()


def test_cavity_green_linear_small_q_expansion():
    chi = 0.08 + 1e-8j
    for q in (1e-3, 1e-4):
        full = cavity_green_linear(q, chi)
        lead = chi / (6.0 * np.pi) * (1.0 / q**3 + 1.0 / q + 7j / 6.0) * np.eye(3)
        err = np.max(np.abs(full - lead))
        assert err < 2.0 * abs(chi) * q   # next order is O(q)


def test_cavity_green_linear_is_finite_for_any_large_q():
    # below q = 5.6e102, where q^3 leaves double range, the bits of the
    # closed form as written; above, the same limit, finite
    chi = 0.1 + 1e-8j
    for q in np.geomspace(1e-3, 5.5e102, 211).tolist():
        want = (-chi / (12.0 * np.pi) * (2.0 / q**3 - 4j / q**2 - 2.0 / q
                                         + 1j) * np.exp(2j * q))
        assert np.array_equal(cavity_green_linear(q, chi),
                              -want * np.eye(3)), q
    for q in (1e103, 1e300):
        want = -chi / (12.0 * np.pi) * (1j - 2.0 / q) * np.exp(2j * q)
        assert np.array_equal(cavity_green_linear(q, chi), -want * np.eye(3))
    # past max/2, where 2q leaves double range (once a NaN tensor), the
    # phase is within a few ulps of e^{2iq} at 330 digits
    for q in (8.98e307, 1e308, sys.float_info.max):
        with mpmath.workdps(330):
            phase = complex(mpmath.expj(2 * mpmath.mpf(q)))
        want = -chi / (12.0 * np.pi) * (1j - 2.0 / q) * phase
        got = -cavity_green_linear(q, chi)
        assert np.all(np.isfinite(got))
        assert np.abs(got - want * np.eye(3)).max() <= 1e-15 * abs(want)


def test_cavity_green_linear_against_angular_quadrature():
    # chi/(16 pi^2) Int dOmega F(q, ss) at constant q by one product
    # rule, Gauss-Legendre in cos(theta) times a uniform grid in phi, in
    # one f_integrand call: F is quadratic in s, which both rules
    # integrate exactly, so the reference is exact up to rounding
    q, chi = 0.5, 0.1
    x, w = np.polynomial.legendre.leggauss(4)
    n_phi = 8
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(1.0 - x * x)[:, None]
    s = np.stack(np.broadcast_arrays(sin_t * np.cos(phi), sin_t * np.sin(phi),
                                     x[:, None]), axis=-1).reshape(-1, 3)
    weights = np.repeat(w * (2.0 * np.pi / n_phi), n_phi)
    F = f_integrand(np.full(len(s), q), s)
    ref = (chi / (16 * np.pi**2)) * np.einsum("n,nij->ij", weights, F)
    assert_allclose(cavity_green_linear(q, chi), ref, atol=1e-10)


def test_cavity_green_linear_sign():
    q_C, chi = 0.01, 0.05 + 1e-8j
    g = cavity_green_linear(q_C, chi)
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


def test_sphere_boundary_lengths_are_real_numbers():
    # as RateRequest checks its lengths: an int gives the float's
    # boundary, and a value that float() refuses is a DomainError
    b, b_int = StarBoundary.sphere(5.0, 1.0), StarBoundary.sphere(5, 1)
    th = np.linspace(0.0, np.pi, 7)
    assert b_int.q_max == b.q_max
    assert np.array_equal(b_int.q_outer(th, 0.0), b.q_outer(th, 0.0))
    for args, name in ((("abc",), "q_R"), ((5.0, None), "q_L")):
        with pytest.raises(DomainError, match=f"^{name} must be a real "
                                              f"number, got "):
            StarBoundary.sphere(*args)


def test_body_green_bulk_and_zero_chi():
    assert np.all(body_green_linear(StarBoundary.bulk(), 0.1 + 0j) == 0)
    assert np.all(body_green_linear(StarBoundary.sphere(2.0), 0.0) == 0)


@pytest.mark.parametrize("chi, message", [
    (float("nan"), "^chi must be finite$"),
    (0.1 - 1j, "^passive medium required: Im chi >= 0$"),
    (None, "^chi must be a number, got None$")],
    ids=["nan", "gain", "None"])
@pytest.mark.parametrize("call", [
    lambda chi: cavity_green_linear(0.01, chi),
    lambda chi: body_green_linear(StarBoundary.sphere(2.0, 0.5), chi)],
    ids=["cavity_green_linear", "body_green_linear"])
def test_green_tensors_check_chi_first(call, chi, message):
    # chi is checked by its own rule before any term is formed: a NaN is
    # not a q that is too small, a gain medium returns no tensor, and the
    # rule runs before the angular quadrature
    with pytest.raises(DomainError, match=message):
        call(chi)


def test_body_green_centered_sphere_closed_form():
    # constant boundary distance: the angular quadrature must reproduce
    # the closed-form isotropic tensor
    chi = 0.1 + 1e-8j
    for q_R in (0.8, 3.0):
        g = body_green_linear(StarBoundary.sphere(q_R), chi)
        assert_allclose(g, -cavity_green_linear(q_R, chi), atol=1e-12)


def test_body_green_off_center_vs_1d_reduction():
    # independent paths: 2D angular product rule here, adaptive 1D
    # reduction in locfield.born
    from locfield.born import gamma_b_sphere_linear
    chi = 0.1 + 1e-8j
    g = body_green_linear(StarBoundary.sphere(5.0, 1.0), chi)
    for orientation, d in (("radial", Z), ("tangential", X)):
        rate_2d = 6.0 * np.pi * float(np.imag(d @ g @ d))
        rate_1d = gamma_b_sphere_linear(5.0, 1.0, chi, orientation)
        assert abs(rate_2d - rate_1d) < 1e-8


def test_body_green_symmetry_and_axial_structure():
    g = body_green_linear(StarBoundary.sphere(4.0, 2.0), 0.2 + 1e-8j)
    assert_allclose(g, g.T, atol=1e-15)
    # axisymmetric about z: xx == yy, off-diagonals vanish
    assert_allclose(g[0, 0], g[1, 1], rtol=1e-12)
    assert np.max(np.abs(g - np.diag(np.diag(g)))) < 1e-13 * np.max(np.abs(g))


# a smooth star boundary around the emitter: q_o = q0 (1 + c1 cos theta
# + c2 sin theta cos(phi - phi0) + c3 P_2(cos theta) + c4 sin^2 theta
# cos 2(phi - phi0)), positive for |c| <= 0.2, and a passive chi
_STARS = st.tuples(st.floats(0.5, 4.0),
                   st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=4),
                   st.floats(0.0, 2.0 * np.pi))
_PASSIVE = st.builds(complex, st.floats(-0.3, 0.3), st.floats(0.0, 0.3))


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(star=_STARS, chi=_PASSIVE)
def test_body_green_is_symmetric_for_any_star_boundary(star, chi):
    # reciprocity: G_B^(1) is a symmetric tensor whatever the boundary,
    # each node contributing P I + Q ss
    q0, (c1, c2, c3, c4), phi0 = star

    def q_outer(theta, phi):
        x, sin_t = np.cos(theta), np.sin(theta)
        return q0 * (1.0 + c1 * x + c2 * sin_t * np.cos(phi - phi0)
                     + c3 * (1.5 * x * x - 0.5)
                     + c4 * sin_t**2 * np.cos(2.0 * (phi - phi0)))

    g = body_green_linear(StarBoundary(q_outer, q_max=2.0 * q0), chi)
    assert np.abs(g - g.T).max() <= 1e-15 * np.abs(g).max()


def test_body_green_forms_its_nodes_unchecked(monkeypatch):
    # the angular rule's nodes are the rule's own unit directions and
    # distances checked once, positive and finite: their tensors come from
    # the unchecked core of f_integrand, with no unit-vector or q rule per
    # doubling, and equal f_integrand's at the same nodes bit for bit
    from locfield import greens
    boundary, chi = StarBoundary.sphere(4.0, 2.0), 0.1 + 1e-3j

    def by_f_integrand(n):
        theta, phi, s, w = greens._angular_nodes(n, n)
        return -chi / (16.0 * np.pi**2) * np.einsum(
            "n,nij->ij", w, f_integrand(boundary.q_outer(theta, phi), s))

    n, want = 64, by_f_integrand(64)
    while True:
        n, prev, want = 2 * n, want, by_f_integrand(2 * n)
        if np.abs(want - prev).max() <= 1e-10 * (1.0 + np.abs(want).max()):
            break

    def refused(*args):
        raise AssertionError("a node was checked again")

    for name in ("f_integrand", "unit_vector", "positive"):
        monkeypatch.setattr(greens, name, refused)
    assert np.array_equal(body_green_linear(boundary, chi), want)


def test_body_green_tolerance_validation():
    # the angular rule stops at a fixed agreement of 1e-10; no caller
    # sets it, whatever the value
    for value in (0.0, 1e-8, 1e-10):
        with pytest.raises(TypeError, match="'angular_tolerance'"):
            body_green_linear(StarBoundary.sphere(2.0), 0.1,
                              angular_tolerance=value)
