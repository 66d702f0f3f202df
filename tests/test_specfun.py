"""Special-function wrappers: values, identities, and error policy."""

import functools
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from locfield import specfun
from locfield.errors import (DomainError, LocfieldError, NonFiniteError,
                             SingularityError)
from locfield.specfun import (ARG_MAX, dipole_bessel_j, dipole_hankel_h1,
                              exponential_integral_ei, riccati_derivative,
                              spherical_bessel_j, spherical_hankel_h1)

mpmath.mp.dps = 40


def mp_spherical_j(m, z):
    z = mpmath.mpc(z)
    return complex(mpmath.sqrt(mpmath.pi / (2 * z))
                   * mpmath.besselj(m + mpmath.mpf(1) / 2, z))


def mp_spherical_h1(m, z):
    z = mpmath.mpc(z)
    return complex(mpmath.sqrt(mpmath.pi / (2 * z))
                   * mpmath.hankel1(m + mpmath.mpf(1) / 2, z))


# -- reference values -----------------------------------------------------


def test_j1_at_pi():
    # j_1(pi) = sin(pi)/pi^2 - cos(pi)/pi = 1/pi
    assert_allclose(spherical_bessel_j(1, np.pi + 0j), 1.0 / np.pi,
                    rtol=1e-14)


def test_j_at_zero():
    assert spherical_bessel_j(0, 0j) == 1.0
    assert spherical_bessel_j(3, 0j) == 0.0


def test_h1_closed_form():
    # h_1(z) = -e^{iz} (z + i)/z^2, so h_1(1) = -(1+i) e^{i}
    assert_allclose(spherical_hankel_h1(1, 1.0 + 0j),
                    -(1.0 + 1j) * np.exp(1j), rtol=1e-14)


def test_h0_closed_form():
    z = 0.7 - 0.3j
    assert_allclose(spherical_hankel_h1(0, z), -1j * np.exp(1j * z) / z,
                    rtol=1e-14)


def test_riccati_j0_is_cos():
    for z in (0.3 + 0j, 2.0 - 0.5j, 7.0 + 1.0j):
        assert_allclose(riccati_derivative("bessel_j", 0, z), np.cos(z),
                        rtol=1e-13)


def test_riccati_j1_small_argument():
    # [z j_1(z)]' = 2z/3 + O(z^3)
    z = 1e-4 + 0j
    assert_allclose(riccati_derivative("bessel_j", 1, z), 2.0 * z / 3.0,
                    rtol=1e-8)


def test_ei_reference_values():
    assert_allclose(exponential_integral_ei(1.0), 1.8951178163559368,
                    rtol=1e-14)
    # Ei(2i) = Ci(2) + i (Si(2) + pi/2)
    assert_allclose(exponential_integral_ei(2j),
                    0.4229808287748650 + 3.1762093035975916j, rtol=1e-14)


def test_ei_imaginary_axis_limit():
    # Ei(iy) -> i pi from the upper side as y grows
    val = exponential_integral_ei(80j)
    assert abs(val - 1j * np.pi) < 2e-2
    assert abs(exponential_integral_ei(300j) - 1j * np.pi) < abs(val - 1j * np.pi)


# -- oracles ---------------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 5, 11])
def test_j_against_mpmath(m):
    for z in (0.3 + 0.1j, 2.0 - 1.0j, 9.0 + 4.0j, 25.0 + 0.5j):
        assert_allclose(spherical_bessel_j(m, z), mp_spherical_j(m, z),
                        rtol=1e-12)


@pytest.mark.parametrize("m", [0, 1, 4, 10])
def test_h1_against_mpmath(m):
    for z in (0.5 + 0.2j, 3.0 - 0.4j, 12.0 + 2.0j):
        assert_allclose(spherical_hankel_h1(m, z), mp_spherical_h1(m, z),
                        rtol=1e-12)


# |z| from 1e-8 to 1e3, across the switch to j_1's Taylor series at
# |z| = 2, along the real axis and along n = sqrt(eps) up to Im eps = 100
# (the directions of n q_R and n q_C), short of j_1's overflow
_DIPOLE_Z = [complex(r * d)
             for d in [1.0] + [np.sqrt(e) / abs(np.sqrt(e)) for e in
                               (1.1 + 1e-8j, 2.25 + 1e-3j, 1.5 + 10j,
                                1.0 + 100j)]
             for r in np.concatenate([np.geomspace(1e-8, 1e3, 45),
                                      [1.999, 2.0, 2.001]])
             if abs(r * d.imag) < 600]


def test_dipole_closed_forms_against_mpmath():
    # h_1 and xi_1' = [z h_1]' in closed form at 40 digits; j_1 from
    # mpmath's Bessel J and psi_1' = z j_0 - j_1: all to rounding level
    for z in _DIPOLE_Z:
        w = mpmath.mpc(z)
        e = mpmath.exp(1j * w)
        j1 = mp_spherical_j(1, z)
        want = (complex(-e * (1 / w + 1j / w**2)),
                complex(e * (1 / w + 1j / w**2 - 1j)),
                j1, complex(w * mp_spherical_j(0, z) - j1))
        got = dipole_hankel_h1(z) + dipole_bessel_j(z)
        for g, v in zip(got, want):
            assert type(g) is complex
            assert_allclose(g, v, rtol=2e-15, atol=0, err_msg=str(z))


def test_dipole_closed_forms_match_scipy_route():
    # the same four numbers as the order-generic functions at m = 1: for
    # h_1 and xi_1' the check independent of their closed form
    for z in _DIPOLE_Z:
        got = dipole_hankel_h1(z) + dipole_bessel_j(z)
        want = (spherical_hankel_h1(1, z),
                riccati_derivative("hankel_h1", 1, z),
                spherical_bessel_j(1, z), riccati_derivative("bessel_j", 1, z))
        assert_allclose(got, want, rtol=5e-14, atol=0, err_msg=str(z))


def test_dipole_arrays_equal_scalar_calls():
    z = np.array(_DIPOLE_Z)
    for func in (dipole_hankel_h1, dipole_bessel_j):
        arrays = func(z)
        assert all(a.shape == z.shape for a in arrays)
        for k, zk in enumerate(_DIPOLE_Z):
            assert func(zk) == (arrays[0][k], arrays[1][k])
        grid = func(z[:6].reshape(2, 3))
        assert all(np.array_equal(g, a[:6].reshape(2, 3))
                   for g, a in zip(grid, arrays))


def _outcome(*calls):
    """The values of calls made in order, or the type and text of the
    first error one raises."""
    try:
        return np.ravel([call() for call in calls])
    except LocfieldError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("z", [
    0j, 0.0, 0, ARG_MAX * (1.0 + 0j), -ARG_MAX * 1j, 2e4, np.inf,
    complex(np.nan, 0.0), 1.7e308 + 1.7e308j,
    800j, 720j, -720j, -900j, 3.0 - 800j, 5.0 + 900j])
def test_dipole_errors_match_scipy_route(z):
    # z = 0, the argument cap and overflow: the error, its text and which
    # function raises it are those of the calls the closed forms replace,
    # for a scalar and for a one-element array alike; where both return,
    # the values agree (h_1 underflows to about 0 far up the plane)
    for arg in (z, np.array([z])):
        for closed, scipy_route in (
                (lambda: dipole_hankel_h1(arg),
                 (lambda: spherical_hankel_h1(1, arg),
                  lambda: riccati_derivative("hankel_h1", 1, arg))),
                (lambda: dipole_bessel_j(arg),
                 (lambda: spherical_bessel_j(1, arg),
                  lambda: riccati_derivative("bessel_j", 1, arg)))):
            got, want = _outcome(closed), _outcome(*scipy_route)
            if isinstance(want, tuple) or isinstance(got, tuple):
                assert got == want
            else:
                assert_allclose(got, want, rtol=5e-14, atol=1e-300)


def test_ei_against_mpmath():
    for z in (0.5, 3.0 + 4.0j, -2.0 + 0.7j, 0.05 - 0.9j, 20.0 + 1.0j):
        assert_allclose(exponential_integral_ei(z), complex(mpmath.ei(z)),
                        rtol=1e-12)


# the rate integrals probe Ei only on the positive imaginary axis, where it
# is evaluated through Si and Ci rather than the complex-plane algorithm
AXIS_Y = np.geomspace(1e-4, 5e3, 41)


def test_ei_positive_imaginary_axis_against_mpmath():
    got = exponential_integral_ei(1j * AXIS_Y)
    for y, value in zip(AXIS_Y, got):
        want = complex(mpmath.ei(mpmath.mpc(0, y)))
        assert abs(value - want) <= 1e-15 * abs(want)


def test_ei_negative_imaginary_axis_is_conjugate():
    assert_allclose(exponential_integral_ei(-1j * AXIS_Y),
                    np.conj(exponential_integral_ei(1j * AXIS_Y)),
                    rtol=1e-15, atol=0)


# specfun._ei_imaginary_axis is pieced together from rational fits that
# meet at y = 4 and y = 8
AXIS_EDGES = (4.0, 8.0)


def _mp_ei_axis(y):
    return mpmath.ei(mpmath.mpc(0, y))


def test_ei_imaginary_axis_kernel_against_mpmath():
    y = np.geomspace(1e-8, 1e4, 521)
    for yi, value in zip(y, exponential_integral_ei(1j * y)):
        want = _mp_ei_axis(yi)
        assert abs(value - want) <= 5e-16 * abs(want), yi


@pytest.mark.parametrize("edge", AXIS_EDGES)
def test_ei_imaginary_axis_is_continuous_at_its_edges(edge):
    # Ei(iy) moves by about 1e-16/y between neighbouring doubles, so each
    # side must match mpmath and the two sides each other
    y = np.array([np.nextafter(edge, 0.0), edge])
    below, at = exponential_integral_ei(1j * y)
    assert abs(at - below) <= 5e-16 * abs(at)
    for yi, value in zip(y, (below, at)):
        want = _mp_ei_axis(yi)
        assert abs(value - want) <= 5e-16 * abs(want), yi


def test_ei_imaginary_axis_arrays_equal_scalar_calls():
    y = np.concatenate([np.geomspace(1e-8, 1e4, 37), AXIS_EDGES,
                        np.nextafter(AXIS_EDGES, 0.0)])
    vec = exponential_integral_ei(1j * y)
    for i, yi in enumerate(y):
        assert vec[i] == exponential_integral_ei(complex(0.0, yi)), yi
        assert vec[i] == exponential_integral_ei(1j * y[i:i + 1])[0], yi


def test_ei_imaginary_axis_warns_never():
    # each piece alone, the others empty, out to the ends of double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for y in ([5e-324, 1e-300, 1e-8], [0.5, 3.9], [4.0, 7.9],
                  [8.0, 1e4, 1e20, 1e300], []):
            got = exponential_integral_ei(1j * np.array(y))
            assert got.shape == (len(y),)
            assert np.all(np.isfinite(got))


def test_ei_on_the_positive_imaginary_axis_needs_no_scipy(monkeypatch):
    class NoScipy:
        def __getattr__(self, name):
            raise AssertionError(f"scipy.special.{name} was called")

    monkeypatch.setattr(specfun, "_sp", NoScipy())
    exponential_integral_ei(2j)
    exponential_integral_ei(1j * np.geomspace(1e-3, 1e3, 7))
    with pytest.raises(AssertionError, match="expi"):
        exponential_integral_ei(np.array([2j, 1.0 + 2j]))


def test_ei_mixed_array_matches_scalar_calls():
    z = np.array([2j, 0.5, 3.0 + 4.0j, -2.0 + 0.7j, 0.05 - 0.9j, 7.5j,
                  -3j, 1e-3j, 20.0 + 1.0j])
    vec = exponential_integral_ei(z)
    assert vec.shape == z.shape
    for i, zi in enumerate(z):
        assert vec[i] == exponential_integral_ei(zi)


def test_j_small_z_series():
    # j_m(z) = z^m/(2m+1)!! [1 - z^2/(2(2m+3)) + ...]
    z = 0.01 + 0.005j
    dfact = 1.0
    for m in range(6):
        dfact *= 2 * m + 1
        lead = z**m / dfact * (1 - z * z / (2 * (2 * m + 3)))
        assert_allclose(spherical_bessel_j(m, z), lead, rtol=1e-8)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_three_term_recurrence(m):
    # f_{m-1} + f_{m+1} = (2m+1)/z f_m for both families
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = complex(rng.uniform(0.5, 20), rng.uniform(-3, 3))
        for fn in (spherical_bessel_j, spherical_hankel_h1):
            lhs = fn(m - 1, z) + fn(m + 1, z)
            rhs = (2 * m + 1) / z * fn(m, z)
            scale = max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_riccati_against_finite_difference():
    # [z f(z)]' via central differences of z f(z)
    h = 1e-6
    for kind, fn in (("bessel_j", spherical_bessel_j),
                     ("hankel_h1", spherical_hankel_h1)):
        for m in (0, 1, 4):
            for z in (0.8 + 0.3j, 5.0 - 1.0j):
                fd = ((z + h) * fn(m, z + h) - (z - h) * fn(m, z - h)) / (2 * h)
                assert_allclose(riccati_derivative(kind, m, z), fd,
                                rtol=1e-6)


def test_ei_against_segment_quadrature():
    # Ei(z) = Ei(1) + int_1^z e^t/t dt along the straight segment, which
    # stays off the branch cut for arg z in (-pi, pi)
    from scipy.integrate import quad
    ei_one = 1.8951178163559368
    for z in (4.0 + 0j, 2.0 + 3.0j, 0.3 - 0.8j, -5.0 + 2.0j):
        dz = z - 1.0

        def path(t, dz=dz):
            p = 1.0 + t * dz
            return np.exp(p) / p * dz

        val, _ = quad(path, 0.0, 1.0, complex_func=True, epsabs=1e-13,
                      epsrel=1e-13, limit=200)
        assert_allclose(exponential_integral_ei(z), ei_one + val,
                        rtol=1e-11)


# -- identities ------------------------------------------------------------


def test_wronskian_identity():
    # j_m(z) xi_m'(z) - psi_m'(z) h_m(z) = i/z
    rng = np.random.default_rng(11)
    for m in (0, 1, 2, 5, 10):
        for _ in range(8):
            r = np.exp(rng.uniform(np.log(0.05), np.log(30.0)))
            th = rng.uniform(-np.pi + 0.1, np.pi - 0.1)
            z = r * np.exp(1j * th)
            t1 = spherical_bessel_j(m, z) * riccati_derivative("hankel_h1", m, z)
            t2 = riccati_derivative("bessel_j", m, z) * spherical_hankel_h1(m, z)
            w = t1 - t2
            target = 1j / z
            # expression-scale error: the two products cancel by
            # ~exp(2|Im z|), which is lost precision, not wrong values
            scale = max(abs(t1), abs(t2), abs(target))
            assert abs(w - target) <= 1e-10 * scale
            if z.imag >= -4.0:
                assert abs(w - target) <= 1e-10 * abs(target)


def test_conjugation_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = complex(rng.uniform(0.1, 10), rng.uniform(0.05, 5))
        for m in (0, 2, 6):
            assert_allclose(spherical_bessel_j(m, np.conj(z)),
                            np.conj(spherical_bessel_j(m, z)), rtol=1e-14)
            # h^(1) conjugates onto h^(2) = 2j - h^(1)
            assert_allclose(
                spherical_hankel_h1(m, np.conj(z)),
                np.conj(2 * spherical_bessel_j(m, z)
                        - spherical_hankel_h1(m, z)), rtol=1e-13)
        assert_allclose(exponential_integral_ei(np.conj(z)),
                        np.conj(exponential_integral_ei(z)), rtol=1e-14)


@pytest.mark.parametrize("m", [0, 1, 3, 7])
def test_small_z_power_laws(m):
    # |j_m| ~ z^m and |h_m| ~ z^-(m+1) near the origin
    r = np.geomspace(1e-3, 1e-2, 7)
    jv = np.array([abs(spherical_bessel_j(m, x + 0j)) for x in r])
    hv = np.array([abs(spherical_hankel_h1(m, x + 0j)) for x in r])
    slope_j = np.polyfit(np.log(r), np.log(jv), 1)[0]
    slope_h = np.polyfit(np.log(r), np.log(hv), 1)[0]
    assert abs(slope_j - m) < 0.01
    assert abs(slope_h + (m + 1)) < 0.01


def test_vectorized_matches_scalar():
    z = np.array([0.5 + 0.1j, 2.0 - 0.3j, 8.0 + 1j])
    vec = spherical_bessel_j(1, z)
    assert vec.shape == z.shape
    for i, zi in enumerate(z):
        assert vec[i] == spherical_bessel_j(1, zi)
    vec_h = spherical_hankel_h1(2, z)
    for i, zi in enumerate(z):
        # numpy's SIMD complex-multiply kernels may round array and scalar
        # paths differently by one ulp; demand agreement to that level
        assert_allclose(vec_h[i], spherical_hankel_h1(2, zi),
                        rtol=5e-16, atol=0)
    vec_ei = exponential_integral_ei(2j * np.array([0.5, 1.0, 2.0]))
    assert vec_ei[1] == exponential_integral_ei(2j)
    # a Python int order and complex argument take the plain-Python
    # checks, arrays the numpy ones; both reach the same scipy call
    for m in (0, 1, 5, 40):
        vec = spherical_bessel_j(np.full(z.shape, m), z)
        vec_h = spherical_hankel_h1(np.full(z.shape, m), z)
        for i, zi in enumerate(z.tolist()):
            assert type(zi) is complex
            assert spherical_bessel_j(m, zi) == vec[i]
            assert_allclose(spherical_hankel_h1(m, zi), vec_h[i],
                            rtol=5e-16, atol=0)


def test_scalar_in_scalar_out():
    assert isinstance(spherical_bessel_j(1, 1.0 + 0j), complex)
    assert isinstance(exponential_integral_ei(1.0), complex)
    assert isinstance(riccati_derivative("bessel_j", 1, 2.0 + 0j), complex)


# -- error policy -----------------------------------------------------------


def test_hankel_singular_at_zero():
    with pytest.raises(SingularityError):
        spherical_hankel_h1(1, 0j)
    with pytest.raises(SingularityError):
        riccati_derivative("hankel_h1", 1, 0j)


def test_ei_singular_at_zero():
    with pytest.raises(SingularityError):
        exponential_integral_ei(0.0)


def test_ei_rejects_branch_cut():
    with pytest.raises(DomainError):
        exponential_integral_ei(-2.0)
    # just off the cut is fine and the two sides differ by 2 pi i
    up = exponential_integral_ei(-2.0 + 1e-12j)
    dn = exponential_integral_ei(-2.0 - 1e-12j)
    assert_allclose(up - dn, 2j * np.pi, rtol=1e-9)


def _raises_alike(kind, func, *args):
    """func raises `kind` for scalar arguments, and the same type with the
    same message when each scalar is a 1-element array instead."""
    with pytest.raises(kind) as scalar:
        func(*args)
    with pytest.raises(kind) as array:
        func(*(np.array([a]) for a in args))
    assert type(scalar.value) is type(array.value)
    assert str(scalar.value) == str(array.value)


FUNCTIONS = (spherical_bessel_j, spherical_hankel_h1,
             functools.partial(riccati_derivative, "bessel_j"),
             functools.partial(riccati_derivative, "hankel_h1"))


def test_argument_caps():
    with pytest.raises(DomainError):
        spherical_bessel_j(1, ARG_MAX * (1.0 + 0j))
    with pytest.raises(DomainError):
        spherical_bessel_j(1, np.nan + 0j)
    with pytest.raises(DomainError):
        exponential_integral_ei(np.inf)
    for func in FUNCTIONS:
        for z in (ARG_MAX * (1.0 + 0j), -ARG_MAX * 1j, 1.7e308 + 1.7e308j,
                  complex(np.nan, 0.0), complex(0.0, np.inf), np.inf, 2e4):
            _raises_alike(DomainError, func, 1, z)
    for func in FUNCTIONS[1::2]:    # the Hankel functions
        for z in (0j, 0.0, 0):
            _raises_alike(SingularityError, func, 1, z)


def test_order_validation():
    with pytest.raises(DomainError):
        spherical_bessel_j(-1, 1.0 + 0j)
    with pytest.raises(DomainError):
        spherical_bessel_j(1.5, 1.0 + 0j)
    with pytest.raises(DomainError):
        spherical_hankel_h1(201, 1.0 + 0j)
    for func in FUNCTIONS:
        # the order is checked first, whatever the argument
        for m, z in ((-1, 1.0 + 0j), (201, 1.0 + 0j), (1.5, 1.0 + 0j),
                     (True, 1.0 + 0j), (-1, np.nan), (201, 0j)):
            _raises_alike(DomainError, func, m, z)


def test_riccati_kind_validation():
    with pytest.raises(DomainError):
        riccati_derivative("neumann", 1, 1.0 + 0j)


def test_overflow_raises_nonfinite():
    # deep in the lower half plane h_m grows like e^{|Im z|}: overflow
    with pytest.raises(NonFiniteError):
        spherical_hankel_h1(1, -900j)
    with pytest.raises(NonFiniteError):
        exponential_integral_ei(800.0)
    for func in FUNCTIONS[1:]:
        _raises_alike(NonFiniteError, func, 1, -900j)
