"""Exact scattering series for a dielectric sphere host.

The scattering Green tensor of a homogeneous sphere (permittivity eps,
optical radius q_R = k_A R) at an interior point decomposes over vector
spherical waves; contracting with a dipole at displacement q_L = k_A l_A
from the center leaves one series per orientation:

    gamma_b(radial) = (3/2) Im{ K sum_m (2m+1) m (m+1) C_m^N
                                 [ j_m(x)/x ]^2 },
    gamma_b(tang.)  = (3/4) Im{ K sum_m (2m+1)
                                 [ C_m^M j_m(x)^2 + C_m^N (psi_m'(x)/x)^2 ] },

with x = n q_L, K = 9 i eps^{5/2}/(2 eps+1)^2 = i n L^2 (the local-field
corrected prefactor, L = 3 eps/(2 eps + 1), both from
:mod:`locfield.cavity`), psi_m the Riccati-Bessel function, and C_m^N,
C_m^M the interior scattering coefficients

    C_m^N = -[eps h_m(z1) xi_m'(z0) - xi_m'(z1) h_m(z0)]
             / [eps j_m(z1) xi_m'(z0) - psi_m'(z1) h_m(z0)],

(C_m^M without the eps factors), z0 = q_R, z1 = n q_R.  In vacuum
(eps = 1) both are exactly 0, and so is every body term.  At the center
only m = 1 survives and both orientations give Im[K C_1^N]; this limit is
implemented analytically rather than by small-q_L evaluation, so there is
no 0/0, and from the closed-form dipole functions of
:mod:`locfield.specfun`, so it needs no :mod:`scipy.special`.

The coefficients and the centre rate are array kernels, which
:func:`_gamma_b_rows` runs on the checked rows of :mod:`locfield.rates`.
A public function takes one sphere, checks it once and runs
:func:`_series` or the array kernels on a one-element column
(:func:`_column`), so that it equals that point of a column bit for bit.

Near the surface C_m^N and j_m(x)^2 leave double range before the terms
are small, so off the centre the series is summed in ratio form
(Wiscombe 1980, Appl. Opt. 19, 1505), over j_m(z1) h_m(z0):

    C_m^N j_m(x)^2 = -P_m rho_m^2 (eps A0 - A1)/(eps A0 - B1),

with A = xi_m'/h_m at z0, z1 and B = psi_m'/j_m at z1, x from the ratios
h_{m-1}/h_m, carried up, and j_{m-1}/j_m, Miller's, both tables (z1 and
x) from one downward run of specfun, after a plain-Python check of
q_R, z1 and x, whose refusal names the argument it refuses;
rho_m = j_m(x)/j_m(z1) and, by the Wronskian, P_m = h_m(z1) j_m(z1)
= i/(z1 (A1 - B1)), which keeps its small real part j_m^2 at real z1.
C_m^M takes eps -> 1.  Every factor is bounded.  The terms fall as
(q_L/q_R)^{2m} once m exceeds ~ q_R |n|; the series stops once
_SMALL_RUN successive terms fall below _TERM_TOLERANCE of the sum, and
past _ORDER_LIMIT orders raises AccuracyError naming the order needed.
eps = -1/2, the pole of L, raises SingularityError on every route, and
so does eps so near it that L^2 leaves double range.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from . import cavity
from .errors import (POLE_CUT, AccuracyError, DomainError, LocfieldError,
                     NonFiniteError, SingularityError, check_eps,
                     inside_sphere, method_faults, number,
                     orientation_faults, positive, raise_first,
                     sphere_faults, whole_number)
from .specfun import (_bessel_ratio_tables, _check_point, dipole_bessel_j,
                      dipole_hankel_h1, riccati_derivative, spherical_bessel_j,
                      spherical_hankel_h1)

__all__ = [
    "sphere_coefficients",
    "body_green_center",
    "gamma_b_exact",
    "gamma_center_exact",
]


# the series stops after _SMALL_RUN successive terms below _TERM_TOLERANCE
# times the modulus of the running sum
_TERM_TOLERANCE = 1.0e-14
_SMALL_RUN = 3

# the series takes at most _ORDER_LIMIT orders, and refuses an |n q_L|
# below _X_MIN, where 1/(n q_L) leaves double range
_ORDER_LIMIT = 5000
_X_MIN = 1.0 / sys.float_info.max

# largest relative rounding error, as _center_rounding_bound puts it, of
# an exact rate that the centre kernel or the series returns
_CENTER_REL_MAX = 1.0e-8


def _column(e: complex, q_R: float):
    """(e, n = sqrt(e), q_R) of a checked sphere as one-element columns,
    on which a scalar call runs the array kernels."""
    e = np.array([e])
    return e, np.sqrt(e), np.array([q_R])


def sphere_coefficients(eps, q_R: float, m: int):
    """Interior scattering coefficients (C_m^N, C_m^M) of the sphere eps,
    q_R at the order m, a whole number: complex numbers, worked out as a
    one-element column.  m = 1, all that the centre rate needs, takes the
    closed forms of :mod:`locfield.specfun`, with no :mod:`scipy.special`.
    A coefficient that leaves double range raises NonFiniteError, as at
    eps = 1e-300, q_R = 1, where C_1^N and C_1^M are about 1e450.
    """
    e = check_eps(eps)
    q_R = number("q_R", q_R, float)
    raise_first((*positive("q_R", q_R), *whole_number("m", m)))
    e, n, q_R = _column(e, q_R)
    m = int(m)
    with np.errstate(over="ignore"):  # past double range q_R is refused
        z1 = n * q_R
    C_N, C_M = _finite_coefficients(e, m, *_order_values(m, q_R + 0j, z1))
    return C_N.item(), C_M.item()


def _order_values(m: int, z0, z1):
    """h_m(z0), h_m(z1), j_m(z1), xi_m'(z0), xi_m'(z1) and psi_m'(z1),
    in the order :func:`_finite_coefficients` takes them."""
    if m == 1:
        h0, xi0p = dipole_hankel_h1(z0)
        h1, xi1p = dipole_hankel_h1(z1)
        j1, ps1p = dipole_bessel_j(z1)
        return h0, h1, j1, xi0p, xi1p, ps1p
    return (spherical_hankel_h1(m, z0), spherical_hankel_h1(m, z1),
            spherical_bessel_j(m, z1), riccati_derivative("hankel_h1", m, z0),
            riccati_derivative("hankel_h1", m, z1),
            riccati_derivative("bessel_j", m, z1))


def _finite_coefficients(e, m, *values):
    """(C_m^N, C_m^M) from the arrays h_m(z0), h_m(z1), j_m(z1), xi_m'(z0),
    xi_m'(z1) and psi_m'(z1), or the resonance pole's error, or
    NonFiniteError where a coefficient leaves double range.  In vacuum
    (e == 1) both are exactly 0, not rounding noise."""
    h0, h1, j1, xi0p, xi1p, ps1p = values
    with np.errstate(all="ignore"):
        den_N = e * j1 * xi0p - ps1p * h0
        den_M = j1 * xi0p - ps1p * h0
        if (np.minimum(abs(den_N), abs(den_M)) < POLE_CUT).any():
            raise SingularityError(f"sphere coefficient denominator "
                                   f"vanished at m = {m} (resonance pole)")
        medium = e != 1
        C_N = -(e * h1 * xi0p - xi1p * h0) * medium / den_N
        C_M = -(h1 * xi0p - xi1p * h0) * medium / den_M
    if not (np.isfinite(C_N).all() and np.isfinite(C_M).all()):
        raise _nonfinite_coefficients(m)
    return C_N, C_M


def _nonfinite_coefficients(m) -> NonFiniteError:
    return NonFiniteError(f"sphere coefficients at m = {m} overflowed or "
                          "produced NaN; eps or q_R too extreme for double "
                          "precision")


def body_green_center(eps, q_R: float) -> np.ndarray:
    """Scattering Green tensor of the sphere at its center, units of k_A.

        G_B^(1)(0) = i sqrt(eps) C_1^N / (6 pi) * I

    This is the gB1 input that makes :func:`locfield.cavity.gamma_b_corrected`
    reproduce the assembled exact center rate.
    """
    C_N, _ = sphere_coefficients(eps, q_R, 1)
    n = complex(np.sqrt(complex(eps)))  # eps passed the permittivity rule
    return (1j * n * C_N / (6.0 * np.pi)) * np.eye(3, dtype=complex)


def _series(e, n, q_R: float, q_L: float, orient: str) -> float:
    """gamma_b off the centre for the Python scalars eps, n = sqrt(eps),
    q_R, q_L and orient, which passed :func:`gamma_b_exact`'s checks, in
    the ratio form of the module docstring; refused as the centre's rate
    is, by :func:`_center_rounding_bound` of K times the sum."""
    try:
        z0, z1, x = (_check_point(q_R), _check_point(n * q_R),
                     _check_point(n * q_L))
    except DomainError:
        raise _argument_refusal(n, q_R, q_L) from None
    if abs(x) < _X_MIN:
        raise DomainError(f"|n q_L| = {abs(x):.3g} is below {_X_MIN:.2g}, "
                          "where 1/(n q_L) leaves double range; take "
                          "q_L = 0 for the centre")
    radial = orient == "radial"
    # the terms fall as (q_L/q_R)^{2m} m^2 from m ~ |n| q_R on: below
    # 1e-16 = e^-36.8 of the largest after k orders more, and the log term
    # covers the m^2
    fall = max(math.log(q_R / q_L), 1e-300)
    k = 18.4 / fall
    need = 8 + abs(z1) + k + math.log1p(k) / fall
    top = int(min(need, _ORDER_LIMIT))
    jz, r1, jx, rx = _bessel_ratio_tables(z1, x, top)
    sigma = jx / x / jz  # j_m(x)/(x j_m(z1)), carried up
    v0, v1 = 1j * z0, 1j * z1  # z h_{m-1}/h_m at z0 and z1, from h_{-1}/h_0
    zz0, zz1 = z0 * z0, z1 * z1
    total, small_run = 0.0j, 0
    try:
        for m in range(1, top + 1):
            v0 = zz0 / (2 * m - 1 - v0)
            v1 = zz1 / (2 * m - 1 - v1)
            a0, a1, b1 = v0 - m, v1 - m, m + 1 - z1 * r1[m + 1]
            ea0 = e * a0
            if radial:
                term = ((2 * m + 1) * m * (m + 1) * sigma * sigma
                        * (ea0 - a1) / ((a1 - b1) * (ea0 - b1)))
            else:
                rho, sb = sigma * x, sigma * (m + 1 - x * rx[m + 1])
                term = (2 * m + 1) * (rho * rho * (a0 - a1) / (a0 - b1)
                                      + sb * sb * (ea0 - a1) / (ea0 - b1)
                                      ) / (a1 - b1)
            if m == 1:
                first = 1.0, 1.0, 1.0, a0, a1, b1
            total += term
            small = abs(term) < _TERM_TOLERANCE * max(abs(total), 1e-300)
            small_run = small_run + 1 if small else 0
            if small_run == _SMALL_RUN:
                break
            sigma *= rx[m + 1] / r1[m + 1]
        else:
            if not cmath.isfinite(total):
                raise _nonfinite_coefficients(m)
            raise AccuracyError(f"sphere series not converged by m = {top}: "
                                f"about {need:.3g} orders needed, "
                                f"{_ORDER_LIMIT} allowed (q_R = {q_R:g}, "
                                f"q_L = {q_L:g})")
    except ZeroDivisionError:
        raise SingularityError(f"sphere coefficient denominator vanished "
                               f"at m = {m} (resonance pole)") from None
    except OverflowError:  # abs of a complex beyond double range
        raise _nonfinite_coefficients(m) from None
    total *= -1j / z1  # -P_m = -i/(z1 (A1 - B1))
    ks = cavity._prefactor(e, n) * total
    gamma = (1.5 if radial else 0.75) * ks.imag
    if not math.isfinite(gamma):  # K near the pole times a large sum
        raise NonFiniteError(f"sphere series rate leaves double range "
                             f"(q_R = {q_R:g}, q_L = {q_L:g})")
    try:  # in plain Python a zero difference or rate divides by zero
        bound = _center_rounding_bound(e, ks, z0, z1, *first)
    except (ZeroDivisionError, OverflowError):
        bound = math.inf if ks else 0.0
    if bound > _CENTER_REL_MAX:
        raise AccuracyError(f"sphere series rate at q_R = {q_R:g}, q_L = "
                            f"{q_L:g} may be off by a relative {bound:.1e} "
                            f"from rounding, above {_CENTER_REL_MAX:g}")
    return gamma


def _argument_refusal(n, q_R: float, q_L: float) -> DomainError:
    """The refusal, in its own type, of the first of the series' arguments
    q_R, n q_R and n q_L that :func:`locfield.specfun._check_point` takes
    no further, naming the argument and its value."""
    for name, z in (("q_R", q_R), ("n q_R", n * q_R), ("n q_L", n * q_L)):
        try:
            _check_point(z)
        except DomainError as exc:
            return type(exc)(f"sphere series argument {name} = {z:.6g} is "
                             f"refused: {exc} (q_R = {q_R:g}, q_L = {q_L:g})")


def _center_rate(e, n, q_R):
    """The centre rate Im[K C_1^N] of the (N,) arrays eps, n = sqrt(eps)
    (real or complex) and q_R, which passed the rules of
    :func:`gamma_b_exact`, unchecked: the rates, and by index the
    AccuracyError of each rate (NaN) whose rounding bound is above
    _CENTER_REL_MAX."""
    with np.errstate(over="ignore"):  # past double range q_R is refused
        z0, z1 = q_R + 0j, n * q_R
    values = _order_values(1, z0, z1)
    C_N, _ = _finite_coefficients(e, 1, *values)
    with np.errstate(all="ignore"):
        kc = cavity._prefactor(e, n) * C_N
        # a non-finite K C_1^N fails; a zero one (vacuum) has a NaN bound
        bound = np.where(np.isfinite(kc), _center_rounding_bound(
            e, kc, z0, z1, *values), np.inf)
    rate, refused = kc.imag, {}
    for k in np.flatnonzero(bound > _CENTER_REL_MAX).tolist():
        refused[k] = AccuracyError(f"centre rate at q_R = {q_R[k]:g} may be "
                                   f"off by a relative {bound[k]:.1e} from "
                                   f"rounding, above {_CENTER_REL_MAX:g}")
        rate[k] = np.nan
    return rate, refused


def _center_rounding_bound(e, kc, z0, z1, h0, h1, j1, xi0p, xi1p, ps1p):
    """Relative rounding error that Im[K C_1^N] may carry, from
    kc = K C_1^N, z0 = q_R, z1 = n q_R and the values of
    :func:`_order_values` there, or (the series' ratios) those values over
    j_1(z1) h_1(z0): 2^-52 times the sum of the cancellation
    (|a| + |b|)/|a - b| of C_1^N's numerator and of its denominator, of
    2 (|z0| + |z1|) for the phases e^{iz}, and of 2, all times
    |K C|/|Im(K C)|, which is large where Im(K C) is a small part of K C,
    and pessimistic where that part is formed without cancellation.  On
    arrays, under np.errstate, a zero rate (eps = 1) gives NaN, which no
    check refuses."""
    num, den = (e * h1 * xi0p, xi1p * h0), (e * j1 * xi0p, ps1p * h0)
    cancel = sum((abs(a) + abs(b)) / abs(a - b) for a, b in (num, den))
    return (2.0**-52 * (cancel + 2.0 * (abs(z0) + abs(z1)) + 2.0)
            * abs(kc) / abs(kc.imag))


def gamma_b_exact(eps, q_R: float, q_L: float,
                  orient: str = "radial") -> float:
    """Exact local-field corrected body rate gamma_b for the sphere.

    Parameters
    ----------
    eps : complex, the permittivity (int and float are taken as complex)
    q_R, q_L : optical radius and emitter displacement, 0 <= q_L < q_R.
    orient : {"radial", "tangential"}
        Dipole along the displacement axis or perpendicular to it.

    Notes
    -----
    q_L = 0 takes the analytic m = 1 limit Im[K C_1^N], the same for both
    orientations, on a one-element column of :func:`_center_rate` (a
    curve of them is :func:`locfield.rates.compute_batch`); exactly 0 in
    vacuum.  AccuracyError names q_R and the bound where
    :func:`_center_rounding_bound` allows a relative error above
    _CENTER_REL_MAX: in a transparent host the rate is Re C_1^N, which
    at a small sphere sits under Im C_1^N ~ 1/q_R^3.  Off the centre the
    series is refused alike, with the sum in place of C_1^N.
    """
    e = check_eps(eps)
    q_R, q_L = number("q_R", q_R, float), number("q_L", q_L, float)
    raise_first((*inside_sphere(q_R, q_L), *orientation_faults(orient),
                 *method_faults("exact", e)))
    if q_L == 0.0:
        return _center(e, q_R)
    return _series(e, complex(np.sqrt(e)), q_R, q_L, orient)


def _center(e: complex, q_R: float) -> float:
    """The centre rate of a checked sphere, or its AccuracyError."""
    rate, refused = _center_rate(*_column(e, q_R))
    for exc in refused.values():
        raise exc
    return rate.item()


def _gamma_b_rows(eps, n, q_R, q_L, orient):
    """Exact body terms of the rows (eps, n = sqrt(eps), q_R, q_L and
    orient, "radial" or "tangential"), five (N,) arrays, as
    :func:`locfield.born._gamma_b_rows` returns them: the (N,)
    values, and a dict from the index of each row that failed to its
    LocfieldError (its value is NaN).  The rows passed the rules of a
    RateRequest and of compute in :mod:`locfield.rates`, so none is
    checked again: the centred rows are one :func:`_center_rate` call,
    each row alone if it raises (not for a refused rounding bound);
    every other row is one :func:`_series` call."""
    values, errors = np.empty(eps.size), {}
    values.fill(np.nan)  # a third of np.full's cost
    rows, q_Ls = range(eps.size), q_L.tolist()
    if 0.0 in q_Ls:
        center = np.flatnonzero(q_L == 0.0)
        try:
            values[center], refused = _center_rate(eps[center], n[center],
                                                   q_R[center])
            errors.update((int(center[k]), exc) for k, exc in refused.items())
            rows = np.flatnonzero(q_L != 0.0).tolist()
            if not rows:
                return values, errors
        except LocfieldError:
            pass
    point = list(zip(eps.tolist(), n.tolist(), q_R.tolist(), q_Ls,
                     orient.tolist()))
    for k in rows:
        try:
            if q_Ls[k]:
                values[k] = _series(*point[k])
            else:
                (values[k],), refused = _center_rate(
                    *(a[k:k + 1] for a in (eps, n, q_R)))
                errors.update((k, exc) for exc in refused.values())
        except LocfieldError as exc:
            errors[k] = exc
    return values, errors


def gamma_center_exact(eps, q_R: float, q_C: float) -> float:
    """Fully assembled exact rate Gamma/Gamma_0 at the sphere center,

        1 + cavity.gamma_c_exact(eps, q_C) + gamma_b_exact(eps, q_R, 0),

    Tomas's formula for a small cavity at the center of a sphere, checked
    as ``compute`` checks the exact request, each rule once: the sphere
    rule at q_L = 0 (q_C at most 0.2, a warning above 0.1, q_C <= q_R),
    the exact method's (eps = -1/2 raises SingularityError) and the
    cavity terms'.
    """
    e = check_eps(eps)
    q_R, q_C = number("q_R", q_R, float), number("q_C", q_C, float)
    gamma_c = cavity._exact_cavity_term(e, q_C, sphere_faults(q_R, 0.0, q_C),
                                        q_R, 0.0)
    return 1.0 + gamma_c + _center(e, q_R)
