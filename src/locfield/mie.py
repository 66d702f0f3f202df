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

(C_m^M without the eps factors), z0 = q_R, z1 = n q_R.  At the center
only m = 1 survives and both orientations give Im[K C_1^N]; this limit is
implemented analytically rather than by small-q_L evaluation, so there is
no 0/0, and from the closed-form dipole functions of
:mod:`locfield.specfun`, so it needs no :mod:`scipy.special`.

The series walks the orders upward.  Each order evaluates h_m(z0),
h_m(z1), j_m(z1) and j_m(x) once, and forms xi_m', psi_m' from them and
the values of order m-1 by [z f_m]' = z f_{m-1} - m f_m
(:func:`locfield.specfun.riccati_upward`).  Its terms decay
super-exponentially once m exceeds ~ q_R |n| (see MieSeriesSettings).
eps = -1/2, the pole of L, raises SingularityError on every route.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import numbers

import numpy as np

from . import cavity
from .errors import (AccuracyError, DomainError, NonFiniteError,
                     SingularityError, inside_sphere, method_faults,
                     orientation_faults, permittivity_faults, positive,
                     raise_first, whole_number)
from .greens import Permittivity, as_permittivity
from .specfun import (ORDER_MAX, dipole_bessel_j, dipole_hankel_h1,
                      riccati_derivative, riccati_upward, spherical_bessel_j,
                      spherical_hankel_h1)

__all__ = [
    "MieSeriesSettings",
    "sphere_coefficients",
    "body_green_center",
    "gamma_b_center",
    "gamma_b_exact",
    "gamma_center_exact",
]


@dataclasses.dataclass(frozen=True)
class MieSeriesSettings:
    """Truncation policy for the sphere series.

    m_max = None uses ceil(q_R |n|) + 30.  The series stops only after
    `consecutive_small` successive terms fall below term_tolerance times
    the running sum magnitude; hitting m_max first, or the largest order
    the Bessel functions admit (specfun.ORDER_MAX = 200) when m_max is
    larger, raises AccuracyError.
    """

    m_max: int | None = None
    term_tolerance: float = 1.0e-14
    consecutive_small: int = 3

    def __post_init__(self):
        if self.m_max is not None:
            raise_first(whole_number("m_max", self.m_max))
        raise_first(positive("term_tolerance", self.term_tolerance))
        raise_first(whole_number("consecutive_small",
                                 self.consecutive_small))

    def resolve_m_max(self, q_R: float, n_abs: float) -> int:
        if self.m_max is not None:
            return int(self.m_max)
        return int(math.ceil(q_R * n_abs)) + 30


_DEFAULT_SETTINGS = MieSeriesSettings()


def _epsilon(eps):
    """(eps, n): the relative permittivity and its principal root, as
    complex scalars, or as complex arrays for a sequence of permittivities
    (checked as one array, by Permittivity's checks in their order)."""
    if isinstance(eps, (Permittivity, numbers.Number)) or np.ndim(eps) == 0:
        eps = as_permittivity(eps)
        return eps.epsilon, eps.n
    e = np.asarray(eps)
    if e.dtype == object:
        e = np.array([as_permittivity(v).epsilon for v in eps])
    e = e.astype(complex)
    raise_first(permittivity_faults(e))
    return e, np.sqrt(e)


def _coefficients(e, m, h0, h1, j1, xi0p, xi1p, ps1p):
    """(C_m^N, C_m^M) from h_m(z0), h_m(z1), j_m(z1), xi_m'(z0), xi_m'(z1)
    and psi_m'(z1), scalars or arrays, or the resonance pole's error."""
    den_N = e * j1 * xi0p - ps1p * h0
    den_M = j1 * xi0p - ps1p * h0
    if (min(abs(den_N), abs(den_M)) < 1.0e-300 if isinstance(den_N, complex)
            else (np.minimum(abs(den_N), abs(den_M)) < 1.0e-300).any()):
        raise SingularityError(f"sphere coefficient denominator vanished "
                               f"at m = {m} (resonance pole)")
    return (-(e * h1 * xi0p - xi1p * h0) / den_N,
            -(h1 * xi0p - xi1p * h0) / den_M)


def sphere_coefficients(eps, q_R, m: int):
    """Interior scattering coefficients (C_m^N, C_m^M) of the sphere.

    eps is one permittivity or a sequence of them, and q_R a float or an
    array broadcasting with it; the coefficients take their shape.  m is
    a single order.  The dipole order m = 1, all that the centre rate
    needs, takes the closed forms of :func:`locfield.specfun.dipole_hankel_h1`
    and :func:`locfield.specfun.dipole_bessel_j`, which need no
    :mod:`scipy.special`; higher orders call the scipy-backed functions.
    A coefficient that leaves double range raises NonFiniteError, as at
    eps = 1e-300, q_R = 1, where C_1^N and C_1^M are about 1e450.
    """
    e, n = _epsilon(eps)
    q_R = (float(q_R) if isinstance(q_R, numbers.Real)
           else np.asarray(q_R, dtype=float))
    raise_first(positive("q_R", q_R))
    m = int(m)
    if m < 1:
        raise DomainError("m must be >= 1")
    z0, z1 = q_R + 0j, n * q_R
    if m == 1:
        h0, xi0p = dipole_hankel_h1(z0)
        h1, xi1p = dipole_hankel_h1(z1)
        j1, ps1p = dipole_bessel_j(z1)
    else:
        h0, h1 = spherical_hankel_h1(m, z0), spherical_hankel_h1(m, z1)
        j1 = spherical_bessel_j(m, z1)
        xi0p = riccati_derivative("hankel_h1", m, z0)
        xi1p = riccati_derivative("hankel_h1", m, z1)
        ps1p = riccati_derivative("bessel_j", m, z1)
    with np.errstate(all="ignore"):
        C_N, C_M = _coefficients(e, m, h0, h1, j1, xi0p, xi1p, ps1p)
    if not (cmath.isfinite(C_N) and cmath.isfinite(C_M)
            if isinstance(C_N, complex)
            else np.isfinite(C_N).all() and np.isfinite(C_M).all()):
        raise NonFiniteError(f"sphere coefficients at m = {m} overflowed "
                             "or produced NaN; eps or q_R too extreme for "
                             "double precision")
    return C_N, C_M


def body_green_center(eps, q_R: float) -> np.ndarray:
    """Scattering Green tensor of the sphere at its center, units of k_A.

        G_B^(1)(0) = i sqrt(eps) C_1^N / (6 pi) * I

    This is the gB1 input that makes :func:`locfield.cavity.gamma_b_corrected`
    reproduce the assembled exact center rate.
    """
    eps = as_permittivity(eps)
    C_N, _ = sphere_coefficients(eps, q_R, 1)
    return (1j * eps.n * C_N / (6.0 * np.pi)) * np.eye(3, dtype=complex)


def _series(eps, q_R: float, q_L: float, orient: str,
            settings: MieSeriesSettings) -> complex:
    """Orientation-resolved series sum (without the K prefactor and the
    outer 3/2 or 3/4 normalization), carrying each order's values to the
    next for its Riccati derivatives."""
    e, n = eps.epsilon, eps.n
    z0, z1, x = q_R + 0j, n * q_R, n * q_L
    h0, h1 = spherical_hankel_h1(0, z0), spherical_hankel_h1(0, z1)
    j1, jx = spherical_bessel_j(0, z1), spherical_bessel_j(0, x)
    m_cap = settings.resolve_m_max(q_R, abs(n))
    total, small_run = 0.0j, 0
    for m in range(1, min(m_cap, ORDER_MAX) + 1):
        h0_, h0 = h0, spherical_hankel_h1(m, z0)
        h1_, h1 = h1, spherical_hankel_h1(m, z1)
        j1_, j1 = j1, spherical_bessel_j(m, z1)
        C_N, C_M = _coefficients(e, m, h0, h1, j1,
                                 riccati_upward("hankel_h1", m, z0, h0_, h0),
                                 riccati_upward("hankel_h1", m, z1, h1_, h1),
                                 riccati_upward("bessel_j", m, z1, j1_, j1))
        jx_, jx = jx, spherical_bessel_j(m, x)
        radial = orient == "radial"
        r = (jx if radial else riccati_upward("bessel_j", m, x, jx_, jx)) / x
        r2 = r * r
        if not cmath.isfinite(r2):
            # deep in an absorbing sphere j_m(x) grows as C_m decays;
            # squared apart from C_m, it leaves double range
            raise NonFiniteError(f"sphere series overflowed at m = {m}: "
                                 "the emitter's Bessel factor squared "
                                 "leaves double range (q_R = "
                                 f"{q_R:g}, q_L = {q_L:g})")
        term = ((2 * m + 1) * m * (m + 1) * C_N * r2 if radial
                else (2 * m + 1) * (C_M * jx * jx + C_N * r2))
        total += term
        small = abs(term) < settings.term_tolerance * max(abs(total), 1e-300)
        small_run = small_run + 1 if small else 0
        if small_run >= settings.consecutive_small:
            return total
    cap = (f"m_max = {m_cap}" if m_cap <= ORDER_MAX else
           f"specfun.ORDER_MAX = {ORDER_MAX}, below m_max = {m_cap}")
    raise AccuracyError(f"sphere series not converged within {cap} "
                        f"(q_R = {q_R:g}, q_L = {q_L:g})")


def gamma_b_center(eps, q_R):
    """Exact local-field corrected body rate at the sphere center.

        gamma_b = Im[K C_1^N],

    the analytic m = 1 limit of the series, identical for both
    orientations.  eps and q_R are as for :func:`sphere_coefficients`, so
    a whole curve of centered spheres is one call; a float comes back
    for scalar input, an array otherwise.
    """
    C_N, _ = sphere_coefficients(eps, q_R, 1)
    e, n = _epsilon(eps)
    raise_first(method_faults("exact", e))
    gamma = np.imag(cavity._prefactor(e, n) * C_N)
    return float(gamma) if np.ndim(gamma) == 0 else gamma


def gamma_b_exact(eps, q_R: float, q_L: float, orient: str = "radial",
                  settings: MieSeriesSettings | None = None) -> float:
    """Exact local-field corrected body rate gamma_b for the sphere.

    Parameters
    ----------
    eps : Permittivity or complex
    q_R, q_L : optical radius and emitter displacement, 0 <= q_L < q_R.
    orient : {"radial", "tangential"}
        Dipole along the displacement axis or perpendicular to it.
    settings : MieSeriesSettings, optional

    Notes
    -----
    q_L = 0 takes the analytic m = 1 limit of :func:`gamma_b_center`,
    identical for both orientations.
    """
    eps = as_permittivity(eps)
    q_R, q_L = float(q_R), float(q_L)
    raise_first(inside_sphere(q_R, q_L))
    raise_first(orientation_faults(orient))
    if q_L == 0.0:
        return gamma_b_center(eps, q_R)
    raise_first(method_faults("exact", eps.epsilon))
    series = _series(eps, q_R, q_L, orient, settings or _DEFAULT_SETTINGS)
    return ((1.5 if orient == "radial" else 0.75)
            * float(np.imag(cavity._prefactor(eps.epsilon, eps.n) * series)))


def gamma_center_exact(eps, q_R: float, q_C: float) -> float:
    """Fully assembled exact rate Gamma/Gamma_0 at the sphere center,

        1 + cavity.gamma_c_exact(eps, q_C) + gamma_b_center(eps, q_R),

    Tomas's formula for a small cavity at the center of a sphere.  q_C
    follows the rules of :func:`locfield.cavity.gamma_c_exact` (at most
    0.2, a warning above 0.1) and must be smaller than q_R; eps = -1/2
    raises SingularityError.
    """
    gamma_c = cavity.gamma_c_exact(eps, q_C)
    q_R = float(q_R)
    if not (math.isfinite(q_R) and q_R > float(q_C)):
        raise DomainError("need q_R > q_C (cavity inside the sphere)")
    return 1.0 + gamma_c + gamma_b_center(eps, q_R)
