"""Green-tensor building blocks for an emitter inside a dielectric body.

Everything is expressed in the dimensionless optical distance q = k_A * r,
where k_A is the (vacuum) transition wavenumber, and all tensors are
reported in units of k_A, i.e. ``G_here = G_SI / k_A``.  With that
normalization a decay-rate contribution is simply

    Gamma/Gamma_0 = 6*pi * Im[ d . G . d ]

for a unit dipole direction d.

The linear (first Born) scattering tensor of a piece of dielectric with
susceptibility chi = eps - 1 occupying a volume V around the emitter is a
radially integrable volume integral,

    G^(1) = chi/(16 pi^2) * Int_V dq dOmega q^2 e^{2iq}
            [ a(q)^2 I + (b(q)^2 - 2 a(q) b(q)) ss ],

with a, b the transverse/longitudinal spherical-wave coefficients and
s the unit vector from the emitter to the integration point.  The radial
integral has the closed antiderivative implemented in :func:`f_integrand`
(an exponential-integral term appears because of the 1/q tails), which
reduces body and cavity tensors to single angular integrals over the
star-shaped boundary seen from the emitter.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np

from .errors import (ABSORPTION_TOL, AccuracyError, DomainError,
                     InvariantError, SingularityError, inside_sphere,
                     permittivity_faults, positive, raise_first)
from .specfun import exponential_integral_ei

__all__ = [
    "Permittivity",
    "as_permittivity",
    "unit_vector",
    "StarBoundary",
    "ab_coefficients",
    "vacuum_green",
    "f_integrand",
    "f_constant_q",
    "cavity_green_linear",
    "body_green_linear",
]

_EYE = np.eye(3)

# unit-vector norm tolerance
_UNIT_TOL = 1.0e-12


@dataclasses.dataclass(frozen=True)
class Permittivity:
    """Relative permittivity of the host medium at the transition frequency.

    Only passive media are admitted (Im eps >= 0).  ``n`` is the principal
    square root, which then satisfies Im n >= 0 as well.
    """

    epsilon: complex

    def __post_init__(self):
        eps = complex(self.epsilon)
        raise_first(permittivity_faults(eps))
        object.__setattr__(self, "epsilon", eps)

    @property
    def chi(self) -> complex:
        """Susceptibility chi = eps - 1."""
        return self.epsilon - 1.0

    @functools.cached_property
    def n(self) -> complex:
        """Principal refractive index sqrt(eps), computed once."""
        return complex(np.sqrt(complex(self.epsilon)))

    def is_absorbing(self) -> bool:
        return self.epsilon.imag > ABSORPTION_TOL


def as_permittivity(value) -> Permittivity:
    """Coerce a complex number (or Permittivity) to a Permittivity."""
    if isinstance(value, Permittivity):
        return value
    return Permittivity(complex(value))


def unit_vector(v) -> np.ndarray:
    """Validate a real 3-vector of unit length and return it as ndarray.

    The norm must equal 1 within 1e-12; vectors are not silently
    renormalized, since a wrong length usually signals a caller bug.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("unit vector must be finite")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise InvariantError(f"vector norm {norm!r} differs from 1 by more "
                             f"than {_UNIT_TOL:g}")
    return arr


@dataclasses.dataclass(frozen=True)
class StarBoundary:
    """Boundary of a body that is star-shaped as seen from the emitter.

    ``q_outer(theta, phi)`` returns the optical distance from the emitter
    to the boundary in the direction with polar angle theta (measured from
    the +z axis) and azimuth phi; it must be positive and accept ndarray
    input.  ``q_max`` bounds the boundary distance (used for validity
    estimates); ``is_bulk`` marks the infinite homogeneous medium, whose
    outer-boundary tensor vanishes identically.
    """

    q_outer: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    q_max: float
    is_bulk: bool = False

    def __post_init__(self):
        if self.is_bulk:
            return
        if self.q_outer is None:
            raise DomainError("finite boundary requires a q_outer callable")
        raise_first(positive("q_max", self.q_max))

    @classmethod
    def bulk(cls) -> "StarBoundary":
        return cls(q_outer=None, q_max=math.inf, is_bulk=True)

    @classmethod
    def sphere(cls, q_R: float, q_L: float = 0.0) -> "StarBoundary":
        """Sphere of optical radius q_R with the emitter displaced q_L
        from the center along +z (q_L < q_R)."""
        raise_first(inside_sphere(q_R, q_L))

        def q_outer(theta, phi):
            return _sphere_distance(q_R, q_L, np.cos(theta))

        return cls(q_outer=q_outer, q_max=q_R + q_L)


def _sphere_distance(q_R, q_L, x):
    """Distance from the emitter to the surface of the sphere q_R along
    the direction x = cos(theta), theta measured from the displacement
    q_L of the emitter from the center:

        q_o(x) = sqrt(q_R^2 - q_L^2 (1 - x^2)) - q_L x.

    At q_L = 0 this is exactly q_R at every x, not merely close: in
    binary floating point the correctly rounded square root of the
    rounded square of a positive number is that number (barring overflow
    and underflow), and q_R - 0 x = q_R.  A centered sphere can
    therefore stand for all of its nodes with q_R.
    """
    return np.sqrt(q_R**2 - q_L**2 * (1.0 - x * x)) - q_L * x


def ab_coefficients(q):
    """Spherical-wave coefficients a(q), b(q) of the vacuum Green tensor.

        a = 1/q + i/q^2 - 1/q^3,   b = 1/q + 3i/q^2 - 3/q^3

    Parameters
    ----------
    q : positive float or ndarray

    Returns
    -------
    (a, b) : complex, matching the input shape
    """
    q = np.asarray(q, dtype=float)
    raise_first(positive("q", q))
    a = 1.0 / q + 1j / q**2 - 1.0 / q**3
    b = 1.0 / q + 3j / q**2 - 3.0 / q**3
    if a.ndim == 0:
        return complex(a), complex(b)
    return a, b


def vacuum_green(q, u_hat) -> np.ndarray:
    """Translationally invariant part of the Green tensor, in units of k_A.

        G^(0)(q, u) = (1/4pi) [ a(q) I - b(q) uu ] e^{iq}

    where u is the unit separation vector and q > 0 the optical distance.
    The delta-function contact term is omitted (never needed off
    coincidence).  As q -> 0 the imaginary part tends to I/(6 pi), the
    free-space local density of states.
    """
    u = unit_vector(u_hat)
    if np.isscalar(q) or np.asarray(q).ndim == 0:
        if q <= 0:
            raise SingularityError("vacuum Green tensor diverges at q = 0")
    a, b = ab_coefficients(q)
    phase = np.exp(1j * float(q))
    return (phase / (4.0 * np.pi)) * (a * _EYE - b * np.outer(u, u))


def _brace_coeffs(q):
    """Coefficients (P, Q) of I and ss in the radial antiderivative

        F(q, ss) = e^{2iq} (cI I + cS ss) + 4i Ei(2iq) (I/3 - ss) = P I + Q ss,

    P = cI e^{2iq} + (4i/3) Ei(2iq) and Q = cS e^{2iq} - 4i Ei(2iq), with
    dF/dq = -q^2 e^{2iq} [a^2 I + (b^2 - 2ab) ss].
    """
    q = np.asarray(q, dtype=float)
    cI = 1.0 / (3.0 * q**3) - 2j / (3.0 * q**2) - 5.0 / (3.0 * q) + 0.5j
    cS = 1.0 / q**3 - 2j / q**2 + 3.0 / q - 0.5j
    phase = np.exp(2j * q)
    ei4 = 4j * exponential_integral_ei(2j * q)
    return phase * cI + ei4 / 3.0, phase * cS - ei4


def f_integrand(q, s_hat) -> np.ndarray:
    """Radial antiderivative of the first-Born volume integrand.

    For the direction s (unit vector) and lower limit q, this is the
    tensor F with

        Int_q^Q dq' q'^2 e^{2iq'} [a^2 I + (b^2 - 2ab) ss] = F(q) - F(Q),

    i.e. dF/dq = -q^2 e^{2iq} [a^2 I + (b^2 - 2ab) ss].  On the ray to
    infinity the Ei term contributes the constant 4*pi*(I/3 - ss)
    (Ei(2iq) -> i pi), which integrates to zero over any closed angular
    set, so boundary tensors depend only on F at the boundary.

    Parameters
    ----------
    q : float or (N,) ndarray of positive reals
    s_hat : (3,) or (N, 3) ndarray of unit direction vectors

    Returns
    -------
    (3, 3) or (N, 3, 3) complex ndarray
    """
    q_arr = np.atleast_1d(np.asarray(q, dtype=float))
    raise_first(positive("q", q_arr))
    s = np.asarray(s_hat, dtype=float)
    scalar = (s.ndim == 1)
    s2 = np.atleast_2d(s)
    norms = np.linalg.norm(s2, axis=1)
    if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
        raise InvariantError("s_hat rows must be unit vectors")
    if s2.shape[0] != q_arr.shape[0]:
        if s2.shape[0] == 1:
            s2 = np.broadcast_to(s2, (q_arr.shape[0], 3))
        elif q_arr.shape[0] == 1:
            q_arr = np.broadcast_to(q_arr, (s2.shape[0],))
        else:
            raise DomainError("q and s_hat lengths do not broadcast")

    P, Q = _brace_coeffs(q_arr)
    ss = s2[:, :, None] * s2[:, None, :]
    out = P[:, None, None] * _EYE + Q[:, None, None] * ss
    if scalar and np.asarray(q, dtype=float).ndim == 0:
        return out[0]
    return out


def f_constant_q(q, chi) -> np.ndarray:
    """Closed-form angular average of :func:`f_integrand` times -chi/(16 pi^2).

        f_constant_q(q, chi)
            = -chi/(16 pi^2) * Int dOmega F(q, ss)
            = -chi/(12 pi) (2/q^3 - 4i/q^2 - 2/q + i) e^{2iq} I

    Small q:  -chi/(6 pi) (1/q^3 + 1/q + 7i/6) I + O(q).
    This is (minus) the linear scattering tensor of a spherical shell
    boundary at constant optical distance q from the emitter.
    """
    q = float(q)
    raise_first(positive("q", q))
    chi = complex(chi)
    coeff = (-chi / (12.0 * np.pi)
             * (2.0 / q**3 - 4j / q**2 - 2.0 / q + 1j) * np.exp(2j * q))
    return coeff * _EYE.astype(complex)


def cavity_green_linear(q_C, chi) -> np.ndarray:
    """Linear scattering tensor of the empty cavity, G_C^(1), units of k_A.

    Equal to -f_constant_q(q_C, chi); its small-q_C expansion

        chi/(6 pi) (1/q_C^3 + 1/q_C + 7i/6) I

    carries the divergent local-field terms and the 7/6 constant that
    survives in the linear bulk rate 1 + 7 chi/6.
    """
    return -f_constant_q(q_C, chi)


# node counts of the Gauss-Legendre refinement loops: 64, 128, ..., 2048
_GL_N_MIN = 64
_GL_N_MAX = 2048


@functools.cache
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    Cached per n: the refinement loops only ask for the six node counts
    _GL_N_MIN * 2**k <= _GL_N_MAX, and computing a rule costs more than
    using it (about 0.8 s at n = 2048).
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _angular_nodes(n_theta: int, n_phi: int):
    """Product rule nodes/weights on the unit sphere.

    Gauss-Legendre in cos(theta) and a uniform (trapezoidal) grid in phi;
    the phi rule is exactly convergent for the low azimuthal orders that
    appear here, and the product preserves tensor symmetry exactly
    because each node contributes a symmetric ss block.
    """
    x, w = _gauss_legendre(n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    wphi = 2.0 * np.pi / n_phi
    X, PHI = np.meshgrid(x, phi, indexing="ij")
    W = np.broadcast_to(w[:, None] * wphi, X.shape)
    sin_t = np.sqrt(np.maximum(1.0 - X * X, 0.0))
    s = np.stack([sin_t * np.cos(PHI), sin_t * np.sin(PHI), X], axis=-1)
    theta = np.arccos(X)
    return theta.ravel(), PHI.ravel(), s.reshape(-1, 3), W.ravel()


def body_green_linear(boundary: StarBoundary, chi,
                      angular_tolerance: float = 1.0e-10) -> np.ndarray:
    """Linear scattering tensor G_B^(1) of the body outside the cavity.

    For a star-shaped boundary at optical distance q_o(theta, phi) from
    the emitter,

        G_B^(1) = -chi/(16 pi^2) * Int dOmega F(q_o(theta, phi), ss),

    with F from :func:`f_integrand`.  The full linear tensor then
    decomposes as G^(1) = cavity_green_linear + body_green_linear.  For
    the bulk medium the boundary recedes to infinity and the tensor is
    identically zero (outgoing waves, infinitesimal absorption), which is
    returned without quadrature.

    The angular integral uses a Gauss-Legendre x uniform product rule,
    doubled until two successive refinements agree to angular_tolerance
    (mixed absolute/relative).
    """
    chi = complex(chi)
    if boundary.is_bulk or chi == 0:
        return np.zeros((3, 3), dtype=complex)
    if not (angular_tolerance > 0):
        raise DomainError("angular_tolerance must be positive")

    pref = -chi / (16.0 * np.pi**2)

    def evaluate(n: int) -> np.ndarray:
        theta, phi, s, w = _angular_nodes(n, n)
        q_o = np.asarray(boundary.q_outer(theta, phi), dtype=float)
        if not np.all(np.isfinite(q_o)) or np.any(q_o <= 0):
            raise DomainError("q_outer must be positive and finite on the "
                              "whole sphere")
        tensors = f_integrand(q_o, s)
        return pref * np.einsum("n,nij->ij", w, tensors)

    n = _GL_N_MIN
    prev = evaluate(n)
    while n < _GL_N_MAX:
        n *= 2
        cur = evaluate(n)
        err = float(np.max(np.abs(cur - prev)))
        if err <= angular_tolerance * (1.0 + float(np.max(np.abs(cur)))):
            return cur
        prev = cur
    raise AccuracyError(f"angular quadrature did not reach tolerance "
                        f"{angular_tolerance:g} by n = {n}; last "
                        f"refinement change {err:.3e}")
