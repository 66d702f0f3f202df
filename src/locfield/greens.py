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
                     InvariantError, SingularityError, cavity_scale_faults,
                     inside_sphere, permittivity_faults, positive,
                     raise_first)
# _brace_coeffs takes Ei's parts from _ei_imaginary_axis; the benchmark's
# tracer wraps exponential_integral_ei in this namespace
# (tests/test_trace_sites.py)
from .specfun import (_ei_imaginary_axis, _horner_table,
                      exponential_integral_ei)

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
    """Validate a unit 3-vector, or (N, 3) rows of them, as an ndarray.

    Each norm must equal 1 within 1e-12; vectors are not silently
    renormalized, since a wrong length usually signals a caller bug.
    """
    arr = np.asarray(v, dtype=float)
    if arr.shape[-1:] != (3,) or arr.ndim > 2:
        raise DomainError(f"expected a 3-vector or an (N, 3) array of "
                          f"them, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("unit vector must be finite")
    norm = np.linalg.norm(arr, axis=-1)
    off = np.abs(norm - 1.0) > _UNIT_TOL
    if off.any():
        raise InvariantError(f"vector norm {float(norm[off][0])!r} differs "
                             f"from 1 by more than {_UNIT_TOL:g}")
    return arr


def _unit_3vector(v) -> np.ndarray:
    """One unit 3-vector (a dipole or a direction) by :func:`unit_vector`;
    any other shape, rows included, is a DomainError."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise DomainError(f"expected a 3-vector, got shape {arr.shape}")
    return unit_vector(arr)


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

    where u is the unit separation vector and q > 0 the optical distance,
    a scalar: q = 0 raises SingularityError, any other q that is not a
    positive finite number DomainError, and a q so small that 1/q^3
    leaves double range NonFiniteError
    (:func:`locfield.errors.cavity_scale_faults`).  The delta-function
    contact term is omitted (never needed off coincidence).  As q -> 0 the
    imaginary part tends to I/(6 pi), the free-space local density of
    states.
    """
    u = _unit_3vector(u_hat)
    q = float(q) if np.ndim(q) == 0 else math.nan
    if q == 0:
        raise SingularityError("vacuum Green tensor diverges at q = 0")
    raise_first(cavity_scale_faults("q", q))
    a, b = ab_coefficients(q)
    phase = np.exp(1j * q)
    return (phase / (4.0 * np.pi)) * (a * _EYE - b * np.outer(u, u))


# (P, Q) rows of _brace_coeffs in t = 1/q: Re cI = t^3/3 - 5t/3 and
# Re cS = t^3 + 3t, Im cI = 1/2 - 2t^2/3 and Im cS = -1/2 - 2t^2, and the
# factors 4/3 and -4 of i Ei(2iq)
_BRACE_T3 = np.array([[1.0 / 3.0], [1.0]])
_BRACE_T1 = np.array([[-5.0 / 3.0], [3.0]])
_BRACE_T2 = np.array([[-2.0 / 3.0], [-2.0]])
_BRACE_T0 = np.array([[0.5], [-0.5]])
_BRACE_EI = np.array([[4.0 / 3.0], [-4.0]])
# distances per block of _brace_coeffs, whose temporaries (about 1 MB)
# stay in cache; body_green_linear's rules from 128^2 nodes span blocks:
# 65,536 distances took 8.1 ms blocked, 12.6 ms not (2-core x86-64)
_BRACE_BLOCK = 8192


def _brace_parts(q):
    """For a 1-D float array q > 0: y = 2q, the parts u + i v of Ei(iy)
    that do not oscillate, from :func:`locfield.specfun._ei_imaginary_axis`,
    and the (2, q.size) complex amplitudes of the phase factor in
    :func:`_brace_coeffs`, cI + k (f - i g) and cS + k (f - i g), k = 4/3
    and -4, so that P = e^{iy} A_P + i k (u + i v) and Q alike."""
    y = 2.0 * q
    u, v, f, g = _ei_imaginary_axis(y)
    t = 1.0 / q
    t2 = t * t
    amp = np.empty((2, q.size), dtype=complex)
    amp.real = t * (t2 * _BRACE_T3 + _BRACE_T1) + _BRACE_EI * f
    amp.imag = t2 * _BRACE_T2 + _BRACE_T0 - _BRACE_EI * g
    return y, u, v, amp


def _brace_coeffs(q):
    """Coefficients (P, Q) of I and ss in the radial antiderivative

        F(q, ss) = e^{2iq} (cI I + cS ss) + 4i Ei(2iq) (I/3 - ss) = P I + Q ss,

    P = cI e^{2iq} + (4i/3) Ei(2iq) and Q = cS e^{2iq} - 4i Ei(2iq), with
    dF/dq = -q^2 e^{2iq} [a^2 I + (b^2 - 2ab) ss].

    With y = 2q and Ei(iy) = (u + i v) - (g + i f) e^{iy} from
    :func:`locfield.specfun._ei_imaginary_axis`, the oscillating part of
    Ei joins the amplitudes of the one phase factor,

        P = e^{iy} (cI + 4f/3 - 4ig/3) + (4i/3) (u + i v),
        Q = e^{iy} (cS - 4f + 4ig) - 4i (u + i v),

    where u + i v = i pi from y = 4 on, so that P and Q take the constants
    -4 pi/3 and 4 pi there.  Both rows are worked out at once, in real
    arithmetic on one cos/sin pair, from :func:`_brace_parts`.
    """
    q = np.asarray(q, dtype=float)
    flat = q.ravel()
    rows = np.empty((2, flat.size), dtype=complex)
    for start in range(0, flat.size, _BRACE_BLOCK):
        q_b = flat[start:start + _BRACE_BLOCK]
        out = rows[:, start:start + _BRACE_BLOCK]
        y, u, v, amp = _brace_parts(q_b)
        cos, sin = np.cos(y), np.sin(y)
        k = _BRACE_EI
        out.real = cos * amp.real - sin * amp.imag - k * v
        out.imag = sin * amp.real + cos * amp.imag + k * u
    return rows[0].reshape(q.shape), rows[1].reshape(q.shape)


def _moment_table(*rows):
    """_horner_table of the rows Re R, Im R, Re S and Im S of six bases,
    and of the moduli |R| and |S| (no coefficient has two nonzero parts)."""
    re_r, im_r, re_s, im_s = np.array(rows).reshape(4, 6, -1)
    return _horner_table(*rows, *np.hypot(re_r, im_r),
                         *np.hypot(re_s, im_s))


# Antiderivatives e^{2iq} R(q) + Ei(2iq) S(q) of the six bases of
# _sphere_moments, Int q^k P dq (k = 0, -2) and Int q^k Q dq (k = 2, 0,
# -2, -4), as printed by tools/derive_sphere_moments.py: the rows Re R of
# the six in turn, then Im R, Re S and Im S, which _moment_table follows
# with the moduli |R| and |S|; powers q^3 .. q^0 (_MOMENT_Q) and
# t^6 .. t^1 in t = 1/q (_MOMENT_T)
_MOMENT_Q = _moment_table(
    (0.0, 0.0, 0.0, -0.4166666666666667),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.4166666666666667, 0.0, -0.4583333333333333),
    (0.0, 0.0, 0.0, 1.75),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, -1.0833333333333333, 0.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, -1.0),
    (0.0, 0.0, 0.0, -1.0),
    (0.0, 0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0, 5.0),
    (0.0, 0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 1.3333333333333333, 0.0),
    (0.0, 0.0, 0.0, 0.0),
    (-1.3333333333333333, 0.0, 0.0, 0.0),
    (0.0, 0.0, -4.0, 0.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0))
_MOMENT_T = _moment_table(
    (0.0, 0.0, 0.0, 0.0, -0.16666666666666666, 0.0),
    (0.0, 0.0, -0.08333333333333333, 0.0, 0.6666666666666666, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, -0.5, 0.0),
    (0.0, 0.0, -0.25, 0.0, -2.0, 0.0),
    (-0.16666666666666666, 0.0, -0.9166666666666666, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.3333333333333333),
    (0.0, 0.0, 0.0, 0.16666666666666666, 0.0, -0.5),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    (0.0, 0.0, 0.0, 0.5, 0.0, 0.5),
    (0.0, 0.3333333333333333, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, -1.3333333333333333),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.0, 0.0, 4.0),
    (0.0, 0.0, 0.0, 1.3333333333333333, 0.0, 0.0))


def _sphere_moments(q_R, q_L):
    """The chi-free moments M0 = Int P dx, M1 = Int Q dx and
    M2 = Int x^2 Q dx over x in [-1, 1] of off-centre sphere geometries
    (q_L > 0), in closed form, and a bound on their rounding errors.

    P and Q are those of :func:`_brace_coeffs` at the distance q = q_o(x)
    of :func:`_sphere_distance`.  With q as the variable, A = q_- q_+,
    q_- = q_R - q_L, q_+ = q_R + q_L (A is never formed as q_R^2 - q_L^2,
    which cancels near the surface),

        x = (A - q^2)/(2 q_L q),   dx = -(A + q^2)/(2 q_L q^2) dq,

    and each moment is a sum of the six antiderivatives of the tables,
    times powers of A, taken between q_- and q_+:

        2 q_L M0 = [Int P + A Int q^-2 P],  2 q_L M1 = [Int Q + A Int q^-2 Q],
        8 q_L^3 M2 = [Int q^2 Q - A Int Q - A^2 Int q^-2 Q + A^3 Int q^-4 Q].

    Every table row is evaluated by Horner's rule in q and in 1/q at both
    endpoints, with Ei(2iq) from
    :func:`locfield.specfun._ei_imaginary_axis` folded into one cos/sin
    pair as in :func:`_brace_coeffs`.  All arithmetic is elementwise, so
    a geometry's moments do not depend on the geometries beside it.

    Returns
    -------
    (moments, bounds) : the (3, G) complex moments and the (3, G) real
    bounds 2^-52 times the summed moduli of every endpoint term, the
    rounding error to expect when the terms cancel.  Where a moment
    leaves double range the bound is not finite.
    """
    q_R, q_L = np.asarray(q_R, dtype=float), np.asarray(q_L, dtype=float)
    with np.errstate(all="ignore"):
        A = (q_R - q_L) * (q_R + q_L)
        q = np.concatenate([q_R + q_L, q_R - q_L])
        y = 2.0 * q
        u, v, f, g = _ei_imaginary_axis(y)
        cos, sin = np.cos(y), np.sin(y)
        t = 1.0 / q
        rows, by_t = _MOMENT_Q[0] * q, _MOMENT_T[0] * t
        for c in _MOMENT_Q[1:-1]:
            rows += c
            rows *= q
        for c in _MOMENT_T[1:]:
            by_t += c
            by_t *= t
        rows += _MOMENT_Q[-1]
        rows += by_t
        r_re, r_im, s_re, s_im, r_abs, s_abs = rows.reshape(6, 6, -1)
        # e^{iy} R + Ei S = e^{iy} (R - (g + i f) S) + (u + i v) S
        a_re = r_re - g * s_re + f * s_im
        a_im = r_im - g * s_im - f * s_re
        ends = np.empty((6, q.size), dtype=complex)
        ends.real = cos * a_re - sin * a_im + u * s_re - v * s_im
        ends.imag = sin * a_re + cos * a_im + u * s_im + v * s_re
        ei_abs = np.hypot(u - g * cos + f * sin, v - g * sin - f * cos)
        sizes = r_abs + ei_abs * s_abs
        n = q_R.size
        j = ends[:, :n] - ends[:, n:]
        m = sizes[:, :n] + sizes[:, n:]
        half, eighth = 0.5 / q_L, 0.125 / q_L**3
        moments = np.stack([
            (j[0] + A * j[1]) * half,
            (j[3] + A * j[4]) * half,
            (j[2] - A * (j[3] + A * (j[4] - A * j[5]))) * eighth])
        bounds = 2.0**-52 * np.stack([
            (m[0] + A * m[1]) * half,
            (m[3] + A * m[4]) * half,
            (m[2] + A * (m[3] + A * (m[4] + A * m[5]))) * eighth])
    return moments, bounds


# Taylor orders of the near-centre moments in s = (q - q_R)/q_L
_NEAR_ORDERS = 30


def _poly2(a, b):
    """Product of two polynomials in (s, rho) given as arrays [j, n] of
    the coefficients of s^j rho^n."""
    out = np.zeros(np.add(a.shape, b.shape) - 1)
    for (j, n), c in np.ndenumerate(a):
        out[j:j + b.shape[0], n:n + b.shape[1]] += c * b
    return out


@functools.cache
def _near_centre_tables():
    """The constant tables of :func:`_sphere_moments_near_centre`, built
    on first use (about 1 ms) and read-only.

    Taylor: e^{-2iq} P^(k)(q)/k! and e^{-2iq} Q^(k)(q)/k!, k = 1..K
    (K = _NEAR_ORDERS), as polynomials in t = 1/q, from
    P' = -e^{2iq} alpha^2 and Q' = -e^{2iq} (beta^2 - 2 alpha beta),
    alpha = 1 + it - t^2 and beta = 1 + 3it - 3t^2, and
    d/dq (e^{2iq} Sum r_m t^m) = e^{2iq} Sum (2i r_m - (m - 1) r_{m-1}) t^m:
    rows t^0 .. t^(K+3), columns Re P_k, Re Q_k, Im P_k, Im Q_k, |P_k|,
    |Q_k|.

    Weights: Sum_j H_ij w_j of the weight w(s) = Sum w_j s^j of M0 and
    M1, a = 1 + (1 - rho^2)(1 + rho s)^-2, and of M2,
    b = (rho + 2s + rho s^2)^2 (2 - rho^2 + 2 rho s + rho^2 s^2)
    (1 + rho s)^-4 / 4, with H_ij = (1/2) Int s^(i+j) ds over i + j <= K,
    as polynomials in rho: rows rho^0 .. rho^(K+4), columns the values
    for a and b, then their bounds: 2^-49 times their moduli plus the
    moduli of the terms i + j = K.
    """
    K = _NEAR_ORDERS
    alpha, beta = np.array([1, 1j, -1]), np.array([1, 3j, -3])
    taylor = []
    for r in (-np.convolve(alpha, alpha), np.convolve(2 * alpha - beta,
                                                      beta)):
        d = np.r_[r, np.zeros(K - 1)]
        for k in range(1, K + 1):
            taylor.append(d)
            d = (2j * d - np.r_[0.0, np.arange(K + 3) * d[:-1]]) / (k + 1)
    taylor = np.array(taylor).reshape(2, K, K + 4)
    j = np.arange(K + 1)
    inverse = [np.diag(c * (-1.0) ** j)
               for c in (j + 1.0, (j + 1.0) * (j + 2) * (j + 3) / 6)]
    a = _poly2(np.array([[1.0, 0.0, -1.0]]), inverse[0])
    a[0, 0] += 1.0
    u = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 1.0]])
    v = np.array([[2.0, 0.0, -1.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    b = _poly2(_poly2(_poly2(u, u), v) / 4.0, inverse[1])
    weights = np.zeros((2, K + 1, K + 5))
    weights[0, :, :K + 3] = a
    weights[1] = b[:K + 1]
    ij = j[:, None] + j
    half = np.where((ij % 2 == 0) & (ij <= K), 1.0 / (ij + 1), 0.0)
    sums, last = half @ weights, (ij == K) / (K + 1.0) @ weights
    bounds = 2.0**-49 * np.abs(sums) + np.abs(last)
    tables = (np.concatenate([taylor.real, taylor.imag, np.abs(taylor)])
              .reshape(-1, K + 4).T.copy(),
              np.concatenate([sums, bounds]).reshape(-1, K + 5).T.copy())
    for table in tables:
        table.flags.writeable = False
    return tables


def _sphere_moments_near_centre(q_R, q_L):
    """The moments of :func:`_sphere_moments` from a Taylor series in the
    emitter offset, with no 1/q_L that cancels as q_L -> 0.

    With s = (q - q_R)/q_L in [-1, 1], t = 1/q and A = q_R^2 - q_L^2,

        M0 = 1/2 Int P (1 + A t^2) ds,   M1 = 1/2 Int Q (1 + A t^2) ds,
        M2 = 1/8 Int Q (q_L + 2 q_R s + q_L s^2)^2
                      (2 q_R^2 - q_L^2 + 2 q_R q_L s + q_L^2 s^2) t^4 ds.

    P and Q are expanded about q_R to order _NEAR_ORDERS in q_L s: P(q_R)
    and Q(q_R) from :func:`_brace_coeffs`, the higher coefficients
    e^{2iq_R} q_L^k times polynomials in 1/q_R, and the weights,
    functions of s and rho = q_L/q_R, are expanded in s; the s-integrals
    of the products, truncated at total order _NEAR_ORDERS, are
    polynomials in rho (the tables of :func:`_near_centre_tables`).
    Each product of a geometry's values with a table is a matrix product
    of its own (one batched matmul), so its moments do not depend on the
    geometries beside it, as those of one matrix product of all of them
    would.

    Returns
    -------
    (moments, bounds) : the (3, G) complex moments and the (3, G) real
    bounds, 2^-49 times the summed moduli of the series' terms plus those
    of its last order, which estimate the truncation error (the odd
    orders vanish, the next even one is smaller by about (2 q_L/K)^2 or
    rho^2).  The bound grows past 1e-13 of the moment from q_L/q_R of
    about 0.24 for q_R up to about 5, or from q_L of about 2.2 in larger
    spheres.
    """
    q_R, q_L = np.asarray(q_R, dtype=float), np.asarray(q_L, dtype=float)
    K = _NEAR_ORDERS
    taylor_table, weight_table = _near_centre_tables()
    with np.errstate(all="ignore"):
        t = 1.0 / q_R
        powers = [x[:, None] ** np.arange(n)
                  for x, n in ((t, K + 4), (q_L, K + 1), (q_L * t, K + 5))]
        taylor = (powers[0][:, None] @ taylor_table).reshape(-1, 6, K)
        weights = (powers[2][:, None] @ weight_table).reshape(-1, 4, K + 1)
        # orders 1..K: rows Re P, Re Q, Im P, Im Q, |P|, |Q| against
        # columns a, b and their bounds; M0 = <P, a>, M1 = <Q, a> and
        # M2 = <Q, b>, then e^{2iq} and order 0
        scaled = weights[:, :, 1:] * powers[1][:, None, 1:]
        sums = taylor @ scaled.swapaxes(1, 2)
        f, w = [0, 1, 1], [0, 0, 1]
        first = np.stack(_brace_coeffs(q_R), axis=1)[:, f]
        moments = (first * weights[:, w, 0] + np.exp(2j * q_R)[:, None]
                   * (sums[:, f, w] + 1j * sums[:, [2, 3, 3], w]))
        bounds = (np.abs(first) * weights[:, [2, 2, 3], 0]
                  + sums[:, [4, 5, 5], [2, 2, 3]])
    return moments.T, bounds.T


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
    s = unit_vector(s_hat)
    scalar = (s.ndim == 1)
    s2 = np.atleast_2d(s)
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
    q, chi = float(q), complex(chi)
    raise_first(cavity_scale_faults("q", q, chi))
    # from q = 1e100 on, 2/q^3 and 4/q^2 fall below half an ulp of 2/q
    # and 1, and past 5.6e102 q^3 leaves double range
    inner = 2.0 / q**3 - 4j / q**2 if q < 1.0e100 else 0.0
    coeff = (-chi / (12.0 * np.pi)
             * (inner - 2.0 / q + 1j) * np.exp(2j * q))
    return coeff * _EYE.astype(complex)


def cavity_green_linear(q_C, chi) -> np.ndarray:
    """Linear scattering tensor of the empty cavity, G_C^(1), units of k_A.

    Equal to -f_constant_q(q_C, chi); its small-q_C expansion

        chi/(6 pi) (1/q_C^3 + 1/q_C + 7i/6) I

    carries the divergent local-field terms and the 7/6 constant that
    survives in the linear bulk rate 1 + 7 chi/6.
    """
    raise_first(cavity_scale_faults("q_C", float(q_C), complex(chi)))
    return -f_constant_q(q_C, chi)


# node counts of the refinement loop of body_green_linear: 64, 128, ...,
# 2048
_GL_N_MIN = 64
_GL_N_MAX = 2048


@functools.cache
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    Cached per n: the refinement loop only asks for the six node counts
    _GL_N_MIN * 2**k <= _GL_N_MAX, :func:`locfield.born.quad` for one
    rule of 32 nodes, and computing a rule costs more than using it
    (about 0.8 s at n = 2048).
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


def body_green_linear(boundary: StarBoundary, chi) -> np.ndarray:
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
    doubled until two successive refinements agree to 1e-10 (mixed
    absolute/relative), a fixed contract.
    """
    chi = complex(chi)
    if boundary.is_bulk or chi == 0:
        return np.zeros((3, 3), dtype=complex)

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
        if err <= 1.0e-10 * (1.0 + float(np.max(np.abs(cur)))):
            return cur
        prev = cur
    raise AccuracyError(f"angular quadrature did not reach tolerance "
                        f"1e-10 by n = {n}; last "
                        f"refinement change {err:.3e}")
