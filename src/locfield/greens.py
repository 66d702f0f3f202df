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

from .errors import (AccuracyError, DomainError, InvariantError,
                     NonFiniteError, SingularityError, array,
                     cavity_scale_faults, check_chi, inside_sphere, number,
                     positive, raise_first)
# _brace_coeffs takes Ei's parts from _ei_imaginary_axis; the benchmark's
# tracer wraps exponential_integral_ei in this namespace
# (tests/test_trace_sites.py)
from .specfun import (_ei_imaginary_axis, _horner_table,
                      exponential_integral_ei)

__all__ = [
    "unit_vector",
    "StarBoundary",
    "ab_coefficients",
    "vacuum_green",
    "f_integrand",
    "cavity_green_linear",
    "body_green_linear",
]

_EYE = np.eye(3)

# unit-vector norm tolerance
_UNIT_TOL = 1.0e-12


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
    input.  ``q_max``, a positive float or inf, bounds the boundary distance
    (:func:`locfield.born.validity_check` reads it); ``is_bulk`` marks the
    infinite homogeneous medium, whose outer-boundary tensor vanishes
    identically.
    """

    q_outer: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    q_max: float
    is_bulk: bool = False

    def __post_init__(self):
        if self.is_bulk:
            return
        if self.q_outer is None:
            raise DomainError("finite boundary requires a q_outer callable")
        object.__setattr__(self, "q_max", number("q_max", self.q_max, float))
        if not self.q_max > 0:
            raise DomainError("q_max must be positive")

    @classmethod
    def bulk(cls) -> "StarBoundary":
        return cls(q_outer=None, q_max=math.inf, is_bulk=True)

    @classmethod
    def sphere(cls, q_R: float, q_L: float = 0.0) -> "StarBoundary":
        """Sphere of optical radius q_R with the emitter displaced q_L
        from the center along +z (q_L < q_R)."""
        q_R, q_L = number("q_R", q_R, float), number("q_L", q_L, float)
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
    (a, b) : complex, matching the input shape; NonFiniteError where
    3/q^3 leaves double range (q below about 2.6e-103)
    """
    q = array("q", q, float)
    with np.errstate(over="ignore", divide="ignore"):
        huge = ~np.isfinite(np.divide(3.0, q**3))
    raise_first((*positive("q", q), (huge, lambda *_: (
        f"q = {np.min(q):g} is too small: b(q) in 1/q^3 leaves double "
        "range"), NonFiniteError)))
    a, b = _ab(q)
    return (complex(a), complex(b)) if a.ndim == 0 else (a, b)


def _ab(q):
    """a(q) and b(q) of :func:`ab_coefficients`, q a checked float array."""
    return (1.0 / q + 1j / q**2 - 1.0 / q**3,
            1.0 / q + 3j / q**2 - 3.0 / q**3)


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
    a, b = map(complex, _ab(np.array(q)))
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
    s_hat : (3,) or (N, 3) unit direction vectors, broadcasting with q

    Returns
    -------
    (3, 3) or (N, 3, 3) complex ndarray
    """
    q = array("q", q, float)
    raise_first(positive("q", q))
    s = unit_vector(s_hat)
    try:
        shape = np.broadcast_shapes(q.shape, s.shape[:-1])
    except ValueError:
        raise DomainError("q and s_hat lengths do not broadcast") from None
    return _f_tensors(np.broadcast_to(q, shape),
                      np.broadcast_to(s, (*shape, 3)))


def _f_tensors(q, s):
    """The tensors P I + Q ss of :func:`f_integrand` at the distances
    q > 0 and the unit rows s (one more axis, of 3), unchecked."""
    P, Q = _brace_coeffs(q)
    ss = s[..., :, None] * s[..., None, :]
    return P[..., None, None] * _EYE + Q[..., None, None] * ss


def cavity_green_linear(q_C, chi) -> np.ndarray:
    """Linear scattering tensor of the empty cavity, G_C^(1), units of k_A:
    chi/(12 pi) (2/q^3 - 4i/q^2 - 2/q + i) e^{2iq} I at q = q_C, the
    closed-form angular average of :func:`f_integrand` F(q, ss) times
    chi/(16 pi^2).  That of a shell from q_in to q_out is the call at
    q_in less the call at q_out.  Its small-q_C expansion

        chi/(6 pi) (1/q_C^3 + 1/q_C + 7i/6) I

    carries the divergent local-field terms and the 7/6 constant that
    survives in the linear bulk rate 1 + 7 chi/6.
    """
    chi, q_C = check_chi(chi), number("q_C", q_C, float)
    raise_first(cavity_scale_faults("q_C", q_C, chi))
    # from q = 1e100 on, 2/q^3 and 4/q^2 fall below half an ulp of 2/q
    # and 1, and past 5.6e102 q^3 leaves double range; past max/2, 2q
    # does, and e^{2iq} is (e^{iq})^2
    inner = 2.0 / q_C**3 - 4j / q_C**2 if q_C < 1.0e100 else 0.0
    phase = (np.exp(2j * q_C) if 2.0 * q_C < math.inf
             else np.exp(1j * q_C) ** 2)
    coeff = -chi / (12.0 * np.pi) * (inner - 2.0 / q_C + 1j) * phase
    return -(coeff * _EYE.astype(complex))


# node counts of the refinement loop of body_green_linear: 64, 128, ...,
# 2048
_GL_N_MIN = 64
_GL_N_MAX = 2048


@functools.cache
def _gauss_legendre(n: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1].

    Cached per n: the refinement loop only asks for the six node counts
    _GL_N_MIN * 2**k <= _GL_N_MAX, :mod:`locfield.born` for rules of 16
    nodes (near the centre) and 32 (:func:`locfield.born.quad`), and
    computing a rule costs more than using it (about 0.8 s at n = 2048).
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
    return _body_green(boundary, check_chi(chi))


def _body_green(boundary: StarBoundary, chi: complex) -> np.ndarray:
    """The tensor of :func:`body_green_linear`, its chi checked; the
    nodes' distances are checked and go, with the rule's own unit
    directions, to the unchecked :func:`_f_tensors`."""
    if boundary.is_bulk or chi == 0:
        return np.zeros((3, 3), dtype=complex)

    pref = -chi / (16.0 * np.pi**2)

    def evaluate(n: int) -> np.ndarray:
        theta, phi, s, w = _angular_nodes(n, n)
        q_o = np.asarray(boundary.q_outer(theta, phi), dtype=float)
        if not np.all(np.isfinite(q_o)) or np.any(q_o <= 0):
            raise DomainError("q_outer must be positive and finite on the "
                              "whole sphere")
        return pref * np.einsum("n,nij->ij", w, _f_tensors(q_o, s))

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
