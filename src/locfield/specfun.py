"""Special functions of complex argument used by the rate formulas.

Thin, defensively checked wrappers over :mod:`scipy.special`: spherical
Bessel functions ``j_m``, outgoing spherical Hankel functions
``h_m == h_m^{(1)}``, the Riccati-Bessel derivatives ``[z f_m(z)]'``, and
the exponential integral ``Ei`` on its principal branch.  The wrappers pin
down conventions the rest of the package relies on and enforce a strict
non-finite policy: no NaN or infinity escapes silently.

Conventions
-----------
* ``h_m`` always denotes the *outgoing* Hankel function, so
  ``h_1(z) = -(1/z + i/z**2) exp(iz)``.
* ``Ei`` uses the principal branch, cut along the negative real axis.  On
  the positive real axis it coincides with the classical real Ei, and
  ``Ei(conj(z)) == conj(Ei(z))`` off the cut.  Along the positive imaginary
  axis, the only region the decay-rate integrals probe, ``Ei(iy) -> i*pi``
  as ``y -> +inf``.  Evaluation *on* the cut is rejected rather than
  silently picking a side.

All functions accept scalars or ndarrays of complex argument and
broadcast like the underlying scipy routines.  A Python int order and a
scalar argument are checked in plain Python (``cmath``, ``math.hypot``
and comparisons), arrays with numpy reductions: the same rules, in the
same order, with the same errors.  The Mie series makes four scalar
calls per order, and numpy's reductions on 0-d arrays would cost several
times the Bessel evaluation itself; it forms the Riccati derivatives
from values in hand by :func:`riccati_upward`.

The dipole wave (m = 1) alone serves Tomas's centre rate, the centred
exact and weak-absorption rows and the cavity transmission coefficient.
:func:`dipole_hankel_h1` and :func:`dipole_bessel_j` give its functions
in closed form, in sin, cos and exp, with the checks and messages of the
calls they replace.  So :mod:`scipy.special`, which takes longer to
import than the rest of the package, is imported on first use: bulk,
centred exact and weak-absorption rates never load it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NonFiniteError, SingularityError

__all__ = [
    "spherical_bessel_j",
    "spherical_hankel_h1",
    "riccati_derivative",
    "dipole_hankel_h1",
    "dipole_bessel_j",
    "exponential_integral_ei",
    "ORDER_MAX",
    "ARG_MAX",
]

# Validated ranges.  AMOS-backed routines degrade gracefully well beyond
# these, but the rate formulas never need more and the caps keep the
# error surface predictable.
ORDER_MAX = 200
ARG_MAX = 1.0e4

# below this |z|, j_1 is summed as its Taylor series: the closed form
# sin z - z cos z cancels to z^3/3.  Measured against 40-digit mpmath,
# the closed form's relative error is 1.1e-15 at |z| = 1, 5e-16 at 2
# and 8e-14 at 0.1; the series stays within 4e-16 below 2.
_J1_TAYLOR_BELOW = 2.0


class _DeferredSpecial:
    """Stands in for :mod:`scipy.special` until the first attribute
    access, which imports it and rebinds ``_sp`` to the real module, so
    later calls look it up at no extra cost."""

    def __getattr__(self, name):
        global _sp
        from scipy import special
        _sp = special
        return getattr(special, name)


_sp = _DeferredSpecial()


def _check_order(m):
    """m as a Python int for a Python int, else as an integer array."""
    plain = type(m) is int
    if not plain:
        m = np.asarray(m)
        if not np.issubdtype(m.dtype, np.integer):
            raise DomainError(f"order m must be integer, got dtype {m.dtype}")
    if (not 0 <= m <= ORDER_MAX if plain
            else np.any(m < 0) or np.any(m > ORDER_MAX)):
        raise DomainError(f"order m must lie in [0, {ORDER_MAX}]")
    return m


def _check_arg(z, allow_zero: bool):
    """z as a Python complex for a Python number (numpy's float64 and
    complex128 scalars among them), else as a complex array."""
    plain = isinstance(z, (int, float, complex))
    z = complex(z) if plain else np.asarray(z, dtype=complex)
    if not (cmath.isfinite(z) if plain else np.all(np.isfinite(z))):
        raise DomainError("argument z must be finite")
    # hypot, unlike abs of a complex, returns inf rather than raising
    if (math.hypot(z.real, z.imag) >= ARG_MAX if plain
            else np.any(np.abs(z) >= ARG_MAX)):
        raise DomainError(f"|z| must be < {ARG_MAX:g}")
    if not allow_zero and (z == 0 if plain else np.any(z == 0)):
        raise SingularityError("function is singular at z = 0")
    return z


def _finite_or_raise(value, what: str):
    """value, checked finite: a complex for a scalar, else the array."""
    plain = isinstance(value, complex)
    if not (cmath.isfinite(value) if plain else np.all(np.isfinite(value))):
        raise NonFiniteError(f"{what} overflowed or produced NaN; "
                             "argument too deep in the complex plane for "
                             "double precision")
    if plain or value.ndim == 0:
        return complex(value)
    return value


def spherical_bessel_j(m, z):
    """Spherical Bessel function j_m(z) for complex z.

    Parameters
    ----------
    m : int or integer ndarray
        Order, 0 <= m <= ORDER_MAX.
    z : complex or complex ndarray
        Argument, |z| < ARG_MAX.  z = 0 is allowed: j_0(0) = 1 and
        j_m(0) = 0 for m >= 1.

    Returns
    -------
    complex or ndarray
    """
    m = _check_order(m)
    z = _check_arg(z, allow_zero=True)
    return _finite_or_raise(_sp.spherical_jn(m, z), "spherical_bessel_j")


def spherical_hankel_h1(m, z):
    """Outgoing spherical Hankel function h_m(z) = j_m(z) + i y_m(z).

    Singular at z = 0 (raises SingularityError).  In the lower half
    plane the function grows like exp(|Im z|)/|z|; overflow raises
    NonFiniteError rather than returning inf.

    Evaluated as sqrt(pi/2) z^{-1/2} H^{(1)}_{m+1/2}(z) rather than as
    j_m + i y_m: in the upper half plane h_m decays like exp(-Im z)
    while j_m and y_m both grow, so the sum would cancel catastrophically
    for Im z of a few tens.  The cylinder route keeps full relative
    accuracy in both half planes.
    """
    m = _check_order(m)
    z = _check_arg(z, allow_zero=False)
    val = _half_order_h1(m, z)
    return _finite_or_raise(val, "spherical_hankel_h1")


def _half_order_h1(m, z):
    # h_m is meromorphic (no branch cut), but both factors below have one
    # along the negative reals; normalizing -0.0 imaginary parts to +0.0
    # keeps the two cuts cancelling on either lip of the axis.
    z = z + 0.0j
    # sqrt(pi/2)/sqrt(z) keeps the prefactor on the principal branch of z
    # itself, consistent with AMOS' branch for H^{(1)} at arg z = pi.
    return np.sqrt(0.5 * np.pi) / np.sqrt(z) * _sp.hankel1(m + 0.5, z)


def riccati_derivative(kind, m, z):
    """Derivative of a Riccati-Bessel function, [z f_m(z)]' = f_m + z f_m'.

    Parameters
    ----------
    kind : {"bessel_j", "hankel_h1"}
        Which radial function f_m to use.
    m, z : as for the underlying function.

    Notes
    -----
    For kind="bessel_j", m=0 this is d/dz [z j_0(z)] = cos(z).  Near the
    origin [z j_m(z)]' ~ (m+1) z^m / (2m+1)!!, so the m=1 bracket behaves
    like 2z/3.
    """
    m = _check_order(m)
    if kind == "bessel_j":
        z = _check_arg(z, allow_zero=True)
        val = _sp.spherical_jn(m, z) + z * _sp.spherical_jn(m, z, derivative=True)
    elif kind == "hankel_h1":
        z = _check_arg(z, allow_zero=False)
        # exact for all m >= 0 with h_{-1}(z) = exp(iz)/z; avoids the
        # j + iy cancellation in the upper half plane (spherical_hankel_h1)
        return riccati_upward(kind, m, z, _half_order_h1(m - 1, z),
                              _half_order_h1(m, z))
    else:
        raise DomainError(f"unknown Riccati kind {kind!r}; "
                          "expected 'bessel_j' or 'hankel_h1'")
    return _finite_or_raise(val, f"riccati_derivative[{kind}]")


def riccati_upward(kind, m, z, f_prev, f_m):
    """[z f_m(z)]' = z f_{m-1}(z) - m f_m(z) (Wiscombe 1980, Appl. Opt. 19,
    1505) from checked values in hand, with the non-finite check and
    message of :func:`riccati_derivative` for the same kind."""
    return _finite_or_raise(z * f_prev - m * f_m,
                            f"riccati_derivative[{kind}]")


def dipole_hankel_h1(z):
    """(h_1(z), xi_1'(z)): the outgoing dipole Hankel function and its
    Riccati derivative [z h_1(z)]', in closed form,

        h_1 = -e^{iz} (1/z + i/z^2),   xi_1' = e^{iz} (1/z + i/z^2 - i),

    for a scalar or an array z; a scalar is worked out as a one-element
    array, so it equals the same point of an array.  Raises as
    spherical_hankel_h1(1, z) and riccati_derivative("hankel_h1", 1, z)
    do, in that order.
    """
    z = _check_arg(z, allow_zero=False)
    shape, z = np.shape(z), np.atleast_1d(z)
    with np.errstate(all="ignore"):
        e = np.exp(1j * z)
        a = 1.0 / z + 1j / (z * z)
        h, xp = -e * a, e * (a - 1j)
    return (_finite_or_raise(h.reshape(shape), "spherical_hankel_h1"),
            _finite_or_raise(xp.reshape(shape),
                             "riccati_derivative[hankel_h1]"))


def dipole_bessel_j(z):
    """(j_1(z), psi_1'(z)): the dipole Bessel function and its Riccati
    derivative [z j_1(z)]' = sin z - j_1(z), in closed form,

        j_1 = (sin z - z cos z)/z^2,

    summed as its Taylor series z/3 - z^3/30 + ... below |z| = 2, where
    the closed form cancels.  For a scalar or an array z, as
    :func:`dipole_hankel_h1`; raises as spherical_bessel_j(1, z) and
    riccati_derivative("bessel_j", 1, z) do, in that order.
    """
    z = _check_arg(z, allow_zero=True)
    shape, z = np.shape(z), np.atleast_1d(z)
    with np.errstate(all="ignore"):
        s, z2 = np.sin(z), z * z
        small = np.abs(z) < _J1_TAYLOR_BELOW
        # j_1 = sum_k (-1)^k z^(2k+1) / (2^k k! (2k+3)!!), whose
        # terms fall by z^2 / (2 (k+1)(2k+5)): at |z| < 2 the first
        # term left out is below 1e-18 of the sum
        series = 1.0
        for k in range(11, -1, -1):
            series = 1.0 - series * z2 / (2.0 * (k + 1) * (2 * k + 5))
        j = np.where(small, z * series / 3.0,
                     (s - z * np.cos(z)) / np.where(small, 1.0, z2))
        p = s - j
    return (_finite_or_raise(j.reshape(shape), "spherical_bessel_j"),
            _finite_or_raise(p.reshape(shape), "riccati_derivative[bessel_j]"))


def exponential_integral_ei(z):
    """Exponential integral Ei(z), principal branch.

    The branch cut runs along the negative real axis; evaluation exactly
    on the cut (z real and negative) is rejected with DomainError since
    the two one-sided limits differ by 2*pi*i.  z = 0 is a logarithmic
    singularity and raises SingularityError.

    For reference, Ei(2i) = Ci(2) + i*(Si(2) + pi/2)
    = 0.4229808287748650 + 3.1762093035975916 i.

    On the positive imaginary axis that identity, Ei(iy) = Ci(y) +
    i (Si(y) + pi/2), is evaluated through the real sine and cosine
    integrals: machine accurate and about twenty times faster than the
    complex-plane algorithm, which handles every other point.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise DomainError("argument z must be finite")
    if np.any(z == 0):
        raise SingularityError("Ei has a logarithmic singularity at z = 0")
    on_cut = (z.imag == 0) & (z.real < 0)
    if np.any(on_cut):
        raise DomainError("Ei evaluated on the branch cut (negative real "
                          "axis); shift z off the axis to pick a side")
    z1 = np.atleast_1d(z)
    val = np.empty(z1.shape, dtype=complex)
    up = (z1.real == 0.0) & (z1.imag > 0.0)
    si, ci = _sp.sici(z1.imag[up])
    val[up] = ci + 1j * (si + 0.5 * np.pi)
    val[~up] = _sp.expi(z1[~up])
    # scipy's real-argument Ei is machine accurate; the complex-plane
    # algorithm carries a few parts in 1e13 near the real axis
    on_axis = (z1.imag == 0.0) & (z1.real > 0.0)
    if np.any(on_axis):
        val[on_axis] = _sp.expi(z1.real[on_axis])
    return _finite_or_raise(val.reshape(z.shape), "exponential_integral_ei")
