"""Special functions of complex argument used by the rate formulas.

Spherical Bessel functions ``j_m``, outgoing spherical Hankel functions
``h_m == h_m^{(1)}``, the Riccati-Bessel derivatives ``[z f_m(z)]'``, and
the exponential integral ``Ei`` on its principal branch.  The public
functions pin down conventions the rest of the package relies on, check
their orders and arguments, and enforce a strict non-finite policy: no
NaN or infinity escapes silently.  Some call :mod:`scipy.special`; the
rest are closed forms, recurrences or rational fits (below).

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

The public functions accept scalars or ndarrays of complex argument and
broadcast like numpy ufuncs.  Orders and arguments are checked as arrays
with numpy reductions; a scalar is a 0-d array.

The dipole wave (m = 1) alone serves Tomas's centre rate, the centred
exact and weak-absorption rows and the cavity transmission coefficient.
:func:`dipole_hankel_h1` and :func:`dipole_bessel_j` give its functions
in closed form, in sin, cos and exp, with the checks and messages of the
calls they replace.  The off-centre exact series checks its arguments
with :func:`_check_point` and takes its ratios j_m/j_{m-1} from
:func:`_bessel_ratio_tables`.
The linear Born body term needs Ei only on the positive imaginary axis,
where :func:`_ei_imaginary_axis` evaluates it from fitted rational
functions.  So :mod:`scipy.special`, which takes longer to import than
the rest of the package, is imported on first use, and no rate of
:func:`locfield.compute` loads it: sphere coefficients of one order
m > 1, the cavity's outside-scattering coefficients and Ei off the
imaginary axis do.
"""

from __future__ import annotations

import cmath

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


def _horner_table(*rows):
    """Coefficient rows of equal length, highest power first, as a
    (powers, rows, 1) array: entry k holds every row's k-th coefficient,
    ready to broadcast against an (n,) argument."""
    return np.array(rows, dtype=float).T[:, :, None]


# Rational tables of :func:`_ei_imaginary_axis`, as printed with their
# largest errors by tools/fit_sici.py: rows of numerator and denominator
# coefficients, p and q with q(0) = 1, highest power first.  Below y = 4,
# Si(y) = y S(y^2) and Ci(y) = gamma + ln y + y^2 C(y^2) (_SI_CI: S_p,
# S_q, C_p, C_q); from y = 4, the auxiliary functions f = F(t)/y and
# g = G(t) t, t = 1/y^2 (_AUX_4 on [4, 8), _AUX_8 on [8, inf): F_p, F_q,
# G_p, G_q).
_SI_CI = _horner_table(
    (-8.377089596713836e-11, 4.621221949680057e-08, -9.751919055357336e-06,
     0.0009766920681283078, -0.04134045904187166, 1.0),
    (2.0457280286792486e-12, 1.2846640961416847e-09, 4.427571548142899e-07,
     9.975298555476072e-05, 0.01421509651368416, 1.0),
    (5.0395709234988286e-12, -3.3716706325885777e-09, 8.967939305406132e-07,
     -0.00011840304001044037, 0.007225299889714855, -0.25),
    (1.0343688437621437e-12, 7.736381333085017e-10, 3.0960334956857636e-07,
     7.958069694103603e-05, 0.012765467107807326, 1.0))
_AUX_4 = _horner_table(
    (665516.848786807, 2451804.009533856, 1196498.83092728,
     170720.1933815408, 8846.56811897208, 170.62956658911338,
     0.9999998871577135),
    (1936308.4353069451, 3644781.9865361634, 1433834.7414483882,
     185623.7899204247, 9167.859407116586, 172.62948290857472,
     1.0),
    (688659.6806900714, 3639628.0390424305, 1752208.4121614045,
     233080.11447047358, 10999.9285421546, 190.86389135963816,
     0.9999990762150465),
    (6653234.210344528, 8681454.280884454, 2678009.3332530754,
     286775.9998418578, 12061.402922159168, 196.8631723813835,
     1.0))
_AUX_8 = _horner_table(
    (562748913.1801887, 632945597.6957413, 96880566.43945803,
     4435376.880523435, 75497.15597155929, 490.96658253157193,
     0.9999999999999715),
    (1123696719.6602473, 770918471.2512212, 104514539.11366002,
     4577183.855581137, 76459.08913890019, 492.96658253110127,
     1.0),
    (770003249.5467674, 1012529805.2733828, 142310142.28167495,
     5865961.568623073, 90187.65369940405, 534.1818332065718,
     0.9999999999987357),
    (3370768601.544007, 1592673352.913282, 171669054.07172552,
     6366032.11166079, 93308.74475164928, 540.1818331927185,
     1.0))
_EULER = 0.5772156649015329  # Euler's constant gamma
_EI_SPLIT = 4.0  # the y at which _ei_imaginary_axis changes form


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
    """m as an integer array, checked."""
    m = np.asarray(m)
    if not np.issubdtype(m.dtype, np.integer):
        raise DomainError(f"order m must be integer, got dtype {m.dtype}")
    if np.any(m < 0) or np.any(m > ORDER_MAX):
        raise DomainError(f"order m must lie in [0, {ORDER_MAX}]")
    return m


def _check_arg(z, allow_zero: bool):
    """z as a complex array, checked."""
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():
        raise DomainError("argument z must be finite")
    if (np.abs(z) >= ARG_MAX).any():
        raise DomainError(f"|z| must be < {ARG_MAX:g}")
    if not allow_zero and (z == 0).any():
        raise SingularityError("function is singular at z = 0")
    return z


def _check_point(z) -> complex:
    """z, a Python number, as a complex checked in plain Python; where it
    fails, ``_check_arg(z, allow_zero=False)`` raises its error.  Parts
    below ARG_MAX are finite, and |z| of them a double."""
    z = complex(z)
    if not (abs(z.real) < ARG_MAX > abs(z.imag) and abs(z) < ARG_MAX
            and z != 0):  # refused by the same tests, so this raises
        _check_arg(z, allow_zero=False)
    return z


def _nonfinite(what: str) -> NonFiniteError:
    return NonFiniteError(f"{what} overflowed or produced NaN; argument "
                          "too deep in the complex plane for double precision")


def _finite_or_raise(value, what: str):
    """value, checked finite: a complex for a scalar, else the array."""
    if not np.all(np.isfinite(value)):
        raise _nonfinite(what)
    return complex(value) if np.ndim(value) == 0 else value


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
    return _finite_or_raise(_half_order_h1(m, z), "spherical_hankel_h1")


def _half_order_h1(m, z):
    # h_m is meromorphic (no branch cut), but both factors below have one
    # along the negative reals; normalizing -0.0 imaginary parts to +0.0
    # keeps the two cuts cancelling on either lip of the axis.
    z = z + 0.0j
    # sqrt(pi/2)/sqrt(z) keeps the prefactor on the principal branch of z
    # itself, consistent with AMOS' branch for H^{(1)} at arg z = pi.
    with np.errstate(over="ignore", invalid="ignore"):  # caller refuses inf
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
        val = riccati_upward(m, z, _half_order_h1(m - 1, z),
                             _half_order_h1(m, z))
    else:
        raise DomainError(f"unknown Riccati kind {kind!r}; "
                          "expected 'bessel_j' or 'hankel_h1'")
    return _finite_or_raise(val, f"riccati_derivative[{kind}]")


def riccati_upward(m, z, f_prev, f_m):
    """[z f_m(z)]' = z f_{m-1}(z) - m f_m(z) (Wiscombe 1980, Appl. Opt. 19,
    1505) from values in hand, unchecked: the caller checks the result."""
    return z * f_prev - m * f_m


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
        s = np.sin(z)
        j = (s - z * np.cos(z)) / (z * z)
        small = np.abs(z) < _J1_TAYLOR_BELOW
        if small.any():
            # j_1 = sum_k (-1)^k z^(2k+1) / (2^k k! (2k+3)!!), whose
            # terms fall by z^2 / (2 (k+1)(2k+5)): at |z| < 2 the first
            # term left out is below 1e-18 of the sum
            w = z[small]
            w2, series = w * w, 1.0
            for k in range(11, -1, -1):
                series = 1.0 - series * w2 / (2.0 * (k + 1) * (2 * k + 5))
            j[small] = w * series / 3.0
        p = s - j
    return (_finite_or_raise(j.reshape(shape), "spherical_bessel_j"),
            _finite_or_raise(p.reshape(shape), "riccati_derivative[bessel_j]"))


def _bessel_ratio_tables(z: complex, x: complex, top: int) -> tuple:
    """(j_1(z), r, j_1(x), rx) for z and x checked as by
    spherical_hankel_h1, |x| <= |z|, where r[m] = j_m(z)/j_{m-1}(z) and
    rx[m] = j_m(x)/j_{m-1}(x) for m = 1..top + 1 (entry 0 is unused, and
    the orders above are cruder): Miller's ratios w/(2m + 1 - w r_{m+1}),
    run down from 0 at top + |w| + 17 for each argument w (Wiscombe 1980),
    z's alone down to x's start and then both together in one loop.  j_1
    is (j_0 - cos w)/w, j_0 = sin w/w, from |w| = 2 on where it is the
    larger of the two (it does not cancel there), and j_0 r_1 otherwise.
    spherical_bessel_j's NonFiniteError where sin or cos overflows, z's
    first."""
    start, start_x = top + int(abs(z)) + 17, top + int(abs(x)) + 17
    r, rx = [0j] * (start + 2), [0j] * (start_x + 2)
    ratio = ratio_x = 0j
    # where j_{m-1} vanishes a ratio is huge, not a ZeroDivisionError
    for m in range(start, start_x, -1):
        ratio = r[m] = z / (2 * m + 1 - z * ratio or 1e-300)
    for m in range(start_x, 0, -1):
        ratio = r[m] = z / (2 * m + 1 - z * ratio or 1e-300)
        ratio_x = rx[m] = x / (2 * m + 1 - x * ratio_x or 1e-300)
    return _j1(z, ratio), r, _j1(x, ratio_x), rx


def _j1(w: complex, r1: complex) -> complex:
    """j_1(w) from sin w and cos w, or from j_0(w) and r1 = j_1/j_0 where
    that cancels, as :func:`_bessel_ratio_tables` says."""
    try:
        j0 = cmath.sin(w) / w
        j1 = (j0 - cmath.cos(w)) / w
    except OverflowError:
        raise _nonfinite("spherical_bessel_j") from None
    if not (abs(w) >= _J1_TAYLOR_BELOW and abs(j1) > abs(j0)):
        j1 = j0 * r1
    return j1


def _bessel_j_orders(z, n: int):
    """j_0(z) .. j_{n-1}(z) of a float array z > 0, as an (n, z.size)
    array.  Order l comes by the upward recurrence
    j_l = (2l - 1)/z j_{l-1} - j_{l-2} from j_{-1} = cos z/z and
    j_0 = sin z/z while l < z, where it is stable, and from l >= z on as
    j_{l-1} times Miller's ratio j_l/j_{l-1} = z/(2l + 1 - z j_{l+1}/j_l),
    run down from 0 at order 2n: j_{l-1} has no zero up to z there, so
    the ratio does not cancel, and no ratio overflows however small z
    is.  No scipy."""
    z = np.asarray(z, dtype=float)
    j = np.empty((n + 1, z.size))
    with np.errstate(all="ignore"):
        ratio = np.zeros_like(z)
        for l in range(2 * n, 0, -1):
            ratio = z / (2 * l + 1 - z * ratio)
            if l < n:
                j[l] = ratio
        j[n], j[0] = np.cos(z) / z, np.sin(z) / z
        for l in range(1, n):
            j[l] = np.where(l < z, (2 * l - 1) / z * j[l - 1] - j[l - 2],
                            j[l - 1] * j[l])
    return j[:n]


def _ratios(table, x):
    """The rational functions p/q of a :func:`_horner_table` with rows
    (p1, q1, p2, q2, ...) at x, by Horner's rule: one row per ratio."""
    acc = table[0] * x + table[1]
    for c in table[2:]:
        acc *= x
        acc += c
    return acc[0::2] / acc[1::2]


def _ei_imaginary_axis(y):
    """Ei(iy) for a float array y > 0, split as

        Ei(iy) = (u + i v) - (g + i f) e^{iy},

    returned as the real arrays (u, v, f, g), so that a caller can fold
    the oscillating part into its own phase factor.  Below y = 4, u + i v
    is Ci(y) + i (Si(y) + pi/2) and f = g = 0; from y = 4, u + i v = i pi
    and f, g are the auxiliary functions of Si and Ci (Abramowitz &
    Stegun 5.2.6-7), which fall like 1/y and 1/y^2.  Each piece is a
    rational function fitted against mpmath by tools/fit_sici.py; Ei(iy)
    comes out within 3e-16 of its modulus.  No scipy is involved.
    """
    u, v = np.zeros_like(y), np.full_like(y, np.pi)
    f, g = np.zeros_like(y), np.zeros_like(y)
    small = y < _EI_SPLIT
    if small.any():
        x = y[small]
        z = x * x
        si, ci = _ratios(_SI_CI, z)
        u[small] = np.log(x) + _EULER + z * ci
        v[small] = 0.5 * np.pi + x * si
    for sel, table in ((~small & (y < 8.0), _AUX_4), (y >= 8.0, _AUX_8)):
        if sel.any():
            w = 1.0 / y[sel]
            t = w * w
            F, G = _ratios(table, t)
            f[sel] = F * w
            g[sel] = G * t
    return u, v, f, g


def exponential_integral_ei(z):
    """Exponential integral Ei(z), principal branch.

    The branch cut runs along the negative real axis; evaluation exactly
    on the cut (z real and negative) is rejected with DomainError since
    the two one-sided limits differ by 2*pi*i.  z = 0 is a logarithmic
    singularity and raises SingularityError.

    For reference, Ei(2i) = Ci(2) + i*(Si(2) + pi/2)
    = 0.4229808287748650 + 3.1762093035975916 i.

    On the positive imaginary axis, the only part of the plane the rate
    integrals reach, Ei is evaluated by :func:`_ei_imaginary_axis`, with
    no scipy; scipy's complex-plane algorithm handles every other point.
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
    y = z1.imag[up]
    u, v, f, g = _ei_imaginary_axis(y)
    c, s = np.cos(y), np.sin(y)
    val[up] = (u - g * c + f * s) + 1j * (v - f * c - g * s)
    if not np.all(up):
        val[~up] = _sp.expi(z1[~up])
        # scipy's real-argument Ei is machine accurate; the complex-plane
        # algorithm carries a few parts in 1e13 near the real axis
        on_axis = (z1.imag == 0.0) & (z1.real > 0.0)
        if np.any(on_axis):
            val[on_axis] = _sp.expi(z1.real[on_axis])
    return _finite_or_raise(val.reshape(z.shape), "exponential_integral_ei")
