"""Linear (first Born) decay rates for an emitter in a dielectric body.

To first order in the susceptibility chi = eps - 1, the decay rate of a
dipole sitting in a small empty cavity (optical radius q_C) carved into a
body splits into a cavity piece and a body piece,

    Gamma/Gamma_0 = 1 + gamma_c + gamma_b,

with the cavity piece carrying the local-field divergences,

    gamma_c = Im(chi) (1/q_C^3 + 1/q_C) + (7/6) Re(chi),

and the body piece reducing, for a star-shaped body, to a single angular
integral of the radial antiderivative implemented in
:mod:`locfield.greens`.  For a sphere with the emitter displaced q_L from
the center both dipole orientations collapse the angular integral to one
dimension in x = cos(theta), and chi multiplies three moments of the
geometry (q_R, q_L) alone.  The unchecked kernel :func:`_gamma_b_rows`
takes a batch of such rows, each with its chi and orientation, and holds
each to one fixed absolute tolerance, _TOL = 1e-10 (no setting), by the
first of its routes that certifies it, or refuses it: off the centre a
closed form, a series near the centre and a Filon-Legendre rule
(:func:`quad`), at the centre Tomas's closed form.
:func:`gamma_b_sphere_linear` checks one row and runs the kernel on it:
Tomas's centred rate is ``gamma_b_sphere_linear(q_R, 0.0, chi)``.  A
sphere is three floats q_R, q_L and q_C, checked by
:class:`locfield.rates.RateRequest`, whose ``compute`` assembles its
linear_born rate on the kernel's rows; any other body is a
:class:`locfield.greens.StarBoundary`, whose rate
:func:`gamma_total_linear` assembles.

Everything in this module is strictly first order in chi; the accompanying
validity report quantifies when that is trustworthy (optically small
body, weak absorption relative to the cavity volume).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import (ORIENTATIONS, AccuracyError, cavity_scale_faults,
                     check_chi, check_qc, chi_faults, finite_rate,
                     inside_sphere, number, orientation_faults, qc_faults,
                     raise_first)
from .greens import (_BRACE_EI, StarBoundary, _body_green, _brace_parts,
                     _gauss_legendre, _sphere_moments,
                     _sphere_moments_near_centre, _unit_3vector)
from .specfun import _EI_SPLIT, _bessel_j_orders

__all__ = [
    "ORIENTATIONS",
    "RateBreakdown",
    "ValidityReport",
    "gamma_c_linear",
    "gamma_b_sphere_linear",
    "gamma_total_linear",
    "validity_check",
]

# thresholds of the two linearity conditions (see validity_check)
_CHI_SIZE_MAX = 0.3
_ABSORPTION_MAX = 0.1

_Z_HAT = np.array([0.0, 0.0, 1.0])
# the formula that a linear cavity term past double range is refused by
_CAVITY_TERM = "the linear cavity term Im chi (1/q_C^3 + 1/q_C) + 7/6 Re chi"

# largest bound, relative to each moment, under which an off-centre row
# takes the moments of greens._sphere_moments, of the series of
# greens._sphere_moments_near_centre or of quad
_CLOSED_FORM_REL = 1.0e-13
# absolute tolerance on each linear body term, the rate's rounding bound
# included
_TOL = 1.0e-10

# nodes of quad's Filon-Legendre rule, and geometries per block of it:
# the (3, geometries, nodes) complex temporaries of a block of 512 are
# 0.8 MB each
_FILON_NODES = 32
_FILON_BLOCK = 512
# the moments of P and Q far from the emitter, P_far = -4 pi/3 and
# Q_far = 4 pi, where Ei(2iq) -> i pi: 2 P_far, 2 Q_far and 2 Q_far/3
_FAR_MOMENTS = np.pi * np.array([[-8.0 / 3.0], [8.0], [8.0 / 3.0]])
# ulps of quad's rounding bound: the nodes' own rounding, which the
# powers of 1/q in P, Q and the weights (up to 1/q^5) multiply near the
# emitter, and a dozen roundings of each term take up to about 13 of them
# (measured against 60-digit moments)
_FILON_ULPS = 2.0**-47


@dataclasses.dataclass(frozen=True)
class ValidityReport:
    """Computed values and pass flags of the two linearity conditions.

    chi_size: |chi| * q_max, the Born expansion parameter over the body
        (threshold 0.3).
    absorption: Im(chi)/q_C^3, absorption accumulated over the cavity
        volume (threshold 0.1); beyond it the rate is dominated by
        nonradiative transfer into the immediate neighbourhood.
    """

    chi_size_value: float
    chi_size_ok: bool
    absorption_value: float
    absorption_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.chi_size_ok and self.absorption_ok


@dataclasses.dataclass(frozen=True)
class RateBreakdown:
    """Decay rate split Gamma/Gamma_0 = 1 + gamma_c + gamma_b."""

    gamma_c_ratio: float
    gamma_b_ratio: float
    total_ratio: float = dataclasses.field(init=False)
    validity: ValidityReport | None = None

    def __post_init__(self):
        object.__setattr__(self, "total_ratio",
                           1.0 + self.gamma_c_ratio + self.gamma_b_ratio)


def gamma_c_linear(chi, q_C: float) -> float:
    """Linear cavity contribution gamma_c to Gamma/Gamma_0.

        gamma_c = Im(chi) (1/q_C^3 + 1/q_C) + (7/6) Re(chi)

    The 1/q_C^3 term is nonradiative energy transfer to the absorbing
    material bordering the cavity; the 7/6 constant is what turns the
    vacuum rate into the linear bulk rate 1 + 7 chi/6.  NonFiniteError
    where it leaves double range (|Re chi| beyond about 1.54e308).
    """
    chi = check_chi(chi)
    return finite_rate(_cavity_term(chi, check_qc(q_C, np.imag(chi))),
                       _CAVITY_TERM)


def _cavity_term(chi, q_C: float):
    """gamma_c of :func:`gamma_c_linear`, unchecked, and not finite (with
    no warning) where it leaves double range; chi a complex or an array."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (chi.imag * (1.0 / q_C**3 + 1.0 / q_C)
                + (7.0 / 6.0) * chi.real)


def _center_rows(q_R, chi):
    """Tomas's linear body rate at the centre of the spheres q_R, for
    arrays q_R and chi, and a bound on each value's rounding error: with
    q = q_R, t = 1/q, chi = c_r + i c_i, a = t^3 - t and b = 1/2 - 2 t^2,

        gamma_b = -Im{ chi (1/q^3 - 2i/q^2 - 1/q + i/2) e^{2iq} }
                = -Im[chi (a + i b) e^{2iq}]
                = -[(c_r a - c_i b) sin 2q + (c_r b + c_i a) cos 2q],

    in real arithmetic on one sin/cos pair; for real chi and large q it
    oscillates as -(chi/2) cos 2q, within 2 chi/q.  Each of the eight terms
    (c_r t^3 sin 2q, c_r t sin 2q, ...) passes through at most twelve
    roundings of 2^-53: five in t^3 (t's three times, t^2's and t^3's),
    one in t^3 - t, two with chi, two in sin or cos (one ulp) and two
    after.  One more covers second-order terms and the bound's own
    rounding: the bound is 6.5 2^-52 times the summed moduli of the
    terms, not finite where a term leaves double range.
    """
    with np.errstate(all="ignore"):
        t = 1.0 / q_R
        t2 = t * t
        t3 = t2 * t
        a, b = t3 - t, 0.5 - 2.0 * t2
        y = 2.0 * q_R
        cos, sin = np.cos(y), np.sin(y)
        c_r, c_i = chi.real, chi.imag
        value = -((c_r * a - c_i * b) * sin + (c_r * b + c_i * a) * cos)
        size = ((np.abs(c_r * sin) + np.abs(c_i * cos)) * (t3 + t)
                + (np.abs(c_i * sin) + np.abs(c_r * cos)) * (0.5 + 2.0 * t2))
        return value, 6.5 * 2.0**-52 * size


def gamma_b_sphere_linear(q_R, q_L, chi, orientation="radial") -> float:
    """Linear body contribution for an emitter inside a sphere of optical
    radius q_R, displaced q_L from its centre.

    The angular integral over the boundary reduces to one dimension in
    x = cos(theta) (theta measured from the displacement axis):

        gamma_b = -(3/4) Im[ chi * Int_{-1}^{1} f(q_o(x), z(x)) dx ]

    with q_o(x) the emitter-to-surface distance, z = x^2 for a radially
    oriented dipole and z = (1 - x^2)/2 for a tangential one.  Checked
    once, the row is a one-element column of :func:`_gamma_b_rows` (at
    q_L = 0 Tomas's closed form), equal to that row of ``compute``'s bit
    for bit, and raises its AccuracyError: where no route certifies the
    row, or its rounding bound exceeds _TOL = 1e-10.

    Parameters
    ----------
    q_R, q_L : 0 <= q_L < q_R, as :func:`locfield.mie.gamma_b_exact`
        takes them (the body term keeps no cavity clearance)
    chi : complex, Im chi >= 0
    orientation : {"radial", "tangential"}
        Dipole along the displacement axis or perpendicular to it
        (degenerate at q_L = 0).
    """
    q_R, q_L = number("q_R", q_R, float), number("q_L", q_L, float)
    chi = number("chi", chi)
    raise_first((*inside_sphere(q_R, q_L), *chi_faults(chi),
                 *orientation_faults(orientation)))
    values, errors = _gamma_b_rows(np.array([q_R]), np.array([q_L]),
                                   np.array([chi]), np.array([orientation]))
    if errors:
        raise errors[0]
    return values.item()


def _gamma_b_rows(q_R, q_L, chi, orient):
    """Linear body terms of the rows q_R, q_L (float), chi (complex) and
    orient ("radial" or "tangential"), four (N,) arrays that passed the
    rules of :func:`gamma_b_sphere_linear`, or of a RateRequest and
    compute in :mod:`locfield.rates`, and are not checked again.  chi
    stands outside the integral, so the three chi-free moments are
    evaluated once per distinct geometry (q_R, q_L) and route, and a
    row's rate is the scalar -(3/4) Im(chi I), I = M0 + M2 (radial) or
    M0 + (M1 - M2)/2 (tangential).  An off-centre row takes the first of
    three routes that certifies it: the bound of each of its geometry's
    moments within _CLOSED_FORM_REL of the moment, and the rate's within
    _TOL.  The routes, each on the geometries of the rows still open, are
    the closed form of :func:`locfield.greens._sphere_moments`, a
    difference of antiderivatives at q_R -/+ q_L; the Taylor series in
    q_L of :func:`locfield.greens._sphere_moments_near_centre`, where that
    cancels; and the Filon-Legendre rule of :func:`quad`, which takes the
    oscillation e^{2iq} out and so holds in large spheres too.  The first
    two bound the moments' moduli, and the rate's bound is (3/4) |chi|
    times the bounds' contraction; the rule bounds the real and imaginary
    parts apart, and the rate's bound is (3/4) (|Re chi| b_im + |Im chi|
    b_re), inf past double range.  A row that none certifies fails with
    AccuracyError naming q_R, q_L and the rule's bound: its moments'
    bound relative to them where that is above _CLOSED_FORM_REL, else the
    rate's bound above _TOL.  A centred row (q_L = 0), in either
    orientation, is Tomas's closed form of :func:`_center_rows`, or an
    AccuracyError naming q_R and the bound where that exceeds _TOL (a
    rule would only multiply the same coefficients by its weights).

    Returns
    -------
    (values, errors) : the (N,) body terms, and a dict mapping the index
    of each row that failed to its AccuracyError (that row's value is
    NaN).  Rows with chi = 0 are 0.
    """
    values = np.zeros(q_R.shape)
    errors = {}
    center = np.flatnonzero((chi != 0) & (q_L == 0.0))
    if center.size:
        values[center], bounds = _center_rows(q_R[center], chi[center])
        _refuse(values, errors, center, bounds,
                lambda k: f"centre rate at q_R = {q_R[center[k]]:g}")
    live = np.flatnonzero((chi != 0) & (q_L > 0.0))
    if live.size == 0:
        return values, errors
    # rows sharing a geometry are adjacent, so that each geometry's
    # moments are formed once
    live = live[np.lexsort((q_L[live], q_R[live]))]
    q_R, q_L = q_R[live], q_L[live]
    first = np.r_[True, (q_R[1:] != q_R[:-1]) | (q_L[1:] != q_L[:-1])]
    geometry = np.cumsum(first) - 1
    q_R, q_L = q_R[first], q_L[first]
    chi = chi[live]
    tangential = orient[live] == "tangential"
    # the rows still open, into live, their geometries and each row's
    # among them: at first every row and every geometry
    rest, g, at = np.arange(live.size), np.arange(q_R.size), geometry
    for moments_of, bound_of in ((_sphere_moments, _modulus_bound),
                                 (_sphere_moments_near_centre,
                                  _modulus_bound),
                                 (quad, _parts_bound)):
        if rest.size < live.size:
            # the open rows' geometries, once each, adjacent as above
            ids = geometry[rest]
            first = np.r_[True, ids[1:] != ids[:-1]]
            g, at = ids[first], np.cumsum(first) - 1
        moments, bounds = moments_of(q_R[g], q_L[g])
        c, t = chi[rest], tangential[rest]
        b0, b1, b2 = bounds[:, at]
        with np.errstate(over="ignore"):  # a bound past double range fails
            bound = bound_of(c, b0 + np.where(t, 0.5 * (b1 + b2), b2))
        sizes = np.abs(bounds)
        formed = _certified(moments, sizes)[at] & (bound <= _TOL)
        values[live[rest[formed]]] = _rate(c[formed], t[formed],
                                           *moments[:, at[formed]])
        if formed.all():
            return values, errors
        rest, at, bound = rest[~formed], at[~formed], bound[~formed]
    labels = [f"body rate at q_R = {q_R[i]:g}, q_L = {q_L[i]:g}"
              for i in g[at].tolist()]
    # a row not formed under its bound (a moment 0, say) has a bound that
    # is not a number; where the moments are over theirs, that names it
    _refuse(values, errors, live[rest],
            np.where(bound > _TOL, bound, np.nan), labels.__getitem__)
    with np.errstate(all="ignore"):
        rel = (sizes / np.abs(moments)).max(axis=0)[at]
    for k in np.flatnonzero(np.isfinite(rel)
                            & (rel > _CLOSED_FORM_REL)).tolist():
        errors[int(live[rest[k]])] = AccuracyError(
            f"linear {labels[k]} has moments that may be off by "
            f"{rel[k]:.1e} of themselves, above {_CLOSED_FORM_REL:g}")
    return values, errors


def _modulus_bound(chi, b):
    """The rows' rate bounds from b, a bound on the modulus of their
    Int (P + z Q) dx (the closed form's and the series')."""
    return 0.75 * np.abs(chi) * b


def _parts_bound(chi, b):
    """The rows' rate bounds from b, whose real and imaginary parts bound
    those of their Int (P + z Q) dx apart (the rule's); a part of chi
    that is 0 takes none of a bound, inf as it may be."""
    return 0.75 * (np.abs(chi.real) * np.where(chi.real, b.imag, 0.0)
                   + np.abs(chi.imag) * np.where(chi.imag, b.real, 0.0))


def _certified(moments, bounds):
    """Whether each geometry's three moments are finite, with each bound
    within _CLOSED_FORM_REL of its moment."""
    return (np.isfinite(moments).all(axis=0)
            & (bounds <= _CLOSED_FORM_REL * np.abs(moments)).all(axis=0))


def _refuse(values, errors, rows, bounds, rate):
    """Refuse each of the rows whose rounding bound exceeds _TOL (or is
    not finite): a NaN value and an AccuracyError naming rate(k), the
    k-th row's rate and where it is, and the bound, or that it is NaN."""
    for k in np.flatnonzero(~(bounds <= _TOL)).tolist():
        values[rows[k]] = np.nan
        errors[int(rows[k])] = AccuracyError(
            f"linear {rate(k)} has a rounding bound that is not a number, "
            f"so it cannot be held to tol = {_TOL:g}" if np.isnan(bounds[k])
            else f"linear {rate(k)} may be off by {bounds[k]:.1e} from "
            f"rounding, above tol = {_TOL:g}")


def _rate(chi, tangential, m0, m1, m2):
    """The rows' body terms -(3/4) Im(chi Int (P + z Q) dx) from their
    moments: z is the squared projection (s.d)^2 averaged over azimuth,
    x^2 for a radial dipole and (1 - x^2)/2 for a tangential one."""
    return -0.75 * (chi * np.where(tangential, m0 + 0.5 * (m1 - m2),
                                   m0 + m2)).imag


@functools.cache
def _filon_table():
    """The nodes x_i of the Gauss-Legendre rule of _FILON_NODES nodes, and
    the table w_i (2l + 1) P_l(x_i) of its weights w_i, rows l = 0 .. n-1;
    built on first use and read-only."""
    n = _FILON_NODES
    x, w = _gauss_legendre(n)
    table = (np.polynomial.legendre.legvander(x, n - 1)
             * (2.0 * np.arange(n) + 1.0)).T * w
    table.flags.writeable = False
    return x, table


def quad(q_R, q_L):
    """The moments M0, M1 and M2 of :func:`locfield.greens._sphere_moments`
    by a Filon-Legendre rule (Filon 1929; Iserles & Norsett 2005), with
    no 1/q_L that cancels near the centre, and bounds on their errors.

    With s = (q - q_R)/q_L in [-1, 1], t = 1/q and A = q_R^2 - q_L^2,

        M0 = 1/2 Int P a ds,  M1 = 1/2 Int Q a ds,  M2 = 1/2 Int Q a x^2 ds,
        a = 1 + A t^2,  x = -(q_L + 2 q_R s + q_L s^2) t/2,

    with A t^2 formed as (q_- t)(q_+ t), which does not overflow.  P and Q
    are their far values plus e^{2iq} times amplitudes A that do not
    oscillate and are smooth across y = 2q = 4, where the evaluation of
    Ei changes form (:func:`locfield.greens._brace_parts`).  The far
    values give _FAR_MOMENTS exactly; the rest is
    e^{2iq_R}/2 Int e^{iks} g(s) ds, k = 2 q_L, for each amplitude times
    its weight, g.  The rule integrates the polynomial through g at the
    n = _FILON_NODES Gauss-Legendre nodes s_i exactly, by
    Int e^{iks} P_l(s) ds = 2 i^l j_l(k): weights
    W_i = w_i Sum_{l<n} (2l + 1) i^l j_l(k) P_l(s_i), the j_l from
    :func:`locfield.specfun._bessel_j_orders`.  Each geometry's products
    are its own, so that its moments do not depend on the geometries
    beside it, and the geometries go in blocks of _FILON_BLOCK.

    Returns
    -------
    (moments, bounds) : the (3, G) complex moments and (3, G) complex
    bounds, whose real and imaginary parts bound the errors of the
    moments' real and imaginary parts apart.  Each is _FILON_ULPS times
    the moduli of the far value and of the terms W_i g_i (the rounding,
    of which the comment below says more), plus a truncation estimate
    from the last two Legendre coefficients of g: with d their moduli
    summed, twice their sizes (a factor 2 to spare),
    d (|j_{n-2}(k)| + |j_{n-1}(k)|), where the oscillation takes the
    tail, plus d^2/max|g|, the aliasing that stays where k is small.
    The bounds are within 1e-13 of the moments out to q_L/q_R of about
    0.65 for q_R up to 5, 0.55 at 50 to 100 and 0.6 to 0.7 from 1e3 to
    1e5, and grow past that.
    """
    x, table = _filon_table()
    n = x.size
    q_R, q_L = (np.asarray(a, dtype=float).reshape(-1, 1) for a in (q_R, q_L))
    moments = np.empty((3, q_R.size), dtype=complex)
    bounds = np.empty((3, q_R.size), dtype=complex)
    for start in range(0, q_R.size, _FILON_BLOCK):
        block = slice(start, start + _FILON_BLOCK)
        r, l = q_R[block], q_L[block]
        with np.errstate(all="ignore"):
            q = r + l * x
            t = 1.0 / q
            a = 1.0 + ((r - l) * t) * ((r + l) * t)
            weight = np.stack(
                [a, a, a * (0.5 * (l + (2.0 * r + l * x) * x) * t) ** 2])
            # P = P_far + e^{iy} A: below _EI_SPLIT the part u + i (v - pi)
            # of Ei, which does not oscillate, joins A through e^{-iy}
            y, u, v, amp = _brace_parts(q.ravel())
            low = np.flatnonzero(y < _EI_SPLIT)
            amp[:, low] += (1j * _BRACE_EI) * (
                u[low] + 1j * (v[low] - np.pi)) * np.exp(-1j * y[low])
            amp = amp.reshape(2, *q.shape)
            g = amp[[0, 1, 1]] * weight
            j = _bessel_j_orders(2.0 * l[:, 0], n)
            W = ((1j ** np.arange(n)[:, None] * j).T[:, None] @ table)[:, 0]
            moments[:, block] = _FAR_MOMENTS + 0.5 * np.exp(2j * r[:, 0]) * (
                W * g).sum(axis=2)
            # each part of an amplitude is rounded within its own size, the
            # real part (the larger near the emitter) also within the
            # rounding of its node; e^{2iq}, which W and e^{2iq_R} make,
            # turns a rounding into the other part by up to 2 q_+ radians:
            # min(1, q_+) |A|, with the ulps to spare; W_i is rounded within
            # the moduli of its terms, which cancel where k is large
            turn = np.minimum(1.0, r + l) * np.abs(amp)
            rounding = (np.abs(amp.real) * (1.0 + l * t) + turn
                        + 1j * (np.abs(amp.imag) + turn))
            moduli = (np.abs(j).T[:, None] @ np.abs(table))[:, 0]
            # the last two Legendre coefficients of g, row by row, as
            # g @ table.T, one BLAS product of all the geometries, is not
            d = sum(np.abs((g * row).sum(axis=2)) for row in table[-2:])
            bounds[:, block] = (
                _FILON_ULPS * (np.abs(_FAR_MOMENTS) + 0.5 * (
                    moduli * weight * rounding[[0, 1, 1]]).sum(axis=2))
                + (1 + 1j) * d * (np.abs(j[-2:]).sum(axis=0)
                                  + d / np.abs(g).max(axis=2)))
    return moments, bounds


def gamma_total_linear(boundary: StarBoundary, chi, q_C,
                       dipole=None) -> RateBreakdown:
    """Assembled linear rate Gamma/Gamma_0 = 1 + gamma_c + gamma_b of an
    emitter in the body that ``boundary`` encloses.

    gamma_b is the general angular quadrature of
    :func:`locfield.greens.body_green_linear` contracted with ``dipole``,
    a unit 3-vector (default z-hat); a bulk boundary contributes
    gamma_b = 0.  chi and q_C are checked once, as
    :func:`gamma_c_linear` checks them.  A sphere's rate is
    ``compute(RateRequest(method="linear_born", ...))``, on the rows of
    :func:`_gamma_b_rows`.
    """
    chi = check_chi(chi)
    gamma_c = finite_rate(_cavity_term(chi, check_qc(q_C, chi.imag)),
                          _CAVITY_TERM)
    gamma_b = 0.0
    if not boundary.is_bulk:
        d = _Z_HAT if dipole is None else _unit_3vector(dipole)
        g_b = _body_green(boundary, chi)
        gamma_b = 6.0 * np.pi * float(np.imag(d @ g_b @ d))
    return RateBreakdown(float(gamma_c), gamma_b)


def validity_check(boundary: StarBoundary, chi, q_C) -> ValidityReport:
    """Quantify the two conditions behind the linear-rate formulas.

    (i)  |chi| * q_max <= 0.3, with q_max the boundary's, the largest
         emitter-to-boundary optical distance (q_L + q_R for a sphere),
         and 1 for bulk, where dephasing limits the effective
         interaction range to ~1.
    (ii) Im(chi)/q_C^3 <= 0.1, absorption within the cavity-scale volume.

    Both computed values are always returned so callers can apply their
    own thresholds.  q_C obeys the cavity-radius rule.
    """
    chi = check_chi(chi)
    q_C = number("q_C", q_C, float)
    raise_first((*qc_faults(q_C),
                 *cavity_scale_faults("q_C", q_C, np.imag(chi))))
    with np.errstate(over="ignore", invalid="ignore"):
        values = _validity_values(
            chi, 1.0 if boundary.is_bulk else boundary.q_max, q_C)
    return _validity_report(*map(float, values))


def _validity_values(chi, q_max, q_C: float):
    """|chi| q_max and Im(chi)/q_C^3, for a complex chi or an array of
    them with q_max alike; the caller ignores overflow and invalid
    values, so that |chi| q_max beyond double range is inf, which fails,
    and at chi = 0 it is 0 for any q_max, inf too (fmax drops the NaN of
    0 inf)."""
    return np.fmax(np.abs(chi) * q_max, 0.0), chi.imag / q_C**3


def _validity_ok(chi_size, absorption):
    """Whether the two validity values pass their thresholds."""
    return chi_size <= _CHI_SIZE_MAX, absorption <= _ABSORPTION_MAX


def _validity_report(chi_size: float, absorption: float) -> ValidityReport:
    """The report of two validity values, Python floats (an array's
    ``.tolist()``), so that its flags are Python bools."""
    chi_size_ok, absorption_ok = _validity_ok(chi_size, absorption)
    return ValidityReport(chi_size, chi_size_ok, absorption, absorption_ok)
