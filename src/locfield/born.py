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
dimension in x = cos(theta).  chi multiplies an integral of the geometry
alone: three chi-free moments per distinct sphere geometry (q_R, q_L),
and each row, whatever its chi and orientation, is a scalar contraction
of its geometry's moments.  Off the centre the moments come by the
first of three routes whose bound certifies them: a closed form, a
difference of antiderivatives at the endpoint distances q_R -/+ q_L
(:func:`locfield.greens._sphere_moments`); a Taylor series in the
emitter offset q_L (:func:`locfield.greens._sphere_moments_near_centre`)
near the centre, where the closed form cancels; else a Gauss-Legendre
rule whose node count doubles until the rate settles, guarded by a
rounding bound from the moduli of its terms.
At the centre the rate itself has a closed form, Tomas's (no moments
and no quadrature), guarded by a rounding bound of its own.  All of
this works on rows: :func:`gamma_b_sphere_rows` takes a batch of sphere
configurations, such as a whole sweep, in one call, each row settling
(or failing) on its own, and :func:`gamma_b_sphere_linear` is one row
of it, as :func:`gamma_b_center_closed` is one centred row.
:func:`locfield.rates.compute_batch` is the entry point that groups rate
requests into such batches.

Everything in this module is strictly first order in chi; the accompanying
validity report quantifies when that is trustworthy (optically small
body, weak absorption relative to the cavity volume).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .errors import (ORIENTATIONS, QC_DEFAULT, TOL_DEFAULT, AccuracyError,
                     DomainError, NonFiniteError, cavity_scale_faults,
                     chi_faults, check_qc, inside_sphere, orientation_faults,
                     positive, qc_faults, raise_first, sphere_faults,
                     warn_qc)
from .greens import (_GL_N_MAX, _GL_N_MIN, StarBoundary, _brace_coeffs,
                     _gauss_legendre, _sphere_distance, _sphere_moments,
                     _sphere_moments_near_centre, body_green_linear,
                     unit_vector)

__all__ = [
    "ORIENTATIONS",
    "SphereConfig",
    "RateBreakdown",
    "ValidityReport",
    "gamma_c_linear",
    "gamma_b_center_closed",
    "gamma_b_sphere_linear",
    "gamma_b_sphere_rows",
    "gamma_total_linear",
    "validity_check",
]

# thresholds of the two linearity conditions (see validity_check)
_CHI_SIZE_MAX = 0.3
_ABSORPTION_MAX = 0.1

_Z_HAT = np.array([0.0, 0.0, 1.0])

# largest bound, relative to each moment, under which an off-centre row
# takes the closed form of greens._sphere_moments or the series of
# greens._sphere_moments_near_centre
_CLOSED_FORM_REL = 1.0e-13

# values per block of a quad pass (rows x nodes): 2**15 complex
# temporaries are 0.5 MB each, and 256 rows at 128 nodes fit in one block
_QUAD_BLOCK = 1 << 15


def _check_chi(chi) -> complex:
    chi = complex(chi)
    raise_first(chi_faults(chi))
    return chi


@dataclasses.dataclass(frozen=True)
class SphereConfig:
    """Sphere geometry in optical units: radius q_R = k_A R, emitter
    displacement q_L = k_A l_A from the center, cavity radius q_C = k_A R_C.

    ``nu`` is a validity margin: the emitter cavity must keep a clearance
    of (1 + nu) q_C from the surface.  Configurations with the emitter at
    (or too near) the surface are rejected outright, the model breaks
    down there.
    """

    q_R: float
    q_L: float = 0.0
    q_C: float = QC_DEFAULT
    nu: float = 0.0

    def __post_init__(self):
        for name in ("q_R", "q_L", "q_C", "nu"):
            object.__setattr__(self, name, float(getattr(self, name)))
        raise_first(sphere_faults(self.q_R, self.q_L, self.q_C, self.nu),
                    self.q_R, self.q_L)
        warn_qc(self.q_C)

    def boundary(self) -> StarBoundary:
        return StarBoundary.sphere(self.q_R, self.q_L)


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
    total_ratio: float
    validity: ValidityReport | None = None

    def __post_init__(self):
        if self.total_ratio != 1.0 + self.gamma_c_ratio + self.gamma_b_ratio:
            raise DomainError("total_ratio must equal "
                              "1 + gamma_c_ratio + gamma_b_ratio exactly; "
                              "use RateBreakdown.from_parts")

    @classmethod
    def from_parts(cls, gamma_c: float, gamma_b: float,
                   validity: ValidityReport | None = None) -> "RateBreakdown":
        gamma_c = float(gamma_c)
        gamma_b = float(gamma_b)
        return cls(gamma_c_ratio=gamma_c, gamma_b_ratio=gamma_b,
                   total_ratio=1.0 + gamma_c + gamma_b, validity=validity)


def gamma_c_linear(chi, q_C: float) -> float:
    """Linear cavity contribution gamma_c to Gamma/Gamma_0.

        gamma_c = Im(chi) (1/q_C^3 + 1/q_C) + (7/6) Re(chi)

    The 1/q_C^3 term is nonradiative energy transfer to the absorbing
    material bordering the cavity; the 7/6 constant is what turns the
    vacuum rate into the linear bulk rate 1 + 7 chi/6.
    """
    chi = _check_chi(chi)
    return _cavity_term(chi, check_qc(q_C, np.imag(chi)))


def _cavity_term(chi, q_C: float):
    """gamma_c of :func:`gamma_c_linear`, unchecked; chi a complex or a
    complex array."""
    return (np.imag(chi) * (1.0 / q_C**3 + 1.0 / q_C)
            + (7.0 / 6.0) * np.real(chi))


def quad(f, rows: int, tol: float):
    """Row-wise integrals over [-1, 1] by Gauss-Legendre rules.

    f(x, w, idx) returns the (len(idx),) values of the rows idx under the
    rule of nodes x and weights w; n = 64 nodes, doubled up to n = 2048.
    A row is done once two successive passes differ by no more than the
    absolute tolerance tol, and leaves the passes that follow.  Each
    pass hands f blocks of at most _QUAD_BLOCK // n rows, so that their
    (rows, n) temporaries stay bounded however many rows there are.

    Returns
    -------
    (values, errors) : the (rows,) integrals, and a dict mapping each row
    that still changed by more than tol at n = 2048 to its
    AccuracyError; the value of such a row is NaN.
    """
    values = np.full(rows, np.nan)
    idx = np.arange(rows)
    n = _GL_N_MIN
    prev = _quad_pass(f, n, idx)
    while n < _GL_N_MAX and idx.size:
        n *= 2
        cur = _quad_pass(f, n, idx)
        change = np.abs(cur - prev)
        done = change <= tol
        values[idx[done]] = cur[done]
        idx, prev, change = idx[~done], cur[~done], change[~done]
    return values, {
        int(i): AccuracyError(f"1D Gauss-Legendre rule did not settle to "
                              f"{tol:g} by n = {n}; last change {c:.3e}")
        for i, c in zip(idx, change)}


def _quad_pass(f, n: int, idx) -> np.ndarray:
    x, w = _gauss_legendre(n)
    step = max(1, _QUAD_BLOCK // n)
    return np.concatenate([f(x, w, idx[k:k + step])
                           for k in range(0, idx.size, step)])


def gamma_b_center_closed(q_R: float, chi) -> float:
    """Closed-form linear body rate for an emitter at the sphere center.

        gamma_b = -Im{ chi (1/q^3 - 2i/q^2 - 1/q + i/2) e^{2iq} },  q = q_R.

    For real chi and large q_R this oscillates as -(chi/2) cos(2 q_R)
    with remainder bounded by 2 chi/q_R.  One row of :func:`_center_rows`,
    with no tolerance: its rounding error grows as chi/q_R^3, which the
    centred rows of :func:`gamma_b_sphere_rows` refuse above tol.
    """
    q = float(q_R)
    raise_first(positive("q_R", q))
    value, bound = _center_rows(np.array([q]), np.array([_check_chi(chi)]))
    if not np.isfinite(bound[0]):
        raise NonFiniteError(f"linear centre rate at q_R = {q:g} leaves "
                             f"double range")
    return float(value[0])


def _center_rows(q_R, chi):
    """The closed form of :func:`gamma_b_center_closed` for arrays q_R and
    chi, and a bound on each value's rounding error.

    With t = 1/q_R, chi = c_r + i c_i, a = t^3 - t and b = 1/2 - 2 t^2,

        gamma_b = -Im[chi (a + i b) e^{2iq}]
                = -[(c_r a - c_i b) sin 2q + (c_r b + c_i a) cos 2q],

    in real arithmetic on one sin/cos pair.  Each of the eight terms
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


def gamma_b_sphere_linear(config: SphereConfig, chi,
                          orientation: str = "radial",
                          tol: float = TOL_DEFAULT) -> float:
    """Linear body contribution for an emitter inside a sphere.

    The angular integral over the boundary reduces to one dimension in
    x = cos(theta) (theta measured from the displacement axis):

        gamma_b = -(3/4) Im[ chi * Int_{-1}^{1} f(q_o(x), z(x)) dx ]

    with q_o(x) the emitter-to-surface distance, z = x^2 for a radially
    oriented dipole and z = (1 - x^2)/2 for a tangential one.  Off the
    centre the integral comes by the first of three routes whose bound
    certifies it:

    * the closed form in the endpoint distances q_R - q_L and q_R + q_L
      (:func:`locfield.greens._sphere_moments`), from q_L/q_R of about
      0.17 out to the surface for q_R <= 10, a narrower band toward the
      surface for larger spheres;
    * the Taylor series in q_L
      (:func:`locfield.greens._sphere_moments_near_centre`), out to
      q_L/q_R of about 0.24 for q_R up to about 5 and to q_L of about
      2.2 in larger spheres;
    * :func:`quad`, Gauss-Legendre in x with the node count doubled from
      64 to 2048 until the rate settles, refused with AccuracyError
      where its rounding bound exceeds tol (at chi = 0.1, below q_R of
      about 6e-3, 3.5e-2 at q_L/q_R = 0.9).

    At the centre the rate is the closed form of
    :func:`gamma_b_center_closed`, refused with AccuracyError where its
    rounding bound exceeds tol (at chi = 0.1, below q_R of about 2e-3).
    This is one row of :func:`gamma_b_sphere_rows`.

    Parameters
    ----------
    config : SphereConfig
    chi : complex, Im chi >= 0
    orientation : {"radial", "tangential"}
        Dipole along the displacement axis or perpendicular to it
        (degenerate at q_L = 0).
    tol : float
        Absolute tolerance on the returned rate.
    """
    values, errors = gamma_b_sphere_rows(config.q_R, config.q_L, chi,
                                         orientation, tol)
    if errors:
        raise errors[0]
    return float(values[0])


def gamma_b_sphere_rows(q_R, q_L, chi, orientation="radial",
                        tol: float = TOL_DEFAULT):
    """Linear body terms of many sphere configurations in one call.

    q_R, q_L, chi and orientation are scalars or 1-D arrays that
    broadcast to N rows; orientation is "radial" or "tangential" per
    row.  Every row must have its emitter inside the sphere and a
    passive chi, checked once as arrays.  All rows share tol.  chi
    stands outside the integral, so the three chi-free moments are
    evaluated once per distinct geometry (q_R, q_L), and a row's rate is
    the scalar -(3/4) Im(chi I), I = M0 + M2 (radial) or M0 + (M1 - M2)/2
    (tangential).  An off-centre row's moments come by three routes,
    the first two with one rule: each moment's bound within
    _CLOSED_FORM_REL of it, and the rate's, (3/4) |chi| times the
    bounds' contraction, within tol.  They are the closed form of
    :func:`locfield.greens._sphere_moments` where that certifies them,
    else the Taylor series in q_L of
    :func:`locfield.greens._sphere_moments_near_centre` where that does;
    the other off-centre rows go through one row-wise :func:`quad` of
    the moments of :func:`_moments`, and fail with AccuracyError naming
    q_R, q_L and the bound where the rule's rounding bound,
    (3/4) |chi| 2^-52 Sum w (|P| + z |Q|) in its last pass, exceeds tol.
    A centred row (q_L = 0), in
    either orientation, is the closed form of :func:`_center_rows`, or an
    AccuracyError naming q_R and the bound where that exceeds tol (a rule
    would only multiply the same coefficients by its weights).

    Returns
    -------
    (values, errors) : the (N,) body terms, as :func:`gamma_b_sphere_linear`
    gives them row by row, and a dict mapping the index of each row that
    failed, a row over its rounding bound or a rule that did not settle,
    to its AccuracyError (that row's value is NaN).  Rows with chi = 0
    are 0.
    """
    q_R, q_L, chi, orientation = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(q_R, dtype=float), np.asarray(q_L, dtype=float),
        np.asarray(chi, dtype=complex), np.asarray(orientation)))
    raise_first(itertools.chain(inside_sphere(q_R, q_L), chi_faults(chi),
                                positive("tol", tol)))
    for o in set(orientation.tolist()):
        raise_first(orientation_faults(o))
    values = np.zeros(q_R.shape)
    errors = {}
    center = np.flatnonzero((chi != 0) & (q_L == 0.0))
    if center.size:
        values[center], bounds = _center_rows(q_R[center], chi[center])
        _refuse(values, errors, center, bounds, tol,
                lambda k: f"centre rate at q_R = {q_R[center[k]]:g}")
    live = np.flatnonzero((chi != 0) & (q_L > 0.0))
    if live.size == 0:
        return values, errors
    # rows sharing a geometry are adjacent, so that the rows of one
    # geometry fall in as few of quad's blocks as possible
    live = live[np.lexsort((q_L[live], q_R[live]))]
    q_R, q_L = q_R[live], q_L[live]
    first = np.r_[True, (q_R[1:] != q_R[:-1]) | (q_L[1:] != q_L[:-1])]
    geometry = np.cumsum(first) - 1
    q_R, q_L = q_R[first], q_L[first]
    chi = chi[live]
    tangential = orientation[live] == "tangential"
    moments, bounds = _sphere_moments(q_R, q_L)
    certified = _certified(moments, bounds)
    near = np.flatnonzero(~certified)
    if near.size:
        series = _sphere_moments_near_centre(q_R[near], q_L[near])
        take = _certified(*series)
        near = near[take]
        moments[:, near], bounds[:, near] = (a[:, take] for a in series)
        certified[near] = True
    b0, b1, b2 = bounds[:, geometry]
    formed = certified[geometry] & (
        0.75 * np.abs(chi) * (b0 + np.where(tangential, 0.5 * (b1 + b2), b2))
        <= tol)
    values[live[formed]] = _rate(chi[formed], tangential[formed],
                                 *moments[:, geometry[formed]])
    rest = np.flatnonzero(~formed)
    if rest.size == 0:
        return values, errors
    live, geometry = live[rest], geometry[rest]
    chi, tangential = chi[rest], tangential[rest]
    # each pass overwrites the bounds of the rows it takes, so a row
    # keeps those of the pass at which it settled
    bounds = np.full(live.size, np.nan)

    def rate(x, w, idx):
        g, rows = np.unique(geometry[idx], return_inverse=True)
        moments, moduli = _moments(q_R[g], q_L[g], x, w)
        bounds[idx] = (0.75 * 2.0**-52 * np.abs(chi[idx])
                       * _integral(tangential[idx], *moduli[:, rows]))
        return _rate(chi[idx], tangential[idx], *moments[:, rows])

    with np.errstate(all="ignore"):  # a tiny sphere fails its bound
        got, unsettled = quad(rate, live.size, tol)
    values[live] = got
    errors.update((int(live[i]), exc) for i, exc in unsettled.items())
    _refuse(values, errors, live, bounds, tol,
            lambda k: f"body rate at q_R = {q_R[geometry[k]]:g}, "
                      f"q_L = {q_L[geometry[k]]:g}")
    return values, errors


def _certified(moments, bounds):
    """Whether each geometry's three moments are finite, with each bound
    within _CLOSED_FORM_REL of its moment."""
    return (np.isfinite(moments).all(axis=0)
            & (bounds <= _CLOSED_FORM_REL * np.abs(moments)).all(axis=0))


def _refuse(values, errors, rows, bounds, tol, rate):
    """Refuse each of the rows whose rounding bound exceeds tol (or is
    not finite): a NaN value and an AccuracyError naming rate(k), the
    k-th row's rate and where it is, and the bound, or that it is NaN."""
    for k in np.flatnonzero(~(bounds <= tol)).tolist():
        values[rows[k]] = np.nan
        errors[int(rows[k])] = AccuracyError(
            f"linear {rate(k)} has a rounding bound that is not a number, "
            f"so it cannot be held to tol = {tol:g}" if np.isnan(bounds[k])
            else f"linear {rate(k)} may be off by {bounds[k]:.1e} from "
            f"rounding, above tol = {tol:g}")


def _integral(tangential, m0, m1, m2):
    """The rows' Int (P + z Q) dx from their moments: z is the squared
    projection (s.d)^2 averaged over azimuth, x^2 for a radial dipole and
    (1 - x^2)/2 for a tangential one."""
    return np.where(tangential, m0 + 0.5 * (m1 - m2), m0 + m2)


def _rate(chi, tangential, *moments):
    """The rows' body terms -(3/4) Im(chi Int (P + z Q) dx)."""
    return -0.75 * (chi * _integral(tangential, *moments)).imag


def _moments(q_R, q_L, x, w):
    """The chi-free moments M0 = Sum w P, M1 = Sum w Q, M2 = Sum w x^2 Q
    of G off-centre geometries (q_R, q_L) under the rule (x, w), and
    their moduli Sum w |P|, Sum w |Q|, Sum w x^2 |Q|, as two (3, G)
    arrays.  The rate density is P + z Q, with P and Q the coefficients
    of :func:`locfield.greens._brace_coeffs` at the distance q_o(x), all
    the distances in one call.
    """
    P, Q = _brace_coeffs(_sphere_distance(q_R[:, None], q_L[:, None], x))
    x2w = w * x * x
    # a row's sum must not depend on the rows beside it, which a BLAS
    # matrix-vector product does not promise; numpy's row sums do
    return tuple(np.stack([(p * w).sum(axis=1), (q * w).sum(axis=1),
                           (q * x2w).sum(axis=1)])
                 for p, q in ((P, Q), (np.abs(P), np.abs(Q))))


def gamma_total_linear(geometry, chi, orientation: str = "radial",
                       q_C: float | None = None, dipole=None,
                       tol: float = TOL_DEFAULT) -> RateBreakdown:
    """Assembled linear rate Gamma/Gamma_0 = 1 + gamma_c + gamma_b.

    Parameters
    ----------
    geometry : SphereConfig or StarBoundary
        SphereConfig uses the specialized 1D path; a StarBoundary goes
        through the general angular quadrature of
        :func:`locfield.greens.body_green_linear` contracted with
        ``dipole`` (a bulk boundary contributes gamma_b = 0).
    chi : complex
    orientation : used for SphereConfig geometries.
    q_C : cavity radius; required for StarBoundary geometries (a
        SphereConfig already carries it).
    dipole : unit 3-vector for StarBoundary geometries (default z-hat).
    """
    chi = _check_chi(chi)
    if isinstance(geometry, SphereConfig):
        if q_C is not None and q_C != geometry.q_C:
            raise DomainError("q_C given both in SphereConfig and as an "
                              "argument; drop one")
        gamma_c = gamma_c_linear(chi, geometry.q_C)
        gamma_b = gamma_b_sphere_linear(geometry, chi, orientation, tol)
    elif isinstance(geometry, StarBoundary):
        if q_C is None:
            raise DomainError("q_C is required with a StarBoundary geometry")
        gamma_c = gamma_c_linear(chi, q_C)
        if geometry.is_bulk:
            gamma_b = 0.0
        else:
            d = _Z_HAT if dipole is None else unit_vector(dipole)
            g_b = body_green_linear(geometry, chi, angular_tolerance=tol)
            gamma_b = 6.0 * np.pi * float(np.imag(d @ g_b @ d))
    else:
        raise DomainError(f"unsupported geometry type "
                          f"{type(geometry).__name__}")
    return RateBreakdown.from_parts(gamma_c, gamma_b)


def validity_check(config: SphereConfig | None, chi,
                   boundary_max: float | None = None,
                   q_C: float | None = None) -> ValidityReport:
    """Quantify the two conditions behind the linear-rate formulas.

    (i)  |chi| * q_max <= 0.3, with q_max the largest emitter-to-boundary
         optical distance (q_L + q_R for a sphere; |chi| itself for bulk,
         where dephasing limits the effective interaction range to ~1).
    (ii) Im(chi)/q_C^3 <= 0.1, absorption within the cavity-scale volume.

    Both computed values are always returned so callers can apply their
    own thresholds.  q_C obeys the cavity-radius rule, boundary_max > 0.
    """
    chi = _check_chi(chi)
    if config is None and q_C is None:
        raise DomainError("q_C required when no SphereConfig is given")
    if boundary_max is None:
        boundary_max = 1.0 if config is None else config.q_L + config.q_R
    boundary_max = float(boundary_max)
    q_C = float(config.q_C if q_C is None else q_C)
    raise_first(itertools.chain(qc_faults(q_C),
                                positive("boundary_max", boundary_max),
                                cavity_scale_faults("q_C", q_C,
                                                    np.imag(chi))))
    return _validity_report(*map(float, _validity_values(chi, boundary_max,
                                                         q_C)))


def _validity_values(chi, boundary_max, q_C: float):
    """|chi| q_max (inf, which fails, beyond double range) and
    Im(chi)/q_C^3, for a complex chi or an array of them with q_max alike."""
    with np.errstate(over="ignore"):
        return np.abs(chi) * boundary_max, np.imag(chi) / q_C**3


def _validity_ok(chi_size, absorption):
    """Whether the two validity values pass their thresholds."""
    return chi_size <= _CHI_SIZE_MAX, absorption <= _ABSORPTION_MAX


def _validity_report(chi_size: float, absorption: float) -> ValidityReport:
    """The report of two validity values, Python floats (an array's
    ``.tolist()``), so that its flags are Python bools."""
    chi_size_ok, absorption_ok = _validity_ok(chi_size, absorption)
    return ValidityReport(chi_size, chi_size_ok, absorption, absorption_ok)
