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
dimension in x = cos(theta), evaluated here with a Gauss-Legendre rule
whose node count doubles until the rate settles.  The rule works on
rows: :func:`gamma_b_sphere_rows` integrates a batch of sphere
configurations, such as a whole sweep, in one call, each row settling
(or failing) on its own, and :func:`gamma_b_sphere_linear` is one row of
it.  chi multiplies an integral of the geometry alone, so each pass
integrates three chi-free moments once per distinct sphere geometry
(q_R, q_L), and each row, whatever its chi and orientation, is a scalar
contraction of its geometry's moments.
:func:`locfield.rates.compute_batch` is the entry point that groups rate
requests into such batches.  The centered sphere has a closed form (no
quadrature), kept as an independent cross-check of the 1D path.

Everything in this module is strictly first order in chi; the accompanying
validity report quantifies when that is trustworthy (optically small
body, weak absorption relative to the cavity volume).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .errors import (ORIENTATIONS, AccuracyError, DomainError, chi_faults,
                     check_qc, inside_sphere, orientation_faults, positive,
                     qc_faults, raise_first, sphere_faults, warn_qc)
from .greens import (_GL_N_MAX, _GL_N_MIN, StarBoundary, _brace_coeffs,
                     _gauss_legendre, _sphere_distance, body_green_linear,
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
    q_C: float = 0.01
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
    return _cavity_term(_check_chi(chi), check_qc(q_C))


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
    with remainder bounded by 2 chi/q_R.
    """
    q = float(q_R)
    raise_first(positive("q_R", q))
    chi = _check_chi(chi)
    val = chi * (1.0 / q**3 - 2j / q**2 - 1.0 / q + 0.5j) * np.exp(2j * q)
    return -float(np.imag(val))


def gamma_b_sphere_linear(config: SphereConfig, chi,
                          orientation: str = "radial",
                          tol: float = 1.0e-10) -> float:
    """Linear body contribution for an emitter inside a sphere.

    The angular integral over the boundary reduces to one dimension in
    x = cos(theta) (theta measured from the displacement axis):

        gamma_b = -(3/4) Im[ chi * Int_{-1}^{1} f(q_o(x), z(x)) dx ]

    with q_o(x) the emitter-to-surface distance, z = x^2 for a radially
    oriented dipole and z = (1 - x^2)/2 for a tangential one.  The
    integral is taken by :func:`quad`, Gauss-Legendre in x with the node
    count doubled from 64 to 2048 until the rate settles; this is one
    row of :func:`gamma_b_sphere_rows`.

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
                        tol: float = 1.0e-10):
    """Linear body terms of many sphere configurations in one quadrature.

    q_R, q_L, chi and orientation are scalars or 1-D arrays that
    broadcast to N rows; orientation is "radial" or "tangential" per
    row.  Every row must have its emitter inside the sphere and a
    passive chi, checked once as arrays.  All rows share tol and go
    through one row-wise :func:`quad`.  chi stands outside the integral,
    so each pass evaluates the three chi-free moments of :func:`_moments`
    once per distinct geometry (q_R, q_L) with a live row, and a row's
    rate is the scalar -(3/4) Im(chi I), I = M0 + M2 (radial) or
    M0 + (M1 - M2)/2 (tangential).

    Returns
    -------
    (values, errors) : the (N,) body terms, as :func:`gamma_b_sphere_linear`
    gives them row by row, and a dict mapping the index of each row whose
    rule did not settle to its AccuracyError (that row's value is NaN).
    Rows with chi = 0 are 0 without quadrature.
    """
    q_R, q_L, chi, orientation = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(q_R, dtype=float), np.asarray(q_L, dtype=float),
        np.asarray(chi, dtype=complex), np.asarray(orientation)))
    raise_first(itertools.chain(inside_sphere(q_R, q_L), chi_faults(chi),
                                positive("tol", tol)))
    for o in set(orientation.tolist()):
        raise_first(orientation_faults(o))
    values = np.zeros(q_R.shape)
    live = np.flatnonzero(chi != 0)
    if live.size == 0:
        return values, {}
    # rows sharing a geometry are adjacent, so that the rows of one
    # geometry fall in as few of quad's blocks as possible
    live = live[np.lexsort((q_L[live], q_R[live]))]
    q_R, q_L = q_R[live], q_L[live]
    first = np.r_[True, (q_R[1:] != q_R[:-1]) | (q_L[1:] != q_L[:-1])]
    geometry = np.cumsum(first) - 1
    q_R, q_L = q_R[first], q_L[first]
    chi = chi[live]
    tangential = orientation[live] == "tangential"

    def rate(x, w, idx):
        g, rows = np.unique(geometry[idx], return_inverse=True)
        m0, m1, m2 = _moments(q_R[g], q_L[g], x, w)[:, rows]
        # z is the squared projection (s.d)^2 averaged over azimuth: x^2
        # for a radial dipole, (1 - x^2)/2 for a tangential one
        integral = np.where(tangential[idx], m0 + 0.5 * (m1 - m2), m0 + m2)
        return -0.75 * (chi[idx] * integral).imag

    got, errors = quad(rate, live.size, tol)
    values[live] = got
    return values, {int(live[i]): exc for i, exc in errors.items()}


def _moments(q_R, q_L, x, w):
    """The chi-free moments M0 = Sum w P, M1 = Sum w Q, M2 = Sum w x^2 Q
    of G geometries (q_R, q_L) under the rule (x, w), as a (3, G) array.
    The rate density is P + z Q, with P and Q the coefficients of
    :func:`locfield.greens._brace_coeffs` at the distance q_o(x).  All
    the distances go to it in one call.  A centered geometry is one
    distance, exactly q_R (:func:`locfield.greens._sphere_distance`),
    broadcast against the weights, so every moment is the one a full
    (G, n) evaluation gives, bit for bit.
    """
    centered = q_L == 0.0
    n_c = int(np.count_nonzero(centered))
    q = np.concatenate([q_R[centered], _sphere_distance(
        q_R[~centered, None], q_L[~centered, None], x).ravel()])
    P, Q = _brace_coeffs(q)
    moments = np.empty((3, q_R.size), dtype=complex)
    # a row's sum must not depend on the rows beside it, which a BLAS
    # matrix-vector product does not promise; numpy's row sums do
    for group, p, s in ((centered, P[:n_c, None], Q[:n_c, None]),
                        (~centered, P[n_c:].reshape(-1, x.size),
                         Q[n_c:].reshape(-1, x.size))):
        moments[:, group] = ((p * w).sum(axis=1), (s * w).sum(axis=1),
                             (s * (w * x * x)).sum(axis=1))
    return moments


def gamma_total_linear(geometry, chi, orientation: str = "radial",
                       q_C: float | None = None, dipole=None,
                       tol: float = 1.0e-10) -> RateBreakdown:
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
                                positive("boundary_max", boundary_max)))
    return _validity_report(*_validity_values(chi, boundary_max, q_C))


def _validity_values(chi, boundary_max, q_C: float):
    """|chi| q_max and Im(chi)/q_C^3, for a complex chi or an array of
    them with the boundary distances q_max alike."""
    return np.abs(chi) * boundary_max, np.imag(chi) / q_C**3


def _validity_ok(chi_size, absorption):
    """Whether the two validity values pass their thresholds."""
    return chi_size <= _CHI_SIZE_MAX, absorption <= _ABSORPTION_MAX


def _validity_report(chi_size, absorption) -> ValidityReport:
    chi_size_ok, absorption_ok = _validity_ok(chi_size, absorption)
    return ValidityReport(chi_size_value=float(chi_size),
                          chi_size_ok=bool(chi_size_ok),
                          absorption_value=float(absorption),
                          absorption_ok=bool(absorption_ok))
