"""Top-level rate assembly, dispatch, and SI units.

All internal machinery works with the dimensionless ratio Gamma/Gamma_0;
this module converts to absolute rates when a dipole moment is supplied,

    Gamma_0 = k_A^3 d_A^2 / (3 pi hbar eps_0),

and dispatches rate requests to the linear-Born, exact real-cavity,
weak-absorption, or uncorrected evaluation paths.

The evaluation works on columns, the points of one curve, which share
method, geometry, orientation and q_C: :func:`compute_batch`
groups its requests into columns, :func:`compute` makes a column of one
and a sweep (:func:`locfield.cli.run_sweep`) one column per curve.  A
column's points are checked as arrays by the rules of
:mod:`locfield.errors`, each failing point getting the error (text and
precedence) that a RateRequest and :func:`compute` give it: a sweep's by
both, requests' (checked when made) by compute's method and q_C rules
alone.  A column forms h = eps + 1/2, n = sqrt(eps) and chi = eps - 1
once and hands them to the rules, the cavity term, the validity values
and the row kernel.  The sphere body terms of all the columns go to two
array kernels, one call each, which take an orientation per row and
return a value or an error per row:
:func:`locfield.mie._gamma_b_rows` for the exact and weak_absorption
terms (the exact one at Re eps for weak_absorption),
:func:`locfield.born.gamma_b_sphere_rows` for the linear Born and
uncorrected ones, where rows on one sphere geometry share its moments.
The linear body term is held to an absolute 1e-10
(``born._TOL``) and the exact one to a relative 1e-8
(``mie._CENTER_REL_MAX``); neither is a setting.

Physical constants (SI; h is exact by definition, eps_0 is the CODATA
2022 value):

    hbar  = h / (2 pi),  h = 6.62607015e-34  J s
    eps_0 = 8.8541878188e-12                 F / m
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from . import born, cavity, mie
from .errors import (QC_DEFAULT, ConfigError, DomainError, LocfieldError,
                     NonFiniteError, cavity_scale_faults, error_of, failing,
                     method_faults, orientation_faults, permittivity_faults,
                     positive, qc_faults, raise_first, sphere_faults,
                     warn_qc)
from .greens import Permittivity, as_permittivity

__all__ = [
    "AtomParams",
    "RateRequest",
    "METHODS",
    "GEOMETRIES",
    "gamma0_si",
    "gamma_uncorrected",
    "compute",
    "compute_batch",
]

METHODS = ("linear_born", "exact", "weak_absorption", "uncorrected")
GEOMETRIES = ("sphere", "bulk")

_HBAR = 6.62607015e-34 / (2.0 * math.pi)
_EPSILON_0 = 8.8541878188e-12


@dataclasses.dataclass(frozen=True)
class AtomParams:
    """Two-level emitter parameters.

    Give exactly one of ``k_A`` (vacuum wavenumber, 1/m) or
    ``wavelength`` (vacuum transition wavelength, m).  ``d_A`` is the
    transition dipole matrix element (C m), needed only for SI rates.
    """

    k_A: float | None = None
    wavelength: float | None = None
    d_A: float | None = None

    def __post_init__(self):
        if (self.k_A is None) == (self.wavelength is None):
            raise DomainError("give exactly one of k_A and wavelength")
        for name in ("k_A", "wavelength", "d_A"):
            if getattr(self, name) is not None:
                raise_first(positive(name, getattr(self, name)))

    @property
    def wavenumber(self) -> float:
        if self.k_A is not None:
            return float(self.k_A)
        return 2.0 * math.pi / float(self.wavelength)


def gamma0_si(params: AtomParams) -> float:
    """Free-space spontaneous decay rate in 1/s.

        Gamma_0 = k_A^3 d_A^2 / (3 pi hbar eps_0)

    NonFiniteError where that leaves double range.
    """
    if params.d_A is None:
        raise DomainError("gamma0_si needs the dipole moment d_A")
    k = params.wavenumber
    try:
        rate = k**3 * params.d_A**2 / (3.0 * math.pi * _HBAR * _EPSILON_0)
    except OverflowError:  # k_A^3 or d_A^2 past double range
        rate = math.inf
    if rate == math.inf:
        raise NonFiniteError("Gamma_0 = k_A^3 d_A^2/(3 pi hbar eps_0) "
                             "leaves double range")
    return rate


def gamma_uncorrected(eps_real, gB1, dipole) -> float:
    """Uncorrected (no local-field factor) rate for a transparent host.

        Gamma/Gamma_0 = sqrt(eps) + 6 pi Im[d.gB1.d]

    with gB1 the body scattering tensor in units of k_A.  Valid only for
    negligible absorption (Im eps <= 1e-6): with absorption the bulk
    contribution diverges with the local environment and the plain
    sqrt(eps) limit does not exist.
    """
    eps = as_permittivity(eps_real)
    raise_first(method_faults("uncorrected", eps.epsilon))
    gdd = cavity._dipole_element(gB1, dipole)
    return (math.sqrt(eps.epsilon.real)
            + 6.0 * math.pi * float(np.imag(gdd)))


@dataclasses.dataclass(frozen=True)
class RateRequest:
    """One rate evaluation: medium, geometry, method, orientation.

    geometry "sphere" requires q_R (and optionally q_L, the emitter
    displacement); "bulk" must leave q_R unset.  The weak_absorption
    method is available for bulk and centered-sphere geometries only
    (its absorption split is formulated for the isotropic case).
    Inconsistent combinations raise ConfigError at construction time,
    and numbers out of range (q_C too, for either geometry)
    DomainError, by the rules of :mod:`locfield.errors`; eps is held as
    a complex (repr ``eps=(1.1+0j)``) and q_R, q_L and q_C as floats.  A
    permittivity that the method cannot take
    (:func:`locfield.errors.method_faults`), and a q_C so small that
    its cavity terms in 1/q_C^3 leave double range (NonFiniteError), are
    the request's errors in :func:`compute`.
    """

    eps: complex
    method: str
    geometry: str = "sphere"
    q_R: float | None = None
    q_L: float = 0.0
    q_C: float = QC_DEFAULT
    orientation: str = "radial"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, "
                              f"got {self.method!r}")
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"geometry must be one of {GEOMETRIES}, "
                              f"got {self.geometry!r}")
        raise_first(orientation_faults(self.orientation, ConfigError))
        for name in ("q_R", "q_L", "q_C"):
            value = getattr(self, name)
            if type(value) is float or (name == "q_R" and value is None):
                continue
            try:
                object.__setattr__(self, name, float(value))
            except (TypeError, ValueError):
                raise DomainError(f"{name} must be a real number, got "
                                  f"{value!r}") from None
        if self.geometry == "sphere":
            if self.q_R is None:
                raise ConfigError("sphere geometry requires q_R")
        else:
            if self.q_R is not None:
                raise ConfigError("bulk geometry takes no q_R")
            if self.q_L != 0.0:
                raise ConfigError("bulk geometry takes no q_L")
        raise_first(_off_center_faults(self.method, self.q_L))
        eps = self.eps
        object.__setattr__(self, "eps", complex(
            eps.epsilon if isinstance(eps, Permittivity) else eps))
        raise_first(permittivity_faults(self.eps))
        raise_first(sphere_faults(self.q_R, self.q_L, self.q_C)
                    if self.geometry == "sphere" else qc_faults(self.q_C),
                    self.q_R, self.q_L)
        warn_qc(self.q_C)


def compute(request: RateRequest) -> born.RateBreakdown:
    """Evaluate one rate request; returns the Gamma/Gamma_0 breakdown
    with the linearity/absorption validity report attached.  A column of
    one, as :func:`compute_batch` makes, whose error it raises."""
    (rates_,) = _compute_columns([_request_column([request])], checked=True)
    (result,) = rates_.results()
    if isinstance(result, LocfieldError):
        raise result
    return result


def compute_batch(requests) -> list:
    """Evaluate many rate requests together.

    Returns one entry per request, in order: its RateBreakdown (as
    :func:`compute` gives it), or the LocfieldError that request raised,
    so that one failing request leaves the others to finish.  The
    requests that share method, geometry, orientation and q_C are one
    column; an entry equals :func:`compute` of its request bit for bit
    while its column holds fewer than 16,384 requests (from 256 KiB on
    numpy works a column's temporaries in place, and the last bits of
    some cavity terms differ).
    """
    requests = list(requests)
    groups = defaultdict(list)
    for i, r in enumerate(requests):
        groups[r.method, r.geometry, r.orientation, r.q_C].append(i)
    columns = [_request_column([requests[i] for i in members])
               for members in groups.values()]
    results: list = [None] * len(requests)
    for members, rates_ in zip(groups.values(),
                               _compute_columns(columns, checked=True)):
        for i, result in zip(members, rates_.results()):
            results[i] = result
    return results


def _request_column(group) -> _Column:
    """The column of RateRequests that share method, geometry,
    orientation and q_C."""
    # a complex and two floats per request (q_R None in bulk), whose
    # dtypes the arrays keep
    eps, q_R, q_L = zip(*[(r.eps, r.q_R, r.q_L) for r in group])
    r = group[0]
    return _Column(r.method, r.orientation, r.q_C, np.array(eps),
                   np.array(q_R) if r.geometry == "sphere" else None,
                   np.array(q_L))


def _off_center_faults(method: str, q_L):
    """The rule that a weak_absorption request has q_L = 0."""
    return ((method == "weak_absorption" and q_L != 0.0, "weak_absorption "
             "is formulated for the sphere center (q_L = 0) or bulk",
             ConfigError),)


class _Column(NamedTuple):
    """One curve of rates: the method, orientation and q_C its points
    share, and the (N,) arrays eps (complex), q_R and q_L (float) of its
    points; q_R is None for bulk."""

    method: str
    orientation: str
    q_C: float
    eps: np.ndarray
    q_R: np.ndarray | None
    q_L: np.ndarray


class _Rates(NamedTuple):
    """The rates of one column, point by point: gamma_c, gamma_b and the
    two validity values, and the LocfieldError of each point that failed
    (whose values are NaN), by index."""

    gamma_c: np.ndarray
    gamma_b: np.ndarray
    chi_size: np.ndarray
    absorption: np.ndarray
    errors: dict

    @property
    def total(self) -> np.ndarray:
        return 1.0 + self.gamma_c + self.gamma_b

    @property
    def validity_ok(self) -> tuple:
        """The pass flags of chi_size and absorption."""
        return born._validity_ok(self.chi_size, self.absorption)

    def results(self) -> list:
        """The RateBreakdown of each point, or the error it raised."""
        errors = self.errors
        # the floats of tolist, so the breakdown is built as from_parts
        # would build it
        return [errors[k] if k in errors else born.RateBreakdown(
                    gamma_c, gamma_b, 1.0 + gamma_c + gamma_b,
                    born._validity_report(chi_size, absorption))
                for k, (gamma_c, gamma_b, chi_size, absorption) in enumerate(
                    zip(self.gamma_c.tolist(), self.gamma_b.tolist(),
                        self.chi_size.tolist(), self.absorption.tolist()))]


def _compute_columns(columns, checked: bool = False) -> list:
    """The :class:`_Rates` of each column, as the module docstring has
    it: each is checked by :func:`_check_points` (checked: its points are
    RateRequests'), warns once about a large q_C if it yields a rate, and
    sends its sphere body terms to the array kernels with the others."""
    batches = defaultdict(list)
    out = [_column_rates(column, batches, checked) for column in columns]
    for kernel, members in batches.items():
        rows = (members[0][2] if len(members) == 1 else
                [np.concatenate(parts)
                 for parts in zip(*(arrays for _, _, arrays in members))])
        values, errors = kernel(*rows)
        start = 0
        for rates_, live, arrays in members:
            stop = start + arrays[0].size
            rates_.gamma_b[slice(None) if live is None else live] = \
                values[start:stop]
            if errors:
                rates_.errors.update(
                    (j - start if live is None else int(live[j - start]),
                     exc) for j, exc in errors.items() if start <= j < stop)
            start = stop
    return out


def _column_rates(col: _Column, batches, checked: bool) -> _Rates:
    """The rates of one column, but for the sphere body terms that go to
    an array kernel: those rows, each with its orientation, are added to
    ``batches``, keyed by kernel, with the indices of their points (None
    for all of them)."""
    sphere, eps, q_L, method = (col.q_R is not None, col.eps, col.q_L,
                                col.method)
    q_R = col.q_R if sphere else np.full(eps.size, np.nan)
    h, n, chi = (cavity._medium(eps) if method == "exact"
                 else (None, None, eps - 1.0))
    errors, live = _check_points(col, eps, h, chi, q_R, q_L, checked)
    if errors:
        if live.size == 0:
            return _Rates(*np.full((4, eps.size), np.nan), errors)
        eps, h, n, chi, q_R, q_L = (None if a is None else a[live]
                                    for a in (eps, h, n, chi, q_R, q_L))
    q_C = col.q_C
    # q_L + q_R and |chi| times it beyond double range are inf, which fails
    with np.errstate(over="ignore"):
        chi_size, absorption = born._validity_values(
            chi, q_L + q_R if sphere else 1.0, q_C)
    if not checked:  # a RateRequest warned when it was made
        warn_qc(q_C)
    if method == "linear_born":
        gamma_c = born._cavity_term(chi, q_C)
    elif method == "uncorrected":
        gamma_c = np.sqrt(eps.real) - 1.0
        # body term to linear order in the (real) susceptibility
        chi = eps.real - 1.0
    elif method == "exact":
        gamma_c = cavity._cavity_term(eps, h, n, chi, q_C)
    else:
        # weak absorption: the corrected rate of the transparent host
        # Re eps, plus the absorption shift; its body term is the exact
        # one at the center of a sphere of Re eps
        re = eps.real
        n = np.sqrt(re)
        gamma_c = (cavity._local_field(re) ** 2 * n - 1.0
                   + cavity._absorption_shift(eps, q_C))
        eps = re + 0j
    # a sphere's kernel writes each of its body terms, NaN where it fails
    gamma_b = np.empty(eps.size) if sphere else np.zeros(eps.size)
    if errors:  # NaN at the failing points
        spread = np.full((4, col.eps.size), np.nan)
        spread[:, live] = gamma_c, gamma_b, chi_size, absorption
        gamma_c, gamma_b, chi_size, absorption = spread
    rates_ = _Rates(gamma_c, gamma_b, chi_size, absorption, errors)
    if sphere:
        orientation = np.full(eps.size, col.orientation)
        if method in ("linear_born", "uncorrected"):
            batches[born.gamma_b_sphere_rows].append(
                (rates_, live, (q_R, q_L, chi, orientation)))
        else:
            batches[mie._gamma_b_rows].append(
                (rates_, live, (eps, n, q_R, q_L, orientation)))
    return rates_


def _check_points(col: _Column, eps, h, chi, q_R, q_L, checked: bool):
    """The errors of a column's points, by index, and the indices of the
    points that pass (None when every point passes): a sweep's by
    RateRequest's rules and compute's, in their order, so that a point's
    error is the first that it fails, and checked points (RateRequests',
    checked when made) by compute's alone, reading the column's h and
    chi.  Only the rules that some point fails run one by one."""
    q_C = col.q_C
    request = () if checked else (
        *_off_center_faults(col.method, q_L), *permittivity_faults(eps),
        *(sphere_faults(q_R, q_L, q_C)
          if col.q_R is not None else qc_faults(q_C)))
    checks = failing((*request, *method_faults(col.method, eps, h),
                      *cavity_scale_faults("q_C", q_C, cavity._scale_factor(
                          col.method, eps, h, chi))))
    if not checks:
        return {}, None
    errors = {}
    ok = np.ones(eps.shape, dtype=bool)
    for check in checks:
        bad = ok & check[0]
        for k in np.flatnonzero(bad).tolist():
            errors[k] = error_of(check, q_R[k], q_L[k])
        ok &= ~bad
    return errors, np.flatnonzero(ok)
