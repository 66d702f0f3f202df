"""Top-level rate assembly, dispatch, and SI units.

All internal machinery works with the dimensionless ratio Gamma/Gamma_0;
this module converts to absolute rates when a dipole moment is supplied,

    Gamma_0 = k_A^3 d_A^2 / (3 pi hbar eps_0),

and dispatches rate requests to the linear-Born, exact real-cavity,
weak-absorption, or uncorrected evaluation paths.

:func:`compute_batch` is the entry point for requests: it returns a
breakdown or an error for each.  It groups them into columns, one per
set of requests that share method, geometry, orientation, q_C, nu, tol
and Mie settings; a column, one curve of a sweep, is what the
evaluation works on.  Its points are checked as arrays by the rules of
:mod:`locfield.errors`, each failing point getting the error (text and
precedence) that a RateRequest and :func:`compute` give it.  A
column's cavity term is one array expression of the closed forms that
the scalar functions of :mod:`locfield.cavity` and :mod:`locfield.born`
also call, and its validity values are arrays too.  The sphere body
terms of all the columns go to the array kernels together: the linear
Born and uncorrected terms share one row-wise quadrature
(:func:`locfield.born.gamma_b_sphere_rows`), which integrates each
distinct sphere geometry once, and exact body terms at the sphere
center, weak_absorption's (the exact one at Re eps) among them, are one
call of :func:`locfield.mie.gamma_b_center`.  Only off-center exact
points keep a per-point series.  A sweep
(:func:`locfield.cli.run_sweep`) builds one column per curve from its
grid; :func:`compute` is a batch of one.

Physical constants (SI; h is exact by definition, eps_0 is the CODATA
2022 value):

    hbar  = h / (2 pi),  h = 6.62607015e-34  J s
    eps_0 = 8.8541878188e-12                 F / m
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from collections import defaultdict
from typing import NamedTuple

import numpy as np

from . import born, cavity, mie
from .errors import (ConfigError, DomainError, LocfieldError, check_qc,
                     error_of, method_faults, orientation_faults,
                     permittivity_faults, positive, qc_faults, raise_first,
                     sphere_faults, warn_qc)
from .greens import Permittivity, as_permittivity, unit_vector

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
    """
    if params.d_A is None:
        raise DomainError("gamma0_si needs the dipole moment d_A")
    k = params.wavenumber
    return k**3 * params.d_A**2 / (3.0 * math.pi * _HBAR * _EPSILON_0)


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
    e = eps.epsilon.real
    g = np.asarray(gB1, dtype=complex)
    d = unit_vector(dipole)
    return math.sqrt(e) + 6.0 * math.pi * float(np.imag(d @ g @ d))


@dataclasses.dataclass(frozen=True)
class RateRequest:
    """One rate evaluation: medium, geometry, method, orientation.

    geometry "sphere" requires q_R (and optionally q_L, the emitter
    displacement); "bulk" must leave q_R unset.  The weak_absorption
    method is available for bulk and centered-sphere geometries only
    (its absorption split is formulated for the isotropic case).
    Inconsistent combinations raise ConfigError at construction time,
    and numbers out of range (q_C and tol too, for either geometry)
    DomainError.  A permittivity that the method cannot take
    (:func:`locfield.errors.method_faults`) is the request's error in
    :func:`compute`.
    """

    eps: complex
    method: str
    geometry: str = "sphere"
    q_R: float | None = None
    q_L: float = 0.0
    q_C: float = 0.01
    orientation: str = "radial"
    nu: float = 0.0
    tol: float = 1.0e-10
    mie_settings: mie.MieSeriesSettings | None = None
    # built once by __post_init__, which validates through them
    _permittivity: Permittivity = dataclasses.field(
        init=False, repr=False, compare=False)
    _sphere: born.SphereConfig | None = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, "
                              f"got {self.method!r}")
        if self.geometry not in GEOMETRIES:
            raise ConfigError(f"geometry must be one of {GEOMETRIES}, "
                              f"got {self.geometry!r}")
        raise_first(orientation_faults(self.orientation, ConfigError))
        if self.geometry == "sphere":
            if self.q_R is None:
                raise ConfigError("sphere geometry requires q_R")
        else:
            if self.q_R is not None:
                raise ConfigError("bulk geometry takes no q_R")
            if self.q_L != 0.0:
                raise ConfigError("bulk geometry takes no q_L")
        raise_first(_off_center_faults(self.method, self.q_L))
        # validate the permittivity and geometry numbers eagerly
        object.__setattr__(self, "_permittivity", as_permittivity(self.eps))
        sphere = None
        if self.geometry == "sphere":
            sphere = born.SphereConfig(q_R=float(self.q_R), q_L=self.q_L,
                                       q_C=self.q_C, nu=self.nu)
        else:
            check_qc(self.q_C)
        raise_first(positive("tol", self.tol))
        object.__setattr__(self, "_sphere", sphere)

    def sphere_config(self) -> born.SphereConfig | None:
        """The validated sphere geometry; None for bulk."""
        return self._sphere

    @property
    def permittivity(self) -> Permittivity:
        return self._permittivity


def compute(request: RateRequest) -> born.RateBreakdown:
    """Evaluate one rate request; returns the Gamma/Gamma_0 breakdown
    with the linearity/absorption validity report attached.  A batch of
    one for :func:`compute_batch`, whose error it raises."""
    (result,) = compute_batch([request])
    if isinstance(result, LocfieldError):
        raise result
    return result


def compute_batch(requests) -> list:
    """Evaluate many rate requests together.

    Returns one entry per request, in order: its RateBreakdown (as
    :func:`compute` gives it), or the LocfieldError that request raised,
    so that one failing request leaves the others to finish.
    """
    requests = list(requests)
    groups = defaultdict(list)
    for i, r in enumerate(requests):
        groups[(r.method, r.geometry, r.orientation, r.q_C, r.nu, r.tol,
                r.mie_settings)].append(i)
    columns = []
    for (method, geometry, orientation, q_C, nu, tol, settings), members \
            in groups.items():
        group = [requests[i] for i in members]
        columns.append(_Column(
            method, orientation, q_C, nu, tol, settings,
            eps=np.array([r.permittivity.epsilon for r in group]),
            q_R=(np.array([r.q_R for r in group], dtype=float)
                 if geometry == "sphere" else None),
            q_L=np.array([r.q_L for r in group], dtype=float)))
    results: list = [None] * len(requests)
    for members, column in zip(groups.values(), _compute_columns(columns)):
        for j, i in enumerate(members):
            results[i] = column.result(j)
    return results


def _off_center_faults(method: str, q_L):
    """The rule that a weak_absorption request has q_L = 0."""
    if method == "weak_absorption":
        yield (q_L != 0.0, "weak_absorption is formulated for the sphere "
               "center (q_L = 0) or bulk", ConfigError)


class _Column(NamedTuple):
    """One curve of rates: the method, orientation, q_C, nu, tol and Mie
    settings its points share, and the arrays eps, q_R and q_L, which
    broadcast against each other; q_R is None for bulk."""

    method: str
    orientation: str
    q_C: float
    nu: float
    tol: float
    mie_settings: mie.MieSeriesSettings | None
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

    def result(self, k: int):
        """The RateBreakdown of point k, or the error it raised."""
        if k in self.errors:
            return self.errors[k]
        return born.RateBreakdown.from_parts(
            self.gamma_c[k], self.gamma_b[k],
            born._validity_report(self.chi_size[k], self.absorption[k]))


def _compute_columns(columns) -> list:
    """The :class:`_Rates` of each column.

    Each column is validated by :func:`_check_points`, and a large q_C
    warns once per column that yields a rate.  The cavity term and the
    validity values are worked out as arrays.  The sphere
    body terms of all the columns go to the array kernels together, one
    call per kernel and tol; off-center exact points keep their
    per-point series.
    """
    batches = defaultdict(list)
    out = [_column_rates(column, batches) for column in columns]
    for key, members in batches.items():
        rows = [np.concatenate(parts) for parts in zip(
            *(arrays for _, _, arrays in members))]
        values, errors = _body_rows(key, rows)
        start = 0
        for rates_, idx, _ in members:
            stop = start + idx.size
            rates_.gamma_b[idx] = values[start:stop]
            for j, exc in errors.items():
                if start <= j < stop:
                    rates_.errors[int(idx[j - start])] = exc
            start = stop
    return out


def _column_rates(col: _Column, batches) -> _Rates:
    """The rates of one column, but for the sphere body terms that go to
    an array kernel: those rows are added to ``batches``, keyed by
    kernel, with the indices of their points."""
    sphere = col.q_R is not None
    eps, q_L, q_R = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(col.eps, dtype=complex), np.asarray(col.q_L, dtype=float),
        np.asarray(col.q_R if sphere else np.nan, dtype=float)))
    errors, ok = _check_points(col, eps, q_R, q_L)
    rates_ = _Rates(*np.full((4, eps.size), np.nan), errors)
    live = np.flatnonzero(ok)
    if live.size == 0:
        return rates_
    eps, q_R, q_L = eps[live], q_R[live], q_L[live]
    chi = eps - 1.0
    q_C = float(col.q_C)
    rates_.chi_size[live], rates_.absorption[live] = born._validity_values(
        chi, q_L + q_R if sphere else 1.0, q_C)
    warn_qc(q_C)
    method = col.method
    if method == "linear_born":
        rates_.gamma_c[live] = born._cavity_term(chi, q_C)
    elif method == "uncorrected":
        rates_.gamma_c[live] = np.sqrt(eps.real) - 1.0
        # body term to linear order in the (real) susceptibility
        chi = eps.real - 1.0
    elif method == "exact":
        rates_.gamma_c[live] = cavity._cavity_term(eps, np.sqrt(eps), q_C)
    else:
        # weak absorption: the corrected rate of the transparent host
        # Re eps, plus the absorption shift; its body term is the exact
        # one at the center of a sphere of Re eps
        re = eps.real
        rates_.gamma_c[live] = (cavity._local_field(re) ** 2 * np.sqrt(re)
                                - 1.0 + cavity._absorption_shift(eps, q_C))
        eps = re + 0j
    if not sphere:
        rates_.gamma_b[live] = 0.0
    elif method in ("linear_born", "uncorrected"):
        orientation = np.full(live.size, col.orientation)
        batches[("linear", col.tol)].append(
            (rates_, live, (q_R, q_L, chi, orientation)))
    else:
        center = q_L == 0.0
        if center.any():
            batches[("center",)].append(
                (rates_, live[center], (eps[center], q_R[center])))
        off = ~center  # none for weak absorption
        for i, e, R, L in zip(live[off].tolist(), eps[off].tolist(),
                              q_R[off].tolist(), q_L[off].tolist()):
            try:
                rates_.gamma_b[i] = mie.gamma_b_exact(
                    e, R, L, col.orientation, col.mie_settings)
            except LocfieldError as exc:
                errors[i] = exc
    return rates_


def _check_points(col: _Column, eps, q_R, q_L):
    """The errors of a column's points, by index, and the mask of the
    points that pass.  The checks are RateRequest's, then compute's, in
    their order, so a point's error is the first that it fails; they run
    one by one only if some point fails one."""
    checks = list(itertools.chain(
        _off_center_faults(col.method, q_L), permittivity_faults(eps),
        sphere_faults(q_R, q_L, float(col.q_C), float(col.nu))
        if col.q_R is not None else qc_faults(float(col.q_C)),
        positive("tol", col.tol), method_faults(col.method, eps)))
    errors = {}
    ok = np.ones(eps.shape, dtype=bool)
    if functools.reduce(operator.or_, [c[0] for c in checks]).any():
        for check in checks:
            bad = ok & check[0]
            for k in np.flatnonzero(bad).tolist():
                errors[k] = error_of(check, q_R[k], q_L[k])
            ok &= ~bad
    return errors, ok


def _body_rows(key, rows):
    """Body terms of the rows of one kernel, given as a list of arrays
    (its arguments): the values, and a dict from the index of each row
    that failed to its LocfieldError.  An error the kernel raises for the
    whole call is pinned on its row by running each row alone."""
    try:
        if key[0] == "linear":
            return born.gamma_b_sphere_rows(*rows, key[1])
        return mie.gamma_b_center(*rows), {}
    except LocfieldError as exc:
        n = rows[0].size
        if n == 1:
            return np.full(1, np.nan), {0: exc}
        values, errors = np.full(n, np.nan), {}
        for k in range(n):
            values[k:k + 1], error = _body_rows(key, [r[k:k + 1]
                                                      for r in rows])
            if error:
                errors[k] = error[0]
        return values, errors

