"""Top-level rate assembly, dispatch, and SI units.

All internal machinery works with the dimensionless ratio Gamma/Gamma_0;
this module converts to absolute rates when a dipole moment is supplied,

    Gamma_0 = k_A^3 d_A^2 / (3 pi hbar eps_0),

and dispatches rate requests to the linear-Born, exact real-cavity,
weak-absorption, or uncorrected evaluation paths.

:func:`compute_batch` is the entry point: it takes many requests and
returns a breakdown or an error for each.  The cavity term and the
validity report are worked out per request; the body terms go to array
kernels, one call per group of requests that share the kernel and tol;
the orientation travels with each request.  A whole sweep is one batch.
The linear Born and uncorrected sphere body terms of a batch share one
row-wise quadrature (:func:`locfield.born.gamma_b_sphere_rows`), in
which requests with the same sphere geometry share its coefficients;
exact body terms at the sphere center are one call of
:func:`locfield.mie.gamma_b_center`.
Off-center exact and weak_absorption requests keep their per-request
series.  :func:`compute` is the one-request wrapper.

Physical constants (SI; h is exact by definition, eps_0 is the CODATA
2022 value):

    hbar  = h / (2 pi),  h = 6.62607015e-34  J s
    eps_0 = 8.8541878188e-12                 F / m
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict

import numpy as np

from . import born, cavity, mie
from .errors import ConfigError, DomainError, LocfieldError
from .greens import (_ABSORPTION_TOL, Permittivity, as_permittivity,
                     unit_vector)

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

# dipole directions for the two orientation labels; the displacement
# axis is z throughout the package
_DIPOLES = {
    "radial": np.array([0.0, 0.0, 1.0]),
    "tangential": np.array([1.0, 0.0, 0.0]),
}


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
        if self.k_A is not None and not (self.k_A > 0):
            raise DomainError("k_A must be positive")
        if self.wavelength is not None and not (self.wavelength > 0):
            raise DomainError("wavelength must be positive")
        if self.d_A is not None and not (self.d_A > 0):
            raise DomainError("d_A must be positive when given")

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
    if eps.is_absorbing():
        raise DomainError("gamma_uncorrected assumes a transparent host "
                          f"(Im eps <= {_ABSORPTION_TOL:g})")
    e = eps.epsilon.real
    if e <= 0:
        raise DomainError("need Re eps > 0")
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
    and numbers out of range (q_C too, for either geometry) DomainError.
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
        if self.orientation not in born.ORIENTATIONS:
            raise ConfigError(f"orientation must be one of "
                              f"{born.ORIENTATIONS}, "
                              f"got {self.orientation!r}")
        if self.geometry == "sphere":
            if self.q_R is None:
                raise ConfigError("sphere geometry requires q_R")
        else:
            if self.q_R is not None:
                raise ConfigError("bulk geometry takes no q_R")
            if self.q_L != 0.0:
                raise ConfigError("bulk geometry takes no q_L")
        if self.method == "weak_absorption" and self.q_L != 0.0:
            raise ConfigError("weak_absorption is formulated for the "
                              "sphere center (q_L = 0) or bulk")
        # validate the permittivity and geometry numbers eagerly
        object.__setattr__(self, "_permittivity", as_permittivity(self.eps))
        sphere = None
        if self.geometry == "sphere":
            sphere = born.SphereConfig(q_R=float(self.q_R), q_L=self.q_L,
                                       q_C=self.q_C, nu=self.nu)
        else:
            born._check_qc(self.q_C)
        object.__setattr__(self, "_sphere", sphere)

    def sphere_config(self) -> born.SphereConfig | None:
        """The validated sphere geometry; None for bulk."""
        return self._sphere

    @property
    def permittivity(self) -> Permittivity:
        return self._permittivity


def _validity(req: RateRequest, chi: complex) -> born.ValidityReport:
    if req.geometry == "sphere":
        return born.validity_check(req.sphere_config(), chi)
    return born.validity_check(None, chi, q_C=req.q_C)


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
    results: list = [None] * len(requests)
    parts = {}
    batches = defaultdict(list)
    for i, request in enumerate(requests):
        try:
            gamma_c, validity, gamma_b = _split(request)
        except LocfieldError as exc:
            results[i] = exc
            continue
        if isinstance(gamma_b, tuple):
            key, row = gamma_b
            batches[key].append((i, row))
            parts[i] = gamma_c, validity
        else:
            results[i] = born.RateBreakdown.from_parts(gamma_c, gamma_b,
                                                       validity)
    for key, members in batches.items():
        gammas = _body_rows(key, [row for _, row in members])
        for (i, _), gamma_b in zip(members, gammas):
            if isinstance(gamma_b, LocfieldError):
                results[i] = gamma_b
            else:
                gamma_c, validity = parts[i]
                results[i] = born.RateBreakdown.from_parts(gamma_c, gamma_b,
                                                           validity)
    return results


def _split(request: RateRequest):
    """Cavity term, validity report and body term of one request.

    The body term is a float, or ``(key, row)`` for the array kernel
    named by ``key`` (see :func:`_body_rows`), which evaluates all the
    rows that share the key at once.
    """
    eps = request.permittivity
    chi = eps.chi
    validity = _validity(request, chi)
    method = request.method
    sphere = request.geometry == "sphere"

    if method == "linear_born":
        gamma_c = born.gamma_c_linear(chi, request.q_C)
        gamma_b = _linear_row(request, chi) if sphere else 0.0
    elif method == "uncorrected":
        if eps.is_absorbing():
            raise DomainError("uncorrected method assumes a transparent "
                              "host; use exact or weak_absorption")
        e_re = eps.epsilon.real
        gamma_c = math.sqrt(e_re) - 1.0
        # body term to linear order in the (real) susceptibility
        gamma_b = _linear_row(request, e_re - 1.0) if sphere else 0.0
    elif method == "exact":
        gamma_c = cavity.gamma_c_exact(eps, request.q_C)
        if not sphere:
            gamma_b = 0.0
        elif request.q_L == 0.0:
            gamma_b = ("center",), (eps, float(request.q_R))
        else:
            gamma_b = mie.gamma_b_exact(eps, float(request.q_R),
                                        request.q_L, request.orientation,
                                        request.mie_settings)
    else:
        gamma_c, gamma_b = _weak_absorption(request, eps)
    return gamma_c, validity, gamma_b


def _linear_row(request: RateRequest, chi):
    sphere = request.sphere_config()
    return (("linear", request.tol),
            (sphere.q_R, sphere.q_L, chi, request.orientation))


def _body_rows(key, rows) -> list:
    """Body terms of the rows of one kernel: a float or a LocfieldError
    per row.  An error the kernel raises for the whole call is pinned on
    its row by running each row alone."""
    try:
        if key[0] == "linear":
            q_R, q_L, chi, orientation = zip(*rows)
            values, errors = born.gamma_b_sphere_rows(q_R, q_L, chi,
                                                      orientation, key[1])
        else:
            eps, q_R = zip(*rows)
            values, errors = mie.gamma_b_center(eps, q_R), {}
    except LocfieldError as exc:
        if len(rows) == 1:
            return [exc]
        return [out for row in rows for out in _body_rows(key, [row])]
    return [errors.get(k, float(v)) for k, v in enumerate(values)]


def _weak_absorption(request: RateRequest, eps: Permittivity):
    e_re = eps.epsilon.real
    dipole = _DIPOLES[request.orientation]
    if request.geometry == "bulk":
        gB1 = np.zeros((3, 3), dtype=complex)
    else:
        gB1 = mie.body_green_center(e_re, float(request.q_R))
    gb_unc = gamma_uncorrected(e_re, gB1, dipole)
    gamma, _cond = cavity.gamma_weak_absorption(eps, request.q_C, gb_unc,
                                                gB1, dipole)
    f2 = (3.0 * e_re / (2.0 * e_re + 1.0)) ** 2
    gamma_b = f2 * (gb_unc - math.sqrt(e_re))
    return gamma - 1.0 - gamma_b, gamma_b
