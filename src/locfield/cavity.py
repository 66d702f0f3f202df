"""Exact real-cavity local-field model.

The emitter sits at the center of a small empty spherical cavity (optical
radius q_C = k_A R_C) carved out of the host medium.  For q_C much smaller
than both the wavelength and the host-body features, the exact rate
assembles as

    Gamma/Gamma_0 = 1 + gamma_c_exact(eps, q_C)
                      + 6 pi Im[(3 eps/(2 eps + 1))^2 d.G_B^(1).d],

where G_B^(1) is the scattering Green tensor (units of k_A) of the host
body *without* the cavity, evaluated at the emitter position, and the
(3 eps/(2 eps+1))^2 factor is the local-field correction of the
real-cavity model.  gamma_c_exact carries the cavity's own contribution,

    gamma_c = Im{ 3(eps-1)/(2 eps+1) / q_C^3
                  + 9(eps-1)(4 eps+1)/[5 (2 eps+1)^2] / q_C
                  + i [9 eps^{5/2}/(2 eps+1)^2 - 1] },

whose divergent terms describe nonradiative transfer into the absorbing
material around the cavity and vanish for real eps.  The constant term
is K - i, with K = i n L^2 (n = sqrt(eps)) the prefactor of the sphere
series in :mod:`locfield.mie` and L = 3 eps/(2 eps + 1) the local-field
factor.  L, K, the cavity term and the
weak-absorption shift are each written once, as a private function of
scalars or arrays: the public functions check their input and call it,
and the columns of :mod:`locfield.rates` call it on whole arrays.  Every
public route raises SingularityError at eps = -1/2.  The decomposition
holds for host bodies of arbitrary shape, which is why the body tensor is
an *input* here (spheres get theirs from :mod:`locfield.mie`, generic
star-shaped bodies from :mod:`locfield.greens` to linear order).

Transmission and scattering coefficients of the cavity itself (A, B_m)
are exposed for diagnostics; their small-q_C asymptotics
A -> n 3 eps/(2 eps+1), |B_m^N| = O(q_C^{2m+1}), |B_m^M| = O(q_C^{2m+3})
justify dropping the cavity-scattering corrections in the assembled rate.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import (_CAVITY_SCALE, ABSORPTION_TOL, POLE_CUT, DomainError,
                     InvariantError, NonFiniteError, SingularityError,
                     cavity_scale_faults, check_qc, method_faults, positive,
                     qc_faults, raise_first, warn_qc, whole_number)
from .greens import _unit_3vector, as_permittivity
from .specfun import (dipole_bessel_j, dipole_hankel_h1, riccati_derivative,
                      spherical_bessel_j, spherical_hankel_h1)

__all__ = [
    "CavityCoefficients",
    "transmission_coefficient",
    "outside_scatter_coefficients",
    "gamma_c_exact",
    "gamma_b_corrected",
    "gamma_weak_absorption",
    "gamma_bulk",
    "BULK_MODELS",
]

BULK_MODELS = ("real_cavity", "virtual_cavity", "linear")

# symmetry tolerance for input Green tensors (relative to their scale)
_SYM_TOL = 1.0e-12


@dataclasses.dataclass(frozen=True)
class CavityCoefficients:
    """Cavity transmission coefficient A and outside-scattering
    coefficients B_m^M, B_m^N for m = 1..m_max (index m-1 in the arrays)."""

    A: complex
    B_M: np.ndarray
    B_N: np.ndarray


def _local_field(eps, h=None):
    """The local-field factor L = 3 eps/(2 eps + 1) = 1.5 eps/h of the
    real cavity, h = eps + 1/2 (formed here unless given)."""
    return 1.5 * eps / (eps + 0.5 if h is None else h)


def _prefactor(eps, n, h=None):
    """K = i n L^2 = 9 i eps^{5/2}/(2 eps + 1)^2, h = eps + 1/2, the
    local-field corrected prefactor of the sphere's body term."""
    return 1j * n * _local_field(eps, h) ** 2


def _medium(eps):
    """h = eps + 1/2 (half of 2 eps + 1, a double for every finite eps),
    n = sqrt(eps) and chi = eps - 1 of a complex array, formed once per
    column for the rules, the terms and the series."""
    return eps + 0.5, np.sqrt(eps), eps - 1.0


def _cavity_parts(h, chi):
    """chi t and 2 - t = (4 eps + 1) t, t = 1/(2 eps + 1) = 0.5/h: the
    factors a = 3 chi t of 1/q_C^3 and b = 1.8 chi t (2 - t) of 1/q_C in
    gamma_c_exact are 3 and 1.8 (2 - t) times chi t."""
    t = 0.5 / h
    return chi * t, 2.0 - t


def _cavity_term(eps, h, n, chi, q_C: float):
    """gamma_c of :func:`gamma_c_exact`, from the parts of :func:`_medium`,
    as Im[chi t (3/q_C^3 + 1.8 (2 - t)/q_C) + K] - 1 (:func:`_cavity_parts`,
    :func:`_prefactor`)."""
    ct, u = _cavity_parts(h, chi)
    return (ct * (3.0 / q_C**3 + (1.8 / q_C) * u)
            + _prefactor(eps, n, h)).imag - 1.0


def _scale_factor(method: str, eps, h, chi):
    """The factor c of :func:`locfield.errors.cavity_scale_faults` for a
    method's rates at eps, a complex array: Im eps, as every absorption
    validity value has it, or on the exact route the larger
    (|a| + |b|)/16 of the factors of :func:`_cavity_parts`, which grow
    near the pole; at Re eps >= 0 that stays below 0.31 and is not
    worked out."""
    c = eps.imag
    if method != "exact" or not np.count_nonzero(eps.real < 0.0):
        return c
    with np.errstate(all="ignore"):
        ct, u = _cavity_parts(h, chi)
        ab = np.abs(ct) * (3.0 + 1.8 * np.abs(u))
        return np.maximum(c, ab / _CAVITY_SCALE)


def _absorption_shift(eps, q_C: float):
    """delta_gamma of :func:`gamma_weak_absorption`."""
    re, im = np.real(eps), np.imag(eps)
    return (9.0 * im / ((2.0 * re + 1.0) ** 2 * q_C**3)
            + 9.0 * (14.0 * re + 1.0) * im
            / (5.0 * (2.0 * re + 1.0) ** 3 * q_C))


def transmission_coefficient(eps, q_C: float) -> complex:
    """Cavity transmission coefficient A (dipole wave, m = 1).

        A = n [j_1(z0) xi_1'(z0) - psi_1'(z0) h_1(z0)]
              / [j_1(z0) xi_1'(z1) - eps psi_1'(z0) h_1(z1)],

    z0 = q_C, z1 = n q_C, with psi/xi the Riccati-Bessel functions of
    j/h type, in the closed forms of :func:`locfield.specfun.dipole_bessel_j`
    and :func:`locfield.specfun.dipole_hankel_h1`.  As q_C -> 0,
    A -> n 3 eps/(2 eps + 1).
    """
    eps = as_permittivity(eps)
    q_C = float(q_C)
    raise_first(positive("q_C", q_C))
    z0, z1 = complex(q_C), eps.n * q_C
    j, pj = dipole_bessel_j(z0)
    h0, xi0p = dipole_hankel_h1(z0)
    h1, xi1p = dipole_hankel_h1(z1)
    num = j * xi0p - pj * h0
    den = j * xi1p - eps.epsilon * pj * h1
    if abs(den) < POLE_CUT:
        raise SingularityError("cavity transmission denominator vanished")
    return eps.n * num / den


def outside_scatter_coefficients(eps, q_C: float,
                                 m_max: int) -> CavityCoefficients:
    """Scattering coefficients of the empty cavity as seen from outside.

        B_m^M = -[j_m(z0) psi_m'(z1) - psi_m'(z0) j_m(z1)]
                 / [j_m(z0) xi_m'(z1) - psi_m'(z0) h_m(z1)]

    and B_m^N the same with eps multiplying both psi_m'(z0) terms;
    z0 = q_C, z1 = n q_C.  These are O(q_C^{2m+3}) and O(q_C^{2m+1})
    respectively, hence negligible in the assembled small-cavity rate.
    """
    eps = as_permittivity(eps)
    q_C = float(q_C)
    raise_first(positive("q_C", q_C))
    raise_first(whole_number("m_max", m_max))
    m_max = int(m_max)
    e = eps.epsilon
    z0 = complex(q_C)
    z1 = eps.n * q_C
    B_M = np.empty(m_max, dtype=complex)
    B_N = np.empty(m_max, dtype=complex)
    for m in range(1, m_max + 1):
        j0 = spherical_bessel_j(m, z0)
        j1 = spherical_bessel_j(m, z1)
        h1v = spherical_hankel_h1(m, z1)
        pj0 = riccati_derivative("bessel_j", m, z0)
        pj1 = riccati_derivative("bessel_j", m, z1)
        ph1 = riccati_derivative("hankel_h1", m, z1)
        den_M = j0 * ph1 - pj0 * h1v
        den_N = j0 * ph1 - e * pj0 * h1v
        if min(abs(den_M), abs(den_N)) < POLE_CUT:
            raise SingularityError(f"cavity scattering denominator vanished "
                                   f"at m = {m}")
        B_M[m - 1] = -(j0 * pj1 - pj0 * j1) / den_M
        B_N[m - 1] = -(j0 * pj1 - e * pj0 * j1) / den_N
    return CavityCoefficients(A=transmission_coefficient(eps, q_C),
                              B_M=B_M, B_N=B_N)


def gamma_c_exact(eps, q_C: float) -> float:
    """Exact small-cavity contribution gamma_c to Gamma/Gamma_0.

    Reduces to :func:`locfield.born.gamma_c_linear` to first order in
    chi (the difference is -chi^2/8 + O(chi^3) for real chi).  For real
    eps only the constant survives: 9 eps^{5/2}/(2 eps+1)^2 - 1.  Worked
    out as a one-element column of the exact rates of
    :mod:`locfield.rates`, so it equals their gamma_c bit for bit.
    """
    e = np.array([as_permittivity(eps).epsilon])
    q_C = float(q_C)
    h, n, chi = _medium(e)
    raise_first((*qc_faults(q_C), *method_faults("exact", e, h),
                 *cavity_scale_faults("q_C", q_C,
                                      _scale_factor("exact", e, h, chi))))
    warn_qc(q_C)
    return float(_cavity_term(e, h, n, chi, q_C)[0])


def _dipole_element(gB1, dipole):
    """d.gB1.d of a body tensor gB1, checked finite, 3x3 and symmetric,
    and one unit dipole d (:func:`locfield.greens._unit_3vector`): the
    checked contraction of every rate that takes its tensor as input."""
    g = np.asarray(gB1, dtype=complex)
    if g.shape != (3, 3):
        raise DomainError(f"gB1 must be a 3x3 tensor, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise DomainError("gB1 must be finite")
    scale = max(float(np.max(np.abs(g))), 1.0)
    if float(np.max(np.abs(g - g.T))) > _SYM_TOL * scale:
        raise InvariantError("gB1 must be symmetric (reciprocity); "
                             "asymmetry exceeds tolerance")
    d = _unit_3vector(dipole)
    return d @ g @ d


def gamma_b_corrected(eps, gB1, dipole) -> float:
    """Local-field corrected body contribution.

        gamma_b = 6 pi Im[(3 eps/(2 eps+1))^2 d.gB1.d]

    with gB1 the scattering Green tensor of the host body without the
    cavity, at the emitter position, in units of k_A.  For eps = 1 the
    factor is 1 and the uncorrected scattering term is recovered.
    """
    eps = as_permittivity(eps)
    gdd = _dipole_element(gB1, dipole)
    raise_first(method_faults("exact", eps.epsilon))
    with np.errstate(all="ignore"):  # L^2 is up to 1e308 by the pole band
        gamma = 6.0 * np.pi * float(np.imag(_local_field(eps.epsilon) ** 2
                                            * gdd))
    if not math.isfinite(gamma):
        raise NonFiniteError("corrected body rate overflowed: 6 pi "
                             "Im[L^2 d.gB1.d] leaves double range")
    return gamma


def gamma_weak_absorption(eps, q_C: float, gamma_b_uncorrected: float,
                          gB1, dipole) -> tuple[float, float]:
    """Weakly absorbing host: corrected rate plus absorption shift.

    Returns ``(gamma_total, condition_value)`` with

        gamma_total = (3 Re eps/(2 Re eps+1))^2 * gamma_b_uncorrected
                      + delta_gamma,

        delta_gamma = 9 Im(eps) / [(2 Re eps+1)^2 q_C^3]
                      + 9 (14 Re eps+1) Im(eps) / [5 (2 Re eps+1)^3 q_C],

    where ``gamma_b_uncorrected`` is the *full* uncorrected rate
    Gamma_B/Gamma_0 = sqrt(Re eps) + 6 pi Im[d.gB1.d] evaluated with the
    real part of eps (see :func:`locfield.rates.gamma_uncorrected`).
    ``condition_value`` is the smallness parameter

        |Im eps * Re(d.gB1.d)| / |Re eps * (sqrt(Re eps)/6pi + Im(d.gB1.d))|

    comparing the absorptive correction of the body term against the
    retained radiative part; the split is trustworthy when it is small
    (the divergent real part of the bulk tensor does not enter, only the
    scattering part contributes to the numerator at this order).
    """
    eps = as_permittivity(eps)
    q_C = check_qc(q_C, eps.epsilon.imag)
    gdd = complex(_dipole_element(gB1, dipole))
    gamma_b_uncorrected = float(gamma_b_uncorrected)
    raise_first((*method_faults("weak_absorption", eps.epsilon),
                 (not math.isfinite(gamma_b_uncorrected),
                  "gamma_b_uncorrected must be finite")))
    re = eps.epsilon.real
    im = eps.epsilon.imag
    gamma = (_local_field(re) ** 2 * gamma_b_uncorrected
             + _absorption_shift(eps.epsilon, q_C))
    denom = re * (math.sqrt(re) / (6.0 * np.pi) + gdd.imag)
    if denom == 0:
        condition = math.inf
    else:
        condition = abs(im * gdd.real) / abs(denom)
    return gamma, condition


def gamma_bulk(eps, q_C: float | None = None,
               model: str = "real_cavity") -> float:
    """Bulk-medium decay rate Gamma/Gamma_0 for negligible absorption.

    Models:

    * ``real_cavity``:    (3 eps/(2 eps+1))^2 sqrt(eps)
    * ``virtual_cavity``: ((eps+2)/3)^2 sqrt(eps)
    * ``linear``:         1 + 7 chi/6 (both cavity models linearized)

    All three are stated for (effectively) real permittivity; an
    absorbing eps raises DomainError, since the absorbing bulk rate is
    cavity-size dependent and must be computed as
    ``1 + gamma_c_exact(eps, q_C)`` instead.
    """
    eps = as_permittivity(eps)
    if model not in BULK_MODELS:
        raise DomainError(f"model must be one of {BULK_MODELS}, "
                          f"got {model!r}")
    if eps.is_absorbing():
        hint = "1 + gamma_c_exact(eps, q_C)"
        if q_C is not None:
            hint = f"1 + gamma_c_exact(eps, {q_C:g})"
        raise DomainError(
            f"bulk model {model!r} assumes negligible absorption "
            f"(Im eps <= {ABSORPTION_TOL:g}); for absorbing media use "
            + hint)
    e = eps.epsilon.real
    if e <= 0:
        raise DomainError("bulk closed forms need Re eps > 0")
    if model == "real_cavity":
        return float(_local_field(e) ** 2 * math.sqrt(e))
    if model == "virtual_cavity":
        return float(((e + 2.0) / 3.0) ** 2 * math.sqrt(e))
    return 1.0 + 7.0 * (e - 1.0) / 6.0
