"""Exception types shared across the package, and the input rules that
raise them.

The hierarchy separates "you asked for something outside the validated
domain" (``DomainError`` and friends, subclasses of ``ValueError``) from
"the computation could not reach the requested accuracy" (``AccuracyError``)
and "a floating-point result degenerated" (``NonFiniteError``).  The CLI
maps configuration problems to exit code 2 and numerical failures to 3.

Each input rule is written once, here, as a function that returns its
checks of a scalar or an array, in their order: ``(failed, message)``,
or ``(failed, message, type)``
when the type is not ``DomainError``; ``failed`` is a bool or a bool
array, ``message`` a string or a function, called only when the check
fails (with the point's (q_R, q_L) in a column, with nothing otherwise),
so that a rule whose text names its numbers formats nothing when it
passes.
The records and the public functions raise the first check that fails
(:func:`raise_first`); the columns of :mod:`locfield.rates` chain the
same rules over arrays and record each failing point's error.
"""

from __future__ import annotations

import math
import os
import sys
import warnings

import numpy as np

__all__ = [
    "LocfieldError",
    "DomainError",
    "SingularityError",
    "InvariantError",
    "AccuracyError",
    "NonFiniteError",
    "ConfigError",
]


class LocfieldError(Exception):
    """Base class for all errors raised deliberately by this package."""


class DomainError(LocfieldError, ValueError):
    """Argument outside the validated domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested exactly at a pole, branch point, or cut."""


class InvariantError(LocfieldError, ValueError):
    """An input violates a structural invariant (e.g. a non-symmetric
    tensor passed where a reciprocal Green tensor is required)."""


class AccuracyError(LocfieldError, RuntimeError):
    """A quadrature or series failed to meet the requested tolerance."""


class NonFiniteError(LocfieldError, FloatingPointError):
    """A NaN or infinity appeared where a finite result is guaranteed."""


class ConfigError(LocfieldError, ValueError):
    """Malformed configuration, CLI arguments, or input file format."""


ORIENTATIONS = ("radial", "tangential")

# Im eps above which a medium counts as absorbing, and the
# negligible-absorption closed forms are refused
ABSORPTION_TOL = 1.0e-6

# Hard cap, soft warning threshold and default of the cavity radius; the
# closed-form cavity terms drop O(q_C) corrections.
QC_MAX = 0.2
QC_WARN = 0.1
QC_DEFAULT = 0.01
# modulus below which a coefficient's denominator is the resonance pole
POLE_CUT = 1.0e-300

# bound on the cavity terms over max(1, |c|)/q^3 (cavity_scale_faults):
# 2 in cavity_green_linear, Im chi in the linear rate and validity value,
# |3 chi/(2 eps + 1)| <= 6 in the exact one and 9 Im chi/(2 Re eps + 1)^2
# in the weak-absorption shift, both for Re eps > 0, each with the
# smaller 1/q terms added; near the pole the exact c grows instead
_CAVITY_SCALE = 16.0

POLE = "eps = -1/2 is the pole of the local-field factor 3 eps/(2 eps + 1)"
NEAR_POLE = ("eps is too near -1/2, the pole of the local-field factor "
             "L = 3 eps/(2 eps + 1): L^2 leaves double range")
# L^2 and K = i n L^2 (|n| < 1 there) are doubles while
# |2 eps + 1| >= 3 |eps|/sqrt(max double), outside |2 eps + 1| < 1.1e-154:
# there Re eps = -1/2 exactly and |eps| rounds to 1/2, so the band is
# |eps + 1/2| < _POLE_BAND
_POLE_BAND = 0.75 / math.sqrt(sys.float_info.max)
# |eps| up to which a method's terms are doubles, with room: the exact
# route forms 2 eps + 1 and 1/(2 eps + 1), doubles to |eps| ~ 9e307, and
# the weak-absorption shift divides by 5 (2 Re eps + 1)^3, a double to
# Re eps ~ 1.65e102, and multiplies 14 Re eps + 1 by Im eps, which leaves
# double range at eps = 1e10 + 1e299j already, so |eps| is bounded there
# too, not Re eps alone
EPS_MAX = {"exact": 1.0e300, "weak_absorption": 1.0e100}

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def error_of(check, *point):
    """The exception of a check that failed at ``point``."""
    kind = check[2] if len(check) > 2 else DomainError
    return kind(check[1] if isinstance(check[1], str) else check[1](*point))


def failing(checks) -> list:
    """The checks that fail somewhere, in their order; every check is
    worked out, the failing ones too."""
    # a plain or numpy False is tested as such; count_nonzero takes a
    # third of .any()'s time on a short array
    return [check for check in checks if (failed := check[0]) is not False
            and failed is not np.False_
            and (failed is True or np.count_nonzero(failed))]


def raise_first(checks, *point):
    """Raise the error of the first check that fails anywhere."""
    for check in failing(checks):
        raise error_of(check, *point)


def _not(ok):
    """not ok, for a bool or a bool array."""
    return ~ok if isinstance(ok, np.ndarray) else not ok


def positive(name: str, value):
    """The rule that value, a real or a real array, is positive and
    finite; a float is checked in plain Python, without numpy's cost."""
    return ((_not((value > 0) & (value < math.inf)),
             lambda *_: f"{name} must be positive and finite"),)


def whole_number(name: str, value):
    """The rule that value is a whole number >= 1 (a string is not)."""
    try:
        whole = 1 <= value < math.inf and value == int(value)
    except TypeError:
        whole = False
    return ((not whole, lambda *_: f"{name} must be a whole number >= 1"),)


def inside_sphere(q_R, q_L):
    """The rule that the emitter q_L lies inside the sphere q_R."""
    return (*positive("q_R", q_R),
            (_not((q_L >= 0) & (q_L < q_R)),
             "need 0 <= q_L < q_R (emitter inside sphere)"))


def number(name: str, value, kind=complex):
    """value as kind (complex or float), or DomainError if not a number."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        real = "real " if kind is float else ""
        raise DomainError(f"{name} must be a {real}number, got {value!r}"
                          ) from None


def array(name: str, value, kind=complex) -> np.ndarray:
    """value, a number or an array of them, as an array of kind (complex
    or float), or DomainError if it holds anything else or is ragged."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged: an object array, which is refused
        arr = np.array(None)
    if arr.dtype.kind not in ("biufc" if kind is complex else "biuf"):
        real = "real " if kind is float else ""
        raise DomainError(f"{name} must be a {real}number or an array of "
                          f"{real}numbers, got {value!r}")
    return arr.astype(kind, copy=False)


def check_eps(eps) -> complex:
    """eps as a complex, checked by :func:`permittivity_faults`."""
    eps = number("eps", eps)
    raise_first(permittivity_faults(eps))
    return eps


def check_chi(chi) -> complex:
    """chi as a complex, checked by :func:`chi_faults`."""
    chi = number("chi", chi)
    raise_first(chi_faults(chi))
    return chi


def chi_faults(chi):
    """The rule of a susceptibility chi = eps - 1: finite and passive."""
    return ((~np.isfinite(chi), "chi must be finite"),
            (np.imag(chi) < 0, "passive medium required: Im chi >= 0"))


def permittivity_faults(eps):
    """The rule of a permittivity, finite, passive and nonzero."""
    return ((_not((abs(eps.real) < math.inf) & (abs(eps.imag) < math.inf)),
             "permittivity must be finite"),
            (eps.imag < 0, "passive medium required: Im eps >= 0"),
            (eps == 0, "permittivity must be nonzero"))


def method_faults(method: str, eps, h=None):
    """The rules of a rate method on its permittivity; h = eps + 1/2,
    which the exact rule reads, is formed here unless given; |eps| is
    numpy's, which a complex's builtin abs can miss by an ulp."""
    if method == "exact":
        h = eps + 0.5 if h is None else h
        size = np.abs(h)  # |eps| to within 1/2; 0 exactly where h is
        return ((size == 0.0, POLE, SingularityError),
                (size < _POLE_BAND, NEAR_POLE, SingularityError),
                *eps_size_faults(method, size))
    if method == "uncorrected":
        return ((eps.imag > ABSORPTION_TOL, "uncorrected method assumes "
                 "a transparent host; use exact or weak_absorption"),
                (eps.real <= 0, "the uncorrected rate needs Re eps > 0"))
    if method == "weak_absorption":
        return ((eps.real <= 0, "weak-absorption split needs Re eps > 0"),
                *eps_size_faults(method, np.abs(eps)))
    return ()


def eps_size_faults(method: str, size):
    """The rule that |eps| (size, a float or an array) is at most
    EPS_MAX[method], beyond which the method's terms leave double range."""
    limit = EPS_MAX[method]
    return ((size > limit, lambda *_: (
        f"|eps| must be at most {limit:g} for the {method} rates: their "
        "terms leave double range beyond")),)


def finite_rate(rate: float, formula: str) -> float:
    """rate, or NonFiniteError if formula, which gave it, overflowed."""
    if not math.isfinite(rate):
        raise NonFiniteError(f"{formula} leaves double range")
    return rate


def finite_faults(rates, formula: str):
    """The rule of :func:`finite_rate` on a rate or an array of rates."""
    return ((_not(abs(rates) < math.inf), f"{formula} leaves double range",
             NonFiniteError),)


def qc_faults(q_C: float):
    """The rule of a float cavity radius q_C: positive, at most QC_MAX."""
    return (*positive("q_C", q_C),
            (q_C > QC_MAX, lambda *_: (f"q_C = {q_C:g} too large; the "
                                       "small-cavity expansion needs "
                                       f"q_C <= {QC_MAX}")))


def cavity_scale_faults(name: str, q: float, c=1.0):
    """The rule that a float cavity radius q is positive and finite and
    the cavity terms, at most _CAVITY_SCALE max(1, |c|)/q^3, finite
    doubles; c, a number or an array, is the factor the medium puts on
    them: Im chi in the rates and their validity values, more on the
    exact route near the pole (:func:`locfield.cavity._scale_factor`),
    chi in :func:`locfield.greens.cavity_green_linear`.  A q that passes
    :func:`qc_faults` can still be too small for it (below about 4.5e-103
    at |c| <= 1), and the rates that divide by q^3 then leave double
    range."""
    return (*positive(name, q), *cavity_term_faults(name, q, c))


def cavity_term_faults(name: str, q: float, c=1.0):
    """The rule of :func:`cavity_scale_faults` on the terms of a valid q."""
    cube = q * q * q
    # the largest max(1, |c|) whose terms are doubles
    room = cube * (sys.float_info.max / _CAVITY_SCALE)
    return ((not (cube > 0 and room >= 1.0) or _not(abs(c) <= room),
             lambda *_: (f"{name} = {q:g} is too small: the cavity terms in "
                         f"1/{name}^3 leave double range"), NonFiniteError),)


def check_qc(q_C: float, c=1.0) -> float:
    """q_C as a float, checked, also for the cavity terms of factor c
    (:func:`cavity_scale_faults`), and warned about."""
    q_C = number("q_C", q_C, float)
    raise_first((*qc_faults(q_C), *cavity_scale_faults("q_C", q_C, c)))
    warn_qc(q_C)
    return q_C


def warn_qc(q_C: float) -> None:
    """Warn, naming the user's line, if a valid q_C is large enough for
    the dropped O(q_C) cavity terms to matter."""
    if q_C > QC_WARN:
        warnings.warn(f"q_C = {q_C:g} > {QC_WARN}: dropped O(q_C) cavity "
                      "terms may be significant",
                      stacklevel=outside_stacklevel())


def outside_stacklevel() -> int:
    """The stacklevel that makes a warning issued by the caller name the
    first frame outside this package and outside the ``__init__`` that
    dataclasses generate (whose code has the file name "<string>"), so
    that the warning points at the user's line."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and (
            frame.f_code.co_filename.startswith(_PACKAGE_DIR)
            or (frame.f_code.co_filename == "<string>"
                and frame.f_code.co_name == "__init__")):
        level += 1
        frame = frame.f_back
    return level


def sphere_faults(q_R, q_L, q_C: float):
    """The rule of a sphere, the emitter's cavity q_C (a float) clear of
    its surface, q_L + q_C <= q_R, as a RateRequest takes it."""
    return ((_not(abs(q_R) < math.inf), "q_R must be finite"),
            (_not(abs(q_L) < math.inf), "q_L must be finite"),
            (not math.isfinite(q_C), "q_C must be finite"),
            (q_R <= 0, "q_R must be positive"),
            (q_L < 0, "q_L must be non-negative"),
            *qc_faults(q_C),
            (q_L + q_C > q_R, lambda R, L: (
                f"emitter too close to the surface: q_L + q_C = "
                f"{L + q_C:g} exceeds q_R = {R:g}")))


def orientation_faults(orientation: str, kind=DomainError):
    """The rule that a dipole orientation is radial or tangential."""
    return ((orientation not in ORIENTATIONS, lambda *_: (
        f"orientation must be one of {ORIENTATIONS}, got {orientation!r}"),
        kind),)
