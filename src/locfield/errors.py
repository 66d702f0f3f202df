"""Exception types shared across the package, and the input rules that
raise them.

The hierarchy separates "you asked for something outside the validated
domain" (``DomainError`` and friends, subclasses of ``ValueError``) from
"the computation could not reach the requested accuracy" (``AccuracyError``)
and "a floating-point result degenerated" (``NonFiniteError``).  The CLI
maps configuration problems to exit code 2 and numerical failures to 3.

Each input rule is written once, here, as a generator of checks of a
scalar or an array: ``(failed, message)``, or ``(failed, message, type)``
when the type is not ``DomainError``; ``failed`` is a bool or a bool
array, ``message`` a string or a function of the point's (q_R, q_L).
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

# Hard cap and soft warning threshold for the cavity radius; the
# closed-form cavity terms drop O(q_C) corrections.
QC_MAX = 0.2
QC_WARN = 0.1

POLE = "eps = -1/2 is the pole of the local-field factor 3 eps/(2 eps + 1)"

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def error_of(check, *point):
    """The exception of a check that failed at ``point``."""
    kind = check[2] if len(check) > 2 else DomainError
    return kind(check[1] if isinstance(check[1], str) else check[1](*point))


def raise_first(checks, *point):
    """Raise the error of the first check that fails anywhere."""
    for check in checks:
        failed = check[0]
        if isinstance(failed, np.ndarray):
            failed = failed.any()
        if failed:
            raise error_of(check, *point)


def _not(ok):
    """not ok, for a bool or a bool array."""
    return ~ok if isinstance(ok, np.ndarray) else not ok


def positive(name: str, value):
    """The rule that value, a real or a real array, is positive and
    finite; a float is checked in plain Python, without numpy's cost."""
    yield (_not((value > 0) & (value < math.inf)),
           f"{name} must be positive and finite")


def inside_sphere(q_R, q_L):
    """The rule that the emitter q_L lies inside the sphere q_R."""
    yield from positive("q_R", q_R)
    yield (_not((q_L >= 0) & (q_L < q_R)),
           "need 0 <= q_L < q_R (emitter inside sphere)")


def chi_faults(chi):
    """The rule of a susceptibility chi = eps - 1: finite and passive."""
    yield ~np.isfinite(chi), "chi must be finite"
    yield np.imag(chi) < 0, "passive medium required: Im chi >= 0"


def permittivity_faults(eps):
    """The rule of :class:`locfield.greens.Permittivity`."""
    yield ~np.isfinite(eps), "permittivity must be finite"
    yield np.imag(eps) < 0, "passive medium required: Im eps >= 0"
    yield eps == 0, "permittivity must be nonzero"


def method_faults(method: str, eps):
    """The rules of a rate method on its permittivity."""
    if method == "exact":
        yield 2.0 * eps + 1.0 == 0, POLE, SingularityError
    elif method == "uncorrected":
        yield (np.imag(eps) > ABSORPTION_TOL, "uncorrected method assumes "
               "a transparent host; use exact or weak_absorption")
        yield np.real(eps) <= 0, "the uncorrected rate needs Re eps > 0"
    elif method == "weak_absorption":
        yield np.real(eps) <= 0, "weak-absorption split needs Re eps > 0"


def qc_faults(q_C: float):
    """The rule of a float cavity radius q_C: positive, at most QC_MAX."""
    yield from positive("q_C", q_C)
    yield q_C > QC_MAX, (f"q_C = {q_C:g} too large; the small-cavity "
                         f"expansion needs q_C <= {QC_MAX}")


def check_qc(q_C: float) -> float:
    """q_C as a float, checked and warned about."""
    q_C = float(q_C)
    raise_first(qc_faults(q_C))
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


def sphere_faults(q_R, q_L, q_C: float, nu: float):
    """The rule of :class:`locfield.born.SphereConfig` (q_C, nu floats)."""
    yield ~np.isfinite(q_R), "q_R must be finite"
    yield ~np.isfinite(q_L), "q_L must be finite"
    yield not math.isfinite(q_C), "q_C must be finite"
    yield not math.isfinite(nu), "nu must be finite"
    yield q_R <= 0, "q_R must be positive"
    yield q_L < 0, "q_L must be non-negative"
    yield nu < 0, "nu must be non-negative"
    yield from qc_faults(q_C)
    yield q_L + (1.0 + nu) * q_C > q_R, lambda R, L: (
        f"emitter too close to the surface: q_L + (1+nu) q_C = "
        f"{L + (1 + nu) * q_C:g} exceeds q_R = {R:g}")


def orientation_faults(orientation: str, kind=DomainError):
    """The rule that a dipole orientation is radial or tangential."""
    yield (orientation not in ORIENTATIONS, f"orientation must be one of "
           f"{ORIENTATIONS}, got {orientation!r}", kind)
