"""Local-field corrected spontaneous decay in absorbing dielectrics.

The package computes the decay rate Gamma/Gamma_0 of a dipole emitter
embedded in a dispersing, absorbing dielectric body, with the local
field handled by a real (empty) cavity around the emitter.  Two
independent routes are provided and cross-checked:

* a linear Born expansion of the body's scattering Green tensor
  (:mod:`locfield.born`, :mod:`locfield.greens`), valid for weakly
  polarizable bodies, and
* the exact real-cavity rate for a spherical body, built from the
  cavity transmission/scattering coefficients (:mod:`locfield.cavity`)
  and the sphere's Mie series (:mod:`locfield.mie`).

All lengths enter premultiplied by the emitter wavenumber k_A (so
``q_R = k_A R`` etc.); rates are returned as the dimensionless ratio
Gamma/Gamma_0.  :mod:`locfield.rates` ties the routes together behind
one request interface, for a single request or a batch, and converts
to SI when asked; :mod:`locfield.cli` is the ``locfield`` command-line
front end.  The Monte Carlo and quadrature cross-checks that the
validation suite uses live in :mod:`locfield.oracle`, which
``import locfield`` does not load: import it by name.
"""

from .born import (ORIENTATIONS, RateBreakdown, ValidityReport,
                   gamma_b_sphere_linear, gamma_c_linear, gamma_total_linear,
                   validity_check)
from .cavity import (BULK_MODELS, CavityCoefficients, gamma_b_corrected,
                     gamma_bulk, gamma_c_exact, gamma_weak_absorption,
                     outside_scatter_coefficients, transmission_coefficient)
from .errors import (AccuracyError, ConfigError, DomainError,
                     InvariantError, LocfieldError, NonFiniteError,
                     SingularityError)
from .greens import (StarBoundary, body_green_linear, cavity_green_linear,
                     f_integrand, vacuum_green)
from .mie import (body_green_center, gamma_b_exact, gamma_center_exact,
                  sphere_coefficients)
from .rates import (GEOMETRIES, METHODS, AtomParams, RateRequest, compute,
                    compute_batch, gamma0_si, gamma_uncorrected)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "AtomParams", "BULK_MODELS", "CavityCoefficients",
    "ConfigError", "DomainError", "GEOMETRIES", "InvariantError",
    "LocfieldError", "METHODS", "NonFiniteError", "ORIENTATIONS",
    "RateBreakdown", "RateRequest", "SingularityError", "StarBoundary",
    "ValidityReport", "body_green_center", "body_green_linear",
    "cavity_green_linear", "compute", "compute_batch", "f_integrand",
    "gamma0_si", "gamma_b_corrected",
    "gamma_b_exact", "gamma_b_sphere_linear", "gamma_bulk", "gamma_c_exact",
    "gamma_c_linear", "gamma_center_exact", "gamma_total_linear",
    "gamma_uncorrected", "gamma_weak_absorption",
    "outside_scatter_coefficients", "sphere_coefficients",
    "transmission_coefficient", "vacuum_green", "validity_check",
    "__version__",
]
