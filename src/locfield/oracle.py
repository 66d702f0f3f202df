"""Brute-force validators: Monte Carlo volume integration and
high-resolution quadrature references.

The linear scattering tensor is a volume integral over the susceptibility
region (optical coordinates, atom at the origin, tensors in units of k_A):

    Delta1_G = chi/(16 pi^2) Int_V d^3q  e^{2iq} [a(q)^2 I
                                                  + (b(q)^2 - 2ab) uu],

with u the unit vector toward the volume element.  The closed-form and
quadrature evaluations elsewhere in the package reduce this to boundary
terms analytically; here it is integrated by plain Monte Carlo instead,
giving an error bar that is honest about everything at once (radial
antiderivative, angular reduction, branch conventions).  Agreement within
a few standard errors is the strongest cross-check in the test suite.

The integrand grows like 1/q^4 toward the cavity boundary, so uniform
sampling wastes most of its points; the default importance mode draws the
radius from an equal mixture of a 1/q^4 density (matching the near-field
weight) and a uniform-in-volume density (covering the oscillatory far
zone).  Uniform sampling is retained as a cross-check mode.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError
from .greens import StarBoundary

__all__ = ["RegionSampler", "mc_delta1_green", "quad_reference"]

_MIN_SAMPLES = 1000


class RegionSampler:
    """Point sampler for a susceptibility region, with analytic volume.

    Construct via :meth:`shell`, :meth:`sphere`, or
    :meth:`sphere_minus_cavity`.  ``sample(rng, n)`` returns ``(points,
    pdf)``: an (n, 3) array of positions (atom at the origin) and the
    probability density per unit volume at each point, so that
    ``mean(f(points)/pdf)`` estimates the volume integral of f.

    The atom must lie strictly outside every region (the 1/q^3 fields
    are not integrable at coincidence); constructors enforce this.
    """

    def __init__(self, kind: str, volume: float, mode: str, sample_fn):
        self.kind = kind
        self.volume = float(volume)
        self.mode = mode
        self._sample_fn = sample_fn

    def sample(self, rng: np.random.Generator, n: int):
        return self._sample_fn(rng, int(n))

    # -- radial helpers ------------------------------------------------

    @staticmethod
    def _radial_mixture(rng, n, qa, qb):
        """Draw radii on [qa, qb] from 0.5*(density ~ 1/q^4)
        + 0.5*(density ~ q^2); qb may be an (n,) array.  Returns
        (q, rho) with rho the radial density of the mixture."""
        qa3 = qa**3
        qb3 = qb**3
        u = rng.random(n)
        pick_near = rng.random(n) < 0.5
        inv_a = 1.0 / qa3
        inv_b = 1.0 / qb3
        q = np.empty(n)
        q[pick_near] = (inv_a - u[pick_near]
                        * (inv_a - np.broadcast_to(inv_b, (n,))[pick_near])
                        ) ** (-1.0 / 3.0)
        far = ~pick_near
        qb3_far = np.broadcast_to(qb3, (n,))[far]
        q[far] = (qa3 + u[far] * (qb3_far - qa3)) ** (1.0 / 3.0)
        rho = (0.5 * 3.0 / (inv_a - inv_b) / q**4
               + 0.5 * 3.0 * q**2 / (qb3 - qa3))
        return q, rho

    @staticmethod
    def _isotropic(rng, n):
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        return v

    # -- constructors ---------------------------------------------------

    @classmethod
    def shell(cls, q_inner: float, q_outer: float,
              mode: str = "importance") -> "RegionSampler":
        """Spherical shell q_inner <= q <= q_outer centered on the atom."""
        if not (0 < q_inner < q_outer < math.inf):
            raise DomainError("need 0 < q_inner < q_outer")
        _check_mode(mode)
        volume = 4.0 * np.pi / 3.0 * (q_outer**3 - q_inner**3)

        def draw(rng, n):
            s = cls._isotropic(rng, n)
            if mode == "importance":
                q, rho = cls._radial_mixture(rng, n, q_inner, q_outer)
            else:
                u = rng.random(n)
                q = (q_inner**3 + u * (q_outer**3 - q_inner**3)) ** (1.0 / 3.0)
                rho = 3.0 * q**2 / (q_outer**3 - q_inner**3)
            pdf = rho / (4.0 * np.pi * q**2)
            return q[:, None] * s, pdf

        return cls("shell", volume, mode, draw)

    @classmethod
    def sphere(cls, q_R: float, center) -> "RegionSampler":
        """Ball of radius q_R around `center`, which must exclude the atom
        (|center| > q_R).  Uniform sampling only."""
        c = np.asarray(center, dtype=float)
        if c.shape != (3,):
            raise DomainError("center must be a 3-vector")
        if not (q_R > 0):
            raise DomainError("q_R must be positive")
        if np.linalg.norm(c) <= q_R:
            raise DomainError("atom (origin) must lie strictly outside "
                              "the sampled sphere")
        volume = 4.0 * np.pi / 3.0 * q_R**3

        def draw(rng, n):
            s = cls._isotropic(rng, n)
            r = q_R * rng.random(n) ** (1.0 / 3.0)
            pts = c + r[:, None] * s
            return pts, np.full(n, 1.0 / volume)

        return cls("sphere", volume, "uniform", draw)

    @classmethod
    def sphere_minus_cavity(cls, q_R: float, q_L: float, q_C: float,
                            mode: str = "importance") -> "RegionSampler":
        """Sphere of radius q_R (center at -q_L z from the atom) with the
        atom cavity of radius q_C removed.  Requires q_L + q_C <= q_R, so
        the cavity lies inside the body and the volume is analytic."""
        _check_mode(mode)
        if not (q_R > 0 and q_C > 0 and q_L >= 0):
            raise DomainError("need q_R > 0, q_C > 0, q_L >= 0")
        if q_L + q_C > q_R:
            raise DomainError("cavity must lie fully inside the sphere "
                              "(q_L + q_C <= q_R)")
        volume = 4.0 * np.pi / 3.0 * (q_R**3 - q_C**3)
        boundary = StarBoundary.sphere(q_R, q_L) if q_L > 0 else None
        center = np.array([0.0, 0.0, -q_L])

        def draw_importance(rng, n):
            s = cls._isotropic(rng, n)
            if boundary is None:
                q_out = q_R
            else:
                theta = np.arccos(np.clip(s[:, 2], -1.0, 1.0))
                q_out = boundary.q_outer(theta, np.zeros(n))
            q, rho = cls._radial_mixture(rng, n, q_C, q_out)
            pdf = rho / (4.0 * np.pi * q**2)
            return q[:, None] * s, pdf

        def draw_uniform(rng, n):
            out = np.empty((n, 3))
            filled = 0
            while filled < n:
                m = max(n - filled, 1024)
                s = cls._isotropic(rng, m)
                r = q_R * rng.random(m) ** (1.0 / 3.0)
                pts = center + r[:, None] * s
                keep = np.linalg.norm(pts, axis=1) >= q_C
                pts = pts[keep]
                take = min(len(pts), n - filled)
                out[filled:filled + take] = pts[:take]
                filled += take
            return out, np.full(n, 1.0 / volume)

        draw = draw_importance if mode == "importance" else draw_uniform
        return cls("sphere_minus_cavity", volume, mode, draw)


def _check_mode(mode: str):
    if mode not in ("importance", "uniform"):
        raise DomainError(f"mode must be 'importance' or 'uniform', "
                          f"got {mode!r}")


def mc_delta1_green(sampler: RegionSampler, chi, n_samples: int,
                    seed: int, chunk: int = 1_000_000):
    """Monte Carlo estimate of the linear scattering tensor Delta1_G.

    Parameters
    ----------
    sampler : RegionSampler
    chi : complex susceptibility of the region
    n_samples : total sample count (>= 1000)
    seed : RNG seed; runs are bit-reproducible for a given seed
    chunk : samples per accumulation block (memory control)

    Returns
    -------
    (estimate, stderr) : two (3, 3) complex arrays
        ``stderr`` holds the per-component standard error of the real
        part plus 1j times that of the imaginary part.
    """
    n_samples = int(n_samples)
    if n_samples < _MIN_SAMPLES:
        raise DomainError(f"n_samples must be >= {_MIN_SAMPLES} for a "
                          "meaningful error estimate")
    chi = complex(chi)
    rng = np.random.default_rng(seed)
    # the sample tensor ca I + cb u u^T is symmetric: accumulate its six
    # distinct components (xx, yy, zz, xy, xz, yz), then spread them
    rows, cols = (0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2)
    spread = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])
    s1 = np.zeros(6, dtype=complex)
    s2_re = np.zeros(6)
    s2_im = np.zeros(6)
    pref = chi / (16.0 * np.pi**2)
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        pts, pdf = sampler.sample(rng, m)
        q = np.linalg.norm(pts, axis=1)
        u = pts / q[:, None]
        a = 1.0 / q + 1j / q**2 - 1.0 / q**3
        b = 1.0 / q + 3j / q**2 - 3.0 / q**3
        phase = np.exp(2j * q)
        w = pref * phase / pdf
        ca = w * a * a
        cb = w * (b * b - 2.0 * a * b)
        for k, (i, j) in enumerate(zip(rows, cols)):
            vals = cb * (u[:, i] * u[:, j])
            if i == j:
                vals += ca
            s1[k] += vals.sum()
            s2_re[k] += (vals.real**2).sum()
            s2_im[k] += (vals.imag**2).sum()
        done += m
    s1, s2_re, s2_im = s1[spread], s2_re[spread], s2_im[spread]
    mean = s1 / n_samples
    var_re = np.maximum(s2_re / n_samples - mean.real**2, 0.0)
    var_im = np.maximum(s2_im / n_samples - mean.imag**2, 0.0)
    stderr = (np.sqrt(var_re / n_samples)
              + 1j * np.sqrt(var_im / n_samples))
    return mean, stderr


def quad_reference(integrand, domain, tol: float = 1.0e-10):
    """Adaptive quadrature reference with a certified tolerance.

    Parameters
    ----------
    integrand : callable
        ``f(x)`` for a 1D domain or ``f(x, y)`` for a 2D domain; may
        return a scalar or an ndarray of fixed shape (each component is
        integrated independently).
    domain : (a, b) or ((a, b), (c, d))
    tol : absolute tolerance on every component.

    Returns
    -------
    complex scalar or complex ndarray

    Raises
    ------
    AccuracyError if the quadrature error estimate exceeds tol.
    """
    if not (tol > 0):
        raise DomainError("tol must be positive")
    dom = _parse_domain(domain)
    if len(dom) == 1:
        (a, b), = dom
        probe = np.asarray(integrand(0.5 * (a + b)))
        if probe.shape == ():
            return _quad1(integrand, a, b, tol)
        out = np.empty(probe.shape, dtype=complex)
        for idx in np.ndindex(probe.shape):
            out[idx] = _quad1(lambda x, i=idx: np.asarray(integrand(x))[i],
                              a, b, tol)
        return out
    (a, b), (c, d) = dom
    probe = np.asarray(integrand(0.5 * (a + b), 0.5 * (c + d)))
    if probe.shape == ():
        return _quad2(integrand, a, b, c, d, tol)
    out = np.empty(probe.shape, dtype=complex)
    for idx in np.ndindex(probe.shape):
        out[idx] = _quad2(lambda x, y, i=idx: np.asarray(integrand(x, y))[i],
                          a, b, c, d, tol)
    return out


def _parse_domain(domain):
    try:
        if np.ndim(domain[0]) == 0:
            a, b = float(domain[0]), float(domain[1])
            if not a < b:
                raise DomainError("domain must have a < b")
            return ((a, b),)
        (a, b), (c, d) = domain
        a, b, c, d = map(float, (a, b, c, d))
    except (TypeError, ValueError, IndexError) as exc:
        raise DomainError(f"unrecognized domain {domain!r}") from exc
    if not (a < b and c < d):
        raise DomainError("domain intervals must be increasing")
    return ((a, b), (c, d))


# scipy.integrate is imported inside the two drivers below, not at the top:
# it costs about a third of a second, and nothing outside this validator
# needs it.

def _quad1(f, a, b, tol) -> complex:
    from scipy.integrate import quad
    val, err = quad(f, a, b, complex_func=True, epsabs=0.1 * tol,
                    epsrel=1.0e-13, limit=400)
    if abs(err.real) + abs(err.imag) > tol:
        raise AccuracyError(f"1D quadrature error estimate "
                            f"{abs(err.real) + abs(err.imag):.3e} exceeds "
                            f"tol {tol:g}")
    return complex(val)


def _quad2(f, a, b, c, d, tol) -> complex:
    from scipy.integrate import quad
    inner_tol = 0.05 * tol / (b - a)
    worst_inner = 0.0

    def inner(x):
        nonlocal worst_inner
        val, err = quad(lambda y: f(x, y), c, d, complex_func=True,
                        epsabs=inner_tol, epsrel=1.0e-13, limit=200)
        worst_inner = max(worst_inner, abs(err.real) + abs(err.imag))
        return val

    val, err = quad(inner, a, b, complex_func=True, epsabs=0.1 * tol,
                    epsrel=1.0e-13, limit=200)
    total_err = abs(err.real) + abs(err.imag) + worst_inner * (b - a)
    if total_err > tol:
        raise AccuracyError(f"2D quadrature error estimate {total_err:.3e} "
                            f"exceeds tol {tol:g}")
    return complex(val)
