"""Fit the rational tables behind ``locfield.specfun._ei_imaginary_axis``.

Run from the repository root with mpmath installed::

    python3 tools/fit_sici.py

It prints the coefficient tables as ``specfun`` holds them, highest
power first as Horner's rule takes them, each with the largest error of
its fits on a dense grid, with the coefficients rounded to double.  The
package does not import this script and the test suite does not run it;
``tests/test_specfun.py`` and ``tests/test_greens.py`` check the tables
in ``specfun`` against mpmath.

The tables are rational functions p/q with q(0) = 1, fitted by
linearised least squares on Chebyshev nodes and reweighted (Lawson)
toward minimax:

* below y = 4, Si(y) = y S(y^2) and Ci(y) = gamma + ln y + y^2 C(y^2);
* from y = 4, the auxiliary functions of Abramowitz & Stegun 5.2.6-7,
  f(y) = F(t)/y and g(y) = G(t)/y^2 in t = 1/y^2, on [4, 8) and
  [8, inf).

Every error is weighted to the absolute error of Si, Ci, f or g, the
terms that Ei(iy) adds up: Ci(y) + i (Si(y) + pi/2) below y = 4, and
i pi - (g + i f) e^{iy} from there on.
"""

import mpmath as mp

mp.mp.dps = 50
NODES = 80
SWEEPS = 12
CHECK = 2000


def si_ci(y):
    return mp.si(y), mp.ci(y)


def aux_fg(y):
    """f(y), g(y) from Si and Ci (A&S 5.2.6-7)."""
    si, ci = si_ci(y)
    h = mp.pi / 2 - si
    return ci * mp.sin(y) + h * mp.cos(y), h * mp.sin(y) - ci * mp.cos(y)


def small_tables(u):
    """(S, weight), (C, weight) at u = y^2/16 in [0, 1]."""
    z = 16 * u
    if z == 0:
        return (mp.mpf(1), 0), (mp.mpf(-1) / 4, 0)
    y = mp.sqrt(z)
    si, ci = si_ci(y)
    return (si / y, y), ((ci - mp.euler - mp.log(y)) / z, z)


def large_tables(y0):
    """(F, weight), (G, weight) at u = (y0/y)^2 in [0, 1]."""
    def at(u):
        if u == 0:
            return (mp.mpf(1), 0), (mp.mpf(1), 0)
        y = y0 / mp.sqrt(u)
        f, g = aux_fg(y)
        return (y * f, 1 / y), (y * y * g, 1 / (y * y))
    return at


def fit(target, lo, degree):
    """p/q of the given degree on u in [lo, 1], q(0) = 1, minimising the
    weighted error; returns (p, q), lowest power first.  A node of weight
    0 (the limit y -> inf) still pins the fit a little."""
    us = [lo + (1 - lo) * (1 - mp.cos(mp.pi * (k + mp.mpf(1) / 2) / NODES))
          / 2 for k in range(NODES)] + [mp.mpf(lo), mp.mpf(1)]
    values = [target(u) for u in us]
    lawson, denom = [mp.mpf(1)] * len(us), [mp.mpf(1)] * len(us)
    for _ in range(SWEEPS):
        a = mp.matrix(len(us), 2 * degree + 1)
        b = mp.matrix(len(us), 1)
        for i, (u, (v, w)) in enumerate(zip(us, values)):
            scale = lawson[i] * (w or mp.mpf(10) ** -20) / denom[i]
            for k in range(degree + 1):
                a[i, k] = scale * u ** k
            for k in range(1, degree + 1):
                a[i, degree + k] = -scale * v * u ** k
            b[i] = scale * v
        x = mp.qr_solve(a, b)[0]
        p = [x[k] for k in range(degree + 1)]
        q = [mp.mpf(1)] + [x[degree + k] for k in range(1, degree + 1)]
        denom = [mp.polyval(q[::-1], u) for u in us]
        err = [abs(mp.polyval(p[::-1], u) / d - v) * w
               for u, d, (v, w) in zip(us, denom, values)]
        top = max(err)
        lawson = [l * mp.sqrt(e / top) + mp.mpf(10) ** -30
                  for l, e in zip(lawson, err)]
    return p, q


def in_variable(coeffs, per):
    """Coefficients of c(u) rewritten in x = u / per, rounded to double,
    highest power first."""
    return tuple(float(c * mp.mpf(per) ** k)
                 for k, c in reversed(list(enumerate(coeffs))))


def max_error(target, lo, p, q, per):
    """Largest weighted error of the double tables p, q (in x = u/per)
    over a dense grid of u in [lo, 1]; also min q, which must stay > 0."""
    top, qmin = mp.mpf(0), mp.inf
    for k in range(CHECK + 1):
        u = lo + (1 - lo) * mp.mpf(k) / CHECK
        v, w = target(u)
        qv = mp.polyval([mp.mpf(c) for c in q], u / per)
        top = max(top, abs(mp.polyval([mp.mpf(c) for c in p], u / per)
                           / qv - v) * w)
        qmin = min(qmin, qv)
    return top, qmin


def table(name, fits):
    """One table of specfun, as Python source: the rows p1, q1, p2, q2."""
    rows = [row for pair in fits for row in pair]
    body = ",\n    ".join(
        "(" + ",\n     ".join(", ".join(map(repr, row[i:i + 3]))
                              for i in range(0, len(row), 3)) + ")"
        for row in rows)
    return f"{name} = _horner_table(\n    {body})"


def main():
    groups = [("_SI_CI", [
        ("S below 4", lambda u: small_tables(u)[0], 0, 5, mp.mpf(1) / 16),
        ("C below 4", lambda u: small_tables(u)[1], 0, 5, mp.mpf(1) / 16)])]
    for y0, y1 in ((4, 8), (8, mp.inf)):
        lo = (mp.mpf(y0) / y1) ** 2
        at = large_tables(mp.mpf(y0))
        groups.append((f"_AUX_{y0}", [
            (f"F on [{y0}, {y1})", lambda u, at=at: at(u)[0], lo, 6, y0 * y0),
            (f"G on [{y0}, {y1})", lambda u, at=at: at(u)[1], lo, 6,
             y0 * y0)]))
    for name, jobs in groups:
        fits = []
        for label, target, lo, degree, per in jobs:
            p, q = fit(target, lo, degree)
            p, q = in_variable(p, per), in_variable(q, per)
            err, qmin = max_error(target, lo, p, q, per)
            print(f"# {label}: [{degree}/{degree}], largest weighted error "
                  f"{mp.nstr(err, 3)}, smallest denominator "
                  f"{mp.nstr(qmin, 3)}")
            fits.append((p, q))
        print(table(name, fits))


if __name__ == "__main__":
    main()
