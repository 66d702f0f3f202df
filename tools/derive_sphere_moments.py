"""Derive the tables behind ``locfield.greens._sphere_moments``.

Run from the repository root::

    python3 tools/derive_sphere_moments.py

It prints the coefficient tables as ``greens`` holds them.  Every
coefficient is an exact rational, derived here with
:class:`fractions.Fraction` and printed as the nearest double;
``tests/test_greens.py`` runs :func:`tables` and asserts that the shipped
literals equal its output.

The moments of the off-centre sphere are integrals over x = cos(theta)
of the rate density P + z Q of ``greens._brace_coeffs``,

    P = cI(t) e^{2iq} + (4i/3) Ei(2iq),   Q = cS(t) e^{2iq} - 4i Ei(2iq),

t = 1/q, at the distance q = q_o(x) from the emitter to the surface.
With q as the variable of integration, A = q_- q_+ and the endpoints
q_- = q_R - q_L, q_+ = q_R + q_L,

    2 q_L M0 = Int (1 + A q^-2) P dq,   2 q_L M1 = Int (1 + A q^-2) Q dq,
    8 q_L^3 M2 = Int (q^2 - A - A^2 q^-2 + A^3 q^-4) Q dq,

over [q_-, q_+].  So six antiderivatives carry all three moments:
Int q^k P dq for k = 0, -2 and Int q^k Q dq for k = 2, 0, -2, -4.  Each
is e^{2iq} R(q) + Ei(2iq) S(q) with Laurent polynomials R and S, from

    Int q^k e^{2iq} dq = q^k e^{2iq}/(2i) - k/(2i) Int q^(k-1) e^{2iq} dq
                                                    (k >= 0),
    Int q^k e^{2iq} dq = [q^(k+1) e^{2iq} - 2i Int q^(k+1) e^{2iq} dq]/(k+1)
                                                    (k <= -2),
    Int e^{2iq}/q dq = Ei(2iq),
    Int q^k Ei(2iq) dq = [q^(k+1) Ei(2iq) - Int q^k e^{2iq} dq]/(k+1).

The last rule meets only even k, so k + 1 is never 0.  Each coefficient
of R and S is real or imaginary, never both, so |re| + |im| is its
modulus, and :func:`tables` has its rows for the rounding bound of the
moments.  ``greens`` forms them from the real and imaginary rows at
import (``np.hypot``), so :func:`main` prints those rows alone.
"""

from fractions import Fraction

# powers of the tables: q^3 .. q^0 by Horner in q, t^6 .. t^1 by Horner
# in t = 1/q
Q_POWERS = (3, 2, 1, 0)
T_POWERS = (-6, -5, -4, -3, -2, -1)

# the six antiderivatives, in the order of the tables: (density, k)
BASES = (("P", 0), ("P", -2), ("Q", 2), ("Q", 0), ("Q", -2), ("Q", -4))


def _c(re=0, im=0):
    return (Fraction(re), Fraction(im))


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _scale(poly, c):
    return {p: _mul(v, c) for p, v in poly.items()}


def _accumulate(into, poly):
    for p, v in poly.items():
        into[p] = _add(into.get(p, _c()), v)


# the densities as (e^{2iq} coefficients by power of q, Ei coefficient)
_DENSITIES = {
    "P": ({-3: _c(Fraction(1, 3)), -2: _c(0, Fraction(-2, 3)),
           -1: _c(Fraction(-5, 3)), 0: _c(0, Fraction(1, 2))},
          _c(0, Fraction(4, 3))),
    "Q": ({-3: _c(1), -2: _c(0, -2), -1: _c(3), 0: _c(0, Fraction(-1, 2))},
          _c(0, -4)),
}


def exp_antiderivative(k):
    """(R, s) with d/dq [e^{2iq} R(q) + s Ei(2iq)] = q^k e^{2iq}; R maps
    powers of q to coefficients."""
    if k == -1:
        return {}, _c(1)
    if k >= 0:
        half = _c(0, Fraction(-1, 2))               # 1/(2i)
        rest, s = exp_antiderivative(k - 1)
        r = _scale(rest, _mul(_c(-k), half))
        _accumulate(r, {k: half})
        return r, _mul(s, _mul(_c(-k), half))
    c = _c(Fraction(1, k + 1))
    rest, s = exp_antiderivative(k + 1)
    lead = _mul(_c(0, -2), c)                       # -2i/(k+1)
    r = _scale(rest, lead)
    _accumulate(r, {k + 1: c})
    return r, _mul(s, lead)


def antiderivative(density, k):
    """(R, S), Laurent polynomials in q, with
    d/dq [e^{2iq} R + Ei(2iq) S] = q^k times the density."""
    exp_part, ei = _DENSITIES[density]
    r, s = {}, {}
    for p, c in exp_part.items():
        rp, sp = exp_antiderivative(p + k)
        _accumulate(r, _scale(rp, c))
        _accumulate(s, {0: _mul(sp, c)})
    # Int q^k Ei = [q^(k+1) Ei - Int q^k e^{2iq}] / (k+1), times ei
    c = _mul(ei, _c(Fraction(1, k + 1)))
    rp, sp = exp_antiderivative(k)
    _accumulate(r, _scale(rp, _mul(c, _c(-1))))
    _accumulate(s, {0: _mul(sp, _mul(c, _c(-1))), k + 1: c})
    return r, s


def _row(poly, part, powers):
    if part == "abs":
        return tuple(abs(poly.get(p, _c())[0]) + abs(poly.get(p, _c())[1])
                     for p in powers)
    index = 0 if part == "re" else 1
    return tuple(poly.get(p, _c())[index] for p in powers)


def exact_tables():
    """(q_rows, t_rows) of Fractions over Q_POWERS and T_POWERS: the
    rows Re R of the six BASES in turn, then Im R, Re S, Im S, |R| and
    |S| alike."""
    polys = [antiderivative(d, k) for d, k in BASES]
    for r, s in polys:
        if not set(r) | set(s) <= set(Q_POWERS) | set(T_POWERS):
            raise ValueError("a power lies outside the tables")
    q_rows, t_rows = [], []
    for part, which in (("re", 0), ("im", 0), ("re", 1), ("im", 1),
                        ("abs", 0), ("abs", 1)):
        for poly in polys:
            q_rows.append(_row(poly[which], part, Q_POWERS))
            t_rows.append(_row(poly[which], part, T_POWERS))
    return q_rows, t_rows


def tables():
    """The tables as ``greens`` ships them: rows of doubles."""
    q_rows, t_rows = exact_tables()
    return ([tuple(float(c) for c in row) for row in q_rows],
            [tuple(float(c) for c in row) for row in t_rows])


def _source(name, rows):
    """One table of greens, as Python source within 79 columns."""
    lines = [f"{name} = _moment_table("]
    for k, row in enumerate(rows):
        line = "    ("
        for i, value in enumerate(row):
            item = repr(value) + (", " if i + 1 < len(row) else "")
            if len(line + item.rstrip()) > 77:
                lines.append(line.rstrip())
                line = "     "
            line += item
        lines.append(line + ("))" if k + 1 == len(rows) else "),"))
    return "\n".join(lines)


def main():
    q_rows, t_rows = tables()
    # greens stores Re R, Im R, Re S and Im S, and forms |R| and |S|
    stored = 4 * len(BASES)
    print("# rows: Re R, Im R, Re S and Im S of the bases")
    print("# " + ", ".join(f"Int q^{k} {d}" for d, k in BASES))
    print(_source("_MOMENT_Q", q_rows[:stored]))
    print(_source("_MOMENT_T", t_rows[:stored]))


if __name__ == "__main__":
    main()
