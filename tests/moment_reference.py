"""mpmath references for the linear body term of the sphere.

The test modules import this file; pytest collects no tests from it.
The moments of the off-centre sphere come from the exact antiderivatives
of ``tools/derive_sphere_moments.py`` at 40 digits, and P and Q from
mpmath's own Ei, apart from the derivation.
"""

import importlib.util
from pathlib import Path

import mpmath


def mp_brace_coeffs(q):
    # P = cI e^{2iq} + (4i/3) Ei(2iq), Q = cS e^{2iq} - 4i Ei(2iq), at 40
    # digits or at the caller's precision where that is higher (as
    # mpmath.diff raises it)
    with mpmath.workdps(max(40, mpmath.mp.dps)):
        q = mpmath.mpf(q)
        phase, ei = mpmath.expj(2 * q), mpmath.ei(mpmath.mpc(0, 2 * q))
        c_I = 1 / (3 * q**3) - 2j / (3 * q**2) - 5 / (3 * q) + 0.5j
        c_S = 1 / q**3 - 2j / q**2 + 3 / q - 0.5j
        return c_I * phase + 4j / 3 * ei, c_S * phase - 4j * ei


def _derivation():
    path = Path(__file__).parents[1] / "tools" / "derive_sphere_moments.py"
    spec = importlib.util.spec_from_file_location("derive_sphere_moments",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DERIVATION = _derivation()


def _mp_complex(c):
    return (mpmath.mpf(c[0].numerator) / c[0].denominator
            + 1j * mpmath.mpf(c[1].numerator) / c[1].denominator)


def mp_antiderivative(basis, q):
    # e^{2iq} R(q) + Ei(2iq) S(q) of one basis, from the exact rationals
    r, s = DERIVATION.antiderivative(*DERIVATION.BASES[basis])
    return (mpmath.expj(2 * q) * sum(_mp_complex(c) * q**p
                                     for p, c in r.items())
            + mpmath.ei(mpmath.mpc(0, 2 * q))
            * sum(_mp_complex(c) * q**p for p, c in s.items()))


def mp_sphere_moments(q_R, q_L):
    # M0, M1, M2 at 40 digits from the six antiderivatives
    with mpmath.workdps(40):
        q_R, q_L = mpmath.mpf(q_R), mpmath.mpf(q_L)
        lo, hi = q_R - q_L, q_R + q_L
        a = lo * hi
        j = [mp_antiderivative(b, hi) - mp_antiderivative(b, lo)
             for b in range(6)]
        return [(j[0] + a * j[1]) / (2 * q_L), (j[3] + a * j[4]) / (2 * q_L),
                (j[2] - a * j[3] - a**2 * j[4] + a**3 * j[5]) / (8 * q_L**3)]




def mp_body_term(q_R, q_L, chi, orientation):
    # -(3/4) Im[chi Int (P + z Q) dx], z = x^2 (radial) or (1 - x^2)/2
    m0, m1, m2 = mp_sphere_moments(q_R, q_L)
    with mpmath.workdps(40):
        integral = m0 + m2 if orientation == "radial" else m0 + (m1 - m2) / 2
        return float(-0.75 * (mpmath.mpc(chi) * integral).imag)
