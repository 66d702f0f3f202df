"""Write the 40-digit reference table of the off-centre exact body rate.

Run from the repository root::

    python3 tools/offcenter_reference.py

It writes ``tests/offcenter_reference.json`` (about 5 minutes on one
core).  For each input the table holds gamma_b from the naive sphere
series of the ``locfield.mie`` docstring,

    gamma_b(radial) = (3/2) Im{ K sum_m (2m+1) m (m+1) C_m^N [j_m(x)/x]^2 },
    gamma_b(tang.)  = (3/4) Im{ K sum_m (2m+1)
                                 [ C_m^M j_m(x)^2 + C_m^N (psi_m'(x)/x)^2 ] },

summed in mpmath at 40 digits, with h_m and j_m from ``hankel1`` and
``besselj`` of half-integer order and the Riccati derivatives from
[z f_m]' = z f_{m-1} - m f_m.  mpmath's ``hankel1`` is ``besselj`` plus
i ``bessely``, which cancel as e^{-2 Im z}, so h_m is taken with that
many more digits (about 370 at eps = 1 + 100j, q_R = 60).  mpmath's
numbers have no exponent range, so C_m^N ~ 1e100 and j_m(x)^2 ~ 1e-100
are formed apart without harm,
and the sum runs until SMALL_RUN successive terms fall below TERM_TOL of
it, with no cap short of ORDER_LIMIT.

Beside each reference the table names the LocfieldError that
``locfield.mie.gamma_b_exact`` raises there, or null where it returns a
rate; ``tests/test_offcenter_reference.py`` checks every returned rate
against the reference and every other point for its named error.  The
inputs are

* the 100 requests of the benchmark's interior probe at seed 0
  (``benchmarks/workloads.py::probe_inputs``), q_L/q_R in [0.5, 0.95];
* the grid GRID_EPS x GRID_Q_R x GRID_RATIO x both orientations, with
  q_L = ratio * q_R;
* small spheres, GRID_EPS x SMALL_Q_R x INNER_RATIO x both orientations;
* absorbing hosts, ABSORBING_EPS x GRID_Q_R x INNER_RATIO x both
  orientations;
* a strongly absorbing host, DEEP_EPS at q_R = DEEP_Q_R, with the emitter
  at DEEP_Q_L, both orientations: its rates are 1e-260 to 1e-44, so the
  suite's rule, which floors |reference| at 0.01, cannot see them, and
  ``tests/test_mie.py`` holds them to 1e-12 of themselves.

The script prints the largest error of the returned rates, in units of
max(|reference|, 0.01).
"""

import json
import sys
from collections import Counter
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from locfield.errors import LocfieldError  # noqa: E402
from locfield.mie import gamma_b_exact  # noqa: E402

TABLE = ROOT / "tests" / "offcenter_reference.json"

DPS = 40
TERM_TOL = "1e-25"
SMALL_RUN = 5
ORDER_LIMIT = 5000

GRID_EPS = (complex(1.1, 1e-8), complex(1.5, 1e-6))
GRID_Q_R = (0.5, 1.0, 2.0, 5.0, 20.0)
GRID_RATIO = (0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.97)
SMALL_Q_R = (0.05, 0.3)
ABSORBING_EPS = (complex(2.25, 0.1), complex(1.0, 2.0))
INNER_RATIO = (0.2, 0.5)
DEEP_EPS, DEEP_Q_R, DEEP_Q_L = complex(1.0, 100.0), 60.0, (18.0, 53.0)
ORIENTATIONS = ("radial", "tangential")


def _j(m, z):
    return mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(m + 0.5, z)


def _h(m, z):
    # 2 Im z / ln 10 = Im z / 1.15 digits cancel in besselj + i bessely
    with mpmath.extradps(int(max(mpmath.im(z), 0) / 1.15) + 1):
        return +(mpmath.sqrt(mpmath.pi / (2 * z))
                 * mpmath.hankel1(m + 0.5, z))


def body_rates(eps: complex, q_R: float, q_Ls) -> dict:
    """{(q_L, orientation): gamma_b} at 40 digits for one sphere and the
    emitter displacements q_Ls, which share its coefficients C_m."""
    with mpmath.workdps(DPS):
        tol = mpmath.mpf(TERM_TOL)
        e = mpmath.mpc(eps.real, eps.imag)
        n = mpmath.sqrt(e)
        K = 9j * e**2 * n / (2 * e + 1) ** 2
        z0, z1 = mpmath.mpc(q_R), n * mpmath.mpf(q_R)
        x = {q_L: n * mpmath.mpf(q_L) for q_L in q_Ls}
        h0, h1, j1 = _h(0, z0), _h(0, z1), _j(0, z1)
        jx = {q_L: _j(0, v) for q_L, v in x.items()}
        total = {(q_L, o): mpmath.mpc(0) for q_L in x for o in ORIENTATIONS}
        run = dict.fromkeys(total, 0)
        for m in range(1, ORDER_LIMIT + 1):
            h0_, h0 = h0, _h(m, z0)
            h1_, h1 = h1, _h(m, z1)
            j1_, j1 = j1, _j(m, z1)
            xi0p, xi1p = z0 * h0_ - m * h0, z1 * h1_ - m * h1
            ps1p = z1 * j1_ - m * j1
            C_N = -(e * h1 * xi0p - xi1p * h0) / (e * j1 * xi0p - ps1p * h0)
            C_M = -(h1 * xi0p - xi1p * h0) / (j1 * xi0p - ps1p * h0)
            live = [q_L for q_L in x
                    if min(run[q_L, o] for o in ORIENTATIONS) < SMALL_RUN]
            if not live:
                break
            for q_L in live:
                v = x[q_L]
                jx_, jx[q_L] = jx[q_L], _j(m, v)
                r_rad, r_tan = jx[q_L] / v, (v * jx_ - m * jx[q_L]) / v
                terms = {"radial": (2 * m + 1) * m * (m + 1) * C_N * r_rad**2,
                         "tangential": (2 * m + 1) * (C_M * jx[q_L]**2
                                                      + C_N * r_tan**2)}
                for o, term in terms.items():
                    total[q_L, o] += term
                    small = abs(term) < tol * abs(total[q_L, o])
                    run[q_L, o] = run[q_L, o] + 1 if small else 0
        else:
            raise RuntimeError(f"not converged by m = {ORDER_LIMIT} at "
                               f"eps = {eps}, q_R = {q_R}")
        return {key: (1.5 if key[1] == "radial" else 0.75)
                * mpmath.im(K * value) for key, value in total.items()}


def _inputs():
    """(set, eps, q_R, q_L, orientation) of every row of the table."""
    for item in workloads.probe_inputs(0):
        yield ("probe", complex(item["eps_re"], item["eps_im"]),
               item["q_R"], item["q_L"], item["orientation"])
    for name, epses, q_Rs, ratios in (
            ("grid", GRID_EPS, GRID_Q_R, GRID_RATIO),
            ("small", GRID_EPS, SMALL_Q_R, INNER_RATIO),
            ("absorbing", ABSORBING_EPS, GRID_Q_R, INNER_RATIO)):
        for eps in epses:
            for q_R in q_Rs:
                for ratio in ratios:
                    for o in ORIENTATIONS:
                        yield name, eps, q_R, ratio * q_R, o
    for q_L in DEEP_Q_L:
        for o in ORIENTATIONS:
            yield "deep", DEEP_EPS, DEEP_Q_R, q_L, o


def _program_outcome(eps, q_R, q_L, orientation):
    """gamma_b_exact's rate, or the name of the error it raises."""
    try:
        return gamma_b_exact(eps, q_R, q_L, orientation)
    except LocfieldError as exc:
        return type(exc).__name__


def table() -> list[dict]:
    inputs = list(_inputs())
    spheres = {}
    for _, eps, q_R, q_L, _ in inputs:
        spheres.setdefault((eps, q_R), set()).add(q_L)
    refs = {}
    for (eps, q_R), q_Ls in spheres.items():
        for (q_L, o), value in body_rates(eps, q_R, sorted(q_Ls)).items():
            refs[eps, q_R, q_L, o] = float(value)
    rows = []
    for name, eps, q_R, q_L, o in inputs:
        got = _program_outcome(eps, q_R, q_L, o)
        rows.append({"set": name, "eps": [eps.real, eps.imag], "q_R": q_R,
                     "q_L": q_L, "orientation": o,
                     "gamma_b": refs[eps, q_R, q_L, o],
                     "error": got if isinstance(got, str) else None,
                     "_got": got})
    return rows


def main() -> None:
    rows = table()
    worst = max((abs(r["_got"] - r["gamma_b"]) / max(abs(r["gamma_b"]), 0.01)
                 for r in rows if r["error"] is None), default=0.0)
    for r in rows:
        del r["_got"]
    TABLE.write_text("[\n" + ",\n".join(json.dumps(r) for r in rows)
                     + "\n]\n", encoding="utf-8")
    outcomes = Counter((r["set"], r["error"] or "rates") for r in rows)
    for (name, error), count in sorted(outcomes.items()):
        print(f"{name}: {count} {error}")
    print(f"largest error of a returned rate: {worst:.2e} "
          "x max(|reference|, 0.01)")


if __name__ == "__main__":
    main()
