"""Map where the linear body term of an off-centre sphere returns or refuses.

Run from the repository root::

    python3 tools/linear_routes.py
    python3 tools/linear_routes.py --rows --tree ../other-checkout

For every q_R in 1e-3 .. 1e5, q_L/q_R in 0.01 .. 0.999, chi in 0.1,
0.1+1e-8j and 0.3j and both orientations it calls the public
``born.gamma_b_sphere_linear`` on that row, timed, and compares a
returned value with the 40-digit ``mp_body_term`` of
``tests/moment_reference.py``.  It uses nothing else of the package
but ``AccuracyError``, the refusal, so it runs on any checkout whose
``gamma_b_sphere_linear`` takes (q_R, q_L, chi, orientation)
(``--tree``).

It prints, per chi, one line per q_R: a cell per q_L/q_R, two
characters for radial and tangential, ``.`` for a value within tol
(1e-10, the kernel's own) of mpmath, ``X`` for a value that is not,
``R`` for a refusal.
Then the count of each, the largest error of a returned value and the
slowest row.  With ``--rows`` it also prints every row: q_R, q_L, chi,
orientation, the value and its error or the refusal's text, and the
time in ms.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
Q_R = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5)
RATIOS = (0.01, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
CHIS = (0.1, 0.1 + 1e-8j, 0.3j)
ORIENTATIONS = ("radial", "tangential")
TOL = 1.0e-10


def routes():
    """(q_R, q_L, chi, orientation, value or None, error or refusal
    text, seconds) of every row of the grid."""
    from locfield.born import gamma_b_sphere_linear
    from locfield.errors import AccuracyError
    from moment_reference import mp_body_term
    for chi in CHIS:
        for q_R in Q_R:
            for ratio in RATIOS:
                q_L = q_R * ratio
                for orientation in ORIENTATIONS:
                    start = time.perf_counter()
                    try:
                        value = gamma_b_sphere_linear(q_R, q_L, chi,
                                                      orientation)
                    except AccuracyError as exc:
                        yield (q_R, q_L, chi, orientation, None, str(exc),
                               time.perf_counter() - start)
                        continue
                    spent = time.perf_counter() - start
                    error = abs(value - mp_body_term(q_R, q_L, chi,
                                                     orientation))
                    yield q_R, q_L, chi, orientation, value, error, spent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the checkout to map (default: this one)")
    parser.add_argument("--rows", action="store_true",
                        help="also print every row")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.tree.resolve() / "src"), str(ROOT / "tests")]
    rows = list(routes())
    if args.rows:
        for q_R, q_L, chi, orientation, value, outcome, spent in rows:
            text = (outcome if value is None
                    else f"{value!r} off by {outcome:.1e}")
            print(f"{q_R:g} {q_L:g} {chi} {orientation}: {text} "
                  f"[{1e3 * spent:.2f} ms]")
    cells = {}
    for q_R, q_L, chi, orientation, value, outcome, _ in rows:
        mark = "R" if value is None else "." if outcome <= TOL else "X"
        cells[chi, q_R] = cells.get((chi, q_R), "") + mark
    header = " ".join(f"{r:<5g}" for r in RATIOS)
    for chi in CHIS:
        print(f"chi = {chi}   q_L/q_R: {header}")
        for q_R in Q_R:
            marks = cells[chi, q_R]
            print(f"  q_R = {q_R:<7g}        "
                  + " ".join(f"{marks[k:k + 2]:<5}"
                             for k in range(0, len(marks), 2)))
    returned = [row for row in rows if row[4] is not None]
    worst = max(returned, key=lambda row: row[5])
    slowest = max(rows, key=lambda row: row[6])
    print(f"returned {len(returned)}, of them outside tol "
          f"{sum(row[5] > TOL for row in returned)}; refused "
          f"{len(rows) - len(returned)}")
    print(f"largest error {worst[5]:.1e} at q_R = {worst[0]:g}, "
          f"q_L = {worst[1]:g}, chi = {worst[2]}, {worst[3]}")
    print(f"slowest row {1e3 * slowest[6]:.1f} ms at q_R = {slowest[0]:g}, "
          f"q_L = {slowest[1]:g}, chi = {slowest[2]}, {slowest[3]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
