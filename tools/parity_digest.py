"""Print a digest of the numbers the benchmark reads, to compare checkouts.

Run from the repository root::

    python3 tools/parity_digest.py > before.txt
    python3 tools/parity_digest.py --against before.txt

It imports ``benchmarks/workloads.py`` (read only, as the benchmark does)
and prints one line per item:

* for every ``exact_offcenter`` request and every ``cli_compute`` item of
  seeds 0-15, and for every request of the seed-0 interior probe, the
  repr of (total, gamma_c, gamma_b) from ``locfield.compute``, or the
  type and text of the LocfieldError it raises (the CLI prints what
  ``compute`` returns);
* for each of seeds 0-15, one ``compute_batch`` call over its
  ``exact_offcenter`` requests mixed with the requests of its interior
  probe that ``compute`` refuses: how many requests it refused, whether
  each entry is what ``compute`` gives that request alone, and the
  sha256 of the entries;
* the outcomes of edge inputs where refusals have moved: spheres so
  small that rounding swamps the series, a subnormal emitter offset and
  a strongly absorbing sphere (``mie.gamma_b_exact``), and
  radii whose |chi| q_R leaves double range (``compute``), with a numpy
  RuntimeWarning printed as an error;
* the sha256 of each of the seven preset CSVs, written by
  ``cli.run_sweep`` into a temporary directory;
* a last line, the sha256 of all the lines above it.

With ``--against FILE`` (an earlier output of this script, say from
another checkout) it also reports on stderr how many lines differ, and
the largest relative difference among the rates that both runs
returned; it exits 1 if any line differs.  Seeds 0-15 take about 8 s on
one core.
"""

import argparse
import ast
import hashlib
import random
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from locfield import RateRequest, cli, compute, compute_batch  # noqa: E402
from locfield.errors import LocfieldError  # noqa: E402
from locfield.mie import gamma_b_exact  # noqa: E402

SEEDS = range(16)
# gamma_b_exact where C_1^N's rounding swamps the rate (a transparent
# host, and the lossless Frohlich pole eps = -2), where n q_L is
# subnormal, and near the surface of a strongly absorbing sphere
EDGE_SERIES = (
    (2.25, 1.5621345181484196e-08, 1.5621345181484196e-14, "tangential"),
    (-2.0, 1.3041047308660494e-08, 1.2388994943227469e-08, "radial"),
    (-5.409430790265708 + 2.876432724082736e-10j, 0.02573436651202789,
     4e-323, "radial"),
    (1 + 100j, 60.0, 18.0, "radial"), (1 + 100j, 60.0, 53.0, "radial"))
# compute at eps = 4, q_L = 1 with these q_R: |chi| q_R is no double
ABSURD_RADII = (1e308, 1e300)


def described(result) -> str:
    """repr of a float or of a breakdown's (total, gamma_c, gamma_b), or
    an error's type and text."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    if isinstance(result, float):
        return repr(result)
    return repr((result.total_ratio, result.gamma_c_ratio,
                 result.gamma_b_ratio))


def outcome(call) -> str:
    """described() of call(), or of the LocfieldError it raises or the
    numpy RuntimeWarning it issues."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return described(call())
        except (LocfieldError, RuntimeWarning) as exc:
            return described(exc)


def batch_line(seed: int, exact: list, alone: list) -> str:
    """compute_batch over a seed's exact requests, with alone their
    outcomes, mixed with its refused interior-probe requests."""
    requests, alone = list(exact), list(alone)
    for item in workloads.probe_inputs(seed):
        request = workloads.rate_request(item)
        text = outcome(lambda: compute(request))
        if not text.startswith("("):
            requests.append(request)
            alone.append(text)
    order = list(range(len(requests)))
    random.Random(seed).shuffle(order)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = compute_batch([requests[i] for i in order])
    got = [described(r) for r in results]
    same = got == [alone[i] for i in order]
    return (f"{len(requests)} requests, "
            f"{sum(isinstance(r, LocfieldError) for r in results)} refused, "
            f"{'each' if same else 'NOT each'} as compute alone, sha256 "
            f"{hashlib.sha256(chr(10).join(got).encode()).hexdigest()}")


def digest_lines():
    for seed in SEEDS:
        exact, alone = [], []
        for k, item in enumerate(workloads.exact_inputs(seed)):
            exact.append(workloads.rate_request(item))
            alone.append(outcome(lambda: compute(exact[-1])))
            yield f"exact_offcenter/{seed}/{k} {alone[-1]}"
        for k, item in enumerate(workloads.cli_inputs(seed)):
            request = workloads.rate_request(item)
            yield f"cli_compute/{seed}/{k} {outcome(lambda: compute(request))}"
        yield f"compute_batch/{seed} {batch_line(seed, exact, alone)}"
    for k, item in enumerate(workloads.probe_inputs(0)):
        request = workloads.rate_request(item)
        yield f"interior_probe/0/{k} {outcome(lambda: compute(request))}"
    for k, args in enumerate(EDGE_SERIES):
        yield f"edge/gamma_b_exact/{k} {outcome(lambda: gamma_b_exact(*args))}"
    for q_R in ABSURD_RADII:
        for method in ("exact", "linear_born", "uncorrected"):
            request = RateRequest(eps=4.0, method=method, q_R=q_R, q_L=1.0)
            yield (f"edge/compute/{method}/q_R={q_R:g} "
                   f"{outcome(lambda: compute(request))}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.PRESET_NAMES:
            path = Path(tmp) / f"{name}.csv"
            cli.run_sweep(cli.build_sweep(dict(cli.PRESETS[name])), str(path))
            yield (f"preset/{name} "
                   f"{hashlib.sha256(path.read_bytes()).hexdigest()}")


def rates(text: str):
    """The rates of an outcome, or None for an error or a CSV digest."""
    try:
        values = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return None
    return values if isinstance(values, tuple) else None


def compare(lines, against: Path) -> int:
    """Report on stderr how the lines differ from an earlier output."""
    old = dict(line.split(" ", 1) for line in
               against.read_text(encoding="utf-8").splitlines())
    new = dict(line.split(" ", 1) for line in lines)
    differ = sorted(key for key in old.keys() | new.keys()
                    if old.get(key) != new.get(key))
    worst, where = 0.0, None
    for key in differ:
        a, b = rates(old.get(key, "")), rates(new.get(key, ""))
        if a is None or b is None:
            continue
        for x, y in zip(a, b):
            rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
            if rel > worst:
                worst, where = rel, key
    print(f"{len(differ)} of {len(new)} lines differ", file=sys.stderr)
    for key in differ[:10]:
        print(f"  {key}: {old.get(key)} -> {new.get(key)}", file=sys.stderr)
    if where is not None:
        print(f"largest relative difference {worst:.3e} at {where}",
              file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path,
                        help="an earlier output of this script to compare")
    args = parser.parse_args(argv)
    lines = list(digest_lines())
    lines.append("digest " + hashlib.sha256(
        "\n".join(lines).encode()).hexdigest())
    print("\n".join(lines))
    return compare(lines, args.against) if args.against else 0


if __name__ == "__main__":
    sys.exit(main())
