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
* the sha256 of each of the seven preset CSVs, written by
  ``cli.run_sweep`` into a temporary directory;
* a last line, the sha256 of all the lines above it.

With ``--against FILE`` (an earlier output of this script, say from
another checkout) it also reports on stderr how many lines differ, and
the largest relative difference among the rates that both runs
returned; it exits 1 if any line differs.  Seeds 0-15 take about 7 s on
one core.
"""

import argparse
import ast
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from locfield import cli, compute  # noqa: E402
from locfield.errors import LocfieldError  # noqa: E402

SEEDS = range(16)


def outcome(item: dict) -> str:
    """repr of (total, gamma_c, gamma_b), or the error's type and text."""
    try:
        r = compute(workloads.rate_request(item))
    except LocfieldError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((r.total_ratio, r.gamma_c_ratio, r.gamma_b_ratio))


def digest_lines():
    for seed in SEEDS:
        for k, item in enumerate(workloads.exact_inputs(seed)):
            yield f"exact_offcenter/{seed}/{k} {outcome(item)}"
        for k, item in enumerate(workloads.cli_inputs(seed)):
            yield f"cli_compute/{seed}/{k} {outcome(item)}"
    for k, item in enumerate(workloads.probe_inputs(0)):
        yield f"interior_probe/0/{k} {outcome(item)}"
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
