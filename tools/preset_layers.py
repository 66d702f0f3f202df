"""Time the layers of each figure preset, in process.

Run from the repository root::

    python3 tools/preset_layers.py --passes 20
    python3 tools/preset_layers.py --tree ../other-checkout

It imports ``locfield`` from the tree's ``src`` and runs each preset of
``cli.PRESETS`` through ``cli.build_sweep`` and ``cli.run_sweep`` into a
temporary directory, as the benchmark's ``presets`` workload does.  In
each pass every preset runs twice: once as it is, timed as ``whole``,
and once with these functions wrapped, which gives the time spent in

* ``rows_kernel``: ``born.gamma_b_sphere_rows``, the linear body terms;
* ``quad``: ``born.quad``, the Filon-Legendre rule of the rows that
  neither the closed form nor the series certifies, within the kernel
  (in older trees the Gauss-Legendre rule);
* ``series``: ``born._sphere_moments_near_centre``, the Taylor series of
  the near-centre moments, within the kernel (a tree without it times
  none);
* ``csv``: ``cli.run_sweep`` less ``cli._sweep_results``: formatting the
  float cells ("%.15g"), the validity flags (array code per curve) and
  the error cells (quoted where they must be), joining the rows into the
  file's text in one pass, and writing it.

It prints one JSON line: the best pass of each, in raw milliseconds,
per preset and for the seven presets together (the best of the passes'
sums), with the number of passes.
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = (("born", "gamma_b_sphere_rows", "rows_kernel"),
          ("born", "quad", "quad"),
          ("born", "_sphere_moments_near_centre", "series"),
          ("cli", "_sweep_results", "sweep"),
          ("cli", "run_sweep", "run_sweep"))


def _timed(inner, key, spent):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - start
    return timed


def _run(cli, name, out):
    cli.run_sweep(cli.build_sweep(dict(cli.PRESETS[name])), out)


def layers(passes: int) -> dict:
    from locfield import born, cli
    modules = {"born": born, "cli": cli}
    wrapped = [(modules[m], f, key) for m, f, key in LAYERS
               if hasattr(modules[m], f)]
    best, total = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(passes):
            sums = {}
            for name in cli.PRESETS:
                out = str(Path(tmp) / f"{name}.csv")
                start = time.perf_counter()
                _run(cli, name, out)
                spent = {"whole": time.perf_counter() - start}
                spent.update((key, 0.0) for _, _, key in wrapped)
                inner = [getattr(m, f) for m, f, _ in wrapped]
                for (m, f, key), call in zip(wrapped, inner):
                    setattr(m, f, _timed(call, key, spent))
                try:
                    _run(cli, name, out)
                finally:
                    for (m, f, _), call in zip(wrapped, inner):
                        setattr(m, f, call)
                spent["csv"] = spent.pop("run_sweep") - spent.pop("sweep")
                row = best.setdefault(name, {})
                for key, value in spent.items():
                    row[key] = min(row.get(key, value), value)
                    sums[key] = sums.get(key, 0.0) + value
            for key, value in sums.items():
                total[key] = min(total.get(key, value), value)

    def ms(row):
        return {key: round(1e3 * value, 3) for key, value in row.items()}

    return {"passes": passes, "unit": "ms, raw, best pass",
            "presets": {name: ms(row) for name, row in best.items()},
            "all": ms(total)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=20,
                        help="passes over the presets; the best one counts")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the checkout to time (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    print(json.dumps(layers(args.passes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
