"""Time the layers of each figure preset, in process.

Run from the repository root::

    python3 tools/preset_layers.py --passes 20
    python3 tools/preset_layers.py --tree ../other-checkout

It imports ``locfield`` from the tree's ``src`` and runs each preset of
``cli.PRESETS`` through ``cli.build_sweep`` and ``cli.run_sweep`` into a
temporary directory, as the benchmark's ``presets`` workload does.  In
each pass every preset runs twice: once as it is, timed as ``whole``,
and once with these functions wrapped, which gives the time spent in

* ``rows_kernel``: ``born._gamma_b_rows``, the linear body terms (a
  tree without it times none);
* ``quad``: ``born.quad``, the Filon-Legendre rule of the rows that
  neither the closed form nor the near-centre route certifies, within
  the kernel (in older trees the Gauss-Legendre rule);
* ``series``: the near-centre route within the kernel,
  ``born._gauss_rule``, the Gauss-Legendre rule of 16 nodes (in older
  trees ``born._sphere_moments_near_centre``, the Taylor series in q_L;
  a tree with neither times none);
* ``format``: ``cli.run_sweep`` less ``cli._sweep_results`` and the
  write: the validity flags (array code per curve), the row templates
  (one per flags value, and one per row with an error, which holds its
  quoted message) and the one ``%`` of the joined templates over every
  float cell ("%.15g", or "%.0s" where the cell failed), most of whose
  time is the float conversion itself (in older trees the cells were
  formatted one by one and the rows joined);
* ``write``: the file write, from the ``open`` call in ``cli`` to the
  close.

Each of the two runs writes its own file, so each pass writes over the
files of the pass before, as the benchmark's passes do.

It prints one JSON line: the best pass of each, in raw milliseconds,
per preset and for the seven presets together (the best of the passes'
sums), with the number of passes, and the median of the passes' sums.
A wait that only some passes pay shows in the median, not in the best
pass: so it is with the write, where a file's old bytes may still be
on their way to disk.
"""

import argparse
import contextlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = (("born", "_gamma_b_rows", "rows_kernel"),
          ("born", "quad", "quad"),
          ("born", "_gauss_rule", "series"),
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


def _timed_open(spent):
    @contextlib.contextmanager
    def timed_open(*args, **kwargs):
        start = time.perf_counter()
        try:
            with open(*args, **kwargs) as fh:
                yield fh
        finally:
            spent["write"] += time.perf_counter() - start
    return timed_open


def _run(cli, name, out):
    cli.run_sweep(cli.build_sweep(dict(cli.PRESETS[name])), out)


def layers(passes: int) -> dict:
    from locfield import born, cli
    modules = {"born": born, "cli": cli}
    wrapped = [(modules[m], f, key) for m, f, key in LAYERS
               if hasattr(modules[m], f)]
    best, sums_by_pass = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(passes):
            sums = {}
            for name in cli.PRESETS:
                start = time.perf_counter()
                _run(cli, name, str(Path(tmp) / f"{name}.csv"))
                spent = {"whole": time.perf_counter() - start}
                spent.update((key, 0.0) for _, _, key in wrapped)
                spent["write"] = 0.0
                inner = [getattr(m, f) for m, f, _ in wrapped]
                for (m, f, key), call in zip(wrapped, inner):
                    setattr(m, f, _timed(call, key, spent))
                cli.open = _timed_open(spent)  # shadows the builtin
                try:
                    _run(cli, name, str(Path(tmp) / f"{name}-layers.csv"))
                finally:
                    del cli.open
                    for (m, f, _), call in zip(wrapped, inner):
                        setattr(m, f, call)
                spent["format"] = (spent.pop("run_sweep") - spent.pop("sweep")
                                   - spent["write"])
                row = best.setdefault(name, {})
                for key, value in spent.items():
                    row[key] = min(row.get(key, value), value)
                    sums[key] = sums.get(key, 0.0) + value
            sums_by_pass.append(sums)

    def ms(row):
        return {key: round(1e3 * value, 3) for key, value in row.items()}

    def over_passes(pick):
        return ms({key: pick([sums[key] for sums in sums_by_pass])
                   for key in sums_by_pass[0]})

    return {"passes": passes,
            "unit": "ms, raw, best pass (all_median: median pass)",
            "presets": {name: ms(row) for name, row in best.items()},
            "all": over_passes(min),
            "all_median": over_passes(statistics.median)}


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
