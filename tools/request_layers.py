"""Time the layers of one ``exact_offcenter`` request, in process.

Run from the repository root::

    python3 tools/request_layers.py --seeds 0 3 --passes 25
    python3 tools/request_layers.py --tree ../other-checkout

It imports ``benchmarks/workloads.py`` of the tree (read only, as the
benchmark does), which puts that tree's ``src`` first on the import
path, and builds the ``exact_offcenter`` inputs of the given seeds.
Each pass times five things over all of those inputs, one after the
other:

* ``request``: building the ``RateRequest`` of each input;
* ``compute_outside_series``: ``locfield.compute`` of each request with
  ``mie._series`` replaced by a stub that returns 0.0 (and put back
  after the pass);
* ``series``: ``mie._series`` alone, on the arguments the rows kernel
  gives it for each request;
* ``series_tables``: the series' two tables of Bessel ratios alone
  (``mie._bessel_ratio_tables``), on the (n q_R, n q_L, top) that the
  series passes them for each request, recorded in a first run;
* ``whole``: building each request and computing it.

It prints one JSON line: the best pass of each, in microseconds per
request, with the seeds, the number of requests and of passes.  The
passes are interleaved so that a slow spell of the machine falls on all
five alike.  A tree whose series has no ``_bessel_ratio_tables`` times
no ``series_tables``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _best(times: dict, name: str, call, items) -> None:
    start = time.perf_counter()
    for item in items:
        call(item)
    elapsed = time.perf_counter() - start
    times[name] = min(times.get(name, elapsed), elapsed)


def layers(seeds, passes: int) -> dict:
    import workloads
    from locfield import compute, mie

    items = [item for seed in seeds for item in workloads.exact_inputs(seed)]
    requests = [workloads.rate_request(item) for item in items]
    series_args = []
    for r in requests:
        eps = r.permittivity.epsilon
        series_args.append((eps, complex(np.sqrt(eps)), float(r.q_R),
                            float(r.q_L), r.orientation))
    series = mie._series
    tables = getattr(mie, "_bessel_ratio_tables", None)
    table_args = []
    if tables is not None:
        def record(*args):
            table_args.append(args)
            return tables(*args)

        mie._bessel_ratio_tables = record
        try:
            for args in series_args:
                series(*args)
        finally:
            mie._bessel_ratio_tables = tables

    def stub(*args):
        return 0.0

    times = {}
    for _ in range(passes):
        _best(times, "request", workloads.rate_request, items)
        mie._series = stub
        try:
            _best(times, "compute_outside_series", compute, requests)
        finally:
            mie._series = series
        _best(times, "series", lambda args: series(*args), series_args)
        if table_args:
            _best(times, "series_tables", lambda args: tables(*args),
                  table_args)
        _best(times, "whole",
              lambda item: compute(workloads.rate_request(item)), items)
    return {"seeds": list(seeds), "requests": len(items), "passes": passes,
            "us_per_request": {name: round(1e6 * t / len(items), 2)
                               for name, t in times.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    parser.add_argument("--passes", type=int, default=25,
                        help="passes of each layer; the best one counts")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="the checkout to time (default: this one)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "benchmarks"))
    print(json.dumps(layers(args.seeds, args.passes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
