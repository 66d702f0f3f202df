"""Time the layers of one ``exact_offcenter`` request, in process.

Run from the repository root::

    python3 tools/request_layers.py --seeds 0 3 --passes 25
    python3 tools/request_layers.py --tree ../other-checkout

It imports ``benchmarks/workloads.py`` of the tree (read only, as the
benchmark does), which puts that tree's ``src`` first on the import
path, and builds the ``exact_offcenter`` inputs of the given seeds.
Each pass times these over all of those inputs, one after the other:

* ``request``: building the ``RateRequest`` of each input, and, in the
  same calls, the layers it is made of (``request_layers``), timed as
  compute's are below:

  - ``request_rules``: compute's rules, which a request runs on its own
    numbers when it is made, ``rates._request_fault``;
  - ``rest``: its own rules and the rest of its construction;

* ``compute_outside_series``: ``locfield.compute`` of each request with
  ``mie._series`` replaced by a stub that returns 0.0 (and put back
  after the pass), and, in the same calls, the layers it is made of
  (``compute_layers``), each timed by a wrapper around the function the
  package calls:

  - ``rules``: compute's rules on the column, ``rates._check_points``,
    which a tree whose requests run those rules when made never calls
    from ``compute`` (0 there);
  - ``medium``, ``cavity_term``, ``validity_values``: the column's parts,
    ``cavity._medium``, ``cavity._cavity_term`` and
    ``born._validity_values``;
  - ``kernel_plumbing``: ``mie._gamma_b_rows`` around the stubbed series;
  - ``results``: ``rates._Rates.results``, the breakdowns;
  - ``rest``: what is left, the grouping of the requests into a column
    and the column's own assembly, with the wrappers' own cost;

* ``series``: ``mie._series`` alone, on the arguments the rows kernel
  gives it for each request;
* ``series_tables``: the series' two tables of Bessel ratios alone
  (``mie._bessel_ratio_tables``), on the (n q_R, n q_L, top) that the
  series passes them for each request, recorded in a first run;
* ``whole``: building each request and computing it.

It prints one JSON line: the best pass of each, in microseconds per
request, with the seeds, the number of requests and of passes; a
layer's time is its time in the fastest of the wrapped passes of
``request`` or of ``compute_outside_series``, whose layers sum to
that pass.  The passes are interleaved so that a slow spell of the
machine falls on all of them alike.  A tree whose series has no
``_bessel_ratio_tables`` times no ``series_tables``, and one without a
layer's function times no such layer.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# (module, attribute, layer) of the functions compute calls, wrapped to
# time its layers; a class attribute is "Class.name"
LAYERS = (("rates", "_check_points", "rules"),
          ("cavity", "_medium", "medium"),
          ("cavity", "_cavity_term", "cavity_term"),
          ("born", "_validity_values", "validity_values"),
          ("mie", "_gamma_b_rows", "kernel_plumbing"),
          ("rates", "_Rates.results", "results"))
# the same for building a request
REQUEST_LAYERS = (("rates", "_request_fault", "request_rules"),)


def _best(times: dict, name: str, call, items) -> None:
    start = time.perf_counter()
    for item in items:
        call(item)
    elapsed = time.perf_counter() - start
    times[name] = min(times.get(name, elapsed), elapsed)


def _wrapped(spent: dict, layer: str, function):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[layer] += time.perf_counter() - start
    return timed


def _layer_sites(modules: dict, layers) -> list:
    """(owner, attribute, function, layer) of each of the layers that
    the tree has."""
    sites = []
    for module, attribute, layer in layers:
        owner = modules[module]
        if "." in attribute:
            cls, attribute = attribute.split(".")
            owner = getattr(owner, cls, None)
        function = getattr(owner, attribute, None) if owner else None
        if function is not None:
            sites.append((owner, attribute, function, layer))
    return sites


def _split(call, items, sites, best: dict) -> None:
    """Time call over the items, and each layer in it; keep the layers
    and the rest in ``best`` if this pass is its best."""
    spent = {layer: 0.0 for *_, layer in sites}
    for owner, attribute, function, layer in sites:
        setattr(owner, attribute, _wrapped(spent, layer, function))
    try:
        start = time.perf_counter()
        for item in items:
            call(item)
        total = time.perf_counter() - start
    finally:
        for owner, attribute, function, _ in sites:
            setattr(owner, attribute, function)
    if not best or total < best["total"]:
        best.clear()
        best.update(spent, rest=total - sum(spent.values()), total=total)


def layers(seeds, passes: int) -> dict:
    import workloads
    from locfield import born, cavity, compute, mie, rates

    items = [item for seed in seeds for item in workloads.exact_inputs(seed)]
    requests = [workloads.rate_request(item) for item in items]
    series_args = []
    for r in requests:
        eps = r.eps
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
    modules = {"rates": rates, "cavity": cavity, "born": born, "mie": mie}
    sites = _layer_sites(modules, LAYERS)
    request_sites = _layer_sites(modules, REQUEST_LAYERS)

    def stub(*args):
        return 0.0

    times, split, request_split = {}, {}, {}
    for _ in range(passes):
        _best(times, "request", workloads.rate_request, items)
        _split(workloads.rate_request, items, request_sites, request_split)
        mie._series = stub
        try:
            _best(times, "compute_outside_series", compute, requests)
            _split(compute, requests, sites, split)
        finally:
            mie._series = series
        _best(times, "series", lambda args: series(*args), series_args)
        if table_args:
            _best(times, "series_tables", lambda args: tables(*args),
                  table_args)
        _best(times, "whole",
              lambda item: compute(workloads.rate_request(item)), items)

    def per_request(seconds):
        return round(1e6 * seconds / len(items), 2)

    return {"seeds": list(seeds), "requests": len(items), "passes": passes,
            "us_per_request": {name: per_request(t)
                               for name, t in times.items()},
            **{f"{name}_layers_us_per_request": {
                layer: per_request(t) for layer, t in parts.items()
                if layer != "total"}
               for name, parts in (("request", request_split),
                                   ("compute", split))}}


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
