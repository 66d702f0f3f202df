"""Per-layer call counts and times, taken from outside the package.

A layer's functions are replaced, for the length of a ``with Tracer()``
block, in the namespace of the module that *calls* them.  The package
binds names with ``from .x import y``, so wrapping the defining module
would record nothing: Ei reaches the quadrature integrand through
``locfield.greens``, the Bessel functions reach the Mie series through
``locfield.mie`` and ``locfield.cavity``, and ``quad`` is looked up in
``locfield.born``.

Each wrapped call records its duration under its layer name.  A layer's
self time is its total minus the time of the wrapped calls it made
directly, so ``rates.compute`` self time is dispatch and validation, and
``cli.run_sweep`` self time is the grid loop and CSV formatting.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

from locfield.errors import LocfieldError

# (module, attribute, layer): every lookup site the benchmark traces
SITES = (
    ("locfield.greens", "exponential_integral_ei", "specfun.ei"),
    ("locfield.mie", "spherical_bessel_j", "specfun.bessel"),
    ("locfield.mie", "spherical_hankel_h1", "specfun.bessel"),
    ("locfield.mie", "riccati_derivative", "specfun.bessel"),
    ("locfield.cavity", "spherical_bessel_j", "specfun.bessel"),
    ("locfield.cavity", "spherical_hankel_h1", "specfun.bessel"),
    ("locfield.cavity", "riccati_derivative", "specfun.bessel"),
    ("locfield.born", "quad", "born.quad"),
    ("locfield.born", "gamma_c_linear", "born.gamma_c_linear"),
    ("locfield.born", "gamma_b_sphere_linear", "born.gamma_b_sphere_linear"),
    ("locfield.cavity", "gamma_c_exact", "cavity.gamma_c_exact"),
    ("locfield.cavity", "gamma_weak_absorption",
     "cavity.gamma_weak_absorption"),
    ("locfield.mie", "sphere_coefficients", "mie.sphere_coefficients"),
    ("locfield.mie", "gamma_b_exact", "mie.gamma_b_exact"),
    ("locfield.mie", "body_green_center", "mie.body_green_center"),
    ("locfield.rates", "compute", "rates.compute"),
    ("locfield", "compute", "rates.compute"),
    ("locfield.cli", "run_sweep", "cli.run_sweep"),
)

# prefix of the stderr line on which a traced CLI process reports
DUMP_MARK = "BENCH_TRACE "


class Tracer:
    """Counts, total and self time per layer, and typed errors raised
    out of each layer, while installed as a context manager.  ``timer``
    is the clock the spans are read from."""

    def __init__(self, timer=perf_counter):
        self._timer = timer
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = Counter()  # "layer:ErrorClass" -> count
        self._open = []  # per open call: time spent in wrapped children
        self._saved = []

    def _wrap(self, layer, fn):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = self._timer()
            try:
                return fn(*args, **kwargs)
            except LocfieldError as exc:
                self.errors[f"{layer}:{type(exc).__name__}"] += 1
                raise
            finally:
                elapsed = self._timer() - start
                children = self._open.pop()
                self.calls[layer] += 1
                self.total[layer] += elapsed
                self.self_time[layer] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
        return traced

    def __enter__(self):
        for module_name, attr, layer in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original))
        return self

    def __exit__(self, *exc_info):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self_time": dict(self.self_time),
                "errors": dict(self.errors)}

    def merge(self, dumped: dict) -> None:
        """Add the counts and times another process reported."""
        self.calls.update(dumped["calls"])
        self.errors.update(dumped["errors"])
        for layer, value in dumped["total"].items():
            self.total[layer] += value
        for layer, value in dumped["self_time"].items():
            self.self_time[layer] += value


def traced_cli_main(argv) -> int:
    """Run ``locfield.cli.main`` under a Tracer and report it on stderr.

    The cli_compute workload starts this in each fresh interpreter of a
    traced pass, in place of ``python -m locfield``.
    """
    from locfield import cli
    tracer = Tracer()
    try:
        with tracer:
            return cli.main(argv)
    finally:
        print(DUMP_MARK + json.dumps(tracer.dump()), file=sys.stderr)
