"""The benchmark's trace sites stay where the package looks them up."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_trace_site_resolves():
    # `benchmarks/run.py --trace 1` wraps each (module, attribute) of
    # SITES where the package calls it; a name that a refactor drops or
    # moves would stop it from tracing at all
    importlib.import_module("locfield")
    spec = importlib.util.spec_from_file_location("locfield_bench_tracer",
                                                  TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SITES
    missing = [(module, attr) for module, attr, _ in tracer.SITES
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []
