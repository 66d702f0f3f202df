"""The exact route off the sphere centre reproduces the rates recorded in
the benchmark's reference manifest."""

import importlib.util
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports the benchmark's tracer by its bare name and puts
    # the checkout's src first on sys.path; both last only while it loads
    spec = importlib.util.spec_from_file_location(
        "locfield_bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH_DIR))
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["exact_offcenter", "interior_probe"])
def test_seed0_rates_match_the_manifest(workloads, name):
    # seed 0's requests: 400 converging ones at q_L/q_R <= 0.5, and the 100
    # of the interior probe, most of which raise AccuracyError today; each
    # rate within the parity rule of 1e-12 relative, each failure with the
    # recorded error name
    load = workloads.build(name, 0)
    reference = load.reference  # also checks the digest of the inputs
    assert len(reference) == len(load.inputs)
    wrong = []
    for i, ref in enumerate(reference):
        got = load.run(i)
        if isinstance(ref, str):
            ok = got == ref
        else:
            ok = (isinstance(got, float)
                  and abs(got - ref) <= workloads.REL_TOL * abs(ref))
        if not ok:
            wrong.append((i, got, ref))
    assert wrong == []
