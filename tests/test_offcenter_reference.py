"""The exact route off the sphere centre reproduces the rates recorded in
the benchmark's reference manifest, and a 40-digit mpmath table of the
sphere series (``tools/offcenter_reference.py``)."""

import importlib.util
import json
import warnings
from collections import Counter
from pathlib import Path

import pytest

from locfield.errors import LocfieldError
from locfield.mie import gamma_b_exact

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
TABLE = Path(__file__).with_name("offcenter_reference.json")


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


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def _point(row):
    """(eps, q_R, q_L, orientation) of a table row."""
    return complex(*row["eps"]), row["q_R"], row["q_L"], row["orientation"]


def _request_point(item):
    """The same of a request of benchmarks/workloads.py."""
    return (complex(item["eps_re"], item["eps_im"]), item["q_R"],
            item["q_L"], item["orientation"])


@pytest.mark.parametrize("name", ["exact_offcenter", "interior_probe"])
def test_seed0_rates_match_the_manifest(workloads, table, name):
    # seed 0's requests: 400 converging ones at q_L/q_R <= 0.5, and the 100
    # of the interior probe; each recorded rate within the parity rule of
    # 1e-12 relative.  The manifest's probe errors are the AccuracyErrors
    # of an order cap the series no longer has: such a request now returns
    # a rate, or raises the error that the 40-digit table names
    load = workloads.build(name, 0)
    reference = load.reference  # also checks the digest of the inputs
    assert len(reference) == len(load.inputs)
    table_error = {_point(row): row["error"] for row in table
                   if row["set"] == "probe"}
    wrong, reopened = [], Counter()
    for i, ref in enumerate(reference):
        got = load.run(i)
        if ref == "AccuracyError":
            want = table_error[_request_point(load.inputs[i])]
            ok = got == want if want else isinstance(got, float)
            reopened[want or "rate"] += 1
        elif isinstance(ref, str):
            ok = got == ref
        else:
            ok = (isinstance(got, float)
                  and abs(got - ref) <= workloads.REL_TOL * abs(ref))
        if not ok:
            wrong.append((i, got, ref))
    assert wrong == []
    assert reopened == ({"rate": 83} if name == "interior_probe" else {})


def test_exact_rates_match_the_40_digit_reference(workloads, table):
    # the table's probe rows are seed 0's interior probe, and its grid
    # spans eps in {1.1 + 1e-8j, 1.5 + 1e-6j}, q_R in {0.5, 1, 2, 5, 20},
    # q_L/q_R from 0.6 to 0.97 and both orientations.  Its small rows put
    # the same eps in spheres of q_R = 0.05 and 0.3, and its absorbing
    # rows eps = 2.25 + 0.1j and 1 + 2j in the grid's spheres, both at
    # q_L/q_R = 0.2 and 0.5; its deep rows put eps = 1 + 100j at q_R = 60.
    # Every rate that gamma_b_exact returns is within 2e-13 of
    # max(|ref|, 0.01), and every other point raises the error the table
    # names, with no numpy warning.  No NonFiniteError is left inside the
    # domain: the direct form's C_m overflowed from q_L/q_R = 0.8 at
    # q_R <= 1, from 0.85 at q_R = 2 and from 0.9 at q_R = 5
    assert [_point(row) for row in table if row["set"] == "probe"] \
        == [_request_point(item) for item in workloads.probe_inputs(0)]
    assert [row for row in table if row["error"] == "NonFiniteError"] == []
    wrong = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row in table:
            ref, error = row["gamma_b"], row["error"]
            try:
                got = gamma_b_exact(*_point(row))
            except LocfieldError as exc:
                got = type(exc).__name__
            ok = (got == error if error else isinstance(got, float)
                  and abs(got - ref) <= 2e-13 * max(abs(ref), 0.01))
            if not ok:
                wrong.append((row, got))
    assert wrong == []
