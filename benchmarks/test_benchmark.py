"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest benchmarks/test_benchmark.py

Traced runs of one seed must repeat their per-layer counts and failure
count exactly, a different seed must generate different inputs, and the
output checks must catch a changed rate.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[1]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_seed_decides_the_generated_inputs():
    for generate in (workloads.exact_inputs, workloads.probe_inputs,
                     workloads.cli_inputs):
        assert generate(7) == generate(7)
        assert generate(7) != generate(8)


def test_timed_exact_requests_stay_inside_the_probe_boundary():
    # the series converges up to q_L/q_R = 0.5; inputs carry 6 digits
    timed = [r["q_L"] / r["q_R"] for r in workloads.exact_inputs(7)]
    probe = [r["q_L"] / r["q_R"] for r in workloads.probe_inputs(7)]
    assert max(timed) < 0.5 * (1 + 1e-5) and min(probe) > 0.5 * (1 - 1e-5)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_runs_repeat_counts(workload):
    first, second = (result(bench("--workload", workload, "--seed", "5",
                                  "--seconds", "0", "--trace", "1"))
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"]
    counts = [name for name, unit in run.PER_LAYER.items()
              if unit in ("count", "bytes")]
    assert ({n: first["metrics"][n]["value"] for n in counts}
            == {n: second["metrics"][n]["value"] for n in counts})


def test_csv_check_catches_changed_cells():
    reference = (workloads.REFERENCE_DIR / "presets" / "fig4.csv").read_bytes()
    lines = reference.decode().splitlines(keepends=True)
    cells = lines[1].split(",")
    assert cells[1]  # a gamma column
    n_cells = Counter(workloads.compare_csv(reference, reference))["ok"]

    def with_cell(text):
        edited = ",".join([cells[0], text, *cells[2:]])
        return "".join([lines[0], edited, *lines[2:]]).encode()

    nudged = repr(float(cells[1]) * (1 + 1e-14))
    assert workloads.compare_csv(with_cell(nudged), reference) == Counter(
        ok=n_cells)
    changed = repr(float(cells[1]) * (1 + 1e-9))
    assert workloads.compare_csv(with_cell(changed), reference) == Counter(
        ok=n_cells - 1, mismatch=1)
    assert workloads.compare_csv(with_cell(""), reference) == Counter(
        ok=n_cells - 1, LocfieldError=1)


def test_rate_check():
    assert workloads.judge_value(1.25, 1.25 * (1 + 1e-13)) == "ok"
    assert workloads.judge_value(1.25, 1.26) == "mismatch"
    assert workloads.judge_value(1.25, None) == "ok"
    assert workloads.judge_value(float("nan"), None) == "mismatch"
    assert workloads.judge_value(-0.1, "AccuracyError") == "mismatch"
    assert workloads.judge_value("AccuracyError", 1.25) == "AccuracyError"


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact_offcenter", "--seed", "1",
                 "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
