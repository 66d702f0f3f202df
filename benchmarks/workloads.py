"""Seeded inputs, runners and output checks for the three workloads.

presets          The seven figure presets as shipped, through
                 ``cli.build_sweep`` and ``cli.run_sweep``, writing CSVs.
                 Fixed inputs: the seed is unused.  Exercises the linear
                 Born quadrature, Ei, rate assembly and the CSV path, and
                 bypasses the Mie series.
exact_offcenter  Single ``locfield.compute(RateRequest(method="exact"))``
                 calls off the sphere centre, at q_L/q_R <= 0.5, where
                 the series converges.  Exercises the Mie series and the
                 Bessel functions, and bypasses the Born quadrature.
interior_probe   The same requests at q_L/q_R in [0.5, 0.95], where most
                 raise AccuracyError at this commit.  Not a timed
                 workload: the traced exact_offcenter run counts them.
cli_compute      ``python -m locfield compute`` in a fresh interpreter
                 per request, one at a time.  Dominated by import, so it
                 moves with import and CLI changes, not kernel changes.

Each workload is a closed loop with one caller.  Its items (presets,
requests, commands) are run in passes over the same list; the program
sees only the generated inputs.

Importing this module puts the checkout's ``src`` first on sys.path and
imports ``locfield`` from there.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import locfield  # noqa: E402
from locfield import cli  # noqa: E402
from locfield.errors import LocfieldError  # noqa: E402

from tracer import DUMP_MARK  # noqa: E402

REFERENCE_DIR = BENCH_DIR / "reference"
MANIFEST = REFERENCE_DIR / "manifest.json"
PRESET_NAMES = ("fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6a", "fig6b")
EXACT_REQUESTS = 400
PROBE_REQUESTS = 100
# q_L/q_R of the timed exact requests and of the interior probe.  The
# series gives up from q_L/q_R = 0.51 at q_R near 0.5, and further out
# at larger q_R, so the timed requests stop at 0.5 and none of them fails.
TIMED_RATIO = (0.05, 0.5)
PROBE_RATIO = (0.5, 0.95)
# (method, placement) of each cli_compute request
CLI_MIX = (("exact", "center"), ("exact", "offcenter"),
           ("linear_born", "offcenter"), ("exact", "bulk"),
           ("weak_absorption", "center"))
REL_TOL = 1.0e-12  # the preset parity rule
Q_C = 0.01

# a traced cli_compute request runs this in place of ``-m locfield``
_TRACED_CLI = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
               "import tracer; sys.exit(tracer.traced_cli_main(sys.argv[1:]))")


# -- inputs ---------------------------------------------------------------


def _sig(x: float) -> float:
    # six significant digits: inputs survive the trip through CLI
    # arguments unchanged and do not hang on last-bit libm differences
    return float(f"{x:.6g}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _sig(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _medium(rng: random.Random) -> dict:
    return {"eps_re": _sig(rng.uniform(1.05, 1.5)),
            "eps_im": _log_uniform(rng, 1.0e-8, 1.0e-6)}


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniform draws on [0, 1), one in each of n equal strata, in
    random order (a Latin hypercube column)."""
    u = [(k + rng.random()) / n for k in range(n)]
    rng.shuffle(u)
    return u


def exact_inputs(seed: int, ratio_range=TIMED_RATIO,
                 n: int = EXACT_REQUESTS) -> list[dict]:
    # Latin hypercube over (q_R, q_L/q_R, Re eps, Im eps, orientation):
    # every seed covers the same ranges evenly, so seeds differ in detail
    # but not in the share of slow or failing requests
    rng = random.Random(seed)
    lo, hi = ratio_range
    q_R, ratio, eps_re, eps_im, orient = (_strata(rng, n) for _ in range(5))
    out = []
    for k in range(n):
        radius = _sig(0.5 * 40.0 ** q_R[k])  # log-uniform on [0.5, 20]
        out.append({
            "eps_re": _sig(1.05 + 0.45 * eps_re[k]),
            "eps_im": _sig(1.0e-8 * 100.0 ** eps_im[k]),
            "method": "exact", "q_R": radius,
            "q_L": _sig(radius * (lo + (hi - lo) * ratio[k])),
            "orientation": "radial" if orient[k] < 0.5 else "tangential"})
    return out


def probe_inputs(seed: int) -> list[dict]:
    return exact_inputs(seed, PROBE_RATIO, PROBE_REQUESTS)


def cli_inputs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    out = []
    for method, placement in CLI_MIX:
        item = _medium(rng)
        q_R = None if placement == "bulk" else _log_uniform(rng, 0.5, 20.0)
        q_L = 0.0
        if placement == "offcenter":
            # inside q_L/q_R < 0.5, where the exact series converges today
            q_L = _sig(q_R * rng.uniform(0.05, 0.5))
        item.update(method=method, q_R=q_R, q_L=q_L,
                    orientation=rng.choice(("radial", "tangential")))
        out.append(item)
    rng.shuffle(out)
    return out


def rate_request(item: dict) -> locfield.RateRequest:
    return locfield.RateRequest(
        eps=complex(item["eps_re"], item["eps_im"]), method=item["method"],
        geometry="bulk" if item["q_R"] is None else "sphere",
        q_R=item["q_R"], q_L=item["q_L"], q_C=Q_C,
        orientation=item["orientation"])


def cli_argv(item: dict) -> list[str]:
    argv = ["compute", "--eps-re", repr(item["eps_re"]),
            "--eps-im", repr(item["eps_im"]), "--qc", repr(Q_C),
            "--method", item["method"], "--orientation", item["orientation"]]
    if item["q_R"] is not None:
        argv += ["--qr", repr(item["q_R"]), "--ql", repr(item["q_L"])]
    return argv


def inputs_digest(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs).encode()).hexdigest()


# -- output checks ----------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _plausible(value: float) -> bool:
    return math.isfinite(value) and value > 0


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def seed_reference(workload: str, seed: int, inputs) -> list | None:
    """Outputs recorded for this seed, or None for an unrecorded seed."""
    entry = load_manifest()[workload].get(str(seed))
    if entry is None:
        return None
    if entry["inputs_sha256"] != inputs_digest(inputs):
        raise RuntimeError(f"{workload} seed {seed}: generated inputs differ "
                           "from the ones the reference was recorded for")
    return entry["outputs"]


def judge_value(outcome, reference) -> str:
    """Category of one rate outcome: "ok", "mismatch" or an error name.

    A returned rate must match a recorded rate to REL_TOL; where none was
    recorded (an unrecorded seed, or a request that failed at the
    reference commit) it must be finite and positive.
    """
    if isinstance(outcome, str):
        return outcome
    if isinstance(reference, float):
        return "ok" if _close(outcome, reference) else "mismatch"
    return "ok" if _plausible(outcome) else "mismatch"


def compare_csv(data: bytes, reference: bytes) -> Counter:
    """Judge every rate cell of a preset CSV against the reference CSV:
    byte equality first, then cell by cell to REL_TOL.  The sweep leaves
    a cell empty where its rate raised a LocfieldError."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    ref_rows = list(csv.reader(io.StringIO(reference.decode("utf-8"))))
    header = ref_rows[0]
    rate_cols = [j for j, name in enumerate(header)
                 if name.startswith("gamma_")]
    cells = (len(ref_rows) - 1) * len(rate_cols)
    if data == reference:
        return Counter(ok=cells)
    if rows[0] != header or len(rows) != len(ref_rows):
        return Counter(mismatch=cells)
    context = [j for j, name in enumerate(header)
               if j not in rate_cols and name != "error"]
    tally = Counter()
    for row, ref in zip(rows[1:], ref_rows[1:]):
        row_ok = len(row) == len(header) and all(
            _cells_agree(row[j], ref[j]) for j in context)
        for j in rate_cols:
            tally[_judge_cell(row[j], ref[j]) if row_ok else "mismatch"] += 1
    return tally


def _cells_agree(cell: str, ref: str) -> bool:
    if cell == ref:
        return True
    try:
        return _close(float(cell), float(ref))
    except ValueError:
        return False


def _judge_cell(cell: str, ref: str) -> str:
    if cell == "":
        return "LocfieldError"
    try:
        value = float(cell)
    except ValueError:
        return "mismatch"
    return judge_value(value, float(ref) if ref else None)


# -- workloads --------------------------------------------------------------


class Workload:
    """Items run in passes; ``run`` does the timed work for one item and
    ``judge`` checks its outcome afterwards, untimed, returning the
    number of rate evaluations per category."""

    probe = None  # name of the workload the traced run counts untimed
    rss_source = "this process"

    def output_bytes(self, i, outcome) -> int:
        return 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_probe(self) -> Counter:
        """Judged outcomes of the probe's items, each run once, untimed;
        empty for a workload without a probe."""
        if self.probe is None:
            return Counter()
        probe = build(self.probe, self.seed)
        return sum((probe.judge(i, probe.run(i))
                    for i in range(len(probe.labels))), Counter())


class Presets(Workload):
    name = "presets"

    def __init__(self, seed: int, workdir: Path | None = None):
        self.specs = [cli.build_sweep(dict(cli.PRESETS[name]))
                      for name in PRESET_NAMES]
        self.labels = list(PRESET_NAMES)
        self.workdir = workdir

    @functools.cached_property
    def reference(self) -> list[bytes]:
        fingerprints = load_manifest()["presets"]
        out = []
        for name in PRESET_NAMES:
            data = (REFERENCE_DIR / "presets" / f"{name}.csv").read_bytes()
            if hashlib.sha256(data).hexdigest() != fingerprints[name]:
                raise RuntimeError(f"reference CSV for {name} does not "
                                   "match its recorded fingerprint")
            out.append(data)
        return out

    def run(self, i, tracer=None):
        path = self.workdir / f"{PRESET_NAMES[i]}.csv"
        cli.run_sweep(self.specs[i], str(path))
        return path

    def judge(self, i, outcome) -> Counter:
        return compare_csv(outcome.read_bytes(), self.reference[i])

    def output_bytes(self, i, outcome) -> int:
        return outcome.stat().st_size


class _Requests(Workload):
    """Items are single rate requests generated from the seed."""

    def __init__(self, seed: int, inputs: list[dict]):
        self.seed = seed
        self.inputs = inputs

    @functools.cached_property
    def reference(self) -> list | None:
        return seed_reference(self.name, self.seed, self.inputs)

    def judge(self, i, outcome) -> Counter:
        ref = None if self.reference is None else self.reference[i]
        return Counter([judge_value(outcome, ref)])


class ExactOffcenter(_Requests):
    name = "exact_offcenter"
    probe = "interior_probe"
    generate = staticmethod(exact_inputs)

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, self.generate(seed))
        self.labels = [f"request{i}" for i in range(len(self.inputs))]

    def run(self, i, tracer=None):
        try:
            return locfield.compute(rate_request(self.inputs[i])).total_ratio
        except LocfieldError as exc:
            return type(exc).__name__


class InteriorProbe(ExactOffcenter):
    name = "interior_probe"
    probe = None
    generate = staticmethod(probe_inputs)


class CliCompute(_Requests):
    """Peak RSS is the largest of the ``locfield compute`` processes',
    read from each one's resource usage as it is reaped."""

    name = "cli_compute"
    rss_source = "the CLI processes"

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__(seed, cli_inputs(seed))
        self.argvs = [cli_argv(item) for item in self.inputs]
        self.labels = [" ".join(argv) for argv in self.argvs]
        self.workdir = workdir
        self.child_peak_kb = 0
        # absolute, so the child finds the package whatever its cwd
        src = str(Path(locfield.__file__).resolve().parents[1])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(self, i, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "locfield", *self.argvs[i]]
        else:
            cmd = [sys.executable, "-c", _TRACED_CLI, str(BENCH_DIR),
                   *self.argvs[i]]
        # output to files and a plain wait4, so that the child's own
        # resource usage is read as it is reaped
        with open(self.workdir / "stdout", "w+b") as out, \
                open(self.workdir / "stderr", "w+b") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(120, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        if tracer is not None:
            for line in stderr.splitlines():
                if line.startswith(DUMP_MARK):
                    tracer.merge(json.loads(line[len(DUMP_MARK):]))
        if proc.returncode != 0:
            return f"exit_{proc.returncode}"
        for line in stdout.splitlines():
            key, _, value = line.partition(" = ")
            if key == "total_ratio":
                return float(value)
        return "mismatch"

    def peak_rss_mb(self) -> float:
        return self.child_peak_kb / 1024.0


WORKLOADS = {cls.name: cls for cls in (Presets, ExactOffcenter, InteriorProbe,
                                       CliCompute)}


def build(name: str, seed: int, workdir: Path | None = None) -> Workload:
    """Generate a workload's inputs from the seed."""
    return WORKLOADS[name](seed, workdir)
