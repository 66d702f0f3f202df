"""locfield benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload presets --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout; the package is imported from the
checkout's ``src``.  Workloads: presets, exact_offcenter, cli_compute
(see workloads.py and README.md).

--trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 runs each item plain and then traced, and reports the
per-layer metrics of the traced passes, normalised to one pass, plus
the tracing overhead.  Every time is in reference seconds: raw seconds
scaled by the host's speed, measured while the work runs (HostClock).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  An operation is one rate
evaluation: one (grid point, curve) cell of a preset CSV, or one
request.  It fails on a typed LocfieldError, a non-zero CLI exit, or an
output that does not match the reference (``failed.mismatch``);
``correct`` is false on any mismatch.
"""

from __future__ import annotations

import argparse
import bisect
import json
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import special

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# names and units of the workloads and metrics, as BENCHMARK.json gives them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# highest of these percentiles with at least TAIL_BEYOND samples above it;
# a coarse ladder keeps the chosen percentile the same from run to run
TAIL_LADDER = (99, 90, 75, 50)
TAIL_BEYOND = 10

# The host's speed drifts by up to 2x between and within runs, in CPU
# time as much as in wall time, so every time is reported in reference
# seconds (see HostClock).  CALIBRATION_REF_S is the calibration kernel's
# time on the machine named in README.md in its fast state.
CALIBRATION_ITERATIONS = 10
CALIBRATION_REF_S = 0.35e-3
SAMPLE_INTERVAL_S = 0.025
SAMPLE_MIN = 3

# the fewest whole passes a run makes, whatever --seconds says: enough
# for a per-item median, and for cli_compute enough requests (40) that
# p75 has TAIL_BEYOND samples above it
MIN_PASSES = {"presets": 3, "exact_offcenter": 3, "cli_compute": 8}

_SETUP_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import workloads; "
                "workloads.build(sys.argv[2], int(sys.argv[3])); "
                "print('ready', flush=True)")


def calibration_kernel() -> complex:
    """A fixed slice of the work the package does most: scalar Bessel,
    Ei and exp calls from a Python loop.  Benchmark code, so no change to
    the package moves it."""
    z = 0j
    for k in range(CALIBRATION_ITERATIONS):
        x = 1.0 + 1.0e-3 * k
        z += special.spherical_jn(3, x) + special.expi(2j * x) + np.exp(1j * x)
    return z


class HostClock:
    """Measures the host's speed while work runs, to convert the work's
    raw seconds to reference seconds.

    Inside ``with HostClock() as clock``, SIGALRM runs the calibration
    kernel every SAMPLE_INTERVAL_S: once to warm the caches the
    interrupted work evicted, then once timed.  Spans taken with
    ``clock.now()`` exclude these runs.  ``clock.speed(start, end)`` is
    CALIBRATION_REF_S times the mean of 1 / (kernel time) over the runs
    in that interval, widened to the SAMPLE_MIN nearest runs for a short
    one; a span's raw seconds times its speed are its reference seconds.
    """

    def __init__(self):
        self._stamps = []  # midpoint of each timed kernel run
        self._kernel_s = []
        self._spent = 0.0  # seconds spent in the handler so far
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        entered = perf_counter()
        calibration_kernel()
        start = perf_counter()
        calibration_kernel()
        end = perf_counter()
        self._stamps.append(0.5 * (start + end))
        self._kernel_s.append(end - start)
        self._spent += end - entered

    def work_time(self) -> float:
        """A clock that stands still while the handler runs."""
        return perf_counter() - self._spent

    def now(self) -> tuple[float, float]:
        spent = self._spent
        return perf_counter(), spent

    @staticmethod
    def span(first, last) -> tuple[float, float, float]:
        """(start, end, raw seconds) between two ``now()`` readings."""
        return first[0], last[0], (last[0] - first[0]) - (last[1] - first[1])

    def time(self, fn, *args, **kwargs):
        """fn's result and the span of the call."""
        first = self.now()
        out = fn(*args, **kwargs)
        return out, self.span(first, self.now())

    def speed(self, start: float, end: float) -> float:
        stamps = self._stamps
        lo = bisect.bisect_left(stamps, start)
        hi = bisect.bisect_right(stamps, end)
        while hi - lo < SAMPLE_MIN and (lo > 0 or hi < len(stamps)):
            if lo > 0 and (hi == len(stamps)
                           or start - stamps[lo - 1] <= stamps[hi] - end):
                lo -= 1
            else:
                hi += 1
        # mean speed, not median time: the host flips between a fast and a
        # slow state, and the work runs at the average of the two
        return CALIBRATION_REF_S * statistics.fmean(
            1.0 / k for k in self._kernel_s[lo:hi])

    def reference_seconds(self, span) -> float:
        start, end, raw = span
        return raw * self.speed(start, end)


class Record:
    """Spans and judged outcomes of every item run in a set of passes."""

    def __init__(self, n_items: int):
        self.spans = [[] for _ in range(n_items)]
        self.ok = [[] for _ in range(n_items)]
        self.tally = Counter()
        self.samples = None

    def add(self, i: int, span, judged: Counter) -> None:
        self.spans[i].append(span)
        self.ok[i].append(judged["ok"])
        self.tally += judged

    def finish(self, clock: HostClock) -> None:
        """Convert every span to reference seconds, once sampling is over."""
        self.samples = [[clock.reference_seconds(sp) for sp in spans]
                        for spans in self.spans]

    def wall(self) -> float:
        """One pass: the sum over items of each item's median time across
        interleaved passes, so one slow stretch does not decide it."""
        return sum(statistics.median(s) for s in self.samples if s)

    def raw_wall(self) -> float:
        return sum(statistics.median(sp[2] for sp in spans)
                   for spans in self.spans if spans)

    def ok_per_pass(self) -> float:
        return sum(statistics.fmean(ok) for ok in self.ok if ok)

    def latencies_ms(self) -> list[float]:
        return sorted(1e3 * t for s in self.samples for t in s)


def run_item(wl, i: int, record: Record, clock: HostClock, tracer=None):
    """Run one item, timed, then judge it untimed.  Returns the judged
    outcome and the bytes of output it wrote."""
    outcome, span = clock.time(wl.run, i, tracer)
    judged = wl.judge(i, outcome)
    record.add(i, span, judged)
    return judged, wl.output_bytes(i, outcome)


def measure(wl, seconds: float) -> tuple[Record, float]:
    """Whole passes over the items until --seconds have gone, and at
    least MIN_PASSES.  Whole passes keep every item equally represented
    among the latency samples.  Returns the record and the run's host
    speed factor."""
    record = Record(len(wl.labels))
    wl.judge(0, wl.run(0))  # warm-up: first calls, file cache
    with HostClock() as clock:
        start = perf_counter()
        passes = 0
        while passes < MIN_PASSES[wl.name] or perf_counter() < start + seconds:
            for i in range(len(wl.labels)):
                run_item(wl, i, record, clock)
            passes += 1
        end = perf_counter()
    record.finish(clock)
    return record, clock.speed(start, end)


def measure_traced(wl, seconds: float, tracer_cls):
    """Whole passes until --seconds have gone, at least one.  Each item
    runs plain and then traced, so host-speed drift cancels in the
    overhead.  Returns the plain and traced records, one (tracer, host
    speed factor) per pass, and the first traced pass's judged outcomes
    and output bytes."""
    plain, traced = Record(len(wl.labels)), Record(len(wl.labels))
    passes = []
    wl.judge(0, wl.run(0))
    with HostClock() as clock:
        deadline = perf_counter() + seconds
        while not passes or perf_counter() < deadline:
            tracer = tracer_cls(clock.work_time)
            judged, out_bytes = Counter(), 0
            pass_start = perf_counter()
            for i in range(len(wl.labels)):
                run_item(wl, i, plain, clock)
                with tracer:
                    item_judged, item_bytes = run_item(wl, i, traced, clock,
                                                       tracer)
                judged += item_judged
                out_bytes += item_bytes
            passes.append((tracer, (pass_start, perf_counter()), judged,
                           out_bytes))
    plain.finish(clock)
    traced.finish(clock)
    tracers = [(t, clock.speed(*window)) for t, window, _, _ in passes]
    return plain, traced, tracers, passes[0][2], passes[0][3]


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to the workload's
    inputs being built (``import locfield`` plus generation), after one
    untimed start that fills the bytecode and file caches.  Returns
    reference seconds and raw seconds."""

    def until_ready(clock):
        first = clock.now()
        with subprocess.Popen(
                [sys.executable, "-c", _SETUP_CHILD, str(BENCH_DIR),
                 workload, str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = clock.now()
            proc.stdout.read()
        if line != b"ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed "
                               f"(exit {proc.returncode})")
        return clock.span(first, ready)

    with HostClock() as clock:
        until_ready(clock)
        spans = [until_ready(clock) for _ in range(SETUP_REPEATS)]
    return (statistics.median(clock.reference_seconds(sp) for sp in spans),
            statistics.median(sp[2] for sp in spans))


def import_seconds() -> dict[str, float]:
    """Cumulative ``-X importtime`` of locfield and scipy.integrate in a
    fresh interpreter, in reference seconds, median of repeats; 0 for a
    module not imported."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import locfield"
    runs = []
    with HostClock() as clock:
        for _ in range(IMPORTTIME_REPEATS):
            proc, span = clock.time(
                subprocess.run,
                [sys.executable, "-X", "importtime", "-c", code, str(SRC)],
                cwd=ROOT, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"import failed (exit {proc.returncode})")
            runs.append((proc.stderr, span))
    found = {"locfield": [], "scipy.integrate": []}
    for stderr, (start, end, _) in runs:
        cumulative = {}
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                cumulative[parts[2].strip()] = 1e-6 * int(parts[1])
        for module, values in found.items():
            values.append(cumulative.get(module, 0.0)
                          * clock.speed(start, end))
    return {module: statistics.median(v) for module, v in found.items()}


def percentile(sorted_values: list[float], p: int) -> float:
    cuts = statistics.quantiles(sorted_values, n=100, method="inclusive")
    return cuts[p - 1]


def tail_latency(latencies: list[float]) -> tuple[int, float]:
    for p in TAIL_LADDER:
        value = percentile(latencies, p)
        if sum(1 for x in latencies if x > value) >= TAIL_BEYOND:
            return p, value
    return 50, percentile(latencies, 50)


def end_to_end(wl, record: Record, setup: tuple[float, float]):
    latencies = record.latencies_ms()
    tail_p, tail = tail_latency(latencies)
    wall = record.wall()
    metrics = {
        "setup_s": setup[0],
        "wall_s": wall,
        "rates_per_s": record.ok_per_pass() / wall,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_tail_ms": tail,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters; "
                   f"raw {setup[1]:.4g} s",
        "wall_s": f"sum of {len(wl.labels)} per-item medians; "
                  f"raw {record.raw_wall():.4g} s",
        "rates_per_s": f"{record.ok_per_pass():g} successful rates per pass",
        "latency_p50_ms": f"{len(latencies)} samples",
        "latency_tail_ms": f"p{tail_p} of {len(latencies)} samples",
        "peak_rss_mb": wl.rss_source,
    }
    return metrics, notes


def per_layer(wl, plain: Record, traced: Record, tracers, judged: Counter,
              out_bytes: int, imports: dict[str, float],
              probe: Counter) -> dict:
    first = tracers[0][0]

    def calls(layer):
        return first.calls[layer]

    def seconds(layer, kind="total"):
        return statistics.median(getattr(t, kind)[layer] * speed
                                 for t, speed in tracers)

    def ratio(num, den):
        return num / den if den else 0.0

    tally = plain.tally + traced.tally
    attempted = sum(tally.values())
    metrics = {
        "born.quad.calls": calls("born.quad"),
        "born.quad.time_s": seconds("born.quad"),
        "born.quad.nodes_per_call": ratio(calls("specfun.ei"),
                                          calls("born.quad")),
        "specfun.ei.calls": calls("specfun.ei"),
        "specfun.ei.time_s": seconds("specfun.ei"),
        "mie.gamma_b_exact.calls": calls("mie.gamma_b_exact"),
        "mie.gamma_b_exact.time_s": seconds("mie.gamma_b_exact"),
        "mie.sphere_coefficients.calls": calls("mie.sphere_coefficients"),
        "mie.sphere_coefficients.time_s": seconds("mie.sphere_coefficients"),
        "mie.terms_per_rate": ratio(calls("mie.sphere_coefficients"),
                                    calls("mie.gamma_b_exact")),
        "specfun.bessel.calls": calls("specfun.bessel"),
        "specfun.bessel.time_s": seconds("specfun.bessel"),
        "mie.failed.accuracy_error":
            first.errors["mie.gamma_b_exact:AccuracyError"],
        "mie.failed.nonfinite":
            first.errors["mie.gamma_b_exact:NonFiniteError"],
        "failed.mismatch": judged["mismatch"] + probe["mismatch"],
        "cli.failed.exit_2": judged["exit_2"],
        "cli.failed.exit_3": judged["exit_3"],
        "failed_share": ratio(attempted - tally["ok"], attempted),
        "probe.interior.requests": sum(probe.values()),
        "probe.interior.failed": sum(probe.values()) - probe["ok"]
                                 - probe["mismatch"],
        "cavity.gamma_c_exact.time_s": seconds("cavity.gamma_c_exact"),
        "rates.compute.calls": calls("rates.compute"),
        "rates.compute.self_s": seconds("rates.compute", "self_time"),
        "cli.run_sweep.self_s": seconds("cli.run_sweep", "self_time"),
        "cli.csv_bytes": out_bytes,
        "import.locfield_s": imports["locfield"],
        "import.scipy_integrate_s": imports["scipy.integrate"],
        "trace.wall_s": traced.wall(),
        "trace.overhead_share": traced.wall() / plain.wall() - 1.0,
    }
    for i, label in enumerate(wl.labels):
        key = f"preset.{label}_s"
        if key in PER_LAYER:
            metrics[key] = statistics.median(plain.samples[i])
    return {key: metrics.get(key, 0.0) for key in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locfield" / "__init__.py").is_file():
        print(f"run.py: no locfield source under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer
    if Path(workloads.locfield.__file__).resolve().parent != SRC / "locfield":
        print(f"run.py: imported locfield from {workloads.locfield.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            imports = import_seconds()
            wl = workloads.build(args.workload, args.seed, workdir)
            plain, traced, tracers, judged, out_bytes = measure_traced(
                wl, args.seconds, Tracer)
            probe = wl.run_probe()
            tally = plain.tally + traced.tally
            metrics = per_layer(wl, plain, traced, tracers, judged,
                                out_bytes, imports, probe)
            units, notes = PER_LAYER, {}
            passes = f"{len(tracers)} plain + {len(tracers)} traced passes"
        else:
            setup = setup_seconds(args.workload, args.seed)
            wl = workloads.build(args.workload, args.seed, workdir)
            record, speed = measure(wl, args.seconds)
            tally = record.tally
            metrics, notes = end_to_end(wl, record, setup)
            probe = Counter()
            units = END_TO_END
            passes = (f"{len(record.samples[0])} passes, "
                      f"host speed factor {speed:.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    attempted = sum(tally.values())
    failed = attempted - tally["ok"]
    print(f"locfield benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(wl.labels)} items, {passes}")
    print(f"  operations: {attempted} attempted, {failed} failed"
          + (f" {dict(tally - Counter(ok=tally['ok']))}" if failed else ""))
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} "
              f"{notes.get(name, '')}".rstrip())
    print(json.dumps({
        "correct": tally["mismatch"] == 0 and probe["mismatch"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
