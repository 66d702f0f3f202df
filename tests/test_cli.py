"""End-to-end command line tests: ``cli.main`` in this process, and
``python -m locfield`` in a fresh interpreter for --help, one preset
sweep and one numerical failure."""

import contextlib
import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import locfield
from locfield import cli, rates
from locfield.cli import (PRESETS, _fmt, _sweep_results, build_sweep,
                          run_sweep)
from locfield.errors import ConfigError

FIG3A_HEADER = ["qR", "gamma_exact", "gamma_linear_born", "bulk_reference",
                "validity_chi_size", "validity_absorption", "error"]


# The directory holding the imported package, absolute so that the child
# finds the same code from any working directory (a relative
# PYTHONPATH=src stops resolving once cwd changes).
PACKAGE_ROOT = str(Path(locfield.__file__).resolve().parent.parent)


# the preset CSVs the benchmark checks its runs against, read only
REFERENCE_PRESETS = (Path(__file__).resolve().parent.parent / "benchmarks"
                     / "reference" / "presets")


def run_python_m(args, cwd):
    """``python -m locfield`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "locfield", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def run_cli(args, cwd):
    """``cli.main(args)`` in this process, run in cwd, with the exit code
    and the captured output of :func:`run_python_m`."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse's --help and usage errors
                code = exc.code
    finally:
        os.chdir(home)
    return subprocess.CompletedProcess(args, code, out.getvalue(),
                                       err.getvalue())


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_every_preset_builds():
    for name, cfg in PRESETS.items():
        spec = build_sweep(dict(cfg))
        assert spec.points >= 2, name
        assert spec.curves, name


def test_sweep_preset_end_to_end(tmp_path):
    res = run_python_m(["sweep", "--preset", "fig3a", "--out", "a.csv"],
                       tmp_path)
    assert res.returncode == 0, res.stderr
    assert "wrote a.csv" in res.stdout
    header, rows = read_rows(tmp_path / "a.csv")
    assert header == FIG3A_HEADER
    assert len(rows) == 200
    for row in rows:
        assert row[-1] == ""                       # no per-point failures
        assert_allclose(float(row[3]), 1.1153836285715772, rtol=1e-12)
        assert 0.5 <= float(row[0]) <= 10.0
        float(row[1]), float(row[2])               # parse as numbers
    # deterministic: a second run is byte-identical
    res2 = run_python_m(["sweep", "--preset", "fig3a", "--out", "b.csv"],
                        tmp_path)
    assert res2.returncode == 0, res2.stderr
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_from_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# small radius scan\n"
        "sweep = qR\n"
        "lo = 1.0\n"
        "hi = 2.0\n"
        "points = 3          # coarse\n"
        "eps_re = 1.1\n"
        "eps_im = 1e-8\n"
        "qc = 0.01\n"
        "methods = exact\n"
        "orientations = radial\n")
    res = run_cli(["sweep", "--config", "sweep.cfg", "--out", "s.csv"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    header, rows = read_rows(tmp_path / "s.csv")
    assert header[:2] == ["qR", "gamma_exact"]
    assert len(rows) == 3
    assert [float(r[0]) for r in rows] == [1.0, 1.5, 2.0]


def test_two_cavity_radii_name_two_columns(tmp_path):
    res = run_cli(["sweep", "--preset", "fig4", "--set", "points=5",
                   "--out", "f4.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    header, rows = read_rows(tmp_path / "f4.csv")
    for col in ("gamma_exact_qc0.01", "gamma_exact_qc0.02",
                "gamma_linear_born_qc0.01", "gamma_linear_born_qc0.02"):
        assert col in header
    assert len(rows) == 5
    # a centre reference curve takes the first radius, and names it
    spec = build_sweep({**PRESETS["fig6a"], "qc": "0.02,0.01"})
    assert [(c.column, c.q_C) for c in spec.curves if c.center] == [
        ("gamma_linear_born_center_qc0.02", 0.02)]


def test_per_point_failures_are_recorded_not_fatal(tmp_path):
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(
        "sweep = qL\n"
        "lo = 0.0\n"
        "hi = 0.999\n"
        "points = 4\n"
        "qr = 1.0\n"
        "qc = 0.01\n"
        "eps_re = 1.1\n"
        "eps_im = 1e-8\n"
        "methods = linear_born\n"
        "orientations = radial\n")
    res = run_cli(["sweep", "--config", "edge.cfg", "--out", "e.csv"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    header, rows = read_rows(tmp_path / "e.csv")
    gcol = header.index("gamma_linear_born")
    ecol = header.index("error")
    for row in rows[:-1]:
        assert row[ecol] == "" and row[gcol] != ""
    last = rows[-1]                    # cavity would poke through the surface
    assert last[gcol] == ""
    assert "too close" in last[ecol]


def test_sweep_records_a_series_past_the_order_limit(tmp_path):
    # at q_L/q_R = 0.999 in an absorbing sphere the exact series needs
    # about 28,000 orders, more than the 5,000 it takes: the sweep writes
    # its AccuracyError in that row's error column, and the centred row
    # keeps its exact rate
    (tmp_path / "far.cfg").write_text(
        "sweep = qL\n"
        "lo = 0\n"
        "hi = 0.29610271434986296\n"
        "points = 2\n"
        "qr = 0.2963991134633263\n"
        "qc = 1e-4\n"
        "eps_re = 0.001\n"
        "eps_im = 1e5\n"
        "methods = exact\n"
        "orientations = radial\n")
    res = run_cli(["sweep", "--config", "far.cfg", "--out", "f.csv"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    header, (centre, far) = read_rows(tmp_path / "f.csv")
    gcol, ecol = header.index("gamma_exact"), header.index("error")
    assert centre[gcol] != "" and centre[ecol] == ""
    assert far[gcol] == ""
    assert far[ecol] == ("gamma_exact: sphere series not converged by "
                         "m = 5000: about 2.83e+04 orders needed, 5000 "
                         "allowed (q_R = 0.296399, q_L = 0.296103)")


def test_sweep_leaves_unsettled_cells_empty(tmp_path):
    # q_L across the edge of the body-term rule at q_R = 1e5, too near the
    # centre for the closed form: the first four points are formed, the
    # last refuses
    spec = build_sweep({
        "sweep": "qL", "lo": "0", "hi": "90000", "points": "5",
        "qr": "100000", "qc": "0.01", "eps_re": "1.1", "eps_im": "1e-8",
        "methods": "linear_born", "orientations": "radial,tangential"})
    run_sweep(spec, str(tmp_path / "edge.csv"))
    header, rows = read_rows(tmp_path / "edge.csv")
    gcols = [header.index("gamma_linear_born_radial"),
             header.index("gamma_linear_born_tangential")]
    ecol = header.index("error")
    for row in rows[:4]:
        assert row[ecol] == "" and all(row[c] != "" for c in gcols)
    for row in rows[4:]:
        assert all(row[c] == "" for c in gcols)
        unsettled = ("linear body rate at q_R = 100000, q_L = 90000 has "
                     r"moments that may be off by \d\.\de-\d\d of "
                     "themselves, above 1e-13")
        assert re.fullmatch(f"gamma_linear_born_radial: {unsettled}; "
                            f"gamma_linear_born_tangential: {unsettled}",
                            row[ecol]), row[ecol]


# Sweeps that hit per-point errors, beside the presets (which hit none):
# the clearance limit and exact AccuracyError on a q_L sweep; "too close"
# and the weak_absorption off-centre ConfigError on a q_R sweep; the
# transparent-host refusal and q_C warnings on a log im_chi sweep; the
# passivity refusal on an im_chi sweep through zero; cavity radii
# whose 1/q_C^3 is no double, beside one that is; and, in a strongly
# absorbing sphere out to q_L/q_R = 0.999, linear rates refused for their
# rounding and an exact series past its order limit, whose messages hold
# commas, on a row where no curve has a rate.
ERROR_SWEEPS = {
    "qL_edge": {
        "sweep": "qL", "lo": "0", "hi": "0.999", "points": "12",
        "qr": "1", "eps_re": "1.1", "eps_im": "1e-8",
        "methods": "linear_born,uncorrected,exact",
        "orientations": "radial,tangential"},
    "qR_edge": {
        "sweep": "qR", "lo": "0.5", "hi": "3", "points": "11", "ql": "1",
        "eps_re": "1.1", "eps_im": "1e-8",
        "methods": "linear_born,exact,weak_absorption",
        "orientations": "radial", "center_reference": "1"},
    "im_chi_log": {
        "sweep": "im_chi", "lo": "1e-8", "hi": "1e-4", "points": "9",
        "log": "1", "qr": "2", "ql": "0", "qc": "0.01,0.15",
        "eps_re": "1.1",
        "methods": "linear_born,exact,weak_absorption,uncorrected"},
    "im_chi_passive": {
        "sweep": "im_chi", "lo": "-1e-6", "hi": "1e-6", "points": "9",
        "qr": "2", "ql": "0.5", "eps_re": "1.1",
        "methods": "linear_born,exact,uncorrected,weak_absorption"},
    "qc_beyond_double_range": {
        "sweep": "qR", "lo": "0.5", "hi": "3", "points": "4",
        "qc": "1e-120,1e-103,0.01", "eps_re": "1.1", "eps_im": "1e-8",
        "methods": "linear_born,exact,uncorrected,weak_absorption"},
    "qL_past_order_limit": {
        "sweep": "qL", "lo": "0", "hi": "0.29610271434986296", "points": "4",
        "qr": "0.2963991134633263", "qc": "1e-4", "eps_re": "0.001",
        "eps_im": "1e5", "methods": "exact,linear_born",
        "orientations": "radial,tangential"},
}


# sweeps with no failing cell beyond the presets: an exact curve beside
# the linear one out to q_L/q_R = 0.98, where the series' tables reach
# about 1,300 orders; and fig3a in a host with Re eps < 0, where no bulk
# model has a rate but each point has its rates
CLEAN_SWEEPS = {
    "qL_exact_near_surface": {
        "sweep": "qL", "lo": "0", "hi": "4.9", "points": "25",
        "qr": "5", "eps_re": "1.1", "eps_im": "1e-8",
        "methods": "exact,linear_born",
        "orientations": "radial,tangential"},
    "qR_no_bulk_rate": {
        **PRESETS["fig3a"], "points": "20", "eps_re": "-2", "eps_im": "0.1"},
}


def point_request(spec, curve, x):
    """The RateRequest of one sweep cell: the reference the columnar
    sweep is checked against."""
    eps_im = spec.eps_im
    q_R = spec.q_R
    q_L = 0.0 if curve.center else spec.q_L
    if spec.swept_variable == "qR":
        q_R = x
    elif spec.swept_variable == "qL":
        q_L = 0.0 if curve.center else x
    else:
        eps_im = x
    return rates.RateRequest(eps=complex(spec.eps_re, eps_im),
                             method=curve.method, geometry="sphere",
                             q_R=q_R, q_L=q_L, q_C=curve.q_C,
                             orientation=curve.orientation)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_match_the_shipped_references(tmp_path, preset):
    # the benchmark's rule against its recorded CSVs: every number within
    # 1e-12 relative, and the validity and error columns equal
    run_sweep(build_sweep(dict(PRESETS[preset])), str(tmp_path / "p.csv"))
    header, rows = read_rows(tmp_path / "p.csv")
    ref_header, ref_rows = read_rows(REFERENCE_PRESETS / f"{preset}.csv")
    assert header == ref_header and len(rows) == len(ref_rows)
    for row, ref in zip(rows, ref_rows):
        for name, cell, want in zip(header, row, ref, strict=True):
            if name == "error" or name.startswith("validity_") or not want:
                assert cell == want, (name, row[0])
            else:
                got, want = float(cell), float(want)
                assert abs(got - want) <= 1e-12 * max(abs(got), abs(want)), \
                    (name, row[0])


def test_cells_are_the_bytes_of_format_15g(tmp_path, monkeypatch):
    # a CSV cell is "{:.15g}".format of its float, byte for byte, on random
    # bit patterns and the edges of the format: signed zeros, infinities,
    # NaN, subnormals and the switch to exponents at 1e15 and 1e16; the
    # same values as a rate column pass through run_sweep's own column
    # formatting into the file
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
             -2.2250738585072014e-308, 1e15, 1e16, 999999999999999.9,
             -1e16 + 2.0]
    for x in [*values.tolist(), *values[:100], *edges]:
        assert _fmt(x) == "{:.15g}".format(x), x
    column = np.concatenate([values, edges])
    spec = build_sweep({"sweep": "qR", "lo": "0.5", "hi": "3",
                        "points": str(column.size), "eps_re": "1.1",
                        "methods": "linear_born"})
    passing = np.ones(column.size, dtype=bool)
    monkeypatch.setattr(cli, "_sweep_results", lambda spec, grid: [
        SimpleNamespace(total=column, errors={},
                        validity_ok=(passing, passing))])
    run_sweep(spec, str(tmp_path / "f.csv"))
    header, rows = read_rows(tmp_path / "f.csv")
    assert [row[1] for row in rows] == [
        "{:.15g}".format(x) for x in column.tolist()]
    assert [row[0] for row in rows] == [
        "{:.15g}".format(x) for x in spec.grid().tolist()]


def test_row_templates_write_each_row_as_csv_writer_does(tmp_path,
                                                          monkeypatch):
    # three curves whose cells fail here and there, a row where every
    # curve fails (its validity cells empty), error texts that hold %,
    # %s, commas, quotes and a line feed, and NaN and infinite rates:
    # the file is csv.writer's text of the rows, each rate cell
    # "{:.15g}".format of its value and empty where its curve failed
    rng = np.random.default_rng(37)
    points = 40
    spec = build_sweep({"sweep": "qR", "lo": "0.5", "hi": "3",
                        "points": str(points), "eps_re": "1.1",
                        "methods": "exact,linear_born,uncorrected"})
    texts = ["100% off", "%s and %d stay", 'a, "quoted", cell',
             "two\nlines", "%%", "plain"]
    fails = [{0: texts[0], 5: texts[1], 7: texts[2], 9: texts[5]},
             {5: texts[3], 7: texts[4], 12: texts[2]},
             {5: texts[5], 13: texts[1], 30: texts[0]}]
    totals = [rng.standard_normal(points) * 10.0 ** rng.integers(
        -300, 300, points) for _ in fails]
    totals[0][[1, 2]] = np.nan, np.inf
    totals[1][[3, 4]] = -np.inf, -0.0
    totals[2][[8, 9]] = np.nan, 5e-324
    validity = [(rng.random(points) < 0.5, rng.random(points) < 0.5)
                for _ in fails]
    monkeypatch.setattr(cli, "_sweep_results", lambda spec, grid: [
        SimpleNamespace(total=np.where(np.isin(np.arange(points), list(f)),
                                       np.nan, total),
                        errors={k: locfield.DomainError(text)
                                for k, text in f.items()},
                        validity_ok=ok)
        for f, total, ok in zip(fails, totals, validity)])
    run_sweep(spec, str(tmp_path / "t.csv"))
    data = (tmp_path / "t.csv").read_bytes().decode("utf-8")
    bulk = "{:.15g}".format(locfield.gamma_bulk(1.1))
    want = [[spec.swept_variable, *(c.column for c in spec.curves),
             "bulk_reference", "validity_chi_size", "validity_absorption",
             "error"]]
    for k, x in enumerate(spec.grid().tolist()):
        passing = [j for j, f in enumerate(fails) if k not in f]
        flags = (["", ""] if not passing else
                 [str(int(ok[k])) for ok in validity[passing[0]]])
        want.append(["{:.15g}".format(x),
                     *("" if k in f else "{:.15g}".format(total[k])
                       for f, total in zip(fails, totals)),
                     bulk, *flags,
                     "; ".join(f"{c.column}: {f[k]}"
                               for c, f in zip(spec.curves, fails)
                               if k in f)])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(want)
    assert data == buf.getvalue()
    assert list(csv.reader(io.StringIO(data, newline=""))) == want
    assert want[6][1:4] == ["", "", ""] and want[6][5:7] == ["", ""]


# cells that csv.writer's minimal quoting quotes, and cells it leaves bare
QUOTING_CELLS = {
    "plain": "plain text", "comma": "a, b", "quotes": 'say "no"',
    "quote": '"', "lone_comma": ",", "lf": "two\nlines", "cr": "cr\ronly",
    "crlf": "crlf\r\nend", "leading_space": " leading",
    "trailing_space": "trailing ", "spaces": " both ", "empty": "",
    "order_limit": "gamma_exact: about 2.83e+04 orders needed, 5000 "
                   "allowed (q_R = 0.296399, q_L = 0.296103)"}


@pytest.mark.parametrize("cell", QUOTING_CELLS.values(), ids=QUOTING_CELLS)
def test_error_cells_are_quoted_as_csv_writer_quotes(cell):
    # the helper quotes a cell as csv.writer (lineterminator "\n") does,
    # wherever csv.reader reads the writer's line back; a lone CR, which
    # Python 3.11's writer leaves bare and its reader then refuses, is
    # quoted as RFC 4180 asks, so every cell reads back as itself
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([cell, "x"])
    line = f"{cli._quoted(cell)},x\n"
    assert list(csv.reader(io.StringIO(line))) == [[cell, "x"]]
    try:
        readable = list(csv.reader(io.StringIO(buf.getvalue())))
    except csv.Error:
        readable = None
    if readable == [[cell, "x"]]:
        assert line == buf.getvalue()
    else:
        assert cell == "cr\ronly"


@pytest.mark.filterwarnings("ignore:q_C = 0.15")
@pytest.mark.parametrize("preset", [*sorted(PRESETS), *CLEAN_SWEEPS,
                                    *ERROR_SWEEPS])
def test_sweep_csv_is_the_csv_writer_dialect(tmp_path, preset):
    # the file is byte for byte what csv.writer(lineterminator="\n")
    # writes of the rows csv.reader reads from it: comma-separated, LF
    # line endings, and minimal quoting (the error cells that hold a
    # comma, those of qL_past_order_limit, quoted, and no other cell)
    spec = build_sweep(dict({**PRESETS, **CLEAN_SWEEPS,
                             **ERROR_SWEEPS}[preset]))
    run_sweep(spec, str(tmp_path / "p.csv"))
    data = (tmp_path / "p.csv").read_bytes().decode("utf-8")
    rows = list(csv.reader(io.StringIO(data, newline="")))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert data == buf.getvalue()
    assert (',"gamma_' in data) == any("," in row[-1] for row in rows) \
        == (preset == "qL_past_order_limit")


@pytest.mark.filterwarnings("ignore:q_C = 0.15")
@pytest.mark.parametrize("preset", [*sorted(PRESETS), *CLEAN_SWEEPS,
                                    *ERROR_SWEEPS])
def test_sweep_matches_per_point_compute(tmp_path, preset):
    # the sweep gives the cells that one compute call per (point, curve)
    # gives: the linear body terms to the bit, every error with its text,
    # and the validity flags of the first curve that succeeds
    spec = build_sweep(dict({**PRESETS, **CLEAN_SWEEPS,
                             **ERROR_SWEEPS}[preset]))
    run_sweep(spec, str(tmp_path / "p.csv"))
    header, rows = read_rows(tmp_path / "p.csv")
    assert len(rows) == spec.points
    columns = [rates_.results()
               for rates_ in _sweep_results(spec, spec.grid())]
    failures = 0
    for k, (row, x) in enumerate(zip(rows, spec.grid())):
        errors, validity = [], None
        for curve, column in zip(spec.curves, columns):
            cell = row[header.index(curve.column)]
            try:
                want = rates.compute(point_request(spec, curve, float(x)))
            except locfield.LocfieldError as exc:
                assert cell == "", (curve.column, x)
                errors.append(f"{curve.column}: {exc}")
                continue
            validity = validity or want.validity
            if curve.method in ("linear_born", "uncorrected"):
                assert column[k] == want, (curve.column, x)
                assert cell == _fmt(want.total_ratio), (curve.column, x)
                continue
            got = float(cell)
            assert abs(got - want.total_ratio) \
                <= 1e-12 * abs(want.total_ratio), (curve.column, x)
        assert row[-1] == "; ".join(errors), x
        flags = ["", ""] if validity is None else [
            "1" if validity.chi_size_ok else "0",
            "1" if validity.absorption_ok else "0"]
        assert row[-3:-1] == flags, x
        failures += len(errors)
    assert (failures > 0) == (preset in ERROR_SWEEPS)


@pytest.mark.parametrize("eps_re", ["-2", "1.5e308"])
def test_sweep_without_a_bulk_rate_leaves_its_bulk_cells_empty(tmp_path,
                                                                eps_re):
    # Re eps <= 0, and a real-cavity rate past double range: the sweep
    # runs, and every bulk_reference cell is empty
    res = run_cli(["sweep", "--preset", "fig3a", "--set", f"eps_re={eps_re}",
                   "--set", "eps_im=0.1", "--set", "points=20", "--out",
                   "s.csv"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    header, rows = read_rows(tmp_path / "s.csv")
    assert len(rows) == 20
    assert {row[header.index("bulk_reference")] for row in rows} == {""}


def test_compute_matches_library(tmp_path):
    res = run_cli(["compute", "--eps-re", "1.1", "--eps-im", "1e-8",
                   "--qr", "2"], tmp_path)
    assert res.returncode == 0, res.stderr
    values = {}
    for line in res.stdout.splitlines():
        key, _, rest = line.partition("=")
        values[key.strip()] = rest.split("(")[0].strip()
    expected = rates.compute(rates.RateRequest(eps=1.1 + 1e-8j,
                                               method="exact", q_R=2.0))
    assert_allclose(float(values["total_ratio"]), expected.total_ratio,
                    rtol=1e-12)
    assert_allclose(float(values["gamma_c_ratio"]), expected.gamma_c_ratio,
                    rtol=1e-12)
    assert "validity_chi_size" in values and "validity_absorption" in values
    assert "(pass)" in res.stdout


def test_compute_bulk_when_qr_omitted(tmp_path):
    res = run_cli(["compute", "--eps-re", "1.1", "--method", "linear_born"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    total = float(res.stdout.splitlines()[0].partition("=")[2])
    assert_allclose(total, 1.0 + 7.0 * 0.1 / 6.0, rtol=1e-10)


@pytest.mark.parametrize("args", [
    ["sweep", "--preset", "fig3a", "--set", "points=1"],
    ["sweep", "--preset", "fig3a", "--set", "banana=5"],
    ["sweep", "--config", "does-not-exist.cfg"],
    # tol and nu are retired: unknown keys, whatever their value
    ["sweep", "--preset", "fig5a", "--set", "tol=-1"],
    ["sweep", "--preset", "fig5a", "--set", "tol=1e-12"],
    ["sweep", "--preset", "fig5a", "--set", "nu=-1"],
    ["sweep", "--preset", "fig5a", "--set", "nu=0.5"],
    # q_C, which every point of a sweep shares, is checked before any
    # computation
    ["sweep", "--preset", "fig5a", "--set", "qc=0.5"],
    # a bulk request checks q_C before any computation
    ["compute", "--eps-re", "1.1", "--qc", "0", "--method", "linear_born"],
    ["compute", "--eps-re", "1.1", "--qc", "-0.5", "--method", "linear_born"],
    ["compute", "--eps-re", "1.1", "--qc", "0.5", "--method", "linear_born"],
    # an output file that cannot be written
    ["sweep", "--preset", "fig4", "--out", "no-such-dir/x.csv"],
])
def test_usage_problems_exit_2(tmp_path, args):
    res = run_cli(args, tmp_path)
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "Traceback" not in res.stderr
    if "--out" in args:
        assert "cannot write no-such-dir/x.csv" in res.stderr


# a config that build_sweep takes, as a file: each case below changes it
# by --set or drops a line, and is refused with its message
BASE_CONFIG = "sweep = qR\nlo = 1\nhi = 2\npoints = 3\neps_re = 1.1\n"


@pytest.mark.parametrize("config, overrides, message", [
    (BASE_CONFIG, ["lo=abc"], "lo: not a number: 'abc'"),
    (BASE_CONFIG, ["hi=inf"], "hi: must be finite"),
    (BASE_CONFIG, ["points=2.5"], "points: not an integer: '2.5'"),
    (BASE_CONFIG, ["log=2"], "log: expected 0 or 1, got '2'"),
    (BASE_CONFIG + "qc 0.01\n", [],
     "s.cfg:6: expected 'key = value', got 'qc 0.01'"),
    (BASE_CONFIG, ["points"], "--set: expected 'key = value', got 'points'"),
    (BASE_CONFIG.replace("eps_re = 1.1\n", ""), [],
     "missing required config key 'eps_re'"),
    (BASE_CONFIG, ["sweep=q"],
     "sweep must be one of ('qR', 'im_chi', 'qL'), got 'q'"),
    (BASE_CONFIG, ["lo=2"], "need lo < hi"),
    (BASE_CONFIG, ["lo=-1", "log=1"], "log spacing needs lo > 0"),
    (BASE_CONFIG, ["sweep=im_chi", "eps_im=0", "qr=2"],
     "eps_im conflicts with sweeping im_chi"),
    (BASE_CONFIG, ["qr=2"], "qr conflicts with sweeping qR"),
    (BASE_CONFIG, ["sweep=qL", "ql=0", "qr=2"],
     "ql conflicts with sweeping qL"),
    (BASE_CONFIG, ["sweep=qL"],
     "qr is required unless it is the swept variable"),
    (BASE_CONFIG, ["qc=0.01, 0.01"], "duplicate qc values"),
    (BASE_CONFIG, ["methods=exact,born"], "unknown method 'born'"),
    (BASE_CONFIG, ["methods=,"], "methods must not be empty"),
    (BASE_CONFIG, ["orientations=radial,axial"],
     "unknown orientation 'axial'"),
    (BASE_CONFIG, ["orientations= "], "orientations must not be empty"),
    (BASE_CONFIG, ["sweep=qL", "qr=2", "center_reference=1"],
     "center_reference conflicts with sweeping qL"),
], ids=["not_a_number", "not_finite", "not_an_integer", "not_a_flag",
        "file_entry", "set_entry", "missing_key", "sweep_choice", "lo_hi",
        "log_lo", "eps_im_conflict", "qr_conflict", "ql_conflict",
        "qr_required", "duplicate_qc", "unknown_method", "no_methods",
        "unknown_orientation", "no_orientations", "center_reference_qL"])
def test_sweep_config_refusals_exit_2(tmp_path, config, overrides, message):
    (tmp_path / "s.cfg").write_text(config)
    res = run_cli(["sweep", "--config", "s.cfg", "--out", "s.csv",
                   *(arg for item in overrides for arg in ("--set", item))],
                  tmp_path)
    assert res.returncode == 2
    assert res.stderr == f"locfield: config error: {message}\n"
    assert res.stdout == "" and not (tmp_path / "s.csv").exists()


def test_build_sweep_refuses_unknown_keys():
    # the mapping that build_sweep is given directly, not through a file
    # or --set, whose readers refuse an unknown key first
    with pytest.raises(ConfigError, match=re.escape(
            "unknown config keys: ['banana', 'tol']")):
        build_sweep({**PRESETS["fig3a"], "tol": "1e-12", "banana": "5"})


@pytest.mark.parametrize("old", [b"x" * 100_000, b"q"],
                         ids=["longer", "shorter"])
def test_sweep_overwrites_an_old_file_in_place(tmp_path, old):
    # the text goes over the old bytes and the file is cut to its
    # length: the same bytes as a fresh write, whatever was there
    (tmp_path / "old.csv").write_bytes(old)
    for out in ("old.csv", "new.csv"):
        res = run_cli(["sweep", "--preset", "fig4", "--out", out], tmp_path)
        assert res.returncode == 0, res.stderr
    fresh = (tmp_path / "new.csv").read_bytes()
    assert (tmp_path / "old.csv").read_bytes() == fresh
    assert (tmp_path / "old.csv").stat().st_size == len(fresh)


def test_sweep_writes_to_a_target_that_is_not_a_file(tmp_path):
    # /dev/null cannot be truncated, and is not
    res = run_cli(["sweep", "--preset", "fig4", "--out", "/dev/null"],
                  tmp_path)
    assert res.returncode == 0, res.stderr
    assert "wrote /dev/null" in res.stdout


def test_sweep_into_a_directory_exits_2(tmp_path):
    (tmp_path / "d").mkdir()
    res = run_cli(["sweep", "--preset", "fig4", "--out", "d"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert "cannot write d" in res.stderr and "Traceback" not in res.stderr


def test_sweep_creates_a_file_with_the_mode_of_open(tmp_path):
    # a new file gets 0o666 less the umask, as open(path, "w") gives it
    mask = os.umask(0o027)
    try:
        res = run_cli(["sweep", "--preset", "fig4", "--out", "new.csv"],
                      tmp_path)
    finally:
        os.umask(mask)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o666 & ~0o027


@pytest.mark.parametrize("line", ["tol = 1e-12", "nu = 0.5", "nu = 0"])
def test_retired_keys_are_unknown(tmp_path, line):
    # the accuracy and the clearance margin are no settings: a config
    # file or --set that names tol or nu fails as an unknown key, exit 2
    key = line.partition(" ")[0]
    (tmp_path / "sweep.cfg").write_text(
        "sweep = qR\nlo = 1.0\nhi = 2.0\npoints = 3\neps_re = 1.1\n"
        f"{line}\n")
    res = run_cli(["sweep", "--config", "sweep.cfg", "--out", "s.csv"],
                  tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr == ("locfield: config error: sweep.cfg:6: unknown key "
                          f"{key!r}\n")
    res = run_cli(["sweep", "--preset", "fig5a", "--set",
                   line.replace(" ", "")], tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr == ("locfield: config error: --set: unknown key "
                          f"{key!r}\n")
    assert not (tmp_path / "s.csv").exists()
    assert not (tmp_path / "fig5a.csv").exists()


def test_compute_takes_no_nu(tmp_path):
    res = run_cli(["compute", "--eps-re", "1.1", "--qr", "2", "--ql", "0.5",
                   "--nu", "0.5"], tmp_path)
    assert res.returncode == 2
    assert "unrecognized arguments: --nu 0.5" in res.stderr
    assert "Traceback" not in res.stderr


def test_plot_is_no_command(tmp_path):
    res = run_cli(["plot", "--csv", "x.csv"], tmp_path)
    assert res.returncode == 2
    assert ("argument command: invalid choice: 'plot' (choose from "
            "'sweep', 'compute')") in res.stderr
    assert "Traceback" not in res.stderr


def test_numerical_failure_exits_3(tmp_path):
    res = run_cli(["compute", "--eps-re", "1.1", "--qr", "20000"], tmp_path)
    assert res.returncode == 3, res.stderr
    assert "numerical error" in res.stderr


def test_series_past_the_order_cap_exits_3(tmp_path):
    res = run_cli(["compute", "--eps-re", "1.1", "--eps-im", "1e-8",
                   "--qr", "200", "--ql", "199.9", "--method", "exact"],
                  tmp_path)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("locfield: numerical error: sphere series "
                                 "not converged by m = 5000: about 5.8e+04 "
                                 "orders needed")


def test_series_overflow_exits_3_without_traceback(tmp_path):
    # sin(n q_R), of which j_1(n q_R) is made, leaves double range at
    # Im n q_R = 1407
    res = run_python_m(["compute", "--eps-re", "1", "--eps-im", "100", "--qr",
                        "200", "--ql", "100", "--method", "exact"], tmp_path)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith("locfield: numerical error: "
                                 "spherical_bessel_j overflowed")
    assert "Traceback" not in res.stderr


def test_cavity_radius_beyond_double_range_exits_3(tmp_path):
    # on every method, in bulk and in a sphere
    for q_C in ("1e-120", "1e-103"):
        for method in rates.METHODS:
            for sphere in ([], ["--qr", "2"]):
                res = run_cli(["compute", "--eps-re", "1.1", "--eps-im",
                               "1e-8", "--qc", q_C, "--method", method,
                               *sphere], tmp_path)
                assert res.returncode == 3, (method, sphere, res.stderr)
                assert res.stderr == (
                    f"locfield: numerical error: q_C = {q_C} is too small: "
                    f"the cavity terms in 1/q_C^3 leave double range\n")


def test_centred_sweeps_build_no_gauss_legendre_rule(tmp_path, monkeypatch):
    # fig3a, fig3b and fig4 have only centred rows: their linear body
    # terms are the closed form, with no quadrature and no rule
    def refuse(*args):
        raise AssertionError("Gauss-Legendre quadrature asked for")

    monkeypatch.setattr("locfield.born.quad", refuse)
    monkeypatch.setattr("locfield.born._gauss_legendre", refuse)
    for preset in ("fig3a", "fig3b", "fig4"):
        run_sweep(build_sweep(dict(PRESETS[preset])),
                  str(tmp_path / f"{preset}.csv"))
        header, rows = read_rows(tmp_path / f"{preset}.csv")
        assert all(row[header.index("error")] == "" for row in rows), preset


def test_preset_sweeps_build_no_gauss_legendre_rule(tmp_path, monkeypatch):
    # the off-centre presets' linear body terms are the closed-form
    # moments or, nearer the centre, their Taylor series in q_L: no
    # quadrature and no rule
    def refuse(*args):
        raise AssertionError("Gauss-Legendre quadrature asked for")

    monkeypatch.setattr("locfield.born.quad", refuse)
    monkeypatch.setattr("locfield.born._gauss_legendre", refuse)
    for preset in ("fig5a", "fig5b", "fig6a", "fig6b"):
        run_sweep(build_sweep(dict(PRESETS[preset])),
                  str(tmp_path / f"{preset}.csv"))
        header, rows = read_rows(tmp_path / f"{preset}.csv")
        assert all(row[header.index("error")] == "" for row in rows), preset


@pytest.mark.parametrize("args, message", [
    (["compute", "--eps-re", "-0.5", "--qr", "2"],
     "eps = -1/2 is the pole of the local-field factor"),
    (["compute", "--eps-re", "-1", "--qr", "2", "--method", "uncorrected"],
     "the uncorrected rate needs Re eps > 0"),
    (["compute", "--eps-re", "-1", "--eps-im", "1e-7",
      "--method", "weak_absorption"],
     "weak-absorption split needs Re eps > 0"),
], ids=["pole", "uncorrected_re_eps", "weak_absorption_re_eps"])
def test_refused_permittivity_exits_3_without_traceback(tmp_path, args,
                                                        message):
    # permittivities that the permittivity rule admits but a rate cannot
    # take
    res = run_cli(args, tmp_path)
    assert res.returncode == 3, res.stderr
    assert res.stderr.startswith(f"locfield: numerical error: {message}")
    assert "Traceback" not in res.stderr


def test_help_runs_clean(tmp_path):
    res = run_python_m(["--help"], tmp_path)
    assert res.returncode == 0, res.stderr
    for sub in ("sweep", "compute"):
        assert sub in res.stdout
    assert "plot" not in res.stdout
