"""Command-line front end: parameter sweeps and single rates.

Subcommands
-----------
``locfield sweep``
    Run a parameter sweep from a preset or a flat key-value config file
    and write a deterministic CSV (identical config gives byte-identical
    output): comma-separated, LF line endings, each float cell "%.15g"
    of its value, failed cells empty, and only the error cell quoted, as
    RFC 4180 and csv.writer's QUOTE_MINIMAL quote.
``locfield compute``
    Evaluate a single rate and print the Gamma/Gamma_0 breakdown.

Exit codes: 0 success, 2 configuration/usage error (bad arguments,
malformed config, unusable paths), 3 numerical failure during
computation.  :func:`main` parses and validates the config or request
once, before any computation, and runs what it built.

A sweep evaluates each curve as one column of rates: its method,
orientation and q_C once, the swept values as an array
(:mod:`locfield.rates`), and the CSV is written from the column arrays.
Per-point failures inside a sweep do not abort the run; they leave the
rate cells empty and record the message that a single ``compute`` of
that point would raise in the ``error`` column.  A q_C above 0.1 warns
once per curve that yields a rate, not once per point.

Config schema (flat ``key = value`` lines, ``#`` comments)::

    sweep        qR | im_chi | qL        swept variable
    lo, hi       sweep range (lo < hi); log-spaced if log = 1
    points       integer >= 2
    log          0 | 1 (default 0)
    eps_re       real part of the permittivity
    eps_im       imaginary part (not allowed when sweeping im_chi)
    qr, ql, qc   sphere radius, emitter displacement, cavity radius
                 (all premultiplied by k_A; qc may be a comma list,
                 one curve set per value); the emitter keeps its
                 cavity inside the sphere, ql + qc <= qr
    methods      comma list from: exact, linear_born, uncorrected,
                 weak_absorption
    orientations comma list from: radial, tangential
    center_reference  0 | 1: add a q_L = 0 reference curve per method

Any key can be overridden on the command line with ``--set key=value``;
any other key is a configuration error.  No key sets an accuracy: the
linear body term is held to an absolute 1e-10 and the exact one to a
relative 1e-8.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import stat
import sys

import numpy as np

from . import __version__, born, cavity, rates
from .errors import (QC_DEFAULT, ConfigError, DomainError, LocfieldError,
                     qc_faults, raise_first)

__all__ = ["PRESETS", "SweepSpec", "build_sweep", "run_sweep", "main"]

# a float as a CSV cell or an output value: 15 significant digits, the
# bytes of "{:.15g}".format
_fmt = "%.15g".__mod__

_SWEPT_VARIABLES = ("qR", "im_chi", "qL")

_CONFIG_KEYS = {
    "sweep", "lo", "hi", "points", "log", "eps_re", "eps_im",
    "qr", "ql", "qc", "methods", "orientations", "center_reference",
}

PRESETS: dict[str, dict[str, str]] = {
    # rate vs sphere radius at the center, exact against linear Born
    "fig3a": {
        "sweep": "qR", "lo": "0.5", "hi": "10", "points": "200",
        "eps_re": "1.1", "eps_im": "1e-8", "qc": "0.01", "ql": "0",
        "methods": "exact,linear_born", "orientations": "radial",
    },
    "fig3b": {
        "sweep": "qR", "lo": "0.5", "hi": "10", "points": "200",
        "eps_re": "1.2", "eps_im": "1e-8", "qc": "0.01", "ql": "0",
        "methods": "exact,linear_born", "orientations": "radial",
    },
    # absorption-driven disagreement at fixed radius, two cavity sizes
    "fig4": {
        "sweep": "im_chi", "lo": "1e-8", "hi": "1e-6", "points": "41",
        "log": "1", "eps_re": "1.1", "qr": "2", "ql": "0",
        "qc": "0.01,0.02", "methods": "exact,linear_born",
        "orientations": "radial",
    },
    # rate vs emitter position, corrected and uncorrected
    "fig5a": {
        "sweep": "qL", "lo": "0", "hi": "0.95", "points": "96",
        "eps_re": "1.1", "eps_im": "1e-8", "qr": "1", "qc": "0.01",
        "methods": "linear_born,uncorrected",
        "orientations": "radial,tangential",
    },
    "fig5b": {
        "sweep": "qL", "lo": "0", "hi": "4.9", "points": "99",
        "eps_re": "1.1", "eps_im": "1e-8", "qr": "5", "qc": "0.01",
        "methods": "linear_born,uncorrected",
        "orientations": "radial,tangential",
    },
    # rate vs radius for an off-center emitter, center curve as reference
    "fig6a": {
        "sweep": "qR", "lo": "1.2", "hi": "10", "points": "177",
        "eps_re": "1.1", "eps_im": "1e-8", "ql": "1", "qc": "0.01",
        "methods": "linear_born", "orientations": "radial,tangential",
        "center_reference": "1",
    },
    "fig6b": {
        "sweep": "qR", "lo": "5.2", "hi": "10", "points": "97",
        "eps_re": "1.1", "eps_im": "1e-8", "ql": "5", "qc": "0.01",
        "methods": "linear_born", "orientations": "radial,tangential",
        "center_reference": "1",
    },
}


@dataclasses.dataclass(frozen=True)
class CurveSpec:
    """One CSV rate column: a method/orientation/override combination."""

    column: str
    method: str
    orientation: str
    q_C: float
    center: bool = False  # force q_L = 0 (reference curve)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """Validated sweep request."""

    swept_variable: str
    lo: float
    hi: float
    points: int
    log: bool
    eps_re: float
    eps_im: float
    q_R: float | None
    q_L: float
    curves: tuple[CurveSpec, ...]

    def grid(self) -> np.ndarray:
        if self.log:
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


def _parse_float(raw: str, key: str) -> float:
    try:
        v = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw!r}") from exc
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite")
    return v


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from exc


def _parse_flag(raw: str, key: str) -> bool:
    if raw not in ("0", "1"):
        raise ConfigError(f"{key}: expected 0 or 1, got {raw!r}")
    return raw == "1"


def _entry(text: str, where: str) -> tuple[str, str]:
    """The key and value of one ``key = value`` entry; ``where`` names
    it in errors: ``path:line`` of a config file, or ``--set``."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    key, _, value = text.partition("=")
    key = key.strip()
    if key not in _CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value.strip()


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key = value config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    texts = (line.split("#", 1)[0].strip() for line in lines)
    return dict(_entry(text, f"{path}:{lineno}")
                for lineno, text in enumerate(texts, 1) if text)


def _names(cfg: dict[str, str], key: str, default: str, allowed,
           what: str) -> tuple[str, ...]:
    """The comma list of names under ``key`` (``default`` if absent),
    each one of ``allowed``; ``what`` names one in errors."""
    names = tuple(n.strip() for n in cfg.get(key, default).split(",")
                  if n.strip())
    for n in names:
        if n not in allowed:
            raise ConfigError(f"unknown {what} {n!r}")
    if not names:
        raise ConfigError(f"{key} must not be empty")
    return names


def build_sweep(cfg: dict[str, str]) -> SweepSpec:
    """Validate a raw config mapping into a SweepSpec."""
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("sweep", "lo", "hi", "points", "eps_re"):
        if key not in cfg:
            raise ConfigError(f"missing required config key {key!r}")
    swept = cfg["sweep"]
    if swept not in _SWEPT_VARIABLES:
        raise ConfigError(f"sweep must be one of {_SWEPT_VARIABLES}, "
                          f"got {swept!r}")
    lo = _parse_float(cfg["lo"], "lo")
    hi = _parse_float(cfg["hi"], "hi")
    points = _parse_int(cfg["points"], "points")
    log = _parse_flag(cfg.get("log", "0"), "log")
    if not lo < hi:
        raise ConfigError("need lo < hi")
    if points < 2:
        raise ConfigError("points must be >= 2 (zero-length sweeps are "
                          "not meaningful)")
    if log and lo <= 0:
        raise ConfigError("log spacing needs lo > 0")

    eps_re = _parse_float(cfg["eps_re"], "eps_re")
    eps_im = _parse_float(cfg.get("eps_im", "0"), "eps_im")
    if swept == "im_chi" and "eps_im" in cfg:
        raise ConfigError("eps_im conflicts with sweeping im_chi")
    q_R = _parse_float(cfg["qr"], "qr") if "qr" in cfg else None
    q_L = _parse_float(cfg.get("ql", "0"), "ql")
    if swept == "qR" and "qr" in cfg:
        raise ConfigError("qr conflicts with sweeping qR")
    if swept == "qL" and "ql" in cfg:
        raise ConfigError("ql conflicts with sweeping qL")
    if swept != "qR" and q_R is None:
        raise ConfigError("qr is required unless it is the swept variable")

    qc_values = []
    for part in cfg.get("qc", str(QC_DEFAULT)).split(","):
        qc_values.append(_parse_float(part.strip(), "qc"))
        raise_first(qc_faults(qc_values[-1]))
    if len(set(qc_values)) != len(qc_values):
        raise ConfigError("duplicate qc values")

    methods = _names(cfg, "methods", "exact", rates.METHODS, "method")
    orientations = _names(cfg, "orientations", "radial", born.ORIENTATIONS,
                          "orientation")
    center_ref = _parse_flag(cfg.get("center_reference", "0"),
                             "center_reference")
    if center_ref and swept == "qL":
        raise ConfigError("center_reference conflicts with sweeping qL")

    curves = []
    for method in methods:
        for orient in orientations:
            for qc in qc_values:
                name = f"gamma_{method}"
                if len(orientations) > 1:
                    name += f"_{orient}"
                if len(qc_values) > 1:
                    name += f"_qc{qc:g}"
                curves.append(CurveSpec(column=name, method=method,
                                        orientation=orient, q_C=qc))
        if center_ref:
            name = f"gamma_{method}_center"
            if len(qc_values) > 1:
                name += f"_qc{qc_values[0]:g}"
            curves.append(CurveSpec(column=name, method=method,
                                    orientation="radial",
                                    q_C=qc_values[0], center=True))

    return SweepSpec(swept_variable=swept, lo=lo, hi=hi, points=points,
                     log=log, eps_re=eps_re, eps_im=eps_im, q_R=q_R,
                     q_L=q_L, curves=tuple(curves))


def run_sweep(spec: SweepSpec, output_path: str) -> None:
    """Evaluate the sweep and write the CSV.

    Each curve is one column of rates: the scalars it shares and the
    swept values as an array, validated as arrays (see
    :func:`locfield.rates._compute_columns`).  The columns of a sweep
    are evaluated together, so its linear body terms are one call of
    the row kernel, which integrates each distinct off-centre sphere
    geometry once and takes the centred ones in closed form.
    Per-point failures leave the rate cells empty and put the message
    in the error column; the sweep continues, as it does with empty
    ``bulk_reference`` cells where :func:`locfield.cavity.gamma_bulk`
    raises.  The rows' text is one
    ``%`` over the float cells in sweep order, each "%.15g" ("%.0s", so
    nothing, where it failed).  ``output_path`` is overwritten in place
    and then cut to the text's length, so any writable path works,
    ``/dev/null`` and pipes included.
    """
    header = [spec.swept_variable, *(c.column for c in spec.curves),
              "bulk_reference", "validity_chi_size", "validity_absorption",
              "error"]
    try:
        bulk_ref = _fmt(cavity.gamma_bulk(spec.eps_re, model="real_cavity"))
    except LocfieldError:  # no bulk rate: an empty cell, as a failed one
        bulk_ref = ""
    grid = spec.grid()
    columns, cells = [grid], ["%.15g,"] * (len(spec.curves) + 1)
    errors, blanked = {}, {}  # each failing row's messages and cells
    # each row's validity flags are those of the first curve with a rate
    # there, as 2 chi_size_ok + absorption_ok; 4 while no curve has one
    flags = np.full(grid.size, 4, dtype=np.int8)
    for j, (curve, rates_) in enumerate(
            zip(spec.curves, _sweep_results(spec, grid)), 1):
        columns.append(rates_.total)
        take = flags == 4
        for k, exc in rates_.errors.items():
            errors.setdefault(k, []).append(f"{curve.column}: {exc}")
            blanked.setdefault(k, cells.copy())[j] = "%.0s,"
            take[k] = False
        chi_size_ok, absorption_ok = rates_.validity_ok
        flags[take] = (2 * chi_size_ok + absorption_ok)[take]
    # a row's last four cells, by its flags: bulk, flags and error cell
    tails = [f"{bulk_ref},{v}," for v in ("0,0", "0,1", "1,0", "1,1", ",")]
    templates = ["".join(cells) + tail + "\n" for tail in tails]
    rows = list(map(templates.__getitem__, flags.tolist()))
    for k, messages in errors.items():
        rows[k] = "".join([*blanked[k], tails[flags[k]], _quoted(
            "; ".join(messages)).replace("%", "%%"), "\n"])
    text = ",".join(header) + "\n" + "".join(rows) % tuple(
        np.column_stack(columns).ravel().tolist())
    try:
        # no O_TRUNC: truncating a file that was just written waits on
        # its writeback, so the text goes over the old bytes and the
        # file is then cut to length, where it is a regular file
        with open(output_path, "wb", opener=lambda path, flags: os.open(
                path, flags & ~os.O_TRUNC, 0o666)) as fh:
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write {output_path}: {exc}") from exc


def _quoted(cell: str) -> str:
    """A cell as RFC 4180 quotes it: in double quotes, its own doubled,
    if it holds a comma, a double quote, CR or LF."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _sweep_results(spec: SweepSpec, grid) -> list:
    """The rates of each curve at the grid points, as computed by
    :func:`locfield.rates._compute_columns`."""
    columns = []
    for curve in spec.curves:
        swept = spec.swept_variable
        eps = np.full(grid.shape, complex(spec.eps_re, spec.eps_im))
        q_R = grid if swept == "qR" else np.full(grid.shape, spec.q_R)
        q_L = np.full(grid.shape, 0.0 if curve.center else spec.q_L)
        if swept == "qL" and not curve.center:
            q_L = grid
        elif swept == "im_chi":
            eps.imag = grid
        columns.append(rates._Column(
            method=curve.method, orientation=curve.orientation,
            q_C=curve.q_C, eps=eps, q_R=q_R, q_L=q_L))
    return rates._compute_columns(columns)


# -- argument parsing -----------------------------------------------------


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locfield",
        description="Local-field corrected decay rates in dielectric "
                    "bodies (all lengths premultiplied by k_A).")
    parser.add_argument("--version", action="version",
                        version=f"locfield {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    src = p_sweep.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESETS),
                     help="built-in sweep configuration")
    src.add_argument("--config", help="flat key-value config file")
    p_sweep.add_argument("--set", dest="overrides", action="append",
                         metavar="KEY=VALUE",
                         help="override a config key (repeatable)")
    p_sweep.add_argument("--out", help="output CSV path "
                                       "(default <preset>.csv / sweep.csv)")

    p_comp = sub.add_parser("compute", help="evaluate a single rate")
    p_comp.add_argument("--eps-re", type=float, required=True)
    p_comp.add_argument("--eps-im", type=float, default=0.0)
    p_comp.add_argument("--qr", type=float, default=None,
                        help="sphere radius; omit for bulk")
    p_comp.add_argument("--ql", type=float, default=0.0)
    p_comp.add_argument("--qc", type=float, default=QC_DEFAULT)
    p_comp.add_argument("--method", choices=rates.METHODS, default="exact")
    p_comp.add_argument("--orientation", choices=born.ORIENTATIONS,
                        default="radial")
    return parser


def _sweep_config(args) -> dict[str, str]:
    cfg = PRESETS[args.preset] if args.preset else parse_config_file(
        args.config)
    return {**cfg, **dict(_entry(item, "--set")
                          for item in args.overrides or ())}


def _cmd_sweep(args, spec: SweepSpec) -> int:
    out = args.out or (f"{args.preset}.csv" if args.preset else "sweep.csv")
    run_sweep(spec, out)
    print(f"wrote {out} ({spec.points} rows, {len(spec.curves)} curves)")
    return 0


def _compute_request(args) -> rates.RateRequest:
    geometry = "bulk" if args.qr is None else "sphere"
    return rates.RateRequest(eps=complex(args.eps_re, args.eps_im),
                             method=args.method, geometry=geometry,
                             q_R=args.qr, q_L=args.ql, q_C=args.qc,
                             orientation=args.orientation)


def _cmd_compute(request: rates.RateRequest) -> int:
    result = rates.compute(request)
    print(f"total_ratio = {_fmt(result.total_ratio)}")
    print(f"gamma_c_ratio = {_fmt(result.gamma_c_ratio)}")
    print(f"gamma_b_ratio = {_fmt(result.gamma_b_ratio)}")
    v = result.validity
    print(f"validity_chi_size = {_fmt(v.chi_size_value)} "
          f"({'pass' if v.chi_size_ok else 'fail'})")
    print(f"validity_absorption = {_fmt(v.absorption_value)} "
          f"({'pass' if v.absorption_ok else 'fail'})")
    return 0


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    # configuration phase: anything wrong here is a usage problem; what
    # it builds is what the computation phase runs
    try:
        if args.command == "sweep":
            spec = build_sweep(_sweep_config(args))
        else:
            request = _compute_request(args)
    except (ConfigError, DomainError) as exc:
        print(f"locfield: config error: {exc}", file=sys.stderr)
        return 2
    # computation phase
    try:
        if args.command == "sweep":
            return _cmd_sweep(args, spec)
        return _cmd_compute(request)
    except ConfigError as exc:
        print(f"locfield: config error: {exc}", file=sys.stderr)
        return 2
    except LocfieldError as exc:
        print(f"locfield: numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
