"""Scenario-driven command line front end.

Every command but ``polarimetry`` reads one scenario file (all sections
optional).  Each command writes its rows into files that one writer opens:
the data files first, and last a ``<out>.params.json`` sidecar with the
resolved scenario sections the command reads, for provenance.  The files
appear together when the command succeeds, or not at all.  The command prints a
one-line summary to stdout and exits 0.  On failure an error record is printed to
stderr as a single JSON line and the exit status is 2 for a usage error,
a malformed scenario or a file that cannot be read or written, or 3 for a
numerical/parameter failure (the record names the offending field).  Each
distinct warning is printed to stderr as one JSON line too.

Output conventions: CSV with a mandatory header row, comma separator,
'.' decimal point, floats as printf %.9g, integers as %d and text verbatim,
so identical scenario + seed produces byte-identical files.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import dataclasses
import errno
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundError
from .decoy import gains_and_errors, secure_rate, sweep_loss
from .modulator import bb84_table, fit_delta_l, poincare_trace, wavelength_scan
from .montecarlo import STATES, RateEstimate, SimConfig, SimSpec, estimate, simulate
from .polarimetry import extract_stokes, measure_stokes, warn_inconsistent
from .polarization import degree_of_polarization
from .scenario import (
    Scenario,
    ScenarioError,
    SweepSpec,
    _check_value,
    load_scenario,
    resolved_dict,
    section_error,
)

# rate CSV header -> the RatePoint field its column prints
RATE_COLUMNS = {
    "loss_db": "loss_db",
    "Q_mu": "q_mu",
    "Q_nu": "q_nu",
    "E_mu": "e_mu",
    "Y0": "y0",
    "Q1L": "q1_lower",
    "e1U": "e1_upper",
    "qber": "qber",
    "R_per_pulse": "rate_per_pulse",
    "R_per_s": "rate_per_second",
}


# printf conversion for each column's numpy dtype kind
_CONVERSIONS = {"U": "%s", "i": "%d", "f": "%.9g"}

# rows a table block holds (rows _write_rows formats at a time, and the sweep's and scan's grid points
# per engine pass), and bytes _read_blocks reads at a time beyond a held line: each bounds what a table
# costs beyond its own arrays
_WRITE_ROWS = 4096
_READ_BYTES = 1 << 16


def _write_rows(f, columns):
    """Write equal-length ``columns`` to ``f`` as CSV rows, ``_WRITE_ROWS`` rows at a time.

    Row k holds element k of every column.  Rows go to ``f`` one at a time:
    a slice joined into one string left about 1 MB more resident.
    """
    columns = [np.asarray(c) for c in columns]
    row_format = ",".join(_CONVERSIONS[c.dtype.kind] for c in columns) + "\n"
    for start in range(0, min(map(len, columns)), _WRITE_ROWS):
        block = (c[start : start + _WRITE_ROWS].tolist() for c in columns)
        f.writelines(map(row_format.__mod__, zip(*block)))


@contextlib.contextmanager
def _write_outputs(out: Path):
    """Yield ``open_output``; the files it opens appear when the block ends, or not at all.

    ``open_output(suffix, header=())`` opens the file named by ``suffix`` on
    ``out`` as a hidden sibling temporary, writes ``header`` as its CSV
    header row if one is given, and returns the open text file.  After the
    block every file is closed and ``os.replace`` moves them all into place,
    in the order opened.  An exception, or an output path that is a
    directory, closes and deletes the temporaries and leaves every output
    path as it was; a rename that fails for another reason can leave the
    files before it moved.
    """
    pending = {}   # output path -> its open temporary sibling

    def open_output(suffix: str, header=()):
        path = out.with_name(out.name + suffix)
        pending[path] = f = path.with_name(f".{path.name}.{os.getpid()}.tmp").open("w")
        if header:
            f.write(",".join(header) + "\n")
        return f

    try:
        yield open_output
        for f in pending.values():
            f.close()
        for path in pending:   # a directory is refused before anything moves
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path, f in pending.items():
            os.replace(f.name, path)
    except BaseException:
        for f in pending.values():
            with contextlib.suppress(OSError):
                f.close()
            with contextlib.suppress(OSError):
                os.unlink(f.name)
        raise


def _synthetic_scan(args, scn: Scenario):
    """The scan as (wavelengths in meters, intensities) blocks of ``_WRITE_ROWS`` points over the --grid (nm).

    The default grid, 1201 points +-1.2 nm around the operating wavelength, stays above 0 nm and prints distinct
    points, as ModulatorConfig bounds that to (1.2 nm, 0.1 mm].  A scan phase past the float range names
    ``modulator.delta_l``.
    """
    nm = scn.modulator.wavelength * 1e9
    grid = args.grid if args.grid is not None else SweepSpec(nm - 1.2, nm + 1.2, 0.002)
    for lam in (block * 1e-9 for block in grid.blocks(_WRITE_ROWS)):
        try:
            yield lam, wavelength_scan(scn.modulator, lam)
        except BoundError as exc:
            raise section_error(exc, "modulator") from exc


def _grid_text(grid: SweepSpec | None) -> str | None:
    """A scan's --grid for its sidecar, as --grid accepts it (in nm); None without one."""
    return None if grid is None else f"{grid.start_db!r}:{grid.stop_db!r}:{grid.step_db!r}"


def _cmd_states(args, scn: Scenario, open_output) -> tuple[str, dict]:
    v, stokes = bb84_table(scn.modulator)
    # S1..S3 are the ideal outputs; S*_meas is what the polarimeter recovers
    # through the configured (possibly imperfect) waveplate retardance
    measured = measure_stokes(stokes, retardance=scn.modulator.qwp_retardance)
    f = open_output("", ("state", "v0", "v1", "v2", "S0", "S1", "S2", "S3", "S1_meas", "S2_meas", "S3_meas"))
    # v0, the unmodelled intensity modulator's drive, stays 0 because
    # ipmbench reads S0..S3 by column position
    _write_rows(f, (np.array(STATES), np.zeros(4), *v.T, *stokes.T, *measured[:, 1:].T))
    return f"states: wrote 4 drive settings to {args.out}", {}


def _cmd_trace(args, scn: Scenario, open_output) -> tuple[str, dict]:
    t, v1, v2, stokes = poincare_trace(scn.modulator)
    _write_rows(open_output("", ("t", "v1", "v2", "S0", "S1", "S2", "S3")), (t, v1, v2, *stokes.T))
    return f"trace: wrote {len(t)} samples to {args.out}", {}


def _cmd_scan(args, scn: Scenario, open_output) -> tuple[str, dict]:
    f, points = open_output("", ("wavelength_nm", "intensity")), 0
    for lam, intensities in _synthetic_scan(args, scn):
        _write_rows(f, (lam * 1e9, intensities))
        points += len(lam)
    return f"scan: wrote {points} points to {args.out}", {"grid": _grid_text(args.grid)}


def _read_blocks(path: Path, expected_columns: int):
    """Yield the rows below the header as float arrays, one per read of the file, reading the file once.

    The first non-blank line is the header, lines end where ``str.splitlines`` ends them, and cells follow
    ``float()`` syntax.  A read's last non-blank line, which may run on into the next read, is held back with
    the blank lines after it, so a block holds the whole lines of one read; each read takes _READ_BYTES bytes
    more than are held, so a line of any length costs linear time.  An error names its line from the top of
    the file, or a byte that is not UTF-8 its offset in the file, after the rows before it are yielded.
    """
    lineno, header, held, data, chunk, error = 0, 0, "", b"", True, None
    with path.open("rb") as f:
        while chunk and not error:   # the last pass, on an empty read, decodes the end of the file
            data += (chunk := f.read(_READ_BYTES + len(held)))
            try:
                text, used = codecs.utf_8_decode(data, None, not chunk)
                text, data = held + text, data[used:]
                block = (body := text.rstrip()).splitlines()
                held = text[len(body) - len(block.pop()) :] if chunk and block else text
            except UnicodeDecodeError as exc:   # named by its offset in the file, as decoding it whole names it
                block = (held + data[: exc.start].decode() + "\0").splitlines()[:-1]
                at, last = (f.tell() - len(data) + k for k in (exc.start, exc.end - 1))
                what = (f"byte 0x{data[exc.start]:02x} in position {at}" if at == last
                        else f"bytes in position {at}-{last}")
                error = ScenarioError(f"input file {path} is not UTF-8: 'utf-8' codec can't decode {what}: "
                                      f"{exc.reason}")
            first, lineno = lineno, lineno + len(block)   # block[k] is line first + k + 1
            if not header:   # blank lines, then the header
                header = next((first + n for n, line in enumerate(block, start=1) if line.strip()), 0)
                block, first = block[header - first :] if header else [], header
            if not block:
                continue
            # numpy's C reader parses as float() does, but skips empty lines, rejects spellings such as 1_000
            # and strips a \x1f beside a cell, which float() refuses
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    values = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
            except ValueError:
                values = None
            if values is None or values.shape != (len(block), expected_columns) or any("\x1f" in s for s in block):
                # the C reader rejected, reshaped or misread the block: walk it, yielding the rows before a bad line
                values = np.empty((len(block), expected_columns))
                for k, line in enumerate(block):
                    try:
                        parts = line.split(",")
                        if len(parts) != expected_columns:
                            raise ValueError(f"expected {expected_columns} columns, got {len(parts)}")
                        values[k] = [float(x) for x in parts]
                    except ValueError as exc:
                        if k:
                            yield values[:k]
                        raise ScenarioError(f"{path}:{first + k + 1}: {exc}") from exc
            yield values
    if error or lineno == header:
        raise error or ScenarioError(f"input file {path} has no data rows")


def _cmd_fitdl(args, scn: Scenario, open_output) -> tuple[str, dict]:
    if args.infile is not None:   # the fit needs the whole scan
        data = np.concatenate(list(_read_blocks(args.infile, 2)))
        lam, intensity = data[:, 0] * 1e-9, data[:, 1]
    else:
        lam, intensity = map(np.concatenate, zip(*_synthetic_scan(args, scn)))
    fit = fit_delta_l(lam, intensity, scn.modulator.n_1)
    _write_rows(open_output("", ("delta_l_m", "contrast", "phase_rad", "residual_rms", "periods_spanned")),
                [[fit.delta_l], [fit.contrast], [fit.phase], [fit.residual_rms], [fit.periods_spanned]])
    summary = f"fitdl: delta_l = {fit.delta_l:.9g} m (residual rms {fit.residual_rms:.9g}) -> {args.out}"
    return summary, {"input": str(args.infile) if args.infile else None, "grid": _grid_text(args.grid)}


def _cmd_polarimetry(args, scn: Scenario, open_output) -> tuple[str, dict]:
    f, rows, dop_max = open_output("", ("S0", "S1", "S2", "S3", "DOP")), 0, 0.0
    for projections in _read_blocks(args.infile, 4):
        stokes = extract_stokes(*projections.T)
        dop = degree_of_polarization(stokes)
        _write_rows(f, (*stokes.T, dop))
        rows, dop_max = rows + len(stokes), max(dop_max, dop.max())
    warn_inconsistent(dop_max)   # once, naming the file's largest DOP
    return f"polarimetry: extracted {rows} states to {args.out}", {"input": str(args.infile)}


def _cmd_keyrate(args, scn: Scenario, open_output) -> tuple[str, dict]:
    point = secure_rate(scn.protocol, scn.channel)
    _write_rows(open_output("", RATE_COLUMNS), [[getattr(point, f)] for f in RATE_COLUMNS.values()])
    summary = (f"keyrate: R = {point.rate_per_pulse:.9g}/pulse "
               f"({point.rate_per_second:.9g} bit/s) at {point.loss_db:.9g} dB -> {args.out}")
    return summary, {}


def _cmd_sweep(args, scn: Scenario, open_output) -> tuple[str, dict]:
    grid_spec = args.grid if args.grid is not None else scn.sweep
    f = open_output("", RATE_COLUMNS)
    # the engine hands each block of the curve on to the file as soon as it is computed
    result = sweep_loss(scn.protocol, scn.channel, grid_spec.blocks(_WRITE_ROWS),
                        lambda columns, _: _write_rows(f, [columns[c] for c in RATE_COLUMNS.values()]))
    threshold = ("no positive-rate point" if np.isnan(result.threshold_db) else
                 f"positive-rate threshold {result.threshold_db:.9g} dB")
    if result.threshold_is_grid_edge:
        threshold = f"positive-rate threshold >= {result.threshold_db:.9g} dB (rate positive at the grid's end)"
    summary = f"sweep: {len(grid_spec)} points, {threshold} -> {args.out}"
    extra = {
        "grid": dataclasses.asdict(grid_spec),
        # NaN (no grid point is positive) is not JSON: null stands for it
        "threshold_db": None if np.isnan(result.threshold_db) else result.threshold_db,
        "threshold_is_grid_edge": result.threshold_is_grid_edge,
    }
    return summary, extra


def _null_z(est: RateEstimate, analytic: float) -> float:
    """z-score of an empirical ratio under the analytic value as the null.

    The standard error is the null's sqrt(p(1-p)/n), which stays finite
    when the empirical count is 0.  A null with no spread scores 0 on an
    exact match and +-inf otherwise; an empty denominator scores nan.
    """
    if est.denominator <= 0:
        return float("nan")
    diff = est.value - analytic
    se = float(np.sqrt(analytic * (1.0 - analytic) / est.denominator))
    if se > 0:
        return diff / se
    return float(np.copysign(np.inf, diff)) if diff else 0.0


def _cmd_mc(args, scn: Scenario, open_output) -> tuple[str, dict]:
    seed = args.seed if args.seed is not None else scn.sim.seed
    cfg = SimConfig(n_pulses=scn.sim.n_pulses, seed=seed, protocol=scn.protocol,
                    channel=scn.channel)
    tally = simulate(cfg)
    emp = estimate(tally, cfg)
    ge = gains_and_errors(scn.protocol, scn.channel)
    report_rows = []
    # literal names: a name built per run would stay referenced from the interpreter's type cache
    for name in ("q_mu", "q_nu", "e_mu", "e_nu", "y0"):
        est, analytic = getattr(emp, name), getattr(ge, name)
        report_rows.append((name.capitalize(), est.value, est.stderr, analytic, _null_z(est, analytic)))
    open_output("").write(tally.to_json() + "\n")
    _write_rows(open_output(".report.csv", ("quantity", "empirical", "stderr", "analytic", "z_score")),
                zip(*report_rows))
    summary_flags = f" flags={';'.join(emp.flags)}" if emp.flags else ""
    summary = (f"mc: {cfg.n_pulses} pulses, Q_mu = {emp.q_mu.value:.9g} "
               f"(analytic {ge.q_mu:.9g}) -> {args.out}{summary_flags}")
    return summary, {"seed": seed}


# command -> (handler, help text, the scenario sections it reads).  A handler
# writes each of its files into one that the ``open_output`` of
# ``_write_outputs`` opens, keyed by its suffix on --out ("" for the data
# file), and returns its stdout summary and its sidecar's extra keys; main
# writes the sidecar.
_COMMANDS = {
    "states": (_cmd_states, "BB84 drive-voltage table and output Stokes vectors", ("modulator",)),
    "trace": (_cmd_trace, "Poincare trace under triangular differential drive", ("modulator",)),
    "scan": (_cmd_scan, "synthetic analyzer wavelength scan", ("modulator",)),
    "fitdl": (_cmd_fitdl, "fit the arm-length imbalance from a scan", ("modulator",)),
    "polarimetry": (_cmd_polarimetry, "batch Stokes extraction from projection CSV", ()),
    "keyrate": (_cmd_keyrate, "single secure-rate point", ("protocol", "channel")),
    "sweep": (_cmd_sweep, "secure rate versus channel loss", ("protocol", "channel", "sweep")),
    "mc": (_cmd_mc, "Monte Carlo pulse simulation with analytic comparison",
           ("protocol", "channel", "sim")),
}


def _flag_type(parse, *bound):
    """The argparse type ``parse(text, *bound)``, whose ValueError is the flag's usage error, with its message."""
    def flag_type(text: str):
        try:
            return parse(text, *bound)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return flag_type


def _parse_grid(text: str, unit: str) -> SweepSpec:
    """A start:stop:step grid in ``unit``; a wavelength grid ("nm") must start above 0 m."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:step")
    values = dict(zip(("start_db", "stop_db", "step_db"), map(float, parts)))
    for key, value in values.items():
        _check_value(value, "float", key)
    grid = SweepSpec(**values)
    if unit == "nm" and not grid.start_db * 1e-9 > 0:   # a start of 0 nm, or one that underflows to 0 m
        raise ValueError(f"must start above 0 nm, got {grid.start_db!r}")
    return grid


def _out_path(text: str) -> Path:
    """An --out path; the sidecar and temporary files are named from its last component, so it needs one."""
    if not Path(text).name:   # "", "." and "/" have none
        raise ValueError(f"must name a file, got {text!r}")
    return Path(text)


def _positive_int(text: str) -> int:
    with contextlib.suppress(ValueError):
        if (value := int(text)) >= 1:
            return value
    raise ValueError(f"must be a positive integer, got {text!r}")


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` reports them as one JSON record.

    A subcommand's error passes back through its own and its parent's
    ``parse_known_args``, each calling ``error`` again: prefix the prog once.
    """

    def error(self, message: str):
        if not message.startswith("ipmsim"):
            message = f"{self.prog}: {message}"
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ipmsim",
        description="Modulator and decoy-BB84 key-rate simulations driven by a scenario file.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, sections) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        if sections:
            cmd.add_argument("--scenario", type=Path, help="scenario JSON file")
        cmd.add_argument("--out", type=_flag_type(_out_path), help="output file path",
                         default=Path(f"{name}.csv" if name != "mc" else "mc.json"))
        inputs = cmd.add_mutually_exclusive_group() if name == "fitdl" else cmd   # --in or --grid
        if name in ("sweep", "scan", "fitdl"):
            inputs.add_argument("--grid", type=_flag_type(_parse_grid, "dB" if name == "sweep" else "nm"),
                                help="override grid as start:stop:step (dB for sweep, nm for scan/fitdl)")
        if name in ("fitdl", "polarimetry"):   # polarimetry reads its table; fitdl synthesizes a scan without one
            inputs.add_argument("--in", dest="infile", type=Path, required=name == "polarimetry",
                                help="scan CSV wavelength_nm,intensity (a scan is synthesized when omitted)"
                                if name == "fitdl" else "projection CSV with columns i1,i2,i3,s0")
        if name == "mc":
            cmd.add_argument("--seed", type=_flag_type(lambda text: SimSpec(seed=int(text)).seed),
                             help="override the scenario seed")
            cmd.add_argument("--workers", type=_flag_type(_positive_int), default=1,
                             help="accepted and ignored; the MC runs in one process")
    return parser


def main(argv=None) -> int:
    with warnings.catch_warnings():
        # each distinct warning goes to stderr once, as one JSON record
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, category, *_: print(
            json.dumps({"warning": str(message), "category": category.__name__}), file=sys.stderr)
        try:
            args = build_parser().parse_args(argv)
            scn = load_scenario(getattr(args, "scenario", None))
            handler, _, sections = _COMMANDS[args.command]
            with _write_outputs(args.out) as open_output:
                summary, extra = handler(args, scn, open_output)
                record = {"command": args.command, "parameters": resolved_dict(scn, sections), **extra}
                sidecar = json.dumps(record, indent=2, sort_keys=True, allow_nan=False)
                open_output(".params.json").write(sidecar + "\n")
        except (argparse.ArgumentError, OSError) as exc:
            print(json.dumps({"error": str(exc), "field": None}), file=sys.stderr)
            return 2
        except ValueError as exc:
            # a ScenarioError is malformed input (2); a ParameterError or numerical failure 3
            record = {"error": str(exc), "field": getattr(exc, "field_path", "") or None}
            print(json.dumps(record), file=sys.stderr)
            return 2 if type(exc) is ScenarioError else 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
