"""Scenario-driven command line front end.

Every command reads one scenario file (all sections optional), writes its
results to files, prints a one-line summary to stdout, and exits 0.  On
failure an error record is printed to stderr as a single JSON line and the
exit status is 2 for a usage error or a malformed scenario or 3 for a
numerical/parameter failure (the record names the offending field).

Output conventions: CSV with a mandatory header row, comma separator,
'.' decimal point, and every float rendered with 9 significant digits, so
identical scenario + seed produces byte-identical files.  Each command
also writes a ``<out>.params.json`` sidecar with the fully resolved
parameter set for provenance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .decoy import RatePoint, secure_rate, sweep_loss
from .modulator import bb84_table, fit_delta_l, poincare_trace, wavelength_scan
from .montecarlo import PULSE_CLASSES, STATES, RateEstimate, SimConfig, estimate, simulate
from .polarimetry import extract_stokes, measure_stokes
from .polarization import degree_of_polarization
from .scenario import (
    ParameterError,
    Scenario,
    ScenarioError,
    SweepSpec,
    load_scenario,
    resolved_dict,
)

RATE_COLUMNS = (
    "loss_db",
    "Q_mu",
    "Q_nu",
    "E_mu",
    "Y0",
    "Q1L",
    "e1U",
    "qber",
    "R_per_pulse",
    "R_per_s",
)


def _fmt(value) -> str:
    """Fixed 9-significant-digit rendering for floats; ints and text pass through."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_sidecar(out: Path, command: str, scn: Scenario, extra: dict | None = None) -> None:
    record = {"command": command, "parameters": resolved_dict(scn)}
    if extra:
        record.update(extra)
    sidecar = out.with_name(out.name + ".params.json")
    sidecar.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _rate_row(pt: RatePoint) -> tuple:
    return (
        pt.loss_db,
        pt.q_mu,
        pt.q_nu,
        pt.e_mu,
        pt.y0,
        pt.q1_lower,
        pt.e1_upper,
        pt.qber,
        pt.rate_per_pulse,
        pt.rate_per_second,
    )


def _scan_wavelengths(scn: Scenario, grid: SweepSpec | None):
    """Wavelength grid in meters; --grid (in nm) overrides the default span."""
    if grid is not None:
        return np.array(grid.grid()) * 1e-9
    # default: 1201 points, +-1.2 nm around the operating wavelength
    start_nm = scn.modulator.wavelength * 1e9 - 1.2
    return (start_nm + np.arange(1201) * 0.002) * 1e-9


def _cmd_states(args, scn: Scenario) -> str:
    # S1..S3 are the ideal outputs; S*_meas is what the polarimeter recovers
    # through the configured (possibly imperfect) waveplate retardance
    rows = []
    for state, drive, stokes in bb84_table(scn.modulator):
        measured = measure_stokes(stokes, retardance=scn.modulator.qwp_retardance)
        rows.append((state.value, drive.v0, drive.v1, drive.v2, *stokes, *measured[1:]))
    _write_csv(
        args.out,
        ("state", "v0", "v1", "v2", "S0", "S1", "S2", "S3",
         "S1_meas", "S2_meas", "S3_meas"),
        rows,
    )
    _write_sidecar(args.out, "states", scn)
    return f"states: wrote 4 drive settings to {args.out}"


def _cmd_trace(args, scn: Scenario) -> str:
    t, v1, v2, stokes = poincare_trace(scn.modulator)
    rows = [
        (t[i], v1[i], v2[i], stokes[i, 0], stokes[i, 1], stokes[i, 2], stokes[i, 3])
        for i in range(len(t))
    ]
    _write_csv(args.out, ("t", "v1", "v2", "S0", "S1", "S2", "S3"), rows)
    _write_sidecar(args.out, "trace", scn)
    return f"trace: wrote {len(rows)} samples to {args.out}"


def _cmd_scan(args, scn: Scenario) -> str:
    lam = _scan_wavelengths(scn, args.grid)
    intensities = wavelength_scan(scn.modulator, polarizer_angle=0.0, wavelengths=lam)
    rows = list(zip(lam * 1e9, intensities))
    _write_csv(args.out, ("wavelength_nm", "intensity"), rows)
    _write_sidecar(args.out, "scan", scn, {"polarizer_angle": 0.0})
    return f"scan: wrote {len(rows)} points to {args.out}"


def _read_csv(path: Path, expected_columns: int) -> list[list[float]]:
    lines = path.read_text().strip().splitlines()
    if len(lines) < 2:
        raise ScenarioError(f"input file {path} has no data rows")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != expected_columns:
            raise ScenarioError(
                f"{path}:{lineno}: expected {expected_columns} columns, got {len(parts)}"
            )
        try:
            rows.append([float(x) for x in parts])
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: {exc}") from exc
    return rows


def _cmd_fitdl(args, scn: Scenario) -> str:
    if args.infile is not None:
        data = np.array(_read_csv(args.infile, 2))
        lam, intensity = data[:, 0] * 1e-9, data[:, 1]
    else:
        lam = _scan_wavelengths(scn, args.grid)
        intensity = wavelength_scan(scn.modulator, polarizer_angle=0.0, wavelengths=lam)
    fit = fit_delta_l(lam, intensity, scn.modulator.n_1)
    _write_csv(
        args.out,
        ("delta_l_m", "contrast", "phase_rad", "residual_rms", "periods_spanned"),
        [(fit.delta_l, fit.contrast, fit.phase, fit.residual_rms, fit.periods_spanned)],
    )
    _write_sidecar(args.out, "fitdl", scn, {"input": str(args.infile) if args.infile else None})
    return f"fitdl: delta_l = {_fmt(fit.delta_l)} m (residual rms {_fmt(fit.residual_rms)}) -> {args.out}"


def _cmd_polarimetry(args, scn: Scenario) -> str:
    if args.infile is None:
        raise ScenarioError("polarimetry requires --in CSV with columns i1,i2,i3,s0")
    stokes = extract_stokes(*np.array(_read_csv(args.infile, 4)).T)
    rows_out = np.column_stack([stokes, degree_of_polarization(stokes)]).tolist()
    _write_csv(args.out, ("S0", "S1", "S2", "S3", "DOP"), rows_out)
    _write_sidecar(args.out, "polarimetry", scn, {"input": str(args.infile)})
    return f"polarimetry: extracted {len(rows_out)} states to {args.out}"


def _cmd_keyrate(args, scn: Scenario) -> str:
    point = secure_rate(scn.protocol, scn.channel)
    _write_csv(args.out, RATE_COLUMNS, [_rate_row(point)])
    _write_sidecar(args.out, "keyrate", scn)
    return (
        f"keyrate: R = {_fmt(point.rate_per_pulse)}/pulse "
        f"({_fmt(point.rate_per_second)} bit/s) at {_fmt(point.loss_db)} dB -> {args.out}"
    )


def _cmd_sweep(args, scn: Scenario) -> str:
    grid_spec = args.grid if args.grid is not None else scn.sweep
    result = sweep_loss(scn.protocol, scn.channel, grid_spec.grid())
    _write_csv(args.out, RATE_COLUMNS, [_rate_row(pt) for pt in result.points])
    _write_sidecar(
        args.out,
        "sweep",
        scn,
        {
            "grid": dataclasses.asdict(grid_spec),
            "threshold_db": result.threshold_db,
            "threshold_is_grid_edge": result.threshold_is_grid_edge,
        },
    )
    return (
        f"sweep: {len(result.points)} points, positive-rate threshold "
        f"{_fmt(result.threshold_db)} dB -> {args.out}"
    )


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


def _cmd_mc(args, scn: Scenario) -> str:
    seed = args.seed if args.seed is not None else scn.sim.seed
    cfg = SimConfig(
        n_pulses=scn.sim.n_pulses,
        seed=seed,
        protocol=scn.protocol,
        channel=scn.channel,
        chunk_pulses=scn.sim.chunk_pulses,
    )

    def progress(done: int, total: int) -> None:
        print(f"mc: {done}/{total} pulses", file=sys.stderr)

    tally = simulate(cfg, workers=args.workers, progress=progress)
    emp = estimate(tally, cfg)

    args.out.write_text(tally.to_json() + "\n")
    flat = args.out.with_name(args.out.name + ".csv")
    rows = []
    for ci, cls_name in enumerate(PULSE_CLASSES):
        for si, state in enumerate(STATES):
            rows.append(
                (
                    cls_name,
                    state,
                    tally.sent[ci, si],
                    tally.detected[ci, si],
                    tally.sifted[ci, si],
                    tally.errors[ci, si],
                )
            )
    _write_csv(flat, ("class", "state", "sent", "detected", "sifted", "errors"), rows)

    from .decoy import gains_and_errors

    ge = gains_and_errors(scn.protocol, scn.channel)
    report = args.out.with_name(args.out.name + ".report.csv")
    comparisons = (
        ("Q_mu", emp.q_mu, ge.q_mu),
        ("Q_nu", emp.q_nu, ge.q_nu),
        ("E_mu", emp.e_mu, ge.e_mu),
        ("E_nu", emp.e_nu, ge.e_nu),
        ("Y0", emp.y0, ge.y0),
    )
    report_rows = []
    for name, est, analytic in comparisons:
        report_rows.append((name, est.value, est.stderr, analytic, _null_z(est, analytic)))
    _write_csv(report, ("quantity", "empirical", "stderr", "analytic", "z_score"), report_rows)
    _write_sidecar(args.out, "mc", scn, {"seed": seed})
    summary_flags = f" flags={';'.join(emp.flags)}" if emp.flags else ""
    return (
        f"mc: {cfg.n_pulses} pulses, Q_mu = {_fmt(emp.q_mu.value)} "
        f"(analytic {_fmt(ge.q_mu)}) -> {args.out}{summary_flags}"
    )


_COMMANDS = {
    "states": (_cmd_states, "BB84 drive-voltage table and output Stokes vectors"),
    "trace": (_cmd_trace, "Poincare trace under triangular differential drive"),
    "scan": (_cmd_scan, "synthetic analyzer wavelength scan"),
    "fitdl": (_cmd_fitdl, "fit the arm-length imbalance from a scan"),
    "polarimetry": (_cmd_polarimetry, "batch Stokes extraction from projection CSV"),
    "keyrate": (_cmd_keyrate, "single secure-rate point"),
    "sweep": (_cmd_sweep, "secure rate versus channel loss"),
    "mc": (_cmd_mc, "Monte Carlo pulse simulation with analytic comparison"),
}


def _parse_grid(text: str) -> SweepSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be start:stop:step")
    try:
        start, stop, step = (float(x) for x in parts)
        return SweepSpec(start_db=start, stop_db=stop, step_db=step)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` reports them as one JSON record."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ipmsim",
        description="Modulator and decoy-BB84 key-rate simulations driven by a scenario file.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", type=Path, default=None, help="scenario JSON file")
        cmd.add_argument(
            "--out", type=Path, default=Path(f"{name}.csv" if name != "mc" else "mc.json"),
            help="output file path",
        )
        if name in ("sweep", "scan", "fitdl"):
            cmd.add_argument(
                "--grid",
                type=_parse_grid,
                default=None,
                help="override grid as start:stop:step (dB for sweep, nm for scan/fitdl)",
            )
        if name in ("fitdl", "polarimetry"):
            cmd.add_argument("--in", dest="infile", type=Path, default=None,
                             help="input CSV (fitdl synthesizes a scan when omitted)")
        if name == "mc":
            cmd.add_argument("--seed", type=int, default=None, help="override the scenario seed")
            cmd.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        scn = load_scenario(args.scenario)
        summary = _COMMANDS[args.command][0](args, scn)
    except argparse.ArgumentError as exc:
        print(json.dumps({"error": str(exc), "field": None}), file=sys.stderr)
        return 2
    except ParameterError as exc:
        record = {"error": str(exc), "field": exc.field_path or None}
        print(json.dumps(record), file=sys.stderr)
        return 3
    except ScenarioError as exc:
        record = {"error": str(exc), "field": exc.field_path or None}
        print(json.dumps(record), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "field": None}), file=sys.stderr)
        return 3
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
