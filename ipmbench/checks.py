"""Output checks, written against ipmsim's public API only.

Each check reads the files a command wrote and returns a list of failure
messages (empty when the output is right).  Checks also append what they
learn to a ``Stats`` record, from which the per-layer ratios are computed.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ipmsim.decoy import gains_and_errors, secure_rate
from ipmsim.montecarlo import PulseTally, SimConfig, estimate
from ipmsim.scenario import load_scenario

# |z| > Z_BOUND has probability below 2 exp(-Z_BOUND^2 / 2) = 2.6e-9 for any
# binomial count (Chernoff bound on the deviance z below), so chance alone
# almost never breaks it, summed over every estimate of every run.
Z_BOUND = 6.4
FIT_REL_TOL = 0.01          # acceptance criterion 3 at 2 % scan noise
MUELLER_TOL = 1e-9          # acceptance criterion 1
UNIT_TOL = 1e-8             # S0 = 1 and DOP = 1 at the CSV's 9 digits
CSV_RTOL = 1e-8             # a value printed with 9 significant digits
RATE_SAMPLE_ROWS = 20
MC_QUANTITIES = ("q_mu", "q_nu", "e_mu", "e_nu", "y0")


@dataclass
class Stats:
    """What the checks saw, summed over every output of a run."""

    pulses: int = 0
    detected: int = 0
    sifted: int = 0
    dark_only: int = 0
    double_click: int = 0
    low_statistics_flags: int = 0
    z_scores: list[float] = field(default_factory=list)
    rate_rows: int = 0
    rate_rows_clamped: int = 0
    fit_rel_errors: list[float] = field(default_factory=list)


def fmt(value: float) -> str:
    """The CLI's float rendering: 9 significant digits."""
    return f"{float(value):.9g}"


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def binomial_z(k: int, n: int, p: float) -> float:
    """Signed root of the binomial deviance, sign(k - np) sqrt(2 n KL(k/n || p)).

    Close to the usual z-score for large counts, and by the Chernoff bound
    P(|z| >= t) <= 2 exp(-t^2 / 2) for every n and p, including counts of
    zero or one where a Gaussian z-score is meaningless.
    """
    if n == 0:
        return 0.0
    x = k / n
    if not 0.0 < p < 1.0:
        return 0.0 if x == p else math.inf

    def plogp(a: float, b: float) -> float:
        return a * math.log(a / b) if a > 0 else 0.0

    kl = plogp(x, p) + plogp(1.0 - x, 1.0 - p)
    return math.copysign(math.sqrt(max(2.0 * n * kl, 0.0)), x - p)


def check_mc(out: Path, scenario: Path, n_pulses: int, stats: Stats) -> list[str]:
    """Tally invariants, and every well-sampled estimate against the analytic engine."""
    tally = PulseTally.from_dict(json.loads(out.read_text()))
    failures = []
    if int(tally.sent.sum()) != n_pulses:
        failures.append(f"tally sends {int(tally.sent.sum())} pulses, not {n_pulses}")
    for low, high in (("errors", "sifted"), ("sifted", "detected"), ("detected", "sent")):
        if np.any(getattr(tally, low) > getattr(tally, high)):
            failures.append(f"tally has {low} > {high}")
    total_detected = int(tally.detected.sum())
    for name in ("dark_only", "double_click"):
        if not 0 <= getattr(tally, name) <= total_detected:
            failures.append(f"tally {name} outside [0, detected]")
    if np.any(tally.sent < 0):
        failures.append("tally has negative counts")

    scn = load_scenario(scenario)
    cfg = SimConfig(n_pulses=n_pulses, seed=0, protocol=scn.protocol, channel=scn.channel)
    emp = estimate(tally, cfg)
    analytic = gains_and_errors(scn.protocol, scn.channel)
    flagged = {flag.split(":", 1)[1] for flag in emp.flags}
    for name in MC_QUANTITIES:
        if name in flagged:
            continue
        est = getattr(emp, name)
        z = binomial_z(est.numerator, est.denominator, getattr(analytic, name))
        stats.z_scores.append(z)
        if abs(z) > Z_BOUND:
            failures.append(f"{name} = {est.value:.6g} is {z:+.2f} sigma from {getattr(analytic, name):.6g}")

    _, report = read_csv(out.with_name(out.name + ".report.csv"))
    for row, name in zip(report, MC_QUANTITIES):
        if row[3] != fmt(getattr(analytic, name)):
            failures.append(f"report analytic {row[0]} = {row[3]}, expected {fmt(getattr(analytic, name))}")

    stats.pulses += n_pulses
    stats.detected += total_detected
    stats.sifted += int(tally.sifted.sum())
    stats.dark_only += tally.dark_only
    stats.double_click += tally.double_click
    stats.low_statistics_flags += len(emp.flags)
    return failures


def _rate_row(pt) -> list[str]:
    return [fmt(v) for v in (pt.loss_db, pt.q_mu, pt.q_nu, pt.e_mu, pt.y0, pt.q1_lower,
                             pt.e1_upper, pt.qber, pt.rate_per_pulse, pt.rate_per_second)]


def check_sweep(out: Path, scenario: Path, rng: np.random.Generator, stats: Stats) -> list[str]:
    """Sampled rows equal secure_rate, R never rises with loss, threshold brackets."""
    scn = load_scenario(scenario)
    grid = scn.sweep.grid()
    _, rows = read_csv(out)
    if len(rows) != len(grid):
        return [f"sweep wrote {len(rows)} rows for a {len(grid)}-point grid"]
    failures = []
    for i in rng.choice(len(grid), size=min(RATE_SAMPLE_ROWS, len(grid)), replace=False):
        ch = dataclasses.replace(scn.channel, total_loss_db=grid[i])
        expected = _rate_row(secure_rate(scn.protocol, ch))
        if rows[i] != expected:
            failures.append(f"sweep row {i} is {rows[i]}, secure_rate gives {expected}")
    rate = np.array([float(row[8]) for row in rows])
    if np.any(np.diff(rate) > 0):
        failures.append("R_per_pulse rises with loss")

    sidecar = json.loads(out.with_name(out.name + ".params.json").read_text())
    threshold = sidecar["threshold_db"]
    positive = np.flatnonzero(rate > 0)
    if positive.size == 0:
        if not math.isnan(threshold):
            failures.append(f"threshold {threshold} with no positive row")
    elif positive[-1] == len(grid) - 1:
        if not sidecar["threshold_is_grid_edge"]:
            failures.append("rate positive at the grid end but threshold not flagged as edge")
    elif not grid[positive[-1]] <= threshold <= grid[positive[-1] + 1]:
        failures.append(
            f"threshold {threshold} outside [{grid[positive[-1]]}, {grid[positive[-1] + 1]}]"
        )
    stats.rate_rows += len(rows)
    stats.rate_rows_clamped += int(np.sum(rate == 0))
    return failures


def check_keyrate(out: Path, scenario: Path, stats: Stats) -> list[str]:
    scn = load_scenario(scenario)
    _, rows = read_csv(out)
    expected = _rate_row(secure_rate(scn.protocol, scn.channel))
    stats.rate_rows += 1
    stats.rate_rows_clamped += int(float(expected[8]) == 0)
    return [] if rows == [expected] else [f"keyrate row {rows}, secure_rate gives {expected}"]


def check_fitdl(out: Path, true_delta_l: float, stats: Stats) -> list[str]:
    _, rows = read_csv(out)
    error = abs(float(rows[0][0]) - true_delta_l) / true_delta_l
    stats.fit_rel_errors.append(error)
    if error > FIT_REL_TOL:
        return [f"fitted delta_l {rows[0][0]} is {error:.2%} from {true_delta_l:.6g}"]
    return []


def check_polarimetry(out: Path, infile: Path) -> list[str]:
    """Every output row is S0, 2 I_j - S0 and its DOP, at the CSV's precision."""
    i1, i2, i3, s0 = np.loadtxt(infile, delimiter=",", skiprows=1, ndmin=2).T
    stokes = np.column_stack([s0, 2 * i1 - s0, 2 * i2 - s0, 2 * i3 - s0])
    dop = np.sqrt(np.sum(stokes[:, 1:] ** 2, axis=1)) / s0
    expected = np.column_stack([stokes, dop])
    got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    if got.shape != expected.shape:
        return [f"polarimetry wrote {got.shape}, expected {expected.shape}"]
    bad = np.abs(got - expected) > CSV_RTOL * np.abs(expected)
    if np.any(bad):
        row = int(np.argwhere(bad)[0][0])
        return [f"polarimetry row {row} is {got[row]}, expected {expected[row]}"]
    return []


def check_unit_stokes(out: Path, n_rows: int, s_columns: slice) -> list[str]:
    """The documented states/trace contract: row count, S0 = 1 and DOP = 1.

    The states table's S1/S2 values at nonzero delta are a known defect of
    the receiver-frame relabelling and are not judged here.
    """
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2,
                      converters={0: lambda text: 0.0})
    if data.shape[0] != n_rows:
        return [f"{out.name} has {data.shape[0]} rows, expected {n_rows}"]
    stokes = data[:, s_columns]
    dop = np.sqrt(np.sum(stokes[:, 1:4] ** 2, axis=1))
    if np.max(np.abs(stokes[:, 0] - 1.0)) > UNIT_TOL or np.max(np.abs(dop - 1.0)) > UNIT_TOL:
        return [f"{out.name} has a row with S0 or DOP away from 1"]
    return []


def check_mueller(composed: np.ndarray, closed: np.ndarray) -> list[str]:
    """Element-pipeline output equals the closed form, as in criterion 1."""
    worst = float(np.max(np.abs(composed - closed)))
    if worst >= MUELLER_TOL:
        return [f"element pipeline deviates from output_stokes by {worst:.3e}"]
    return []
