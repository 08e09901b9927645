"""Seeded input generator: every scenario, scan and projection file the
benchmark feeds the program is made here.

``stream(seed, workload, index)`` gives the numpy Generator for one round
of one workload, so the workload seed fixes every input of a run, round by
round.  The closed forms below are written out independently of ipmsim,
so the output checks compare the program against a second statement of
the model rather than against itself.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

# criterion 3's scan: 1201 points over 2.4 nm around 1550 nm, 2 % noise
SCAN_START_NM = 1548.8
SCAN_STOP_NM = 1551.2
SCAN_NOISE = 0.02
FIBER_INDEX = 1.468


def stream(seed: int, workload: str, index: int) -> np.random.Generator:
    """Independent random stream for round ``index`` of ``workload``."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


def write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=1) + "\n")
    return path


def write_csv(path: Path, header: str, columns: list[np.ndarray]) -> Path:
    """Header row plus one row per sample, every float at full precision."""
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")
    return path


def latin_hypercube(rng: np.random.Generator, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims, one in each of the n strata of every axis.

    Stratifying keeps each round's mix of cheap (mostly clamped) and
    expensive design points alike, so round times vary with the machine,
    not with the draw.
    """
    strata = np.column_stack([rng.permutation(n) for _ in range(dims)])
    return (strata + rng.random((n, dims))) / n


def rate_scenarios(rng: np.random.Generator, n: int, grid: tuple[float, float, float],
                   with_loss: bool = False) -> list[dict]:
    """Decoy design points: intensities, dark rate, detector efficiency (and loss)."""
    scenarios = []
    for u in latin_hypercube(rng, n, 5):
        mu = 0.4 + 0.4 * u[0]
        scenario = {
            "protocol": {"mu": mu, "nu": mu * (0.1 + 0.4 * u[1])},
            "channel": {"dark_rate": 10.0 ** (1.0 + 3.0 * u[2]),
                        "detector_efficiency": 0.2 + 0.7 * u[3]},
        }
        if with_loss:
            scenario["channel"]["total_loss_db"] = 70.0 * u[4]
        else:
            scenario["sweep"] = {"start_db": grid[0], "stop_db": grid[1], "step_db": grid[2]}
        scenarios.append(scenario)
    return scenarios


def arm_imbalances(rng: np.random.Generator, n: int) -> np.ndarray:
    """True delta_l values in m, stratified over 4-10 mm (4.4-11 fringes per scan)."""
    return 4e-3 + 6e-3 * latin_hypercube(rng, n, 1)[:, 0]


def noisy_scan(rng: np.random.Generator, delta_l: float, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(wavelengths in nm, intensities) of a fringe scan.

    I = 0.5 (1 + cos(2 pi n_1 delta_l / lambda)) plus uniform noise of
    +-2 %, the polarizer-at-0 analyzer scan that ``fitdl`` inverts.
    """
    lam_nm = np.linspace(SCAN_START_NM, SCAN_STOP_NM, n_points)
    clean = 0.5 * (1.0 + np.cos(2.0 * np.pi * FIBER_INDEX * delta_l / (lam_nm * 1e-9)))
    return lam_nm, clean + rng.uniform(-SCAN_NOISE, SCAN_NOISE, n_points)


def projections(rng: np.random.Generator, n_rows: int) -> list[np.ndarray]:
    """Columns i1, i2, i3, s0 of ideal projections of random physical states.

    At the ideal S1+/S2+/S3+ settings each projection is I_j = (S0 + S_j)/2;
    every state has DOP <= 1, so no row trips the inconsistency warning.
    """
    direction = rng.normal(size=(n_rows, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    s0 = rng.uniform(0.3, 2.5, n_rows)
    s = direction * (s0 * rng.uniform(0.0, 1.0, n_rows))[:, None]
    intensities = 0.5 * (s0[:, None] + s)
    return [intensities[:, 0], intensities[:, 1], intensities[:, 2], s0]


def modulator_section(rng: np.random.Generator) -> dict:
    """A modulator with a nonzero splitter offset and its own half-wave voltage."""
    return {"delta": rng.uniform(-0.2, 0.2), "v_pi_pm": rng.uniform(3.0, 5.0)}


def mueller_draws(rng: np.random.Generator, n: int) -> list[tuple[float, float, float, float]]:
    """(delta, phi0_operating, v1, v2) draws as in acceptance criterion 1."""
    return [
        (rng.uniform(-0.2, 0.2), rng.uniform(0.0, 2.0 * np.pi), *rng.uniform(-8.0, 8.0, 2))
        for _ in range(n)
    ]
