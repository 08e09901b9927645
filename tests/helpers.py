"""Assertion helpers, test-only optics and targets, and the CSV writer and reader, fringe fit and Mueller pipeline oracles."""

import itertools
from typing import NamedTuple

import numpy as np
from scipy.optimize import least_squares

from ipmsim.cli import _WRITE_ROWS
from ipmsim.decoy import RatePoint, SweepResult, _rate_points, sweep_loss
from ipmsim.modulator import OUTPUT_STAGE, ModulatorConfig, ScanFit, operating_phi0
from ipmsim.polarimetry import IDEAL_RETARDANCE
from ipmsim.polarization import (
    A_INVERSE,
    A_MATRIX,
    jones_to_mueller,
    polarizer,
    retarder,
    rotator,
)
from ipmsim.scenario import ScenarioError

#: Closed-form element identities hold to 1e-12.
ELEMENT_TOL = 1e-12


def bitwise_equal(a, b) -> bool:
    """Same shape, dtype and bytes: signed zeros count."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def is_unitary(j, tol=ELEMENT_TOL):
    """True if J is unitary to within ``tol`` (lossless element check)."""
    j = np.asarray(j, dtype=complex)
    return bool(np.abs(j.conj().T @ j - np.eye(2)).max() <= tol)


def kron_jones_to_mueller(j) -> np.ndarray:
    """One 2x2 Jones matrix to Mueller through np.kron: the reference for the outer-product form."""
    return np.ascontiguousarray((A_MATRIX @ np.kron(j, np.conj(j)) @ A_INVERSE).real)


def stokes_from_jones(e: np.ndarray) -> np.ndarray:
    """Stokes vector of a fully polarized Jones field amplitude."""
    ex, ey = complex(e[0]), complex(e[1])
    cross = ex * ey.conjugate()
    return np.array(
        [
            abs(ex) ** 2 + abs(ey) ** 2,
            abs(ex) ** 2 - abs(ey) ** 2,
            2.0 * cross.real,
            -2.0 * cross.imag,
        ]
    )


#: Receiver-frame Stokes targets for the four BB84 states.
BB84_TARGET_STOKES = {
    "H": np.array([1.0, 1.0, 0.0, 0.0]),
    "D": np.array([1.0, 0.0, 1.0, 0.0]),
    "V": np.array([1.0, -1.0, 0.0, 0.0]),
    "A": np.array([1.0, 0.0, -1.0, 0.0]),
}


class Setting(NamedTuple):
    """One polarimeter setting: polarizer angle, waveplate angle, retardance."""

    polarizer_angle: float
    qwp_angle: float
    retardance: float = IDEAL_RETARDANCE
    label: str = ""


# (polarizer, waveplate) angles of the standard settings, as the
# polarimetry module documents them
STANDARD_ANGLES = {"S1+": (0.0, 0.0), "S2+": (np.pi / 4, np.pi / 4), "S3+": (np.pi / 4, 0.0)}


def standard_settings(retardance: float = IDEAL_RETARDANCE):
    """The three S1+/S2+/S3+ settings at the given waveplate retardance."""
    return tuple(Setting(*angles, retardance, label) for label, angles in STANDARD_ANGLES.items())


def projected_intensity(s, meas: Setting) -> float:
    """Intensity behind the waveplate + polarizer for Stokes input ``s``."""
    analyzer = jones_to_mueller(polarizer(meas.polarizer_angle) @ retarder(meas.qwp_angle, meas.retardance))
    return float(analyzer[0] @ np.asarray(s, dtype=float))


# The row-wise CSV writer the CLI used before it wrote columns; the tests
# hold the columnar writer to these bytes.


def _fmt(value) -> str:
    """Fixed 9-significant-digit rendering for floats; ints and text pass through."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def sweep_points(p, ch, grid) -> tuple[list[RatePoint], SweepResult]:
    """A sweep in the CLI's blocks: its rows as the RatePoints ``secure_rate`` gives at each loss, and its result.

    The rows are collected through ``sweep_loss``'s per-block consumer.
    """
    grid = np.asarray(grid, dtype=float)
    points = []
    result = sweep_loss(p, ch, (grid[i : i + _WRITE_ROWS] for i in range(0, grid.size, _WRITE_ROWS)),
                        lambda columns, codes: points.extend(_rate_points(columns, codes)))
    return points, result


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


# The CSV reader the CLI used before numpy's C reader parsed its tables; the
# tests hold the reader to its values and messages.  It numbers lines from
# the header, not from the top of the file.


def oracle_read_csv(path, expected_columns: int) -> np.ndarray:
    """The data rows below the header as a (rows, expected_columns) float array."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"input file {path} is not UTF-8: {exc}") from exc
    lines = text.strip().splitlines()[1:]
    if not lines:
        raise ScenarioError(f"input file {path} has no data rows")
    # one pass: count each line's separators, then stream every cell through float()
    try:
        if {line.count(",") for line in lines} == {expected_columns - 1}:
            cells = itertools.chain.from_iterable(line.split(",") for line in lines)
            values = np.fromiter(map(float, cells), float, len(lines) * expected_columns)
            return values.reshape(len(lines), expected_columns)
    except ValueError:
        pass
    # the one-pass parse failed: name the first offending line
    for lineno, parts in enumerate((line.split(",") for line in lines), start=2):
        if len(parts) != expected_columns:
            raise ScenarioError(
                f"{path}:{lineno}: expected {expected_columns} columns, got {len(parts)}"
            )
        try:
            [float(x) for x in parts]
        except ValueError as exc:
            raise ScenarioError(f"{path}:{lineno}: {exc}") from exc
    raise AssertionError(f"{path}: no offending line found")


# The fringe fit as scipy makes it, seeded without the package's code; the
# fit tests compare against it.


def scipy_fit_delta_l(wavelengths, intensities, n_1: float) -> ScanFit:
    """The four-parameter fringe fit c0 + c1 cos(w u) + c2 sin(w u) by scipy's least_squares.

    u = (m - m_c) / h is the centred wavenumber, as in the package.  The seed
    is the peak of a 16-fold zero-padded periodogram of the scan resampled
    at 4096 points in u, with its linear coefficients at that w; from there
    Levenberg-Marquardt, with the analytic Jacobian, refines all four.
    """
    m = 1.0 / np.asarray(wavelengths, dtype=float)
    y = np.asarray(intensities, dtype=float)
    m_c, h = 0.5 * (m.max() + m.min()), 0.5 * (m.max() - m.min())
    u = (m - m_c) / h
    order = np.argsort(u)
    grid = np.linspace(-1.0, 1.0, 4096)
    spectrum = np.abs(np.fft.rfft(np.interp(grid, u[order], y[order] - y.mean()), 16 * grid.size))
    spectrum[0] = 0.0
    # bin k of the padded transform is k / (16 * 4096) cycles per grid step of 2 / 4095
    w = 2 * np.pi * int(np.argmax(spectrum)) * (grid.size - 1) / (2 * 16 * grid.size)

    def basis(w):
        return np.column_stack([np.ones_like(u), np.cos(w * u), np.sin(w * u)])

    def jacobian(p):
        cos, sin = np.cos(p[0] * u), np.sin(p[0] * u)
        return np.column_stack([u * (p[3] * cos - p[2] * sin), np.ones_like(u), cos, sin])

    start = [w, *np.linalg.lstsq(basis(w), y, rcond=None)[0]]
    fit = least_squares(lambda p: basis(p[0]) @ p[1:] - y, start, jac=jacobian, method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    w, c0, c1, c2 = fit.x
    freq = w / (2 * np.pi * h)
    return ScanFit(
        delta_l=float(freq / n_1),
        contrast=float(np.hypot(c1, c2) / c0),
        phase=float(np.mod(np.arctan2(-c2, c1) - w * m_c / h, 2 * np.pi)),
        residual_rms=float(np.sqrt(2 * fit.cost / m.size)),
        periods_spanned=float(2 * freq * h),
    )


# The modulator pipeline as the package ran it before it composed closed-form
# Mueller elements: the Jones route, converted by ``jones_to_mueller``.


def mzi_jones(v1: float, v2: float, cfg: ModulatorConfig) -> np.ndarray:
    """Diagonal MZI Jones matrix diag(e^{j(v1 pi/V_pi + phi0)}, e^{j v2 pi/V_pi})."""
    p0 = operating_phi0(cfg)
    return np.array(
        [
            [np.exp(1j * (v1 * np.pi / cfg.v_pi_pm + p0)), 0.0],
            [0.0, np.exp(1j * v2 * np.pi / cfg.v_pi_pm)],
        ]
    )


_OUTPUT_MUELLER = jones_to_mueller(OUTPUT_STAGE)


def oracle_modulator_mueller(v1: float, v2: float, cfg: ModulatorConfig) -> np.ndarray:
    """OUTPUT_STAGE . MZI(v1, v2) . rotator(pi/4 + delta), each Jones product converted to Mueller."""
    return _OUTPUT_MUELLER @ jones_to_mueller(mzi_jones(v1, v2, cfg) @ rotator(np.pi / 4 + cfg.delta))
