"""Assertion helpers, test-only optics and targets, and the CSV writer and reader, fringe fit and Mueller pipeline oracles."""

import itertools
from typing import NamedTuple

import numpy as np

from ipmsim.decoy import RatePoint, SweepResult, _rate_points
from ipmsim.modulator import OUTPUT_STAGE, Bb84State, ModulatorConfig, ScanFit, operating_phi0
from ipmsim.polarimetry import IDEAL_RETARDANCE
from ipmsim.polarization import (
    A_INVERSE,
    A_MATRIX,
    CONSTRUCTION_TOL,
    jones_to_mueller,
    polarizer,
    retarder,
    rotator,
)
from ipmsim.scenario import ScenarioError


def is_unitary(j, tol=CONSTRUCTION_TOL):
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
    Bb84State.H: np.array([1.0, 1.0, 0.0, 0.0]),
    Bb84State.D: np.array([1.0, 0.0, 1.0, 0.0]),
    Bb84State.V: np.array([1.0, -1.0, 0.0, 0.0]),
    Bb84State.A: np.array([1.0, 0.0, -1.0, 0.0]),
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


def sweep_points(result: SweepResult) -> list[RatePoint]:
    """A sweep's rows as the RatePoints ``secure_rate`` gives at each loss."""
    return _rate_points(result.columns, result.flag_codes)


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


# The fringe fit as the package ran it before the centred-wavenumber
# Gauss-Newton; the fit tests compare against it.


def oracle_fit_delta_l(wavelengths, intensities, n_1: float) -> ScanFit:
    """The fringe fit in uncentred wavenumber, with SVD Gauss-Newton steps.

    Its frequency and phase columns are nearly collinear (the phase is
    taken at m = 0, far from the data), so its last digits follow the
    rounding of the data; the tests hold the centred fit to its delta_l
    and to no more than its cost.
    """
    lam = np.asarray(wavelengths, dtype=float)
    y = np.asarray(intensities, dtype=float)
    if lam.ndim != 1 or lam.shape != y.shape or lam.size < 8:
        raise ValueError("scan must be two equal-length 1-d arrays of at least 8 points")
    dlam = np.diff(lam)
    if not (np.all(dlam > 0) or np.all(dlam < 0)):
        raise ValueError("wavelength grid must be monotone")

    m = 1.0 / lam
    order = np.argsort(m)
    m, y = m[order], y[order]
    span = m[-1] - m[0]

    centered = y - y.mean()
    if float(np.sqrt(np.mean(centered**2))) < 1e-6:
        raise ValueError("scan is constant: no oscillation to fit")

    # frequency seed: resample uniformly in m, take the dominant rfft bin
    n_fft = 1 << max(10, int(np.ceil(np.log2(4 * m.size))))
    m_uniform = np.linspace(m[0], m[-1], n_fft)
    spectrum = np.abs(np.fft.rfft(np.interp(m_uniform, m, centered)))
    spectrum[0] = 0.0
    peak = int(np.argmax(spectrum))
    if peak == 0 or spectrum[peak] < 1e-9:
        raise ValueError("scan shows no oscillation")
    # parabolic interpolation around the peak bin
    if 1 <= peak < spectrum.size - 1:
        s_l, s_c, s_r = spectrum[peak - 1 : peak + 2]
        denom = s_l - 2 * s_c + s_r
        shift = 0.5 * (s_l - s_r) / denom if abs(denom) > 0 else 0.0
    else:
        shift = 0.0
    # bin k of the resampled grid (spacing span/(n_fft-1)) sits at
    # k (n_fft-1) / (n_fft span) cycles per unit m
    freq = (peak + shift) * (n_fft - 1) / (n_fft * span)

    periods = freq * span
    if periods < 2.0:
        raise ValueError(
            f"only {periods:.2f} oscillation periods spanned; need at least 2 to identify the frequency"
        )

    # phase/contrast seed by linear least squares at the seeded frequency
    def quadrature_seed(f):
        cw = np.cos(2 * np.pi * f * m)
        sw = np.sin(2 * np.pi * f * m)
        design = np.column_stack([cw, sw])
        coef, *_ = np.linalg.lstsq(design, 2.0 * centered, rcond=None)
        a, b = coef
        return float(np.hypot(a, b)), float(np.arctan2(-b, a))

    contrast, psi = quadrature_seed(freq)
    params = np.array([freq, contrast, psi])

    def residuals(p):
        f, c, ps = p
        return 0.5 * (1.0 + c * np.cos(2 * np.pi * f * m + ps)) - y

    def jacobian(p):
        f, c, ps = p
        arg = 2 * np.pi * f * m + ps
        return np.column_stack(
            [-np.pi * c * m * np.sin(arg), 0.5 * np.cos(arg), -0.5 * c * np.sin(arg)]
        )

    # damped Gauss-Newton on (frequency, contrast, phase); r is the residual at params
    r = residuals(params)
    cost = float(np.sum(r**2))
    for _ in range(60):
        jac = jacobian(params)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        lam_damp = 1.0
        improved = False
        for _ in range(12):
            trial = params + lam_damp * step
            trial_r = residuals(trial)
            trial_cost = float(np.sum(trial_r**2))
            if trial_cost < cost:
                params, r, cost = trial, trial_r, trial_cost
                improved = True
                break
            lam_damp *= 0.5
        if not improved or float(np.abs(lam_damp * step[0])) < 1e-14 * abs(params[0]):
            break

    freq, contrast, psi = params
    if contrast < 0:
        contrast, psi = -contrast, psi + np.pi
    return ScanFit(
        delta_l=float(freq / n_1),
        contrast=float(contrast),
        phase=float(np.mod(psi, 2 * np.pi)),
        residual_rms=float(np.sqrt(np.mean(r**2))),
        periods_spanned=float(freq * span),
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
