"""Balanced-MZI polarization modulator model.

The polarization modulator is a 45 deg splitter (with a small offset
``delta``), two phase modulator arms driven by voltages v1/v2, a
combiner, and a fixed output stage.  The source's intensity modulator is
not modelled: the decoy intensities are ``protocol.mu`` and ``nu``.
The splitter and the arms are the variable elements; the output
stage, ``OUTPUT_STAGE``, is a quarter-wave retarder at -45 deg, which
brings the modulation from the circular-diagonal plane onto the linear
plane of the Poincare sphere, followed by a rotator(-pi/4) output frame
alignment.  The element pipeline ``modulator_mueller`` composes the MZI
retarder and the splitter rotation, closed-form Mueller elements, with
the output stage's Mueller matrix, converted once at import; it agrees
with the modulator-frame closed form ``output_stokes`` to machine precision:

    S = (1, cos(T) cos(2d), sin(T) cos(2d), sin(2d)),
    T = (v1 - v2) pi / v_pi_pm + phi0.

The receiver sees this output through ``RECEIVER_FRAME``, a half-wave
plate at 22.5 deg (physically the output fiber polarization controller
setting that aligns the modulator frame with the receiver frame).  It
swaps S1 and S2 and negates S3; the BB84 drive table and its H/D/V/A
targets are stated in the receiver frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BoundError, check_bounds
from .polarimetry import DEFAULT_QWP_RETARDANCE
from .polarization import jones_to_mueller, retarder, rotator


@dataclass(frozen=True)
class ModulatorConfig:
    """Physical parameters of the polarization modulator and its receiver waveplate.

    ``phi0_operating`` pins the zero-voltage MZI phase at the tuned
    operating point (the laser wavelength is adjusted in practice until
    phi0 = pi/4, which minimizes drive voltages); set it to None to derive
    phi0 from the geometry (n_1, delta_l, wavelength) instead.
    Temperature drift enters as ``temp_coeff * temp_delta`` added to the
    operating phase.  ``v_pi_pm`` and ``|delta|`` are capped at 1e307 so
    that the drive swing (v1 - v2) pi and the splitter rotation 2 delta stay
    finite, and ``wavelength`` lies in (1.2 nm, 0.1 mm] so that the CLI's
    default +-1.2 nm scan stays above 0 nm and prints 1201 distinct
    wavelengths.  A rule across fields raises a ``BoundError`` naming
    ``phi0_operating``: the operating phase, drift included, must be finite.
    """

    v_pi_pm: float = field(default=4.0, metadata={"gt": 0, "le": 1e307})   # PM half-wave voltage [V]
    delta: float = field(default=0.0, metadata={"ge": -1e307, "le": 1e307})   # splitter rotation offset [rad]
    delta_l: float = field(default=6.0e-3, metadata={"ge": 0})   # MZI arm length imbalance [m]
    n_1: float = field(default=1.468, metadata={"gt": 1})        # effective fiber index
    wavelength: float = field(default=1550e-9, metadata={"gt": 1.2e-9, "le": 1e-4})   # operating wavelength [m]
    qwp_retardance: float = DEFAULT_QWP_RETARDANCE  # receiver QWP actual retardance
    phi0_operating: float | None = np.pi / 4
    temp_coeff: float = 0.0       # d(phi0)/dT [rad/K]
    temp_delta: float = 0.0       # T - T0 [K]

    def __post_init__(self) -> None:
        check_bounds(self)
        with np.errstate(over="ignore", invalid="ignore"):
            phase = operating_phi0(self)
        if not math.isfinite(phase):
            raise BoundError("phi0_operating", "must give a finite operating phase phi0 + temp_coeff temp_delta "
                                               f"(a null phi0 is 2 pi n_1 delta_l / wavelength), got {phase}")


#: MZI arm voltages (v1, v2) per BB84 state, in units of v_pi_pm, one row
#: per state in ``montecarlo.STATES`` order (H, D, V, A).  Settings are
#: symmetric around zero volts (v1 + v2 = 0, no DC bias).
BB84_DRIVE_FRACTIONS = np.array([[1 / 8, -1 / 8], [-1 / 8, 1 / 8], [-3 / 8, 3 / 8], [3 / 8, -3 / 8]])

#: Jones matrix of the fixed output stage: a quarter-wave retarder at
#: -45 deg, then a rotator(-pi/4) that aligns the output frame.
OUTPUT_STAGE = rotator(-np.pi / 4) @ retarder(-np.pi / 4, np.pi / 2)

#: Mueller matrix of ``OUTPUT_STAGE``, converted once.
_OUTPUT_MUELLER = jones_to_mueller(OUTPUT_STAGE)

#: Mueller matrix from the modulator output frame to the receiver frame.
RECEIVER_FRAME = jones_to_mueller(retarder(np.pi / 8, np.pi))


def phi0(wavelength: float, cfg: ModulatorConfig):
    """Zero-voltage MZI phase from the arm imbalance, 2 pi n_1 delta_l / lambda.

    Returns the unwrapped value (linear in wavenumber m = 1/lambda);
    consumers reduce modulo 2 pi where needed.
    """
    wavelength = np.asarray(wavelength, dtype=float)
    if np.any(wavelength <= 0):
        raise ValueError("wavelength must be positive")
    return cfg.n_1 * 2.0 * np.pi * cfg.delta_l / wavelength


def operating_phi0(cfg: ModulatorConfig) -> float:
    """Effective zero-voltage phase used by the modulator operations."""
    base = cfg.phi0_operating
    if base is None:
        base = float(phi0(cfg.wavelength, cfg))
    return base + cfg.temp_coeff * cfg.temp_delta


def modulator_mueller(v1: float, v2: float, cfg: ModulatorConfig) -> np.ndarray:
    """Mueller matrix of the full element pipeline, composed from closed-form elements.

    OUTPUT_STAGE . MZI(v1, v2) . rotator(pi/4 + delta); the splitter and
    combiner act as identity in this basis (the MZI matrix is diagonal
    between them).  Up to a global phase the MZI is a retarder at 0 of
    retardance T = (v1 - v2) pi / v_pi_pm + phi0, and the rotator a Mueller
    rotation by a = pi/2 + 2 delta; their product is one real 4x4 literal.
    The output stage enters as its Mueller matrix, converted once at import.
    Raises ValueError ("non-physical drive") if T is not finite.
    """
    t = (v1 - v2) * math.pi / cfg.v_pi_pm + operating_phi0(cfg)
    if not math.isfinite(t):
        raise ValueError(f"non-physical drive: angle T = {t} must be finite")
    a = math.pi / 2 + 2.0 * cfg.delta
    ct, st, ca, sa = math.cos(t), math.sin(t), math.cos(a), math.sin(a)
    return _OUTPUT_MUELLER @ np.array([[1.0, 0.0, 0.0, 0.0], [0.0, ca, sa, 0.0],
                                       [0.0, -ct * sa, ct * ca, st], [0.0, st * sa, -st * ca, ct]])


def drive_angle(v1, v2, cfg: ModulatorConfig):
    """Voltage modulation angle T = (v1 - v2) pi / v_pi_pm + phi0."""
    return (np.asarray(v1, dtype=float) - np.asarray(v2, dtype=float)) * np.pi / cfg.v_pi_pm + operating_phi0(cfg)


def output_stokes(v1, v2, cfg: ModulatorConfig) -> np.ndarray:
    """Closed-form output Stokes vector for horizontal input light.

    S = (1, cos(T) cos(2 delta), sin(T) cos(2 delta), sin(2 delta)); the
    output depends on the arm voltages only through v1 - v2 and lies on
    the Poincare equator when delta = 0.  Broadcasts over v1/v2 arrays,
    returning shape (..., 4).
    """
    theta = drive_angle(v1, v2, cfg)
    c2d = np.cos(2.0 * cfg.delta)
    s1 = np.cos(theta) * c2d
    s2 = np.sin(theta) * c2d
    s3 = np.full_like(s1, np.sin(2.0 * cfg.delta))
    return np.stack([np.ones_like(s1), s1, s2, s3], axis=-1)


def bb84_table(cfg: ModulatorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Arm voltages (4, 2) and receiver-frame Stokes vectors (4, 4) of the BB84 states.

    Rows follow ``montecarlo.STATES`` (H, D, V, A); the drive fractions
    are set for the phi0 = pi/4 operating point.
    """
    v = BB84_DRIVE_FRACTIONS * cfg.v_pi_pm
    s = output_stokes(v[:, 0], v[:, 1], cfg)
    # a stack of matvecs gives each row the bits of RECEIVER_FRAME @ row, which s @ RECEIVER_FRAME.T does not
    return v, (RECEIVER_FRAME @ s[..., None])[..., 0]


def wavelength_scan(cfg: ModulatorConfig, wavelengths) -> np.ndarray:
    """Transmitted intensity 0.5 (1 + cos(phi0(lambda))) per wavelength.

    Models the polarizer (at 0) + quarter-wave analyzer scan used to
    measure the arm imbalance; intensities are normalized to unit input.
    The phase follows the geometric phi0(lambda) (the scan exists to
    measure it), so ``phi0_operating`` is deliberately ignored here.
    Raises a ``BoundError`` naming ``delta_l`` when the phase is not finite
    (a large ``delta_l`` overflows it).
    """
    lam = np.asarray(wavelengths, dtype=float)
    with np.errstate(over="ignore"):
        phase = phi0(lam, cfg)
    if not np.isfinite(phase).all():
        raise BoundError("delta_l", "must keep the scan phase 2 pi n_1 delta_l / wavelength within the float range")
    return 0.5 * (1.0 + np.cos(phase))


@dataclass(frozen=True)
class ScanFit:
    """Result of a fringe fit I(m) = c0 (1 + C cos(2 pi n_1 dL m + psi)).

    ``delta_l`` is dL in meters, ``contrast`` the visibility C >= 0 (the
    C of 0.5 (1 + C cos) on a unit-normalized scan), ``phase`` psi, the
    fringe phase at wavenumber m = 0, reduced to [0, 2 pi),
    ``residual_rms`` the rms of model minus data in the scan's units, and
    ``periods_spanned`` the number of fringe periods the scan covers.
    """

    delta_l: float
    contrast: float
    phase: float
    residual_rms: float
    periods_spanned: float


@np.errstate(over="ignore", invalid="ignore")
def fit_delta_l(wavelengths, intensities, n_1: float) -> ScanFit:
    """Fit I(m) = c0 (1 + C cos(2 pi n_1 dL m + psi)) over wavenumber m = 1/lambda.

    The scan is divided by 2^e, e the binary exponent of its largest |I|
    (exact), and fitted as c0 + c1 cos(w u) + c2 sin(w u) in the centred
    wavenumber u = (m - m_c) / h in [-1, 1] (scan centre m_c, half-width
    h), so neither its scale nor its offset biases dL.  The dominant rfft
    bin of the mean-removed scan, resampled uniformly in m at the next
    power of two at or above its length (at least 1024 points, so that a
    coarse scan is still oversampled), seeds w, which keeps the non-convex
    fit out of local minima.  Variable projection (Golub and Pereyra 1973)
    then refines w alone: at each trial w, (c0, c1, c2) solve the 3x3
    normal equations on [1, cos, sin], and the step is Kaufman's
    -(d . r) / |P d|^2, with d = u (c2 cos - c1 sin), r the residual and
    P the projection off [1, cos, sin].  A step is halved only while it
    raises the cost, and the fit runs to its rounding floor, so a one-ulp
    change to the intensities moves no printed digit.

    Raises
    ------
    ValueError
        If the arrays are malformed, a wavelength is not finite and
        positive, an intensity is not finite, the grid is not monotone,
        the scan shows no oscillation, both the frequency seed and the
        fitted frequency span under two periods, the fit's normal equations
        are singular or the fit is not finite, or its offset c0 is not positive.
    """
    lam = np.asarray(wavelengths, dtype=float)
    y = np.asarray(intensities, dtype=float)
    if lam.ndim != 1 or lam.shape != y.shape or lam.size < 8:
        raise ValueError("scan must be two equal-length 1-d arrays of at least 8 points")
    if not (np.isfinite(lam).all() and (lam > 0).all()):
        raise ValueError("wavelengths must be finite and positive")
    if not np.isfinite(y).all():
        raise ValueError("intensities must be finite")
    dlam = np.diff(lam)
    if not (np.all(dlam > 0) or np.all(dlam < 0)):
        raise ValueError("wavelength grid must be monotone")

    _, e = np.frexp(np.abs(y).max())
    y = np.ldexp(y, -e)   # |y| < 1, exactly; residual_rms is scaled back at the end
    m = 1.0 / lam
    if dlam[0] > 0:  # ascending wavelengths: reverse into ascending m, as contiguous copies
        m, y = m[::-1].copy(), y[::-1].copy()
    n = m.size
    span = m[-1] - m[0]

    centered = y - y.mean()
    if float(np.sqrt(centered @ centered / n)) < 1e-6:
        raise ValueError("scan is constant: no oscillation to fit")

    # frequency seed: resample uniformly in m, take the dominant rfft bin
    n_fft = max(1024, 1 << (n - 1).bit_length())
    spectrum = np.abs(np.fft.rfft(np.interp(np.linspace(m[0], m[-1], n_fft), m, centered)))
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

    seed_periods = freq * span

    m_c, h = 0.5 * (m[0] + m[-1]), 0.5 * span
    u = (m - m_c) / h

    def project(w):  # the best (c0, c1, c2) at w, its residual, cost, inverse normal matrix and basis
        arg = w * u
        cos, sin = np.cos(arg), np.sin(arg)
        sc, ss, cs = cos.sum(), sin.sum(), cos @ sin
        try:
            gram_inv = np.linalg.inv([[n, sc, ss], [sc, cos @ cos, cs], [ss, cs, sin @ sin]])
        except np.linalg.LinAlgError as exc:
            raise ValueError("the fit's normal equations are singular: the scan does not identify a fringe") from exc
        c = gram_inv @ [y.sum(), cos @ y, sin @ y]
        r = c[1] * cos
        r += c[2] * sin
        r += c[0] - y
        return c, r, float(r @ r), gram_inv, cos, sin

    w = 2 * np.pi * freq * h
    c, r, cost, gram_inv, cos, sin = project(w)
    for _ in range(60):
        d = c[2] * cos
        d -= c[1] * sin
        d *= u
        d_basis = np.array([d.sum(), cos @ d, sin @ d])
        step = -float(d @ r) / float(d @ d - d_basis @ gram_inv @ d_basis)
        # each residual is rounded by about eps |w| of the fringe amplitude (below 1
        # on the scaled scan), which moves the cost by up to 2 eps |w| sqrt(n cost);
        # a rise within 1e-14 (about 45 eps) of that scale is rounding and keeps the step
        rounding = 1e-14 * (1.0 + abs(w)) * np.sqrt(n * cost)
        for _ in range(12):
            trial = project(w + step)
            if trial[2] <= cost + rounding:
                break
            step *= 0.5
        else:
            break  # no halving lowers the cost
        w += step
        c, r, cost, gram_inv, cos, sin = trial
        # converged once a step moves the argument by ~1e-12 of w (u spans [-1, 1])
        if abs(step) <= 1e-12 * (1.0 + abs(w)):
            break

    freq = w / (2 * np.pi * h)
    # the seed alone undercounts coarse noisy scans: 2.5 periods on 8 points can seed below 2
    if seed_periods < 2.0 and not freq * span >= 2.0:
        raise ValueError(
            f"only {seed_periods:.2f} oscillation periods spanned; need at least 2 to identify the frequency"
        )
    if c[0] <= 0:  # before the visibility divides by it (a nan offset fails the finite check)
        raise ValueError(f"fitted fringe offset {np.ldexp(c[0], e):.3g} must be positive")
    contrast = float(np.hypot(c[1], c[2]) / c[0])
    residual_rms = float(np.ldexp(np.sqrt(cost / n), e))
    if not (np.isfinite(contrast) and np.isfinite(residual_rms)):
        raise ValueError(f"fit is not finite (contrast {contrast:.3g}, residual rms {residual_rms:.3g})")
    psi = np.arctan2(-c[2], c[1]) - w * (m_c / h)
    return ScanFit(delta_l=float(freq / n_1), contrast=contrast,
                   phase=float(np.mod(psi, 2 * np.pi)), residual_rms=residual_rms,
                   periods_spanned=float(freq * span))


def triangular_wave(phase) -> np.ndarray:
    """Unit triangular wave of period 1: 0 -> +1 -> 0 -> -1 -> 0 over one period."""
    x = np.mod(np.asarray(phase, dtype=float) - 0.25, 1.0)
    return 4.0 * np.abs(x - 0.5) - 1.0


TRACE_PERIODS, TRACE_SAMPLES_PER_PERIOD = 2, 512   # the trace's drive periods, samples in each


def poincare_trace(cfg: ModulatorConfig):
    """Poincare-sphere trace under push-pull triangular arm drive.

    v1 = A tri(t), v2 = -A tri(t) with A = v_pi_pm / 2, so the differential
    voltage spans 2 v_pi and the trace covers a full great circle.  Returns
    (t, v1, v2, stokes) with t in drive periods and stokes of shape (n, 4).
    """
    t = np.arange(TRACE_PERIODS * TRACE_SAMPLES_PER_PERIOD) / TRACE_SAMPLES_PER_PERIOD
    v1 = cfg.v_pi_pm / 2.0 * triangular_wave(t)
    v2 = 0.0 - v1   # not -v1, which writes -0 where v1 = 0
    return t, v1, v2, output_stokes(v1, v2, cfg)
