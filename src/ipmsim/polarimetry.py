"""Stokes-vector characterization through a quarter-wave plate and polarizer.

The projected intensity behind a retarder (fast axis ``beta``, retardance
``delta``) followed by a linear polarizer (axis ``alpha``) is

    I = 1/2 { S0 + (S1 cos 2b + S2 sin 2b) cos 2(a - b)
              + [(S2 cos 2b - S1 sin 2b) cos d + S3 sin d] sin 2(a - b) }

with all angles from horizontal.  Three settings suffice to recover the
full Stokes vector via S_j = 2 I_j - S0:

    label   polarizer alpha   waveplate beta
    S1+     0                 0
    S2+     45 deg            45 deg
    S3+     45 deg            0

S0 is supplied directly (measured as the averaged maximum intensity), not
inferred from the projections.  A real waveplate whose retardance is off
the ideal pi/2 biases the S3 channel only: extracting with the ideal
relations after projecting at retardance d yields
S3_est = S3 sin(d) + S2 cos(d), while S1 and S2 stay exact because their
settings have alpha = beta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

IDEAL_RETARDANCE = np.pi / 2

#: Documented default for a real waveplate: 7% off the ideal quarter wave.
DEFAULT_QWP_RETARDANCE = 0.93 * np.pi / 2

#: Recovered DOP above 1 + this margin triggers an inconsistency warning.
DOP_WARN_MARGIN = 0.05

_IDEAL_ANGLES = {
    "S1+": (0.0, 0.0),
    "S2+": (np.pi / 4, np.pi / 4),
    "S3+": (np.pi / 4, 0.0),
}


class InconsistentProjectionsWarning(UserWarning):
    """Recovered Stokes vector has DOP well above 1: inputs disagree."""


@dataclass(frozen=True)
class MeasurementSetting:
    """One polarimeter setting: polarizer angle, waveplate angle, retardance."""

    polarizer_angle: float
    qwp_angle: float
    retardance: float = IDEAL_RETARDANCE
    label: str = ""


def standard_settings(retardance: float = IDEAL_RETARDANCE) -> tuple[MeasurementSetting, ...]:
    """The three S1+/S2+/S3+ settings at the given waveplate retardance."""
    return tuple(
        MeasurementSetting(alpha, beta, retardance, label)
        for label, (alpha, beta) in _IDEAL_ANGLES.items()
    )


def setting(label: str, retardance: float = IDEAL_RETARDANCE) -> MeasurementSetting:
    """Single standard setting by label ("S1+", "S2+" or "S3+")."""
    alpha, beta = _IDEAL_ANGLES[label]
    return MeasurementSetting(alpha, beta, retardance, label)


def projected_intensity(s, meas: MeasurementSetting) -> float:
    """Intensity behind the waveplate + polarizer for Stokes input ``s``."""
    s0, s1, s2, s3 = np.asarray(s, dtype=float)
    a, b, d = meas.polarizer_angle, meas.qwp_angle, meas.retardance
    c2b, s2b = np.cos(2 * b), np.sin(2 * b)
    return float(
        0.5
        * (
            s0
            + (s1 * c2b + s2 * s2b) * np.cos(2 * (a - b))
            + ((s2 * c2b - s1 * s2b) * np.cos(d) + s3 * np.sin(d)) * np.sin(2 * (a - b))
        )
    )


def extract_stokes(i1: float, i2: float, i3: float, s0: float) -> np.ndarray:
    """Recover (S0, S1, S2, S3) from the three standard projections.

    Uses the ideal relations S_j = 2 I_j - S0.  Warns (without failing)
    when the recovered DOP exceeds 1 by more than 5%, which signals
    mutually inconsistent inputs.
    """
    if s0 <= 0:
        raise ValueError(f"total intensity S0 must be positive, got {s0}")
    s = np.array([s0, 2 * i1 - s0, 2 * i2 - s0, 2 * i3 - s0])
    dop = float(np.sqrt(s[1] ** 2 + s[2] ** 2 + s[3] ** 2) / s0)
    if dop > 1.0 + DOP_WARN_MARGIN:
        warnings.warn(
            f"recovered DOP {dop:.4f} exceeds 1: projections are inconsistent",
            InconsistentProjectionsWarning,
            stacklevel=2,
        )
    return s


def measure_stokes(s, retardance: float = IDEAL_RETARDANCE) -> np.ndarray:
    """Project a known state at the three settings and extract it back.

    At the ideal retardance this is an exact round trip; away from it the
    S3 channel picks up the sin/cos bias documented in the module
    docstring.  Useful for studying waveplate imperfection.
    """
    s = np.asarray(s, dtype=float)
    i1, i2, i3 = (
        projected_intensity(s, setting(label, retardance))
        for label in ("S1+", "S2+", "S3+")
    )
    return extract_stokes(i1, i2, i3, s[0])
