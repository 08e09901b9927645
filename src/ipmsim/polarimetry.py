"""Stokes-vector characterization through a quarter-wave plate and polarizer.

The projected intensity behind a retarder (fast axis ``beta``,
retardance ``delta``) followed by a linear polarizer (axis ``alpha``) is
row 0 of the Mueller matrix of ``polarizer(alpha) @ retarder(beta, delta)``
applied to the input Stokes vector, so the handedness is the one stated
in ``ipmsim.polarization``.  Three settings suffice to recover the full
Stokes vector via S_j = 2 I_j - S0:

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

import numpy as np

from .polarization import degree_of_polarization, jones_to_mueller, polarizer, retarder

IDEAL_RETARDANCE = np.pi / 2

#: Documented default for a real waveplate: 7% off the ideal quarter wave.
DEFAULT_QWP_RETARDANCE = 0.93 * np.pi / 2

#: Recovered DOP above 1 + this margin triggers an inconsistency warning.
DOP_WARN_MARGIN = 0.05

#: (polarizer, waveplate) angles of the S1+, S2+ and S3+ settings.
_SETTINGS = ((0.0, 0.0), (np.pi / 4, np.pi / 4), (np.pi / 4, 0.0))


class InconsistentProjectionsWarning(UserWarning):
    """Recovered Stokes vector has DOP well above 1: inputs disagree."""


def extract_stokes(i1, i2, i3, s0) -> np.ndarray:
    """Recover (S0, S1, S2, S3) from the three standard projections.

    Uses the ideal relations S_j = 2 I_j - S0 and broadcasts over arrays
    of projections, giving shape (..., 4).  Raises ValueError when an
    input or a recovered component is not finite (2 I_j may overflow).
    Its callers judge the recovered DOP, once each (``warn_inconsistent``).
    """
    i1, i2, i3, s0 = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (i1, i2, i3, s0)))
    # a non-finite input always gives a non-finite component (S0 is one)
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.stack([s0, 2 * i1 - s0, 2 * i2 - s0, 2 * i3 - s0], axis=-1)
    if not np.isfinite(s).all():
        raise ValueError("projections must be finite")
    bad = s0[s0 <= 0]
    if bad.size:
        raise ValueError(f"total intensity S0 must be positive, got {bad[0]}")
    return s


def warn_inconsistent(dop: float) -> None:
    """Warn (without failing) that projections are inconsistent when ``dop`` exceeds 1 by more than 5%."""
    if dop > 1.0 + DOP_WARN_MARGIN:
        warnings.warn(f"recovered DOP {dop:.4f} exceeds 1: projections are inconsistent",
                      InconsistentProjectionsWarning, stacklevel=3)


def measure_stokes(s, retardance: float = IDEAL_RETARDANCE) -> np.ndarray:
    """Project known states, one or a (..., 4) stack, at the three settings and extract them back.

    At the ideal retardance this is an exact round trip; away from it the
    S3 channel picks up the sin/cos bias documented in the module
    docstring.  Useful for studying waveplate imperfection.  The three
    analyzer rows are built once per call, one setting at a time.
    Warns once (without failing) when a recovered DOP exceeds 1 by more
    than 5%, naming the largest: the bias, or an input past DOP 1, shows.
    """
    s = np.asarray(s, dtype=float)
    rows = np.array([jones_to_mueller(polarizer(alpha) @ retarder(beta, retardance))[0]
                     for alpha, beta in _SETTINGS])
    # a stack of (1, 4) @ (4, 1) products gives each intensity the bits of row @ vector
    i = (s[..., None, None, :] @ rows[:, :, None])[..., 0, 0]
    measured = extract_stokes(*np.moveaxis(i, -1, 0), s[..., 0])
    warn_inconsistent(np.max(degree_of_polarization(measured), initial=0.0))
    return measured
