"""Assertion helpers and test-only optics shared by the test modules."""

import numpy as np

from ipmsim.polarimetry import IDEAL_RETARDANCE, setting
from ipmsim.polarization import CONSTRUCTION_TOL


def is_unitary(j, tol=CONSTRUCTION_TOL):
    """True if J is unitary to within ``tol`` (lossless element check)."""
    j = np.asarray(j, dtype=complex)
    return bool(np.abs(j.conj().T @ j - np.eye(2)).max() <= tol)


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


def standard_settings(retardance: float = IDEAL_RETARDANCE):
    """The three S1+/S2+/S3+ settings at the given waveplate retardance."""
    return tuple(setting(label, retardance) for label in ("S1+", "S2+", "S3+"))
