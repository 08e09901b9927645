"""Assertion helpers, test-only optics and the row-wise CSV writer oracle."""

import numpy as np

from ipmsim.decoy import RatePoint
from ipmsim.polarimetry import IDEAL_RETARDANCE, setting
from ipmsim.polarization import A_INVERSE, A_MATRIX, CONSTRUCTION_TOL


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


def standard_settings(retardance: float = IDEAL_RETARDANCE):
    """The three S1+/S2+/S3+ settings at the given waveplate retardance."""
    return tuple(setting(label, retardance) for label in ("S1+", "S2+", "S3+"))


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
