"""Jones and Mueller/Stokes calculus for fully polarized light.

Conventions (used consistently by every module in this package):

* All angles are measured from horizontal, counterclockwise positive.
* ``rotator(theta)`` is the frame rotation
  ``[[cos t, sin t], [-sin t, cos t]]``; an element whose axis sits at
  angle ``theta`` is ``rotator(-theta) @ J0 @ rotator(theta)``.
* A retarder of retardance ``delta`` delays the slow axis:
  ``J0 = diag(1, exp(-1j*delta))``.  With the Stokes convention below this
  makes ``retarder(pi/4, pi/2)`` map horizontal light to S3 = +1, which is
  the handedness adopted here (right circular positive).
* Stokes vectors are ``(S0, S1, S2, S3)`` with S1 = H-V, S2 = D-A and
  S3 = -2*Im(Ex*conj(Ey)); the Jones->Mueller conversion uses the fixed
  change-of-basis matrix ``A`` below, M = A (J kron J*) A^-1.

Lossless element matrices are normalized so their first nonzero entry
(row-major) is real non-negative, giving deterministic comparisons; the
global phase is invisible in the Mueller calculus anyway.

All values are plain numpy arrays, immutable by convention; every function
is pure and reentrant.
"""

from __future__ import annotations

import numpy as np

# Construction-time checks run at 1e-12.
CONSTRUCTION_TOL = 1e-12

# Residual imaginary part above this in a converted Mueller matrix signals a
# non-physical Jones matrix (or a bug) rather than rounding noise.
IMAG_RESIDUE_LIMIT = 1e-9

#: Stokes basis change for M = A (J kron J*) A^-1.
A_MATRIX = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1j, -1j, 0],
    ],
    dtype=complex,
)
A_INVERSE = A_MATRIX.conj().T / 2.0


def _normalize_phase(j: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero entry is real >= 0."""
    flat = j.ravel()
    for entry in flat:
        if abs(entry) > CONSTRUCTION_TOL:
            return j * np.exp(-1j * np.angle(entry))
    return j


def rotator(theta: float) -> np.ndarray:
    """Frame-rotation Jones matrix [[c, s], [-s, c]] for angle theta."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=complex)


def retarder(theta: float, retardance: float) -> np.ndarray:
    """Linear retarder, fast axis at ``theta``, slow axis delayed by ``retardance``."""
    j0 = np.array([[1.0, 0.0], [0.0, np.exp(-1j * retardance)]])
    return _normalize_phase(rotator(-theta) @ j0 @ rotator(theta))


def polarizer(theta: float) -> np.ndarray:
    """Ideal linear polarizer (projector) with transmission axis at ``theta``."""
    j0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    return _normalize_phase(rotator(-theta) @ j0 @ rotator(theta))


def jones_to_mueller(j: np.ndarray) -> np.ndarray:
    """Convert a 2x2 Jones matrix to its 4x4 real Mueller matrix.

    Raises
    ------
    ValueError
        If the imaginary residue of A (J kron J*) A^-1 exceeds 1e-9,
        which indicates a non-physical input.
    """
    j = np.asarray(j, dtype=complex)
    if j.shape != (2, 2):
        raise ValueError(f"expected a 2x2 Jones matrix, got shape {j.shape}")
    if not np.all(np.isfinite(j)):
        raise ValueError("non-physical Jones matrix: entries must be finite")
    m = A_MATRIX @ np.kron(j, j.conj()) @ A_INVERSE
    residue = float(np.abs(m.imag).max())
    if residue > IMAG_RESIDUE_LIMIT:
        raise ValueError(f"non-physical Jones matrix: imaginary residue {residue:.3e}")
    return np.ascontiguousarray(m.real)


def apply_mueller(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Apply a Mueller matrix to a Stokes vector (plain matrix-vector product)."""
    return np.asarray(m, dtype=float) @ np.asarray(s, dtype=float)


def degree_of_polarization(s):
    """DOP = sqrt(S1^2 + S2^2 + S3^2) / S0 over the last axis; requires S0 > 0.

    One Stokes vector gives a float, a (..., 4) stack an array of DOPs.
    """
    s = np.asarray(s, dtype=float)
    s0 = s[..., 0]
    bad = s0[s0 <= 0.0]
    if bad.size:
        raise ValueError(f"degree of polarization undefined for S0 = {bad[0]}")
    dop = np.sqrt(s[..., 1] ** 2 + s[..., 2] ** 2 + s[..., 3] ** 2) / s0
    return float(dop) if dop.ndim == 0 else dop
