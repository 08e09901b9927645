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
  change-of-basis matrix ``A`` below, M = A (J kron J*) A^-1, with
  J kron J* formed as one broadcast outer product.

The element constructors take float or ndarray angles: a scalar call
gives one 2x2 matrix, array arguments give a (..., 2, 2) stack equal,
matrix by matrix, to the scalar calls.  ``jones_to_mueller`` maps a
(..., 2, 2) stack to (..., 4, 4) Mueller matrices in one pass.

All values are plain numpy arrays, immutable by convention; every function
is pure and reentrant.
"""

from __future__ import annotations

import numpy as np

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

#: Horizontal polarizer in its own frame.
_H_PROJECTOR = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def rotator(theta) -> np.ndarray:
    """Frame-rotation Jones matrix [[c, s], [-s, c]]; array angles give a (..., 2, 2) stack."""
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, s], [-s, c]], dtype=complex)
    if r.ndim == 2:
        return r
    return np.moveaxis(r, (0, 1), (-2, -1))


def retarder(theta, retardance) -> np.ndarray:
    """Linear retarder, fast axis at ``theta``, slow axis delayed by ``retardance``.

    Array arguments broadcast against each other and give a (..., 2, 2) stack.
    """
    slow = np.exp(-1j * retardance)
    j0 = np.zeros(np.shape(slow) + (2, 2), dtype=complex)
    j0[..., 0, 0] = 1.0
    j0[..., 1, 1] = slow
    return rotator(-theta) @ j0 @ rotator(theta)


def polarizer(theta) -> np.ndarray:
    """Ideal linear polarizer (projector) with transmission axis at ``theta``.

    Array angles give a (..., 2, 2) stack.
    """
    return rotator(-theta) @ _H_PROJECTOR @ rotator(theta)


def jones_to_mueller(j: np.ndarray) -> np.ndarray:
    """Convert a 2x2 Jones matrix, or a (..., 2, 2) stack, to real 4x4 Mueller matrices.

    J kron J* is formed as one broadcast outer product, the same complex
    products ``np.kron`` forms, so a stack converts in one pass.
    A (J kron J*) A^-1 is real for every complex J; its imaginary part is
    rounding only, and is dropped.

    Raises
    ------
    ValueError
        If the last two axes are not 2x2 or if any entry is not finite.
    """
    j = np.asarray(j, dtype=complex)
    if j.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 Jones matrix or a (..., 2, 2) stack, got shape {j.shape}")
    if not np.isfinite(j).all():
        raise ValueError("non-physical Jones matrix: entries must be finite")
    kron = (j[..., :, None, :, None] * j.conj()[..., None, :, None, :]).reshape(*j.shape[:-2], 4, 4)
    return np.ascontiguousarray((A_MATRIX @ kron @ A_INVERSE).real)


def apply_mueller(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Apply a Mueller matrix to a Stokes vector (plain matrix-vector product)."""
    return np.asarray(m, dtype=float) @ np.asarray(s, dtype=float)


def degree_of_polarization(s):
    """DOP = sqrt(S1^2 + S2^2 + S3^2) / S0 over the last axis; requires S0 > 0.

    One Stokes vector gives a float, a (..., 4) stack an array of DOPs.
    S1..S3 are scaled by 2^-e, with e the binary exponent of the vector's
    largest |S_j|, before squaring; the scaled norm is divided by S0's
    mantissa and the DOP scaled by 2^(e - e0), with e0 S0's exponent.  The
    scaling is exact, so a vector whose squares neither overflow nor
    underflow keeps the bits of the unscaled formula, a subnormal or huge
    vector gets the norm of its stored values, and the DOP is finite
    whenever it is within range; an infinite DOP warns of an overflow.
    """
    s = np.asarray(s, dtype=float)
    s0 = s[..., 0]
    bad = s0[s0 <= 0.0]
    if bad.size:
        raise ValueError(f"degree of polarization undefined for S0 = {bad[0]}")
    _, e = np.frexp(np.abs(s[..., 1:]).max(axis=-1))
    v = np.ldexp(s[..., 1:], -e[..., None])
    f0, e0 = np.frexp(s0)
    dop = np.ldexp(np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2) / f0, e - e0)
    return float(dop) if dop.ndim == 0 else dop
