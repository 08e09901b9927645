"""Assertion helpers shared by the test modules."""

import numpy as np

from ipmsim.polarization import CONSTRUCTION_TOL


def is_unitary(j, tol=CONSTRUCTION_TOL):
    """True if J is unitary to within ``tol`` (lossless element check)."""
    j = np.asarray(j, dtype=complex)
    return bool(np.abs(j.conj().T @ j - np.eye(2)).max() <= tol)
