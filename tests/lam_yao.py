"""The Lam-Yao eigenvalue-ratio factor count, the comparator of acceptance
criterion 5; the library itself never calls it."""

import numpy as np

from trendfactors.errors import ArgumentError


def lam_yao_ratio(m2_eigenvalues, R: int) -> int:
    """Eigenvalue-ratio factor count: ``argmin_{1<=j<=R} lam_{j+1} / lam_j``.

    Ties go to the smallest index.  This is the comparator whose count drifts
    to ``r2 + K`` when the noise covariance has ``K`` diverging eigenvalues.
    """
    lam = np.asarray(m2_eigenvalues, dtype=float)
    if R < 1:
        raise ArgumentError(f"R must be >= 1, got {R}")
    if lam.size < R + 1:
        raise ArgumentError(f"need at least R+1={R + 1} eigenvalues, got {lam.size}")
    lam = np.maximum(lam, np.finfo(float).eps)
    ratios = lam[1 : R + 1] / lam[:R]
    return int(np.argmin(ratios)) + 1
