"""Second-stage eigenanalysis on the stationary components.

Builds ``M2`` from lagged autocovariances of the stationary panel, splits the
factor and noise subspaces, runs the projected PCA (with the rotated variant
when the idiosyncratic covariance has prominent, diverging eigenvalues), and
recovers the stationary factor paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, IllConditionedError
from .tsstats import (
    EigenDecomposition,
    TimeSeriesPanel,
    as_panel,
    autocov_gram,
    fix_signs,
    sample_autocov,
)

__all__ = [
    "StationaryFactorFit",
    "build_M2",
    "projected_S",
    "estimate_K",
    "estimate_V2",
    "recover_z2",
    "lam_yao_ratio",
]

_SV_TOL = 1e-10


@dataclass(frozen=True)
class StationaryFactorFit:
    """Second-stage estimates on the stationary panel of width ``p - r1``.

    ``U1`` spans the factor directions and ``V1`` the white-noise directions
    (mutually orthonormal, jointly a full basis); ``V2`` is the projected-PCA
    matrix used to invert the factor mixing, and ``z2`` holds the recovered
    factor paths.  Only the span of ``V2`` is determined, not its basis
    inside the span, and ``z2`` does not depend on that basis.
    ``r2_hat + v_hat`` always equals the panel width.  ``v2_fallback`` marks
    an ill-conditioned recovery where ``V2 = U1``.
    """

    r2_hat: int
    v_hat: int
    K_hat: int
    U1: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    z2: np.ndarray
    S_eigenvalues: np.ndarray
    v2_fallback: bool = False


def build_M2(x2, j0: int) -> np.ndarray:
    """Sum of lagged autocovariance Gram products ``sum_{j=1..j0} C(j) C(j)'``.

    Lag 0 is deliberately excluded: white-noise directions contribute nothing
    in expectation, so the leading eigenvectors line up with the dynamically
    dependent factor directions.
    """
    pan = as_panel(x2)
    if not 1 <= j0 <= pan.n - 2:
        raise ArgumentError(f"j0={j0} outside [1, {pan.n - 2}] for n={pan.n}")
    return autocov_gram(pan, range(1, j0 + 1))


def projected_S(x2, v1: np.ndarray) -> np.ndarray:
    """Projected-PCA matrix ``S = C(0) V1 V1' C(0)``.

    Its null space (up to estimation error) is spanned by the directions that
    expose the factors, because the noise directions are uncorrelated with
    the factor content of the panel.
    """
    pan = as_panel(x2)
    v1 = np.asarray(v1, dtype=float)
    if v1.ndim != 2 or v1.shape[0] != pan.p:
        raise ArgumentError(
            f"V1 must have {pan.p} rows to match the panel, got shape {v1.shape}"
        )
    if v1.shape[1] > 0:
        gram = v1.T @ v1
        if float(np.max(np.abs(gram - np.eye(v1.shape[1])))) > 1e-8:
            raise ArgumentError("V1 is not half-orthonormal")
    g = sample_autocov(pan, 0) @ v1
    return g @ g.T


def estimate_K(s_eigenvalues, max_k: int, tau: float = 10.0) -> int:
    """Count prominent (diverging) noise eigenvalues by the leading ratio rule.

    Returns the ``j <= max_k`` maximizing ``lam_j / lam_{j+1}`` provided that
    ratio exceeds the prominence multiplier ``tau``, else 0.  Callers should
    cap ``max_k`` below the rank boundary of the spectrum, where ratios blow
    up for structural rather than prominence reasons.
    """
    lam = np.asarray(s_eigenvalues, dtype=float)
    if max_k < 1:
        raise ArgumentError(f"max_k must be >= 1, got {max_k}")
    if lam.size < max_k + 1:
        raise ArgumentError(f"need at least max_k+1={max_k + 1} eigenvalues, got {lam.size}")
    lam = np.maximum(lam, np.finfo(float).eps)
    ratios = lam[:max_k] / lam[1 : max_k + 1]
    j = int(np.argmax(ratios))
    return j + 1 if ratios[j] > tau else 0


def estimate_V2(s_eig: EigenDecomposition, u1: np.ndarray, r2: int, K: int) -> np.ndarray:
    """Directions used to invert the factor mixing, from the eigendecomposition of ``S``.

    With ``K = 0`` these are simply the eigenvectors of ``S`` attached to its
    ``r2`` smallest eigenvalues.  With ``K > 0`` the ``K`` diverging noise
    eigenvalues are dropped first and the remaining eigenvectors ``V2*`` are
    rotated toward the factor space, which keeps ``V2' U1`` well conditioned:
    the rotation is the left singular vectors of ``V2*' U1``, which span the
    top-``r2`` eigenspace of ``V2*' U1 U1' V2*``.  Only the span of the result
    is determined, not its basis inside the span.
    """
    u1 = np.asarray(u1, dtype=float)
    d = u1.shape[0]
    if K < 0 or r2 < 0 or K + r2 > d:
        raise ArgumentError(f"need K + r2 <= dim, got K={K}, r2={r2}, dim={d}")
    if r2 == 0:
        return np.zeros((d, 0))
    if s_eig.vectors.shape[0] != d:
        raise ArgumentError("S and U1 dimensions do not match")
    if K == 0:
        v2 = s_eig.vectors[:, d - r2 :]
    else:
        v2_star = s_eig.vectors[:, K:]
        rot = fix_signs(np.linalg.svd(v2_star.T @ u1, full_matrices=False)[0])
        v2 = v2_star @ rot
    smin = np.linalg.svd(v2.T @ u1, compute_uv=False)[-1]
    if smin <= _SV_TOL:
        raise IllConditionedError(
            f"V2'U1 is numerically singular (smallest singular value {smin:.3e})"
        )
    return v2


def recover_z2(v2: np.ndarray, u1: np.ndarray, x2) -> np.ndarray:
    """Recovered stationary factor paths ``z2_t = (V2'U1)^{-1} V2' x2_t``."""
    v2 = np.asarray(v2, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    x = np.asarray(x2.data if isinstance(x2, TimeSeriesPanel) else x2, dtype=float)
    if x.ndim != 2 or x.shape[1] != v2.shape[0]:
        raise ArgumentError(
            f"x2 shape {x.shape} does not match V2 with {v2.shape[0]} rows"
        )
    if v2.shape[1] == 0:
        return np.zeros((x.shape[0], 0))
    g = v2.T @ u1
    smin = np.linalg.svd(g, compute_uv=False)[-1]
    if smin <= _SV_TOL:
        raise IllConditionedError(
            f"V2'U1 is numerically singular (smallest singular value {smin:.3e})"
        )
    return np.linalg.solve(g, v2.T @ x.T).T


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
