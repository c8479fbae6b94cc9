"""Second-stage eigenanalysis on the stationary components.

Builds ``M2`` from lagged autocovariances of the stationary panel, splits the
factor and noise subspaces, runs the projected PCA (with the rotated variant
when the idiosyncratic covariance has prominent, diverging eigenvalues), and
recovers the stationary factor paths.  The projected PCA works on the factor
``G = C(0) V1`` of ``S = G G'``: an eigendecomposition of the ``v x v``
matrix ``G' G`` and QRs of ``d x v`` (``K = 0``) or ``d x K`` and ``d x r2``
blocks, never a ``d x d`` eigenproblem.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import ArgumentError, IllConditionedError
from .tsstats import (
    EigenDecomposition,
    TimeSeriesPanel,
    _lapack,
    as_panel,
    autocov_gram,
    sample_autocov,
)

__all__ = [
    "build_M2",
    "projected_S",
    "estimate_K",
    "estimate_V2",
    "recover_z2",
    "lam_yao_ratio",
]

_SV_TOL = 1e-10


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
    """Factor ``G = C(0) V1`` of the projected-PCA matrix ``S = G G'``.

    The null space of ``S`` (up to estimation error) is spanned by the
    directions that expose the factors, because the noise directions are
    uncorrelated with the factor content of the panel.  The spectrum of
    ``S`` is that of the ``v x v`` matrix ``G' G``, then ``d - v`` zeros.
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
    return sample_autocov(pan, 0) @ v1


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


def estimate_V2(
    g: np.ndarray, gram_eig: EigenDecomposition, u1: np.ndarray, r2: int, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Directions ``V2`` used to invert the factor mixing, and ``V2' U1``.

    ``g`` is :func:`projected_S`'s factor of ``S = g g'`` (``d - r2`` columns
    wide) and ``gram_eig`` the eigendecomposition of ``g' g``.  With ``K = 0``
    ``V2`` spans the null space of ``S``, the complement of ``g``'s columns
    from a Householder QR.  With ``K > 0`` it spans ``(I - P P') U1`` for the
    ``K`` diverging eigenvectors ``P = g q_k / sqrt(lam_k)`` of ``S``: its
    other eigenvectors rotated toward the factor space, which keeps
    ``V2' U1`` well conditioned.  Only the span of ``V2`` is determined.
    """
    u1 = np.asarray(u1, dtype=float)
    d = u1.shape[0]
    if K < 0 or r2 < 0 or K + r2 > d:
        raise ArgumentError(f"need K + r2 <= dim, got K={K}, r2={r2}, dim={d}")
    if r2 == 0:
        return np.zeros((d, 0)), np.zeros((0, 0))
    if g.shape[0] != d or K > g.shape[1]:
        raise ArgumentError("S and U1 dimensions do not match")
    if K == 0:
        v2 = np.zeros((d, r2))
        v2[d - r2:] = np.eye(r2)
        if g.shape[1]:
            raw, tau = np.linalg.qr(g, mode="raw")
            v2 = _lapack(lapack.dormqr, "L", "N", raw.T, tau, v2)
    else:
        # g q_k are orthogonal with norms sqrt(lam_k); the QR normalizes them
        p = np.linalg.qr(g @ gram_eig.vectors[:, :K])[0]
        v2 = np.linalg.qr(u1 - p @ (p.T @ u1))[0]
    v2u1 = v2.T @ u1
    smin = np.linalg.svd(v2u1, compute_uv=False)[-1]
    if smin <= _SV_TOL:
        raise IllConditionedError(
            f"V2'U1 is numerically singular (smallest singular value {smin:.3e})"
        )
    return v2, v2u1


def recover_z2(v2: np.ndarray, v2u1: np.ndarray, x2) -> np.ndarray:
    """Recovered stationary factor paths ``z2_t = (V2'U1)^{-1} V2' x2_t``, given ``V2'U1``."""
    v2 = np.asarray(v2, dtype=float)
    x = np.asarray(x2.data if isinstance(x2, TimeSeriesPanel) else x2, dtype=float)
    if x.ndim != 2 or x.shape[1] != v2.shape[0]:
        raise ArgumentError(
            f"x2 shape {x.shape} does not match V2 with {v2.shape[0]} rows"
        )
    if v2.shape[1] == 0:
        return np.zeros((x.shape[0], 0))
    return np.linalg.solve(v2u1, v2.T @ x.T).T


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
