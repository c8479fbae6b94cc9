"""Second-stage eigenanalysis on the stationary components.

Builds ``M2`` from lagged autocovariances of the stationary panel, counts
prominent (diverging) noise eigenvalues, and recovers the stationary factor
paths by the projected PCA (with the rotated variant when the idiosyncratic
covariance has prominent eigenvalues).  The recovery runs in the ``M2``
eigenbasis ``W``, on the components ``xi = x2 W``: there ``U1`` and ``V1``
are column selections of the identity, the factor of ``S = G G'`` with
``G = C(0) V1`` is the white columns of ``xi``'s lag-0 covariance (``W' G``),
and ``V2' U1`` is a row selection of ``V2``; the output ``V2 = W v2`` is
the one product with ``W``.  The projected PCA is an eigendecomposition
of the ``v x v`` matrix ``G' G`` and QRs of ``d x v`` (``K = 0``) or
``d x K`` and ``d x r2`` blocks, never a ``d x d`` eigenproblem.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .errors import ArgumentError, IllConditionedError
from .tsstats import EigenDecomposition, _lapack, as_panel, autocov_gram

__all__ = [
    "build_M2",
    "estimate_K",
    "estimate_V2",
    "recover_z2",
]

_SV_TOL = 1e-10
# Smallest leading eigenvalue ratio that estimate_K counts as prominent.
TAU = 10.0
# Largest prominent-noise count the eigenvalue-ratio rule considers.
MAX_K = 10


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


def estimate_K(s_eigenvalues) -> int:
    """Count prominent (diverging) noise eigenvalues by the leading ratio rule.

    ``s_eigenvalues`` is ``S``'s nonzero spectrum in descending order (the
    eigenvalues of ``G' G``), without the exact zeros past ``S``'s rank,
    where the ratio would blow up for structural rather than prominence
    reasons.  Returns the ``j <= min(MAX_K, len - 1)`` maximizing
    ``lam_j / lam_{j+1}`` provided that ratio exceeds the prominence
    multiplier ``TAU``, else 0; fewer than two eigenvalues give 0.
    """
    lam = np.maximum(np.asarray(s_eigenvalues, dtype=float), np.finfo(float).eps)
    max_k = min(MAX_K, lam.size - 1)
    if max_k < 1:
        return 0
    ratios = lam[:max_k] / lam[1 : max_k + 1]
    j = int(np.argmax(ratios))
    return j + 1 if ratios[j] > TAU else 0


def estimate_V2(
    g: np.ndarray, gram_eig: EigenDecomposition, factors: np.ndarray, K: int
) -> np.ndarray:
    """Directions ``V2`` used to invert the factor mixing, in the ``M2`` eigenbasis.

    ``g`` is the factor of ``S = g g'`` (``d - r2`` columns wide, ``d``
    rows), ``gram_eig`` the eigendecomposition of ``g' g`` and ``factors``
    the ``r2`` indices of the factor components, so that ``U1`` is the
    identity's columns ``factors``.  With ``K = 0`` ``V2`` spans the null
    space of ``S``, the complement of ``g``'s columns from a Householder QR.
    With ``K > 0`` it spans ``(I - P P') U1 = E_f - P P[factors]'`` for the
    ``K`` diverging eigenvectors ``P = g q_k / sqrt(lam_k)`` of ``S``: its
    other eigenvectors rotated toward the factor space, which keeps
    ``V2' U1`` (the rows ``factors`` of ``V2``, transposed) well
    conditioned.  Only the span of ``V2`` is determined; with no
    ``factors`` it is ``(d, 0)``.
    """
    d, r2 = g.shape[0], len(factors)
    if K < 0 or K + r2 > d or K > g.shape[1]:
        raise ArgumentError(f"need K + r2 <= dim, got K={K}, r2={r2}, dim={d}")
    if K == 0:
        v2 = np.zeros((d, r2))
        v2[d - r2:] = np.eye(r2)
        # dormqr rejects zero reflectors, and with no factors there is nothing to rotate
        if g.shape[1] and r2:
            raw, tau = np.linalg.qr(g, mode="raw")
            v2 = _lapack(lapack.dormqr, "L", "N", raw.T, tau, v2)
    else:
        # g q_k are orthogonal with norms sqrt(lam_k); the QR normalizes them
        p = np.linalg.qr(g @ gram_eig.vectors[:, :K])[0]
        v2 = np.linalg.qr(np.eye(d)[:, factors] - p @ p[factors].T)[0]
    smin = np.linalg.svd(v2[factors], compute_uv=False).min(initial=np.inf)
    if smin <= _SV_TOL:
        raise IllConditionedError(
            f"V2'U1 is numerically singular (smallest singular value {smin:.3e})"
        )
    return v2


def recover_z2(v2: np.ndarray, factors: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Recovered stationary factor paths ``z2_t = (V2'U1)^{-1} V2' xi_t``.

    ``xi`` holds the components in the ``M2`` eigenbasis, ``V2`` is
    :func:`estimate_V2`'s and ``U1`` the identity's columns ``factors``,
    so ``V2' U1`` is ``v2[factors]'``.  The solve is against ``V2'`` and
    its result is applied to ``xi``: ``z2 = xi @ solve(V2'U1, V2')'``,
    ``(n, 0)`` with no ``factors``.
    """
    # a right-hand side per component, not per time point: getrs costs far
    # more per right-hand side than the product with xi, and xi has fewer
    # columns than rows (about as many on a wide panel, where both cost the same)
    return xi @ np.linalg.solve(v2[factors].T, v2.T).T

