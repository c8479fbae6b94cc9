"""Dense reference definitions of the Monte Carlo path RMSEs and span
distances; the library computes the same numbers from one QR per loading
pair, without forming the ``n x p`` paths."""

import numpy as np

from trendfactors.errors import ArgumentError


def trend_paths(truth) -> np.ndarray:
    """The trend contribution ``A1 x1_t`` of every observation."""
    return truth.x1 @ truth.A1.T


def factor_paths(truth) -> np.ndarray:
    """The stationary-factor contribution ``A2 U22_1 f2_t``."""
    return truth.f2 @ truth.U22_1.T @ truth.A2.T


def rmse_factors(estimate, truth, normalization: str = "small") -> float:
    """Root-mean-square error between reconstructed and true factor paths.

    ``small`` averages squared per-time errors over time only; ``large``
    additionally divides by the dimension, which is the scaling used when
    the panel width grows.
    """
    est = np.asarray(estimate, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ArgumentError(f"shape mismatch: {est.shape} vs {tru.shape}")
    if normalization not in ("small", "large"):
        raise ArgumentError(f"normalization must be 'small' or 'large', got {normalization!r}")
    n, p = est.shape
    denom = n if normalization == "small" else n * p
    return float(np.sqrt(np.sum((est - tru) ** 2) / denom))


def metric_Dbar(h1: np.ndarray, h2: np.ndarray) -> float:
    """Projector-based span distance in [0, 1] for full-column-rank matrices.

    0 means equal spans and 1 orthogonal spans; a span of width d1 nested in
    one of width d2 gives ``sqrt(1 - d1 / d2)``.  For half-orthonormal inputs
    of equal width r this is the paper's ``D = sqrt(1 - ||h1' h2||_F^2 / r)``.
    The cosine form cancels: spans ``1e-9`` apart read about ``2e-8``.
    """
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    if h1.ndim != 2 or h2.ndim != 2 or h1.shape[0] != h2.shape[0]:
        raise ArgumentError("inputs must share the row dimension")
    d1, d2 = h1.shape[1], h2.shape[1]
    if min(d1, d2) < 1:
        raise ArgumentError("need at least one column")
    q1 = np.linalg.qr(h1)[0]
    q2 = np.linalg.qr(h2)[0]
    if np.linalg.matrix_rank(h1) < d1 or np.linalg.matrix_rank(h2) < d2:
        raise ArgumentError("inputs must have full column rank")
    overlap = float(np.sum((q1.T @ q2) ** 2))
    return float(np.sqrt(max(0.0, 1.0 - overlap / max(d1, d2))))
