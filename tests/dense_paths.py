"""Dense reference definitions of the Monte Carlo path RMSEs; the library
computes the same numbers without forming the ``n x p`` paths."""

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
