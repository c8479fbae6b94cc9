"""The lag-``k`` sample covariance matrix, the reference for the library's
kernels; the library forms the covariances it needs inside those kernels."""

import numpy as np

from trendfactors.errors import ArgumentError
from trendfactors.tsstats import as_panel


def sample_autocov(panel, k: int) -> np.ndarray:
    """Lag-``k`` sample covariance matrix.

    Returns ``(1/n) * sum_{t=k+1..n} (y_t - ybar)(y_{t-k} - ybar)'`` with
    ``ybar`` the full-sample mean.  The divisor is ``n`` at every lag, which
    keeps the Ljung-Box inputs consistent with the matrix statistics built
    downstream.

    Parameters
    ----------
    panel : TimeSeriesPanel or array-like, shape (n, p)
    k : int
        Lag, ``0 <= k <= n - 2``.
    """
    pan = as_panel(panel)
    y, n = pan.data, pan.n
    # k = n - 1 keeps exactly one summand and stays well defined
    if not 0 <= k <= n - 1:
        raise ArgumentError(f"lag k={k} outside [0, {n - 1}] for n={n}")
    yc = y - y.sum(axis=0) / n
    return yc[k:].T @ yc[: n - k] / n
