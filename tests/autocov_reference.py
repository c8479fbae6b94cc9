"""The lag-``k`` sample covariance matrix and the lag-by-lag autocorrelation
loop, the references for the library's kernels; the library forms the
covariances it needs inside those kernels."""

import numpy as np

from trendfactors.errors import ArgumentError
from trendfactors.tsstats import as_panel, centered_columns


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


def acf_profile_reference(components, lags) -> np.ndarray:
    """Autocorrelations of every column at every lag in ``lags``, one lag at a
    time: the lag's ``einsum`` divided by ``n``, then by ``gamma0`` into the
    lag's column of the result, where the column is not constant.  The
    centering is the library's :func:`~trendfactors.tsstats.centered_columns`.
    """
    x = np.asarray(components, dtype=float)
    n, d = x.shape
    xc, gamma0, degenerate = centered_columns(x)
    out = np.zeros((d, len(lags)))
    for j, k in enumerate(lags):
        k = int(k)
        gk = np.einsum("ti,ti->i", xc[k:], xc[: n - k]) / n
        np.divide(gk, gamma0, out=out[:, j], where=~degenerate)
    return out
