"""Foundational time-series statistics.

Sample autocovariances (divisor ``n`` at every lag), autocorrelations,
the Ljung-Box portmanteau test with its chi-square tail, and the dense
symmetric eigensolver contract used by every downstream stage.

All functions are pure: they never mutate their inputs and hold no state,
so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import chdtrc

from .errors import ArgumentError, DegenerateSeriesError

__all__ = [
    "TimeSeriesPanel",
    "EigenDecomposition",
    "as_panel",
    "sample_autocov",
    "sample_acf",
    "ljung_box",
    "chi2_sf",
    "is_degenerate",
    "centered_columns",
    "sym_eigen",
    "fix_signs",
]


@dataclass(frozen=True)
class TimeSeriesPanel:
    """An ``n x p`` panel of observations; row ``t`` is the time-``t`` vector."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ArgumentError(f"panel must be 2-dimensional, got ndim={arr.ndim}")
        n, p = arr.shape
        if n < 2 or p < 1:
            raise ArgumentError(f"panel needs n >= 2 and p >= 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ArgumentError("panel contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


def as_panel(panel) -> TimeSeriesPanel:
    """Coerce an array-like (or pass through a panel) to :class:`TimeSeriesPanel`."""
    if isinstance(panel, TimeSeriesPanel):
        return panel
    return TimeSeriesPanel(np.asarray(panel, dtype=float))


@dataclass(frozen=True)
class EigenDecomposition:
    """Real symmetric eigendecomposition with eigenvalues sorted descending.

    ``vectors[:, i]`` is the orthonormal eigenvector paired with ``values[i]``.
    """

    values: np.ndarray
    vectors: np.ndarray


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
    y = pan.data
    n = pan.n
    # k = n - 1 keeps exactly one summand and stays well defined
    if not 0 <= k <= n - 1:
        raise ArgumentError(f"lag k={k} outside [0, {n - 1}] for n={n}")
    yc = y - y.mean(axis=0)
    return yc[k:].T @ yc[: n - k] / n


def _centered(series) -> np.ndarray:
    x = np.asarray(series, dtype=float).ravel()
    if x.size < 2:
        raise ArgumentError("series needs at least 2 observations")
    if not np.all(np.isfinite(x)):
        raise ArgumentError("series contains non-finite entries")
    return x - x.mean()


def is_degenerate(xc: np.ndarray, gamma0):
    """Mask of centered columns treated as constant.

    A column is degenerate when its divisor-``n`` variance ``gamma0`` is at
    most ``(1e-13 * max(1, max |xc|))^2``.  The floor is absolute unless the
    centered column exceeds 1 in magnitude, which a column of rounding noise
    does not, so whether such a column is flagged depends on the scale of
    the data it came from; the null space of a panel with ``p >= n`` is
    therefore handled without it.  Works column-wise on an ``n x d`` array
    with a length-``d`` ``gamma0``, and on a single series with a scalar
    ``gamma0``.
    """
    scale = np.maximum(1.0, np.max(np.abs(xc), axis=0, initial=0.0))
    return gamma0 <= (1e-13 * scale) ** 2


def centered_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centered columns of an ``n x d`` array, their divisor-``n`` variances and
    the :func:`is_degenerate` mask."""
    xc = x - x.mean(axis=0)
    gamma0 = np.einsum("ti,ti->i", xc, xc) / x.shape[0]
    return xc, gamma0, is_degenerate(xc, gamma0)


def sample_acf(series, k: int) -> float:
    """Lag-``k`` sample autocorrelation of a univariate series.

    Uses divisor-``n`` autocovariances, so the value always lies in [-1, 1].
    Raises :class:`DegenerateSeriesError` for a constant series.
    """
    xc = _centered(series)
    n = xc.size
    if not 0 <= k <= n - 2:
        raise ArgumentError(f"lag k={k} outside [0, {n - 2}] for n={n}")
    gamma0 = float(xc @ xc) / n
    if is_degenerate(xc, gamma0):
        raise DegenerateSeriesError("constant series has no autocorrelation")
    if k == 0:
        return 1.0
    gamma_k = float(xc[k:] @ xc[: n - k]) / n
    return gamma_k / gamma0


class LjungBoxResult(NamedTuple):
    statistic: float
    pvalue: float


def ljung_box(series, m: int) -> LjungBoxResult:
    """Ljung-Box portmanteau statistic ``Q(m)`` and its chi-square p-value.

    ``Q = n(n+2) * sum_{k=1..m} acf(k)^2 / (n-k)``; the p-value is the
    upper tail of a chi-square with ``m`` degrees of freedom.
    """
    xc = _centered(series)
    n = xc.size
    if not 1 <= m <= n - 2:
        raise ArgumentError(f"m={m} outside [1, {n - 2}] for n={n}")
    gamma0 = float(xc @ xc) / n
    if is_degenerate(xc, gamma0):
        raise DegenerateSeriesError("constant series: Ljung-Box undefined")
    q = 0.0
    for k in range(1, m + 1):
        rho = (float(xc[k:] @ xc[: n - k]) / n) / gamma0
        q += rho * rho / (n - k)
    q *= n * (n + 2)
    return LjungBoxResult(statistic=q, pvalue=chi2_sf(q, m))


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of a chi-square distribution with ``df`` degrees of freedom."""
    if df < 1 or int(df) != df:
        raise ArgumentError(f"df must be a positive integer, got {df}")
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise ArgumentError(f"x must be finite and >= 0, got {x}")
    return float(chdtrc(df, x))


def sym_eigen(matrix) -> EigenDecomposition:
    """Full eigendecomposition of a real symmetric matrix.

    The input is symmetrized as ``(M + M') / 2`` before factorization and
    must already be symmetric to 1e-10 relative.  Eigenvalues come back in
    descending order; each eigenvector is sign-fixed so its largest-magnitude
    entry is positive, which makes snapshots deterministic (every downstream
    quantity is invariant to these sign flips).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ArgumentError("matrix contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0)))
    if float(np.max(np.abs(m - m.T), initial=0.0)) > 1e-10 * scale:
        raise ArgumentError("matrix is not symmetric within 1e-10 relative")
    sym = (m + m.T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    return EigenDecomposition(values=values[::-1].copy(), vectors=fix_signs(vectors[:, ::-1]))


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Copy of ``vectors`` with each column's largest-magnitude entry made positive.

    Ties go to the first such entry; negation is exact, so the result is
    bit-identical to flipping the columns one at a time.
    """
    out = np.asarray(vectors, dtype=float).copy()
    if out.size:
        peak = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
        out[:, peak < 0] *= -1.0
    return out
