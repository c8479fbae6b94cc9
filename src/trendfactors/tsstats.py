"""Foundational time-series statistics.

The panel type, sample autocovariances (divisor ``n`` at every lag) and
their Gram sums, centered columns with their constant-column mask, the
autocorrelations that both eigen-stages read, and the dense symmetric
eigensolver contract used by every downstream stage.

All functions are pure: they never mutate their inputs and hold no state,
so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

__all__ = [
    "TimeSeriesPanel",
    "EigenDecomposition",
    "as_panel",
    "sample_autocov",
    "autocov_gram",
    "constant_floor",
    "constant_columns",
    "centered_columns",
    "acf_profile",
    "sym_eigen",
    "fix_signs",
]


@dataclass(frozen=True)
class TimeSeriesPanel:
    """An ``n x p`` panel of observations; row ``t`` is the time-``t`` vector."""

    data: np.ndarray

    def __post_init__(self):
        arr = _real_array(self.data, "panel")
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ArgumentError(f"panel must be 2-dimensional, got ndim={arr.ndim}")
        n, p = arr.shape
        if n < 2 or p < 1:
            raise ArgumentError(f"panel needs n >= 2 and p >= 1, got shape {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array, or an :class:`ArgumentError` naming ``name``
    for complex, non-numeric or non-finite input."""
    try:
        arr = np.asarray(values)
        # a cast would drop imaginary parts with only a warning
        if np.iscomplexobj(arr):
            raise ArgumentError(f"{name} has complex entries; only real values are supported")
        arr = arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"{name} is not a numeric array: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise ArgumentError(f"{name} contains non-finite entries")
    return arr


def as_panel(panel) -> TimeSeriesPanel:
    """Coerce an array-like (or pass through a panel) to :class:`TimeSeriesPanel`."""
    if isinstance(panel, TimeSeriesPanel):
        return panel
    return TimeSeriesPanel(panel)


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
    y, n = pan.data, pan.n
    # k = n - 1 keeps exactly one summand and stays well defined
    if not 0 <= k <= n - 1:
        raise ArgumentError(f"lag k={k} outside [0, {n - 1}] for n={n}")
    yc = y - y.sum(axis=0) / n
    return yc[k:].T @ yc[: n - k] / n


def autocov_gram(pan: TimeSeriesPanel, lags) -> np.ndarray:
    """Symmetrized ``sum_{k in lags} C(k) C(k)'`` of :func:`sample_autocov`,
    centering the panel once for all lags."""
    yc = pan.data - pan.data.sum(axis=0) / pan.n
    gram = np.zeros((pan.p, pan.p))
    for k in lags:
        c = yc[k:].T @ yc[: pan.n - k] / pan.n
        gram += c @ c.T
    return (gram + gram.T) / 2.0


def constant_floor(level):
    """Variance at or below which a series reaching ``level`` in magnitude is
    constant, ``(1e-13 * max(1, level))^2``.  Taken from the uncentered level,
    it flags a constant whose mean is inexact (centered, a rounding residue)."""
    return (1e-13 * np.maximum(1.0, level)) ** 2


def constant_columns(variance: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mask of the columns of ``x`` whose ``variance`` is at most the
    :func:`constant_floor` of their largest magnitude ``max |x|``."""
    # a column-wise maximum over a narrow array costs several times one over
    # all of it, and only a column under the all-column floor can be flagged
    flat = variance <= constant_floor(np.abs(x).max(initial=0.0))
    if flat.any():
        flat = variance <= constant_floor(np.abs(x).max(axis=0, initial=0.0))
    return flat


def centered_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Centered columns of an ``n x d`` array, their divisor-``n`` variances
    ``gamma0`` and the mask of columns treated as constant.

    A column is constant when ``gamma0`` is at most the
    :func:`constant_floor` of its largest magnitude ``max |x|``
    (:func:`constant_columns`).  The floor is absolute unless the column
    exceeds 1 in magnitude, which a column of rounding noise does not, so
    whether such a column is flagged depends on the scale of the data it
    came from; the null space of a panel with ``p >= n`` is therefore
    handled without it.
    """
    xc = x - x.sum(axis=0) / x.shape[0]
    gamma0 = np.einsum("ti,ti->i", xc, xc) / x.shape[0]
    return xc, gamma0, constant_columns(gamma0, x)


def acf_profile(components: np.ndarray, lags, centered=None) -> np.ndarray:
    """Sample autocorrelations of every column at every lag in ``lags``.

    Returns an array of shape ``(d, len(lags))``.  Columns that
    :func:`centered_columns` flags as constant get a row of exact zeros:
    stationary to the first stage, white noise to Ljung-Box.  ``centered``
    may pass in ``centered_columns(components)``.
    """
    x = np.asarray(components, dtype=float)
    n, d = x.shape
    xc, gamma0, degenerate = centered_columns(x) if centered is None else centered
    ok = ~degenerate
    out = np.zeros((d, len(lags)))
    for j, k in enumerate(lags):
        k = int(k)
        gk = np.einsum("ti,ti->i", xc[k:], xc[: n - k]) / n
        np.divide(gk, gamma0, out=out[:, j], where=ok)
    return out


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
    # the largest magnitude is the symmetry scale, and NaN or inf if any entry is
    scale = float(np.abs(m).max(initial=0.0))
    if not scale < math.inf:
        raise ArgumentError("matrix contains non-finite entries")
    if float(np.abs(m - m.T).max(initial=0.0)) > 1e-10 * max(1.0, scale):
        raise ArgumentError("matrix is not symmetric within 1e-10 relative")
    sym = m + m.T
    sym *= 0.5
    values, vectors = np.linalg.eigh(sym)
    return EigenDecomposition(values=values[::-1].copy(), vectors=fix_signs(vectors[:, ::-1]))


def _lapack(routine, *args, **kwargs) -> np.ndarray:
    """First output of a LAPACK routine called with its queried optimal workspace."""
    lwork = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    *out, info = routine(*args, lwork=lwork, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned info={info}")
    return out[0]


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
