"""Foundational time-series statistics.

The panel type, the Gram sums of sample autocovariances that both
eigen-stage matrices are built from, centered columns with their
constant-column mask, the autocorrelations that the first stage and
Ljung-Box read, and the dense symmetric eigensolver contract used by every
downstream stage.

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
    if not np.isfinite(arr).all():
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


def autocov_gram(pan: TimeSeriesPanel, lags) -> np.ndarray:
    """``sum_{k in lags} C(k) C(k)'`` over the lag-``k`` sample covariances
    ``C(k) = (1/n) sum_{t=k+1..n} (y_t - ybar)(y_{t-k} - ybar)'``, with
    ``ybar`` the full-sample mean and divisor ``n`` at every lag (the
    convention of every stage).  The panel is centered once for all lags,
    with the column sums taken by ``einsum`` as in :func:`centered_columns`
    (the last bits can differ from ``sum(axis=0)`` on one column and on a
    Fortran-ordered panel, such as :func:`~trendfactors.unitroot.first_stage`'s
    row-space coordinates when ``p >= n``); each ``C C'`` is one ``syrk``,
    exactly symmetric."""
    yc = pan.data - np.einsum("ti->i", pan.data) / pan.n
    gram = np.zeros((pan.p, pan.p))
    for k in lags:
        c = yc[k:].T @ yc[: pan.n - k] / pan.n
        gram += c @ c.T
    return gram


def constant_floor(level):
    """Variance at or below which a series reaching ``level`` in magnitude is
    constant, ``(1e-13 * max(1, level))^2``.  Taken from the uncentered level,
    it flags a constant whose mean is inexact (centered, a rounding residue)."""
    return (1e-13 * np.maximum(1.0, level)) ** 2


def constant_columns(variance: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mask of the columns of ``x`` whose ``variance`` is at most the
    :func:`constant_floor` of their largest magnitude ``max |x|``."""
    # max |x| over all of x first, as max(max x, -min x) with no |x| array: only
    # a column under that floor can be flagged, and a column-wise max costs more
    flat = variance <= constant_floor(max(x.max(initial=0.0), -x.min(initial=0.0)))
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

    The column sums are ``np.einsum("ti->i", x)``, which on a narrow
    C-ordered array costs a fraction of ``x.sum(axis=0)``.  On a C-ordered
    array of two or more columns both add each column's entries in row
    order, so the bits are the same.  Where a column is contiguous in memory
    (one column, or a Fortran-ordered array) both sum it in blocks, in
    different orders, so the last bits can differ.
    """
    xc = x - np.einsum("ti->i", x) / x.shape[0]
    gamma0 = np.einsum("ti,ti->i", xc, xc) / x.shape[0]
    return xc, gamma0, constant_columns(gamma0, x)


def acf_profile(components: np.ndarray, lags, centered=None) -> np.ndarray:
    """Sample autocorrelations of every column at every lag in ``lags``.

    Returns a C-ordered array of shape ``(d, len(lags))``.  Columns that
    :func:`centered_columns` flags as constant get a row of exact zeros:
    stationary to the first stage, white noise to Ljung-Box.  ``centered``
    may pass in ``centered_columns(components)``; otherwise the columns are
    centered with its ``einsum`` column sums, whose last bits can differ
    from ``sum(axis=0)``'s on one column or a Fortran-ordered array.  Each
    lag's sums of products are one ``einsum`` into a row of one
    ``(len(lags), d)`` array, divided by ``n`` and then by ``gamma0`` in
    one operation each: every entry gets the operations of a lag-by-lag
    ``einsum(...) / n / gamma0``.
    """
    x = np.asarray(components, dtype=float)
    n, d = x.shape
    xc, gamma0, degenerate = centered_columns(x) if centered is None else centered
    gk = np.empty((len(lags), d))
    for j, k in enumerate(lags):
        k = int(k)
        np.einsum("ti,ti->i", xc[k:], xc[: n - k], out=gk[j])
    gk /= n
    # C-ordered like the lag-by-lag result: scan_r1 sums its rows, and a row
    # sum's bits follow the layout
    out = np.zeros((d, len(lags)))
    np.divide(gk.T, gamma0[:, None], out=out, where=~degenerate[:, None])
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

    Ties go to the first such entry.  The columns are multiplied by a row of
    signs, and multiplying by 1 or -1 is exact, so the result is bit-identical
    to flipping the columns one at a time.
    """
    out = np.asarray(vectors, dtype=float).copy()
    if out.size:
        peak = out[np.abs(out).argmax(axis=0), np.arange(out.shape[1])]
        out *= np.where(peak < 0, -1.0, 1.0)
    return out
