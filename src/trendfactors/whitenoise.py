"""Counting white-noise components among the transformed stationary series.

:func:`count_factors` determines how many of the eigen-transformed
components are white noise (and hence how many stationary factors remain)
by one of two procedures: a bottom-up per-component Ljung-Box scan for low
dimensions, or a sequential high-dimensional multi-series test for larger
panels, optionally preceded by reordering the components by their Ljung-Box
statistics so the most serially dependent ones are examined first.

The multi-series statistic is ``sqrt(n)`` times the maximum absolute
cross-correlation over all component pairs and lags ``1..m``, compared
against the Bonferroni-Gaussian threshold at ``1 - alpha / (2 d^2 m)``.  It
is conservative by construction; its empirical size is pinned by the test
suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtri

from .errors import ArgumentError
from .tsstats import centered_columns

__all__ = ["FactorCounts", "count_factors"]


@dataclass(frozen=True)
class FactorCounts:
    """Factor counts of one component panel, per requested reorder variant.

    ``pvalues`` are the Ljung-Box p-values in input column order (1 for
    constant components).  For a
    variant ``reorder``, ``order[reorder]`` is its testing order (a
    permutation of the columns) and ``r2[reorder]`` the number of leading
    components in that order counted as factors; the other ``d - r2`` are
    white noise.  ``truncated`` is the number of trailing components the
    sequential test left out because the panel is wide.
    """

    pvalues: np.ndarray
    order: dict
    r2: dict
    truncated: int


def _ljung_box(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column Ljung-Box statistics ``Q(m)``, their p-values (1 for constant
    columns) and the degenerate-column mask."""
    n, d = x.shape
    if not 1 <= m <= n - 2:
        raise ArgumentError(f"m={m} outside [1, {n - 2}] for n={n}")
    xc, gamma0, degenerate = centered_columns(x)
    safe_gamma0 = np.where(degenerate, 1.0, gamma0)
    q = np.zeros(d)
    for k in range(1, m + 1):
        rho = (np.einsum("ti,ti->i", xc[k:], xc[: n - k]) / n) / safe_gamma0
        q += rho * rho / (n - k)
    q *= n * (n + 2)
    pvalues = chdtrc(m, q)
    pvalues[degenerate] = 1.0
    return q, pvalues, degenerate


def _testing_order(q: np.ndarray, degenerate: np.ndarray, reorder: bool) -> np.ndarray:
    # stable sorts: degenerate components last, then (optionally) by Q descending,
    # which orders as the p-values do but without their ties at underflow to 0
    index = np.arange(q.size)
    return np.lexsort((index, -q, degenerate) if reorder else (index, degenerate))


def _peak_abs_corr(x: np.ndarray, m: int) -> np.ndarray:
    """Largest absolute cross-correlation ``max_k |rho_ij(k)|`` over lags 1..m.

    Returns a ``d x d`` array whose rows and columns of degenerate components
    are zeroed, so they never enter a max.
    """
    n, d = x.shape
    xc, gamma0, degenerate = centered_columns(x)
    sd = np.sqrt(np.where(degenerate, 1.0, gamma0))
    peak = np.zeros((d, d))
    for k in range(1, m + 1):
        cov = xc[k:].T @ xc[: n - k] / n
        np.maximum(peak, np.abs(cov / np.outer(sd, sd)), out=peak)
    peak[degenerate, :] = 0.0
    peak[:, degenerate] = 0.0
    return peak


def _bonferroni_threshold(d, m: int, alpha: float):
    """Gaussian quantile at ``1 - alpha / (2 d^2 m)``; ``d`` may be an array."""
    return ndtri(1.0 - alpha / (2.0 * d * d * m))


def _kept_width(n: int, d: int, epsilon: float) -> int:
    """Components entering the sequential test: all of them unless ``d >= n``."""
    if d < n:
        return d
    keep = int(np.floor(epsilon * n))
    if keep < 1:
        raise ArgumentError(f"epsilon={epsilon} keeps no components at n={n}")
    return keep


def _count_drops(peak: np.ndarray, n: int, m: int, alpha: float) -> int:
    """Leading components dropped before the remainder tests white.

    ``peak`` holds the lag-maximal absolute cross-correlations of the kept
    components in testing order; after ``j`` drops the statistic is
    ``sqrt(n)`` times the largest entry of ``peak[j:, j:]``, which is the
    largest ``head[t]`` over ``t >= j`` when ``head[t]`` is the largest entry
    whose smaller index is ``t``.
    """
    kept = peak.shape[0]
    head = np.triu(np.maximum(peak, peak.T)).max(axis=1, initial=0.0)
    statistic = np.sqrt(n) * np.maximum.accumulate(head[::-1])[::-1]
    white = statistic <= _bonferroni_threshold(kept - np.arange(kept), m, alpha)
    return int(np.argmax(white)) if white.any() else kept


def count_factors(
    xi,
    m: int,
    alpha: float,
    reorders=(True,),
    epsilon: float = 0.75,
    bottom_up: bool = False,
    null: int = 0,
) -> FactorCounts:
    """Count the factors among the components, for each reorder variant at once.

    With ``bottom_up`` the components are tested one at a time with the
    Ljung-Box statistic, from the last (least dependent) one; the count is
    the position of the first non-white component, and the given order is
    the testing order of every variant.  Otherwise each variant orders the
    components and runs the sequential multi-series test: the leading
    component is dropped after each rejection, and the number of drops is
    the count.  The order with ``reorder`` sorts the Ljung-Box statistics
    descending (p-values ascending), so the most serially dependent
    components come first; without it the given order is kept.  Ties keep
    their given relative order, and constant components (p-value 1) go last
    in either order.  When the panel is at least as wide as it is long,
    only the leading ``floor(epsilon * n)`` components of each order enter
    the test and the truncated tail counts as white noise.

    The Ljung-Box p-values and the cross-correlations are computed once, the
    latter only over the components that some variant keeps.

    ``null`` further components, constant by construction (the null space
    of a wide panel), follow the ``t`` columns of ``xi`` as columns
    ``t .. t + null - 1``.  They are not tested: they are white noise with p-value
    1, last in every order, and they count toward the width that sets the
    truncation and the threshold.  The constant-component warning concerns
    the columns of ``xi`` only.
    """
    x = np.asarray(xi, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ArgumentError(f"component panel must be n x d with d >= 1, got {x.shape}")
    if not 0.0 < alpha < 1.0:
        raise ArgumentError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < epsilon <= 1.0:
        raise ArgumentError(f"epsilon must lie in (0, 1], got {epsilon}")
    n, tested = x.shape
    d = tested + null
    q, pvalues, degenerate = _ljung_box(x, m)
    pvalues = np.concatenate([pvalues, np.ones(null)])
    if bottom_up:
        r2 = next((i for i in range(tested, 0, -1) if pvalues[i - 1] < alpha), 0)
        return FactorCounts(pvalues, dict.fromkeys(reorders, np.arange(d)),
                            dict.fromkeys(reorders, r2), 0)
    if degenerate.any():
        warnings.warn(f"{int(degenerate.sum())} constant component(s) treated as white noise",
                      stacklevel=2)
    keep = _kept_width(n, d, epsilon)
    orders = {
        reorder: np.concatenate([_testing_order(q, degenerate, reorder), np.arange(tested, d)])
        for reorder in reorders
    }
    # the first variant's kept components, then any further ones the others keep
    kept = np.concatenate([order[:keep] for order in orders.values()])
    columns = np.array(list(dict.fromkeys(kept.tolist())), dtype=int)
    columns = columns[columns < tested]
    # the constant components read the appended row and column of zeros
    peak = np.zeros((columns.size + 1, columns.size + 1))
    peak[:-1, :-1] = _peak_abs_corr(x[:, columns], m)
    position = np.full(d, columns.size)
    position[columns] = np.arange(columns.size)
    counts = {}
    for reorder, order in orders.items():
        idx = position[order[:keep]]
        counts[reorder] = _count_drops(peak[np.ix_(idx, idx)], n, m, alpha)
    return FactorCounts(pvalues, orders, counts, d - keep)
