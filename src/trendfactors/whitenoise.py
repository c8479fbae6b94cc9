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
suite.  The count is exact although the cross-correlations are computed
from the end of the testing order, a block of components at a time: the
statistic after ``j`` drops never increases with ``j`` and the threshold
is largest at ``j = 0``, so once the trailing block's statistic exceeds it
no earlier ``j`` tests white.  The cost follows the white block, not ``d^2``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, ndtri

from .errors import ArgumentError
from .tsstats import acf_profile, centered_columns

__all__ = ["FactorCounts", "count_factors"]

# Components whose cross-correlations the trailing scan adds per step.
_SCAN_BLOCK = 128


@dataclass(frozen=True)
class FactorCounts:
    """Factor counts of one component panel, per requested reorder variant.

    ``pvalues`` are the Ljung-Box p-values in input column order (1 for
    constant components).  For a variant ``reorder``, ``order[reorder]`` is
    its testing order (a permutation of the columns) and ``r2[reorder]`` the
    number of leading components in that order counted as factors; the
    other ``d - r2`` are white noise.  ``truncated`` is the number of
    trailing components the sequential test left out because the panel is
    wide; its statistic after ``j`` drops was computed for the last
    ``scanned_components[reorder]`` values of ``j`` only.
    """

    pvalues: np.ndarray
    order: dict
    r2: dict
    truncated: int
    scanned_components: dict


def _ljung_box(x: np.ndarray, m: int, centered=None) -> tuple[np.ndarray, ...]:
    """Per-column Ljung-Box statistics ``Q(m)``, summed lag by lag from
    :func:`~trendfactors.tsstats.acf_profile`, their p-values and the
    degenerate-column mask (a constant column has ``Q = 0`` and p-value 1);
    ``centered`` may pass in ``centered_columns(x)``."""
    n = x.shape[0]
    if not 1 <= m <= n - 2:
        raise ArgumentError(f"m={m} outside [1, {n - 2}] for n={n}")
    centered = centered_columns(x) if centered is None else centered
    lags = np.arange(1, m + 1)
    rho = acf_profile(x, lags, centered)
    # cumsum adds the lags one at a time, in order, as a loop over them would
    q = np.cumsum(rho * rho / (n - lags), axis=1)[:, -1]
    q *= n * (n + 2)
    return q, chdtrc(m, q), centered[2]


def _testing_order(q: np.ndarray, degenerate: np.ndarray, reorder: bool) -> np.ndarray:
    # stable sorts: degenerate components last, then (optionally) by Q descending,
    # which orders as the p-values do but without their ties at underflow to 0
    index = np.arange(q.size)
    return np.lexsort((index, -q, degenerate) if reorder else (index, degenerate))


def _peak_abs_corr(xc: np.ndarray, sd: np.ndarray, m: int, rows, cols) -> np.ndarray:
    """Largest absolute cross-correlation ``max_k |rho_ij(k)|`` over lags 1..m.

    ``xc`` holds centered columns with standard deviations ``sd``; entry
    ``(i, j)`` of the ``len(rows) x len(cols)`` result pairs column
    ``rows[i]`` at time ``t + k`` with column ``cols[j]`` at time ``t``.
    """
    n = xc.shape[0]
    lead, lag = xc[:, rows], xc[:, cols]
    peak = np.zeros((lead.shape[1], lag.shape[1]))
    for k in range(1, m + 1):
        cov = lead[k:].T @ lag[: n - k]
        np.maximum(peak, np.abs(cov, out=cov), out=peak)
    return peak / n / np.outer(sd[rows], sd[cols])


def _fill_peak(peak, xc, sd, m, rows, cols) -> None:
    """Compute the NaN entries of the symmetric ``peak[rows, cols]``, for ``rows``
    among ``cols``; ``peak``'s last row and column are the constants' zeros."""
    rows = rows[np.isnan(peak[np.ix_(rows, cols)]).any(axis=1)]
    if not rows.size:
        return
    rest = np.setdiff1d(cols, np.append(rows, len(peak) - 1))
    both = np.concatenate([rows, rest])
    block = _peak_abs_corr(xc, sd, m, rows, both)
    own, other = block[:, : rows.size], block[:, rows.size:]
    np.maximum(own, own.T, out=own)
    if rest.size:
        np.maximum(other, _peak_abs_corr(xc, sd, m, rest, rows).T, out=other)
    peak[np.ix_(rows, both)] = block
    peak[np.ix_(both, rows)] = block.T


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


def _count_drops(head: np.ndarray, n: int, thresholds: np.ndarray) -> int:
    """Leading components dropped before the remainder tests white: the first
    ``j`` with ``sqrt(n) max(head[j:]) <= thresholds[j]``, where ``head[t]`` is
    the largest peak of kept component ``t`` with itself or a later one."""
    statistic = np.sqrt(n) * np.maximum.accumulate(head[::-1])[::-1]
    white = statistic <= thresholds
    return int(np.argmax(white)) if white.any() else head.size


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
    their given relative order, and constant components (Ljung-Box
    statistic 0, p-value 1) go last in either order, in index order.  When the panel is at least as wide as it is long,
    only the leading ``floor(epsilon * n)`` components of each order enter
    the test and the truncated tail counts as white noise.

    The Ljung-Box p-values are computed once; the cross-correlations only
    over each order's trailing kept components that its scan reaches (see
    the module docstring), and once for all variants.

    ``null`` further components, constant by construction (the null space
    of a wide panel), follow the ``t`` columns of ``xi`` as columns
    ``t .. t + null - 1``.  They are not tested: they are white noise with p-value
    1, last in every order, and they count toward the width that sets the
    truncation and the threshold.  The constant-component warning concerns
    the columns of ``xi`` only.  ``xi`` may have no columns: every count is
    then 0, every p-value 1 and each order ``arange(null)``, and without
    ``bottom_up`` the scan reaches every kept component.
    """
    x = np.asarray(xi, dtype=float)
    if x.ndim != 2:
        raise ArgumentError(f"component panel must be n x d, got {x.shape}")
    if not 0.0 < alpha < 1.0:
        raise ArgumentError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < epsilon <= 1.0:
        raise ArgumentError(f"epsilon must lie in (0, 1], got {epsilon}")
    n, tested = x.shape
    d = tested + null
    xc, gamma0, degenerate = centered = centered_columns(x)
    q, pvalues, _ = _ljung_box(x, m, centered)
    pvalues = np.concatenate([pvalues, np.ones(null)])
    if bottom_up:
        r2 = next((i for i in range(tested, 0, -1) if pvalues[i - 1] < alpha), 0)
        return FactorCounts(pvalues, dict.fromkeys(reorders, np.arange(d)),
                            dict.fromkeys(reorders, r2), 0, dict.fromkeys(reorders, 0))
    if degenerate.any():
        warnings.warn(f"{int(degenerate.sum())} constant component(s) treated as white noise",
                      stacklevel=2)
    keep = _kept_width(n, d, epsilon)
    orders = {
        reorder: np.concatenate([_testing_order(q, degenerate, reorder), np.arange(tested, d)])
        for reorder in reorders
    }
    constant = np.append(degenerate, np.ones(null, dtype=bool))
    # lag-maximal absolute cross-correlations, computed as the scans reach
    # them; the constant components read the appended row and column of zeros
    peak = np.full((tested + 1, tested + 1), np.nan)
    peak[-1] = peak[:, -1] = 0.0
    thresholds = _bonferroni_threshold(keep - np.arange(keep), m, alpha)
    counts, scanned = {}, {}
    for reorder, order in orders.items():
        idx = np.where(constant[order[:keep]], tested, order[:keep])
        head, start = np.full(keep, np.inf), keep
        # scan from the end; once the trailing statistic exceeds every
        # threshold, no earlier number of drops can test white
        while start > 0:
            stop, start = start, max(start - _SCAN_BLOCK, 0)
            _fill_peak(peak, xc, np.sqrt(gamma0), m, idx[start:stop], idx[start:])
            head[start:stop] = np.triu(peak[np.ix_(idx[start:stop], idx[start:])]).max(axis=1)
            if np.sqrt(n) * head[start:].max() > thresholds.max():
                break
        counts[reorder] = _count_drops(head, n, thresholds)
        scanned[reorder] = keep - start
    return FactorCounts(pvalues, orders, counts, d - keep, scanned)
