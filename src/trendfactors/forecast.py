"""Factor-based forecasting, error metrics, and equal-predictive-ability tests.

Fits simple dynamics to the extracted factors (a VAR(1) on the differenced
trend paths, one AR(1) per stationary factor), produces multi-step forecasts
of the observed panel, and evaluates them against baseline methods over
expanding-window origins.  Every AR(1) is a VAR(1) with a diagonal
coefficient matrix, so one recursion iterates every forecast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .errors import ArgumentError
from .pipeline import PipelineConfig, _is_int, decompose
from .tsstats import _real_array, as_panel, constant_columns, constant_floor, sym_eigen
from .unitroot import probe_lags

__all__ = [
    "Var1Fit",
    "FactorModelFit",
    "DmResult",
    "ForecastReport",
    "fit_factor_models",
    "forecast_path",
    "forecast_y",
    "fe_h",
    "rmsfe",
    "dm_test",
    "baseline_dfar",
    "baseline_pca",
    "evaluate_forecasts",
    "FORECAST_METHODS",
]

FORECAST_METHODS = ("gt", "dfar", "pca_levels", "pca_diff")
MIN_DM_LOSSES = 8  # the shortest loss series dm_test accepts


@dataclass(frozen=True)
class Var1Fit:
    """VAR(1) with intercept, ``x_t = intercept + coef @ x_{t-1}``; no
    stationarity restriction.  A diagonal ``coef`` holds one AR(1) per column."""

    coef: np.ndarray
    intercept: np.ndarray


@dataclass(frozen=True)
class FactorModelFit:
    """Dynamics fitted to the extracted factor paths.

    ``nonstat`` holds the VAR(1)-on-differences fit for the trend paths
    (``None`` when there are no trends); ``stat`` holds the scalar AR(1) fits
    of the stationary factors as one VAR(1) with a diagonal ``coef``.
    """

    nonstat: Var1Fit | None
    stat: Var1Fit


def _ar1_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OLS regressions of ``x_t`` on ``(1, x_{t-1})``, one per column of ``x``.

    Returns ``(phi, intercept, degenerate)``.  A column whose lagged part has
    variance at or below the ``constant_floor`` of ``max|x_{t-1}|`` is
    degenerate: its regressor is constant, so it gets ``phi = 0`` and its own
    mean as the intercept, which continues a constant path.
    """
    xt = np.ascontiguousarray(x.T)  # reductions along contiguous rows run far faster
    lagged, current = xt[:, :-1], xt[:, 1:]
    n = lagged.shape[1]
    lag_mean, cur_mean = lagged.sum(axis=1) / n, current.sum(axis=1) / n
    lag_c = lagged - lag_mean[:, None]
    sxx = np.einsum("ij,ij->i", lag_c, lag_c) / n
    sxy = np.einsum("ij,ij->i", lag_c, current - cur_mean[:, None]) / n
    degenerate = sxx <= constant_floor(np.abs(lagged).max(axis=1))
    phi = np.where(degenerate, 0.0, sxy / np.where(degenerate, 1.0, sxx))
    intercept = np.where(degenerate, xt.sum(axis=1) / xt.shape[1], cur_mean - phi * lag_mean)
    return phi, intercept, degenerate


def _var1_least_squares(f: np.ndarray) -> tuple[Var1Fit, np.ndarray]:
    """Least-squares regression of ``f_t`` on ``(1, f_{t-1})`` by one thin SVD.

    Returns the fit and the ``|t|`` statistic of each ``coef`` entry (``inf``
    where the standard error is zero).  Singular values below ``lstsq``'s
    default cutoff are treated as zero, so a rank-deficient design gets the
    minimum-norm solution.
    """
    design = np.ones((f.shape[0] - 1, f.shape[1] + 1))
    design[:, 1:] = f[:-1]
    target = f[1:]
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    inv_sv = np.zeros_like(sv)
    np.divide(1.0, sv, out=inv_sv, where=sv > np.finfo(float).eps * max(design.shape) * sv[0])
    beta = vt.T @ (inv_sv[:, None] * (u.T @ target))
    resid = target - design @ beta
    sigma2 = np.einsum("ij,ij->j", resid, resid) / max(design.shape[0] - design.shape[1], 1)
    # the diagonal of the pseudo-inverse of design' design
    gram_inv_diag = (vt * vt).T @ (inv_sv * inv_sv)
    se = np.sqrt(np.outer(gram_inv_diag[1:], sigma2))
    with np.errstate(divide="ignore", invalid="ignore"):
        tstat = np.where(se > 0, np.abs(beta[1:] / se), np.inf).T
    return Var1Fit(coef=beta[1:].T, intercept=beta[0]), tstat


def fit_factor_models(x1: np.ndarray, z2: np.ndarray) -> FactorModelFit:
    """Fit the trend VAR(1)-on-differences and per-factor AR(1) models to the
    factor paths ``x1`` and ``z2``: finite 2-D arrays of the same length, at
    least 2 rows long."""
    x1, z2 = _real_array(x1, "x1"), _real_array(z2, "z2")
    for name, arr in (("x1", x1), ("z2", z2)):
        if arr.ndim != 2:
            raise ArgumentError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if len(x1) != len(z2):
        raise ArgumentError(f"x1 and z2 must have equal row counts, got {len(x1)} and {len(z2)}")
    if len(x1) < 2:
        raise ArgumentError(f"factor paths need at least 2 rows, got {len(x1)}")
    return _fit_factor_models(x1, z2)


def _fit_factor_models(x1: np.ndarray, z2: np.ndarray) -> FactorModelFit:
    """:func:`fit_factor_models` on validated factor paths, such as a
    :class:`~trendfactors.pipeline.Decomposition`'s."""
    n, r = x1.shape
    if r and n < r + 3:
        raise ArgumentError(f"VAR(1)-on-differences needs n >= r + 3 = {r + 3}")
    nonstat = _var1_least_squares(np.diff(x1, axis=0))[0] if r else None
    phi, intercept, _ = _ar1_columns(z2)
    return FactorModelFit(nonstat=nonstat, stat=Var1Fit(np.diag(phi), intercept))


def _var1_path(fit: Var1Fit, state: np.ndarray, h_max: int) -> np.ndarray:
    """Iterate ``x <- intercept + coef @ x`` from ``state``; row ``j`` is step ``j + 1``."""
    # a diagonal coef gives the bits of phi * x: one rounded product plus exact zeros per row
    out = np.empty((h_max, state.size))
    for j in range(h_max):
        state = fit.intercept + fit.coef @ state
        out[j] = state
    return out


def _integrate(level: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Levels after each row of ``steps``, accumulated row by row from ``level``."""
    return np.cumsum(np.vstack([level, steps]), axis=0)[1:]


def _dfar_path(y: np.ndarray, h_max: int) -> np.ndarray:
    """AR(1) on the first differences of every column, re-integrated."""
    if len(y) < 4:  # the fit regresses n - 2 differences on their lags
        raise ArgumentError(f"differenced AR(1) needs a panel of n >= 4, got n = {len(y)}")
    d = np.diff(y, axis=0)
    phi, intercept, _ = _ar1_columns(d)
    return _integrate(y[-1], _var1_path(Var1Fit(np.diag(phi), intercept), d[-1], h_max))


def forecast_path(dec, fit: FactorModelFit, h_max: int) -> np.ndarray:
    """Forecasts of the observed panel for every horizon ``1..h_max``.

    ``dec`` is the :class:`~trendfactors.pipeline.Decomposition` that ``fit``
    was fitted to; the forecast reads its ``A1``, ``x1``, ``U1``, ``z2`` and
    ``A2_times(U1)`` (``A2 @ U1`` without a wide panel's null-space
    completion).  Each row is ``A1 x1_{n+h} + A2 U1 z2_{n+h}`` with the
    factor forecasts iterated from the fitted recursions (trend differences
    re-integrated).
    """
    if not _is_int(h_max) or h_max < 1:
        raise ArgumentError(f"horizon must be an integer >= 1, got {h_max!r}")
    x1 = dec.x1
    x1f = (np.zeros((h_max, x1.shape[1])) if fit.nonstat is None
           else _integrate(x1[-1], _var1_path(fit.nonstat, x1[-1] - x1[-2], h_max)))
    z2f = _var1_path(fit.stat, dec.z2[-1], h_max)
    trend_part = x1f @ dec.A1.T
    factor_part = z2f @ dec.A2_times(dec.U1).T if dec.U1.shape[1] else 0.0
    return trend_part + factor_part


def forecast_y(dec, fit: FactorModelFit, h: int) -> np.ndarray:
    """The ``h``-step-ahead forecast vector of the observed panel."""
    return forecast_path(dec, fit, h)[h - 1]


def fe_h(forecasts, actuals) -> float:
    """Average scaled forecast error over origins.

    Rows are forecast origins; the per-origin error is the Euclidean norm of
    the error vector divided by ``sqrt(p)``.
    """
    f = np.atleast_2d(np.asarray(forecasts, dtype=float))
    a = np.atleast_2d(np.asarray(actuals, dtype=float))
    if f.shape != a.shape:
        raise ArgumentError(f"shape mismatch: {f.shape} vs {a.shape}")
    if f.size == 0:
        raise ArgumentError("empty evaluation window")
    p = f.shape[1]
    return float(np.mean(np.linalg.norm(f - a, axis=1) / math.sqrt(p)))


def rmsfe(forecasts, actuals):
    """Root mean squared forecast error over origins (rows), one per series
    (column); a 1-D input is one series and gives a float."""
    f, a = np.asarray(forecasts, dtype=float), np.asarray(actuals, dtype=float)
    if f.shape != a.shape:
        raise ArgumentError(f"shape mismatch: {f.shape} vs {a.shape}")
    if f.ndim not in (1, 2):
        raise ArgumentError(f"forecasts must be 1- or 2-dimensional, got ndim={f.ndim}")
    if f.size == 0:
        raise ArgumentError("empty evaluation window")
    err = np.sqrt(np.mean((f - a) ** 2, axis=0))
    return float(err) if f.ndim == 1 else err


class DmResult(NamedTuple):
    statistic: float
    lrv: float
    pvalue: float
    degenerate: bool
    bandwidth: int


def dm_test(loss_a, loss_b, bandwidth: int | None = None) -> DmResult:
    """Equal-predictive-ability test on two aligned loss series.

    The statistic is the mean loss differential scaled by its Bartlett-kernel
    long-run variance (bandwidth ``floor(1.2 N^{1/3})`` unless supplied); the
    one-sided p-value is the lower Gaussian tail, small when method ``a``
    loses less than method ``b``.
    """
    a = np.asarray(loss_a, dtype=float).ravel()
    b = np.asarray(loss_b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ArgumentError(f"loss series lengths differ: {a.size} vs {b.size}")
    n = a.size
    if n < MIN_DM_LOSSES:
        raise ArgumentError(f"need at least {MIN_DM_LOSSES} losses, got {n}")
    d = a - b
    dbar = float(d.mean())
    if bandwidth is None:
        bandwidth = int(math.floor(1.2 * n ** (1.0 / 3.0)))
    if not _is_int(bandwidth) or not 0 <= bandwidth < n:
        raise ArgumentError(f"bandwidth must be an integer in [0, {n - 1}], got {bandwidth!r}")
    dc = d - dbar
    lrv = float(dc @ dc) / n
    for k in range(1, bandwidth + 1):
        gamma = float(dc[k:] @ dc[:-k]) / n
        lrv += 2.0 * (1.0 - k / (bandwidth + 1.0)) * gamma
    lrv = max(lrv, 0.0)
    floor = constant_floor(np.max(np.abs(d), initial=0.0))
    if lrv <= floor:
        if dbar * dbar <= floor:
            return DmResult(0.0, 0.0, 0.5, True, bandwidth)
        stat = math.inf if dbar > 0 else -math.inf
        return DmResult(stat, 0.0, float(ndtr(stat)), True, bandwidth)
    stat = dbar / math.sqrt(lrv / n)
    return DmResult(stat, lrv, float(ndtr(stat)), False, bandwidth)


def baseline_dfar(panel, h_max: int) -> np.ndarray:
    """Per-series AR(1) on first differences, re-integrated over horizons.

    A constant differenced series (e.g. an exact linear trend) falls back to
    continuing its mean difference, which reproduces the trend exactly.
    """
    pan = as_panel(panel)
    if not _is_int(h_max) or h_max < 1:
        raise ArgumentError(f"horizon must be an integer >= 1, got {h_max!r}")
    return _dfar_path(pan.data, h_max)


def baseline_pca(panel, nfac: int, mode: str, h_max: int) -> np.ndarray:
    """Principal-component forecasts on levels or standardized differences.

    Levels mode extracts components from the level covariance and forecasts
    each component with a differenced AR(1); differences mode extracts
    components from standardized first differences, forecasts them with a
    significance-thresholded VAR(1), and re-integrates.  A column whose
    differences have variance at most the ``constant_floor`` of their
    largest magnitude (an exact linear trend's) standardizes to zero and is
    continued at its mean difference.  ``nfac = 0`` degenerates to the
    sample-mean path (levels) or a frozen last level (differences).
    """
    pan = as_panel(panel)
    if not _is_int(nfac) or not 0 <= nfac <= pan.p:
        raise ArgumentError(f"nfac must be an integer in [0, {pan.p}], got {nfac!r}")
    if mode not in ("levels", "differences"):
        raise ArgumentError(f"mode must be 'levels' or 'differences', got {mode!r}")
    if not _is_int(h_max) or h_max < 1:
        raise ArgumentError(f"horizon must be an integer >= 1, got {h_max!r}")
    y = pan.data
    if mode == "levels":
        mean = y.sum(axis=0) / pan.n
        if nfac == 0:
            return np.tile(mean, (h_max, 1))
        yc = y - mean
        loadings = sym_eigen(yc.T @ yc / pan.n).vectors[:, :nfac]
        return _dfar_path(yc @ loadings, h_max) @ loadings.T + mean
    d = np.diff(y, axis=0)
    if d.shape[0] < 4:
        raise ArgumentError("differences mode needs n >= 5")
    if nfac == 0:
        return np.tile(y[-1], (h_max, 1))
    dmean = d.sum(axis=0) / len(d)
    dc = d - dmean
    var = (dc * dc).sum(axis=0) / len(d)
    # the differences of an exact linear trend are constant only up to
    # rounding; standardized, that rounding would become a unit-variance series
    flat = constant_columns(var, d)
    dc[:, flat] = 0.0
    dsd = np.where(flat, 1.0, np.sqrt(var))
    z = dc / dsd
    loadings = sym_eigen(z.T @ z / z.shape[0]).vectors[:, :nfac]
    factors = z @ loadings
    fit, tstat = _var1_least_squares(factors)
    fit = replace(fit, coef=np.where(tstat < 1.96, 0.0, fit.coef))
    return _integrate(y[-1], _var1_path(fit, factors[-1], h_max) @ loadings.T * dsd + dmean)


@dataclass(frozen=True)
class ForecastReport:
    """Expanding-window evaluation plus full-sample forecasts.

    ``fe[method][h]`` is the average scaled error, ``rmsfe_series[method]``
    an ``(H, p)`` array of per-series errors, ``dm[(a, b)][h]`` the
    equal-predictive-ability test of method ``a`` against ``b``, and
    ``forecasts[method]`` the ``(H, p)`` forecasts issued from the full
    sample.
    """

    horizons: tuple[int, ...]
    methods: tuple[str, ...]
    window_start: int
    origins: dict
    forecasts: dict
    fe: dict
    rmsfe_series: dict
    dm: dict
    meta: dict = field(default_factory=dict)


def _gt_forecast(dec, h_max: int) -> np.ndarray:
    return forecast_path(dec, _fit_factor_models(dec.x1, dec.z2), h_max)


def evaluate_forecasts(
    panel,
    config: PipelineConfig = PipelineConfig(),
    methods: tuple[str, ...] = FORECAST_METHODS,
    pca_nfac_levels: int | None = None,
    pca_nfac_diff: int | None = None,
) -> ForecastReport:
    """Expanding-window forecast evaluation on one panel.

    Models are re-estimated on ``y[1..tau]`` for every origin ``tau`` from
    ``window_start`` through ``n - h``; forecast errors are averaged per
    horizon, per-series errors are aggregated into RMSFE values, and the
    first method is tested pairwise against the others for equal predictive
    ability.  The first training window ``y[:window_start]`` is decomposed
    once: that decomposition gives the default PCA factor counts (the trend
    count for levels, the total factor count for differences) and the gt
    forecast at the first origin, so when it is needed ``window_start`` must
    leave room for every lag ``decompose`` probes.  When more than one method
    is requested, ``window_start`` must leave at least ``MIN_DM_LOSSES`` (8)
    origins at the largest horizon, the fewest losses ``dm_test`` accepts; a
    single method may use fewer.
    """
    pan = as_panel(panel)
    y = pan.data
    n, p = pan.n, pan.p
    horizons = tuple(sorted(set(config.horizons)))
    h_max = max(horizons)
    w = config.window_start if config.window_start is not None else max(int(0.8 * n), 20)
    if not 3 <= w < n:
        raise ArgumentError(f"window_start={w} outside [3, {n - 1}]")
    if w + h_max > n:
        raise ArgumentError(f"window too short: no forecast origin at horizon {h_max} fits "
                            f"before the data end (window_start={w}, n={n})")
    methods = tuple(methods)
    if not methods or len(set(methods)) < len(methods):
        raise ArgumentError(f"methods must name at least one method, each once; got {methods}")
    if methods[0] != "gt" and "gt" in methods:
        methods = ("gt",) + tuple(m for m in methods if m != "gt")
    for m in methods:
        if m not in FORECAST_METHODS:
            raise ArgumentError(f"unknown forecast method {m!r}; choose from {FORECAST_METHODS}")
    if len(methods) > 1 and n - h_max - w + 1 < MIN_DM_LOSSES:
        raise ArgumentError(
            f"window_start={w} leaves fewer than {MIN_DM_LOSSES} forecast origins at horizon "
            f"{h_max} to compare methods on; the largest admissible window_start is "
            f"{n - h_max - MIN_DM_LOSSES + 1}"
        )
    for name, nfac in (("pca_nfac_levels", pca_nfac_levels), ("pca_nfac_diff", pca_nfac_diff)):
        if nfac is not None and not (_is_int(nfac) and 0 <= nfac <= p):
            raise ArgumentError(f"{name} must be an integer in [0, {p}], got {nfac!r}")
    dec0 = None
    if "gt" in methods or pca_nfac_levels is None or pca_nfac_diff is None:
        # every lag decompose probes (k0, j0, the Ljung-Box m and the largest
        # ACF lag) must be at most the window length minus 2
        need = max(int(probe_lags(config.l, config.m)[-1]), config.k0, config.j0, config.m) + 2
        if w < need:
            raise ArgumentError(
                f"window_start={w} is too short to decompose the first training "
                f"window: the configuration needs window_start >= {need}"
            )
        dec0 = decompose(y[:w], config)
    if pca_nfac_levels is None:
        pca_nfac_levels = max(dec0.r1_hat, 1)
    if pca_nfac_diff is None:
        pca_nfac_diff = min(max(dec0.r1_hat + dec0.r2_hat, 1), p)
    # every training window is a prefix of y, so its length identifies it
    forecasters = {
        "gt": lambda train, h: _gt_forecast(dec0 if len(train) == w
                                            else decompose(train, config), h),
        "dfar": baseline_dfar,
        "pca_levels": lambda train, h: baseline_pca(train, pca_nfac_levels, "levels", h),
        "pca_diff": lambda train, h: baseline_pca(train, pca_nfac_diff, "differences", h),
    }

    # origin w + i forecasts row w + i + h - 1 of y, so horizon h has n - h - w + 1 origins
    origins = {h: n - h - w + 1 for h in horizons}
    taus = range(w, n - min(horizons) + 1)
    paths = {m: np.stack([forecasters[m](y[:tau], h_max) for tau in taus]) for m in methods}
    fe: dict = {m: {} for m in methods}
    rmsfe_series: dict = {}
    losses: dict = {m: {} for m in methods}
    for m in methods:
        series_err = np.full((len(horizons), p), np.nan)
        for hi, h in enumerate(horizons):
            fc, ac = paths[m][:origins[h], h - 1], y[w + h - 1:]
            fe[m][h] = fe_h(fc, ac)
            losses[m][h] = np.linalg.norm(fc - ac, axis=1) / math.sqrt(p)
            series_err[hi] = rmsfe(fc, ac)
        rmsfe_series[m] = series_err

    lead = methods[0]
    dm = {(lead, other): {h: dm_test(losses[lead][h], losses[other][h]) for h in horizons}
          for other in methods[1:]}

    forecasts = {m: forecasters[m](y, h_max)[[h - 1 for h in horizons]] for m in methods}
    return ForecastReport(
        horizons=horizons, methods=methods, window_start=w, origins=origins,
        forecasts=forecasts, fe=fe, rmsfe_series=rmsfe_series, dm=dm,
        meta={"pca_nfac_levels": pca_nfac_levels, "pca_nfac_diff": pca_nfac_diff},
    )
