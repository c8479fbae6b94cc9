"""Factor-based forecasting, error metrics, and equal-predictive-ability tests.

The gt forecast reads one decomposition only: it fits a VAR(1) to the
differenced trend paths and one AR(1) per stationary factor, iterates both
and maps the factor forecasts back through the loadings, around the panel's
column means.  The forecasts of the observed panel are evaluated against
baseline methods over expanding-window origins.  Every AR(1) is a VAR(1)
with a diagonal coefficient matrix, so one recursion iterates every
forecast.  Each method and horizon is scored from one error array
``e = yhat - y`` (origins by series): FE_h is the mean over origins of
``||e|| / sqrt(p)``, the mean of the loss series the DM test compares, and
RMSFE is ``sqrt(mean over origins of e**2)``, one value per series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr

from .errors import ArgumentError
from .pipeline import PipelineConfig, _is_int, decompose
from .tsstats import as_panel, constant_columns, constant_floor, sym_eigen
from .unitroot import probe_lags

__all__ = [
    "Var1Fit",
    "DmResult",
    "ForecastReport",
    "forecast_y",
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


def _ar1_columns(x: np.ndarray) -> Var1Fit:
    """OLS regressions of ``x_t`` on ``(1, x_{t-1})``, one per column of ``x``,
    as one VAR(1) with a diagonal ``coef``.

    A column whose lagged part is constant (:func:`constant_columns` of its
    variance) has a constant regressor, so it gets coefficient 0 and its own
    mean as the intercept, which continues a constant path.
    """
    xt = np.ascontiguousarray(x.T)  # reductions along contiguous rows run far faster
    lagged, current = xt[:, :-1], xt[:, 1:]
    n = lagged.shape[1]
    lag_mean, cur_mean = lagged.sum(axis=1) / n, current.sum(axis=1) / n
    lag_c = lagged - lag_mean[:, None]
    sxx = np.einsum("ij,ij->i", lag_c, lag_c) / n
    sxy = np.einsum("ij,ij->i", lag_c, current - cur_mean[:, None]) / n
    flat = constant_columns(sxx, lagged.T)
    phi = np.where(flat, 0.0, sxy / np.where(flat, 1.0, sxx))
    intercept = np.where(flat, xt.sum(axis=1) / xt.shape[1], cur_mean - phi * lag_mean)
    return Var1Fit(np.diag(phi), intercept)


def _var1_least_squares(f: np.ndarray) -> tuple[Var1Fit, np.ndarray]:
    """Least-squares regression of ``f_t`` on ``(1, f_{t-1})`` by one thin SVD.

    Returns the fit and the ``|t|`` statistic of each ``coef`` entry (``inf``
    where the standard error is zero).  Singular values below ``lstsq``'s
    default cutoff are treated as zero, so a rank-deficient design gets the
    minimum-norm solution, and an ``f`` without columns an empty fit.
    """
    design = np.ones((f.shape[0] - 1, f.shape[1] + 1))
    design[:, 1:] = f[:-1]
    target = f[1:]
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    inv_sv = np.zeros_like(sv)
    # a design without rows (one difference and no trends) has no singular value
    cutoff = np.finfo(float).eps * max(design.shape) * sv.max(initial=0.0)
    np.divide(1.0, sv, out=inv_sv, where=sv > cutoff)
    beta = vt.T @ (inv_sv[:, None] * (u.T @ target))
    resid = target - design @ beta
    sigma2 = np.einsum("ij,ij->j", resid, resid) / max(design.shape[0] - design.shape[1], 1)
    # the diagonal of the pseudo-inverse of design' design
    gram_inv_diag = (vt * vt).T @ (inv_sv * inv_sv)
    se = np.sqrt(np.outer(gram_inv_diag[1:], sigma2))
    # |b| / se is |b / se| exactly; a zero standard error gives inf
    tstat = np.divide(np.abs(beta[1:]), se, out=np.full_like(se, np.inf), where=se > 0).T
    return Var1Fit(coef=beta[1:].T, intercept=beta[0]), tstat


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
    return np.cumsum(np.concatenate([level[None], steps]), axis=0)[1:]


def _dfar_path(y: np.ndarray, h_max: int) -> np.ndarray:
    """AR(1) on the first differences of every column, re-integrated."""
    if len(y) < 4:  # the fit regresses n - 2 differences on their lags
        raise ArgumentError(f"differenced AR(1) needs a panel of n >= 4, got n = {len(y)}")
    d = y[1:] - y[:-1]
    return _integrate(y[-1], _var1_path(_ar1_columns(d), d[-1], h_max))


def _gt_forecast(dec, h_max: int) -> np.ndarray:
    """Forecasts of the observed panel for every horizon ``1..h_max``.

    ``dec`` is a :class:`~trendfactors.pipeline.Decomposition`; the forecast
    reads its ``A1``, ``x1``, ``A2U1`` (the stationary factors' loadings
    ``A2 @ U1``), ``z2`` and ``ybar`` (the panel's column means).  It fits a
    VAR(1) to the first differences of the trend paths ``x1`` and one AR(1)
    per stationary factor path of ``z2``, iterates both, and re-integrates
    the trend differences.  Each row is ``ybar + A1 (x1_{n+h} - mean x1)
    + A2 U1 (z2_{n+h} - mean z2)``: the stationary block keeps its mean
    ``A2 A2' ybar``, so the forecast of ``y + c`` is the forecast of ``y``
    plus ``c``.  With no trends the trend part is an ``(h_max, 0)`` path
    and adds zeros.  The trend VAR(1) needs ``r1_hat + 3`` rows.
    """
    if not _is_int(h_max) or h_max < 1:
        raise ArgumentError(f"horizon must be an integer >= 1, got {h_max!r}")
    x1, z2 = dec.x1, dec.z2
    n, r = x1.shape
    if r and n < r + 3:
        raise ArgumentError(f"gt's trend VAR(1) on differences needs r1_hat + 3 = {r + 3} "
                            f"rows, got {n} rows with r1_hat = {r}")
    trend = _var1_least_squares(x1[1:] - x1[:-1])[0]
    stat = _ar1_columns(z2)
    x1f = _integrate(x1[-1], _var1_path(trend, x1[-1] - x1[-2], h_max))
    z2f = _var1_path(stat, z2[-1], h_max)
    # the means of x1 = y A1 are ybar A1, so the trend part keeps ybar A1 A1'
    x1f -= np.einsum("ti->i", x1) / n
    z2f -= np.einsum("ti->i", z2) / n
    return dec.ybar + x1f @ dec.A1.T + z2f @ dec.A2U1.T


def forecast_y(dec, h: int) -> np.ndarray:
    """The ``h``-step-ahead forecast vector of the observed panel, from the
    gt forecast of the :class:`~trendfactors.pipeline.Decomposition` ``dec``."""
    return _gt_forecast(dec, h)[h - 1]


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
    continued at its mean difference.  ``nfac = 0`` gives the sample-mean
    path (levels) or the last level continued at the mean difference.
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
        mean = np.einsum("ti->i", y) / pan.n
        yc = y - mean
        loadings = sym_eigen(yc.T @ yc / pan.n).vectors[:, :nfac]
        return _dfar_path(yc @ loadings, h_max) @ loadings.T + mean
    d = y[1:] - y[:-1]
    if d.shape[0] < 4:
        raise ArgumentError("differences mode needs n >= 5")
    dmean = np.einsum("ti->i", d) / len(d)
    dc = d - dmean
    var = np.einsum("ti,ti->i", dc, dc) / len(d)
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

    With ``e`` the forecast errors at horizon ``h`` (one row per origin),
    ``fe[method][h]`` is FE_h, the mean over origins of ``||e|| / sqrt(p)``,
    which is the mean of the loss series that ``dm`` compares;
    ``rmsfe_series[method]`` is an ``(H, p)`` array whose row for ``h`` is
    ``sqrt(mean over origins of e**2)``, one value per series;
    ``dm[(a, b)][h]`` is the equal-predictive-ability test of method ``a``
    against ``b``, and ``forecasts[method]`` the ``(H, p)`` forecasts
    issued from the full sample.
    """

    horizons: tuple[int, ...]
    methods: tuple[str, ...]
    window_start: int
    origins: dict
    forecasts: dict
    fe: dict
    rmsfe_series: dict
    dm: dict
    meta: dict


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
    first method in ``methods``, in the order given, is tested pairwise
    against the others for equal predictive ability.  The first training
    window ``y[:window_start]`` is decomposed only for the gt forecast at the
    first origin and for a requested PCA method without a given count (the
    trend count for levels, the total factor count for differences; ``meta``
    holds each count used, ``None`` for a method not requested), so when it
    is needed ``window_start`` must leave room for every lag ``decompose``
    probes; ``dfar`` and ``pca_levels`` need ``window_start >= 4`` and
    ``pca_diff`` needs 5.  gt also needs ``r1_hat + 3`` rows at every origin
    for its trend VAR(1); ``r1_hat`` depends on the window's data, so that
    is checked origin by origin, not up front.  When more than one method
    is requested, ``window_start`` must leave at least ``MIN_DM_LOSSES`` (8)
    origins at the largest horizon, the fewest losses ``dm_test`` accepts;
    a single method may use fewer.
    """
    pan = as_panel(panel)
    y = pan.data
    n, p = pan.n, pan.p
    horizons = tuple(sorted(set(config.horizons)))
    h_max = max(horizons)
    w = config.window_start if config.window_start is not None else max(int(0.8 * n), 20)
    if w + h_max > n:
        raise ArgumentError(f"window too short: no forecast origin at horizon {h_max} fits "
                            f"before the data end (window_start={w}, n={n})")
    methods = tuple(methods)
    if not methods or len(set(methods)) < len(methods):
        raise ArgumentError(f"methods must name at least one method, each once; got {methods}")
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
    # the requested PCA methods' counts; a missing one is read off dec0 below
    counts = {"pca_levels": pca_nfac_levels, "pca_diff": pca_nfac_diff}
    counts = {m: counts[m] for m in methods if m in counts}
    # the first training window's length bounds every fit: dfar's AR(1) and
    # levels mode regress n - 2 differences on their lags, differences mode
    # needs 4 differences, and every lag decompose probes (k0, j0, the
    # Ljung-Box m and the largest ACF lag) must be at most n - 2
    dec_need = max(int(probe_lags(config.l, config.m)[-1]), config.k0, config.j0, config.m) + 2
    method_need = {"gt": dec_need, "dfar": 4, "pca_levels": 4, "pca_diff": 5}
    needs = {f"method {m!r}": method_need[m] for m in methods}
    if None in counts.values():
        needs["the decomposition behind the default PCA factor counts"] = dec_need
    binding = max(needs, key=needs.get)
    if w < needs[binding]:
        raise ArgumentError(f"window_start={w} is too short: {binding} needs "
                            f"window_start >= {needs[binding]}")
    dec0 = decompose(y[:w], config) if "gt" in methods or None in counts.values() else None
    if "pca_levels" in counts and counts["pca_levels"] is None:
        counts["pca_levels"] = max(dec0.r1_hat, 1)
    if "pca_diff" in counts and counts["pca_diff"] is None:
        counts["pca_diff"] = min(max(dec0.r1_hat + dec0.r2_hat, 1), p)
    # every training window is a prefix of y, so its length identifies it
    forecasters = {
        "gt": lambda train, h: _gt_forecast(dec0 if len(train) == w
                                            else decompose(train, config), h),
        "dfar": baseline_dfar,
        "pca_levels": lambda train, h: baseline_pca(train, counts["pca_levels"], "levels", h),
        "pca_diff": lambda train, h: baseline_pca(train, counts["pca_diff"], "differences", h),
    }

    # origin w + i forecasts row w + i + h - 1 of y, so horizon h has n - h - w + 1 origins
    origins = {h: n - h - w + 1 for h in horizons}
    taus = range(w, n - min(horizons) + 1)
    paths = {m: np.stack([forecasters[m](y[:tau], h_max) for tau in taus]) for m in methods}
    # one error array per method and horizon: rows are origins, columns series
    errors = {m: {h: paths[m][:origins[h], h - 1] - y[w + h - 1:] for h in horizons}
              for m in methods}
    losses = {m: {h: np.linalg.norm(e, axis=1) / math.sqrt(p) for h, e in errors[m].items()}
              for m in methods}
    fe = {m: {h: float(np.mean(loss)) for h, loss in losses[m].items()} for m in methods}
    rmsfe_series = {m: np.array([np.sqrt(np.mean(e ** 2, axis=0)) for e in errors[m].values()])
                    for m in methods}

    lead = methods[0]
    dm = {(lead, other): {h: dm_test(losses[lead][h], losses[other][h]) for h in horizons}
          for other in methods[1:]}

    forecasts = {m: forecasters[m](y, h_max)[[h - 1 for h in horizons]] for m in methods}
    return ForecastReport(
        horizons=horizons, methods=methods, window_start=w, origins=origins,
        forecasts=forecasts, fe=fe, rmsfe_series=rmsfe_series, dm=dm,
        meta={"pca_nfac_levels": counts.get("pca_levels"),
              "pca_nfac_diff": counts.get("pca_diff")},
    )
