"""Forecasting: factor-model fits, error metrics, DM test, baselines."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from trendfactors import forecast
from trendfactors.errors import ArgumentError
from trendfactors.forecast import (
    baseline_dfar,
    baseline_pca,
    dm_test,
    evaluate_forecasts,
    forecast_y,
)
from trendfactors.pipeline import PipelineConfig, decompose
from trendfactors.simgen import DgpSpec, generate
from trendfactors.unitroot import M1Eigen


def stationary_fits(z2):
    """The per-factor AR(1) fits the gt forecast iterates: one VAR(1) with a
    diagonal ``coef``."""
    return forecast._ar1_columns(z2)


def trend_fit(x1):
    """The VAR(1) on first differences the gt forecast fits to the trend paths."""
    return forecast._var1_least_squares(x1[1:] - x1[:-1])


def gt_levels(dec, x1f, z2f):
    """The gt forecast of the panel from forecast trend and factor paths:
    ``ybar + (x1f - mean x1) A1' + (z2f - mean z2) (A2 U1)'``, with the
    column means taken as the library takes them."""
    x1_mean = np.einsum("ti->i", dec.x1) / len(dec.x1)
    z2_mean = np.einsum("ti->i", dec.z2) / len(dec.z2)
    return dec.ybar + (x1f - x1_mean) @ dec.A1.T + (z2f - z2_mean) @ dec.A2U1.T


class TestFitAr1:
    def test_exact_geometric(self):
        x = 0.9 ** np.arange(30)
        fit = forecast._ar1_columns(x[:, None])
        assert fit.coef[0, 0] == pytest.approx(0.9, abs=1e-10)
        assert fit.intercept[0] == pytest.approx(0.0, abs=1e-10)

    def test_seeded_ar_recovered(self):
        rng = np.random.default_rng(0)
        x = np.empty(5000)
        x[0] = 0.0
        for t in range(1, 5000):
            x[t] = 0.5 * x[t - 1] + rng.normal()
        phi = forecast._ar1_columns(x[:, None]).coef[0, 0]
        assert 0.45 <= phi <= 0.55

    def test_explosive_flagged(self):
        # no stationarity restriction: an explosive root is kept on the diagonal
        x = np.column_stack([1.2 ** np.arange(40), 0.9 ** np.arange(40)])
        assert (np.abs(np.diag(stationary_fits(x).coef)) >= 1.0).tolist() == [True, False]


def ols_ar1_reference(x):
    """Per-column OLS of x_t on [1, x_{t-1}] by lstsq; a constant regressor gives (0, mean)."""
    phi, intercept = [], []
    for col in x.T:
        lagged, current = col[:-1], col[1:]
        if np.ptp(lagged) <= 1e-9 * max(1.0, np.abs(lagged).max()):
            phi.append(0.0)
            intercept.append(col.mean())
            continue
        design = np.column_stack([np.ones_like(lagged), lagged])
        (c, a), *_ = np.linalg.lstsq(design, current, rcond=None)
        phi.append(a)
        intercept.append(c)
    return np.array(phi), np.array(intercept)


def dfar_reference(y, h_max):
    """Differenced AR(1) per column, iterated and re-integrated one step at a time."""
    d = np.diff(y, axis=0)
    phi, intercept = ols_ar1_reference(d)
    out = np.empty((h_max, y.shape[1]))
    level, delta = y[-1].copy(), d[-1].copy()
    for j in range(h_max):
        delta = intercept + phi * delta
        level = level + delta
        out[j] = level
    return out


def var1_thresholded_reference(f):
    """VAR(1) with intercept by lstsq; slope coefficients with |t| < 1.96 set to zero.

    The t-statistics take the diagonal of pinv(X'X) and the residual variance
    over n - k, as the library does.
    """
    design = np.column_stack([np.ones(len(f) - 1), f[:-1]])
    target = f[1:]
    beta, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ beta
    sigma2 = (resid**2).sum(axis=0) / max(design.shape[0] - design.shape[1], 1)
    se = np.sqrt(np.outer(np.diag(np.linalg.pinv(design.T @ design)), sigma2))
    tstat = np.abs(beta) / se
    return beta[0], np.where(tstat[1:] < 1.96, 0.0, beta[1:]).T


def pca_differences_reference(y, nfac, h_max):
    """Standardized-difference PCA, thresholded VAR(1), iterated and re-integrated step by step.

    A column of differences with variance at most ``(1e-13 * max(1, max|d|))^2``
    (an exact linear trend's, constant up to rounding) standardizes to zero.
    """
    d = np.diff(y, axis=0)
    dmean, dsd = d.mean(axis=0), d.std(axis=0)
    flat = dsd**2 <= (1e-13 * np.maximum(1.0, np.abs(d).max(axis=0))) ** 2
    dsd = np.where(flat, 1.0, dsd)
    z = np.where(flat, 0.0, (d - dmean) / dsd)
    values, vectors = np.linalg.eigh(z.T @ z / len(z))
    loadings = vectors[:, np.argsort(values)[::-1][:nfac]]
    factors = z @ loadings
    intercept, coef = var1_thresholded_reference(factors)
    out = np.empty((h_max, y.shape[1]))
    state, level = factors[-1].copy(), y[-1].copy()
    for j in range(h_max):
        state = intercept + coef @ state
        level = level + (loadings @ state) * dsd + dmean
        out[j] = level
    return out


def panel_with_degenerate_columns(seed):
    """Random walks and an AR(1) plus a constant column and an exact linear trend."""
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.normal(size=(150, 6)), axis=0)
    for t in range(1, 150):
        y[t, 1] = 0.6 * y[t - 1, 1] + rng.normal()
    y[:, 2] = 4.25
    y[:, 4] = 1.5 - 0.35 * np.arange(150.0)
    return y


class TestAr1Columns:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lstsq_reference(self, seed):
        y = panel_with_degenerate_columns(seed)
        # the constant column is constant in levels; the trend only in differences
        for x, flat in ((y, [2]), (np.diff(y, axis=0), [2, 4])):
            fit = forecast._ar1_columns(x)
            phi = np.diag(fit.coef)
            assert np.array_equal(fit.coef, np.diag(phi))
            ref_phi, ref_intercept = ols_ar1_reference(x)
            np.testing.assert_allclose(phi, ref_phi, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(fit.intercept, ref_intercept, rtol=1e-12, atol=1e-12)
            # a constant lagged part: coefficient 0 and the column's own mean
            assert (phi == 0.0).tolist() == [c in flat for c in range(6)]
            np.testing.assert_allclose(fit.intercept[flat], x[:, flat].mean(axis=0), rtol=1e-15)

    def test_fit_ar1_matches_reference(self):
        # the AR(1) fits that the gt forecast iterates
        y = panel_with_degenerate_columns(3)
        ref_phi, ref_intercept = ols_ar1_reference(y)
        fit = stationary_fits(y)
        assert np.array_equal(fit.coef, np.diag(np.diag(fit.coef)))
        np.testing.assert_allclose(np.diag(fit.coef), ref_phi, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fit.intercept, ref_intercept, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dfar_matches_reference(self, seed):
        y = panel_with_degenerate_columns(seed)
        np.testing.assert_allclose(baseline_dfar(y, 5), dfar_reference(y, 5), rtol=1e-12)

    @pytest.mark.parametrize("nfac", [1, 3, 6])
    def test_pca_levels_matches_reference(self, nfac):
        y = panel_with_degenerate_columns(4)
        mean = y.mean(axis=0)
        yc = y - mean
        values, vectors = np.linalg.eigh(yc.T @ yc / y.shape[0])
        loadings = vectors[:, np.argsort(values)[::-1][:nfac]]
        expect = dfar_reference(yc @ loadings, 5) @ loadings.T + mean
        got = baseline_pca(y, nfac, "levels", 5)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * np.abs(y).max())


    @pytest.mark.parametrize("nfac", [1, 2, 4])
    def test_pca_differences_matches_reference(self, nfac):
        y = panel_with_degenerate_columns(5)
        expect = pca_differences_reference(y, nfac, 5)
        got = baseline_pca(y, nfac, "differences", 5)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * np.abs(y).max())

    @pytest.mark.parametrize("nfac", [1, 2, 3])
    def test_pca_differences_linear_trend_counts_as_constant(self, nfac):
        # the trend's differences have variance 4e-30, rounding only; standardized
        # to unit variance, they used to move column 0's 1-step forecast at
        # nfac = 2 from -8.571 to -8.528
        y = np.cumsum(np.random.default_rng(0).normal(size=(150, 3)), axis=0)
        trend, const = y.copy(), y.copy()
        trend[:, 2] = 1.5 - 0.35 * np.arange(150.0)
        const[:, 2] = 4.25
        got = baseline_pca(trend, nfac, "differences", 4)
        assert np.array_equal(got[:, :2], baseline_pca(const, nfac, "differences", 4)[:, :2])
        np.testing.assert_allclose(got[:, 2], 1.5 - 0.35 * np.arange(150.0, 154.0), rtol=1e-13)
        if nfac == 2:
            assert got[0, 0] == pytest.approx(-8.571020820288357, rel=1e-12)


class TestFitVar1Diff:
    """The trend VAR(1) on first differences that the gt forecast fits to x1."""

    def test_exact_recovery_noise_free(self):
        a = np.array([[0.5, 0.2], [-0.1, 0.3]])
        deltas = np.empty((39, 2))
        deltas[0] = [1.0, -0.7]
        for t in range(1, 39):
            deltas[t] = a @ deltas[t - 1]
        y = np.vstack([[0.0, 0.0], np.cumsum(deltas, axis=0)])
        fit = trend_fit(y)
        assert np.allclose(fit.coef, a, atol=1e-8)
        assert np.allclose(fit.intercept, 0.0, atol=1e-8)

    def test_random_walk_coefficients_near_zero(self):
        rng = np.random.default_rng(1)
        y = np.cumsum(rng.normal(size=(5000, 3)), axis=0)
        fit = trend_fit(y)
        assert np.linalg.norm(fit.coef, 2) <= 0.1

    def test_malformed_factor_paths_rejected(self):
        # too few rows for the trend VAR(1): unchecked, its fit is rank deficient;
        # the message names r1_hat, the rows needed and the rows given
        rng = np.random.default_rng(4)
        x1 = np.cumsum(rng.normal(size=(50, 1)), axis=0)
        dec = SimpleNamespace(A1=np.ones((3, 1)), A2U1=np.ones((3, 2)), ybar=np.zeros(3),
                              x1=x1[:3], z2=rng.normal(size=(3, 2)))
        with pytest.raises(ArgumentError, match=r"needs r1_hat \+ 3 = 4 rows, got 3 rows "
                                                r"with r1_hat = 1$"):
            forecast._gt_forecast(dec, 2)
        dec.x1, dec.z2 = x1[:4], rng.normal(size=(4, 2))
        assert forecast._gt_forecast(dec, 2).shape == (2, 3)

    def test_single_column_matches_ar1(self):
        rng = np.random.default_rng(2)
        y = np.cumsum(rng.normal(size=200))
        var_fit = trend_fit(y[:, None])
        (phi,), (intercept,) = ols_ar1_reference(np.diff(y)[:, None])
        assert var_fit.coef[0, 0] == pytest.approx(phi, abs=1e-10)
        assert var_fit.intercept[0] == pytest.approx(intercept, abs=1e-10)


class TestForecastY:
    def _decomp(self, y, config=PipelineConfig()):
        dec = decompose(y, config)
        return dec, SimpleNamespace(nonstat=trend_fit(dec.x1), stat=stationary_fits(dec.z2))

    def test_constant_factor_continues(self):
        # trend paths with exactly constant differences forecast linearly
        rng = np.random.default_rng(3)
        spec = DgpSpec(p=4, n=300, r1=1, r2=1, example=1, seed=9)
        panel, _ = generate(spec)
        dec = decompose(panel.data)
        path = forecast._gt_forecast(dec, 3)
        assert path.shape == (3, 4)
        assert np.allclose(forecast_y(dec, 2), path[1])

    def test_no_stationary_factors_trend_only(self):
        rng = np.random.default_rng(4)
        y = np.cumsum(rng.normal(size=(500, 2)), axis=0) @ np.array(
            [[0.8, -0.6], [0.6, 0.8]]
        )
        dec = decompose(y, PipelineConfig())
        if dec.r2_hat == 0:
            fit = trend_fit(dec.x1)
            got = forecast_y(dec, 1)
            trend_only = dec.x1[-1] + fit.intercept + fit.coef @ (dec.x1[-1] - dec.x1[-2])
            assert np.allclose(got, dec.A1 @ trend_only, atol=1e-10)

    @pytest.mark.blas_threads
    def test_no_stationary_factors_match_reference(self):
        # r2 = 0: the (h, 0) @ (0, p) factor product is zeros, so the forecast
        # is the trend part alone
        y = np.cumsum(np.random.default_rng(5).normal(size=(300, 3)), axis=0)
        dec, fit = self._decomp(y, PipelineConfig(c0=1e-6, l=1, m=5))
        assert dec.r1_hat == 3 and dec.r2_hat == 0
        levels, delta = [dec.x1[-1]], dec.x1[-1] - dec.x1[-2]
        for _ in range(4):
            delta = fit.nonstat.intercept + fit.nonstat.coef @ delta
            levels.append(levels[-1] + delta)
        expect = gt_levels(dec, np.array(levels[1:]), np.zeros((4, 0)))
        assert np.array_equal(forecast._gt_forecast(dec, 4), expect)

    @pytest.mark.parametrize("n", [2, 50])
    def test_no_trends_fit_an_empty_var1(self, n):
        z2 = np.random.default_rng(n).normal(size=(n, 2))
        nonstat = trend_fit(np.zeros((n, 0)))
        assert isinstance(nonstat, forecast.Var1Fit)
        assert nonstat.coef.shape == (0, 0) and nonstat.intercept.shape == (0,)
        dec = SimpleNamespace(A1=np.zeros((2, 0)), A2U1=np.eye(2), ybar=np.full(2, 0.5),
                              x1=np.zeros((n, 0)), z2=z2)
        z2f = forecast._var1_path(stationary_fits(z2), z2[-1], 3)
        assert np.array_equal(forecast._gt_forecast(dec, 3), gt_levels(dec, np.zeros((3, 0)), z2f))

    @pytest.mark.parametrize("h", [1, 2, 3, 4])
    def test_forecast_y_is_a_row_of_the_path(self, h):
        dec = decompose(generate(DgpSpec(p=6, n=400, example=1, seed=21))[0].data)
        assert np.array_equal(forecast_y(dec, h), forecast._gt_forecast(dec, h)[h - 1])
        # the factor paths share their first h rows; a one-row loadings product
        # takes BLAS's matrix-vector route, which can round the last bit apart
        path = forecast._gt_forecast(dec, 4)
        assert np.abs(forecast_y(dec, h) - path[h - 1]).max() <= 1e-15 * np.abs(path).max()

    def test_no_trends_forecast_the_stationary_part(self):
        # r1 = 0: the empty trend fit iterates an (h, 0) path, whose product
        # with the (0, p) A1' adds zeros to the stationary part
        panel, _ = generate(DgpSpec(p=6, n=300, r1=0, example=1, seed=1))
        dec, fit = self._decomp(panel.data)
        assert dec.r1_hat == 0 and dec.r2_hat >= 1
        z2f = forecast._var1_path(fit.stat, dec.z2[-1], 4)
        assert np.array_equal(forecast._gt_forecast(dec, 4), gt_levels(dec, np.zeros((4, 0)), z2f))

    def test_wide_panel_forecasts_skip_the_completion(self, monkeypatch):
        # A2 U1 is read off A2's row-space block, where U1 has its nonzero rows
        spec = DgpSpec(p=120, n=100, r1=2, r2=3, K=1, example=2, seed=1)
        y = generate(spec)[0].data
        config = PipelineConfig(window_start=80)

        def refuse(self):
            raise AssertionError("a forecast formed A2's null-space completion")

        with monkeypatch.context() as patched:
            patched.setattr(M1Eigen, "basis", refuse)
            report = evaluate_forecasts(y, config, methods=("gt",))
        dec = decompose(y, config)
        assert dec.eig1.reflectors is not None and dec.r2_hat >= 1
        dense = SimpleNamespace(A1=dec.A1, A2U1=dec.A2 @ dec.U1, ybar=dec.ybar, x1=dec.x1,
                                z2=dec.z2)
        expected = forecast._gt_forecast(dense, max(config.horizons))
        assert np.max(np.abs(report.forecasts["gt"] - expected)) <= 1e-12 * np.abs(expected).max()

    def test_constant_stationary_factor_continues(self):
        # hand-built decomposition: one trend plus one exactly constant factor path
        class Dec:
            A1 = np.array([[1.0], [0.0]])
            A2U1 = np.array([[0.0], [1.0]])
            x1 = np.linspace(0.0, 9.0, 10)[:, None]
            z2 = np.full((10, 1), 4.2)
            ybar = np.array([4.5, 4.2])  # the means of x1 A1' + z2 A2U1'

        path = forecast._gt_forecast(Dec, 3)
        assert np.allclose(path[:, 1], 4.2, atol=1e-10)
        assert np.allclose(path[:, 0], [10.0, 11.0, 12.0], atol=1e-8)

    def test_constant_panel_forecasts_its_constant(self):
        # a panel of ones has nothing to forecast but its mean; leaving the
        # stationary block's mean out forecast 0
        dec = decompose(np.ones((120, 3)))
        assert np.array_equal(forecast._gt_forecast(dec, 4), np.ones((4, 3)))

    def test_compositionality_one_step(self):
        spec = DgpSpec(p=6, n=400, example=1, seed=21)
        panel, _ = generate(spec)
        dec, fit = self._decomp(panel.data)
        got = forecast_y(dec, 1)
        x1_next = dec.x1[-1] + fit.nonstat.intercept + fit.nonstat.coef @ (
            dec.x1[-1] - dec.x1[-2]
        )
        z2_next = fit.stat.intercept + np.diag(fit.stat.coef) * dec.z2[-1]
        manual = (dec.ybar + dec.A1 @ (x1_next - dec.x1.mean(axis=0))
                  + dec.A2 @ dec.U1 @ (z2_next - dec.z2.mean(axis=0)))
        assert np.allclose(got, manual, atol=1e-10)


def ar1_elementwise_reference(phi, intercept, state, h_max):
    """Iterate ``x <- intercept + phi * x`` elementwise; row ``j`` is step ``j + 1``."""
    out = np.empty((h_max, state.size))
    for j in range(h_max):
        state = intercept + phi * state
        out[j] = state
    return out


RECURSION_PANELS = {
    "ex1": lambda: generate(DgpSpec(p=10, n=1000, example=1, seed=1))[0].data[:950],
    "trend_and_constant": lambda: panel_with_degenerate_columns(0),
}


@pytest.mark.blas_threads
@pytest.mark.filterwarnings("ignore:projected PCA recovery is ill conditioned")
@pytest.mark.parametrize("panel", list(RECURSION_PANELS))
class TestOneRecursion:
    """Every AR(1) runs through the VAR(1) recursion with a diagonal ``coef``;
    that product gives the bits of the elementwise recursion."""

    def test_gt_forecast_match_reference(self, panel):
        dec = decompose(RECURSION_PANELS[panel]())
        fit = SimpleNamespace(nonstat=trend_fit(dec.x1), stat=stationary_fits(dec.z2))
        assert dec.r1_hat >= 1 and dec.r2_hat >= 1
        levels, delta = [dec.x1[-1]], dec.x1[-1] - dec.x1[-2]
        for _ in range(6):
            delta = fit.nonstat.intercept + fit.nonstat.coef @ delta
            levels.append(levels[-1] + delta)
        z2f = ar1_elementwise_reference(np.diag(fit.stat.coef), fit.stat.intercept,
                                        dec.z2[-1], 6)
        expect = gt_levels(dec, np.array(levels[1:]), z2f)
        assert np.array_equal(forecast._gt_forecast(dec, 6), expect)

    def test_dfar_match_reference(self, panel):
        y = RECURSION_PANELS[panel]()
        d = np.diff(y, axis=0)
        fit = forecast._ar1_columns(d)
        steps = ar1_elementwise_reference(np.diag(fit.coef), fit.intercept, d[-1], 6)
        levels = [y[-1]]
        for step in steps:
            levels.append(levels[-1] + step)
        assert np.array_equal(baseline_dfar(y, 6), np.array(levels[1:]))


def fe_h(forecasts, actuals):
    """FE_h: the mean over origins (rows) of the error norm scaled by ``sqrt(p)``."""
    f, a = np.atleast_2d(np.asarray(forecasts, dtype=float)), np.atleast_2d(actuals)
    return float(np.mean(np.linalg.norm(f - a, axis=1) / math.sqrt(f.shape[1])))


def rmsfe(forecasts, actuals):
    """Root mean squared error over origins (rows), one per series (column)."""
    return np.sqrt(np.mean((np.asarray(forecasts, dtype=float) - actuals) ** 2, axis=0))


def mean_forecast_report(y, window_start):
    """``evaluate_forecasts`` at horizon 1 of ``pca_levels`` with no components,
    which forecasts each training window's mean: after rows of zeros the
    errors are set by hand."""
    return evaluate_forecasts(
        np.asarray(y, dtype=float), PipelineConfig(horizons=(1,), window_start=window_start),
        methods=("pca_levels",), pca_nfac_levels=0, pca_nfac_diff=0,
    )


class TestErrorMetrics:
    """The scores of ``evaluate_forecasts`` on errors set by hand."""

    def test_fe_perfect(self):
        report = mean_forecast_report(np.ones((7, 2)), 4)
        assert report.fe["pca_levels"][1] == 0.0
        assert np.array_equal(report.rmsfe_series["pca_levels"], np.zeros((1, 2)))

    def test_fe_single_origin_scalar(self):
        fe = mean_forecast_report([[0.0]] * 4 + [[1.0]], 4).fe["pca_levels"][1]
        assert type(fe) is float and fe == 1.0

    def test_fe_unit_vector(self):
        # the error (1, 1, 1, 1) has norm 2 = sqrt(p)
        report = mean_forecast_report([[0.0] * 4] * 4 + [[1.0] * 4], 4)
        assert report.fe["pca_levels"][1] == pytest.approx(1.0)

    def test_rmsfe_values(self):
        assert mean_forecast_report(np.ones((5, 1)), 4).rmsfe_series["pca_levels"][0, 0] == 0.0
        one = mean_forecast_report([[0.0]] * 4 + [[3.0]], 4)
        assert one.rmsfe_series["pca_levels"][0, 0] == pytest.approx(3.0)
        # the second origin forecasts 3 / 6 = 0.5, so both errors are set: 3 and 4
        two = mean_forecast_report([[0.0]] * 5 + [[3.0], [4.5]], 5)
        assert two.rmsfe_series["pca_levels"][0, 0] == pytest.approx(math.sqrt(12.5), abs=1e-9)
        assert two.fe["pca_levels"][1] == pytest.approx(3.5)

    def test_rmsfe_column_wise(self):
        # rows are origins and columns series: one value per column
        y = np.cumsum(np.random.default_rng(18).normal(size=(60, 7)), axis=0)
        report = evaluate_forecasts(y, PipelineConfig(horizons=(1, 2), window_start=10),
                                    methods=("dfar",), pca_nfac_levels=1, pca_nfac_diff=1)
        for hi, h in enumerate((1, 2)):
            fc = np.array([baseline_dfar(y[:tau], h)[h - 1] for tau in range(10, 61 - h)])
            ac = y[10 + h - 1:]
            per_column = [rmsfe(fc[:, i], ac[:, i]) for i in range(7)]
            np.testing.assert_allclose(report.rmsfe_series["dfar"][hi], per_column,
                                       rtol=1e-15, atol=0)

    def test_permutation_invariance(self):
        y = np.cumsum(np.random.default_rng(5).normal(size=(60, 4)), axis=0)
        perm = np.random.default_rng(5).permutation(4)
        config = PipelineConfig(horizons=(1, 3), window_start=40)
        base, permuted = (evaluate_forecasts(panel, config, methods=("dfar", "pca_levels"))
                          for panel in (y, y[:, perm]))
        for m in ("dfar", "pca_levels"):
            for h in (1, 3):
                assert permuted.fe[m][h] == pytest.approx(base.fe[m][h], rel=1e-12)
        # dfar forecasts each column on its own, so its errors permute bit for
        # bit; the PCA forecasts permute only up to rounding
        assert np.array_equal(permuted.rmsfe_series["dfar"], base.rmsfe_series["dfar"][:, perm])
        np.testing.assert_allclose(permuted.rmsfe_series["pca_levels"],
                                   base.rmsfe_series["pca_levels"][:, perm], rtol=1e-12, atol=0)


class TestDmTest:
    def test_identical_losses(self):
        res = dm_test(np.ones(20), np.ones(20))
        assert res.statistic == 0.0
        assert res.pvalue == 0.5
        assert res.degenerate

    def test_constant_differential_flagged_infinite(self):
        res = dm_test(np.zeros(20), np.ones(20))
        assert math.isinf(res.statistic) and res.statistic < 0
        assert res.degenerate
        assert res.pvalue == 0.0

    def test_antisymmetry(self):
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=50), rng.normal(size=50)
        fwd = dm_test(a, b)
        rev = dm_test(b, a)
        assert fwd.statistic == pytest.approx(-rev.statistic, rel=1e-9)

    def test_size_under_equal_losses(self):
        rng = np.random.default_rng(7)
        rejections = 0
        for _ in range(200):
            if dm_test(rng.standard_normal(144), rng.standard_normal(144)).pvalue < 0.05:
                rejections += 1
        assert 0.02 <= rejections / 200 <= 0.10

    def test_bandwidth_default(self):
        res = dm_test(np.arange(144.0), np.zeros(144))
        assert res.bandwidth == int(1.2 * 144 ** (1 / 3))

    def test_length_validation(self):
        with pytest.raises(ArgumentError):
            dm_test(np.ones(5), np.ones(5))

    @pytest.mark.parametrize("bandwidth", [2.5, True, -1, 20])
    def test_bandwidth_validation(self, bandwidth):
        with pytest.raises(ArgumentError, match=r"bandwidth must be an integer in \[0, 19\]"):
            dm_test(np.arange(20.0), np.zeros(20), bandwidth=bandwidth)


class TestBaselines:
    def test_dfar_constant_series(self):
        got = baseline_dfar(np.full((20, 2), 3.0), 3)
        assert np.allclose(got, 3.0)

    def test_dfar_linear_trend_exact(self):
        y = 0.7 * np.arange(50.0)[:, None]
        got = baseline_dfar(y, 4)
        expect = 0.7 * np.arange(50, 54)[:, None]
        assert np.allclose(got, expect, atol=1e-9)

    def test_dfar_random_walk_near_last_value(self):
        rng = np.random.default_rng(8)
        y = np.cumsum(rng.normal(size=(3000, 1)), axis=0)
        got = baseline_dfar(y, 1)
        assert abs(got[0, 0] - y[-1, 0]) <= 0.3

    def test_pca_full_rank_reconstruction(self):
        rng = np.random.default_rng(9)
        y = rng.normal(size=(60, 4)).cumsum(axis=0)
        from trendfactors.tsstats import sym_eigen
        yc = y - y.mean(axis=0)
        eig = sym_eigen(yc.T @ yc / 60)
        recon = (yc @ eig.vectors) @ eig.vectors.T + y.mean(axis=0)
        assert np.allclose(recon, y, atol=1e-8)

    def test_pca_single_trend_high_r2(self):
        rng = np.random.default_rng(10)
        trend = np.cumsum(rng.normal(size=800))
        load = rng.uniform(0.5, 1.5, 5)
        y = np.outer(trend, load) + 0.1 * rng.normal(size=(800, 5))
        yc = y - y.mean(axis=0)
        from trendfactors.tsstats import sym_eigen
        eig = sym_eigen(yc.T @ yc / 800)
        f = yc @ eig.vectors[:, :1]
        recon = f @ eig.vectors[:, :1].T
        r2 = 1.0 - ((yc - recon) ** 2).sum() / (yc**2).sum()
        assert r2 >= 0.9
        fc = baseline_pca(y, 1, "levels", 2)
        assert fc.shape == (2, 5)

    @pytest.mark.blas_threads
    def test_pca_levels_zero_factors_match_reference(self):
        # no components: the general path forecasts the sample mean
        y = np.random.default_rng(11).normal(size=(40, 3)) + np.array([1.0, -2.0, 5.0])
        expect = np.tile(y.sum(axis=0) / len(y), (4, 1))
        assert np.array_equal(baseline_pca(y, 0, "levels", 4), expect)

    def test_pca_differences_zero_factors_continue_the_mean_difference(self):
        # like every nfac >= 1 forecast, nfac = 0 adds the mean difference back
        y = np.cumsum(np.random.default_rng(12).normal(0.3, 1.0, size=(60, 3)), axis=0)
        expect = y[-1] + np.arange(1, 5)[:, None] * np.diff(y, axis=0).mean(axis=0)
        got = baseline_pca(y, 0, "differences", 4)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.abs(y).max()

    def test_pca_mode_and_short_differences_rejected(self):
        y = np.random.default_rng(12).normal(size=(30, 3))
        with pytest.raises(ArgumentError, match="mode must be 'levels' or 'differences'"):
            baseline_pca(y, 1, "logs", 1)
        with pytest.raises(ArgumentError, match=r"differences mode needs n >= 5"):
            baseline_pca(y[:4], 1, "differences", 1)
        assert baseline_pca(y[:5], 1, "differences", 1).shape == (1, 3)

    def test_pca_nfac_validation(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ArgumentError):
            baseline_pca(rng.normal(size=(30, 3)), 4, "levels", 1)
        for nfac in (1.5, True):
            with pytest.raises(ArgumentError, match="nfac must be an integer"):
                baseline_pca(rng.normal(size=(30, 3)), nfac, "levels", 1)

    @pytest.mark.parametrize(
        "run",
        [
            baseline_dfar,
            lambda y, h: baseline_pca(y, 1, "levels", h),
            lambda y, h: baseline_pca(y, 1, "differences", h),
        ],
        ids=["dfar", "pca_levels", "pca_diff"],
    )
    def test_non_integer_horizon_rejected(self, run):
        y = np.cumsum(np.random.default_rng(19).normal(size=(30, 2)), axis=0)
        for h in (2.5, True, 0):
            with pytest.raises(ArgumentError, match="horizon must be an integer >= 1"):
                run(y, h)

    @pytest.mark.parametrize(
        "run",
        [
            lambda y: baseline_dfar(y, 2),
            lambda y: baseline_pca(y, 1, "levels", 2),
        ],
        ids=["dfar", "pca_levels"],
    )
    def test_three_rows_rejected_up_front(self, run):
        y = np.random.default_rng(14).normal(size=(3, 2))
        with pytest.raises(ArgumentError, match=r"panel of n >= 4, got n = 3"):
            run(y)
        assert run(np.vstack([y, y[:1]])).shape == (2, 2)

    def test_pca_differences_runs(self):
        rng = np.random.default_rng(13)
        y = np.cumsum(rng.normal(size=(100, 4)), axis=0)
        got = baseline_pca(y, 2, "differences", 3)
        assert got.shape == (3, 4)
        assert np.all(np.isfinite(got))


class TestEvaluateForecasts:
    def test_report_shape_and_window(self):
        spec = DgpSpec(p=5, n=260, example=1, seed=33)
        panel, _ = generate(spec)
        config = PipelineConfig(horizons=(1, 2), window_start=240)
        report = evaluate_forecasts(panel, config)
        assert report.methods[0] == "gt"
        assert report.origins[1] == 20
        assert report.origins[2] == 19
        for m in report.methods:
            assert set(report.fe[m]) == {1, 2}
            assert report.forecasts[m].shape == (2, 5)
            assert report.rmsfe_series[m].shape == (2, 5)
        for pair, per_h in report.dm.items():
            assert pair[0] == "gt"
            assert set(per_h) == {1, 2}
            for res in per_h.values():
                assert 0.0 <= res.pvalue <= 1.0

    def test_trend_only_input_dfar_exact(self):
        slopes = np.array([0.5, -1.2, 2.0])
        y = np.arange(80.0)[:, None] * slopes
        config = PipelineConfig(horizons=(1, 2), window_start=70)
        report = evaluate_forecasts(y, config, methods=("gt", "dfar"))
        assert report.fe["dfar"][1] == pytest.approx(0.0, abs=1e-8)
        assert report.fe["dfar"][2] == pytest.approx(0.0, abs=1e-8)
        assert report.fe["gt"][1] == pytest.approx(0.0, abs=1e-6)

    def test_first_window_decomposed_once(self, monkeypatch):
        calls = []

        def counting(y, config):
            calls.append(len(y))
            return decompose(y, config)

        monkeypatch.setattr(forecast, "decompose", counting)
        spec = DgpSpec(p=5, n=260, example=1, seed=33)
        panel, _ = generate(spec)
        report = evaluate_forecasts(panel, PipelineConfig(horizons=(1, 2), window_start=240))
        # one decomposition per origin plus the full-sample forecast
        assert len(calls) == report.origins[1] + 1
        assert sorted(calls) == list(range(240, 261))

    @pytest.mark.parametrize("method, w", [("dfar", 3), ("pca_levels", 3), ("pca_diff", 4)])
    def test_window_below_method_minimum_names_window_start(self, method, w, monkeypatch):
        def no_forecast(*args, **kwargs):
            raise AssertionError("a forecaster ran before window_start was checked")

        y = np.cumsum(np.random.default_rng(15).normal(size=(40, 3)), axis=0)
        config = PipelineConfig(horizons=(1,), window_start=w)
        with monkeypatch.context() as patched:
            for name in ("baseline_dfar", "baseline_pca", "decompose"):
                patched.setattr(forecast, name, no_forecast)
            with pytest.raises(ArgumentError, match=rf"^window_start={w} is too short: "
                                                    rf"method '{method}' needs window_start >= {w + 1}$"):
                evaluate_forecasts(y, config, methods=(method,), pca_nfac_levels=1, pca_nfac_diff=1)
        report = evaluate_forecasts(y, replace(config, window_start=w + 1), methods=(method,),
                                    pca_nfac_levels=1, pca_nfac_diff=1)
        assert report.origins == {1: 39 - w}

    @pytest.mark.parametrize(
        "methods, nfac, decomposes",
        [(("gt", "dfar"), 1, True), (("dfar",), None, False), (("dfar", "pca_diff"), None, True)],
        ids=["gt", "default_pca_count", "pca_without_count"],
    )
    def test_window_too_short_to_decompose(self, methods, nfac, decomposes, monkeypatch):
        # the first window is decomposed for gt and for a requested PCA method
        # without a given count, and only then; a dfar-only run needs 4 rows
        calls = []

        def counting(y, config):
            calls.append(len(y))
            return decompose(y, config)

        monkeypatch.setattr(forecast, "decompose", counting)
        y = np.cumsum(np.random.default_rng(15).normal(size=(60, 2)), axis=0)
        # the largest probed ACF lag is 1 + 3 * 9 = 28, so decompose needs 30 rows
        need = 30 if decomposes else 4
        for w in sorted({3, need - 1}):
            with pytest.raises(ArgumentError, match=rf"window_start={w} .*>= {need}\b"):
                evaluate_forecasts(
                    y, PipelineConfig(horizons=(1,), window_start=w), methods=methods,
                    pca_nfac_levels=nfac, pca_nfac_diff=nfac,
                )
        report = evaluate_forecasts(
            y, PipelineConfig(horizons=(1,), window_start=need), methods=methods,
            pca_nfac_levels=nfac, pca_nfac_diff=nfac,
        )
        assert report.window_start == need
        # the first window's decomposition comes first; a dfar-only run has none
        assert calls[:1] == ([need] if decomposes else [])
        # a count no requested method uses is reported as None
        assert report.meta["pca_nfac_levels"] is None
        assert (report.meta["pca_nfac_diff"] is None) == ("pca_diff" not in methods)
        if not decomposes:
            return
        small = PipelineConfig(horizons=(1,), window_start=8, l=1, m=4, k0=6)
        with pytest.raises(ArgumentError, match=r"window_start >= 8\b"):
            evaluate_forecasts(y, replace(small, window_start=7), methods=methods,
                               pca_nfac_levels=nfac, pca_nfac_diff=nfac)
        report = evaluate_forecasts(y, small, methods=methods,
                                    pca_nfac_levels=nfac, pca_nfac_diff=nfac)
        assert report.window_start == 8

    def test_matches_origin_loop(self):
        spec = DgpSpec(p=5, n=170, example=1, seed=41)
        y = generate(spec)[0].data
        config = PipelineConfig(horizons=(1, 3), window_start=150)
        report = evaluate_forecasts(y, config)
        nfac_levels, nfac_diff = report.meta["pca_nfac_levels"], report.meta["pca_nfac_diff"]

        methods = {
            "gt": lambda train, h: forecast._gt_forecast(decompose(train, config), h),
            "dfar": baseline_dfar,
            "pca_levels": lambda train, h: baseline_pca(train, nfac_levels, "levels", h),
            "pca_diff": lambda train, h: baseline_pca(train, nfac_diff, "differences", h),
        }
        assert report.methods == tuple(methods)
        rows = {m: {h: [] for h in (1, 3)} for m in methods}
        actual = {h: [] for h in (1, 3)}
        for tau in range(150, 170):
            for m, run in methods.items():
                path = run(y[:tau], 3)
                for h in (1, 3):
                    if tau + h <= 170:
                        rows[m][h].append(path[h - 1])
            for h in (1, 3):
                if tau + h <= 170:
                    actual[h].append(y[tau + h - 1])
        assert report.origins == {h: len(actual[h]) for h in (1, 3)} == {1: 20, 3: 18}
        losses = {}
        for m in methods:
            for hi, h in enumerate((1, 3)):
                fc, ac = np.array(rows[m][h]), np.array(actual[h])
                assert report.fe[m][h] == fe_h(fc, ac)
                assert np.array_equal(report.rmsfe_series[m][hi], rmsfe(fc, ac))
                losses[m, h] = np.linalg.norm(fc - ac, axis=1) / math.sqrt(5)
        assert list(report.dm) == [("gt", m) for m in ("dfar", "pca_levels", "pca_diff")]
        for (_, other), per_h in report.dm.items():
            for h in (1, 3):
                expect = dm_test(losses["gt", h], losses[other, h])
                got = per_h[h]
                assert got.bandwidth == expect.bandwidth and got.degenerate == expect.degenerate
                np.testing.assert_allclose(got[:3], expect[:3], rtol=1e-12, atol=1e-15)

    def test_window_leaving_too_few_dm_losses_rejected(self):
        y = np.cumsum(np.random.default_rng(16).normal(size=(60, 3)), axis=0)
        config = PipelineConfig(horizons=(1, 4))
        # horizon 4 from origins w..56 leaves 57 - w losses; dm_test needs 8
        for w in (52, 55):
            with pytest.raises(ArgumentError, match=rf"window_start={w} .* is 49\b"):
                evaluate_forecasts(y, replace(config, window_start=w), methods=("gt", "dfar"))
        report = evaluate_forecasts(y, replace(config, window_start=49), methods=("gt", "dfar"))
        assert report.origins[4] == forecast.MIN_DM_LOSSES == 8
        # one method runs no DM test, so fewer origins are allowed
        report = evaluate_forecasts(y, replace(config, window_start=55), methods=("dfar",),
                                    pca_nfac_levels=1, pca_nfac_diff=1)
        assert report.origins == {1: 5, 4: 2}

    @pytest.mark.parametrize("methods", [(), ("dfar", "dfar"), ("gt", "dfar", "gt")])
    def test_empty_or_repeated_methods_rejected(self, methods, monkeypatch):
        def no_decompose(*args, **kwargs):
            raise AssertionError("decompose ran before the method list was checked")

        monkeypatch.setattr(forecast, "decompose", no_decompose)
        y = np.cumsum(np.random.default_rng(17).normal(size=(60, 2)), axis=0)
        with pytest.raises(ArgumentError, match="at least one method, each once"):
            evaluate_forecasts(y, PipelineConfig(horizons=(1,), window_start=40), methods=methods)

    def test_unknown_method_rejected(self, monkeypatch):
        def no_decompose(*args, **kwargs):
            raise AssertionError("decompose ran before the method names were checked")

        monkeypatch.setattr(forecast, "decompose", no_decompose)
        y = np.cumsum(np.random.default_rng(17).normal(size=(60, 2)), axis=0)
        with pytest.raises(ArgumentError, match="unknown forecast method 'arima'"):
            evaluate_forecasts(y, PipelineConfig(horizons=(1,), window_start=40),
                               methods=("gt", "arima"))

    def test_first_listed_method_is_the_dm_reference(self):
        # the methods keep the order given, gt included: the first is tested
        # against each of the others
        y = np.cumsum(np.random.default_rng(18).normal(size=(80, 3)), axis=0)
        report = evaluate_forecasts(y, PipelineConfig(horizons=(1,), window_start=60),
                                    methods=("dfar", "gt", "pca_levels"))
        assert report.methods == ("dfar", "gt", "pca_levels")
        assert list(report.dm) == [("dfar", "gt"), ("dfar", "pca_levels")]
        assert list(report.fe) == list(report.forecasts) == ["dfar", "gt", "pca_levels"]

    @pytest.mark.parametrize("name", ["pca_nfac_levels", "pca_nfac_diff"])
    @pytest.mark.parametrize("nfac", [2.5, True, -1, 11])
    def test_bad_pca_factor_count_rejected(self, name, nfac, monkeypatch):
        def no_decompose(*args, **kwargs):
            raise AssertionError("decompose ran before the PCA factor counts were checked")

        monkeypatch.setattr(forecast, "decompose", no_decompose)
        y = np.cumsum(np.random.default_rng(17).normal(size=(60, 10)), axis=0)
        with pytest.raises(ArgumentError, match=rf"^{name} must be an integer in \[0, 10\]"):
            evaluate_forecasts(y, PipelineConfig(horizons=(1,), window_start=40),
                               **{name: nfac})

    def test_window_too_short(self):
        spec = DgpSpec(p=4, n=120, example=1, seed=2)
        panel, _ = generate(spec)
        with pytest.raises(ArgumentError):
            evaluate_forecasts(panel, PipelineConfig(horizons=(1,), window_start=120))

    def test_window_too_short_for_the_trend_var1(self):
        # window_start = 29 clears the largest probed lag + 2 (7), but the
        # 29-row window gives r1_hat = 28 trends, whose VAR(1) needs 31 rows
        y = np.cumsum(np.random.default_rng(0).normal(size=(40, 60)), axis=0)
        config = PipelineConfig(c0=1e-6, l=1, m=5, window_start=29)
        assert decompose(y[:29], config).r1_hat == 28
        with pytest.raises(ArgumentError, match=r"needs r1_hat \+ 3 = 31 rows, got 29 rows "
                                                r"with r1_hat = 28$"):
            evaluate_forecasts(y, config, methods=("gt",))

    def test_horizon_beyond_end(self):
        spec = DgpSpec(p=4, n=120, example=1, seed=2)
        panel, _ = generate(spec)
        with pytest.raises(ArgumentError):
            evaluate_forecasts(panel, PipelineConfig(horizons=(30,), window_start=100))
        # the largest horizon decides, also for one method, before any origin is run
        with pytest.raises(ArgumentError, match=r"no forecast origin at horizon 30 .*=100, n=120"):
            evaluate_forecasts(panel, PipelineConfig(horizons=(1, 30), window_start=100),
                               methods=("dfar",), pca_nfac_levels=1, pca_nfac_diff=1)


SHIFT_FORECASTERS = {
    "dfar": lambda y: baseline_dfar(y, 4),
    "pca_levels": lambda y: baseline_pca(y, 2, "levels", 4),
    "pca_diff": lambda y: baseline_pca(y, 4, "differences", 4),
    "gt": lambda y: forecast._gt_forecast(decompose(y), 4),
}


class TestLocationShift:
    @pytest.mark.parametrize("method", ["dfar", "pca_levels", "pca_diff", "gt"])
    def test_paths_move_with_the_panel(self, method):
        # a forecaster of the panel y + c must forecast its own paths plus c
        y = generate(DgpSpec(p=10, n=1000, example=1, seed=2))[0].data
        c = 10.0
        path = SHIFT_FORECASTERS[method](y)
        shifted = SHIFT_FORECASTERS[method](y + c)
        assert np.abs(shifted - (path + c)).max() <= 1e-12 * np.abs(path + c).max()
