"""Forecasting: factor-model fits, error metrics, DM test, baselines."""

import math

import numpy as np
import pytest

from trendfactors.errors import ArgumentError, DegenerateSeriesError
from trendfactors.forecast import (
    baseline_dfar,
    baseline_pca,
    dm_test,
    evaluate_forecasts,
    fe_h,
    fit_ar1,
    fit_factor_models,
    fit_var1_diff,
    forecast_path,
    forecast_y,
    rmsfe,
)
from trendfactors.pipeline import PipelineConfig, decompose
from trendfactors.simgen import DgpSpec, generate


class TestFitAr1:
    def test_exact_geometric(self):
        x = 0.9 ** np.arange(30)
        fit = fit_ar1(x)
        assert fit.phi == pytest.approx(0.9, abs=1e-10)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)
        assert not fit.explosive

    def test_constant_raises(self):
        with pytest.raises(DegenerateSeriesError):
            fit_ar1(np.full(20, 1.3))

    def test_seeded_ar_recovered(self):
        rng = np.random.default_rng(0)
        x = np.empty(5000)
        x[0] = 0.0
        for t in range(1, 5000):
            x[t] = 0.5 * x[t - 1] + rng.normal()
        fit = fit_ar1(x)
        assert 0.45 <= fit.phi <= 0.55

    def test_explosive_flagged(self):
        x = 1.2 ** np.arange(40)
        assert fit_ar1(x).explosive


class TestFitVar1Diff:
    def test_exact_recovery_noise_free(self):
        a = np.array([[0.5, 0.2], [-0.1, 0.3]])
        deltas = np.empty((39, 2))
        deltas[0] = [1.0, -0.7]
        for t in range(1, 39):
            deltas[t] = a @ deltas[t - 1]
        y = np.vstack([[0.0, 0.0], np.cumsum(deltas, axis=0)])
        fit = fit_var1_diff(y)
        assert np.allclose(fit.coef, a, atol=1e-8)
        assert np.allclose(fit.intercept, 0.0, atol=1e-8)

    def test_random_walk_coefficients_near_zero(self):
        rng = np.random.default_rng(1)
        y = np.cumsum(rng.normal(size=(5000, 3)), axis=0)
        fit = fit_var1_diff(y)
        assert np.linalg.norm(fit.coef, 2) <= 0.1

    def test_single_column_matches_ar1(self):
        rng = np.random.default_rng(2)
        y = np.cumsum(rng.normal(size=200))
        var_fit = fit_var1_diff(y[:, None])
        ar_fit = fit_ar1(np.diff(y))
        assert var_fit.coef[0, 0] == pytest.approx(ar_fit.phi, abs=1e-10)
        assert var_fit.intercept[0] == pytest.approx(ar_fit.intercept, abs=1e-10)


class TestForecastY:
    def _decomp(self, y, config=PipelineConfig()):
        dec = decompose(y, config)
        fit = fit_factor_models(dec.x1, dec.z2)
        return dec, fit

    def test_constant_factor_continues(self):
        # trend paths with exactly constant differences forecast linearly
        rng = np.random.default_rng(3)
        spec = DgpSpec(p=4, n=300, r1=1, r2=1, example=1, seed=9)
        panel, _ = generate(spec)
        dec, fit = self._decomp(panel.data)
        path = forecast_path(dec, fit, dec, 3)
        assert path.shape == (3, 4)
        assert np.allclose(forecast_y(dec, fit, dec, 2), path[1])

    def test_no_stationary_factors_trend_only(self):
        rng = np.random.default_rng(4)
        y = np.cumsum(rng.normal(size=(500, 2)), axis=0) @ np.array(
            [[0.8, -0.6], [0.6, 0.8]]
        )
        dec = decompose(y, PipelineConfig())
        if dec.r2_hat == 0:
            fit = fit_factor_models(dec.x1, dec.z2)
            got = forecast_y(dec, fit, dec, 1)
            trend_only = (dec.x1[-1] + fit.nonstat.intercept
                          + fit.nonstat.coef @ (dec.x1[-1] - dec.x1[-2]))
            assert np.allclose(got, dec.A1 @ trend_only, atol=1e-10)

    def test_constant_stationary_factor_continues(self):
        # hand-built split: one trend plus one exactly constant factor path
        class Split:
            A1 = np.array([[1.0], [0.0]])
            A2 = np.array([[0.0], [1.0]])
            x1 = np.linspace(0.0, 9.0, 10)[:, None]

        class Sf:
            U1 = np.array([[1.0]])
            z2 = np.full((10, 1), 4.2)

        fit = fit_factor_models(Split.x1, Sf.z2)
        path = forecast_path(Split, fit, Sf, 3)
        assert np.allclose(path[:, 1], 4.2, atol=1e-10)
        assert np.allclose(path[:, 0], [10.0, 11.0, 12.0], atol=1e-8)

    def test_compositionality_one_step(self):
        spec = DgpSpec(p=6, n=400, example=1, seed=21)
        panel, _ = generate(spec)
        dec, fit = self._decomp(panel.data)
        got = forecast_y(dec, fit, dec, 1)
        x1_next = dec.x1[-1] + fit.nonstat.intercept + fit.nonstat.coef @ (
            dec.x1[-1] - dec.x1[-2]
        )
        z2_next = np.array(
            [f.intercept + f.phi * dec.z2[-1, i] for i, f in enumerate(fit.stat)]
        )
        manual = dec.A1 @ x1_next + dec.A2 @ dec.U1 @ z2_next
        assert np.allclose(got, manual, atol=1e-10)


class TestErrorMetrics:
    def test_fe_perfect(self):
        assert fe_h(np.ones((3, 2)), np.ones((3, 2))) == 0.0

    def test_fe_single_origin_scalar(self):
        assert fe_h([[2.0]], [[1.0]]) == pytest.approx(1.0)

    def test_fe_unit_vector(self):
        assert fe_h([[1.0, 1.0, 1.0, 1.0]], [[0.0] * 4]) == pytest.approx(1.0)

    def test_fe_empty_raises(self):
        with pytest.raises(ArgumentError):
            fe_h(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_rmsfe_values(self):
        assert rmsfe([1.0], [1.0]) == 0.0
        assert rmsfe([4.0], [1.0]) == pytest.approx(3.0)
        assert rmsfe([3.0, 4.0], [0.0, 0.0]) == pytest.approx(math.sqrt(12.5), abs=1e-9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(6, 4))
        a = rng.normal(size=(6, 4))
        perm = rng.permutation(4)
        assert fe_h(f, a) == pytest.approx(fe_h(f[:, perm], a[:, perm]), rel=1e-12)


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

    def test_pca_zero_factors_mean_path(self):
        rng = np.random.default_rng(11)
        y = rng.normal(size=(40, 3)) + np.array([1.0, -2.0, 5.0])
        got = baseline_pca(y, 0, "levels", 2)
        assert np.allclose(got, y.mean(axis=0))

    def test_pca_nfac_validation(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ArgumentError):
            baseline_pca(rng.normal(size=(30, 3)), 4, "levels", 1)

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

    def test_window_too_short(self):
        spec = DgpSpec(p=4, n=120, example=1, seed=2)
        panel, _ = generate(spec)
        with pytest.raises(ArgumentError):
            evaluate_forecasts(panel, PipelineConfig(horizons=(1,), window_start=120))

    def test_horizon_beyond_end(self):
        spec = DgpSpec(p=4, n=120, example=1, seed=2)
        panel, _ = generate(spec)
        with pytest.raises(ArgumentError):
            evaluate_forecasts(panel, PipelineConfig(horizons=(30,), window_start=100))
