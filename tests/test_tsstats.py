"""Foundational statistics: frozen hand values, quadrature oracles, contracts."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from trendfactors.errors import ArgumentError, DegenerateSeriesError
from trendfactors.tsstats import (
    TimeSeriesPanel,
    chi2_sf,
    fix_signs,
    ljung_box,
    sample_acf,
    sample_autocov,
    sym_eigen,
)


def chi2_sf_quadrature(x, df):
    """Independent oracle: adaptive quadrature of the chi-square density."""
    if x == 0.0:
        return 1.0
    a = df / 2.0

    def pdf(t):
        return np.exp((a - 1.0) * np.log(t) - t / 2.0 - a * np.log(2.0) - gammaln(a))

    val, _ = quad(pdf, x, np.inf, limit=200)
    return val


class TestPanel:
    def test_rejects_tiny_and_nonfinite(self):
        with pytest.raises(ArgumentError):
            TimeSeriesPanel(np.array([[1.0, 2.0]]))
        with pytest.raises(ArgumentError):
            TimeSeriesPanel(np.array([[1.0], [np.nan]]))

    def test_vector_promoted_to_column(self):
        pan = TimeSeriesPanel(np.array([1.0, 2.0, 3.0]))
        assert pan.data.shape == (3, 1)


class TestSampleAutocov:
    def test_lag0_hand_value(self):
        got = sample_autocov([[1.0], [3.0]], 0)
        assert np.allclose(got, [[1.0]], atol=1e-12)

    def test_lag1_hand_value(self):
        got = sample_autocov([[1.0], [3.0]], 1)
        assert np.allclose(got, [[-0.5]], atol=1e-12)

    def test_constant_panel_is_zero(self):
        panel = np.full((8, 3), 2.5)
        for k in (0, 1, 4):
            assert np.allclose(sample_autocov(panel, k), 0.0, atol=1e-12)

    def test_lag_out_of_range(self):
        with pytest.raises(ArgumentError):
            sample_autocov(np.random.default_rng(0).normal(size=(5, 2)), 5)

    def test_lag0_symmetric_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = rng.normal(size=(rng.integers(5, 60), rng.integers(1, 8)))
            c = sample_autocov(y, 0)
            assert np.allclose(c, c.T, atol=1e-10 * max(1.0, np.abs(c).max()))
            w = np.linalg.eigvalsh(c)
            assert w.min() >= -1e-10 * np.trace(c)


class TestSampleAcf:
    def test_lag0_is_one(self):
        rng = np.random.default_rng(2)
        assert sample_acf(rng.normal(size=40), 0) == 1.0

    def test_alternating_hand_value(self):
        assert sample_acf([1.0, -1.0, 1.0, -1.0], 1) == pytest.approx(-0.75, abs=1e-12)

    def test_constant_raises(self):
        with pytest.raises(DegenerateSeriesError):
            sample_acf([2.0, 2.0, 2.0], 1)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 100))
            x = np.cumsum(rng.normal(size=n)) if rng.random() < 0.5 else rng.normal(size=n)
            k = int(rng.integers(0, n - 1))
            assert abs(sample_acf(x, k)) <= 1.0 + 1e-12


class TestLjungBox:
    def test_alternating_hand_values(self):
        q, p = ljung_box([1.0, -1.0, 1.0, -1.0], 1)
        assert q == pytest.approx(4.5, abs=1e-12)
        assert p == pytest.approx(0.0338948535246852, abs=1e-6)

    def test_zero_autocorrelation_gives_unit_pvalue(self):
        # orthogonal-by-construction series: acf(1) = acf(2) = 0
        x = np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
        rho1 = sample_acf(x, 1)
        if abs(rho1) < 1e-12:
            q, p = ljung_box(x, 1)
            assert q == pytest.approx(0.0, abs=1e-12)
            assert p == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_m(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=60)
        qs = [ljung_box(x, m).statistic for m in range(1, 20)]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateSeriesError):
            ljung_box(np.ones(10), 2)


class TestChi2Sf:
    def test_zero_is_one(self):
        assert chi2_sf(0.0, 2) == 1.0

    def test_df2_closed_form(self):
        x = 2.0 * np.log(2.0)
        assert chi2_sf(x, 2) == pytest.approx(0.5, abs=1e-12)
        for x in (0.2, 1.0, 5.0, 40.0):
            assert chi2_sf(x, 2) == pytest.approx(np.exp(-x / 2.0), rel=1e-12)

    def test_hand_value_df1(self):
        assert chi2_sf(4.5, 1) == pytest.approx(0.0338948535246852, abs=1e-6)

    def test_against_quadrature_grid(self):
        for df in (1, 2, 3, 7, 15, 30, 50):
            for x in (0.0, 0.05, 0.8, 3.0, 11.0, 27.0, 64.0, 100.0):
                assert chi2_sf(x, df) == pytest.approx(
                    chi2_sf_quadrature(x, df), abs=1e-6
                ), (df, x)

    def test_monotone_nonincreasing(self):
        xs = np.linspace(0.0, 80.0, 161)
        for df in (1, 4, 9):
            vals = [chi2_sf(x, df) for x in xs]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ArgumentError):
            chi2_sf(-1.0, 2)
        with pytest.raises(ArgumentError):
            chi2_sf(1.0, 0)


class TestSymEigen:
    def test_diagonal(self):
        eig = sym_eigen(np.diag([3.0, 1.0]))
        assert eig.values == pytest.approx([3.0, 1.0])
        assert np.allclose(np.abs(eig.vectors), np.eye(2), atol=1e-12)

    def test_exchange_matrix(self):
        eig = sym_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert eig.values == pytest.approx([1.0, -1.0], abs=1e-12)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(eig.vectors[:, 0]), [s, s], atol=1e-12)
        assert np.allclose(np.abs(eig.vectors[:, 1]), [s, s], atol=1e-12)

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(7, 7))
        m = m + m.T
        eig = sym_eigen(m)
        assert eig.values.sum() == pytest.approx(np.trace(m), rel=1e-10)

    @pytest.mark.parametrize("q", [3, 60, 280, 600])
    def test_contract_random_symmetric(self, q):
        rng = np.random.default_rng(q)
        m = rng.normal(size=(q, q))
        m = (m + m.T) / 2.0
        eig = sym_eigen(m)
        assert np.all(np.diff(eig.values) <= 1e-12)
        assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(q))) <= 1e-8
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        norm = np.linalg.norm(m, 2)
        assert np.linalg.norm(m - recon, 2) <= 1e-8 * max(1.0, norm)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 5))
        m = m + m.T
        v1 = sym_eigen(m).vectors
        v2 = sym_eigen(m.copy()).vectors
        assert np.array_equal(v1, v2)
        for j in range(5):
            i = np.argmax(np.abs(v1[:, j]))
            assert v1[i, j] > 0

    def test_fix_signs_matches_column_loop(self):
        rng = np.random.default_rng(7)
        tie = np.array([[-1.0], [1.0], [0.0], [0.0], [0.0], [0.0]])
        v = np.hstack([rng.normal(size=(6, 8)), tie, np.zeros((6, 1))])
        expected = v.copy()
        for j in range(v.shape[1]):
            i = int(np.argmax(np.abs(v[:, j])))
            if v[i, j] < 0:
                expected[:, j] = -v[:, j]
        got = fix_signs(v)
        assert np.array_equal(got, expected)
        assert list(got[:2, 8]) == [1.0, -1.0]
        assert fix_signs(np.zeros((3, 0))).shape == (3, 0)

    def test_rejects_asymmetric_and_nonfinite(self):
        with pytest.raises(ArgumentError):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ArgumentError):
            sym_eigen(np.array([[np.inf, 0.0], [0.0, 1.0]]))
