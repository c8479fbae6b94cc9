"""Foundational statistics: frozen hand values, quadrature oracles, contracts."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from trendfactors.errors import ArgumentError
from trendfactors.pipeline import decompose
from trendfactors.tsstats import TimeSeriesPanel, fix_signs, sample_autocov, sym_eigen
from trendfactors.unitroot import acf_profile
from trendfactors.whitenoise import _ljung_box


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

    def test_rejects_complex_entries(self):
        # a cast to float would drop the imaginary parts with only a warning
        y = np.random.default_rng(0).normal(size=(40, 3))
        for panel in (y + 5j, y.astype(complex), np.array([[1.0, 1j], [2.0, 3.0]], dtype=object)):
            with pytest.raises(ArgumentError, match="complex|numeric"):
                TimeSeriesPanel(panel)
        with pytest.raises(ArgumentError, match="complex"):
            decompose(y + 5j)

    def test_rejects_non_numeric_entries(self):
        for panel in ([["a", "b"], ["c", "d"]], [[1.0, 2.0], [3.0]]):
            with pytest.raises(ArgumentError, match="not a numeric array"):
                TimeSeriesPanel(panel)
        with pytest.raises(ArgumentError, match="not a numeric array"):
            decompose([["a", "b"], ["c", "d"]])
        assert np.array_equal(TimeSeriesPanel([["1.5", "2"], ["3", "4"]]).data,
                              [[1.5, 2.0], [3.0, 4.0]])


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
    """The autocorrelations of :func:`acf_profile`, against the scalar definition."""

    def test_lag0_is_one(self):
        rng = np.random.default_rng(2)
        assert np.all(acf_profile(rng.normal(size=(40, 3)), np.array([0])) == 1.0)

    def test_alternating_hand_value(self):
        rho = acf_profile(np.array([[1.0], [-1.0], [1.0], [-1.0]]), np.array([1]))
        assert rho[0, 0] == pytest.approx(-0.75, abs=1e-12)

    def test_constant_column_gives_zeros(self):
        x = np.column_stack([np.full(12, 2.0), np.arange(12.0)])
        rho = acf_profile(x, np.array([1, 2, 3]))
        assert np.all(rho[0] == 0.0)
        assert np.all(rho[1] > 0.0)

    def test_constant_with_inexact_mean_gives_zeros(self):
        # centered, 1e6 + 0.1 is the same nonzero rounding residue in every row;
        # the floor follows the column's level, as the AR(1) fit's does
        from trendfactors.forecast import _ar1_columns
        from trendfactors.tsstats import centered_columns

        x = np.column_stack([np.full(200, 1e6 + 0.1), np.arange(200.0)])
        _, gamma0, constant = centered_columns(x)
        assert gamma0[0] > 0.0 and constant.tolist() == [True, False]
        assert _ar1_columns(x)[2].tolist() == [True, False]
        assert np.all(acf_profile(x, np.array([1, 2, 3]))[0] == 0.0)

    def test_floor_follows_each_columns_own_level(self):
        # column 1's variance (about 1e-24) is under the floor of column 0's level
        # (1e-16 at 1e6) but over its own (1e-26): only the constants are flagged
        from trendfactors.tsstats import centered_columns

        rng = np.random.default_rng(8)
        x = np.column_stack([np.linspace(-1e6, 1e6, 300), 1e-12 * rng.normal(size=300),
                             np.full(300, 4.25), np.full(300, 1e6 + 0.1)])
        _, gamma0, constant = centered_columns(x)
        level = np.abs(x).max(axis=0)
        assert constant.tolist() == (gamma0 <= (1e-13 * np.maximum(1.0, level)) ** 2).tolist()
        assert constant.tolist() == [False, False, True, True]

    def test_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 100))
            x = np.cumsum(rng.normal(size=n)) if rng.random() < 0.5 else rng.normal(size=n)
            k = int(rng.integers(0, n - 1))
            xc = x - x.mean()
            rho = acf_profile(x[:, None], np.array([k]))[0, 0]
            assert rho == pytest.approx(xc[k:] @ xc[: n - k] / (xc @ xc), rel=1e-12, abs=1e-15)
            assert abs(rho) <= 1.0 + 1e-12


class TestLjungBox:
    """The per-column Ljung-Box statistics of ``whitenoise._ljung_box``."""

    def test_alternating_hand_values(self):
        q, p, _ = _ljung_box(np.array([[1.0], [-1.0], [1.0], [-1.0]]), 1)
        assert q[0] == pytest.approx(4.5, abs=1e-12)
        assert p[0] == pytest.approx(0.0338948535246852, abs=1e-6)

    def test_zero_autocorrelation_gives_unit_pvalue(self):
        # every lag-1 product has a zero factor, so acf(1) = 0 exactly
        x = np.array([1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0])
        q, p, _ = _ljung_box(x[:, None], 1)
        assert q[0] == pytest.approx(0.0, abs=1e-12)
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_m(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 5))
        qs = np.array([_ljung_box(x, m)[0] for m in range(1, 20)])
        assert np.all(np.diff(qs, axis=0) >= -1e-12)
        # the definition on the first column: Q from the scalar ACF
        xc, n = x[:, 0] - x[:, 0].mean(), 60
        acf = np.array([xc[k:] @ xc[: n - k] / (xc @ xc) for k in range(1, 20)])
        q = n * (n + 2) * np.cumsum(acf**2 / (n - np.arange(1, 20)))
        assert np.allclose(qs[:, 0], q, rtol=1e-12)

    def test_constant_column_unit_pvalue(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([np.ones(10), rng.normal(size=10)])
        q, p, degenerate = _ljung_box(x, 2)
        assert p[0] == 1.0 and degenerate.tolist() == [True, False]
        assert np.all(np.isfinite(q))


class TestChi2Sf:
    """The chi-square tail behind the p-values of ``whitenoise._ljung_box``."""

    def test_zero_is_one(self):
        # acf(1) = acf(2) = 0 exactly, so Q(2) = 0
        x = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])
        q, p, _ = _ljung_box(x[:, None], 2)
        assert q[0] == 0.0
        assert p[0] == 1.0

    def test_df2_closed_form(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 30)) + 0.5 * np.cumsum(rng.normal(size=(40, 30)), axis=0)
        q, p, _ = _ljung_box(x, 2)
        assert q.min() < 1.0 and q.max() > 40.0
        assert np.allclose(p, np.exp(-q / 2.0), rtol=1e-12, atol=0.0)

    def test_hand_value_df1(self):
        # the alternating series, shifted and scaled in a second column
        x = np.array([[1.0, 3.0], [-1.0, -1.0], [1.0, 3.0], [-1.0, -1.0]])
        q, p, _ = _ljung_box(x, 1)
        assert q == pytest.approx([4.5, 4.5], abs=1e-12)
        assert p == pytest.approx([0.0338948535246852] * 2, abs=1e-6)

    def test_against_quadrature_grid(self):
        rng = np.random.default_rng(7)
        n = 120
        x = rng.normal(size=(n, 8))
        for i, phi in enumerate((0.05, 0.1, 0.2, 0.3, 0.5, 0.9), start=2):
            for t in range(1, n):
                x[t, i] += phi * x[t - 1, i]
        for df in (1, 2, 3, 7, 15, 30, 50):
            q, p, _ = _ljung_box(x, df)
            for qi, pi in zip(q, p):
                assert pi == pytest.approx(chi2_sf_quadrature(qi, df), abs=1e-6), (df, qi)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(200, 161))
        x[1:] += np.linspace(0.0, 0.6, 161) * x[:-1]
        for df in (1, 4, 9):
            q, p, _ = _ljung_box(x, df)
            order = np.argsort(q)
            assert np.all(np.diff(p[order]) <= 1e-12)

    def test_rejects_bad_args(self):
        x = np.random.default_rng(9).normal(size=(10, 2))
        with pytest.raises(ArgumentError):
            _ljung_box(x, 0)
        with pytest.raises(ArgumentError):
            _ljung_box(x, 9)


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
        with pytest.raises(ArgumentError, match="^matrix is not symmetric"):
            sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
        nonfinite = [
            np.array([[np.inf, 0.0], [0.0, 1.0]]),
            np.array([[1.0, np.inf], [0.0, 1.0]]),  # inf on one side only
            np.array([[1.0, -np.inf], [-np.inf, 1.0]]),
            np.array([[1.0, 0.0], [0.0, np.nan]]),
            np.array([[1.0, np.nan], [np.nan, 1.0]]),
            np.array([[1.0, 5.0, np.nan], [0.0, 1.0, 0.0], [np.nan, 0.0, 1.0]]),  # and asymmetric
        ]
        for m in nonfinite:
            with pytest.raises(ArgumentError, match="^matrix contains non-finite entries"):
                sym_eigen(m)

    @pytest.mark.parametrize("q", [1, 2, 10, 57])
    def test_bit_identical_to_symmetrized_eigh(self, q):
        # a product that is symmetric only up to rounding, as M1, M2 and S are
        rng = np.random.default_rng(100 + q)
        a, b = rng.normal(size=(q, 3 * q)), rng.normal(size=(3 * q, 3 * q))
        m = a @ (b @ b.T) @ a.T
        values, vectors = np.linalg.eigh((m + m.T) / 2.0)
        eig = sym_eigen(m)
        assert np.array_equal(eig.values, values[::-1])
        assert np.array_equal(eig.vectors, fix_signs(vectors[:, ::-1]))
