"""White-noise counting: ordering, the multi-series test, both procedures."""

import warnings

import numpy as np
import pytest

from scipy.stats import chi2

from trendfactors.errors import ArgumentError
from trendfactors.tsstats import centered_columns
from trendfactors.whitenoise import (
    _SCAN_BLOCK,
    _bonferroni_threshold,
    _ljung_box,
    _peak_abs_corr,
    count_factors,
)


def lb_statistic(x, m):
    """Ljung-Box Q(m) of one series from its scalar ACF ``xc[k:] @ xc[:n-k] / (xc @ xc)``."""
    xc, n = x - x.mean(), x.size
    acf = [xc[k:] @ xc[: n - k] / (xc @ xc) for k in range(1, m + 1)]
    return n * (n + 2) * sum(rho**2 / (n - k) for k, rho in enumerate(acf, start=1))


def peak_abs_corr(x, m):
    """All ``d x d`` lag-maximal absolute cross-correlations in one pass, zero on
    the constant columns (the matrix the sequential test reads)."""
    xc, gamma0, degenerate = centered_columns(x)
    live = np.flatnonzero(~degenerate)
    peak = np.zeros((x.shape[1], x.shape[1]))
    peak[np.ix_(live, live)] = _peak_abs_corr(xc, np.sqrt(gamma0), m, live, live)
    return peak


def ar1(rng, n, phi):
    x = np.empty(n)
    x[0] = rng.normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.normal()
    return x


def order_of(x, m, reorder):
    return count_factors(x, m, 0.05, (reorder,)).order[reorder]


class TestLbOrder:
    """The testing order of ``count_factors`` and its Ljung-Box p-values."""

    def test_single_component_identity(self):
        rng = np.random.default_rng(0)
        assert list(order_of(rng.normal(size=(60, 1)), 5, True)) == [0]

    def test_no_reorder_keeps_identity(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([ar1(rng, 300, 0.8), rng.normal(size=300), ar1(rng, 300, 0.5)])
        assert list(order_of(x, 10, False)) == [0, 1, 2]

    def test_dependent_component_first(self):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(100):
            x = np.column_stack([rng.normal(size=500), ar1(rng, 500, 0.8)])
            if order_of(x, 10, True)[0] == 1:
                hits += 1
        assert hits >= 99

    def test_pvalues_sorted_and_aligned(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([rng.normal(size=400) for _ in range(4)] + [ar1(rng, 400, 0.9)])
        counts = count_factors(x, 10, 0.05)
        assert np.all(np.diff(counts.pvalues[counts.order[True]]) >= 0)
        scalar = [chi2.sf(lb_statistic(x[:, i], 10), 10) for i in range(x.shape[1])]
        assert np.allclose(counts.pvalues, scalar)

    def test_underflowing_pvalues_order_by_statistic(self):
        # both p-values underflow to 0; the larger Ljung-Box Q still goes first
        rng = np.random.default_rng(21)
        x = np.column_stack([ar1(rng, 2000, 0.9), ar1(rng, 2000, 0.99), rng.normal(size=2000)])
        counts = count_factors(x, 10, 0.05)
        assert counts.pvalues[0] == 0.0 and counts.pvalues[1] == 0.0
        assert lb_statistic(x[:, 1], 10) > lb_statistic(x[:, 0], 10)
        assert list(counts.order[True]) == [1, 0, 2]

    def test_degenerate_last_with_warning(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([np.full(200, 3.0), ar1(rng, 200, 0.7), rng.normal(size=200)])
        with pytest.warns(UserWarning):
            counts = count_factors(x, 10, 0.05)
        assert counts.order[True][-1] == 0
        assert counts.pvalues[0] == 1.0
        # centering 0.1 and 1/3 leaves rounding noise below the constant-column
        # floor; their Ljung-Box Q must still be exactly 0, so the constants
        # keep their index order under both settings
        x = np.column_stack([np.full(200, 3.0), np.full(200, 0.1), np.full(200, 1 / 3), x[:, 1:]])
        assert centered_columns(x)[2].tolist() == [True] * 3 + [False] * 2
        with pytest.warns(UserWarning):
            counts = count_factors(x, 10, 0.05, (True, False))
        for reorder in (True, False):
            assert counts.order[reorder][-3:].tolist() == [0, 1, 2]
        assert np.all(_ljung_box(x, 10)[0][:3] == 0.0) and np.all(counts.pvalues[:3] == 1.0)


class TestHdWnTest:
    """The multi-series statistic and threshold behind the sequential count."""

    def test_threshold_single_series(self):
        assert _bonferroni_threshold(1, 1, 0.05) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_alternating_statistic_exact(self):
        n = 400
        x = np.tile([1.0, -1.0], n // 2)[:, None]
        statistic = np.sqrt(n) * peak_abs_corr(x, 1).max()
        assert statistic == pytest.approx(np.sqrt(n) * (n - 1) / n, rel=1e-12)
        assert statistic > _bonferroni_threshold(1, 1, 0.05)

    def test_statistic_matches_acf_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 1))
        xc = x[:, 0] - x[:, 0].mean()
        oracle = np.sqrt(200) * max(abs(xc[k:] @ xc[: 200 - k] / (xc @ xc)) for k in (1, 2, 3))
        assert np.sqrt(200) * peak_abs_corr(x, 3).max() == pytest.approx(oracle, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 5))
        scaled = x * np.array([1e-3, 1.0, 40.0, 7.0, 0.2])
        a = peak_abs_corr(x, 5)
        b = peak_abs_corr(scaled, 5)
        assert a.max() == pytest.approx(b.max(), rel=1e-10)
        assert np.allclose(a, b, rtol=1e-10, atol=0.0)

    def test_empirical_size_conservative(self):
        # the count is positive exactly when the test on all components rejects
        rng = np.random.default_rng(8)
        rejections = 0
        for _ in range(200):
            x = rng.normal(size=(1000, 20))
            if count_factors(x, 10, 0.05).r2[True] > 0:
                rejections += 1
        assert rejections / 200 <= 0.08

    def test_degenerate_excluded(self):
        # rounding noise on a constant would correlate perfectly at lag 1
        rng = np.random.default_rng(9)
        flat = 2.0 + 1e-15 * np.tile([1.0, -1.0], 50)
        x = np.column_stack([flat, rng.normal(size=100)])
        assert centered_columns(x)[2].tolist() == [True, False]
        with pytest.warns(UserWarning):
            counts = count_factors(x, 2, 0.05, (True, False))
        assert counts.r2 == {True: 0, False: 0}
        assert list(counts.order[False]) == [1, 0]


class TestEstimateR2Small:
    """The bottom-up Ljung-Box count of ``count_factors``."""

    def test_all_white(self):
        rng = np.random.default_rng(10)
        hits = 0
        for _ in range(100):
            x = rng.normal(size=(2000, 4))
            if count_factors(x, 10, 0.05, bottom_up=True).r2[True] == 0:
                hits += 1
        assert hits >= 80

    def test_two_factors_detected(self):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(50):
            x = np.column_stack(
                [ar1(rng, 2000, 0.8), ar1(rng, 2000, 0.7),
                 rng.normal(size=2000), rng.normal(size=2000)]
            )
            if count_factors(x, 10, 0.05, bottom_up=True).r2[True] == 2:
                hits += 1
        assert hits >= 45

    def test_count_conservation(self):
        rng = np.random.default_rng(12)
        x = np.column_stack([ar1(rng, 300, 0.9), rng.normal(size=300)])
        assert 0 <= count_factors(x, 10, 0.05, bottom_up=True).r2[True] <= 2


class TestEstimateR2Large:
    """The sequential multi-series count of ``count_factors``."""

    def test_all_white_accepts(self):
        rng = np.random.default_rng(13)
        hits = 0
        for _ in range(100):
            x = rng.normal(size=(500, 40))
            r2 = count_factors(x, 10, 0.05).r2[True]
            assert 0 <= r2 <= 40
            if r2 == 0:
                hits += 1
        assert hits >= 85

    def test_factors_counted(self):
        rng = np.random.default_rng(14)
        hits = 0
        for _ in range(30):
            factors = np.column_stack([ar1(rng, 800, 0.8), ar1(rng, 800, 0.7)])
            noise = rng.normal(size=(800, 18))
            x = np.hstack([factors, noise])
            if count_factors(x, 10, 0.05).r2[True] == 2:
                hits += 1
        assert hits >= 24

    def test_reorder_rescues_late_dependent_component(self):
        # dependent component sits LAST in the supplied (eigen) order
        rng = np.random.default_rng(15)
        x = np.hstack([rng.normal(size=(600, 11)), ar1(rng, 600, 0.9)[:, None]])
        r2 = count_factors(x, 10, 0.05, (True, False)).r2
        assert r2[True] == 1
        assert r2[False] == 12  # drop-from-front must flush everything

    def test_truncation_counts_tail_as_white(self):
        rng = np.random.default_rng(16)
        n, d = 100, 120
        x = np.hstack([ar1(rng, n, 0.9)[:, None], rng.normal(size=(n, d - 1))])
        counts = count_factors(x, 5, 0.05, epsilon=0.5)
        assert counts.truncated == d - int(0.5 * n)
        assert counts.r2[True] <= int(0.5 * n)

    def test_epsilon_validation(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ArgumentError):
            count_factors(rng.normal(size=(50, 5)), 5, 0.05, epsilon=0.0)


class TestCountFactors:
    @staticmethod
    def sequential_reference(x, m, alpha, reorder, keep):
        # the definition: order by the scalar Ljung-Box statistic (descending,
        # stable) or keep the given order, constant columns last either way,
        # then drop the leading component until the rest tests white
        n = x.shape[0]
        constant = centered_columns(x)[2]
        q = np.array([-np.inf if c else lb_statistic(x[:, i], m) if reorder else 0.0
                      for i, c in enumerate(constant)])
        order = np.argsort(-q, kind="stable")
        ordered = x[:, order[:keep]]
        for j in range(keep):
            statistic = np.sqrt(n) * peak_abs_corr(ordered[:, j:], m).max()
            if not statistic > _bonferroni_threshold(keep - j, m, alpha):
                return j
        return keep

    @pytest.mark.parametrize("n, d, keep", [(400, 30, 30), (60, 80, 45)])
    def test_both_variants_match_reference(self, n, d, keep):
        rng = np.random.default_rng(18)
        for _ in range(5):
            dependent = np.column_stack([ar1(rng, n, 0.8) for _ in range(3)])
            x = np.hstack([rng.normal(size=(n, d - 6)), dependent, rng.normal(size=(n, 3))])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                counts = count_factors(x, 5, 0.05, (True, False))
                for reorder in (True, False):
                    expected = self.sequential_reference(x, 5, 0.05, reorder, keep)
                    assert counts.r2[reorder] == expected
            assert counts.truncated == d - keep

    def test_many_drops_match_reference(self):
        rng = np.random.default_rng(22)
        n = 400
        dependent = np.column_stack([ar1(rng, n, rng.uniform(0.3, 0.9)) for _ in range(60)])
        x = np.hstack([dependent, rng.normal(size=(n, 20))])
        counts = count_factors(x, 5, 0.05, (True, False))
        for reorder in (True, False):
            assert counts.r2[reorder] == self.sequential_reference(x, 5, 0.05, reorder, 80)
        assert counts.r2[True] >= 50

    def test_trailing_scan_with_many_drops_matches_reference(self):
        # both variants in one call, each scanning past two blocks, over kept
        # sets that differ because the panel is wide
        rng = np.random.default_rng(23)
        n, d = 300, 320
        x = np.hstack([np.column_stack([ar1(rng, n, rng.uniform(0.3, 0.9)) for _ in range(220)]),
                       rng.normal(size=(n, d - 220))])
        x[:, :240] = x[:, rng.permutation(240)]
        keep = int(0.9 * n)
        assert keep > 2 * _SCAN_BLOCK
        counts = count_factors(x, 5, 0.05, (True, False), epsilon=0.9)
        for reorder in (True, False):
            assert counts.r2[reorder] == self.sequential_reference(x, 5, 0.05, reorder, keep)
            assert 0 < counts.r2[reorder] < keep
        assert counts.r2[True] >= 150
        scanned = counts.scanned_components
        assert all(keep - scanned[r] <= counts.r2[r] for r in scanned)
        assert min(scanned.values()) < keep

    @pytest.mark.parametrize("width", [_SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1,
                                       2 * _SCAN_BLOCK + 1])
    def test_trailing_scan_at_block_edges(self, width):
        # two constant columns and three null components close the kept width
        rng = np.random.default_rng(width)
        n, null = 400, 3
        tested = width - null
        dependent = np.column_stack([ar1(rng, n, 0.5) for _ in range(tested // 2)])
        x = np.hstack([dependent, rng.normal(size=(n, tested - 2 - dependent.shape[1]))])
        x = np.hstack([x[:, rng.permutation(x.shape[1])], np.full((n, 2), 1.5)])
        with pytest.warns(UserWarning, match="2 constant"):
            counts = count_factors(x, 5, 0.05, (True, False), null=null)
        reference = np.hstack([x, np.zeros((n, null))])
        for reorder in (True, False):
            assert counts.r2[reorder] == self.sequential_reference(reference, 5, 0.05, reorder,
                                                                   width)
            assert list(counts.order[reorder][-5:]) == [tested - 2, tested - 1] + list(
                range(tested, width))
            start = width - counts.scanned_components[reorder]
            assert start % _SCAN_BLOCK == width % _SCAN_BLOCK or start == 0
        assert counts.truncated == 0

    def test_bottom_up_keeps_input_order(self):
        rng = np.random.default_rng(19)
        x = np.column_stack([ar1(rng, 500, 0.8), rng.normal(size=500), rng.normal(size=500)])
        counts = count_factors(x, 10, 0.05, (True, False), bottom_up=True)
        # the definition: the position of the last component that rejects white noise
        scalar = [chi2.sf(lb_statistic(x[:, i], 10), 10) for i in range(3)]
        expected = max((i + 1 for i in range(3) if scalar[i] < 0.05), default=0)
        for reorder in (True, False):
            assert list(counts.order[reorder]) == [0, 1, 2]
            assert counts.r2[reorder] == expected
        assert np.allclose(counts.pvalues, scalar)

    def test_no_reorder_pushes_constant_components_last(self):
        rng = np.random.default_rng(20)
        x = np.column_stack([np.full(300, 1.5), ar1(rng, 300, 0.8), rng.normal(size=(300, 11))])
        with pytest.warns(UserWarning):
            counts = count_factors(x, 10, 0.05, (False,))
        assert list(counts.order[False]) == list(range(1, 13)) + [0]
