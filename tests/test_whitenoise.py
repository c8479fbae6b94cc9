"""White-noise counting: ordering, the multi-series test, both procedures."""

import warnings

import numpy as np
import pytest

from trendfactors.errors import ArgumentError
from trendfactors.tsstats import ljung_box
from trendfactors.whitenoise import (
    count_factors,
    estimate_r2_large,
    estimate_r2_small,
    hd_wn_test,
    lb_order,
    ljung_box_pvalues,
)


def ar1(rng, n, phi):
    x = np.empty(n)
    x[0] = rng.normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + rng.normal()
    return x


class TestLbOrder:
    def test_single_component_identity(self):
        rng = np.random.default_rng(0)
        oc = lb_order(rng.normal(size=(60, 1)), 5, reorder=True)
        assert list(oc.order) == [0]

    def test_no_reorder_keeps_identity(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([ar1(rng, 300, 0.8), rng.normal(size=300), ar1(rng, 300, 0.5)])
        oc = lb_order(x, 10, reorder=False)
        assert list(oc.order) == [0, 1, 2]

    def test_dependent_component_first(self):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(100):
            x = np.column_stack([rng.normal(size=500), ar1(rng, 500, 0.8)])
            oc = lb_order(x, 10, reorder=True)
            if oc.order[0] == 1:
                hits += 1
        assert hits >= 99

    def test_pvalues_sorted_and_aligned(self):
        rng = np.random.default_rng(3)
        x = np.column_stack([rng.normal(size=400) for _ in range(4)] + [ar1(rng, 400, 0.9)])
        oc = lb_order(x, 10, reorder=True)
        assert np.all(np.diff(oc.pvalues) >= 0)
        raw, _ = ljung_box_pvalues(x, 10)
        assert np.allclose(oc.pvalues, raw[oc.order])

    def test_underflowing_pvalues_order_by_statistic(self):
        # both p-values underflow to 0; the larger Ljung-Box Q still goes first
        rng = np.random.default_rng(21)
        x = np.column_stack([ar1(rng, 2000, 0.9), ar1(rng, 2000, 0.99), rng.normal(size=2000)])
        pvalues, _ = ljung_box_pvalues(x, 10)
        assert pvalues[0] == 0.0 and pvalues[1] == 0.0
        assert ljung_box(x[:, 1], 10).statistic > ljung_box(x[:, 0], 10).statistic
        assert list(lb_order(x, 10, reorder=True).order) == [1, 0, 2]
        assert list(count_factors(x, 10, 0.05).order[True]) == [1, 0, 2]

    def test_degenerate_last_with_warning(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([np.full(200, 3.0), ar1(rng, 200, 0.7), rng.normal(size=200)])
        with pytest.warns(UserWarning):
            oc = lb_order(x, 10, reorder=True)
        assert oc.order[-1] == 0
        assert oc.pvalues[-1] == 1.0
        assert bool(oc.degenerate[-1])


class TestHdWnTest:
    def test_threshold_single_series(self):
        res = hd_wn_test(np.random.default_rng(5).normal(size=(100, 1)), 1, 0.05)
        assert res.threshold == pytest.approx(1.959963984540054, abs=1e-9)

    def test_alternating_statistic_exact(self):
        n = 400
        x = np.tile([1.0, -1.0], n // 2)[:, None]
        res = hd_wn_test(x, 1, 0.05)
        assert res.statistic == pytest.approx(np.sqrt(n) * (n - 1) / n, rel=1e-12)
        assert res.reject

    def test_statistic_matches_acf_oracle(self):
        from trendfactors.tsstats import sample_acf

        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 1))
        res = hd_wn_test(x, 3, 0.05)
        oracle = np.sqrt(200) * max(abs(sample_acf(x[:, 0], k)) for k in (1, 2, 3))
        assert res.statistic == pytest.approx(oracle, rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 5))
        scaled = x * np.array([1e-3, 1.0, 40.0, 7.0, 0.2])
        a = hd_wn_test(x, 5, 0.05)
        b = hd_wn_test(scaled, 5, 0.05)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-10)

    def test_empirical_size_conservative(self):
        rng = np.random.default_rng(8)
        rejections = 0
        for _ in range(200):
            x = rng.normal(size=(1000, 20))
            if hd_wn_test(x, 10, 0.05).reject:
                rejections += 1
        assert rejections / 200 <= 0.08

    def test_degenerate_excluded(self):
        rng = np.random.default_rng(9)
        x = np.column_stack([np.full(100, 2.0), rng.normal(size=100)])
        with pytest.warns(UserWarning):
            res = hd_wn_test(x, 2, 0.05)
        assert np.isfinite(res.statistic)


class TestEstimateR2Small:
    def test_all_white(self):
        rng = np.random.default_rng(10)
        hits = 0
        for _ in range(100):
            x = rng.normal(size=(2000, 4))
            r2, v = estimate_r2_small(x, 10, 0.05)
            assert r2 + v == 4
            if r2 == 0:
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
            if estimate_r2_small(x, 10, 0.05) == (2, 2):
                hits += 1
        assert hits >= 45

    def test_count_conservation(self):
        rng = np.random.default_rng(12)
        x = np.column_stack([ar1(rng, 300, 0.9), rng.normal(size=300)])
        r2, v = estimate_r2_small(x, 10, 0.05)
        assert r2 + v == 2


class TestEstimateR2Large:
    def test_all_white_accepts(self):
        rng = np.random.default_rng(13)
        hits = 0
        for _ in range(100):
            x = rng.normal(size=(500, 40))
            r2, v = estimate_r2_large(x, 10, 0.05, reorder=True)
            assert r2 + v == 40
            if v == 40:
                hits += 1
        assert hits >= 85

    def test_factors_counted(self):
        rng = np.random.default_rng(14)
        hits = 0
        for _ in range(30):
            factors = np.column_stack([ar1(rng, 800, 0.8), ar1(rng, 800, 0.7)])
            noise = rng.normal(size=(800, 18))
            x = np.hstack([factors, noise])
            r2, v = estimate_r2_large(x, 10, 0.05, reorder=True)
            if (r2, v) == (2, 18):
                hits += 1
        assert hits >= 24

    def test_reorder_rescues_late_dependent_component(self):
        # dependent component sits LAST in the supplied (eigen) order
        rng = np.random.default_rng(15)
        x = np.hstack([rng.normal(size=(600, 11)), ar1(rng, 600, 0.9)[:, None]])
        r2_w, v_w = estimate_r2_large(x, 10, 0.05, reorder=False)
        r2_ws, v_ws = estimate_r2_large(x, 10, 0.05, reorder=True)
        assert v_ws >= v_w
        assert (r2_ws, v_ws) == (1, 11)
        assert r2_w == 12  # drop-from-front must flush everything

    def test_truncation_counts_tail_as_white(self):
        rng = np.random.default_rng(16)
        n, d = 100, 120
        x = np.hstack([ar1(rng, n, 0.9)[:, None], rng.normal(size=(n, d - 1))])
        r2, v = estimate_r2_large(x, 5, 0.05, reorder=True, epsilon=0.5)
        assert r2 + v == d
        assert r2 <= int(0.5 * n)

    def test_epsilon_validation(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ArgumentError):
            estimate_r2_large(rng.normal(size=(50, 5)), 5, 0.05, True, epsilon=0.0)


class TestCountFactors:
    @staticmethod
    def sequential_reference(x, m, alpha, reorder, keep):
        # the definition: drop the leading component until the rest tests white
        ordered = lb_order(x, m, reorder).ordered()[:, :keep]
        for j in range(keep):
            if not hd_wn_test(ordered[:, j:], m, alpha).reject:
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
                    assert estimate_r2_large(x, 5, 0.05, reorder) == (expected, d - expected)
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

    def test_bottom_up_keeps_input_order(self):
        rng = np.random.default_rng(19)
        x = np.column_stack([ar1(rng, 500, 0.8), rng.normal(size=500), rng.normal(size=500)])
        counts = count_factors(x, 10, 0.05, (True, False), bottom_up=True)
        for reorder in (True, False):
            assert list(counts.order[reorder]) == [0, 1, 2]
            assert counts.r2[reorder] == estimate_r2_small(x, 10, 0.05)[0]
        assert np.array_equal(counts.pvalues, ljung_box_pvalues(x, 10)[0])

    def test_no_reorder_pushes_constant_components_last(self):
        rng = np.random.default_rng(20)
        x = np.column_stack([np.full(300, 1.5), ar1(rng, 300, 0.8), rng.normal(size=(300, 11))])
        with pytest.warns(UserWarning):
            counts = count_factors(x, 10, 0.05, (False,))
        assert list(counts.order[False]) == list(range(1, 13)) + [0]
        assert list(counts.order[False]) == list(lb_order(x, 10, reorder=False).order)
