"""First-stage eigenanalysis: M1, the transformed panel, and the r1 scan."""

import numpy as np
import pytest

from trendfactors.errors import ArgumentError
from trendfactors.pipeline import PipelineConfig
from trendfactors.unitroot import (
    acf_profile,
    build_M1,
    first_stage,
    probe_lags,
    scan_r1,
)

from autocov_reference import sample_autocov


def r1_count(y, config=PipelineConfig()):
    _, rho, _ = first_stage(y, config.k0, config.l, config.m)
    return scan_r1(rho, config.c0, config.absolute_acf)


def test_params_validation():
    y = np.cumsum(np.random.default_rng(0).normal(size=(50, 2)), axis=0)
    with pytest.raises(ArgumentError):
        first_stage(y, 2, 0, 10)
    with pytest.raises(ArgumentError):
        first_stage(y, 2, 3, 0)
    assert list(probe_lags(3, 4)) == [1, 4, 7, 10]


class TestBuildM1:
    def test_single_term_is_gram_of_lag0(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(30, 4))
        c0 = sample_autocov(y, 0)
        assert np.allclose(build_M1(y, 0), c0 @ c0.T, atol=1e-12)

    def test_constant_panel_zero(self):
        assert np.allclose(build_M1(np.full((10, 3), 7.0), 2), 0.0, atol=1e-12)

    def test_psd_and_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            y = rng.normal(size=(40, 5))
            m1 = build_M1(y, 2)
            assert np.array_equal(m1, m1.T)
            w = np.linalg.eigvalsh(m1)
            assert w.min() >= -1e-10 * np.trace(m1)

    def test_k0_out_of_range(self):
        with pytest.raises(ArgumentError):
            build_M1(np.zeros((5, 2)) + np.arange(5)[:, None], 4)


class TestSplitSpaces:
    """The unit-root / stationary split is a column slice of ``first_stage``'s ``x``."""

    @pytest.mark.parametrize("r1", [0, 1, 2, 3])
    def test_reconstruction_every_split(self, r1):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(25, 3))
        eig, _, x = first_stage(y, 1, 1, 5)
        assert np.allclose(x, y @ eig.basis(), rtol=0.0, atol=1e-12)
        a1, a2 = eig.times(slice(0, r1)), eig.times(slice(r1, None))
        basis = np.hstack([a1, a2])
        assert np.max(np.abs(basis.T @ basis - np.eye(3))) <= 1e-8
        recon = x[:, :r1] @ a1.T + x[:, r1:] @ a2.T
        assert np.max(np.abs(recon - y)) <= 1e-8 * max(1.0, np.abs(y).max())

    def test_degenerate_ends(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(20, 4))
        eig, _, x = first_stage(y, 1, 1, 5)
        assert eig.times(slice(0, 0)).shape == (4, 0) and x[:, 0:].shape == (20, 4)
        assert eig.times(slice(4, None)).shape == (4, 0) and x[:, :4].shape == (20, 4)
        assert x[:, :0].shape == x[:, 4:].shape == (20, 0)

    def test_random_walk_direction_found(self):
        rng = np.random.default_rng(5)
        n = 2000
        y = np.column_stack([np.cumsum(rng.normal(size=n)), rng.normal(size=n)])
        eig, rho, x = first_stage(y, 2, 3, 10)
        assert scan_r1(rho, 0.3, absolute=True) == 1
        assert abs(eig.basis()[0, 0]) >= 0.99
        assert abs(np.corrcoef(x[:, 0], y[:, 0])[0, 1]) >= 0.99

    def test_wide_null_columns_constant(self):
        rng = np.random.default_rng(4)
        n, p = 20, 30
        y = rng.normal(size=(n, p)) + rng.normal(size=p)
        eig, rho, x = first_stage(y, 1, 1, 5)
        null = p - n + 1
        basis = eig.basis()
        # W lives in the row-space coordinates; the eigenvectors are one product away
        assert eig.W.shape == (n - 1, n - 1)
        assert np.array_equal(basis[:, :-null], eig.times(slice(None)))
        yc = y - y.mean(axis=0)
        assert np.array_equal(basis[:, -null:],
                              np.linalg.qr(yc[:-1].T, mode="complete")[0][:, n - 1:])
        assert np.array_equal(x[:, -null:], np.broadcast_to(x[0, -null:], (n, null)))
        # the constants come from applying the reflectors to ybar, not from the formed basis
        assert np.max(np.abs(x[0, -null:] - y.mean(axis=0) @ basis[:, -null:])) <= (
            1e-12 * np.abs(y).max())
        assert np.array_equal(rho[-null:], np.zeros((null, 5)))
        assert np.max(np.abs(x - y @ basis)) <= 1e-12 * np.abs(y).max()
        assert np.max(np.abs(x @ basis.T - y)) <= 1e-10 * np.abs(y).max()


class TestSStatistic:
    """The averaged (absolute) ACF that ``scan_r1`` thresholds."""

    def test_aggregation_all_ones(self):
        # s = 1 clears any threshold below 1
        assert scan_r1(np.ones((1, 10)), 0.99, absolute=True) == 1

    def test_aggregation_zeros(self):
        assert scan_r1(np.zeros((1, 10)), 1e-12, absolute=True) == 0

    def test_signed_cancellation(self):
        rhos = 0.5 * np.array([[1, -1, 1, -1, 1, -1, 1, -1, 1, -1]], dtype=float)
        assert scan_r1(rhos, 0.5, absolute=True) == 1
        assert scan_r1(rhos, 0.3, absolute=False) == 0

    def test_matches_acf_profile(self):
        rng = np.random.default_rng(6)
        x = np.cumsum(rng.normal(size=300))
        lags = probe_lags(2, 5)
        rho = acf_profile(x[:, None], lags)
        xc = x - x.mean()
        assert np.allclose(rho[0], [xc[k:] @ xc[: 300 - k] / (xc @ xc) for k in lags], rtol=1e-12)

    def test_lag_overflow(self):
        with pytest.raises(ArgumentError):
            first_stage(np.arange(10.0)[:, None], 2, 3, 10)

    def test_random_walk_high_noise_low(self):
        rng = np.random.default_rng(7)
        lags = probe_lags(PipelineConfig.l, PipelineConfig.m)
        walk = np.cumsum(rng.normal(size=1500))
        noise = rng.normal(size=1500)
        assert scan_r1(acf_profile(walk[:, None], lags), 0.8, absolute=True) == 1
        assert scan_r1(acf_profile(noise[:, None], lags), 0.2, absolute=True) == 0


class TestEstimateR1:
    def test_walk_plus_ar_mix(self):
        rng = np.random.default_rng(8)
        n = 3000
        walk = np.cumsum(rng.normal(size=n))
        ar = np.empty(n)
        ar[0] = rng.normal()
        for t in range(1, n):
            ar[t] = 0.7 * ar[t - 1] + rng.normal()
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        y = np.column_stack([walk, ar]) @ q.T
        assert r1_count(y) == 1

    def test_iid_panel_mostly_zero(self):
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(100):
            y = rng.normal(size=(2000, 4))
            if r1_count(y) == 0:
                hits += 1
        assert hits >= 95

    def test_rotation_invariance(self):
        rng = np.random.default_rng(10)
        n = 400
        y = np.column_stack(
            [np.cumsum(rng.normal(size=n)), rng.normal(size=n), rng.normal(size=n)]
        )
        base = r1_count(y)
        for seed in range(5):
            q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
            assert r1_count(y @ q.T) == base
