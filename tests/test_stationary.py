"""Second-stage eigenanalysis: M2, projected PCA, prominent noise, recovery."""

import numpy as np
import pytest

from trendfactors.errors import ArgumentError, IllConditionedError
from trendfactors.stationary import (
    build_M2,
    estimate_K,
    estimate_V2,
    lam_yao_ratio,
    projected_S,
    recover_z2,
)
from trendfactors.tsstats import sample_autocov, sym_eigen


def ar_panel(rng, n, phis):
    out = np.empty((n, len(phis)))
    for i, phi in enumerate(phis):
        x = np.empty(n)
        x[0] = rng.normal()
        for t in range(1, n):
            x[t] = phi * x[t - 1] + rng.normal()
        out[:, i] = x
    return out


class TestBuildM2:
    def test_single_term(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        c1 = sample_autocov(x, 1)
        assert np.allclose(build_M2(x, 1), c1 @ c1.T, atol=1e-12)

    def test_iid_norm_vanishes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5000, 4))
        m2 = build_M2(x, 2)
        sig0 = sample_autocov(x, 0)
        assert np.linalg.norm(m2, 2) <= 0.05 * np.linalg.norm(sig0, 2) ** 2

    def test_psd(self):
        rng = np.random.default_rng(2)
        x = ar_panel(rng, 200, [0.5, 0.8])
        m2 = build_M2(x, 3)
        w = np.linalg.eigvalsh(m2)
        assert w.min() >= -1e-10 * np.trace(m2)

    def test_j0_range(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ArgumentError):
            build_M2(rng.normal(size=(10, 2)), 0)
        with pytest.raises(ArgumentError):
            build_M2(rng.normal(size=(10, 2)), 9)


class TestSplitU1V1:
    def test_factor_direction_recovered(self):
        from trendfactors.simgen import metric_Dbar

        rng = np.random.default_rng(5)
        n, d, r2 = 3000, 6, 2
        f = ar_panel(rng, n, [0.7, 0.8])
        u1_true = np.linalg.qr(rng.normal(size=(d, r2)))[0]
        noise = rng.normal(size=(n, d)) * 0.5
        x2 = f @ u1_true.T + noise
        u1_hat = sym_eigen(build_M2(x2, 2)).vectors[:, :r2]
        assert metric_Dbar(u1_hat, u1_true) <= 0.1


def factor_of(s):
    """A ``g`` with ``g g' = s`` for a symmetric positive semidefinite ``s``, one
    column per nonzero eigenvalue, with the eigendecomposition of ``g' g``."""
    values, vectors = np.linalg.eigh(s)
    live = values > 1e-12 * max(values.max(), 1.0)
    g = vectors[:, live] * np.sqrt(values[live])
    return g, sym_eigen(g.T @ g)


def v2_of(s, u1, r2, K):
    g, gram_eig = factor_of(s)
    return estimate_V2(g, gram_eig, u1, r2=r2, K=K)[0]


def projector(v):
    return v @ np.linalg.pinv(v)


class TestProjectedS:
    def test_projector_spectrum_with_identity_cov(self):
        # x2 pre-whitened: lag-0 covariance exactly the identity
        rng = np.random.default_rng(6)
        x = rng.normal(size=(400, 4))
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / x.shape[0]
        white = xc @ np.linalg.inv(np.linalg.cholesky(cov)).T
        v1 = np.eye(4)[:, :3]
        g = projected_S(white, v1)
        w = np.sort(np.linalg.eigvalsh(g @ g.T))[::-1]
        assert np.allclose(w[:3], 1.0, atol=1e-8)
        assert np.allclose(w[3:], 0.0, atol=1e-8)

    def test_empty_v1_gives_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 3))
        g = projected_S(x, np.zeros((3, 0)))
        assert g.shape == (3, 0) and np.allclose(g @ g.T, 0.0)

    def test_psd_and_sign_invariance(self):
        rng = np.random.default_rng(8)
        x = ar_panel(rng, 150, [0.6, 0.4, 0.2])
        v1 = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        g = projected_S(x, v1)
        s = g @ g.T
        assert np.linalg.eigvalsh(s).min() >= -1e-10 * np.trace(s)
        g_flipped = projected_S(x, -v1)
        assert np.allclose(g_flipped @ g_flipped.T, s, atol=1e-12)

    def test_gram_spectrum_matches_dense_eigenvalues(self):
        # S = g g' has g' g's spectrum followed by exact zeros
        rng = np.random.default_rng(15)
        for d, v in ((6, 4), (40, 31), (80, 1)):
            x = ar_panel(rng, 300, rng.uniform(-0.5, 0.9, d))
            v1 = np.linalg.qr(rng.normal(size=(d, v)))[0]
            g = projected_S(x, v1)
            padded = np.concatenate([sym_eigen(g.T @ g).values, np.zeros(d - v)])
            dense = np.sort(np.linalg.eigvalsh(g @ g.T))[::-1]
            assert np.max(np.abs(padded - dense)) <= 1e-10 * dense[0]

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ArgumentError):
            projected_S(rng.normal(size=(50, 3)), np.eye(4)[:, :2])
        with pytest.raises(ArgumentError):
            projected_S(rng.normal(size=(50, 3)), rng.normal(size=(3, 2)))


class TestEstimateK:
    def test_prominent_gap(self):
        assert estimate_K([100.0, 2.0, 1.9, 1.8], max_k=2, tau=10.0) == 1

    def test_flat_spectrum(self):
        assert estimate_K([3.0, 2.9, 2.8, 2.7], max_k=3, tau=10.0) == 0

    def test_floors_nonpositive(self):
        assert estimate_K([1.0, 0.0, -1e-12], max_k=1, tau=10.0) == 1

    def test_needs_enough_eigenvalues(self):
        with pytest.raises(ArgumentError):
            estimate_K([1.0, 0.5], max_k=2)


class TestEstimateV2:
    def test_small_p_diagonal(self):
        s = np.diag([5.0, 4.0, 0.0, 0.0])
        u1 = np.eye(4)[:, 2:]
        v2 = v2_of(s, u1, r2=2, K=0)
        proj = v2 @ v2.T
        expect = np.diag([0.0, 0.0, 1.0, 1.0])
        assert np.allclose(proj, expect, atol=1e-10)

    def test_orthogonal_factor_construction_conditioning(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        u1 = q[:, :2]
        # S has exact null space spanned by u1: well-posed recovery
        rest = q[:, 2:]
        s = rest @ np.diag([3.0, 2.0, 1.0]) @ rest.T
        v2 = v2_of(s, u1, r2=2, K=0)
        smin = np.linalg.svd(v2.T @ u1, compute_uv=False)[-1]
        assert smin > 0.1

    def test_rotation_recovers_u1_image(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        u1 = q[:, :2]
        spike = q[:, 2:3]
        s = 50.0 * spike @ spike.T + q[:, 3:] @ np.diag([0.5, 0.3, 0.1]) @ q[:, 3:].T
        v2 = v2_of(s, u1, r2=2, K=1)
        smin = np.linalg.svd(v2.T @ u1, compute_uv=False)[-1]
        assert smin >= 0.9

    def test_singular_recovery_raises(self):
        u1 = np.eye(4)[:, :2]
        s = np.diag([0.0, 0.0, 3.0, 2.0])
        # S's null space span(e3, e4) is orthogonal to u1: V2'U1 is singular
        s_bad = np.diag([3.0, 2.0, 0.0, 0.0])
        with pytest.raises(IllConditionedError):
            v2_of(s_bad, u1, r2=2, K=0)
        assert v2_of(s, u1, r2=2, K=0).shape == (4, 2)

    def test_returns_v2_times_u1(self):
        rng = np.random.default_rng(16)
        q = np.linalg.qr(rng.normal(size=(7, 7)))[0]
        u1 = np.linalg.qr(q[:, :2] + 0.1 * rng.normal(size=(7, 2)))[0]
        for K in (0, 2):
            g, gram_eig = factor_of(q[:, 2:] @ np.diag([40.0, 30.0, 2.0, 1.5, 1.0]) @ q[:, 2:].T)
            v2, v2u1 = estimate_V2(g, gram_eig, u1, r2=2, K=K)
            assert np.allclose(v2.T @ v2, np.eye(2), atol=1e-12)
            assert np.array_equal(v2u1, v2.T @ u1)

    def test_rotation_spans_top_eigenvectors_of_gram(self):
        # the projection spans what S's other eigenvectors rotated toward U1 span
        rng = np.random.default_rng(14)
        for _ in range(20):
            d = int(rng.integers(4, 40))
            K = int(rng.integers(1, d // 2))
            r2 = int(rng.integers(1, d - K + 1))
            a = rng.normal(size=(d, d))
            g = a @ np.diag(np.sqrt(rng.exponential(size=d)))
            s = g @ g.T
            u1 = np.linalg.qr(rng.normal(size=(d, r2)))[0]
            v2_star = sym_eigen(s).vectors[:, K:]
            h = v2_star.T @ u1
            expected = v2_star @ sym_eigen(h @ h.T).vectors[:, :r2]
            v2 = estimate_V2(g, sym_eigen(g.T @ g), u1, r2=r2, K=K)[0]
            assert v2.shape == (d, r2)
            assert np.max(np.abs(v2 @ v2.T - expected @ expected.T)) <= 1e-10

    @pytest.mark.parametrize("K", [0, 1, 3])
    def test_projector_matches_eigenvector_route(self, K):
        # K = 0: S's r2 smallest eigenvectors; K > 0: its eigenvectors past the
        # K largest, rotated by the left singular vectors of their product with U1
        rng = np.random.default_rng(17 + K)
        for d, r2 in ((12, 3), (60, 10), (150, 40)):
            x = ar_panel(rng, 400, rng.uniform(0.0, 0.8, d))
            x[:, :K] *= 30.0
            v1 = np.linalg.qr(rng.normal(size=(d, d - r2)))[0]
            u1 = np.linalg.qr(rng.normal(size=(d, r2)))[0]
            g = projected_S(x, v1)
            eig = sym_eigen(g @ g.T)
            if K == 0:
                expected = eig.vectors[:, d - r2:]
            else:
                rot = np.linalg.svd(eig.vectors[:, K:].T @ u1, full_matrices=False)[0]
                expected = eig.vectors[:, K:] @ rot
            v2 = estimate_V2(g, sym_eigen(g.T @ g), u1, r2=r2, K=K)[0]
            assert np.max(np.abs(projector(v2) - projector(expected))) <= 1e-10

    def test_r2_zero_empty(self):
        g, gram_eig = factor_of(np.eye(3))
        v2, v2u1 = estimate_V2(g, gram_eig, np.zeros((3, 0)), r2=0, K=0)
        assert v2.shape == (3, 0) and v2u1.shape == (0, 0)


class TestRecoverZ2:
    def test_exact_inversion(self):
        rng = np.random.default_rng(12)
        u1 = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        z = rng.normal(size=(40, 2))
        x2 = z @ u1.T
        got = recover_z2(u1, u1.T @ u1, x2)
        assert np.max(np.abs(got - z)) <= 1e-10

    def test_zero_panel(self):
        u1 = np.eye(3)[:, :1]
        assert np.allclose(recover_z2(u1, u1.T @ u1, np.zeros((10, 3))), 0.0)

    def test_roundtrip_any_invertible_mixing(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
            u1 = q[:, :3]
            z = rng.normal(size=(25, 3))
            x2 = z @ u1.T
            v2 = q[:, :3] @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
            got = recover_z2(v2, v2.T @ u1, x2)
            assert np.max(np.abs(got - z)) <= 1e-9


class TestLamYao:
    def test_hand_example(self):
        assert lam_yao_ratio([10.0, 5.0, 0.1, 0.09, 0.08], R=2) == 2

    def test_geometric_tie_break(self):
        lam = 2.0 ** -np.arange(1, 9)
        for big_r in (1, 3, 7):
            assert lam_yao_ratio(lam, R=big_r) == 1

    def test_floors_zero_denominator(self):
        assert lam_yao_ratio([4.0, 2.0, 0.0, 0.0], R=2) == 2

    def test_validation(self):
        with pytest.raises(ArgumentError):
            lam_yao_ratio([1.0, 0.5], R=0)
        with pytest.raises(ArgumentError):
            lam_yao_ratio([1.0, 0.5], R=2)
