"""Second-stage eigenanalysis: M2, prominent noise, projected-PCA recovery."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from trendfactors.errors import ArgumentError, IllConditionedError
from trendfactors.pipeline import PipelineConfig, decompose, recover_factors, second_stage
from trendfactors.simgen import DgpSpec, generate
from trendfactors.stationary import (
    MAX_K,
    build_M2,
    estimate_K,
    estimate_V2,
    recover_z2,
)
from trendfactors.tsstats import EigenDecomposition, sym_eigen
from trendfactors.unitroot import first_stage, null_width, scan_r1

from autocov_reference import sample_autocov
from lam_yao import lam_yao_ratio


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
        from dense_paths import metric_Dbar

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


def v2_of(s, factors, K):
    g, gram_eig = factor_of(s)
    return estimate_V2(g, gram_eig, np.asarray(factors), K=K)


def projector(v):
    return v @ np.linalg.pinv(v)


def quiet_decompose(y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return decompose(y)


def dense_recovery(y, dec):
    """S's spectrum, V2 and z2 of ``dec`` by the dense route in ``x2``'s coordinates.

    Over the leading (row-space) components of ``x2``: ``S = G G'`` with
    ``G = C(0) V1`` and its ``d x d`` eigendecomposition; ``V2`` spans S's
    null space when ``K = 0`` and ``(I - P P') U1`` for S's ``K`` leading
    eigenvectors ``P`` when ``K > 0``; ``z2 = (V2' U1)^{-1} V2' x2``.  The
    spectrum is padded with zeros over the null-space components.  S's null
    space is read off the complete SVD of ``G``: ``eigh(S)`` finds it only to
    about ``eps * cond(S)``, 7.5e-10 on the (30, 1500) panel of ``DENSE``.
    """
    d, r2, K = dec.x2.shape[1], dec.r2_hat, dec.K_hat
    lead = d - null_width(*y.shape)
    x2, u1 = dec.x2[:, :lead], dec.U1[:lead]
    g = sample_autocov(x2, 0) @ dec.V1[:lead, : lead - r2]
    values, vectors = np.linalg.eigh(g @ g.T)
    values, vectors = values[::-1], vectors[:, ::-1]
    if K == 0:
        v2 = np.linalg.svd(g)[0][:, lead - r2:]
    else:
        p = vectors[:, :K]
        v2 = np.linalg.qr(u1 - p @ (p.T @ u1))[0]
    z2 = np.linalg.solve(v2.T @ u1, v2.T @ x2.T).T
    return np.concatenate([values, np.zeros(d - lead)]), v2, z2


def check_dense_recovery(y, dec):
    """``dec``'s S spectrum and V2 projector agree with :func:`dense_recovery`
    to 1e-10 and its z2 to 1e-8 relative; U1 and V2 are zero on the null space."""
    values, v2, z2 = dense_recovery(y, dec)
    lead = len(v2)
    got = dec.diagnostics["S_eigenvalues"]
    assert np.max(np.abs(got - values)) <= 1e-10 * max(values[0], 1e-300)
    assert np.max(np.abs(projector(dec.V2[:lead]) - projector(v2)), initial=0.0) <= 1e-10
    assert not dec.V2[lead:].any() and not dec.U1[lead:].any()
    scale = np.abs(z2).max(initial=0.0)
    assert np.max(np.abs(dec.z2 - z2), initial=0.0) <= 1e-8 * scale


def stages(y, config=PipelineConfig()):
    """``recover_factors``'s inputs for ``y``: stage one's result and ``second_stage``'s."""
    eig1, rho, x = first_stage(y, config.k0, config.l, config.m)
    r1 = scan_r1(rho, config.c0, config.absolute_acf)
    return eig1, rho, x, second_stage(x[:, r1:], config, (config.reorder,))


class TestProjectedS:
    """The projected-PCA matrix ``S = G G'``, ``G = C(0) V1``, that the recovery
    reads in the ``M2`` eigenbasis, against its dense form in ``x2``'s coordinates."""

    def test_projector_spectrum_with_identity_cov(self):
        # stationary components pre-whitened to lag-0 covariance I: S = V1 V1'
        rng = np.random.default_rng(6)
        x = rng.normal(size=(400, 4))
        xc = x - x.mean(axis=0)
        y = xc @ np.linalg.inv(np.linalg.cholesky(xc.T @ xc / 400)).T
        dec = quiet_decompose(y)
        assert dec.r1_hat == 0 and dec.v_hat >= 1
        values = dec.diagnostics["S_eigenvalues"]
        assert np.allclose(values[: dec.v_hat], 1.0, atol=1e-8)
        assert np.allclose(values[dec.v_hat:], 0.0, atol=1e-8)
        check_dense_recovery(y, dec)

    def test_empty_v1_gives_zero(self):
        # every stationary component is a factor: S = 0 and V2 spans everything
        y = ar_panel(np.random.default_rng(7), 400, [0.5, 0.5, 0.5])
        dec = quiet_decompose(y)
        assert dec.r1_hat == 0 and dec.r2_hat == 3 and dec.v_hat == 0
        assert np.all(dec.diagnostics["S_eigenvalues"] == 0.0)
        check_dense_recovery(y, dec)

    @pytest.mark.blas_threads
    def test_psd_and_sign_invariance(self):
        # S does not change when V1's columns (the M2 eigenvectors of the white
        # components) flip sign, and neither do V2's span and z2
        y = generate(DENSE[1])[0].data
        eig1, rho, x, (eig2, xi, counts) = stages(y)
        dec = recover_factors(eig1, rho, x, (eig2, xi, counts), PipelineConfig())
        values = dec.diagnostics["S_eigenvalues"]
        assert values.min() >= -1e-10 * values[0]
        sign = np.ones(xi.shape[1])
        white = counts.order[True][dec.r2_hat:]
        sign[white] = np.random.default_rng(8).choice([-1.0, 1.0], len(white))
        flipped = (EigenDecomposition(eig2.values, eig2.vectors * sign), xi * sign, counts)
        got = recover_factors(eig1, rho, x, flipped, PipelineConfig())
        assert np.array_equal(got.U1, dec.U1) and got.K_hat == dec.K_hat
        assert np.max(np.abs(got.diagnostics["S_eigenvalues"] - values)) <= 1e-10 * values[0]
        assert np.max(np.abs(projector(got.V2) - projector(dec.V2))) <= 1e-10
        assert np.max(np.abs(got.z2 - dec.z2)) <= 1e-8 * np.abs(dec.z2).max()

    def test_gram_spectrum_matches_dense_eigenvalues(self):
        # S's spectrum from the v x v Gram matrix, then exact zeros, for a
        # factor count and testing order forced onto the stationary panel
        rng = np.random.default_rng(15)
        for d, v in ((6, 4), (40, 31), (80, 1)):
            y = ar_panel(rng, 300, rng.uniform(-0.5, 0.5, d))
            eig1, rho, x, (eig2, xi, counts) = stages(y)
            forced = replace(counts, order={True: rng.permutation(d)}, r2={True: d - v})
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dec = recover_factors(eig1, rho, x, (eig2, xi, forced), PipelineConfig())
            assert dec.r1_hat == 0 and dec.v_hat == v
            dense = dense_recovery(y, dec)[0]
            got = dec.diagnostics["S_eigenvalues"]
            assert np.max(np.abs(got - dense)) <= 1e-10 * dense[0]


EX2 = dict(r1=4, r2=6, K=2, example=2)
DENSE = [
    DgpSpec(p=6, n=200, example=1, seed=1),
    DgpSpec(p=50, n=2000, seed=1, **EX2),
    DgpSpec(p=120, n=100, r1=2, r2=3, K=1, example=2, seed=1),
    DgpSpec(p=30, n=1500, r1=2, r2=3, K=0, example=2, seed=1),
]


@pytest.mark.blas_threads
class TestDenseRecovery:
    """The recovery in the M2 eigenbasis against the dense route in x2's coordinates."""

    @pytest.mark.parametrize(
        "spec", DENSE, ids=lambda s: f"ex{s.example}-p{s.p}-n{s.n}-K{s.K}"
    )
    def test_matches_dense_route(self, spec):
        y = generate(spec)[0].data
        dec = quiet_decompose(y)
        assert dec.r2_hat >= 1 and dec.v_hat >= 1
        # the covered branches: K = 0 on the ex1 and K = 0 panels, K > 0 on the others
        assert (dec.K_hat > 0) == (spec.K > 0)
        check_dense_recovery(y, dec)

    def test_ill_conditioned_fallback_projects_directly(self, monkeypatch):
        # every inversion counts as singular: V2 = U1 and z2 = U1' x2, which
        # recover_z2's solve against the identity gives as xi's factor columns
        from trendfactors import pipeline, stationary

        seen = {}

        def recording_stage(*args, **kwargs):
            seen["stage2"] = real_stage(*args, **kwargs)
            return seen["stage2"]

        real_stage = pipeline.second_stage
        monkeypatch.setattr(pipeline, "second_stage", recording_stage)
        monkeypatch.setattr(stationary, "_SV_TOL", 1.0 - 1e-6)
        dec = quiet_decompose(generate(DENSE[1])[0].data)
        assert dec.diagnostics["v2_fallback"]
        assert np.array_equal(dec.V2, dec.U1)
        expected = dec.x2 @ dec.U1
        assert np.max(np.abs(dec.z2 - expected)) <= 1e-12 * np.abs(expected).max()
        xi = seen["stage2"][1]
        order = dec.diagnostics["component_order"]
        assert np.array_equal(dec.z2, xi[:, order[: dec.r2_hat]])


class TestEstimateK:
    def test_prominent_gap(self):
        assert estimate_K([100.0, 2.0, 1.9, 1.8]) == 1

    def test_flat_spectrum(self):
        assert estimate_K([3.0, 2.9, 2.8, 2.7]) == 0

    def test_floors_nonpositive(self):
        assert estimate_K([1.0, 0.0, -1e-12]) == 1

    def test_needs_enough_eigenvalues(self):
        # no ratio to read: nothing counts as prominent
        assert estimate_K([]) == 0
        assert estimate_K([5.0]) == 0

    def test_reads_at_most_max_k_ratios(self):
        # the only large ratio sits at j = 11, past MAX_K = 10; at j = 10 it counts
        assert MAX_K == 10
        assert estimate_K([1.0] * 11 + [1e-6] * 2) == 0
        assert estimate_K([1.0] * 10 + [1e-6] * 3) == 10


class TestEstimateV2:
    """In the ``M2`` eigenbasis ``U1`` is the identity's columns ``factors``."""

    def test_small_p_diagonal(self):
        s = np.diag([5.0, 4.0, 0.0, 0.0])
        v2 = v2_of(s, [2, 3], K=0)
        assert np.allclose(v2 @ v2.T, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-10)

    def test_orthogonal_factor_construction_conditioning(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        # S has exact null space spanned by U1 = (e1, e2): well-posed recovery
        rest = q[:, 2:]
        s = q.T @ rest @ np.diag([3.0, 2.0, 1.0]) @ rest.T @ q
        v2 = v2_of(s, [0, 1], K=0)
        smin = np.linalg.svd(v2[[0, 1]], compute_uv=False)[-1]
        assert smin > 0.1

    def test_rotation_recovers_u1_image(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        spike = q[:, 2:3]
        s = 50.0 * spike @ spike.T + q[:, 3:] @ np.diag([0.5, 0.3, 0.1]) @ q[:, 3:].T
        s = q.T @ s @ q
        v2 = v2_of(s, [0, 1], K=1)
        smin = np.linalg.svd(v2[[0, 1]], compute_uv=False)[-1]
        assert smin >= 0.9

    def test_singular_recovery_raises(self):
        s = np.diag([0.0, 0.0, 3.0, 2.0])
        # S's null space span(e3, e4) is orthogonal to U1 = (e1, e2): V2'U1 is singular
        s_bad = np.diag([3.0, 2.0, 0.0, 0.0])
        with pytest.raises(IllConditionedError):
            v2_of(s_bad, [0, 1], K=0)
        assert v2_of(s, [0, 1], K=0).shape == (4, 2)

    def test_orthonormal_for_any_factor_indices(self):
        rng = np.random.default_rng(16)
        q = np.linalg.qr(rng.normal(size=(7, 7)))[0]
        for K in (0, 2):
            g, gram_eig = factor_of(q[:, 2:] @ np.diag([40.0, 30.0, 2.0, 1.5, 1.0]) @ q[:, 2:].T)
            v2 = estimate_V2(g, gram_eig, np.array([5, 1]), K=K)
            assert np.allclose(v2.T @ v2, np.eye(2), atol=1e-12)

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
            factors = rng.permutation(d)[:r2]
            v2_star = sym_eigen(s).vectors[:, K:]
            h = v2_star[factors].T
            expected = v2_star @ sym_eigen(h @ h.T).vectors[:, :r2]
            v2 = estimate_V2(g, sym_eigen(g.T @ g), factors, K=K)
            assert v2.shape == (d, r2)
            assert np.max(np.abs(v2 @ v2.T - expected @ expected.T)) <= 1e-10

    @pytest.mark.parametrize("K", [0, 1, 3])
    def test_projector_matches_eigenvector_route(self, K):
        # K = 0: S's r2 smallest eigenvectors; K > 0: its eigenvectors past the
        # K largest, rotated by the left singular vectors of their product with U1;
        # g is the white columns of the components' lag-0 covariance
        rng = np.random.default_rng(17 + K)
        for d, r2 in ((12, 3), (60, 10), (150, 40)):
            x = ar_panel(rng, 400, rng.uniform(0.0, 0.8, d))
            x[:, :K] *= 30.0
            xi = x @ np.linalg.qr(rng.normal(size=(d, d)))[0]
            order = rng.permutation(d)
            factors = order[:r2]
            g = sample_autocov(xi, 0)[:, order[r2:]]
            eig = sym_eigen(g @ g.T)
            if K == 0:
                expected = eig.vectors[:, d - r2:]
            else:
                rot = np.linalg.svd(eig.vectors[factors, K:].T, full_matrices=False)[0]
                expected = eig.vectors[:, K:] @ rot
            v2 = estimate_V2(g, sym_eigen(g.T @ g), factors, K=K)
            assert np.max(np.abs(projector(v2) - projector(expected))) <= 1e-10

    def test_r2_zero_empty(self):
        g, gram_eig = factor_of(np.eye(3))
        assert estimate_V2(g, gram_eig, np.zeros(0, dtype=int), K=0).shape == (3, 0)

    @pytest.mark.blas_threads
    @pytest.mark.parametrize("K", [0, 1])
    def test_no_factors_match_reference(self, K):
        # r2 = 0 runs the general path: an empty V2'U1 passes the conditioning
        # check, and a 0 x 0 solve gives no factor paths
        g, gram_eig = factor_of(np.diag([4.0, 2.0, 1.0, 0.0]))
        none = np.zeros(0, dtype=int)
        v2 = estimate_V2(g, gram_eig, none, K=K)
        assert v2.shape == (4, 0)
        xi = np.random.default_rng(18).normal(size=(30, 4))
        z2 = recover_z2(v2, none, xi)
        assert z2.shape == (30, 0) and np.array_equal(z2, np.zeros((30, 0)))

    def test_dimension_check(self):
        g, gram_eig = factor_of(np.diag([2.0, 1.0, 0.0, 0.0]))
        with pytest.raises(ArgumentError):
            estimate_V2(g, gram_eig, np.arange(3), K=2)


class TestRecoverZ2:
    def test_exact_inversion(self):
        # components whose factor columns hold z and whose white columns are zero
        rng = np.random.default_rng(12)
        factors = np.array([3, 0])
        z = rng.normal(size=(40, 2))
        xi = np.zeros((40, 5))
        xi[:, factors] = z
        v2 = np.eye(5)[:, factors]
        assert np.max(np.abs(recover_z2(v2, factors, xi) - z)) <= 1e-10

    def test_zero_panel(self):
        assert np.allclose(recover_z2(np.eye(3)[:, :1], np.array([0]), np.zeros((10, 3))), 0.0)

    def test_roundtrip_any_invertible_mixing(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            factors = rng.permutation(6)[:3]
            z = rng.normal(size=(25, 3))
            xi = np.zeros((25, 6))
            xi[:, factors] = z
            v2 = np.linalg.qr(rng.normal(size=(6, 3)))[0]
            got = recover_z2(v2, factors, xi)
            assert np.max(np.abs(got - z)) <= 1e-9


def v2_with_singular_values(rng, d, factors, sv):
    """An orthonormal ``d x r2`` V2 whose rows ``factors`` (``V2' U1``,
    transposed) have singular values ``sv``: those rows are ``B = U S V'``
    and the rest ``C = Q sqrt(I - S^2) V'``, so ``B'B + C'C = I``."""
    r2 = len(sv)
    u = np.linalg.qr(rng.normal(size=(r2, r2)))[0]
    v = np.linalg.qr(rng.normal(size=(r2, r2)))[0]
    q = np.linalg.qr(rng.normal(size=(d - r2, r2)))[0]
    v2 = np.empty((d, r2))
    v2[factors] = u * sv @ v.T
    v2[np.setdiff1d(np.arange(d), factors)] = q * np.sqrt(1.0 - sv**2) @ v.T
    return v2


@pytest.mark.blas_threads
class TestRecoverZ2SolveOrder:
    """``recover_z2`` solves against ``V2'`` and then multiplies by ``xi``; the
    reference solves against ``V2' xi'``, one right-hand side per time point."""

    @staticmethod
    def reference(v2, factors, xi):
        return np.linalg.solve(v2[factors].T, v2.T @ xi.T).T

    @pytest.mark.parametrize("n, d, r2", [(950, 8, 6), (500, 495, 329)])
    def test_solve_order_match_reference(self, n, d, r2):
        rng = np.random.default_rng(n + d)
        factors = rng.permutation(d)[:r2]
        v2 = np.linalg.qr(rng.normal(size=(d, r2)))[0]
        xi = rng.normal(size=(n, d))
        expect = self.reference(v2, factors, xi)
        got = recover_z2(v2, factors, xi)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_ill_conditioned_match_reference(self):
        # smallest singular value 1e-9, above estimate_V2's fallback threshold 1e-10
        rng = np.random.default_rng(21)
        factors = np.array([7, 2, 11, 4, 0, 9])
        v2 = v2_with_singular_values(rng, 14, factors, np.array([1.0, 0.8, 0.5, 0.1, 1e-4, 1e-9]))
        sv = np.linalg.svd(v2[factors], compute_uv=False)
        assert np.allclose(v2.T @ v2, np.eye(6), atol=1e-12) and 5e-10 < sv[-1] < 2e-9
        xi = rng.normal(size=(300, 14))
        expect = self.reference(v2, factors, xi)
        got = recover_z2(v2, factors, xi)
        cond = sv[0] / sv[-1]
        assert np.abs(got - expect).max() <= 1e-14 * cond * np.abs(expect).max()


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
