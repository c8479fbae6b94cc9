"""End-to-end decomposition invariants on randomized instances."""

import warnings

import numpy as np
import pytest

from trendfactors.errors import ArgumentError
from trendfactors.pipeline import PipelineConfig, decompose
from trendfactors.simgen import DgpSpec, generate
from trendfactors.tsstats import as_panel


def check_decomposition_invariants(panel, dec, atol=1e-8):
    y = panel.data
    p = panel.p
    basis = np.hstack([dec.A1, dec.A2])
    assert np.max(np.abs(basis.T @ basis - np.eye(p))) <= atol
    recon = dec.x1 @ dec.A1.T + dec.x2 @ dec.A2.T
    assert np.max(np.abs(recon - y)) <= atol * max(1.0, np.abs(y).max())
    d = p - dec.r1_hat
    assert dec.r2_hat + dec.v_hat == d
    if d:
        w = np.hstack([dec.U1, dec.V1])
        assert w.shape == (d, d)
        assert np.max(np.abs(w.T @ w - np.eye(d))) <= atol
        if dec.r2_hat and dec.v_hat:
            assert np.max(np.abs(dec.U1.T @ dec.V1)) <= atol
    if dec.r2_hat:
        g = dec.V2.T @ dec.U1
        assert np.linalg.svd(g, compute_uv=False)[-1] > 1e-10
        assert dec.z2.shape == (panel.n, dec.r2_hat)


class TestDecompose:
    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            PipelineConfig(c0=0.0)
        with pytest.raises(ArgumentError):
            PipelineConfig(alpha=1.5)
        with pytest.raises(ArgumentError):
            PipelineConfig(epsilon=0.0)
        with pytest.raises(ArgumentError):
            PipelineConfig(horizons=(0,))

    def test_example1_counts_and_invariants(self):
        spec = DgpSpec(p=6, n=2000, example=1, seed=5)
        panel, _ = generate(spec)
        dec = decompose(panel)
        assert (dec.r1_hat, dec.r2_hat) == (2, 2)
        check_decomposition_invariants(panel, dec)

    def test_example2_counts_and_invariants(self):
        spec = DgpSpec(p=30, n=1500, r1=2, r2=3, K=1, delta=0.0, example=2, seed=6)
        panel, _ = generate(spec)
        dec = decompose(panel)
        assert dec.r1_hat == 2
        check_decomposition_invariants(panel, dec)

    def test_pure_noise_panel(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(500, 5))
        dec = decompose(y)
        assert dec.r1_hat == 0
        check_decomposition_invariants(as_panel(y), dec)

    def test_pure_walk_panel_r1_equals_p(self):
        rng = np.random.default_rng(8)
        y = np.cumsum(rng.normal(size=(800, 2)), axis=0)
        dec = decompose(y)
        assert dec.r1_hat == 2
        assert dec.r2_hat == 0 and dec.v_hat == 0
        assert dec.z2.shape == (800, 0)

    def test_K_override_wins(self):
        spec = DgpSpec(p=30, n=800, r1=2, r2=3, K=1, delta=0.0, example=2, seed=9)
        panel, _ = generate(spec)
        dec = decompose(panel, PipelineConfig(K_override=0))
        assert dec.K_hat == 0
        dec2 = decompose(panel, PipelineConfig(K_override=3))
        assert dec2.K_hat == 3

    def test_three_eigendecompositions_with_prominent_noise(self, monkeypatch):
        # M1, M2 and S; V2 reuses S's eigendecomposition and rotates with a thin SVD
        from trendfactors import pipeline, stationary, tsstats, unitroot

        calls = []

        def counting(matrix):
            calls.append(np.shape(matrix))
            return tsstats.sym_eigen(matrix)

        for module in (pipeline, stationary, unitroot):
            monkeypatch.setattr(module, "sym_eigen", counting, raising=False)
        spec = DgpSpec(p=20, n=400, r1=2, r2=3, K=1, delta=0.0, example=2, seed=1)
        panel, _ = generate(spec)
        dec = decompose(panel)
        assert dec.K_hat >= 1 and dec.r2_hat >= 1
        assert len(calls) == 3
        check_decomposition_invariants(panel, dec)

    def test_small_p_regime_has_zero_K(self):
        spec = DgpSpec(p=6, n=900, example=1, seed=10)
        panel, _ = generate(spec)
        dec = decompose(panel)
        assert dec.K_hat == 0

    def test_diagnostics_present(self):
        spec = DgpSpec(p=8, n=400, example=1, seed=11)
        panel, _ = generate(spec)
        dec = decompose(panel)
        diag = dec.diagnostics
        assert len(diag["M1_eigenvalues"]) == 8
        assert len(diag["s_statistics"]) == 8
        assert len(diag["M2_eigenvalues"]) == 8 - dec.r1_hat
        assert len(diag["lb_pvalues"]) == 8 - dec.r1_hat
        assert len(diag["S_eigenvalues"]) == 8 - dec.r1_hat

    def test_diagnostics_keys_same_on_every_path(self):
        walks = np.cumsum(np.random.default_rng(8).normal(size=(800, 2)), axis=0)
        panels = {
            "small": generate(DgpSpec(p=6, n=400, example=1, seed=11))[0],
            "large": generate(DgpSpec(p=30, n=400, r1=2, r2=3, K=1, example=2, seed=11))[0],
            "wide": generate(DgpSpec(p=120, n=100, r1=2, r2=3, K=1, example=2, seed=1))[0],
            "no stationary block": walks,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decs = {name: decompose(y) for name, y in panels.items()}
        widths = {name: dec.p - dec.r1_hat for name, dec in decs.items()}
        assert widths["small"] <= 10 < widths["large"] < 400
        assert widths["wide"] >= 100 and widths["no stationary block"] == 0
        keys = set(decs["small"].diagnostics)
        assert all(set(dec.diagnostics) == keys for dec in decs.values())
        assert decs["wide"].diagnostics["truncated_components"] > 0
        empty = decs["no stationary block"].diagnostics
        assert empty["truncated_components"] == 0 and empty["v2_fallback"] is False
        for key in ("M2_eigenvalues", "lb_pvalues", "component_order", "S_eigenvalues"):
            assert empty[key].shape == (0,)

    def test_probe_lags_must_fit(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ArgumentError):
            decompose(rng.normal(size=(20, 3)))

    def test_prominent_noise_count_recovered(self):
        from trendfactors.simgen import derive_seed, draw_mixing, draw_panel

        spec = DgpSpec(p=50, n=2000, r1=4, r2=6, K=2, delta=0.0, example=2)
        mixing = draw_mixing(spec, derive_seed(5, 0))
        hits = 0
        for rep in range(100):
            panel, _ = draw_panel(spec, mixing, derive_seed(5, 0, rep))
            if decompose(panel).K_hat == 2:
                hits += 1
        assert hits >= 90

    def test_stationary_rmse_improves_with_n(self):
        from trendfactors.simgen import derive_seed, draw_mixing, draw_panel, rmse_factors

        spec_lo = DgpSpec(p=6, n=200, example=1)
        spec_hi = DgpSpec(p=6, n=3000, example=1)
        mixing = draw_mixing(spec_lo, derive_seed(4, 0))
        better = 0
        reps = 60
        for rep in range(reps):
            vals = {}
            for spec in (spec_lo, spec_hi):
                panel, truth = draw_panel(spec, mixing, derive_seed(4, 0, rep))
                dec = decompose(panel)
                est = dec.z2 @ (dec.A2 @ dec.U1).T
                vals[spec.n] = rmse_factors(est, truth.factor_paths(), "small")
            if vals[3000] < vals[200]:
                better += 1
        assert better >= 0.95 * reps

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_invariant_sweep(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 25))
        n = int(rng.integers(60, 200))
        r1 = int(rng.integers(0, min(3, p)))
        r2 = int(rng.integers(0, min(3, p - r1)))
        if p - r1 - r2 < 1:
            r2 = max(0, r2 - 1)
        if p - r1 - r2 < 1:
            pytest.skip("no admissible noise rank")
        spec = DgpSpec(p=p, n=n, r1=r1, r2=r2, example=1, seed=seed)
        panel, _ = generate(spec)
        dec = decompose(panel)
        check_decomposition_invariants(panel, dec)


EX2 = dict(r1=4, r2=6, K=2, example=2)
NARROW = [
    spec
    for seed in (1, 2)
    for spec in (
        DgpSpec(p=6, n=1000, example=1, seed=seed),
        DgpSpec(p=50, n=1000, seed=seed, **EX2),
        DgpSpec(p=20, n=400, r1=2, r2=3, K=1, example=2, seed=seed),
    )
]
WIDE = [DgpSpec(p=120, n=100, r1=2, r2=3, K=1, example=2, seed=seed) for seed in (1, 2)]


def spec_id(spec):
    return f"ex{spec.example}-p{spec.p}-n{spec.n}-seed{spec.seed}"


def counts(y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dec = decompose(y)
    return dec.r1_hat, dec.r2_hat, dec.v_hat, dec.K_hat


class TestInvariance:
    @pytest.mark.parametrize("spec", NARROW + WIDE, ids=spec_id)
    def test_column_permutation(self, spec):
        y = generate(spec)[0].data
        base = counts(y)
        rng = np.random.default_rng(spec.seed)
        for _ in range(3):
            assert counts(y[:, rng.permutation(spec.p)]) == base

    @pytest.mark.parametrize(
        "spec",
        NARROW
        + [
            pytest.param(
                spec,
                # the null-space components are rounding noise, so on seed 2 whether a
                # scale moves r2 depends on the BLAS build and thread count
                marks=pytest.mark.xfail(
                    strict=spec.seed == 1,
                    reason="tsstats.is_degenerate's floor is absolute, so how many "
                    "null-space components of a wide panel count as constant "
                    "depends on the scale",
                ),
            )
            for spec in WIDE
        ],
        ids=spec_id,
    )
    def test_scaling(self, spec):
        y = generate(spec)[0].data
        base = counts(y)
        for c in (1e-3, 0.125, 7.5, 1e3):
            assert counts(c * y) == base, f"c={c}"
