"""End-to-end decomposition invariants on randomized instances."""

import tracemalloc
import warnings

import numpy as np
import pytest

from trendfactors.errors import ArgumentError
from trendfactors.pipeline import PipelineConfig, decompose
from trendfactors.simgen import DgpSpec, generate, random_orthonormal
from trendfactors.tsstats import as_panel

from autocov_reference import sample_autocov


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
            PipelineConfig(c0=1.0)
        with pytest.raises(ArgumentError):
            PipelineConfig(l=0)
        with pytest.raises(ArgumentError):
            PipelineConfig(m=0)
        with pytest.raises(ArgumentError):
            PipelineConfig(alpha=1.5)
        with pytest.raises(ArgumentError):
            PipelineConfig(epsilon=0.0)
        with pytest.raises(ArgumentError):
            PipelineConfig(horizons=(0,))
        with pytest.raises(ArgumentError, match="horizons must be non-empty"):
            PipelineConfig(horizons=())
        # non-integer counts would otherwise fail late, inside decompose or
        # evaluate_forecasts
        for field, value in [("k0", 1.5), ("j0", 2.0), ("l", "3"), ("m", None),
                             ("K_override", 1.0), ("window_start", 150.5), ("k0", True)]:
            with pytest.raises(ArgumentError, match=f"^{field} must be an integer"):
                PipelineConfig(**{field: value})
        # a string or None would fail in a comparison, and True would pass as 1.0
        for field, value in [("c0", "0.3"), ("alpha", None), ("epsilon", "x"),
                             ("epsilon", True), ("c0", 0.3j)]:
            with pytest.raises(ArgumentError, match=f"^{field} must be a real number"):
                PipelineConfig(**{field: value})
        # a truthy string would silently select the absolute-ACF variant
        for field, value in [("absolute_acf", "no"), ("reorder", 0), ("reorder", None)]:
            with pytest.raises(ArgumentError, match=f"^{field} must be a bool"):
                PipelineConfig(**{field: value})
        for horizons in [(1, 2.0), 3, [1, 2], "12"]:
            with pytest.raises(ArgumentError, match="^horizons must be a tuple of integers"):
                PipelineConfig(horizons=horizons)
        config = PipelineConfig(k0=np.int64(1), j0=np.int32(2), l=np.int16(3), m=np.int64(5),
                                K_override=np.int64(0), window_start=np.int64(100),
                                horizons=(np.int64(1), 2), c0=np.float32(0.3), alpha=1 / 20,
                                epsilon=1, absolute_acf=np.bool_(False), reorder=False)
        assert config.K_override == 0 and config.window_start == 100

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

    def test_constant_column_with_inexact_mean(self):
        # centered, 1e6 + 0.1 is the same rounding residue in every row; the
        # column is still constant, as a constant 3.0 is, and not a unit root
        rng = np.random.default_rng(0)
        y = np.column_stack([np.cumsum(rng.normal(size=300)), rng.normal(size=(300, 3)),
                             np.full(300, 1e6 + 0.1)])
        dec = quiet_decompose(y)
        assert dec.r2_hat == 0
        constant = int(np.argmax(np.abs(dec.eig1.basis()[4])))
        assert dec.diagnostics["s_statistics"][constant] == 0.0

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
        # a wide panel whose row space is all trends leaves only the constants
        wide_walks = np.cumsum(np.random.default_rng(0).normal(size=(40, 60)), axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            decs = {name: decompose(y) for name, y in panels.items()}
            decs["wide, all trends"] = decompose(wide_walks, PipelineConfig(c0=1e-6, l=1, m=5))
        widths = {name: dec.p - dec.r1_hat for name, dec in decs.items()}
        assert widths["small"] <= 10 < widths["large"] < 400
        assert widths["wide"] >= 100 and widths["no stationary block"] == 0
        keys = set(decs["small"].diagnostics)
        assert all(set(dec.diagnostics) == keys for dec in decs.values())
        assert decs["wide"].diagnostics["truncated_components"] > 0
        for dec in decs.values():
            kept = dec.p - dec.r1_hat - dec.diagnostics["truncated_components"]
            assert 0 <= dec.diagnostics["scanned_components"] <= kept
        assert decs["small"].diagnostics["scanned_components"] == 0
        assert decs["large"].diagnostics["scanned_components"] > 0
        empty = decs["no stationary block"].diagnostics
        assert empty["truncated_components"] == 0 and empty["v2_fallback"] is False
        for key in ("M2_eigenvalues", "lb_pvalues", "component_order", "S_eigenvalues"):
            assert empty[key].shape == (0,)
        trends = decs["wide, all trends"]
        assert (trends.r1_hat, trends.r2_hat, trends.v_hat, trends.K_hat) == (39, 0, 21, 0)
        assert np.array_equal(trends.V1, np.eye(21)) and trends.U1.shape == (21, 0)
        assert trends.V2.shape == (21, 0) and trends.z2.shape == (40, 0)
        diag = trends.diagnostics
        assert diag["truncated_components"] == 0 and diag["v2_fallback"] is False
        # the block (d = 21 > 10, d < n) runs the sequential test like any other,
        # whose scan reaches all its constants without a rejection
        assert diag["scanned_components"] == 21
        assert np.array_equal(diag["M2_eigenvalues"], np.zeros(21))
        assert np.array_equal(diag["S_eigenvalues"], np.zeros(21))
        assert np.array_equal(diag["lb_pvalues"], np.ones(21))
        assert np.array_equal(diag["component_order"], np.arange(21))
        check_decomposition_invariants(as_panel(wide_walks), trends)

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
        from dense_paths import factor_paths, rmse_factors
        from trendfactors.simgen import derive_seed, draw_mixing, draw_panel

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
                vals[spec.n] = rmse_factors(est, factor_paths(truth), "small")
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


def quiet_decompose(y, config=PipelineConfig()):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return decompose(y, config)


def counts(dec):
    return dec.r1_hat, dec.r2_hat, dec.v_hat, dec.K_hat


@pytest.mark.blas_threads
class TestInvariance:
    @pytest.mark.parametrize("spec", NARROW + WIDE, ids=spec_id)
    def test_column_permutation(self, spec):
        # counts are unchanged, and the trend projector A1 A1' is permuted too
        y = generate(spec)[0].data
        dec = quiet_decompose(y)
        proj = dec.A1 @ dec.A1.T
        rng = np.random.default_rng(spec.seed)
        for _ in range(3):
            perm = rng.permutation(spec.p)
            got = quiet_decompose(y[:, perm])
            assert counts(got) == counts(dec)
            gap = np.max(np.abs(got.A1 @ got.A1.T - proj[np.ix_(perm, perm)]))
            assert gap <= 1e-10

    @pytest.mark.parametrize("spec", NARROW + WIDE, ids=spec_id)
    def test_scaling(self, spec):
        y = generate(spec)[0].data
        base = counts(quiet_decompose(y))
        for c in (1e-3, 0.125, 7.5, 1e3):
            assert counts(quiet_decompose(c * y)) == base, f"c={c}"

    @pytest.mark.parametrize("spec", [
        DgpSpec(p=6, n=1000, example=1, seed=3),
        DgpSpec(p=50, n=1000, r1=4, r2=6, example=2, seed=3),
        DgpSpec(p=20, n=400, r1=2, r2=3, K=1, delta=0.5, example=2, seed=5),
        DgpSpec(p=120, n=100, r1=2, r2=3, example=2, seed=1),
    ], ids=spec_id)
    def test_orthogonal_rotation(self, spec):
        # M1, M2 and S rotate with Q and a component's ACF does not change, so
        # decompose(y Q) has the counts of decompose(y) and loadings Q' A1, Q' A2 U1
        y = generate(spec)[0].data
        dec = quiet_decompose(y)
        projectors = [a @ a.T for a in (dec.A1, dec.A2U1)]
        rng = np.random.default_rng(spec.seed)
        for _ in range(3):
            q = random_orthonormal(spec.p, rng)
            got = quiet_decompose(y @ q)
            assert counts(got) == counts(dec)
            for a, proj in zip((got.A1, got.A2U1), projectors):
                assert np.abs((q @ a) @ (q @ a).T - proj).max(initial=0.0) <= 1e-10

    @pytest.mark.parametrize("spec", [
        DgpSpec(p=6, n=1000, example=1, seed=3),
        DgpSpec(p=10, n=1000, example=1, seed=2),
        DgpSpec(p=50, n=2000, seed=3, **EX2),
        WIDE[0],
        # not ex2 (300, 1000) seed 4: there r2_hat = 29 overshoots the true 6,
        # and the trailing factors move with the input's last bits
    ], ids=spec_id)
    def test_location_shift(self, spec):
        # every stage works on centered autocovariances, so adding a constant
        # to each column moves the counts not at all and the factors only in
        # their means
        y = generate(spec)[0].data
        c = np.random.default_rng(1).uniform(-10, 10, size=spec.p) * np.abs(y).max()
        dec, got = quiet_decompose(y), quiet_decompose(y + c)
        assert counts(got) == counts(dec)
        z2 = dec.z2 - dec.z2.mean(axis=0)
        gap = np.abs(got.z2 - got.z2.mean(axis=0) - z2).max(initial=0.0)
        assert gap <= 1e-10 * np.abs(z2).max(initial=0.0)


WALKS = {
    # the row space of this wide panel is all trends, leaving only the constants
    "all_constants": (np.cumsum(np.random.default_rng(0).normal(size=(40, 60)), axis=0),
                      PipelineConfig(c0=1e-6, l=1, m=5)),
    "no_stationary_block": (np.cumsum(np.random.default_rng(8).normal(size=(800, 2)), axis=0),
                            PipelineConfig()),
}


class TestLag0Covariance:
    @pytest.mark.blas_threads
    @pytest.mark.parametrize("case", ["narrow", "wide", "all_constants", "no_stationary_block"])
    def test_factor_of_S_match_reference(self, case, monkeypatch):
        # recover_factors forms S's factor g = C(0)[:, white] of the components
        # xi in place; it must give the bits of the reference covariance
        from trendfactors import pipeline

        y, config = WALKS[case] if case in WALKS else (
            generate(NARROW[1] if case == "narrow" else WIDE[0])[0].data, PipelineConfig())
        seen = {}

        def recording_stage(*args, **kwargs):
            seen["stage2"] = real_stage(*args, **kwargs)
            return seen["stage2"]

        def recording_v2(g, *args, **kwargs):
            seen["g"] = g
            return real_v2(g, *args, **kwargs)

        real_stage, real_v2 = pipeline.second_stage, pipeline.estimate_V2
        monkeypatch.setattr(pipeline, "second_stage", recording_stage)
        monkeypatch.setattr(pipeline, "estimate_V2", recording_v2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dec = decompose(y, config)
        xi = seen["stage2"][1]
        lead, r2 = xi.shape[1], dec.r2_hat
        order = dec.diagnostics["component_order"]
        expected = sample_autocov(xi, 0)[:, order[r2:lead]] if lead else np.zeros((0, 0))
        assert (lead > 0) == (case in ("narrow", "wide"))
        assert seen["g"].shape == expected.shape and np.array_equal(seen["g"], expected)


class TestWidePanel:
    """Panels with p >= n run in the coordinates of the centered panel's row space."""

    def test_completion_built_only_when_read(self):
        # with p = 20 n the complete QR alone would be a p x p array
        spec = DgpSpec(p=1000, n=50, r1=4, r2=6, K=2, example=2, seed=1)
        y = generate(spec)[0].data
        n, p = y.shape
        tracemalloc.start()
        try:
            dec = quiet_decompose(y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p * p * 8
        # about 2.8 p x n arrays of doubles: the QR and x, but no p x (n - 1)
        # Q, Q W or y @ (Q W) (forming those took about 5)
        assert peak < 3.5 * p * n * 8
        null = p - n + 1
        yc = y - y.mean(axis=0)
        assert np.array_equal(dec.A2[:, -null:],
                              np.linalg.qr(yc[:-1].T, mode="complete")[0][:, n - 1:])
        tail = np.zeros((dec.p - dec.r1_hat, null))
        tail[-null:] = np.eye(null)
        assert np.array_equal(dec.V1[:, -null:], tail)
        assert np.array_equal(dec.V1[-null:, :-null], np.zeros((null, dec.v_hat - null)))
        assert dec.A2 is dec.A2 and dec.V1 is dec.V1

    def test_stage_results_cover_the_row_space_only(self):
        # A2 is the complete basis past r1; the kept blocks stop at the row space
        from trendfactors.pipeline import second_stage
        from trendfactors.unitroot import first_stage, null_width, scan_r1

        config = PipelineConfig()
        y = generate(WIDE[0])[0].data
        n, p = y.shape
        eig1, rho, x = first_stage(y, config.k0, config.l, config.m)
        # only the coordinate eigenbasis is kept, not a p-row block of eigenvectors
        assert not hasattr(eig1, "vectors") and not hasattr(eig1, "lead")
        assert eig1.W.shape == (n - 1, n - 1) and eig1.basis().shape == (p, p)
        basis = eig1.basis()
        assert np.array_equal(basis[:, : n - 1], eig1.times(slice(None)))
        assert np.max(np.abs(x - y @ basis)) <= 1e-12 * np.abs(y).max()
        r1 = scan_r1(rho, config.c0, config.absolute_acf)
        null = null_width(n, p)
        eig2, xi, counts = second_stage(x[:, r1:], config, (True,), null)
        lead = p - r1 - null
        assert eig2.values.shape == (lead,) and eig2.vectors.shape == (lead, lead)
        assert np.array_equal(xi, x[:, r1:r1 + lead] @ eig2.vectors)
        assert counts.pvalues.shape == (p - r1,)

    @pytest.mark.parametrize(
        "spec, config",
        [(spec, PipelineConfig()) for spec in WIDE]
        # a loose trend threshold leaves no stationary factor: A2U1 is p x 0
        + [(WIDE[0], PipelineConfig(c0=1e-6, l=1, m=5))],
        ids=[spec_id(spec) for spec in WIDE] + ["no-factors"],
    )
    def test_components_and_products_match_the_loadings(self, spec, config):
        # x comes from the row-space coordinates, not from A1 and A2
        y = generate(spec)[0].data
        dec = quiet_decompose(y, config)
        pairs = [(dec.x1, y @ dec.A1), (dec.A2U1, dec.A2 @ dec.U1)]
        if config.c0 == 1e-6:
            # all of the row space is trends, so x2 holds only the null-space
            # constants, which are far smaller than the rounding of y @ A2
            assert dec.r1_hat == spec.n - 1 and dec.r2_hat == 0
        else:
            pairs.append((dec.x2, y @ dec.A2))
        for got, expected in pairs:
            assert got.shape == expected.shape
            scale = np.abs(expected).max(initial=0.0)
            assert np.abs(got - expected).max(initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("seed", [2, 3])
    def test_no_v2_fallback_with_K_pinned_to_zero(self, seed):
        # the null-space directions used to supply V2 from S's null space
        spec = DgpSpec(p=120, n=100, r1=2, r2=3, K=1, example=2, seed=seed)
        panel, _ = generate(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = decompose(panel, PipelineConfig(K_override=0))
        assert dec.K_hat == 0 and dec.r2_hat >= 1
        assert dec.diagnostics["v2_fallback"] is False
        check_decomposition_invariants(panel, dec)

    @pytest.mark.parametrize("spec", WIDE, ids=spec_id)
    def test_first_stage_matches_dense_eigendecomposition(self, spec):
        from trendfactors.unitroot import acf_profile, build_M1, probe_lags, scan_r1

        config = PipelineConfig()
        y = generate(spec)[0].data
        values, vectors = np.linalg.eigh(build_M1(y, config.k0))
        values, vectors = values[::-1], vectors[:, ::-1]
        rho = acf_profile(y @ vectors, probe_lags(config.l, config.m))
        r1 = scan_r1(rho, config.c0, config.absolute_acf)
        dec = quiet_decompose(y)
        assert dec.r1_hat == r1 >= 1
        a1 = vectors[:, :r1]
        assert np.max(np.abs(dec.A1 @ dec.A1.T - a1 @ a1.T)) <= 1e-10
        got = dec.diagnostics["M1_eigenvalues"]
        lead = spec.n - 1
        assert np.max(np.abs(got[:lead] - values[:lead])) <= 1e-12 * values[0]
        assert np.all(got[lead:] == 0.0)

    def test_null_space_components_are_constant_white_noise(self):
        spec = WIDE[0]
        y = generate(spec)[0].data
        dec = quiet_decompose(y)
        null = spec.p - spec.n + 1
        assert np.all(dec.x2[:, -null:] == dec.x2[0, -null:])
        assert np.all(dec.V2[-null:] == 0.0)
        diag = dec.diagnostics
        assert np.all(diag["component_order"][-null:] == np.arange(dec.p - dec.r1_hat)[-null:])
        assert np.all(diag["lb_pvalues"][-null:] == 1.0)
        for key in ("M2_eigenvalues", "S_eigenvalues"):
            assert len(diag[key]) == dec.p - dec.r1_hat
            assert np.all(diag[key][-null:] == 0.0)
