"""Generators, subspace metrics, and the Monte Carlo driver."""

import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dense_paths import factor_paths, metric_Dbar, rmse_factors, trend_paths
from scipy.signal import lfilter

from trendfactors import simgen, stationary
from trendfactors.cli import _benchmark_rows, _replication_rows
from trendfactors.errors import ArgumentError, TrendFactorsError
from trendfactors.pipeline import PipelineConfig, decompose
from trendfactors.simgen import (
    DgpSpec,
    Mixing,
    _replication,
    _score_pair,
    _sine_distance,
    derive_seed,
    draw_mixing,
    draw_panel,
    generate,
    random_orthonormal,
    run_montecarlo,
)
from trendfactors.whitenoise import _ljung_box


class TestDgpSpec:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            DgpSpec(p=4, n=100, r1=3, r2=2)
        with pytest.raises(ArgumentError):
            DgpSpec(p=10, n=100, r1=2, r2=2, K=6)
        with pytest.raises(ArgumentError):
            DgpSpec(p=10, n=100, delta=0.5, example=1)
        with pytest.raises(ArgumentError):
            DgpSpec(p=10, n=100, delta=1.0, example=2)
        # unchecked, each of these fails deep in numpy with a bare TypeError or
        # ValueError
        for field, value in [("p", 6.0), ("n", "100"), ("r1", 2.0), ("r2", None), ("K", 1.5),
                             ("example", 2.0), ("seed", 1.5), ("seed", True)]:
            with pytest.raises(ArgumentError, match=f"^{field} must be an integer"):
                DgpSpec(**{"p": 10, "n": 100, field: value})
        for value in ["0", None, True]:
            with pytest.raises(ArgumentError, match="^delta must be a real number"):
                DgpSpec(p=10, n=100, example=2, delta=value)
        with pytest.raises(ArgumentError, match="^seed must be >= 0"):
            DgpSpec(p=10, n=100, seed=-1)
        spec = DgpSpec(p=np.int64(10), n=100, example=2, delta=np.float64(0.5), seed=2**64 - 1)
        assert spec.v == 6

    def test_v_property(self):
        assert DgpSpec(p=10, n=50, r1=2, r2=3).v == 5


class TestRandomOrthonormal:
    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_orthonormal(self, p):
        q = random_orthonormal(p, 0)
        assert np.max(np.abs(q.T @ q - np.eye(p))) <= 1e-10
        assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-8

    def test_seeds_differ(self):
        q1 = random_orthonormal(5, 1)
        q2 = random_orthonormal(5, 2)
        assert np.linalg.norm(q1 - q2, 2) > 0.1


class TestGenerators:
    def test_deterministic(self):
        spec = DgpSpec(p=6, n=150, example=1, seed=99)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec(p=6, n=150, example=1, seed=7),
            DgpSpec(p=20, n=150, r1=4, r2=6, K=2, delta=0.5, example=2, seed=7),
        ],
    )
    def test_reconstruction_identity(self, spec):
        panel, truth = generate(spec)
        x2 = truth.f2 @ truth.U22_1.T + truth.eps @ truth.U22_2.T
        recon = truth.x1 @ truth.A1.T + x2 @ truth.A2.T
        assert np.max(np.abs(recon - panel.data)) <= 1e-10 * max(1, np.abs(panel.data).max())
        assert panel.data.shape == (spec.n, spec.p)

    def test_differenced_trends_are_white(self):
        hits = 0
        for rep in range(60):
            spec = DgpSpec(p=5, n=400, r1=1, r2=1, example=1, seed=1000 + rep)
            _, truth = generate(spec)
            diffs = np.diff(truth.x1[:, 0])
            if _ljung_box(diffs[:, None], 10)[1][0] > 0.01:
                hits += 1
        assert hits >= 57  # >= 95% at the 1% level

    def test_scaled_factor_block_singular_value(self):
        # sigma_1 of the U(-1,1) factor block sits inside the moment bounds
        for p, r2, seed in [(20, 2, 1), (20, 2, 5), (30, 4, 2), (30, 4, 9)]:
            spec = DgpSpec(p=p, n=60, r1=4, r2=r2, K=1, delta=0.5, example=2, seed=seed)
            _, truth = generate(spec)
            s1 = np.linalg.svd(truth.U22_1 * p ** (spec.delta / 2), compute_uv=False)[0]
            bound = np.sqrt(p * r2 / 3.0)
            assert 0.5 * bound <= s1 <= 1.5 * bound

    def test_delta_zero_no_factor_scaling(self):
        spec = DgpSpec(p=12, n=80, r1=2, r2=2, K=1, delta=0.0, example=2, seed=3)
        _, truth = generate(spec)
        assert np.abs(truth.U22_1).max() <= 1.0 + 1e-12
        assert np.abs(truth.U22_2[:, :1]).max() <= 1.0 + 1e-12
        assert np.abs(truth.U22_2[:, 1:]).max() <= 1.0 / 12 + 1e-12

    def test_prominent_noise_eigenvalues(self):
        spec = DgpSpec(p=50, n=60, r1=4, r2=6, K=2, delta=0.0, example=2, seed=4)
        _, truth = generate(spec)
        w = np.sort(np.linalg.eigvalsh(truth.U22_2 @ truth.U22_2.T))[::-1]
        assert w[1] > 100 * w[2]


def lfilter_paths(spec, mixing, seed):
    """The AR(1) factor paths of ``draw_panel`` by ``scipy.signal.lfilter``."""
    rng = np.random.default_rng(seed)
    rng.standard_normal((spec.n, spec.r1))
    eta = rng.standard_normal((spec.n, spec.r2))
    f2 = np.empty((spec.n, spec.r2))
    for i in range(spec.r2):
        phi = mixing.phi[i]
        f2[:, i] = lfilter([1.0], [1.0, -phi], eta[:, i]) * np.sqrt(1.0 - phi**2)
    return f2


def with_phi(spec, phi):
    m = draw_mixing(spec, spec.seed)
    return Mixing(A=m.A, U22_1=m.U22_1, U22_2=m.U22_2, phi=np.asarray(phi, dtype=float))


class TestFactorPaths:
    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec(p=6, n=200, example=1, seed=1),
            DgpSpec(p=6, n=3000, example=1, seed=2),
            DgpSpec(p=50, n=500, r1=4, r2=6, K=2, delta=0.5, example=2, seed=3),
            DgpSpec(p=30, n=20, r1=2, r2=3, K=1, example=2, seed=4),
            DgpSpec(p=6, n=100, r1=2, r2=0, example=1, seed=5),
            DgpSpec(p=8, n=100, r1=0, r2=3, K=1, example=2, seed=5),
            DgpSpec(p=6, n=2, example=1, seed=6),
            DgpSpec(p=6, n=2, r1=1, r2=1, example=2, seed=6),
        ],
    )
    def test_equal_to_lfilter(self, spec):
        mixing = draw_mixing(spec, spec.seed)
        _, truth = draw_panel(spec, mixing, 77)
        assert truth.f2.shape == (spec.n, spec.r2)
        assert np.array_equal(truth.f2, lfilter_paths(spec, mixing, 77))

    @pytest.mark.parametrize("n", [2, 500])
    def test_hand_built_phi_equal_to_lfilter(self, n):
        spec = DgpSpec(p=6, n=n, r1=1, r2=3, example=1, seed=8)
        mixing = with_phi(spec, [0.0, -0.9, 0.7])
        _, truth = draw_panel(spec, mixing, 9)
        assert np.array_equal(truth.f2, lfilter_paths(spec, mixing, 9))
        # phi = 0 leaves the innovations themselves
        rng = np.random.default_rng(9)
        rng.standard_normal((n, 1))
        assert np.array_equal(truth.f2[:, 0], rng.standard_normal((n, 3))[:, 0])

    @pytest.mark.parametrize("phi", [1.0, -1.0, 1.5, -2.0, np.nan])
    def test_nonstationary_phi_rejected(self, phi):
        spec = DgpSpec(p=6, n=50, r1=1, r2=3, example=1, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match=r"factor 1 .*\|phi\| < 1"):
                draw_panel(spec, with_phi(spec, [0.5, phi, 0.6]), 1)


    @pytest.mark.parametrize("field, trim", [
        ("phi", lambda m: m.phi[:2]),
        ("A", lambda m: m.A[:, :5]),
        ("U22_1", lambda m: m.U22_1[:, :2]),
        ("U22_2", lambda m: m.U22_2[1:]),
    ])
    def test_mismatched_mixing_rejected(self, field, trim):
        # ex1 (6, 50) with r1 = 1, r2 = 3: a hand-built field of the wrong shape
        spec = DgpSpec(p=6, n=50, r1=1, r2=3, example=1, seed=8)
        mixing = draw_mixing(spec, spec.seed)
        mixing = replace(mixing, **{field: trim(mixing)})
        with pytest.raises(ArgumentError, match=f"mixing.{field}"):
            draw_panel(spec, mixing, 1)


def span_distance(h1, h2):
    """The library's span distance D of ``span(h1)`` and ``span(h2)``: the
    sines of one :func:`_score_pair` (on paths without rows) into
    :func:`_sine_distance`."""
    _, outside = _score_pair(h1[:0], h1, h2[:0], h2, 1)
    return _sine_distance(h1.shape[1], h2.shape[1], outside)


def replication_metrics(monkeypatch, a1_hat, a1):
    """``_replication``'s metrics for a decomposition with trend loadings
    ``a1_hat``, no stationary factor and zero paths, against trend loadings ``a1``."""
    (p, k), j = a1_hat.shape, a1.shape[1]
    dec = SimpleNamespace(r1_hat=k, r2_hat=0, K_hat=0, A1=a1_hat, x1=np.zeros((2, k)))
    truth = SimpleNamespace(A1=a1, x1=np.zeros((2, j)))
    spec = SimpleNamespace(n=2, p=p, example=1, r1=j, r2=0)
    monkeypatch.setattr(simgen, "_run_stages", lambda *args: (dec, []))
    return _replication(None, truth, spec, None, ["aw"])[2]


class TestMetricD:
    def test_equal_spans_zero(self):
        q = random_orthonormal(5, 0)[:, :2]
        # the sines are read directly, so nothing cancels
        assert span_distance(q, q) <= 1e-15

    def test_orthogonal_spans_one(self):
        e = np.eye(4)
        assert span_distance(e[:, :2], e[:, 2:]) == pytest.approx(1.0)

    def test_hand_value(self):
        h1 = np.array([[1.0], [0.0]])
        h2 = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        assert span_distance(h1, h2) == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_symmetry_random(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
            h1, h2 = q[:, :3], np.linalg.qr(rng.normal(size=(6, 3)))[0]
            assert span_distance(h1, h2) == pytest.approx(span_distance(h2, h1), rel=1e-10)

    @pytest.mark.parametrize("theta", [1e-6, 1e-9])
    def test_small_angle_keeps_its_digits(self, theta):
        # two orthonormal columns in R^8, the second rotated by theta: D is
        # sin(theta) / sqrt(2); the cosine form reads 2.4e-8 at theta = 1e-9
        e = np.eye(8)
        h2 = np.column_stack([e[:, 0], np.cos(theta) * e[:, 1] + np.sin(theta) * e[:, 2]])
        assert span_distance(e[:, :2], h2) == pytest.approx(np.sin(theta) / np.sqrt(2.0),
                                                             rel=1e-6)

    def test_empty_span_is_nan(self):
        q = random_orthonormal(5, 0)
        for h1, h2 in ((q[:, :0], q[:, :2]), (q[:, :2], q[:, :0]), (q[:, :0], q[:, :0])):
            assert np.isnan(span_distance(h1, h2))

    @pytest.mark.parametrize("k, j", [(3, 3), (4, 2), (2, 4), (5, 5)])
    def test_overfull_pair_matches_dense(self, k, j):
        # k + j > p = 5: R has fewer rows than columns
        rng = np.random.default_rng(10 * k + j)
        h1, h2 = rng.normal(size=(5, k)), np.linalg.qr(rng.normal(size=(5, j)))[0]
        assert abs(span_distance(h1, h2) - metric_Dbar(h1, h2)) <= 1e-12


class TestMetricDbar:
    def test_identical(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 2))
        assert span_distance(h, h) <= 1e-15

    def test_nested_subspaces(self):
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.normal(size=(6, 4)))[0]
        h2 = q
        h1 = q[:, :2] @ rng.normal(size=(2, 2))  # span(h1) inside span(h2)
        assert span_distance(h1, h2) == pytest.approx(np.sqrt(1.0 - 2.0 / 4.0), abs=1e-8)

    @given(st.floats(min_value=0.1, max_value=40.0), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, c, seed):
        rng = np.random.default_rng(seed)
        h1 = rng.normal(size=(5, 2))
        h2 = rng.normal(size=(5, 3))
        base = span_distance(h1, h2)
        assert span_distance(h1 * c, h2) == pytest.approx(base, abs=1e-9)

    def test_invertible_right_multiplication(self):
        rng = np.random.default_rng(4)
        h1 = rng.normal(size=(6, 3))
        h2 = rng.normal(size=(6, 2))
        g = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        assert span_distance(h1 @ g, h2) == pytest.approx(span_distance(h1, h2), abs=1e-8)

    def test_reduces_to_D_when_orthonormal(self):
        rng = np.random.default_rng(5)
        h1 = np.linalg.qr(rng.normal(size=(7, 3)))[0]
        h2 = np.linalg.qr(rng.normal(size=(7, 3)))[0]
        d = np.sqrt(1.0 - np.sum((h1.T @ h2) ** 2) / 3)
        assert span_distance(h1, h2) == pytest.approx(d, rel=1e-10)


class TestComplementDistance:
    """``Dbar_A2`` is read off the sines between the leading blocks ``A1`` of
    two orthonormal bases."""

    @pytest.mark.parametrize("a, b", [(0, 0), (0, 3), (3, 0), (2, 2), (1, 4), (4, 1), (6, 6)])
    def test_matches_dense_complements(self, a, b, monkeypatch):
        rng = np.random.default_rng(10 * a + b)
        p = 9
        est = random_orthonormal(p, rng)
        # a small rotation of est, so the spans are close and the identity cancels most
        truth = np.linalg.qr(est + 1e-3 * rng.normal(size=(p, p)))[0]
        for other in (truth, random_orthonormal(p, rng)):
            got = replication_metrics(monkeypatch, est[:, :a], other[:, :b])["Dbar_A2"]
            assert abs(got - metric_Dbar(est[:, a:], other[:, b:])) <= 1e-12

    def test_empty_complement_is_nan(self, monkeypatch):
        q = random_orthonormal(5, 0)
        assert np.isnan(replication_metrics(monkeypatch, q, q[:, :2])["Dbar_A2"])
        assert np.isnan(replication_metrics(monkeypatch, q[:, :2], q)["Dbar_A2"])

    @pytest.mark.blas_threads
    def test_replication_matches_dense_A2(self):
        # the metrics are read off decompose's result under the first variant's
        # config: the span distances bit for bit, the RMSEs (computed without
        # the n x p paths) to 1e-12 relative of the dense formula; the dense A2
        # agrees with the complement formula
        cells = [
            DgpSpec(p=30, n=300, r1=2, r2=0, example=2, seed=2),  # narrow; aw and a*w* differ
            DgpSpec(p=120, n=100, r1=2, r2=3, K=1, example=2, seed=4),  # wide
            DgpSpec(p=30, n=300, r1=2, r2=0, example=2, seed=0),  # no factor found
        ]
        r2_hats = []
        for spec in cells:
            panel, truth = generate(spec)
            for methods in (["aw", "a*w*"], ["a*w*"]):
                variant = PipelineConfig(absolute_acf=methods[0] == "a*w*",
                                         reorder=methods[0] == "a*w*")
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    _, _, metrics = _replication(panel, truth, spec, PipelineConfig(), methods)
                    dec = decompose(panel, variant)
                a2u1 = dec.A2U1
                k, j = dec.r1_hat, spec.r1
                outside = _score_pair(dec.x1, dec.A1, truth.x1, truth.A1, spec.n * spec.p)[1]
                expected = {
                    "Dbar_A1": _sine_distance(k, j, outside),
                    "Dbar_A2": _sine_distance(spec.p - k, spec.p - j, k - j + outside),
                    "rmse_trend": rmse_factors(dec.x1 @ dec.A1.T, trend_paths(truth), "large"),
                    "Dbar_A2U1": (span_distance(a2u1, truth.A2 @ truth.U22_1)
                                  if dec.r2_hat else np.nan),
                    "rmse_stationary": (rmse_factors(dec.z2 @ a2u1.T, factor_paths(truth), "large")
                                        if dec.r2_hat else np.nan),
                }
                assert metrics.keys() == expected.keys()
                for key, value in expected.items():
                    if key.startswith("rmse_"):
                        assert metrics[key] == pytest.approx(value, rel=1e-12, abs=0,
                                                             nan_ok=True), key
                    else:
                        assert np.array_equal(metrics[key], value, equal_nan=True), key
                if dec.r1_hat:
                    assert abs(metrics["Dbar_A1"] - metric_Dbar(dec.A1, truth.A1)) <= 1e-12
                assert abs(metrics["Dbar_A2"] - metric_Dbar(dec.A2, truth.A2)) <= 1e-12
                if dec.r2_hat and spec.r2:
                    dense = metric_Dbar(dec.A2 @ dec.U1, truth.A2 @ truth.U22_1)
                    assert abs(metrics["Dbar_A2U1"] - dense) <= 1e-12
                r2_hats.append(dec.r2_hat)
        # the narrow cell's variants disagree, the wide cell finds factors and
        # the last cell none
        assert r2_hats[0] != r2_hats[1] and min(r2_hats[2:4]) >= 1 and r2_hats[4:] == [0, 0]


class TestRmseFactors:
    def test_perfect(self):
        x = np.random.default_rng(6).normal(size=(10, 3))
        assert rmse_factors(x, x, "small") == 0.0

    def test_constant_offset(self):
        truth = np.zeros((8, 3))
        c = np.array([1.0, 2.0, 2.0])
        est = np.tile(c, (8, 1))
        assert rmse_factors(est, truth, "small") == pytest.approx(3.0)
        assert rmse_factors(est, truth, "large") == pytest.approx(3.0 / np.sqrt(3))

    def test_large_is_small_over_sqrt_p(self):
        rng = np.random.default_rng(7)
        est, truth = rng.normal(size=(12, 4)), rng.normal(size=(12, 4))
        assert rmse_factors(est, truth, "large") == pytest.approx(
            rmse_factors(est, truth, "small") / 2.0, rel=1e-12
        )


class TestPathRmse:
    """The replication RMSEs are read off the R factor of the stacked loadings;
    they must equal the dense formula on the ``n x p`` paths."""

    @pytest.mark.blas_threads
    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec(p=50, n=300, r1=4, r2=6, K=2, example=2, seed=1),  # narrow
            DgpSpec(p=120, n=100, r1=2, r2=3, K=1, example=2, seed=4),  # wide, p >= n
            DgpSpec(p=20, n=200, r1=0, r2=0, example=2, seed=3),  # no factor
            DgpSpec(p=6, n=200, example=1, seed=5),
        ],
        ids=["narrow", "wide", "no_factor", "ex1"],
    )
    def test_replication_matches_dense_paths(self, spec):
        panel, truth = generate(spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, _, metrics = _replication(panel, truth, spec, PipelineConfig(), ["a*w*"])
            dec = decompose(panel)
        norm = "small" if spec.example == 1 else "large"
        trend = rmse_factors(dec.x1 @ dec.A1.T, trend_paths(truth), norm)
        assert metrics["rmse_trend"] == pytest.approx(trend, rel=1e-12, abs=0)
        if dec.r2_hat:
            stationary = rmse_factors(dec.z2 @ dec.A2U1.T, factor_paths(truth), norm)
            assert metrics["rmse_stationary"] == pytest.approx(stationary, rel=1e-12, abs=0)
        else:
            assert np.isnan(metrics["rmse_stationary"])

    def test_empty_and_overfull_loadings(self):
        # an estimate or a truth without columns, and r_hat + r > p, where R
        # has fewer rows than columns
        spec = DgpSpec(p=6, n=200, example=1, seed=2)
        panel, truth = generate(spec)
        dec = decompose(panel)
        x2 = truth.f2 @ truth.U22_1.T + truth.eps @ truth.U22_2.T
        cases = [
            (dec.x1[:, :0], dec.A1[:, :0], truth.x1, truth.A1),  # r_hat = 0
            (dec.x1, dec.A1, truth.x1[:, :0], truth.A1[:, :0]),  # r = 0
            (dec.x1[:, :0], dec.A1[:, :0], truth.x1[:, :0], truth.A1[:, :0]),
            (dec.x2, dec.A2, x2, truth.A2),  # r_hat + r = 8 > p = 6
        ]
        for x_hat, a_hat, x, a in cases:
            dense = rmse_factors(x_hat @ a_hat.T, x @ a.T, "small")
            rmse = _score_pair(x_hat, a_hat, x, a, spec.n)[0]
            assert rmse == pytest.approx(dense, rel=1e-12, abs=0)
        assert _score_pair(*cases[2], spec.n)[0] == 0.0
        # the panel itself on identity loadings against its generative
        # decomposition (r_hat + r = 12): the paths agree up to rounding
        y = panel.data
        exact = (y, np.eye(spec.p), np.hstack([truth.x1, x2]), np.hstack([truth.A1, truth.A2]))
        assert _score_pair(*exact, spec.n)[0] <= 1e-13 * np.abs(y).max()

    @pytest.mark.parametrize(
        "spec",
        [
            DgpSpec(p=50, n=2000, r1=4, r2=6, K=2, example=2, seed=1),
            DgpSpec(p=200, n=300, r1=2, r2=3, K=1, example=2, seed=1),
            DgpSpec(p=400, n=200, r1=2, r2=3, K=1, example=2, seed=4),
        ],
        ids=["narrow", "many_series", "wide"],
    )
    def test_replication_forms_no_panel_sized_array(self, spec, monkeypatch):
        # with the stages precomputed, a replication's metrics allocate
        # O((n + p) (r_hat + r)) doubles, not the O(n p) of the paths
        from trendfactors import simgen

        panel, truth = generate(spec)
        variants = ["a*w*", "aw"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            staged = simgen._run_stages(panel, PipelineConfig(),
                                        [simgen._parse_variant(v) for v in variants])
        monkeypatch.setattr(simgen, "_run_stages", lambda *args: staged)
        _replication(panel, truth, spec, PipelineConfig(), variants)
        tracemalloc.start()
        try:
            _replication(panel, truth, spec, PipelineConfig(), variants)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dec = staged[0]
        width = max(dec.r1_hat + spec.r1, dec.r2_hat + spec.r2)
        assert peak / 8 <= 3 * (spec.n + spec.p) * width < spec.n * spec.p


class TestRunMontecarlo:
    def test_single_rep_probabilities_are_indicators(self):
        res = run_montecarlo([DgpSpec(p=5, n=120, example=1)], reps=1, base_seed=3)
        for stats in res.cells[0].probs.values():
            for v in stats.values():
                assert v in (0.0, 1.0)

    def test_rows_flat_export(self):
        res = run_montecarlo([DgpSpec(p=5, n=120, example=1)], reps=2, base_seed=3)
        rows = _benchmark_rows(res)
        assert any(r["statistic"] == "r1" for r in rows)
        assert all({"example", "p", "n", "method", "value"} <= set(r) for r in rows)

    def test_order_independent_seeds(self):
        assert derive_seed(1, 0, 5) == derive_seed(1, 0, 5)
        assert derive_seed(1, 0, 5) != derive_seed(1, 0, 6)
        assert derive_seed(1, 0) != derive_seed(1, 1)

    def test_mixing_fixed_within_cell(self):
        spec = DgpSpec(p=5, n=100, example=1)
        mix = draw_mixing(spec, derive_seed(8, 0))
        p1, _ = draw_panel(spec, mix, derive_seed(8, 0, 0))
        p2, _ = draw_panel(spec, mix, derive_seed(8, 0, 1))
        assert not np.array_equal(p1.data, p2.data)

    def test_zero_trend_cell_keeps_every_replication(self):
        # with no true trends, a replication that finds one has no A1 span to
        # compare; it must still count, with a NaN distance
        spec = DgpSpec(p=38, n=81, r1=0, r2=3, delta=0.5, example=2)
        cell = run_montecarlo([spec], reps=100, base_seed=3).cells[0]
        assert cell.failures == 0
        lib = _library_counts(spec, 100, 3, PipelineConfig())
        assert cell.probs["a*w*"]["r1"] == lib["r1"] < 1.0
        assert all(np.isnan(cell.metric_quartiles["Dbar_A1"]))

    def test_failures_recorded_by_exception_class(self, monkeypatch):
        from trendfactors import simgen

        real = simgen._replication
        calls = []
        forced = {2: TrendFactorsError("forced failure"), 3: np.linalg.LinAlgError("singular"),
                  4: TrendFactorsError("second message")}

        def fail_some(*args, **kwargs):
            calls.append(None)
            if len(calls) in forced:
                raise forced[len(calls)]
            return real(*args, **kwargs)

        monkeypatch.setattr(simgen, "_replication", fail_some)
        methods = ("a*w*", "aw")
        res = run_montecarlo([DgpSpec(p=5, n=120, example=1)], reps=5, methods=methods,
                             base_seed=3)
        cell = res.cells[0]
        assert cell.failures == 3
        # classes in the order they first fail, each with its count and first message
        assert list(cell.failure_reasons.items()) == [
            ("TrendFactorsError", (2, "forced failure")), ("LinAlgError", (1, "singular"))]
        assert {r["failure_reasons"] for r in _benchmark_rows(res)} == {
            "TrendFactorsError x2: forced failure; LinAlgError x1: singular"}
        # the records keep each failure in its replication: counts of -1, NaN
        # metrics and the exception; the successes keep their counts
        failed = np.array([False, True, True, True, False])
        assert list(cell.errors) == [None, ("TrendFactorsError", "forced failure"),
                                     ("LinAlgError", "singular"),
                                     ("TrendFactorsError", "second message"), None]
        assert cell.counts.shape == (5, len(methods), 2)
        assert np.all(cell.counts[failed] == -1) and np.all(cell.K_hat[failed] == -1)
        assert np.all(cell.counts[~failed] >= 0) and np.all(cell.K_hat[~failed] >= 0)
        assert list(cell.metrics) == list(simgen.METRICS)
        assert all(np.isnan(v[failed]).all() and np.isfinite(v[~failed]).all()
                   for v in cell.metrics.values())
        assert cell.seeds.tolist() == [derive_seed(3, 0, rep) for rep in range(5)]
        rows = _replication_rows(res)
        assert [r["error"] for r in rows] == [
            "", "TrendFactorsError: forced failure", "LinAlgError: singular",
            "TrendFactorsError: second message", ""]
        assert [r["a*w*_r1_hat"] for r in rows if r["error"]] == [-1] * 3

    def test_cell_where_every_replication_fails(self, monkeypatch):
        from trendfactors import simgen

        def always_fail(*args, **kwargs):
            raise TrendFactorsError("forced failure")

        monkeypatch.setattr(simgen, "_replication", always_fail)
        methods = ("a*w*", "aw", "aw*")
        res = run_montecarlo([DgpSpec(p=5, n=120, example=1)], reps=3, methods=methods,
                             base_seed=3)
        cell = res.cells[0]
        assert cell.failures == 3
        assert cell.probs.keys() == set(methods)
        assert all(np.isnan(v) for stats in cell.probs.values() for v in stats.values())
        assert cell.metric_quartiles == {}
        rows = _benchmark_rows(res)
        assert len(rows) == 3 * len(methods)
        assert [(r["method"], r["statistic"]) for r in rows] == [
            (m, s) for m in methods for s in ("r1", "r2", "total")]
        assert all(np.isnan(r["value"]) for r in rows)

    def test_empty_methods_rejected(self):
        with pytest.raises(ArgumentError, match="at least one variant"):
            run_montecarlo([DgpSpec(p=5, n=120, example=1)], reps=1, methods=())

    def test_reps_and_base_seed_validated(self):
        spec = DgpSpec(p=5, n=120, example=1)
        for field, value in [("reps", 2.5), ("reps", 0), ("reps", "2"), ("base_seed", -1),
                             ("base_seed", 1.5), ("base_seed", None)]:
            with pytest.raises(ArgumentError, match=f"^{field} must be an integer"):
                run_montecarlo([spec], **{"reps": 1, "base_seed": 0, field: value})

    def test_repeated_methods_rejected(self):
        with pytest.raises(ArgumentError, match="each once"):
            run_montecarlo([DgpSpec(p=5, n=120, example=1)], reps=1, methods=("aw", "aw"))

    def test_programming_errors_propagate(self, monkeypatch):
        from trendfactors import simgen

        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(simgen, "_replication", broken)
        with pytest.raises(TypeError):
            run_montecarlo([DgpSpec(p=5, n=120, example=1)], reps=1)

    @pytest.mark.blas_threads
    @pytest.mark.parametrize(
        "spec, config",
        [
            (DgpSpec(p=6, n=200, example=1), PipelineConfig()),  # bottom-up count, d <= 10
            (DgpSpec(p=38, n=81, r1=0, r2=3, delta=0.5, example=2), PipelineConfig()),  # d < n
            # d >= n, truncated
            (DgpSpec(p=120, n=100, r1=4, r2=6, K=2, example=2), PipelineConfig()),
            # wide; at this threshold the a*w* row space is all trends, leaving only constants
            (DgpSpec(p=60, n=40, r1=2, r2=3, K=1, example=2), PipelineConfig(c0=1e-6, l=1, m=5)),
        ],
        ids=["spec0", "spec1", "spec2", "spec3"],
    )
    def test_counts_match_decompose(self, spec, config):
        reps, base = 12, 11
        cell = run_montecarlo(
            [spec], reps=reps, methods=("a*w*", "aw"), base_seed=base, config=config
        ).cells[0]
        assert cell.failures == 0
        assert cell.probs["a*w*"] == _library_counts(spec, reps, base, config)
        assert cell.probs["aw"] == _library_counts(
            spec, reps, base, replace(config, absolute_acf=False, reorder=False)
        )

    def test_ill_conditioned_recovery_falls_back(self, monkeypatch):
        # a tolerance just below 1 makes every projected-PCA inversion
        # "singular"; decompose then projects directly, and so must the driver
        monkeypatch.setattr(stationary, "_SV_TOL", 1.0 - 1e-6)
        spec = DgpSpec(p=50, n=2000, r1=4, r2=6, K=2, delta=0.0, example=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            panel, _ = draw_panel(spec, draw_mixing(spec, 0), 1)
            assert decompose(panel).diagnostics["v2_fallback"]
            cell = run_montecarlo([spec], reps=5, base_seed=0).cells[0]
        assert cell.failures == 0


def _library_counts(spec, reps, base_seed, config):
    """Hit rates of ``decompose`` on the draws run_montecarlo makes for cell 0."""
    mixing = draw_mixing(replace(spec, seed=derive_seed(base_seed, 0)), derive_seed(base_seed, 0))
    hits = {"r1": 0, "r2": 0, "total": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rep in range(reps):
            panel, _ = draw_panel(spec, mixing, derive_seed(base_seed, 0, rep))
            dec = decompose(panel, config)
            hits["r1"] += dec.r1_hat == spec.r1
            hits["r2"] += dec.r2_hat == spec.r2
            hits["total"] += dec.r1_hat + dec.r2_hat == spec.r1 + spec.r2
    return {key: count / reps for key, count in hits.items()}
