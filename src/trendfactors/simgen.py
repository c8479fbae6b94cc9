"""Data-generating processes and the Monte Carlo driver with its accuracy metrics.

Two synthetic designs exercise the pipeline: a small-dimension design with an
orthonormal mixing matrix (example 1) and a high-dimensional design with
factor-strength scalings and prominent noise directions (example 2).  Both
share random-walk trends, diagonal-AR stationary factors, and i.i.d. Gaussian
idiosyncratic noise.

Every draw is deterministic given the spec's 64-bit seed; the Monte Carlo
driver derives independent per-replication streams from (base seed, cell
index, rep index) so replications can run in any order.  Each replication
scores the estimate by three span distances (``Dbar_A1``, ``Dbar_A2``,
``Dbar_A2U1``) and two path RMSEs (``rmse_trend``, ``rmse_stationary``),
all five from the R factor of each pair's stacked loadings: the RMSEs
with no ``n x p`` path, and the distances from the principal-angle sines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import ArgumentError, TrendFactorsError
from .pipeline import PipelineConfig, _check_fields, _is_int, _run_stages
from .tsstats import TimeSeriesPanel

__all__ = [
    "DgpSpec",
    "GroundTruth",
    "Mixing",
    "MonteCarloResult",
    "CellResult",
    "random_orthonormal",
    "draw_mixing",
    "draw_panel",
    "generate",
    "run_montecarlo",
    "derive_seed",
    "VARIANTS",
]

VARIANTS = ("a*w*", "aw", "a*w", "aw*")


@dataclass(frozen=True)
class DgpSpec:
    """A single Monte Carlo cell: dimensions, factor counts, and seed."""

    p: int
    n: int
    r1: int = 2
    r2: int = 2
    K: int = 0
    delta: float = 0.0
    example: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_fields(self)
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")
        if self.p < 1 or self.n < 2:
            raise ArgumentError(f"need p >= 1 and n >= 2, got p={self.p}, n={self.n}")
        if self.r1 < 0 or self.r2 < 0:
            raise ArgumentError("factor counts must be >= 0")
        if self.r1 + self.r2 > self.p:
            raise ArgumentError(f"r1 + r2 = {self.r1 + self.r2} exceeds p = {self.p}")
        v = self.p - self.r1 - self.r2
        if not 0 <= self.K < max(v, 1):
            raise ArgumentError(f"K={self.K} not an admissible noise rank (v={v})")
        if not 0.0 <= self.delta < 1.0:
            raise ArgumentError(f"delta must lie in [0, 1), got {self.delta}")
        if self.example not in (1, 2):
            raise ArgumentError(f"example must be 1 or 2, got {self.example}")
        if self.example == 1 and self.delta != 0.0:
            raise ArgumentError("example 1 requires delta = 0")
        if self.example == 1 and self.K != 0:
            raise ArgumentError("example 1 has no prominent noise; require K = 0")

    @property
    def v(self) -> int:
        return self.p - self.r1 - self.r2


@dataclass(frozen=True)
class GroundTruth:
    """Generative quantities retained for evaluation.

    ``A1``/``A2`` are the orthonormal mixing blocks used to build the panel,
    ``U22_1``/``U22_2`` the stationary mixing blocks, ``phi`` the AR
    coefficients, and ``x1``/``f2``/``eps`` the latent paths (in example 2
    the strength exponent lives on the ``x1`` increments).  The panel is
    ``y = x1 A1' + (f2 U22_1' + eps U22_2') A2'``, with the trend paths
    ``x1 A1'`` and the stationary-factor paths ``f2 (A2 U22_1)'``.
    """

    A1: np.ndarray
    A2: np.ndarray
    U22_1: np.ndarray
    U22_2: np.ndarray
    phi: np.ndarray
    x1: np.ndarray
    f2: np.ndarray
    eps: np.ndarray


@dataclass(frozen=True)
class Mixing:
    """Mixing matrices and AR coefficients, fixed across replications of a cell."""

    A: np.ndarray
    U22_1: np.ndarray
    U22_2: np.ndarray
    phi: np.ndarray


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_orthonormal(p: int, seed) -> np.ndarray:
    """Random ``p x p`` orthonormal matrix, deterministic per seed.

    QR factorization of a uniform(-2, 2) matrix with the positive-diagonal
    convention on ``R``; only orthonormality matters downstream.
    """
    if p < 1:
        raise ArgumentError(f"p must be >= 1, got {p}")
    rng = _as_rng(seed)
    m = rng.uniform(-2.0, 2.0, (p, p))
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def draw_mixing(spec: DgpSpec, seed) -> Mixing:
    """Draw the mixing matrices and AR coefficients for a cell.

    Example 1 uses an orthonormal mixing matrix and scales the noise block by
    ``1/sqrt(p)`` to balance factor and noise variances.  Example 2 takes the
    left singular basis of a uniform(-2, 2) matrix as the (orthonormal)
    mixing, divides ``U22_1`` by ``p^{delta/2}``, the first ``K`` columns of
    ``U22_2`` by ``p^{delta/2}``, and the remaining ``v - K`` columns by
    ``p``, so factor strength scales as ``p^{(1-delta)/2}`` and exactly ``K``
    noise covariance eigenvalues diverge with the dimension; the trend
    strength lives on the trend increments (see :func:`draw_panel`).
    """
    rng = _as_rng(seed)
    d = spec.p - spec.r1
    if spec.example == 1:
        a = random_orthonormal(spec.p, rng)
        u221 = rng.uniform(-1.0, 1.0, (d, spec.r2))
        u222 = rng.uniform(-1.0, 1.0, (d, spec.v)) / np.sqrt(spec.p)
    else:
        m = rng.uniform(-2.0, 2.0, (spec.p, spec.p))
        u_left, _, _ = np.linalg.svd(m)
        a = u_left
        u221 = rng.uniform(-1.0, 1.0, (d, spec.r2)) / spec.p ** (spec.delta / 2.0)
        u222 = rng.uniform(-1.0, 1.0, (d, spec.v))
        u222[:, : spec.K] /= spec.p ** (spec.delta / 2.0)
        u222[:, spec.K :] /= float(spec.p)
    phi = rng.uniform(0.5, 0.9, spec.r2)
    return Mixing(A=a, U22_1=u221, U22_2=u222, phi=phi)


def draw_panel(spec: DgpSpec, mixing: Mixing, seed) -> tuple[TimeSeriesPanel, GroundTruth]:
    """Draw one panel from fresh innovations under a fixed mixing.

    Trends are random walks started at zero with standard normal increments;
    stationary factors follow the diagonal AR(1) recursion from zero; the
    idiosyncratic noise is i.i.d. standard normal.  Draw order: trend
    increments, factor innovations, noise.

    The AR(1) paths solve ``(I - phi L) f = eta``, all factors in one
    block-diagonal system with unit diagonal, ``-phi`` on the subdiagonal and
    a zero between factors, by ``scipy.linalg.solve_banded((1, 1), ...)``,
    i.e. LAPACK ``gtsv``.  With ``|phi| < 1`` (required here) ``gtsv`` never
    pivots; with the zero superdiagonal its elimination does the recursion's
    one multiply and one add per step, ``f_t = eta_t + phi f_{t-1}``, and its
    back substitution only divides by the unit diagonal, so the paths equal
    the recursion's to the last bit.
    """
    n, r1, r2 = spec.n, spec.r1, spec.r2
    d = spec.p - r1
    for name, shape in (("A", (spec.p, spec.p)), ("U22_1", (d, r2)), ("U22_2", (d, spec.v))):
        if np.shape(getattr(mixing, name)) != shape:
            raise ArgumentError(f"mixing.{name} must be {shape} for this spec, "
                                f"got {np.shape(getattr(mixing, name))}")
    if np.size(mixing.phi) < r2:
        raise ArgumentError(f"mixing.phi needs r2 = {r2} values, got {np.size(mixing.phi)}")
    phi = np.asarray(mixing.phi, dtype=float)[:r2]
    for i, value in enumerate(phi):
        if not abs(value) < 1.0:
            raise ArgumentError(
                f"factor {i} has AR coefficient phi = {value}; stationary factors need |phi| < 1"
            )
    rng = _as_rng(seed)
    x1 = np.cumsum(rng.standard_normal((n, r1)), axis=0)
    if spec.example == 2:
        # the trend block carries the strength exponent: increment scale
        # p^{(1-delta)/2} against unit-variance factors, keeping the trend
        # eigenvalues separated from the factor block as the dimension grows
        x1 = x1 * spec.p ** ((1.0 - spec.delta) / 2.0)
    eta2 = rng.standard_normal((n, r2))
    # band rows: superdiagonal, diagonal, subdiagonal; the subdiagonal entry
    # that closes each factor's block of n stays 0, so factors do not couple
    band = np.zeros((3, n * r2))
    band[1] = 1.0
    band[2].reshape(r2, n)[:, :-1] = -phi[:, None]
    paths = solve_banded((1, 1), band, eta2.T.ravel()).reshape(r2, n)
    # innovation variance 1 - phi^2 gives unit stationary factor variance,
    # the normalization the model identifies the factors under
    f2 = (paths * np.sqrt(1.0 - phi[:, None] ** 2)).T.copy()
    eps = rng.standard_normal((n, spec.v))
    a1, a2 = mixing.A[:, :r1], mixing.A[:, r1:]
    x2 = f2 @ mixing.U22_1.T
    x2 += eps @ mixing.U22_2.T
    y = x1 @ a1.T
    y += x2 @ a2.T
    truth = GroundTruth(
        A1=a1, A2=a2, U22_1=mixing.U22_1, U22_2=mixing.U22_2,
        phi=mixing.phi, x1=x1, f2=f2, eps=eps,
    )
    return TimeSeriesPanel(y), truth


def generate(spec: DgpSpec) -> tuple[TimeSeriesPanel, GroundTruth]:
    """Generate one panel of the spec's example; mixing and paths share the spec seed."""
    rng = _as_rng(spec.seed)
    return draw_panel(spec, draw_mixing(spec, rng), rng)


def _score_pair(x_hat, a_hat, x, a, denom) -> tuple[float, float]:
    """``(rmse, outside)`` of an estimated loading pair against the truth.

    With ``[a_hat, a] = Q R`` (one thin QR), ``x_hat a_hat' - x a'`` has the
    Frobenius norm of ``[x_hat, -x] R'``, so the path RMSE
    ``sqrt(||x_hat a_hat' - x a'||_F^2 / denom)`` forms no ``n x p`` path.
    In ``Q``'s coordinates ``a_hat`` (``k`` columns, full rank) spans the
    first ``k`` axes and ``a`` the span of ``R[:, k:] = Q_s R_s``, so
    ``outside = ||Q_s[k:]||_F^2`` is the sum of the squared sines of the
    principal angles between the spans, free of cancellation.
    """
    k = a_hat.shape[1]
    r = np.linalg.qr(np.hstack([a_hat, a]), mode="r")
    rmse = float(np.linalg.norm(np.hstack([x_hat, -x]) @ r.T) / np.sqrt(denom))
    q_s = np.linalg.qr(r[:, k:])[0]
    return rmse, float(np.einsum("ij,ij->", q_s[k:], q_s[k:]))


def _sine_distance(k: int, j: int, outside: float) -> float:
    """The paper's span distance ``sqrt(1 - ||Q_hat' Q||_F^2 / max(k, j))`` for
    widths ``k`` and ``j``, with ``||Q_hat' Q||_F^2 = j - outside``; NaN when
    either span is empty."""
    wide = max(k, j)
    return float(np.sqrt(max(0.0, wide - j + outside) / wide)) if min(k, j) else np.nan


def _parse_variant(name: str) -> tuple[bool, bool]:
    if name not in VARIANTS:
        raise ArgumentError(f"unknown method variant {name!r}; choose from {VARIANTS}")
    return name.startswith("a*"), name.endswith("w*")


def derive_seed(base_seed: int, cell_index: int, rep_index: int | None = None) -> int:
    """Deterministic 64-bit stream seed from (base, cell[, rep]).

    With ``rep_index=None`` this is the cell-level stream used for the mixing
    draw; otherwise the per-replication shock stream.
    """
    entropy = (int(base_seed), int(cell_index))
    if rep_index is not None:
        entropy += (int(rep_index),)
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class CellResult:
    """Per-cell Monte Carlo summary.

    ``failure_reasons`` maps each failing exception class name to
    ``(count, first message)``; ``failures`` is the total count.
    """

    spec: DgpSpec
    reps: int
    failures: int
    failure_reasons: dict
    probs: dict
    metric_quartiles: dict


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical probabilities and metric distributions over a grid."""

    cells: list
    methods: tuple
    reps: int
    base_seed: int

    def rows(self) -> list[dict]:
        """One flat record per cell x method x statistic (for CSV export)."""
        out = []
        for cell in self.cells:
            base = {
                "example": cell.spec.example,
                "p": cell.spec.p,
                "n": cell.spec.n,
                "delta": cell.spec.delta,
                "r1": cell.spec.r1,
                "r2": cell.spec.r2,
                "K": cell.spec.K,
                "reps": cell.reps,
                "failures": cell.failures,
                "failure_reasons": "; ".join(
                    f"{name} x{count}: {message}"
                    for name, (count, message) in cell.failure_reasons.items()
                ),
            }
            for method in self.methods:
                for stat, value in cell.probs[method].items():
                    out.append({**base, "method": method, "statistic": stat, "value": value})
            for name, (q1, q2, q3) in cell.metric_quartiles.items():
                for q, v in (("q25", q1), ("median", q2), ("q75", q3)):
                    out.append(
                        {**base, "method": self.methods[0], "statistic": f"{name}_{q}", "value": v}
                    )
        return out


def _replication(
    panel: TimeSeriesPanel,
    truth: GroundTruth,
    spec: DgpSpec,
    config: PipelineConfig,
    variants: list[str],
) -> tuple[list, dict]:
    """Counts for every requested variant plus metrics for the first one.

    Returns ``(counts, metrics)``: ``counts`` holds each variant's
    ``(r1, r2)``, in the order of ``variants``, as
    :func:`~trendfactors.pipeline._run_stages` gives them.  Every variant
    (``a*`` is ``absolute_acf``, ``w*`` is ``reorder``) runs the one stage
    sequence behind :func:`trendfactors.pipeline.decompose`, which shares
    the stage-1 eigendecomposition and each distinct stationary panel's
    second stage among them.  The metrics are read off the
    :class:`~trendfactors.pipeline.Decomposition` of the first variant, the
    one ``decompose`` returns under that variant's config.
    """
    dec, counts = _run_stages(panel, config, [_parse_variant(v) for v in variants])
    # span/path accuracy metrics under the first requested variant; example 2
    # averages the squared path errors over the dimension as well as time
    denom = spec.n if spec.example == 1 else spec.n * spec.p
    k, j = dec.r1_hat, spec.r1
    rmse, outside = _score_pair(dec.x1, dec.A1, truth.x1, truth.A1, denom)
    metrics = {
        "Dbar_A1": _sine_distance(k, j, outside),
        # A2 and truth.A2 complete the orthonormal A1 and truth.A1: sines k - j + outside
        "Dbar_A2": _sine_distance(spec.p - k, spec.p - j, k - j + outside),
        "rmse_trend": rmse,
        "Dbar_A2U1": np.nan,
        "rmse_stationary": np.nan,
    }
    if dec.r2_hat >= 1:
        rmse, outside = _score_pair(dec.z2, dec.A2U1, truth.f2, truth.A2 @ truth.U22_1, denom)
        metrics["Dbar_A2U1"] = _sine_distance(dec.r2_hat, spec.r2, outside)
        metrics["rmse_stationary"] = rmse
    return counts, metrics


def run_montecarlo(
    grid,
    reps: int,
    methods=("a*w*", "aw"),
    base_seed: int = 0,
    config: PipelineConfig = PipelineConfig(),
) -> MonteCarloResult:
    """Empirical count probabilities and accuracy metrics over a grid of cells.

    Mixing matrices and AR coefficients are drawn once per cell (stream
    derived from ``(base_seed, cell index)``), after which the panel is
    regenerated ``reps`` times from independent per-replication shock streams
    derived from ``(base_seed, cell index, rep index)``; every requested
    method variant is evaluated on the same draws.  Replications that raise a
    package error or a linear-algebra failure are recorded by exception class
    and skipped rather than aborting the grid; any other exception propagates.
    Each cell's ``probs[method]`` holds the fractions of successful
    replications whose ``r1``, ``r2`` and ``r1 + r2`` counts equal the
    spec's, under the keys ``"r1"``, ``"r2"`` and ``"total"``: the mean of
    one row of 0/1 hits per replication, NaN when every replication failed.
    """
    for name, value, low in (("reps", reps, 1), ("base_seed", base_seed, 0)):
        if not _is_int(value) or value < low:
            raise ArgumentError(f"{name} must be an integer >= {low}, got {value!r}")
    methods = tuple(methods)
    if not methods or len(set(methods)) < len(methods):
        raise ArgumentError(f"methods must name at least one variant, each once; got {methods}")
    for name in methods:
        _parse_variant(name)
    cells = []
    for ci, spec in enumerate(grid):
        hits = []
        metric_samples: dict = {}
        failure_reasons: dict = {}
        mixing = draw_mixing(spec, derive_seed(base_seed, ci))
        for rep in range(reps):
            try:
                panel, truth = draw_panel(spec, mixing, derive_seed(base_seed, ci, rep))
                counts, metrics = _replication(panel, truth, spec, config, list(methods))
            except (TrendFactorsError, np.linalg.LinAlgError) as exc:
                count, message = failure_reasons.get(type(exc).__name__, (0, str(exc)))
                failure_reasons[type(exc).__name__] = (count + 1, message)
                continue
            hits.append([(r1 == spec.r1, r2 == spec.r2, r1 + r2 == spec.r1 + spec.r2)
                         for r1, r2 in counts])
            for key, value in metrics.items():
                metric_samples.setdefault(key, []).append(value)
        # sums of 0s and 1s are exact, so the mean is the count over the successes
        rates = np.mean(hits, axis=0) if hits else np.full((len(methods), 3), np.nan)
        probs = {name: dict(zip(("r1", "r2", "total"), row.tolist()))
                 for name, row in zip(methods, rates)}
        quartiles = {}
        for key, values in metric_samples.items():
            arr = np.asarray(values, dtype=float)
            if np.all(np.isnan(arr)):
                quartiles[key] = (np.nan, np.nan, np.nan)
            else:
                quartiles[key] = tuple(np.nanquantile(arr, [0.25, 0.5, 0.75]))
        cells.append(CellResult(spec=spec, reps=reps, failures=reps - len(hits),
                                failure_reasons=failure_reasons, probs=probs,
                                metric_quartiles=quartiles))
    return MonteCarloResult(cells=cells, methods=methods, reps=reps, base_seed=base_seed)
