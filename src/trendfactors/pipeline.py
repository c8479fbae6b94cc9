"""End-to-end decomposition: trends, stationary factors, and white noise.

Chains the first-stage eigen-split, the second-stage eigenanalysis, the
white-noise counting procedure, and the projected PCA into a single
:func:`decompose` call returning loadings, factor paths, and per-stage
diagnostics.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import ArgumentError, IllConditionedError
from .stationary import build_M2, estimate_K, estimate_V2, recover_z2
from .tsstats import EigenDecomposition, as_panel, sym_eigen
from .unitroot import M1Eigen, first_stage, null_width, scan_r1
from .whitenoise import FactorCounts, count_factors

__all__ = ["PipelineConfig", "Decomposition", "decompose", "second_stage", "recover_factors"]

# Stationary panels at most this wide are counted by the bottom-up Ljung-Box
# scan and get no prominent-noise correction.
SMALL_P_THRESHOLD = 10


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# annotation -> (description, test) of the values a dataclass field accepts
_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a real number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)),
    "bool": ("a bool", lambda v: isinstance(v, (bool, np.bool_))),
}


def _check_fields(obj) -> None:
    """Raise an :class:`ArgumentError` naming the first field of the dataclass
    ``obj`` whose value is not of its annotated ``int``, ``float`` or ``bool``
    kind (or ``None``, where the annotation allows it)."""
    for f in fields(obj):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(obj, f.name)
        if kind in _KINDS and not _KINDS[kind][1](value) and not (optional and value is None):
            raise ArgumentError(f"{f.name} must be {_KINDS[kind][0]}, got {value!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """All tuning constants of the decomposition and forecasting pipeline.

    Defaults follow the simulation settings: ``k0 = j0 = 2`` lags in the two
    eigen-stage matrices, threshold ``c0 = 0.3`` with gap ``l = 3`` over
    ``m = 10`` probed autocorrelations (use ``m = 30`` for long real series),
    portmanteau level ``alpha = 0.05``, truncation fraction
    ``epsilon = 0.75``, and the absolute-ACF / reordering variants switched
    on.  ``K_override`` pins the prominent-noise count manually, bypassing
    the eigenvalue-ratio rule.
    """

    k0: int = 2
    j0: int = 2
    c0: float = 0.3
    l: int = 3
    m: int = 10
    alpha: float = 0.05
    epsilon: float = 0.75
    K_override: int | None = None
    absolute_acf: bool = True
    reorder: bool = True
    horizons: tuple[int, ...] = (1, 2, 3, 4)
    window_start: int | None = None

    def __post_init__(self):
        _check_fields(self)
        if not isinstance(self.horizons, tuple) or not all(_is_int(h) for h in self.horizons):
            raise ArgumentError(f"horizons must be a tuple of integers, got {self.horizons!r}")
        if self.k0 < 0:
            raise ArgumentError(f"k0 must be >= 0, got {self.k0}")
        if self.j0 < 1:
            raise ArgumentError(f"j0 must be >= 1, got {self.j0}")
        if not 0.0 < self.c0 < 1.0:
            raise ArgumentError(f"c0 must lie in (0, 1), got {self.c0}")
        if self.l < 1 or self.m < 1:
            raise ArgumentError("l and m must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ArgumentError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ArgumentError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.K_override is not None and self.K_override < 0:
            raise ArgumentError("K override must be >= 0")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ArgumentError(f"horizons must be non-empty and positive, got {self.horizons}")


@dataclass(frozen=True)
class Decomposition:
    """Full two-stage decomposition of a panel.

    :func:`recover_factors` assembles it from the two stages' results; the
    same object is what :func:`decompose` returns, what the Monte Carlo reads
    its accuracy metrics from and what
    :func:`~trendfactors.forecast.forecast_path` forecasts from.

    Loadings ``A1`` (trends) and ``A2`` (stationary block) live in the
    observation space, and the components ``x1 = y @ A1`` and ``x2 = y @ A2``
    are the leading and trailing column blocks of one array, as ``A1`` and
    ``A2`` are of the ``M1`` eigenbasis.  ``U1``, ``V1``, ``V2`` live in the
    stationary subspace of width ``d = p - r1_hat``.  Only the span of ``V2``
    and the factor paths ``z2`` are determined, not the basis of ``V2``
    inside its span.  The diagnostics dictionary has the same keys on every
    path: ``M1_eigenvalues`` and ``s_statistics`` (stage one, length ``p``),
    ``M2_eigenvalues``, ``lb_pvalues`` (in testing order),
    ``component_order`` (the testing order) and ``S_eigenvalues`` (each of
    length ``d``), ``truncated_components`` (components the sequential test
    left out because ``d >= n``), ``scanned_components`` (trailing kept
    components the white-noise scan reached) and ``v2_fallback`` (an
    ill-conditioned recovery, where ``V2 = U1``).  Without a stationary
    block the arrays are empty.

    When ``p >= n`` the last ``p - n + 1`` columns of ``A2`` are orthogonal
    to the centered panel (see :func:`trendfactors.unitroot.null_width`):
    their components in ``x2`` are constant, they are white noise, last in
    the testing order with Ljung-Box p-value 1, ``U1`` and ``V2`` are zero
    on them, ``V1`` ends in an identity block over them, and their ``M1``,
    ``M2`` and ``S`` eigenvalues and s-statistics are exact zeros.

    ``A1`` and ``A2U1`` (the stationary factors' loadings ``A2 @ U1``,
    computed on each read) are products with ``eig1``, the
    :class:`~trendfactors.unitroot.M1Eigen` that
    :func:`~trendfactors.unitroot.first_stage` returns; ``x1`` and ``x2``
    come from stage one, not from ``A1`` and ``A2``.  ``A2`` and ``V1`` are
    built on first read and then kept: ``A2`` from ``eig1`` and ``V1`` from
    ``V1_lead``, its block over all but the null-space components.  On a
    wide panel that forms ``A2``'s null-space completion (a ``p x p``
    array) and ``V1``'s identity block, which no stage reads.
    """

    r1_hat: int
    r2_hat: int
    v_hat: int
    K_hat: int
    A1: np.ndarray
    U1: np.ndarray
    V2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    z2: np.ndarray
    diagnostics: dict
    eig1: M1Eigen = field(kw_only=True, repr=False)
    V1_lead: np.ndarray = field(kw_only=True, repr=False)

    @property
    def p(self) -> int:
        return self.A1.shape[0]

    @cached_property
    def A2(self) -> np.ndarray:
        return self.eig1.basis()[:, self.r1_hat:]

    @cached_property
    def V1(self) -> np.ndarray:
        lead, v_lead = self.V1_lead.shape
        v1 = np.zeros((lead + self.v_hat - v_lead, self.v_hat))
        v1[:lead, :v_lead] = self.V1_lead
        # the null-space components are last in every order
        v1[np.arange(lead, len(v1)), np.arange(v_lead, self.v_hat)] = 1.0
        return v1

    @property
    def A2U1(self) -> np.ndarray:
        """``A2 @ U1`` by one :meth:`~trendfactors.unitroot.M1Eigen.times`
        product over ``A2``'s row-space columns: on a wide panel
        ``Q [W U1; 0]`` by one ``dormqr``, so neither ``Q W`` nor the
        null-space completion is formed."""
        rank = self.eig1.W.shape[1]
        return self.eig1.times(slice(self.r1_hat, rank), self.U1[: rank - self.r1_hat])


def second_stage(
    x2: np.ndarray, config: PipelineConfig, reorders, null: int = 0
) -> tuple[EigenDecomposition, np.ndarray, FactorCounts]:
    """Eigendecomposition of ``M2``, its components and their factor counts.

    Returns ``(eig2, xi, counts)``: ``xi = x2[:, :lead] @ W`` holds the
    components in the ``M2`` eigenbasis ``W = eig2.vectors``, which is where
    :func:`recover_factors` works.  Counts are returned for each reorder
    variant in ``reorders``; panels no wider than ``SMALL_P_THRESHOLD`` use
    the bottom-up Ljung-Box scan.  The last ``null`` columns of ``x2`` are
    constant by construction (the null space of a wide panel): ``M2`` is
    built on the others (the ``lead`` columns), and the returned
    eigendecomposition and components cover the others only (on the
    constant columns ``M2``'s eigenvalues are exact zeros and its
    eigenvectors unit vectors).  The constant columns count as white noise,
    last in the testing order.  A block with no other column (all of ``x2``
    constant, or ``x2`` empty) runs the same code on an empty ``M2``: the
    eigendecomposition and ``xi`` are empty and :func:`count_factors` gives
    p-values 1, the column order and counts 0, with the truncation and scan
    widths that the block's width sets.
    """
    lead = x2.shape[1] - null
    eig2 = sym_eigen(build_M2(x2[:, :lead], config.j0) if lead else np.zeros((0, 0)))
    xi = x2[:, :lead] @ eig2.vectors
    counts = count_factors(
        xi,
        config.m,
        config.alpha,
        reorders,
        config.epsilon,
        bottom_up=x2.shape[1] <= SMALL_P_THRESHOLD,
        null=null,
    )
    return eig2, xi, counts


def recover_factors(
    eig1: M1Eigen,
    rho: np.ndarray,
    x: np.ndarray,
    stage2: tuple[EigenDecomposition, np.ndarray, FactorCounts],
    config: PipelineConfig,
) -> Decomposition:
    """Projected-PCA recovery of the stationary factors, and the :class:`Decomposition`.

    ``(eig1, rho, x)`` is :func:`~trendfactors.unitroot.first_stage`'s
    output and ``stage2`` :func:`second_stage`'s result on ``x2 = x[:, r1:]``
    for the :func:`~trendfactors.unitroot.scan_r1` count ``r1`` under
    ``config.absolute_acf``; the count ``r2`` and the testing order are read
    for ``config.reorder``.  The ``null`` columns of ``x2`` past ``M2``'s
    eigenbasis are constant and come last in the testing order, in which
    the first ``r2`` components span the factor directions and the rest the
    white noise.  The recovery runs on ``second_stage``'s components ``xi``
    in the ``M2`` eigenbasis ``W`` (see :mod:`trendfactors.stationary`),
    where ``U1`` and ``V1`` are column selections of the identity;
    ``V2 = W v2`` is the one product with ``W``.  When the recovery is ill
    conditioned the factors are read off by direct projection instead
    (``v2_fallback``): ``V2 = U1``, and the same
    :func:`~trendfactors.stationary.recover_z2` solve, now against the
    identity, gives exactly ``z2 = xi[:, order[:r2]]``.  ``U1`` and
    ``V2`` are zero on the constant components, and ``S`` has exact zero
    eigenvalues there (all of them when ``d == null``).
    """
    r1 = scan_r1(rho, config.c0, config.absolute_acf)
    x2 = x[:, r1:]
    eig2, xi, counts = stage2
    w = eig2.vectors
    order = counts.order[config.reorder]
    r2 = counts.r2[config.reorder]
    d = x2.shape[1]
    lead = w.shape[0]
    null = d - lead
    v_lead = lead - r2
    factors = order[:r2]
    # S's factor W'G: the lag-0 covariance of the components, over the white ones
    xc = xi - np.einsum("ti->i", xi) / len(xi)
    g = (xc.T @ xc / len(xi))[:, order[r2:lead]]
    # freed before the G'G eigendecomposition, which would otherwise raise the peak
    del xc
    eig_g = sym_eigen(g.T @ g)
    if config.K_override is not None:
        k_hat = min(config.K_override, v_lead)
    elif d <= SMALL_P_THRESHOLD:
        # prominent noise is a diverging-eigenvalue phenomenon; the ratio rule
        # only runs in the wide regime
        k_hat = 0
    else:
        k_hat = estimate_K(eig_g.values)
    fallback = False
    try:
        v2 = estimate_V2(g, eig_g, factors, k_hat)
    except IllConditionedError:
        # an ill-conditioned projected-PCA inversion falls back to the direct
        # projection recovery so the decomposition still completes
        v2 = np.eye(lead)[:, factors]
        fallback = True
        warnings.warn(
            "projected PCA recovery is ill conditioned; using the direct "
            "factor projection instead",
            stacklevel=2,
        )
    # with V2 = U1 the solve is against the identity, so z2 is xi's factor columns
    z2 = recover_z2(v2, factors, xi)
    diagnostics = {
        "M1_eigenvalues": eig1.values,
        "s_statistics": (np.abs(rho) if config.absolute_acf else rho).sum(axis=1) / rho.shape[1],
        "M2_eigenvalues": np.concatenate([eig2.values, np.zeros(null)]),
        "lb_pvalues": counts.pvalues[order],
        "component_order": order,
        "S_eigenvalues": np.concatenate([eig_g.values, np.zeros(d - v_lead)]),
        "truncated_components": counts.truncated,
        "scanned_components": counts.scanned_components[config.reorder],
        "v2_fallback": fallback,
    }
    return Decomposition(
        r1_hat=r1,
        r2_hat=r2,
        v_hat=d - r2,
        K_hat=k_hat,
        A1=eig1.times(slice(0, r1)),
        U1=np.concatenate([w[:, factors], np.zeros((null, r2))]) if null else w[:, factors],
        V2=np.concatenate([w @ v2, np.zeros((null, r2))]),
        x1=x[:, :r1],
        x2=x2,
        z2=z2,
        diagnostics=diagnostics,
        eig1=eig1,
        V1_lead=w[:, order[r2:lead]],
    )


def _run_stages(panel, config: PipelineConfig, variants) -> tuple[Decomposition, list]:
    """The stages under each ``(absolute_acf, reorder)`` pair in ``variants``:
    ``first_stage`` once, ``scan_r1`` per variant, :func:`second_stage` once per
    distinct ``r1`` for every requested reorder, and :func:`recover_factors`
    for the first variant.  Returns its :class:`Decomposition` and each
    variant's ``(r1, r2)``; the other fields of ``config`` apply to all."""
    pan = as_panel(panel)
    eig1, rho, x = first_stage(pan, config.k0, config.l, config.m)
    r1s = [scan_r1(rho, config.c0, absolute) for absolute, _ in variants]
    reorders = sorted({reorder for _, reorder in variants}, reverse=True)
    null = null_width(pan.n, pan.p)
    stage2 = {r1: second_stage(x[:, r1:], config, reorders, null) for r1 in set(r1s)}
    absolute, reorder = variants[0]
    if (absolute, reorder) != (config.absolute_acf, config.reorder):
        config = replace(config, absolute_acf=absolute, reorder=reorder)
    dec = recover_factors(eig1, rho, x, stage2[r1s[0]], config)
    return dec, [(r1, stage2[r1][2].r2[reorder]) for r1, (_, reorder) in zip(r1s, variants)]


def decompose(panel, config: PipelineConfig = PipelineConfig()) -> Decomposition:
    """Run the full two-stage decomposition on a panel.

    Stage one counts and extracts the unit-root components; stage two counts
    the white-noise components among the remaining ones, then recovers the
    stationary factors by projected PCA (rotated when prominent noise
    eigenvalues are detected or pinned via ``K_override``).  The stages run
    in the one sequence that the Monte Carlo also runs, under the single
    variant ``(config.absolute_acf, config.reorder)``.
    """
    return _run_stages(panel, config, [(config.absolute_acf, config.reorder)])[0]
