"""End-to-end decomposition: trends, stationary factors, and white noise.

Chains the first-stage eigen-split, the second-stage eigenanalysis, the
white-noise counting procedure, and the projected PCA into a single
:func:`decompose` call returning loadings, factor paths, and per-stage
diagnostics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, IllConditionedError
from .stationary import (
    StationaryFactorFit,
    build_M2,
    estimate_K,
    estimate_V2,
    projected_S,
    recover_z2,
)
from .tsstats import EigenDecomposition, as_panel, sym_eigen
from .unitroot import R1Params, first_stage, scan_r1, split_spaces
from .whitenoise import FactorCounts, count_factors

__all__ = ["PipelineConfig", "Decomposition", "decompose", "second_stage", "recover_factors"]

# Stationary panels at most this wide are counted by the bottom-up Ljung-Box
# scan and get no prominent-noise correction.
SMALL_P_THRESHOLD = 10
# Largest prominent-noise count the eigenvalue-ratio rule considers.
MAX_K = 10


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
        if any(h < 1 for h in self.horizons):
            raise ArgumentError("horizons must be positive")

    @property
    def r1_params(self) -> R1Params:
        return R1Params(c0=self.c0, l=self.l, m=self.m, absolute=self.absolute_acf)


@dataclass(frozen=True)
class Decomposition:
    """Full two-stage decomposition of a panel.

    Loadings ``A1`` (trends) and ``A2`` (stationary block) live in the
    observation space; ``U1``, ``V1``, ``V2`` live in the stationary
    subspace of width ``p - r1_hat``.  Only the span of ``V2`` and the factor
    paths ``z2`` are determined, not the basis of ``V2`` inside its span.
    The diagnostics dictionary has the same keys on every path:
    ``M1_eigenvalues`` and ``s_statistics`` (stage one), ``M2_eigenvalues``,
    ``lb_pvalues`` (in testing order), ``component_order`` (the testing
    order), ``S_eigenvalues``, ``truncated_components`` (components the
    wide-panel test left out) and ``v2_fallback`` (an ill-conditioned
    recovery).  Without a stationary block the arrays are empty.
    """

    r1_hat: int
    r2_hat: int
    v_hat: int
    K_hat: int
    A1: np.ndarray
    A2: np.ndarray
    U1: np.ndarray
    V1: np.ndarray
    V2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    z2: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def p(self) -> int:
        return self.A1.shape[0]


def second_stage(
    x2: np.ndarray, config: PipelineConfig, reorders
) -> tuple[EigenDecomposition, FactorCounts]:
    """Eigendecomposition of ``M2`` and the factor counts of its components.

    Counts are returned for each reorder variant in ``reorders``; panels no
    wider than ``SMALL_P_THRESHOLD`` use the bottom-up Ljung-Box scan.
    """
    eig2 = sym_eigen(build_M2(x2, config.j0))
    counts = count_factors(
        x2 @ eig2.vectors,
        config.m,
        config.alpha,
        reorders,
        config.epsilon,
        bottom_up=x2.shape[1] <= SMALL_P_THRESHOLD,
    )
    return eig2, counts


def recover_factors(
    x2: np.ndarray, w: np.ndarray, order: np.ndarray, r2: int, config: PipelineConfig
) -> StationaryFactorFit:
    """Projected-PCA recovery of the stationary factors at a given count.

    ``w`` is the ``M2`` eigenbasis; the first ``r2`` of its columns in the
    testing ``order`` span the factor directions and the rest the white
    noise.  When the recovery is ill conditioned the factors are read off
    by direct projection instead (``v2_fallback``).
    """
    d = x2.shape[1]
    v = d - r2
    u1 = w[:, order[:r2]]
    v1 = w[:, order[r2:]]
    eig_s = sym_eigen(projected_S(x2, v1))
    if config.K_override is not None:
        k_hat = min(config.K_override, v)
    elif d <= SMALL_P_THRESHOLD or v <= 1:
        # prominent noise is a diverging-eigenvalue phenomenon; the ratio rule
        # only runs in the wide regime, and only on the nonzero spectrum
        k_hat = 0
    else:
        k_hat = estimate_K(eig_s.values, max_k=min(MAX_K, v - 1))
    fallback = False
    try:
        v2 = estimate_V2(eig_s, u1, r2, k_hat)
    except IllConditionedError:
        # rank-deficient regimes (e.g. panels wider than they are long) can
        # make the projected-PCA inversion singular; fall back to the direct
        # projection recovery so the decomposition still completes
        v2 = u1
        fallback = True
        warnings.warn(
            "projected PCA recovery is ill conditioned; using the direct "
            "factor projection instead",
            stacklevel=2,
        )
    return StationaryFactorFit(
        r2_hat=r2,
        v_hat=v,
        K_hat=k_hat,
        U1=u1,
        V1=v1,
        V2=v2,
        z2=recover_z2(v2, u1, x2),
        S_eigenvalues=eig_s.values,
        v2_fallback=fallback,
    )


def decompose(panel, config: PipelineConfig = PipelineConfig()) -> Decomposition:
    """Run the full two-stage decomposition on a panel.

    Stage one counts and extracts the unit-root components; stage two counts
    the white-noise components among the remaining ones, then recovers the
    stationary factors by projected PCA (rotated when prominent noise
    eigenvalues are detected or pinned via ``K_override``).
    """
    pan = as_panel(panel)
    eig1, rho = first_stage(pan, config.k0, config.r1_params)
    r1 = scan_r1(rho, config.c0, config.absolute_acf)
    split = split_spaces(pan, eig1, r1)
    if r1 == pan.p:
        # no stationary block: empty spectra and bases, so every path sets the same keys
        empty = np.zeros((0, 0))
        eig2 = EigenDecomposition(values=np.zeros(0), vectors=empty)
        counts = FactorCounts(pvalues=np.zeros(0), order={}, r2={}, truncated=0)
        order = np.zeros(0, dtype=int)
        fit = StationaryFactorFit(
            r2_hat=0, v_hat=0, K_hat=0, U1=empty, V1=empty, V2=empty,
            z2=np.zeros((pan.n, 0)), S_eigenvalues=np.zeros(0),
        )
    else:
        eig2, counts = second_stage(split.x2, config, (config.reorder,))
        order = counts.order[config.reorder]
        fit = recover_factors(split.x2, eig2.vectors, order, counts.r2[config.reorder], config)
    diagnostics = {
        "M1_eigenvalues": eig1.values,
        "s_statistics": (np.abs(rho) if config.absolute_acf else rho).mean(axis=1),
        "M2_eigenvalues": eig2.values,
        "lb_pvalues": counts.pvalues[order],
        "component_order": order,
        "S_eigenvalues": fit.S_eigenvalues,
        "truncated_components": counts.truncated,
        "v2_fallback": fit.v2_fallback,
    }
    return Decomposition(
        r1_hat=r1,
        r2_hat=fit.r2_hat,
        v_hat=fit.v_hat,
        K_hat=fit.K_hat,
        A1=split.A1,
        A2=split.A2,
        U1=fit.U1,
        V1=fit.V1,
        V2=fit.V2,
        x1=split.x1,
        x2=split.x2,
        z2=fit.z2,
        diagnostics=diagnostics,
    )
