"""First-stage eigenanalysis: separating unit-root trends from stationary parts.

Builds the nonnegative definite matrix ``M1 = sum_{k=0..k0} C(k) C(k)'`` from
sample autocovariances, splits the observation space along its eigenvectors,
and counts the unit-root directions by thresholding averages of (absolute)
sample autocorrelations of the transformed components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .tsstats import (
    EigenDecomposition,
    as_panel,
    centered_columns,
    sample_autocov,
    sym_eigen,
)

__all__ = [
    "R1Params",
    "UnitRootSplit",
    "build_M1",
    "split_spaces",
    "probe_lags",
    "acf_profile",
    "first_stage",
    "scan_r1",
]


@dataclass(frozen=True)
class R1Params:
    """Tuning constants for the unit-root count.

    ``c0`` is the threshold on the average (absolute) autocorrelation, the
    probed lags are ``1, 1+l, 1+2l, ...`` (``m`` of them), and ``absolute``
    selects the absolute-value variant of the average.
    """

    c0: float = 0.3
    l: int = 3
    m: int = 10
    absolute: bool = True

    def __post_init__(self):
        if not 0.0 < self.c0 < 1.0:
            raise ArgumentError(f"c0 must lie in (0, 1), got {self.c0}")
        if self.l < 1:
            raise ArgumentError(f"gap l must be >= 1, got {self.l}")
        if self.m < 1:
            raise ArgumentError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class UnitRootSplit:
    """Result of splitting the panel into unit-root and stationary subspaces.

    ``[A1 A2]`` is a full orthonormal basis, ``x1 = y @ A1`` are the recovered
    unit-root paths and ``x2 = y @ A2`` the stationary ones, so
    ``A1 x1_t' + A2 x2_t' = y_t`` exactly for every ``t``.
    """

    r1_hat: int
    A1: np.ndarray
    A2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    eigenvalues: np.ndarray


def probe_lags(params: R1Params) -> np.ndarray:
    """Lags ``k_j = 1 + (j-1) l`` for ``j = 1..m``."""
    return 1 + params.l * np.arange(params.m)


def _fitting_lags(params: R1Params, n: int) -> np.ndarray:
    lags = probe_lags(params)
    if lags[-1] > n - 2:
        raise ArgumentError(
            f"largest probed lag {lags[-1]} exceeds n-2={n - 2}; shrink l or m"
        )
    return lags


def build_M1(panel, k0: int) -> np.ndarray:
    """Sum of autocovariance Gram products ``sum_{k=0..k0} C(k) C(k)'``.

    Symmetric positive semidefinite by construction; its leading eigenvectors
    estimate the unit-root loading space.
    """
    pan = as_panel(panel)
    if not 0 <= k0 <= pan.n - 2:
        raise ArgumentError(f"k0={k0} outside [0, {pan.n - 2}] for n={pan.n}")
    m1 = np.zeros((pan.p, pan.p))
    for k in range(k0 + 1):
        c = sample_autocov(pan, k).matrix
        m1 += c @ c.T
    return (m1 + m1.T) / 2.0


def split_spaces(panel, m1_eig: EigenDecomposition, r1: int) -> UnitRootSplit:
    """Split the panel along the eigenvectors of ``M1`` at a given count ``r1``."""
    pan = as_panel(panel)
    if not 0 <= r1 <= pan.p:
        raise ArgumentError(f"r1={r1} outside [0, {pan.p}]")
    if m1_eig.vectors.shape != (pan.p, pan.p):
        raise ArgumentError("eigenvector matrix does not match panel dimension")
    a1 = m1_eig.vectors[:, :r1]
    a2 = m1_eig.vectors[:, r1:]
    return UnitRootSplit(
        r1_hat=r1,
        A1=a1,
        A2=a2,
        x1=pan.data @ a1,
        x2=pan.data @ a2,
        eigenvalues=np.asarray(m1_eig.values, dtype=float),
    )


def acf_profile(components: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Sample autocorrelations of every column at every probed lag.

    Returns an array of shape ``(d, len(lags))``.  Columns with zero variance
    get a row of zeros, which downstream thresholding reads as stationary.
    """
    x = np.asarray(components, dtype=float)
    n, d = x.shape
    xc, gamma0, degenerate = centered_columns(x)
    ok = ~degenerate
    out = np.zeros((d, len(lags)))
    for j, k in enumerate(lags):
        k = int(k)
        gk = np.einsum("ti,ti->i", xc[k:], xc[: n - k]) / n
        out[ok, j] = gk[ok] / gamma0[ok]
    return out


def scan_r1(rho: np.ndarray, c0: float, absolute: bool) -> int:
    """Count leading components whose average (absolute) ACF stays >= ``c0``."""
    agg = np.abs(rho) if absolute else rho
    s_values = agg.mean(axis=1)
    for i, s in enumerate(s_values):
        if s < c0:
            return i
    return len(s_values)


def first_stage(panel, k0: int, params: R1Params) -> tuple[EigenDecomposition, np.ndarray]:
    """Eigendecomposition of ``M1`` and the ACF profile of the transformed panel.

    Returns ``(eig, rho)`` where ``rho[i]`` holds the autocorrelations of the
    ``i``-th transformed component at the probed lags; :func:`scan_r1` turns
    it into a count for either aggregation variant.
    """
    pan = as_panel(panel)
    lags = _fitting_lags(params, pan.n)
    eig = sym_eigen(build_M1(pan, k0))
    return eig, acf_profile(pan.data @ eig.vectors, lags)
