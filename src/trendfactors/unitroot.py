"""First-stage eigenanalysis: separating unit-root trends from stationary parts.

Builds the nonnegative definite matrix ``M1 = sum_{k=0..k0} C(k) C(k)'`` from
sample autocovariances, splits the observation space along its eigenvectors,
and counts the unit-root directions by thresholding averages of (absolute)
sample autocorrelations of the transformed components.

A panel with ``p >= n`` is analysed in the coordinates of its centered
rows' span (see :func:`first_stage`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .tsstats import (
    EigenDecomposition,
    as_panel,
    centered_columns,
    fix_signs,
    sample_autocov,
    sym_eigen,
)

__all__ = [
    "UnitRootSplit",
    "null_width",
    "build_M1",
    "split_spaces",
    "probe_lags",
    "acf_profile",
    "first_stage",
    "scan_r1",
]


@dataclass(frozen=True)
class UnitRootSplit:
    """Result of splitting the panel into unit-root and stationary subspaces.

    ``[A1 A2]`` is a full orthonormal basis, ``x1 = y @ A1`` are the recovered
    unit-root paths and ``x2 = y @ A2`` the stationary ones, so
    ``A1 x1_t' + A2 x2_t' = y_t`` for every ``t``.  When ``p >= n`` the last
    :func:`null_width` columns of ``A2`` are orthogonal to the centered
    panel, and on them ``x2`` is set to the exact constant ``ybar @ A2``.
    """

    A1: np.ndarray
    A2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray


def probe_lags(l: int, m: int) -> np.ndarray:
    """The ``m`` probed lags ``k_j = 1 + (j-1) l`` for ``j = 1..m``, gap ``l``."""
    return 1 + l * np.arange(m)


def _fitting_lags(l: int, m: int, n: int) -> np.ndarray:
    if l < 1 or m < 1:
        raise ArgumentError(f"l and m must be >= 1, got l={l}, m={m}")
    lags = probe_lags(l, m)
    if lags[-1] > n - 2:
        raise ArgumentError(
            f"largest probed lag {lags[-1]} exceeds n-2={n - 2}; shrink l or m"
        )
    return lags


def null_width(n: int, p: int) -> int:
    """Dimensions orthogonal to every centered row of an ``n x p`` panel.

    The ``n`` centered rows sum to zero, so they span at most ``n - 1``
    dimensions and at least ``p - n + 1`` are left over when ``p >= n``.
    """
    return max(p - n + 1, 0)


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
        c = sample_autocov(pan, k)
        m1 += c @ c.T
    return (m1 + m1.T) / 2.0


def split_spaces(panel, m1_eig: EigenDecomposition, r1: int) -> UnitRootSplit:
    """Split the panel along the eigenvectors of ``M1`` at a given count ``r1``.

    When ``p >= n`` the last :func:`null_width` eigenvectors must be
    orthogonal to the centered panel, as those of :func:`first_stage` are.
    """
    pan = as_panel(panel)
    if not 0 <= r1 <= pan.p:
        raise ArgumentError(f"r1={r1} outside [0, {pan.p}]")
    if m1_eig.vectors.shape != (pan.p, pan.p):
        raise ArgumentError("eigenvector matrix does not match panel dimension")
    a1 = m1_eig.vectors[:, :r1]
    a2 = m1_eig.vectors[:, r1:]
    lead = max(pan.p - r1 - null_width(pan.n, pan.p), 0)
    x2 = pan.data @ a2[:, :lead]
    if lead < a2.shape[1]:
        # off the row space every row of the panel projects onto its mean
        constant = pan.data.mean(axis=0) @ a2[:, lead:]
        x2 = np.hstack([x2, np.broadcast_to(constant, (pan.n, constant.size))])
    return UnitRootSplit(A1=a1, A2=a2, x1=pan.data @ a1, x2=x2)


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


def first_stage(panel, k0: int, l: int, m: int) -> tuple[EigenDecomposition, np.ndarray]:
    """Eigendecomposition of ``M1`` and the ACF profile of the transformed panel.

    Returns ``(eig, rho)`` where ``rho[i]`` holds the autocorrelations of the
    ``i``-th transformed component at the :func:`probe_lags` ``(l, m)``;
    :func:`scan_r1` turns it into a count for either aggregation variant.
    ``l`` and ``m`` must be at least 1, and the largest lag at most ``n - 2``.

    When ``p >= n``, a Householder QR of the first ``n - 1`` centered rows
    gives an orthonormal basis ``Q`` of the row space and its completion
    ``Q_perp``.  ``M1`` is built and diagonalised in the coordinates
    ``yc @ Q``, and ``eig`` holds ``[Q W, Q_perp]`` with ``W`` the small
    eigenbasis; the :func:`null_width` trailing eigenvalues and ACF rows
    are exact zeros.  A narrower panel is the same computation with
    ``Q = I`` and an empty ``Q_perp``.
    """
    pan = as_panel(panel)
    lags = _fitting_lags(l, m, pan.n)
    null = null_width(pan.n, pan.p)
    rank = pan.p - null
    if null:
        yc = pan.data - pan.data.mean(axis=0)
        q, r = np.linalg.qr(yc[:-1].T, mode="complete")
        # yc[:-1] = r' q', and the centered rows sum to zero
        coords = np.vstack([r[:rank].T, -r[:rank].sum(axis=1)])
    else:
        coords = pan.data
    eig = sym_eigen(build_M1(coords, k0))
    # autocorrelations ignore the mean and the sign fix
    rho = acf_profile(coords @ eig.vectors, lags)
    if null:
        q[:, :rank] = fix_signs(q[:, :rank] @ eig.vectors)
        eig = EigenDecomposition(values=np.concatenate([eig.values, np.zeros(null)]), vectors=q)
        rho = np.concatenate([rho, np.zeros((null, rho.shape[1]))])
    return eig, rho
