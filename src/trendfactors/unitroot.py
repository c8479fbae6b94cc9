"""First-stage eigenanalysis: separating unit-root trends from stationary parts.

Builds the nonnegative definite matrix ``M1 = sum_{k=0..k0} C(k) C(k)'`` from
sample autocovariances, transforms the panel into its eigenbasis, and counts
the unit-root directions by thresholding averages of (absolute) sample
autocorrelations of the transformed components.  The unit-root and
stationary components are then the leading and trailing columns of the
transformed panel.

A panel with ``p >= n`` is analysed in the coordinates of its centered
rows' span (see :func:`first_stage`).
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .tsstats import (
    EigenDecomposition,
    as_panel,
    autocov_gram,
    centered_columns,
    fix_signs,
    sym_eigen,
)

__all__ = [
    "null_width",
    "build_M1",
    "probe_lags",
    "acf_profile",
    "first_stage",
    "scan_r1",
]


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
    return autocov_gram(pan, range(k0 + 1))


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


def first_stage(
    panel, k0: int, l: int, m: int
) -> tuple[EigenDecomposition, np.ndarray, np.ndarray]:
    """Eigendecomposition of ``M1``, the ACF profile and the transformed panel.

    Returns ``(eig, rho, x)`` with ``x = y @ eig.vectors`` the panel in the
    ``M1`` eigenbasis and ``rho[i]`` the autocorrelations of its ``i``-th
    column at the :func:`probe_lags` ``(l, m)``; :func:`scan_r1` turns
    ``rho`` into a count ``r1`` for either aggregation variant, and the
    unit-root and stationary components are the column blocks ``x[:, :r1]``
    and ``x[:, r1:]``.  ``l`` and ``m`` must be at least 1, and the largest
    lag at most ``n - 2``.

    When ``p >= n``, a Householder QR of the first ``n - 1`` centered rows
    gives an orthonormal basis ``Q`` of the row space and its completion
    ``Q_perp``.  ``M1`` is built and diagonalised in the coordinates
    ``yc @ Q``, and ``eig`` holds ``[Q W, Q_perp]`` with ``W`` the small
    eigenbasis; the :func:`null_width` trailing eigenvalues and ACF rows
    are exact zeros, and the trailing columns of ``x`` are the exact
    constants ``ybar @ Q_perp``.
    """
    pan = as_panel(panel)
    lags = _fitting_lags(l, m, pan.n)
    null = null_width(pan.n, pan.p)
    if not null:
        eig = sym_eigen(build_M1(pan.data, k0))
        x = pan.data @ eig.vectors
        return eig, acf_profile(x, lags), x
    rank = pan.p - null
    yc = pan.data - pan.data.mean(axis=0)
    q, r = np.linalg.qr(yc[:-1].T, mode="complete")
    # yc[:-1] = r' q', and the centered rows sum to zero
    coords = np.vstack([r[:rank].T, -r[:rank].sum(axis=1)])
    # the QR temporaries are released before the n x p transformed panel is
    # allocated, which keeps the wide-panel memory peak down
    del yc, r
    w = sym_eigen(build_M1(coords, k0))
    # autocorrelations ignore the mean and the sign fix
    rho = acf_profile(coords @ w.vectors, lags)
    del coords
    q[:, :rank] = fix_signs(q[:, :rank] @ w.vectors)
    x = np.empty((pan.n, pan.p))
    x[:, :rank] = pan.data @ q[:, :rank]
    # off the row space every row of the panel projects onto its mean
    x[:, rank:] = pan.data.mean(axis=0) @ q[:, rank:]
    eig = EigenDecomposition(values=np.concatenate([w.values, np.zeros(null)]), vectors=q)
    return eig, np.concatenate([rho, np.zeros((null, len(lags)))]), x
