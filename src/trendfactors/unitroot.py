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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ArgumentError
from .tsstats import _lapack, as_panel, autocov_gram, centered_columns, sym_eigen

__all__ = [
    "M1Eigen",
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


@dataclass(frozen=True)
class M1Eigen:
    """``M1``'s eigendecomposition as :func:`first_stage` returns it.

    ``values`` holds all ``p`` eigenvalues, sorted descending.  When
    ``p < n``, ``W`` is the ``p x p`` orthonormal eigenbasis.  When
    ``p >= n``, ``M1`` is diagonalised in the coordinates of an orthonormal
    basis ``Q`` of the centered rows' span: ``W`` is the
    ``(n - 1) x (n - 1)`` eigenbasis in those coordinates, sign-fixed there
    by :func:`~trendfactors.tsstats.sym_eigen`, so the row-space
    eigenvectors are ``Q W``.  The last :func:`null_width` eigenvalues are
    exact zeros, and their eigenvectors are the orthonormal completion
    ``Q_perp`` of ``Q``.  ``Q`` and ``Q_perp`` stay implicit as the
    Householder QR of the first ``n - 1`` centered rows: ``reflectors`` is
    LAPACK's ``p x (n - 1)`` array (``R`` on and above the diagonal, the
    reflectors below it) and ``tau`` their scale factors; both are ``None``
    when ``p < n``, where ``Q`` is the identity.  :meth:`times` is the one
    product with the eigenvectors and forms neither ``Q`` nor ``Q W``;
    :meth:`basis` forms the complete eigenbasis.
    """

    values: np.ndarray
    W: np.ndarray
    reflectors: np.ndarray | None = None
    tau: np.ndarray | None = None

    def times(self, cols: slice, u: np.ndarray | None = None) -> np.ndarray:
        """Row-space eigenvectors ``cols`` times ``u`` (the identity when omitted).

        This is ``Q [W[:, cols] u; 0]``: ``W[:, cols] u`` itself when
        ``p < n``, and one ``dormqr`` on a ``p x k`` array when ``p >= n``.
        """
        block = self.W[:, cols] if u is None else self.W[:, cols] @ u
        if self.reflectors is None:
            return block
        c = np.zeros((self.reflectors.shape[0], block.shape[1]), order="F")
        c[: len(block)] = block
        return _lapack(lapack.dormqr, "L", "N", self.reflectors, self.tau, c, overwrite_c=1)

    def basis(self) -> np.ndarray:
        """The ``p x p`` eigenbasis; when ``p >= n``, ``[Q W, Q_perp]`` formed on every call."""
        if self.reflectors is None:
            return self.W
        p, rank = self.reflectors.shape
        q = np.zeros((p, p), order="F")
        q[:, :rank] = self.reflectors
        q = _lapack(lapack.dorgqr, q, self.tau, overwrite_a=1)
        q[:, :rank] = self.times(slice(None))
        return q


def first_stage(
    panel, k0: int, l: int, m: int
) -> tuple[M1Eigen, np.ndarray, np.ndarray]:
    """Eigendecomposition of ``M1``, the ACF profile and the transformed panel.

    Returns ``(eig, rho, x)`` with ``x = y @ eig.basis()`` the panel in the
    ``M1`` eigenbasis and ``rho[i]`` the autocorrelations of its ``i``-th
    column at the :func:`probe_lags` ``(l, m)``; :func:`scan_r1` turns
    ``rho`` into a count ``r1`` for either aggregation variant, and the
    unit-root and stationary components are the column blocks ``x[:, :r1]``
    and ``x[:, r1:]``.  ``l`` and ``m`` must be at least 1, and the largest
    lag at most ``n - 2``.

    When ``p >= n``, a Householder QR of the first ``n - 1`` centered rows
    gives an orthonormal basis ``Q`` of the row space, and everything stays
    in the coordinates ``yc @ Q``, read off ``R``: ``M1`` is built and
    diagonalised there, its eigenvectors ``W`` are sign-fixed there, and the
    leading columns of ``x`` are ``(yc @ Q) W`` plus the mean term
    ``(Q' ybar) W``, so neither ``Q``, ``Q W`` nor ``y @ Q W`` is formed.
    ``eig`` keeps ``W`` and the reflectors (see :class:`M1Eigen`).  The
    :func:`null_width` trailing eigenvalues and ACF rows are exact zeros,
    and the trailing columns of ``x`` are the exact constants
    ``ybar @ Q_perp``, the trailing entries of the same ``Q' ybar``.
    """
    pan = as_panel(panel)
    lags = _fitting_lags(l, m, pan.n)
    null = null_width(pan.n, pan.p)
    if not null:
        eig = sym_eigen(build_M1(pan.data, k0))
        x = pan.data @ eig.vectors
        return M1Eigen(eig.values, eig.vectors), acf_profile(x, lags), x
    rank = pan.p - null
    ybar = pan.data.mean(axis=0)
    yc = pan.data - ybar
    # the transpose of LAPACK's geqrf output, so ``reflectors`` is Fortran-ordered
    raw, tau = np.linalg.qr(yc[:-1].T, mode="raw")
    del yc
    reflectors = raw.T
    r = np.triu(reflectors[:rank])
    # yc[:-1] = r' q', and the centered rows sum to zero
    coords = np.vstack([r.T, -r.sum(axis=1)])
    del r
    w = sym_eigen(build_M1(coords, k0))
    x_lead = coords @ w.vectors
    del coords
    # autocorrelations ignore the mean
    rho = acf_profile(x_lead, lags)
    # y = yc + 1 ybar', and off the row space every row projects onto its mean
    qybar = _lapack(lapack.dormqr, "L", "T", reflectors, tau, ybar[:, None])[:, 0]
    x = np.empty((pan.n, pan.p))
    np.add(x_lead, qybar[:rank] @ w.vectors, out=x[:, :rank])
    x[:, rank:] = qybar[rank:]
    eig = M1Eigen(np.concatenate([w.values, np.zeros(null)]), w.vectors, reflectors, tau)
    return eig, np.concatenate([rho, np.zeros((null, len(lags)))]), x
