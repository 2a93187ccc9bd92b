"""Exact Gaussian oracle for the band pair moments of the multimode HOM dip.

Every map in the hom2d experiment is linear and separable per image axis,
so the second moments of the two output images follow in closed form from
the per-axis Schmidt factors U, V and the product-mode gains
g_ij = asinh(2 lambda_i lambda_j)/2.  With
C = cosh g, S = sinh g, D1 = (C^2 + S^2)/2, D2 = -i C S and T+/- the
Fourier shift by +/- d pixels along the second image axis,

    <e1 e2^T> = 1/2 [(U x U) D2 (V x V)^T - (V x T+ V) D2 (U x T- U)^T]
    <e1 e2^+> = 1/2 [-i (U x U) D1 (U x T- U)^+ + i (V x T+ V) D1 (V x V)^+]

(x the Kronecker product).  Only the matched band pairs (pixel l with its
mirrored partner m) are evaluated, one entry at a time:

    [(Xa x Xb) D (Ya x Yb)^T]_lm = sum_ij Xa[x_l,i] Xb[y_l,j] D[i,j] Ya[x_m,i] Yb[y_m,j].

The shift matrix is built from an explicit DFT matrix rather than from
``spdcsim.multimode.shift_field``, and the moments from the mode amplitudes
rather than from sampled fields, so this is an independent route to the
quantity the Monte Carlo dip estimator targets.
"""

from __future__ import annotations

import numpy as np


def shift_matrix(n: int, shift_px: float) -> np.ndarray:
    """Unitary T with T v = v displaced by ``shift_px`` pixels (circularly)."""
    k = np.fft.fftfreq(n)
    dft = np.exp(-2j * np.pi * np.outer(k, np.arange(n)))
    ramp = np.exp(-2j * np.pi * k * shift_px)
    return dft.conj().T @ (ramp[:, None] * dft) / n


def product_gains(lam: np.ndarray) -> np.ndarray:
    """Gains g_ij of the product modes from the axis singular values."""
    return 0.5 * np.arcsinh(2.0 * np.outer(lam, lam))


def band_pairs(U: np.ndarray, g2: np.ndarray, band_floor: float):
    """Row and column indices ``(xl, yl, xm, ym)`` of the matched band pairs.

    The band holds the pixels whose mean intensity sum_ij |U_xi U_yj|^2
    S_ij^2 reaches ``band_floor`` times the brightest; each is paired with
    its mirror image through the optical axis.
    """
    n = U.shape[0]
    w = np.abs(U) ** 2
    image = w @ np.sinh(g2) ** 2 @ w.T
    xl, yl = np.nonzero(image >= band_floor * image.max())
    return xl, yl, n - 1 - xl, n - 1 - yl


def _entries(pairs, Xa, Xb, Ya, Yb, D):
    xl, yl, xm, ym = pairs
    return np.einsum("pi,pj,ij->p", Xa[xl] * Ya[xm], Xb[yl] * Yb[ym], D)


def band_pair_moments(U, V, g2, pairs, shift_px: float):
    """Exact ``(<e1 e2*>, <e1 e2>)`` at each band pair for one tilt shift."""
    n = U.shape[0]
    C = np.cosh(g2)
    S = np.sinh(g2)
    D1 = 0.5 * (C ** 2 + S ** 2)
    D2 = -1j * C * S
    Tp = shift_matrix(n, shift_px)
    Tm = shift_matrix(n, -shift_px)
    TpV = Tp @ V
    TmU = Tm @ U
    m2 = 0.5 * (_entries(pairs, U, U, V, V, D2)
                - _entries(pairs, V, TpV, U, TmU, D2))
    m1 = 0.5 * (-1j * _entries(pairs, U, U, U.conj(), TmU.conj(), D1)
                + 1j * _entries(pairs, V, TpV, V.conj(), V.conj(), D1))
    return m1, m2


def coherence(U, V, g2, pairs, shift_px: float) -> float:
    """Exact aggregate sum over band pairs of |<e1 e2*>|^2 + |<e1 e2>|^2."""
    m1, m2 = band_pair_moments(U, V, g2, pairs, shift_px)
    return float(np.sum(np.abs(m1) ** 2 + np.abs(m2) ** 2))


def dip_curve(dec, thetas, pitch: float, band_floor: float) -> np.ndarray:
    """Exact dip ratio at each tilt over the reference shift of half the grid.

    ``dec`` is the Schmidt decomposition of the axis kernel.
    """
    U, V = dec.U, dec.V
    g2 = product_gains(dec.lam)
    pairs = band_pairs(U, g2, band_floor)
    ref = coherence(U, V, g2, pairs, U.shape[0] // 2)
    return np.array([coherence(U, V, g2, pairs, 2.0 * t / pitch) / ref
                     for t in thetas])
