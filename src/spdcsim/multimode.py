"""Spatially multimode SPDC: joint kernel, Schmidt modes, pixel fields, HOM dip.

The joint field-moment kernel K[l, m] ~ <Es_l Ei_m> is built per transverse
axis on ``n_pixels`` momentum pixels:

    K(q_s, q_i) = pump(q_s + q_i) * lambda(qbar),   qbar = (q_s - q_i)/2,

with a Gaussian pump angular spectrum of width 1/pump_waist and a
phase-matched parametric gain profile.  The default profile is the
plane-wave mismatch solution

    S_eff(qbar) = g0 * sinhc(sqrt(g0^2 - M(qbar)^2)),  M = (qbar/qc)^2,

whose amplified band grows with gain (sinhc turns into an oscillatory
sinc-like decay outside it), together with a gain-guided broadening of the
phase-matching bandwidth, qc_eff = qc (1 + g0/g_ref)^alpha: at high gain
amplification confines the near field towards the pump-waist centre, so
the emitted far field broadens.  ``lambda = S_eff sqrt(1 + S_eff^2)``
equals C*S of an equivalent per-mode squeezer.  A purely Gaussian envelope
(exp(-M/2) in place of the sinhc profile) is kept as an option.

Two-dimensional far-field images (n_pixels x n_pixels per detection plane)
use the separable product of the two axis kernels, so the Schmidt modes of
the image planes are products of axis modes with lambda_ij = lambda_i
lambda_j and per-mode gains g_ij = asinh(2 lambda_ij)/2.  This keeps the
decomposition at axis size while the image statistics aggregate every
pixel pair.

The HOM dip ordinate aggregates the cross-port field coherence
|<E1 E2*>|^2 + |<E1 E2>|^2 over the bright matched pixel pairs (signal
pixel q with idler pixel -q) of the two output images.  For Gaussian
fields this equals the aggregated intensity covariance by the moment
theorem, but the pair-moment estimates (bias-corrected for their own
sampling variance) resolve the dip far below the vacuum noise floor of
raw intensity products, which matters at low photon number.  For that
the per-repetition pair products carry a control variate: the
unamplified input vacua are sent through the same modes, tilt shifts and
splitter, and their pair products, whose mean is exactly zero, are
subtracted.  At low gain the amplified fields are mostly that vacuum, so
the difference keeps the expectation and sheds most of the variance.
Only the image rows that hold band pixels (and their mirrored partners)
are synthesised.  The aggregate is normalised by the same statistic at a
reference tilt far outside the phase-matching band, so the curve tends
to 1 for distinguishable beams at every gain and to 0 at zero tilt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .sampling import RngStream, sample_vacuum

__all__ = [
    "DipCurve",
    "Hom2dConfig",
    "JointAmplitudeKernel",
    "SchmidtDecomposition",
    "build_kernel",
    "calibrate_gain",
    "image_mean_intensities",
    "pixel_mean_intensities",
    "run_hom2d",
    "sample_image_planes",
    "sample_multimode",
    "schmidt_decompose",
    "shift_field",
]

#: Crystal length (mm) at which ``pm_bandwidth`` is quoted.
REFERENCE_LENGTH_MM = 0.8

#: Upper end of the ``gain_scale`` bracket :func:`calibrate_gain` searches.
GAIN_SCALE_MAX = 9.0


@dataclass(frozen=True)
class Hom2dConfig:
    """Geometry, gain and sweep settings of the multimode HOM experiment.

    ``n_pixels`` counts momentum pixels per transverse axis; detection
    planes are ``n_pixels x n_pixels`` images.  The field defaults are
    the defaults of ``spdcsim hom2d``.
    """

    n_pixels: int = 64
    pitch: float = 0.25
    crystal_length_mm: float = 0.8
    pump_waist: float = 4.0
    pm_bandwidth: float = 0.7
    pm_broadening_exponent: float = 1.1
    pm_broadening_gain: float = 0.7
    phase_matching: str = "sinc"
    gain_scale: float = 0.8814
    theta_sweep: tuple = tuple(np.linspace(-3.6, 3.6, 33))
    reps: int = 100
    seed: int = 42
    band_floor: float = 0.05

    def __post_init__(self):
        if self.n_pixels < 1:
            raise ValueError("n_pixels must be >= 1")
        if self.reps < 3:
            # each delete-one aggregate divides by its own reps - 1 = reps - 2
            raise ValueError("reps must be >= 3 for the dip's delete-one jackknife")
        if len(self.theta_sweep) == 0:
            raise ValueError("theta_sweep must not be empty")
        if not all(math.isfinite(t) for t in self.theta_sweep):
            raise ValueError("theta_sweep values must be finite")
        scales = (self.pitch, self.crystal_length_mm, self.pump_waist,
                  self.pm_bandwidth, self.pm_broadening_gain)
        if not all(0 < x < math.inf for x in scales):
            raise ValueError("pitch, crystal length, pump waist, bandwidth and "
                             "broadening gain must be positive and finite")
        if not math.isfinite(self.pm_broadening_exponent):
            raise ValueError("pm_broadening_exponent must be finite")
        if not 0 <= self.gain_scale < math.inf:
            raise ValueError("gain_scale must be finite and >= 0")
        if self.phase_matching not in ("sinc", "gaussian"):
            raise ValueError("phase_matching must be 'sinc' or 'gaussian'")

    @property
    def q_axis(self) -> np.ndarray:
        n = self.n_pixels
        return (np.arange(n) - (n - 1) / 2.0) * self.pitch


@dataclass(frozen=True)
class JointAmplitudeKernel:
    """Joint signal-idler field-moment matrix over one momentum axis."""

    matrix: np.ndarray
    pitch: float

    def __post_init__(self):
        if self.matrix.ndim != 2:
            raise ValueError("kernel must be a 2-D matrix")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("kernel entries must be finite")


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x continued through imaginary arguments (sin(y)/y)."""
    out = np.ones_like(x, dtype=complex)
    nz = x != 0
    out[nz] = np.sinh(x[nz]) / x[nz]
    return out.real


def build_kernel(config: Hom2dConfig) -> JointAmplitudeKernel:
    """Deterministic axis kernel for the configured geometry and gain."""
    q = config.q_axis
    qs = q[:, None]
    qi = q[None, :]
    qbar = 0.5 * (qs - qi)
    g0 = config.gain_scale
    # bandwidth narrows with crystal length, broadens with gain (gain guiding)
    qc = config.pm_bandwidth * math.sqrt(REFERENCE_LENGTH_MM / config.crystal_length_mm)
    qc_eff = qc * (1.0 + g0 / config.pm_broadening_gain) ** config.pm_broadening_exponent
    if config.phase_matching == "sinc":
        mismatch = (qbar / qc_eff) ** 2
        s_eff = g0 * _sinhc(np.sqrt((g0 ** 2 - mismatch ** 2).astype(complex)))
    else:
        s_eff = np.sinh(g0 * np.exp(-(qbar ** 2) / (2.0 * qc_eff ** 2)))
    lam = np.abs(s_eff) * np.sqrt(1.0 + s_eff ** 2)
    sigma_pump = 1.0 / config.pump_waist
    pump = np.exp(-((qs + qi) ** 2) / (2.0 * sigma_pump ** 2))
    return JointAmplitudeKernel(matrix=pump * lam, pitch=config.pitch)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Column-orthonormal mode matrices with singular values and mode gains."""

    U: np.ndarray
    V: np.ndarray
    lam: np.ndarray
    g: np.ndarray
    residual: float

    @property
    def n_modes(self) -> int:
        return self.lam.shape[0]


def schmidt_decompose(kernel: JointAmplitudeKernel,
                      floor: float = 1e-8) -> SchmidtDecomposition:
    """SVD of the kernel with per-mode gains g_k = asinh(2 lambda_k)/2.

    Modes whose singular value falls below ``floor`` times the largest are
    truncated.  The kept factors satisfy K ~ U diag(lambda) V^T.
    """
    try:
        U, lam, Vh = np.linalg.svd(kernel.matrix)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"SVD of {kernel.matrix.shape} kernel failed: {exc}") from exc
    lam_max = lam[0] if lam.size else 0.0
    keep = lam > floor * lam_max if lam_max > 0 else np.zeros_like(lam, dtype=bool)
    U = U[:, keep]
    lam = lam[keep]
    V = Vh[keep].T
    g = 0.5 * np.arcsinh(2.0 * lam)
    norm = np.linalg.norm(kernel.matrix)
    resid = np.linalg.norm((U * lam) @ V.T - kernel.matrix) / norm if norm > 0 else 0.0
    return SchmidtDecomposition(U=U, V=V, lam=lam, g=g, residual=float(resid))


def pixel_mean_intensities(dec: SchmidtDecomposition) -> np.ndarray:
    """Normal-ordered mean intensity per signal pixel, sum_k |U_lk|^2 sinh^2 g_k."""
    return (np.abs(dec.U) ** 2) @ np.sinh(dec.g) ** 2


def image_mean_intensities(dec: SchmidtDecomposition) -> np.ndarray:
    """Mean intensity image of the separable two-axis synthesis."""
    s2 = np.sinh(_product_gains(dec)) ** 2
    w = np.abs(dec.U) ** 2
    return w @ s2 @ w.T


def _product_gains(dec: SchmidtDecomposition) -> np.ndarray:
    """Per-mode gains of the product modes of two identical axes."""
    lam2 = np.outer(dec.lam, dec.lam)
    return 0.5 * np.arcsinh(2.0 * lam2)


def _brent_root(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the sign-changing bracket [a, b] by Brent's method.

    A line-for-line port of the iteration in scipy's ``brentq.c`` (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4): the
    same IEEE double operations in the same order, so it returns the same
    root bit for bit.  Raises ValueError if f(a) and f(b) have the same
    sign and RuntimeError after scipy's default of 100 steps.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = float(f(xpre))
    fcur = float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"f({xpre:g}) = {fpre:g} and f({xcur:g}) = {fcur:g} "
                         "have the same sign")
    for _ in range(100):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError("Brent root did not converge in 100 steps")


def calibrate_gain(config: Hom2dConfig, photons_per_pixel: float) -> Hom2dConfig:
    """Tune ``gain_scale`` so the brightest image pixel carries the target
    mean photon number.

    Solves max(image mean intensity)(g0) = ``photons_per_pixel`` for g0 in
    [1e-9, :data:`GAIN_SCALE_MAX`] with Brent's method (:func:`_brent_root`,
    absolute and relative tolerance 1e-12).  A target outside the photon
    range that this bracket reaches is a ValueError naming that range.
    """
    if not (photons_per_pixel > 0 and math.isfinite(photons_per_pixel)):
        raise ValueError(
            f"photons_per_pixel must be positive and finite, got {photons_per_pixel}")

    def brightest(g0):
        dec = schmidt_decompose(build_kernel(replace(config, gain_scale=g0)),
                                floor=0.0)
        return image_mean_intensities(dec).max()

    lo, hi = brightest(1e-9), brightest(GAIN_SCALE_MAX)
    if not lo <= photons_per_pixel <= hi:
        raise ValueError(
            f"photons_per_pixel {photons_per_pixel:g} is outside the reachable "
            f"range [{lo:.3g}, {hi:.3g}] (gain_scale 1e-9 to {GAIN_SCALE_MAX:g})")
    g0 = _brent_root(lambda g: brightest(g) - photons_per_pixel,
                     1e-9, GAIN_SCALE_MAX, xtol=1e-12, rtol=1e-12)
    return replace(config, gain_scale=float(g0))


def sample_multimode(dec: SchmidtDecomposition, rng: RngStream, reps: int):
    """Synthesise single-axis pixel-plane field ensembles from Schmidt modes.

    Per repetition: draw a vacuum pair per Schmidt mode, amplify it with
    the per-mode gain, map to pixels through U and V, and add the
    orthogonal-complement vacuum so every pixel carries the full vacuum.
    Returns ``(signal, idler)`` arrays of shape (reps, n_pixels).
    """
    K = dec.n_modes
    ns = dec.U.shape[0]
    ni = dec.V.shape[0]
    ens = sample_vacuum(rng, reps, 2 * K + ns + ni)
    es0 = ens.data[:, :K]
    ei0 = ens.data[:, K:2 * K]
    vs = ens.data[:, 2 * K:2 * K + ns]
    vi = ens.data[:, 2 * K + ns:]
    C = np.cosh(dec.g)
    S = np.sinh(dec.g)
    amp_s = C * es0 - 1j * S * np.conj(ei0)
    amp_i = C * ei0 - 1j * S * np.conj(es0)
    signal = amp_s @ dec.U.T + vs - (vs @ np.conj(dec.U)) @ dec.U.T
    idler = amp_i @ dec.V.T + vi - (vi @ np.conj(dec.V)) @ dec.V.T
    return signal, idler


def sample_image_planes(dec: SchmidtDecomposition, rng: RngStream, reps: int,
                        rows=None, vacuum: bool = False):
    """Synthesise two-axis far-field images from the product Schmidt modes.

    The decomposition must keep the full axis basis (build it with
    ``floor=0.0``) so the product modes span the whole image plane; modes
    with vanishing singular value then simply pass vacuum through.
    Returns ``(signal, idler)`` arrays of shape (reps, n, n).

    ``rows`` (indices into the first image axis) restricts the synthesis
    to those image rows, giving shape (reps, len(rows), n).  With
    ``vacuum`` each array gains a leading axis of length 2: index 0 holds
    the amplified fields, index 1 the unamplified input vacua of the same
    draw sent through the same modes.
    """
    n = dec.U.shape[0]
    if dec.n_modes != n or dec.V.shape[0] != n:
        raise ValueError("image synthesis needs the untruncated axis basis")
    g2 = _product_gains(dec)
    C = np.cosh(g2)
    S = np.sinh(g2)
    ens = sample_vacuum(rng, reps, 2 * n * n)
    es0 = ens.data[:, :n * n].reshape(reps, n, n)
    ei0 = ens.data[:, n * n:].reshape(reps, n, n)
    amp_s = C * es0 - 1j * S * np.conj(ei0)
    amp_i = C * ei0 - 1j * S * np.conj(es0)
    inputs = ((amp_s, amp_i), (es0, ei0)) if vacuum else ((amp_s, amp_i),)
    rows = slice(None) if rows is None else rows
    Ur = dec.U[rows]
    Vr = dec.V[rows]
    shape = (len(inputs), reps, Ur.shape[0], n)
    signal = np.empty(shape, dtype=complex)
    idler = np.empty(shape, dtype=complex)
    for k, (a_s, a_i) in enumerate(inputs):
        np.einsum("xi,rij,yj->rxy", Ur, a_s, dec.U, out=signal[k],
                  optimize=True)
        np.einsum("xi,rij,yj->rxy", Vr, a_i, dec.V, out=idler[k],
                  optimize=True)
    return (signal, idler) if vacuum else (signal[0], idler[0])


def shift_field(fields: np.ndarray, shift_px: float,
                spectrum: np.ndarray | None = None) -> np.ndarray:
    """Displace a pixel-plane field by ``shift_px`` pixels along its last
    axis.

    Integer shifts reduce to a circular roll; fractional shifts use the
    unitary Fourier phase ramp, which preserves the vacuum level exactly
    (linear interpolation of amplitudes would not).  A caller shifting one
    field by many amounts may pass its ``spectrum``,
    ``np.fft.fft(fields, axis=-1)``, so the forward transform is done once.
    """
    if shift_px == int(shift_px):
        return np.roll(fields, int(shift_px), axis=-1)
    if spectrum is None:
        spectrum = np.fft.fft(fields, axis=-1)
    ramp = np.exp(-2j * np.pi * np.fft.fftfreq(fields.shape[-1]) * shift_px)
    return np.fft.ifft(spectrum * ramp, axis=-1)


@dataclass(frozen=True)
class DipCurve:
    """Normalised HOM dip amplitude against beam-splitter tilt."""

    theta: np.ndarray
    amplitude: np.ndarray
    std_error: np.ndarray
    sigma_theta: float | None
    photons_per_pixel: float
    n_modes: int
    seed: int


def _coherence_aggregate(n_eff, m1r, m1i, s1, m2r, m2i, s2):
    """Unbiased aggregate of |<E1 E2*>|^2 + |<E1 E2>|^2 over pairs.

    ``(n |m|^2 - mean|z|^2) / (n - 1)`` removes the O(1/n) sampling
    variance of each squared pair-moment estimate.
    """
    c1 = (n_eff * (m1r ** 2 + m1i ** 2) - s1) / (n_eff - 1)
    c2 = (n_eff * (m2r ** 2 + m2i ** 2) - s2) / (n_eff - 1)
    return (c1 + c2).sum(axis=-1)


def _aggregate_with_loo(stats):
    """Pair-coherence aggregate of ``stats`` (reps x pairs samples) and its
    delete-one-rep values, one per repetition."""
    reps = stats[0].shape[0]
    value = _coherence_aggregate(reps, *[s.mean(axis=0) for s in stats])
    loo = [(s.sum(axis=0)[None, :] - s) / (reps - 1) for s in stats]
    return value, _coherence_aggregate(reps - 1, *loo)


def _ratio_with_jackknife(num, den):
    """Dip ratio at one tilt over the reference tilt, with a delete-one-rep
    jackknife standard error; ``num`` and ``den`` come from
    :func:`_aggregate_with_loo`."""
    value = float(num[0] / den[0])
    theta_i = num[1] / den[1]
    reps = theta_i.shape[0]
    se = math.sqrt((reps - 1) * np.mean((theta_i - theta_i.mean()) ** 2))
    return value, se


def _port_sweep(signal, idler, band_l, band_m):
    """Output-port fields as a function of the tilt shift: ``ports(shift_px)``
    gives e1 at the band pixels ``band_l`` and e2 at their partners
    ``band_m`` (flat indices over the last two axes).

    The tilt displaces the two reflected beams by +/- ``shift_px`` along
    the horizontal image axis (opposite senses, as unitarity of a tilted
    splitter requires).  The tilt-invariant work is done once: the forward
    transforms of both planes and the transmitted fields at the pixels
    used.
    """
    flat = signal.shape[:-2] + (-1,)
    signal_l = signal.reshape(flat)[..., band_l]
    idler_m = idler.reshape(flat)[..., band_m]
    spectrum_s = np.fft.fft(signal, axis=-1)
    spectrum_i = np.fft.fft(idler, axis=-1)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def ports(shift_px):
        ei_refl = shift_field(idler, shift_px, spectrum=spectrum_i)
        es_refl = shift_field(signal, -shift_px, spectrum=spectrum_s)
        e1 = (signal_l + 1j * ei_refl.reshape(flat)[..., band_l]) * inv_sqrt2
        e2 = (1j * es_refl.reshape(flat)[..., band_m] + idler_m) * inv_sqrt2
        return e1, e2

    return ports


def _band_pair_stats(e1, e2):
    """Cross-port pair-moment samples (reps x pairs) at one tilt: both
    field products and their squared magnitudes (for the sampling-variance
    correction), each less its vacuum control variate.

    ``e1`` and ``e2`` stack the port fields of the amplified beams (index
    0) on those of the input vacua (index 1).  The vacuum products e1v e2v*
    and e1v e2v have mean exactly zero at every pixel pair and shift: the
    two vacua are independent and circular, and the shift is unitary
    (T- = T+^H), so the two cross terms of e1v e2v* cancel.
    """
    z1 = e1[0] * np.conj(e2[0]) - e1[1] * np.conj(e2[1])
    z2 = e1[0] * e2[0] - e1[1] * e2[1]
    return (z1.real, z1.imag, np.abs(z1) ** 2,
            z2.real, z2.imag, np.abs(z2) ** 2)


def _band_pairs(image: np.ndarray, band_floor: float):
    """Image rows to synthesise and the matched band pairs within them.

    The band holds the pixels at or above ``band_floor`` times the
    brightest mean intensity; each pixel (x, y) pairs with its mirrored
    partner (n-1-x, n-1-y).  Returns ``(rows, band_l, band_m)``: the sorted
    rows holding band pixels or their partners, and the flat indices of
    the pair members over the (len(rows), n) restricted image.
    """
    n = image.shape[0]
    band = image >= band_floor * image.max()
    lx, ly = np.nonzero(band)
    keep = band.any(axis=1)
    keep |= keep[::-1]
    position = np.cumsum(keep) - 1  # of each kept row in the restricted image
    band_l = position[lx] * n + ly
    band_m = position[n - 1 - lx] * n + (n - 1 - ly)
    return np.flatnonzero(keep), band_l, band_m


def run_hom2d(config: Hom2dConfig) -> DipCurve:
    """Run the multimode HOM sweep and fit the dip width.

    For each tilt theta the reflected beams are displaced by 2*theta in
    transverse momentum along the horizontal axis and mixed on the
    balanced splitter; the bright matched pixel pairs of the two output
    images are correlated in aggregate and normalised by the same
    statistic at a reference tilt of half the grid.  Only the image rows
    holding band pixels are synthesised, together with the unamplified
    input vacua whose pair products serve as a zero-mean control variate
    (see :func:`_band_pair_stats`).  The work that does not depend on the
    tilt (forward transforms, transmitted band fields, the reference-tilt
    aggregate and its delete-one values) is done once for the sweep.
    """
    if config.n_pixels < 8:
        raise ValueError("the HOM sweep needs n_pixels >= 8")
    if not config.gain_scale > 0:
        raise ValueError("the HOM sweep needs gain_scale > 0")
    kernel = build_kernel(config)
    dec = schmidt_decompose(kernel, floor=0.0)
    image = image_mean_intensities(dec)
    rows, band_l, band_m = _band_pairs(image, config.band_floor)
    signal, idler = sample_image_planes(dec, RngStream(config.seed, 0),
                                        config.reps, rows=rows, vacuum=True)

    ports = _port_sweep(signal, idler, band_l, band_m)
    ref = _aggregate_with_loo(_band_pair_stats(*ports(config.n_pixels // 2)))
    thetas = np.asarray(config.theta_sweep, dtype=float)
    amps = np.empty_like(thetas)
    errs = np.empty_like(thetas)
    for j, theta in enumerate(thetas):
        stats = _band_pair_stats(*ports(2.0 * theta / config.pitch))
        amps[j], errs[j] = _ratio_with_jackknife(_aggregate_with_loo(stats), ref)

    sigma = _fit_dip_width(thetas, amps, errs)
    return DipCurve(theta=thetas, amplitude=amps, std_error=errs,
                    sigma_theta=sigma, photons_per_pixel=float(image.max()),
                    n_modes=dec.n_modes ** 2, seed=config.seed)


def _fit_dip_width(thetas: np.ndarray, amps: np.ndarray,
                   errs: np.ndarray | None = None) -> float | None:
    """Width of the Gaussian-dip fit 1 - a exp(-theta^2 / 2 sigma^2); None
    if it fails.

    Minimises the weighted squared error sum w (1 - amp - a phi)^2, with
    phi = exp(-theta^2 / 2 sigma^2) and w = 1/err^2 (w = 1 if any error is
    not finite and positive), by variable projection (Golub & Pereyra
    1973): at fixed sigma the best amplitude is a = sum w r phi / sum w
    phi^2 with r = 1 - amp, which leaves a 1-D problem in log sigma.  A
    grid over log sigma, from a tenth of the smallest nonzero |theta| to
    ten times the largest, picks the global minimum; Brent's method then
    finds the zero of the error's derivative between its grid neighbours.
    A minimum on the grid's edge is no fit, and so are fewer than three
    tilts.
    """
    t2 = np.asarray(thetas, dtype=float) ** 2
    r = 1.0 - np.asarray(amps, dtype=float)
    w = np.ones_like(r)
    if errs is not None and np.all(np.isfinite(errs)) and np.all(errs > 0):
        w = 1.0 / np.asarray(errs, dtype=float) ** 2
    if not (t2.size > 2 and np.any(t2 > 0) and np.all(np.isfinite(t2))
            and np.all(np.isfinite(r))):
        return None  # two parameters need three tilts, one of them nonzero

    def projection(log_sigma):
        """phi and the sums sum w r phi, sum w phi^2 at each log sigma."""
        phi = np.exp(-0.5 * t2 * np.exp(-2.0 * log_sigma))
        return phi, (w * r * phi).sum(axis=-1), (w * phi * phi).sum(axis=-1)

    def slope(log_sigma):
        """d/d(log sigma) of the weighted error at the best amplitude."""
        phi, n, d = projection(log_sigma)
        dphi = phi * t2 * math.exp(-2.0 * log_sigma)
        dn = (w * r * dphi).sum()
        dd = 2.0 * (w * phi * dphi).sum()
        return -n * (2.0 * dn * d - n * dd) / d ** 2

    grid = np.linspace(0.5 * math.log(t2[t2 > 0].min()) - math.log(10.0),
                       0.5 * math.log(t2.max()) + math.log(10.0), 256)
    phi, n, d = projection(grid[:, None])
    sse = (w * (r - (n / d)[:, None] * phi) ** 2).sum(axis=1)
    k = int(np.argmin(sse))
    if k == 0 or k == grid.size - 1:
        return None
    try:
        log_sigma = _brent_root(slope, grid[k - 1], grid[k + 1],
                                xtol=1e-12, rtol=1e-12)
    except (ValueError, RuntimeError):
        return None
    return math.exp(log_sigma)
