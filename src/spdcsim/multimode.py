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
(exp(-M/2) in place of the sinhc profile) is kept as an option.  The
pixels lie exactly symmetrically about q = 0 and K depends on q_s ± q_i
through their squares only, so K = K^T = J K J exactly (J reverses the
axis), and :func:`build_kernel` evaluates a quarter of the pixel pairs.

Two-dimensional far-field images (n_pixels x n_pixels per detection plane)
use the separable product of the two axis kernels, so the Schmidt modes of
the image planes are products of axis modes with lambda_ij = lambda_i
lambda_j and per-mode gains g_ij = asinh(2 lambda_ij)/2.  This keeps the
decomposition at axis size while the image statistics aggregate every
pixel pair.  Each product mode is amplified at its own gain by
:func:`~spdcsim.elements.parametric_amplify`, and the balanced splitter
has the amplitudes of :func:`~spdcsim.elements.splitter_amplitudes`.

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
are synthesised, a chunk of repetitions at a time, into planes laid out
(image row, half, repetition, image column).  Every matrix of the
synthesis and of the sweep is real (the axis kernel and its Schmidt modes
are, and a shift matrix is but for one rank-one Nyquist term, one extra
inner row), so each complex contraction is a real matrix product on the
(re, im) parts of the fields, at half the multiply-adds; the vacuum half
is contracted straight from the draw.  Only the band pixels are shifted,
by band row and tile of tilts, and one set of shift rows serves both
output ports, since a band pixel's partner is its mirror image: a tile's
eight (port, re/im, half) input blocks take one batched product
(:func:`_band_ports`).  Running sums over the pairs give each tilt's
aggregate and its delete-one values in closed form.  So the working set is
the planes and, beside them, one chunk's draw or one tile's shift rows,
ports and pair products.  Neither the batching nor the uncopied operands
change a product: each is the BLAS call it would be alone, on the same
values, so they leave every fixed-seed output's bits as they were.  The
aggregate is normalised by the same statistic at a reference tilt far
outside the phase-matching band, so the curve tends to 1 for
distinguishable beams at every gain and to 0 at zero tilt.  The ratio is
not a function of merged feature means, so its standard error is the
delete-one-repetition jackknife, :func:`~spdcsim.estimators.jackknife_se`
of the ratios with one repetition left out.  A reference aggregate that
is not positive and finite fails the run with a
:class:`~spdcsim.estimators.DegenerateStatisticError`, so no curve has a
NaN point.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .elements import parametric_amplify, splitter_amplitudes
from .estimators import DegenerateStatisticError, check_reps, jackknife_se
from .sampling import RngStream, block_rows, kept_array, sample_vacuum

__all__ = [
    "DipCurve",
    "Hom2dConfig",
    "SchmidtDecomposition",
    "build_kernel",
    "calibrate_gain",
    "image_mean_intensities",
    "run_hom2d",
    "sample_image_planes",
    "schmidt_decompose",
    "shift_field",
]

#: Crystal length (mm) at which ``pm_bandwidth`` is quoted.
REFERENCE_LENGTH_MM = 0.8

#: Exponent alpha and gain scale g_ref of the gain-guided broadening of the
#: phase-matching bandwidth, qc_eff = qc (1 + g0/g_ref)^alpha.
PM_BROADENING_EXPONENT = 1.1
PM_BROADENING_GAIN = 0.7

#: Fraction of the brightest mean intensity at or above which an image
#: pixel belongs to the band whose matched pairs the dip aggregates.
BAND_FLOOR = 0.05

#: Upper end of the ``gain_scale`` bracket :func:`calibrate_gain` searches.
GAIN_SCALE_MAX = 9.0

#: Largest Frobenius norm of the axis kernel that :func:`build_kernel`
#: accepts.  The brightest product mode's amplitude gain, cosh of
#: asinh(2 lambda^2) / 2, is about lambda <= ||K||, and the pair statistics
#: are fourth order in the fields and summed over repetitions: 1e75 ** 4 =
#: 1e300 leaves a factor 1e8 below the largest double.
_KERNEL_NORM_MAX = 1e75

#: Bytes of one tilt tile of the band sweep (:func:`_band_ports`): the
#: shift rows, ports and pair products of the widest band row at the
#: tile's tilts, which then stay in L2 cache.
_TILE_BYTES = 1 << 20

@dataclass(frozen=True)
class Hom2dConfig:
    """Geometry, gain and sweep settings of the multimode HOM experiment.

    ``n_pixels`` counts momentum pixels per transverse axis; detection
    planes are ``n_pixels x n_pixels`` images.  The field defaults are
    the defaults of ``spdcsim hom2d``.  The repetitions and seed of a run
    are not settings of the geometry: :func:`run_hom2d` takes them, and
    :class:`~spdcsim.experiments.ExperimentConfig` holds them for every
    kind of run.  ``theta_sweep``, any sequence of reals, is kept as a
    tuple of Python floats, which a report can write out.
    """

    n_pixels: int = 64
    pitch: float = 0.25
    crystal_length_mm: float = 0.8
    pump_waist: float = 4.0
    pm_bandwidth: float = 0.7
    phase_matching: str = "sinc"
    gain_scale: float = 0.8814
    theta_sweep: tuple = tuple(np.linspace(-3.6, 3.6, 33))

    def __post_init__(self):
        if not isinstance(self.n_pixels, numbers.Integral):
            raise ValueError(f"n_pixels must be an integer, got {self.n_pixels!r}")
        if self.n_pixels < 1:
            raise ValueError(f"n_pixels must be >= 1, got {self.n_pixels}")
        if len(self.theta_sweep) == 0:
            raise ValueError("theta_sweep must not be empty")
        for t in self.theta_sweep:
            if not math.isfinite(t):
                raise ValueError(f"theta_sweep values must be finite, got {t}")
        object.__setattr__(self, "theta_sweep", tuple(map(float, self.theta_sweep)))
        for name in ("pitch", "crystal_length_mm", "pump_waist", "pm_bandwidth"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.gain_scale < math.inf:
            raise ValueError(f"gain_scale must be finite and >= 0, got {self.gain_scale}")
        if self.phase_matching not in ("sinc", "gaussian"):
            raise ValueError("phase_matching must be 'sinc' or 'gaussian', "
                             f"got {self.phase_matching!r}")
        # the kernel's terms stay in double range: the momentum axis's span
        # squared, the pump's 2 / pump_waist^2 and the phase mismatch
        # (qbar / qc)^2 squared at the axis's edge (a product of Python
        # floats overflows to inf; only ** raises)
        span = (self.n_pixels - 1) * self.pitch
        if not span * span < math.inf:
            raise ValueError(f"pitch {self.pitch:g} is too large: the span of the "
                             f"{self.n_pixels}-pixel momentum axis, squared, overflows")
        width = 1.0 / self.pump_waist
        if not 0 < 2.0 * width * width < math.inf:
            raise ValueError(f"pump_waist {self.pump_waist:g} is out of range: "
                             "2 / pump_waist^2 is not positive and finite")
        qc = self.qc
        edge = 0.5 * span / qc if qc * qc > 0 else math.inf
        if not (edge * edge) * (edge * edge) < math.inf:
            raise ValueError(f"pm_bandwidth {self.pm_bandwidth:g} at crystal_length_mm "
                             f"{self.crystal_length_mm:g} is too narrow for the "
                             f"{self.n_pixels}-pixel axis at pitch {self.pitch:g}: "
                             "the phase mismatch at its edge overflows")

    @property
    def qc(self) -> float:
        """Phase-matching bandwidth at zero gain: ``pm_bandwidth``, quoted at
        ``REFERENCE_LENGTH_MM``, narrows with the crystal length."""
        return self.pm_bandwidth * math.sqrt(REFERENCE_LENGTH_MM / self.crystal_length_mm)

    @property
    def q_axis(self) -> np.ndarray:
        n = self.n_pixels
        return (np.arange(n) - (n - 1) / 2.0) * self.pitch


def _sinhc(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x continued through imaginary arguments (sin(y)/y)."""
    out = np.ones_like(x, dtype=complex)
    nz = x != 0
    out[nz] = np.sinh(x[nz]) / x[nz]
    return out.real


@functools.cache
def _kernel_quarter(n: int) -> tuple:
    """The pixel pairs (j, k), j <= k and j + k <= n - 1, of an (n, n) axis
    kernel, and the flat indices of their four mirror images, which cover it."""
    j, k = np.triu_indices(n)
    quarter = j + k <= n - 1
    j, k = j[quarter], k[quarter]
    r = n - 1
    return j, k, np.stack([j * n + k, k * n + j, (r - j) * n + (r - k), (r - k) * n + (r - j)])


def build_kernel(config: Hom2dConfig) -> np.ndarray:
    """Deterministic (n, n) axis kernel for the configured geometry and
    gain, evaluated on a quarter of the pixel pairs and mirrored (K = K^T =
    J K J, see the module docstring): bit for bit the full grid's values."""
    n = config.n_pixels
    j, k, images = _kernel_quarter(n)
    q = config.q_axis
    qs = q[j]
    qi = q[k]
    qbar = 0.5 * (qs - qi)
    g0 = np.float64(config.gain_scale)  # overflows to inf, not OverflowError
    sigma_pump = 1.0 / config.pump_waist
    # a gain too large overflows here, and the norm check below names it;
    # Hom2dConfig keeps the geometry's terms finite, so a pump exponent that
    # overflows only sends a far pixel pair's pump to 0
    with np.errstate(over="ignore", invalid="ignore"):
        pump = np.exp(-((qs + qi) ** 2) / (2.0 * sigma_pump ** 2))
        # the bandwidth broadens with gain (gain guiding)
        qc_eff = config.qc * (1.0 + g0 / PM_BROADENING_GAIN) ** PM_BROADENING_EXPONENT
        if config.phase_matching == "sinc":
            mismatch = (qbar / qc_eff) ** 2
            s_eff = g0 * _sinhc(np.sqrt((g0 ** 2 - mismatch ** 2).astype(complex)))
        else:
            s_eff = np.sinh(g0 * np.exp(-(qbar ** 2) / (2.0 * qc_eff ** 2)))
        values = pump * (np.abs(s_eff) * np.sqrt(1.0 + s_eff ** 2))
        matrix = np.empty(n * n)
        matrix[images] = values
        matrix = matrix.reshape(n, n)
        norm = np.linalg.norm(matrix)
    if not norm < _KERNEL_NORM_MAX:
        raise ValueError(f"gain_scale {g0:g} is too large: the kernel norm {norm:.3g} is "
                         f"not below the {_KERNEL_NORM_MAX:g} that keeps the dip's "
                         "fourth-order pair statistics finite")
    return matrix


class SchmidtDecomposition(namedtuple("SchmidtDecomposition", "U V lam")):
    """Column-orthonormal mode matrices ``U`` and ``V`` with their singular
    values ``lam``, K = U diag(lam) V^T."""

    __slots__ = ()

    @property
    def n_modes(self) -> int:
        return self.lam.shape[0]


def schmidt_decompose(kernel: np.ndarray) -> SchmidtDecomposition:
    """SVD of the kernel matrix, K = U diag(lambda) V^T, every axis mode
    kept; :func:`run_hom2d` alone forms the residual of that product."""
    try:
        U, lam, Vh = np.linalg.svd(kernel)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"SVD of {kernel.shape} kernel failed: {exc}") from exc
    return SchmidtDecomposition(U=U, V=Vh.T, lam=lam)


def image_mean_intensities(dec: SchmidtDecomposition) -> np.ndarray:
    """Mean intensity image of the separable two-axis synthesis."""
    s2 = np.sinh(_product_gains(dec.lam)) ** 2
    w = np.abs(dec.U) ** 2
    return w @ s2 @ w.T


def _product_gains(lam: np.ndarray) -> np.ndarray:
    """Per-mode gains of the product modes of two identical axes with
    singular values ``lam``."""
    lam2 = np.outer(lam, lam)
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
    range that this bracket reaches is a ValueError naming that range; the
    search reuses that check's evaluations of the bracket ends.  Each
    evaluation is :func:`image_mean_intensities` of
    :func:`schmidt_decompose` of its kernel, the model stage of
    :func:`run_hom2d`.
    """
    if not (photons_per_pixel > 0 and math.isfinite(photons_per_pixel)):
        raise ValueError(
            f"photons_per_pixel must be positive and finite, got {photons_per_pixel}")

    @functools.cache
    def brightest(g0):
        return image_mean_intensities(
            schmidt_decompose(build_kernel(replace(config, gain_scale=g0)))).max()

    lo, hi = brightest(1e-9), brightest(GAIN_SCALE_MAX)
    if not lo <= photons_per_pixel <= hi:
        raise ValueError(
            f"photons_per_pixel {photons_per_pixel:g} is outside the reachable "
            f"range [{lo:.3g}, {hi:.3g}] (gain_scale 1e-9 to {GAIN_SCALE_MAX:g})")
    g0 = _brent_root(lambda g: brightest(g) - photons_per_pixel,
                     1e-9, GAIN_SCALE_MAX, xtol=1e-12, rtol=1e-12)
    return replace(config, gain_scale=float(g0))


def sample_image_planes(dec: SchmidtDecomposition, rng: RngStream, reps: int, rows):
    """Synthesise the image rows ``rows`` (indices into the first image
    axis) of the two-axis far-field images from the product Schmidt modes,
    which span the whole image plane; modes with vanishing singular value
    pass vacuum through.

    Returns ``(signal, idler)`` arrays of shape (len(rows), 2, reps, n):
    image row, half, repetition and image column, the column innermost.
    Half 0 holds the amplified fields of each repetition, half 1 the
    unamplified input vacua of the same draw sent through the same modes.

    The repetitions are drawn and synthesised a chunk at a time: the
    sampler's draw block (:func:`~spdcsim.sampling.block_rows`), 4
    repetitions at the default 64 pixels and 64 at 16, so the draw's
    working set does not grow with ``reps``.  Each chunk is drawn as its own
    call from the stream at its first row, which holds the rows of one
    whole draw bit for bit (:mod:`~spdcsim.sampling`); every chunk reuses
    the buffers of one namespace.  A chunk amplifies both images into one
    (image, rep, i, j) buffer.  U and V are real, so both contractions are
    real matrix products on the (re, im) float view of the amplitudes, one
    small product per image, half and repetition: over i with the
    restricted rows of U (or V), then, transposed to (j, row), over j with
    U (or V).  The vacuum half is contracted over i straight from the
    draw's (image, rep, i, j) view, whose (i, j) blocks are contiguous, so
    it is never copied.  Every product has the same shape whatever
    ``reps`` and the chunk, so each repetition's planes come from its own
    draw alone: they do not change when more repetitions are drawn, nor
    with the chunk or the BLAS threads.  A chunk writes whole image rows.
    """
    n, m = dec.U.shape[0], len(rows)
    g2 = _product_gains(dec.lam)
    # complex as the fields, so numpy buffers no cast
    C, S = np.cosh(g2).astype(complex), np.sinh(g2).astype(complex)
    modes = np.stack((dec.U, dec.V))[:, None, None]  # (image, 1, 1, y, j)
    restricted = modes[:, 0][..., rows, :]  # (image, 1, row, i)
    planes = np.empty((2, m, 2, reps, n), dtype=complex)  # (image, row, half, rep, column)
    chunk = block_rows(2 * n * n)
    kept = SimpleNamespace()
    for r0 in range(0, reps, chunk):
        c = min(chunk, reps - r0)
        ens = sample_vacuum(RngStream(rng.seed, rng.stream_id + r0), c, 2 * n * n, kept)
        vacuum = ens.reshape(c, 2, n, n).transpose(1, 0, 2, 3)  # (image, rep, i, j)
        fields = kept_array(kept, "multimode_fields", (3, c, n, n))  # amplified, scratch
        parametric_amplify(vacuum[0], vacuum[1], C, S, out=tuple(fields[:2]),
                           scratch=fields[2])
        # (row, i) @ (i, j), then (y, j) @ (j, row), per image, half and repetition
        by_row = kept_array(kept, "multimode_by_row", (2, 2, c, m, 2 * n), np.float64)
        for half, source in enumerate((fields[:2], vacuum)):
            np.matmul(restricted, source.view(float), out=by_row[:, half])
        by_j = kept_array(kept, "multimode_by_j", (2, 2, c, n, m))
        by_j[...] = by_row.view(complex).transpose(0, 1, 2, 4, 3)
        by_y = kept_array(kept, "multimode_by_y", (2, 2, c, n, 2 * m), np.float64)
        np.matmul(modes, by_j.view(float), out=by_y)
        planes[:, :, :, r0:r0 + c] = by_y.view(complex).transpose(0, 4, 1, 2, 3)
    return tuple(planes)


def shift_field(fields: np.ndarray, shift_px: float) -> np.ndarray:
    """Displace a pixel-plane field by ``shift_px`` pixels along its last
    axis.

    Integer shifts reduce to a circular roll; fractional shifts use the
    unitary Fourier phase ramp, which preserves the vacuum level exactly
    (linear interpolation of amplitudes would not).  Applied to the
    identity it gives the shift as a matrix: ``f @ shift_field(np.eye(n),
    s)`` is ``shift_field(f, s)``, which is how :func:`run_hom2d` shifts
    only the band pixels.

    That matrix T(s) is real but for one rank-one term from the Nyquist
    frequency of an even n: Im T(s) = sin(pi s)/n a a^T with a_j = (-1)^j.
    The other frequencies come in +/- pairs whose phases add to cosines.
    For odd n or integer s, T(s) is real.
    """
    if shift_px == int(shift_px):
        return np.roll(fields, int(shift_px), axis=-1)
    ramp = np.exp(-2j * np.pi * np.fft.fftfreq(fields.shape[-1]) * shift_px)
    return np.fft.ifft(np.fft.fft(fields, axis=-1) * ramp, axis=-1)


class DipCurve(namedtuple("DipCurve", "theta amplitude std_error sigma_theta "
                                       "photons_per_pixel n_modes seed band_pairs "
                                       "band_rows schmidt_residual")):
    """Normalised HOM dip amplitude against beam-splitter tilt.

    ``theta``, ``amplitude`` and ``std_error`` are arrays with one entry
    per tilt, and ``sigma_theta`` is the width of the Gaussian-dip fit, None
    when the fit fails.  ``n_modes`` is n_pixels^2, because every product
    mode is synthesised.  ``band_pairs`` counts the matched pixel pairs the dip
    aggregates, ``band_rows`` the image rows synthesised for them (the
    rows holding band pixels or their partners), and ``schmidt_residual``
    is the relative Frobenius residual of the decomposition the run
    sampled from, ||U diag(lambda) V^T - K|| / ||K||.
    """

    __slots__ = ()


def _band_ports(signal, idler, band_l, shifts):
    """Output-port fields at every tilt shift, by band row and tilt tile.

    Yields ``(tile, e1, e2, products)`` per image row holding band pixels
    and slice ``tile`` of ``shifts``: e1 at the row's band pixels (flat
    indices ``band_l`` over the planes' m rows and n columns) and e2 at
    their mirrored partners, both real, (re/im, half, tilt, pixel, rep),
    the vacuum half of e1 negated so that its products with e2 subtract
    the control variate; and an empty (tilt, 2, 2, pixel, rep) buffer for
    their pair products.  The rows are symmetric (:func:`_band_pairs`), so
    the partner of flat index l = x n + c is m n - 1 - l, in row m - 1 - x
    and column n - 1 - c.  A tile has as many tilts (at least one) as
    :data:`_TILE_BYTES` holds of the widest band row's shift rows, ports
    and pair products.

    The tilt displaces the reflected beams by +/- shift along the horizontal
    axis (opposite senses, as unitarity of a tilted splitter requires).  A
    row f displaced by s is ``f @ T(s)``, and Im T(s) = c(s) a a^T
    (:func:`shift_field`; c = 0 for odd n), so i f T(s) = (i f) Re T(s) +
    c(s) (-(a . f)) a^T: a tilt's shift rows, the columns of Re T(s) with
    c(s) a as an (n + 1)-th input, times [i f; -(a . f)] give i times the
    displaced row.  The balanced splitter's amplitudes are ``(t, r)`` of
    :func:`~spdcsim.elements.splitter_amplitudes` at T = 1/2: t scales the
    transmitted pixels, Im r the shift rows, and the i of r is the stacked
    input i f.  Column n - 1 - c, the partner of column c, of Re T(-s) is
    column c of Re T(s) with its input reversed, and the Nyquist input
    changes sign for even n, so port 2 is port 1's rows times [i g'; a . g']
    of the reversed signal row g'.  The inputs are stacked, transposed to
    (column, rep), as eight (port, re/im, half) blocks, and one batched
    product of the tile's rows with the eight blocks gives each block's
    product, a contiguous (tilt, pixel, rep) block of the ports: the same
    BLAS call on the same operands as a product of its own.  The stacked
    inputs, the Nyquist entries and the transmitted terms are written into
    their buffers in place.  Every buffer is sized once, for the widest
    band row and tile, so a band row allocates no array of its own, and
    each yield is overwritten by the next.
    """
    n, reps = signal.shape[-1], signal.shape[-2]
    t, r = splitter_amplitudes(0.5)
    alternating = (-1.0) ** np.arange(n)
    row_l, col_l = np.divmod(band_l, n)
    # band_l is row-major, so each band row is one run of equal row_l
    bounds = [0, *(np.flatnonzero(np.diff(row_l)) + 1), row_l.size]
    widest = int(np.diff(bounds).max())
    count = -(-len(shifts) // max(1, _TILE_BYTES // (8 * widest * (n + 1 + 12 * reps))))
    size = -(-len(shifts) // count)  # tilts of a tile
    tiles = [slice(t0, t0 + size) for t0 in range(0, len(shifts), size)]
    reflected = np.empty((len(shifts), n, n + 1))  # (tilt, out pixel, input)
    a = alternating if n % 2 == 0 else np.zeros(n)
    for k, s in enumerate(shifts):
        matrix = shift_field(np.eye(n), s)
        reflected[k, :, :n] = matrix.real.T
        reflected[k, :, n] = matrix.imag[0, 0] * a  # c(s) a
    reflected *= r.imag
    tiled = [reflected[tile] for tile in tiles]
    stacked = np.empty((2, 2, 2, n + 1, reps))  # (port, re/im, half, input, rep)
    nyquist = np.empty((2, reps), dtype=complex)  # (half, rep)
    gathered = np.empty(2 * widest * reps, dtype=complex)  # (half, rep, pixel)
    transmitted = np.empty(8 * widest * reps)  # (port, re/im, half, pixel, rep)
    taken, ports, products = (np.empty(widest * size * k) for k in (n + 1, 8 * reps, 4 * reps))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        x, cols = row_l[start], col_l[start:stop]
        xm = len(signal) - 1 - x
        # the terms are copied in, then scaled in place, for numpy buffers a
        # ufunc whose operands differ in layout or are strided views
        direct = transmitted[:8 * cols.size * reps].reshape(2, 2, 2, cols.size, reps)
        for port, f, plane, at in ((0, idler[x], signal[x], cols),
                                   (1, signal[xm][..., ::-1], idler[xm], n - 1 - cols)):
            inputs = stacked[port, :, :, :n]
            inputs[0], inputs[1] = f.imag.transpose(0, 2, 1), f.real.transpose(0, 2, 1)
            np.negative(inputs[0], out=inputs[0])  # i f
            np.matmul(f, alternating, out=nyquist)
            if port == 0:
                np.negative(nyquist, out=nyquist)  # -(a . f); port 2 takes a . g'
            stacked[port, 0, :, n], stacked[port, 1, :, n] = nyquist.real, nyquist.imag
            d = np.take(plane, at, axis=-1, mode="clip",
                        out=gathered[:2 * cols.size * reps].reshape(2, reps, cols.size))
            direct[port, 0], direct[port, 1] = d.real.swapaxes(1, 2), d.imag.swapaxes(1, 2)
        np.multiply(direct, t, out=direct)
        stacked[0, :, 1] *= -1.0  # the vacuum half of e1
        direct[0, :, 1] *= -1.0
        for tile, matrices in zip(tiles, tiled):
            p = matrices.shape[0] * cols.size  # output rows, (tilt, pixel)
            rows = np.take(matrices, cols, axis=1, mode="clip",  # "raise" buffers out
                           out=taken[:p * (n + 1)].reshape(-1, cols.size, n + 1))
            e = ports[:p * 8 * reps].reshape(8, -1, cols.size, reps)
            np.matmul(rows.reshape(p, n + 1), stacked.reshape(8, n + 1, reps),
                      out=e.reshape(8, p, reps))
            e += direct.reshape(8, 1, cols.size, reps)
            e = e.reshape(2, 2, 2, -1, cols.size, reps)
            yield tile, e[0], e[1], products[:p * 4 * reps].reshape(-1, 2, 2, cols.size, reps)


def _coherence_sweep(signal, idler, band_l, shifts):
    """Pair-coherence aggregate at each shift, shape (shifts,), and its
    delete-one-repetition values, (shifts, reps).

    With e1 = a + ib and e2 = c + id, |<e1 e2*>|^2 + |<e1 e2>|^2 = 2
    (<ac>^2 + <ad>^2 + <bc>^2 + <bd>^2), so the samples z_ip of pair p are
    these four real products, each less its vacuum control variate, whose
    mean is exactly zero: the vacua are independent and circular and the
    shift is unitary (T- = T+^H), so the cross terms of <e1v e2v*> cancel,
    and <e1v e2v> vanishes too.  With m_p the mean over the n repetitions
    and, summed over pairs and products, c_i = 2 sum m_p z_ip, o_i = 2 sum
    z_ip^2, M = 2 sum m_p^2 = sum_i c_i / n and q = sum_i o_i / n, the
    unbiased aggregate 2 sum_p (n m_p^2 - mean_i z_ip^2)/(n - 1) is (n M -
    q)/(n - 1), and with repetition i left out it is n (n M - 2 c_i + 2
    o_i / n - q)/((n - 1)(n - 2)).  The pair products of a band row and
    tile are (tilt, product and pixel, rep) blocks, and m, c and o each
    take one matrix-vector product per tilt.
    """
    reps = signal.shape[-2]
    ones = np.ones(max(reps, 4 * band_l.size))
    cross, own = np.zeros((2, len(shifts), reps))
    for tile, e1, e2, z in _band_ports(signal, idler, band_l, shifts):
        np.einsum("xhtpr,yhtpr->txypr", e1, e2, out=z)
        z = z.reshape(len(z), -1, reps)  # ac, ad, bc, bd of each pixel
        m = np.matmul(z, ones[:reps])
        m /= reps
        cross[tile] += np.matmul(m[:, None], z)[:, 0]
        squares = np.multiply(z, z, out=e1.reshape(z.shape))  # into spent e1
        own[tile] += np.matmul(ones[:z.shape[1]], squares)
    cross, own = 2.0 * cross, 2.0 * own
    power, q = cross.mean(axis=-1), own.mean(axis=-1)
    value = (reps * power - q) / (reps - 1)
    loo = (reps * (reps * power[:, None] - 2.0 * cross + 2.0 * own / reps - q[:, None])
           / ((reps - 1) * (reps - 2)))
    return value, loo


def _band_pairs(image: np.ndarray):
    """Image rows to synthesise and the matched band pairs within them.

    The band holds the pixels at or above :data:`BAND_FLOOR` times the
    brightest mean intensity; each pixel (x, y) pairs with its mirrored
    partner (n-1-x, n-1-y).  Returns ``(rows, band_l)``: the sorted rows
    holding band pixels or their partners, symmetric (``rows == n - 1 -
    rows[::-1]``), and the band pixels' flat indices l over the (len(rows),
    n) restricted image, whose partners sit at len(rows) n - 1 - l.  A
    ValueError when over 3/4 of the band's intensity lies on pixels whose
    column n // 2 away (the reference shift) is band too: that tilt cannot
    part the beams.
    """
    n = image.shape[0]
    band = image >= BAND_FLOOR * image.max()
    overlap = image[band & np.roll(band, n // 2, axis=1)].sum()
    if overlap > 0.75 * image[band].sum():
        raise ValueError(f"the band reaches the reference shift of {n // 2} pixels: "
                         f"{overlap / image[band].sum():.3g} of its intensity (over 0.75) "
                         "overlaps it; lower gain_scale, or raise n_pixels or pitch")
    lx, ly = np.nonzero(band)
    keep = band.any(axis=1)
    keep |= keep[::-1]
    position = np.cumsum(keep) - 1  # of each kept row in the restricted image
    return np.flatnonzero(keep), position[lx] * n + ly


def run_hom2d(config: Hom2dConfig, reps: int, seed: int) -> DipCurve:
    """Run the multimode HOM sweep of ``reps`` repetitions drawn from
    ``seed`` and fit the dip width.

    For each tilt theta the reflected beams are displaced by 2*theta in
    transverse momentum along the horizontal axis and mixed on the
    balanced splitter; the bright matched pixel pairs of the two output
    images are correlated in aggregate and normalised by the same
    statistic at a reference tilt of half the grid.  Only the image rows
    holding band pixels are synthesised, a chunk of repetitions at a time
    (:func:`sample_image_planes`), together with the unamplified input
    vacua whose pair products serve as a zero-mean control variate.
    All tilts, the reference included, are swept at once, by band row
    (:func:`_coherence_sweep`).

    Raises ValueError when a tilt's shift lies within half a pixel of the
    reference shift modulo the grid, whose dip point would be about 1 with
    a vanishing error, when the band reaches it (:func:`_band_pairs`), or
    when a tilt shifts the image by more than half the grid, where the
    circular shift wraps round and the curve would dip again;
    :class:`~spdcsim.estimators.DegenerateStatisticError` when the
    reference-tilt aggregate or one of its delete-one values is not
    positive and finite, and ArithmeticError when an amplitude is not
    finite or its standard error not positive and finite.
    """
    check_reps(reps)
    rng = RngStream(seed, 0)
    if config.n_pixels < 8:
        raise ValueError("the HOM sweep needs n_pixels >= 8")
    if not config.gain_scale > 0:
        raise ValueError("the HOM sweep needs gain_scale > 0")
    n, ref_shift = config.n_pixels, config.n_pixels // 2
    thetas = np.asarray(config.theta_sweep, dtype=float)
    shifts = [*(2.0 * thetas / config.pitch), ref_shift]
    for theta, shift in zip(thetas, shifts):
        offset = (shift - ref_shift) % n
        if min(offset, n - offset) < 0.5:
            raise ValueError(f"theta_sweep: theta = {theta:g} shifts the image by "
                             f"{shift:.6g} pixels, within 0.5 of the reference shift "
                             f"{ref_shift} modulo n_pixels = {n}, so its dip point is "
                             f"about 1 with an error that vanishes there")
    kernel = build_kernel(config)
    dec = schmidt_decompose(kernel)
    norm = np.linalg.norm(kernel)
    residual = np.linalg.norm((dec.U * dec.lam) @ dec.V.T - kernel) / norm if norm > 0 else 0.0
    image = image_mean_intensities(dec)
    rows, band_l = _band_pairs(image)
    for theta, shift in zip(thetas, shifts):
        if abs(shift) > n / 2:
            raise ValueError(f"theta_sweep: theta = {theta:g} shifts the image by "
                             f"{shift:.6g} pixels, more than half of n_pixels = {n}, "
                             f"so the shift wraps round the grid and the curve dips "
                             f"again; narrow the sweep, or raise n_pixels or pitch")
    signal, idler = sample_image_planes(dec, rng, reps, rows)

    value, loo = _coherence_sweep(signal, idler, band_l, shifts)
    ref = value[-1], loo[-1]
    if not all(np.all(np.isfinite(x) & (x > 0)) for x in ref):
        raise DegenerateStatisticError(
            f"the pair coherence at the reference tilt (the dip's denominator) "
            f"is {ref[0]:.6g}, and its delete-one values lie in "
            f"[{ref[1].min():.6g}, {ref[1].max():.6g}]: not all positive and finite")
    with np.errstate(all="ignore"):  # a ratio that is not finite is rejected below
        amps = value[:-1] / ref[0]
        errs = jackknife_se(loo[:-1] / ref[1])  # one row of reps a tilt
    for theta, amp, err in zip(thetas, amps, errs):
        if not (math.isfinite(amp) and 0 < err < math.inf):
            raise ArithmeticError(f"the dip amplitude at theta = {theta:.6g} is "
                                  f"{amp:.6g} +- {err:.6g}, not a finite "
                                  f"value with a positive standard error")

    sigma = _fit_dip_width(thetas, amps, errs)
    return DipCurve(theta=thetas, amplitude=amps, std_error=errs,
                    sigma_theta=sigma, photons_per_pixel=float(image.max()),
                    n_modes=dec.n_modes ** 2, seed=seed, band_pairs=int(band_l.size),
                    band_rows=int(rows.size), schmidt_residual=float(residual))


def _fit_dip_width(thetas: np.ndarray, amps: np.ndarray, errs: np.ndarray) -> float | None:
    """Width of the Gaussian-dip fit 1 - a exp(-theta^2 / 2 sigma^2); None
    if it fails.

    Minimises the weighted squared error sum w (1 - amp - a phi)^2, with
    phi = exp(-theta^2 / 2 sigma^2) and w = 1/err^2 (the errors are
    positive and finite), by variable projection (Golub & Pereyra
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
