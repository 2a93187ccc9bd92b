"""Test-only helpers: whole-column field draws and statistics, the
reference jackknife, pair-moment statistics, truncated single-axis Schmidt
decomposition and multimode sampling, the full-grid reference of the hom2d
axis kernel, the whole-block reference of the hom2d image synthesis, the plane-domain FFT reference of the hom2d sweep,
the integer-path Box-Muller reference and report comparison.

No command of ``spdcsim`` uses these, so they live with the tests.  The
whole-column draws concatenate the chunks of the streamed pipelines
(``experiments._twin_chunk``, ``_hom_chunk``, ``_bell_chunk``), each drawn
into new arrays, so they hold the rows that the pipelines reduce.  The
whole-column statistics (:func:`mean_intensity`, ...,
:func:`fourfold_covariance`) reduce their columns in the same
``CHUNK_ROWS``-row chunks (:func:`feature_moments`) and hand the merged
moments to the ``spdcsim.estimators`` statistic of the same name, so they
give what the pipelines report for the same rows.  The CHSH statistics
(:func:`chsh_coefficient`, :func:`chsh_b_estimate`) are the exception: an
independent reference for the bell pipeline's one Stokes tensor, from
fields projected at every setting (:func:`polarized_arms`) and plain
numpy; so is :func:`fourfold_direct`, the four-fold covariance of four
detector fields of any pattern.  :func:`jackknife_se` of a function of
sample means is the reference for the delta-method standard errors.
"""

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from spdcsim import estimators, multimode, theory
from spdcsim.elements import polarizer_project
from spdcsim.estimators import (FeatureMoments, MomentEstimate,
                                correlation_features, fourfold_features, intensity_products,
                                merge_moments, row_chunks, stokes_products)
from spdcsim.experiments import ExperimentConfig, _bell_chunk, _hom_chunk, _twin_chunk
from spdcsim.multimode import (Hom2dConfig, SchmidtDecomposition,
                               _band_pairs, _product_gains, build_kernel,
                               image_mean_intensities, sample_image_planes,
                               schmidt_decompose, shift_field)
from spdcsim import sampling
from spdcsim.sampling import RngStream, sample_vacuum

#: Metadata keys that vary between runs and are excluded from reproducibility
#: comparisons.
VOLATILE_METADATA = ("timestamp", "wall_time_s")


def _check_equal(*cols):
    cols = [np.asarray(c) for c in cols]
    if any(c.ndim != 1 for c in cols):
        raise ValueError("estimators expect 1-D ensemble columns")
    n = cols[0].shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if any(c.shape[0] != n for c in cols):
        raise ValueError("ensemble columns must have equal lengths")
    return cols


def feature_moments(features, *columns: np.ndarray) -> FeatureMoments:
    """Moments of the real feature columns ``features(*rows)`` over all rows.

    ``features`` maps a ``CHUNK_ROWS``-row chunk of each column to k real
    columns (or a (k, rows) array); the chunks' moments are merged by
    ``merge_moments``.  The pipelines reduce and merge the same chunks, so
    the two give the same means.
    """
    columns = _check_equal(*columns)
    return merge_moments(
        FeatureMoments.of_chunk(np.array(features(*(c[row0:row0 + rows] for c in columns)),
                                         dtype=np.float64))
        for row0, rows in row_chunks(columns[0].shape[0]))


def _intensities(*cols):
    return [np.abs(c) ** 2 for c in cols]


def mean_intensity(col: np.ndarray) -> MomentEstimate:
    """Normal-ordered mean intensity of one ensemble column."""
    return estimators.mean_intensity(feature_moments(_intensities, col))


def variance_intensity(col: np.ndarray) -> MomentEstimate:
    """Normal-ordered intensity variance of one ensemble column.

    The sampled variance of |E|^2, its covariance with itself, minus the
    1/4 ordering offset.
    """
    return estimators.variance_intensity(feature_moments(intensity_products, col, col))


def covariance_intensity(col_a: np.ndarray, col_b: np.ndarray) -> MomentEstimate:
    """Sample covariance of two intensity columns (no ordering correction)."""
    return estimators.covariance_intensity(
        feature_moments(intensity_products, col_a, col_b))


def correlation_coefficient(col_a: np.ndarray, col_b: np.ndarray,
                            vac_a: np.ndarray, vac_b: np.ndarray) -> MomentEstimate:
    """Intensity correlation coefficient with normal-ordered variances;
    ``vac_a`` and ``vac_b`` are the input vacua of the two columns (the
    same draw and optics at zero gain), which its degeneracy guard reads."""
    return estimators.correlation_coefficient(
        feature_moments(correlation_features, col_a, col_b, vac_a, vac_b))


def _ratio_of_means(num: np.ndarray, den: np.ndarray) -> MomentEstimate:
    """mean(num) / mean(den) with the delta-method standard error of its
    exact gradient, in plain numpy."""
    a, b = num.mean(), den.mean()
    grad = np.array([1.0 / b, -a / b ** 2])
    return MomentEstimate(float(a / b), float(np.sqrt(grad @ np.cov(num, den) @ grad
                                                      / len(num))))


def chsh_coefficient(e1p: np.ndarray, e1m: np.ndarray,
                     e2p: np.ndarray, e2m: np.ndarray) -> MomentEstimate:
    """Polarisation correlation coefficient E from the fields at the four
    polariser outputs: the mean of (i1p - i1m)(i2p - i2m) over that of
    (i1p + i1m)(i2p + i2m), i the normal-ordered output intensities."""
    return _ratio_of_means(*chsh_numerator_denominator(e1p, e1m, e2p, e2m))


def fourfold_covariance(es: np.ndarray, ei: np.ndarray) -> dict:
    """Four-fold intensity covariance of detectors (s, s, i, i), both
    signal detectors on the field column ``es`` and both idler detectors
    on ``ei``."""
    return estimators.fourfold_covariance(feature_moments(fourfold_features, es, ei))


def fourfold_direct(*cols: np.ndarray) -> MomentEstimate:
    """Direct four-fold covariance <prod_k (I_k - <I_k>)> of four detector
    field columns, any of them distinct, in plain numpy: the mean of the
    product of the centred intensities, with its standard error as a mean
    (the error of the estimated means is left out)."""
    prod = np.prod([x - x.mean() for x in _intensities(*cols)], axis=0)
    return MomentEstimate(float(prod.mean()), float(prod.std(ddof=1) / math.sqrt(len(prod))))


def jackknife_se(func, *samples: np.ndarray) -> float:
    """Delete-one jackknife standard error of ``func`` of sample means.

    ``func`` must accept the means of each column in ``samples`` and be
    numpy-broadcastable; it is evaluated on all leave-one-out means at
    once, and ``estimators.jackknife_se`` takes the values.
    """
    samples = [np.asarray(s) for s in samples]
    n = samples[0].shape[0]
    loo = [(s.sum() - s) / (n - 1) for s in samples]
    return estimators.jackknife_se(func(*loo))


def _whole_columns(draw, config: ExperimentConfig):
    chunks = (draw(config, *chunk, None) for chunk in row_chunks(config.reps))
    return tuple(np.concatenate(cols) for cols in zip(*chunks))


def twin_fields(config: ExperimentConfig):
    """Detector-plane twin-beam field columns (signal, idler)."""
    return _whole_columns(_twin_chunk, config)


def hom_fields(config: ExperimentConfig):
    """Input and output field columns of the interference experiment."""
    return _whole_columns(_hom_chunk, config)


def bell_arms(config: ExperimentConfig):
    """Polarisation-entangled fields (e1x, e1y, e2x, e2y) at the two
    locations.

    Two independent amplifiers pump the crossed polarisation pairs
    (1x, 2y) and (1y, 2x), which realises the maximally entangled
    polarisation state for intensity correlations.  At G = 0 these are the
    input vacua of the same seed's fields at any gain.
    """
    return _whole_columns(lambda *chunk: _bell_chunk(*chunk)[:4], config)


@lru_cache(maxsize=8)
def twin_columns(s2: float, eta: float = 1.0, reps: int = 1_000_000, seed: int = 42):
    cfg = ExperimentConfig(kind="twin", gl=math.asinh(math.sqrt(s2)), eta=eta,
                           reps=reps, seed=seed)
    return twin_fields(cfg)


@lru_cache(maxsize=8)
def bell_columns(G: float, reps: int = 1_000_000, seed: int = 42):
    cfg = ExperimentConfig(kind="bell", G=G, reps=reps, seed=seed)
    return bell_arms(cfg)


def polarized_arms(arms, *angles):
    """The fields (e1p, e1m, e2p, e2m) at the polarisers' plus and minus
    outputs of each (theta1, theta2) pair of ``angles``, one pair after
    another: both locations of ``arms`` (e1x, e1y, e2x, e2y) projected onto
    the axes theta and theta + pi/2."""
    return tuple(polarizer_project(arms[2 * loc], arms[2 * loc + 1], theta + turn)
                 for t1, t2 in zip(angles[0::2], angles[1::2])
                 for loc, theta in ((0, t1), (1, t2)) for turn in (0.0, math.pi / 2.0))


def chsh_numerator_denominator(e1p, e1m, e2p, e2m):
    """Per-sample numerator (i1p - i1m)(i2p - i2m) and denominator
    (i1p + i1m)(i2p + i2m) of E from the polarisers' output fields."""
    i1p, i1m, i2p, i2m = (np.abs(c) ** 2 - 0.5 for c in (e1p, e1m, e2p, e2m))
    return (i1p - i1m) * (i2p - i2m), (i1p + i1m) * (i2p + i2m)


_A, _AP, _B, _BP = theory.CHSH_ANGLES
#: (theta1, theta2, sign) of the four terms of B at the standard angles.
CHSH_SETTINGS = ((_AP, _B, 1.0), (_AP, _BP, 1.0), (_A, _BP, 1.0), (_A, _B, -1.0))


def chsh_b_estimate(arms, theta1=math.pi / 8, theta2=math.pi / 8):
    """CHSH coefficient B at the standard angle set from projected
    intensities: the signed sum of the settings' numerators over the
    denominator at (theta1, theta2), the bell report's setting."""
    num = sum(sign * chsh_numerator_denominator(*polarized_arms(arms, t1, t2))[0]
              for t1, t2, sign in CHSH_SETTINGS)
    return _ratio_of_means(num, chsh_numerator_denominator(
        *polarized_arms(arms, theta1, theta2))[1])


def stokes_moments(arms) -> FeatureMoments:
    """Moments of ``estimators.stokes_products`` of the whole columns
    (e1x, e1y, e2x, e2y), reduced in the bell pipeline's chunks."""
    return feature_moments(stokes_products, *arms)


def field_pair_moment(col_a: np.ndarray, col_b: np.ndarray,
                      conjugate_second: bool = False) -> MomentEstimate:
    """Mean field product <E_a E_b> or <E_a E_b*> (symmetric order), a
    complex value re + i im from the real estimates of its two parts, with
    standard error sqrt(E|value_hat - value|^2), the hypot of theirs."""
    def features(a, b):
        prod = a * (np.conj(b) if conjugate_second else b)
        return prod.real, prod.imag

    moments = feature_moments(features, col_a, col_b)
    re, im = (moments.estimate(lambda m, k=k: m[k]) for k in (0, 1))
    return MomentEstimate(complex(re.value, im.value), math.hypot(re.std_error, im.std_error))


def moment_theorem_residual(col_a: np.ndarray, col_b: np.ndarray) -> MomentEstimate:
    """Residual of the Gaussian factorisation of <I_a I_b>.

    For jointly Gaussian fields the symmetric-order intensity product
    factorises as <I_a><I_b> + |<E_a E_b*>|^2 + |<E_a E_b>|^2; the returned
    estimate is the sampled difference.
    """
    def features(a, b):
        cross, pair = a * np.conj(b), a * b
        return (*intensity_products(a, b), cross.real, cross.imag, pair.real, pair.imag)

    def resid(m):
        return m[2] - m[0] * m[1] - (m[3] ** 2 + m[4] ** 2) - (m[5] ** 2 + m[6] ** 2)

    return feature_moments(features, col_a, col_b).estimate(resid)


def full_grid_kernel(config: Hom2dConfig) -> np.ndarray:
    """The axis kernel of ``multimode.build_kernel`` evaluated on every
    pixel pair of the (n, n) grid, as broadcasts of the pixel axis, in
    place of its symmetric quarter; without its norm check."""
    q = config.q_axis
    qs, qi = q[:, None], q[None, :]
    qbar = 0.5 * (qs - qi)
    g0 = np.float64(config.gain_scale)
    pump = np.exp(-((qs + qi) ** 2) / (2.0 * (1.0 / config.pump_waist) ** 2))
    with np.errstate(over="ignore", invalid="ignore"):
        qc = config.pm_bandwidth * math.sqrt(multimode.REFERENCE_LENGTH_MM
                                             / config.crystal_length_mm)
        qc_eff = qc * (1.0 + g0 / multimode.PM_BROADENING_GAIN) ** multimode.PM_BROADENING_EXPONENT
        if config.phase_matching == "sinc":
            mismatch = (qbar / qc_eff) ** 2
            s_eff = g0 * multimode._sinhc(np.sqrt((g0 ** 2 - mismatch ** 2).astype(complex)))
        else:
            s_eff = np.sinh(g0 * np.exp(-(qbar ** 2) / (2.0 * qc_eff ** 2)))
        return pump * (np.abs(s_eff) * np.sqrt(1.0 + s_eff ** 2))


def truncated_schmidt(kernel: np.ndarray,
                      floor: float = 1e-8) -> SchmidtDecomposition:
    """Single-axis Schmidt decomposition of ``kernel`` less the modes whose
    singular value falls below ``floor`` times the largest (every mode of a
    zero kernel), K ~ U diag(lambda) V^T."""
    dec = schmidt_decompose(kernel)
    keep = dec.lam > floor * dec.lam[0]
    return SchmidtDecomposition(U=dec.U[:, keep], V=dec.V.T[keep].T, lam=dec.lam[keep])


def sample_multimode(dec: SchmidtDecomposition, rng: RngStream, reps: int):
    """Synthesise single-axis pixel-plane field ensembles from Schmidt modes.

    Per repetition: draw a vacuum pair per Schmidt mode, amplify it with
    the per-mode gain g_k = asinh(2 lambda_k)/2, map to pixels through U
    and V, and add the orthogonal-complement vacuum so every pixel carries
    the full vacuum.  ``dec`` may be truncated (:func:`truncated_schmidt`).
    Returns ``(signal, idler)`` arrays of shape (reps, n_pixels).
    """
    K = dec.n_modes
    ns = dec.U.shape[0]
    ni = dec.V.shape[0]
    ens = sample_vacuum(rng, reps, 2 * K + ns + ni)
    es0 = ens[:, :K]
    ei0 = ens[:, K:2 * K]
    vs = ens[:, 2 * K:2 * K + ns]
    vi = ens[:, 2 * K + ns:]
    g = 0.5 * np.arcsinh(2.0 * dec.lam)
    C = np.cosh(g)
    S = np.sinh(g)
    amp_s = C * es0 - 1j * S * np.conj(ei0)
    amp_i = C * ei0 - 1j * S * np.conj(es0)
    signal = amp_s @ dec.U.T + vs - (vs @ np.conj(dec.U)) @ dec.U.T
    idler = amp_i @ dec.V.T + vi - (vi @ np.conj(dec.V)) @ dec.V.T
    return signal, idler


def whole_block_image_planes(dec: SchmidtDecomposition, rng: RngStream, reps: int, rows):
    """``spdcsim.multimode.sample_image_planes`` with every repetition in
    one block: one draw of all of them, then, one image and one half
    (amplified, vacuum) at a time, every repetition contracted over i and
    then over j, as the same real products per repetition.  The chunked
    synthesis must equal it bit for bit.  The mode matrices are made
    C-contiguous, as the synthesis stacks them: V is the transpose of the
    SVD's Vh, and BLAS rounds a transposed operand otherwise."""
    n = dec.U.shape[0]
    g2 = _product_gains(dec.lam)
    C = np.cosh(g2)
    minus_iS = -1j * np.sinh(g2)
    ens = sample_vacuum(rng, reps, 2 * n * n)
    es0 = ens[:, :n * n].reshape(reps, n, n)
    ei0 = ens[:, n * n:].reshape(reps, n, n)
    planes = []
    for X, a, b in ((dec.U, es0, ei0), (dec.V, ei0, es0)):
        amplified = np.conjugate(b)
        amplified *= minus_iS
        amplified += C * a
        X = np.ascontiguousarray(X)
        halves = []
        for field in (amplified, a):
            by_row = (X[rows] @ field.view(float)).view(complex)  # (rep, row, j)
            by_j = np.ascontiguousarray(by_row.transpose(0, 2, 1))  # (rep, j, row)
            by_y = (X @ by_j.view(float)).view(complex)  # (rep, y, row)
            halves.append(by_y.transpose(2, 0, 1))  # (row, rep, y)
        planes.append(np.stack(halves, axis=1))  # (row, half, rep, y)
    return tuple(planes)


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


def _port_sweep(signal, idler, band_l, band_m):
    """Output-port fields as a function of the tilt shift: ``ports(shift_px)``
    gives e1 at the band pixels ``band_l`` and e2 at their partners
    ``band_m`` (flat indices over the last two axes), shifting both whole
    planes with :func:`spdcsim.multimode.shift_field`."""
    flat = signal.shape[:-2] + (-1,)
    signal_l = signal.reshape(flat)[..., band_l]
    idler_m = idler.reshape(flat)[..., band_m]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def ports(shift_px):
        ei_refl = shift_field(idler, shift_px)
        es_refl = shift_field(signal, -shift_px)
        e1 = (signal_l + 1j * ei_refl.reshape(flat)[..., band_l]) * inv_sqrt2
        e2 = (1j * es_refl.reshape(flat)[..., band_m] + idler_m) * inv_sqrt2
        return e1, e2

    return ports


def _band_pair_stats(e1, e2):
    """Cross-port pair-moment samples (reps x pairs) at one tilt: both
    field products and their squared magnitudes, each less its vacuum
    control variate (index 1 of ``e1`` and ``e2``)."""
    z1 = e1[0] * np.conj(e2[0]) - e1[1] * np.conj(e2[1])
    z2 = e1[0] * e2[0] - e1[1] * e2[1]
    return (z1.real, z1.imag, np.abs(z1) ** 2,
            z2.real, z2.imag, np.abs(z2) ** 2)


def fft_reference_dip(config: Hom2dConfig, reps: int, seed: int):
    """Dip amplitudes and standard errors of ``spdcsim.multimode.run_hom2d``
    by the plane-domain route: at each tilt, shift both whole restricted
    planes by FFT, read the band pairs, and form the delete-one aggregates
    from the six (reps x pairs) statistic arrays.  The same draw and band
    as ``run_hom2d``; only the sweep differs, and each band pixel's
    partner comes from its pixel coordinates (x, y), as (n-1-x, n-1-y)
    looked up in the restricted rows, not from the sweep's mirror of its
    flat index."""
    n = config.n_pixels
    dec = schmidt_decompose(build_kernel(config))
    rows, band_l = _band_pairs(image_mean_intensities(dec))
    x, y = rows[band_l // n], band_l % n
    partner_row = np.searchsorted(rows, n - 1 - x)
    assert np.array_equal(rows[partner_row], n - 1 - x), "a partner's row is not synthesised"
    band_m = partner_row * n + (n - 1 - y)
    signal, idler = (
        # (row, half, rep, column) to (half, rep, row, column)
        plane.transpose(1, 2, 0, 3)
        for plane in sample_image_planes(dec, RngStream(seed, 0), reps, rows))
    ports = _port_sweep(signal, idler, band_l, band_m)
    ref, ref_loo = _aggregate_with_loo(_band_pair_stats(*ports(config.n_pixels // 2)))
    thetas = np.asarray(config.theta_sweep, dtype=float)
    amps, errs = np.empty_like(thetas), np.empty_like(thetas)
    for j, theta in enumerate(thetas):
        value, loo = _aggregate_with_loo(_band_pair_stats(*ports(2.0 * theta / config.pitch)))
        amps[j], errs[j] = value / ref, estimators.jackknife_se(loo / ref_loo)
    return amps, errs


def integer_gaussian_pairs(words: np.ndarray, out: np.ndarray) -> None:
    """``spdcsim.sampling._box_muller`` on the raw uint64 Philox words ``w``
    themselves rather than their 53-bit uniforms: the radius from ``((w >>
    11) + 1) 2**-53``, and the table cell and the offset into it split off
    the angle word by shifts and a mask, in integers; then the same tables,
    polynomials and angle addition.  The uniform path must equal it bit for
    bit."""
    u64 = np.uint64
    shape = (words.shape[0], words.shape[1] // 2)
    t, ca, sa, b, z, p = np.empty((6, *shape))
    ib = t.view(u64)
    r = out[:, 0::2]
    np.right_shift(words[:, 0::2], u64(11), out=ib)
    np.add(ib, u64(1), out=ib)
    np.multiply(ib, 2.0 ** -53, out=r)
    np.log(r, out=r)
    np.multiply(r, -0.5, out=r)
    np.sqrt(r, out=r)
    turn = words[:, 1::2]
    cell = np.right_shift(turn, u64(54), out=ib).view(np.int64)
    np.take(sampling._COS_TABLE, cell, out=ca, mode="clip")
    np.take(sampling._SIN_TABLE, cell, out=sa, mode="clip")
    np.bitwise_and(turn, u64((1 << 54) - 1), out=ib)
    np.right_shift(ib, u64(11), out=ib)
    np.multiply(ib, 2.0 ** -53 * 2.0 * np.pi, out=b)
    np.multiply(b, b, out=z)
    np.multiply(z, -1.0 / 5040.0, out=p)
    np.add(p, 1.0 / 120.0, out=p)
    np.multiply(p, z, out=p)
    np.add(p, -1.0 / 6.0, out=p)
    np.multiply(p, z, out=p)
    np.multiply(p, b, out=p)
    np.add(b, p, out=b)
    np.multiply(z, -1.0 / 720.0, out=p)
    np.add(p, 1.0 / 24.0, out=p)
    np.multiply(p, z, out=p)
    np.add(p, -0.5, out=p)
    np.multiply(p, z, out=p)
    np.multiply(ca, p, out=z)
    np.multiply(sa, b, out=t)
    np.subtract(z, t, out=z)
    np.add(z, ca, out=z)
    np.multiply(sa, p, out=t)
    np.multiply(ca, b, out=p)
    np.add(t, p, out=t)
    np.add(t, sa, out=t)
    np.multiply(r, t, out=out[:, 1::2])
    np.multiply(r, z, out=r)


def comparable_text(path: Path) -> str:
    """File content with volatile metadata stripped, for reproducibility checks."""
    text = Path(path).read_text()
    if Path(path).suffix != ".json":
        return text
    data = json.loads(text)
    meta = data.get("metadata", data)
    for key in VOLATILE_METADATA:
        meta.pop(key, None)
    return json.dumps(data, indent=2, sort_keys=True)
