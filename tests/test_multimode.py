import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spdcsim import multimode
from spdcsim.elements import beam_split
from spdcsim.multimode import (Hom2dConfig, build_kernel, calibrate_gain,
                               image_mean_intensities, run_hom2d, sample_image_planes,
                               schmidt_decompose, shift_field)
from spdcsim.multimode import (_band_pairs, _band_ports, _brent_root, _coherence_sweep,
                               _fit_dip_width, _product_gains)
from spdcsim.sampling import RngStream, block_rows

import hom2d_oracle
from helpers import (fft_reference_dip, full_grid_kernel, mean_intensity,
                     moment_theorem_residual, sample_multimode, truncated_schmidt,
                     whole_block_image_planes)


# 16 pixels at a coarser pitch so the amplified band keeps dark margins
SMALL = Hom2dConfig(n_pixels=16, pitch=0.6,
                    theta_sweep=tuple(np.linspace(-2.1, 2.1, 9)))
#: Repetitions and seed of the sweeps over SMALL.
SMALL_REPS, SMALL_SEED = 400, 3


def test_config_validation():
    with pytest.raises(ValueError):
        Hom2dConfig(n_pixels=0)
    for reps in (0, 1, 2):  # the delete-one jackknife divides by reps - 2
        with pytest.raises(ValueError, match="reps must be >= 3"):
            run_hom2d(Hom2dConfig(), reps, 42)
    for seed in (-1, 2 ** 64 + 42):  # not run as seed 42 while the curve records it
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\)"):
            run_hom2d(Hom2dConfig(), 3, seed)
    with pytest.raises(ValueError):
        Hom2dConfig(theta_sweep=())
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Hom2dConfig(gain_scale=bad)
    for field in ("pitch", "crystal_length_mm", "pump_waist", "pm_bandwidth"):
        for bad in (0.0, -0.25, math.nan, math.inf):
            with pytest.raises(ValueError):
                Hom2dConfig(**{field: bad})
    with pytest.raises(ValueError):
        Hom2dConfig(theta_sweep=(math.nan, 0.0, 1.0))
    with pytest.raises(ValueError, match="^phase_matching must be 'sinc' or 'gaussian', "
                                         "got 'rect'$"):
        Hom2dConfig(phase_matching="rect")


def test_a_pump_exponent_beyond_double_range_sends_far_pairs_to_zero():
    # 2 / pump_waist^2 is subnormal, so every pair off the anti-diagonal
    # (q_s + q_i != 0) has an exponent that overflows: its pump is 0, with
    # no warning, and the anti-diagonal keeps its gain profile
    k = build_kernel(Hom2dConfig(n_pixels=8, pump_waist=1e160))
    j, i = np.indices(k.shape)
    assert np.all(k[i + j != 7] == 0) and np.all(k[i + j == 7] > 1)


def test_single_pixel_kernel_reduces_to_single_mode():
    cfg = Hom2dConfig(n_pixels=1, gain_scale=0.8)
    k = build_kernel(cfg)
    assert k.shape == (1, 1)
    assert k[0, 0] == pytest.approx(math.cosh(0.8) * math.sinh(0.8))


def test_zero_gain_kernel_is_zero():
    cfg = Hom2dConfig(gain_scale=0.0)
    assert np.all(build_kernel(cfg) == 0.0)


def test_gaussian_phase_matching_kernel_matches_closed_form():
    # Gaussian phase matching: s_eff = sinh(x) with x = g0 exp(-qbar^2 /
    # (2 qc_eff^2)), so lambda = sinh(x) cosh(x) = sinh(2x) / 2, times the
    # Gaussian pump envelope of qs + qi.
    cfg = Hom2dConfig(n_pixels=16, pitch=0.6, phase_matching="gaussian",
                      gain_scale=0.8, crystal_length_mm=1.6)
    matrix = build_kernel(cfg)
    q = cfg.q_axis
    # default bandwidth 0.7 at 0.8 mm, broadened by the module's gain and
    # exponent; pump waist 4
    qc = (0.7 * math.sqrt(0.8 / 1.6)
          * (1.0 + 0.8 / multimode.PM_BROADENING_GAIN) ** multimode.PM_BROADENING_EXPONENT)
    for i, j in ((0, 0), (7, 8), (3, 12), (15, 2), (10, 10)):
        qbar = 0.5 * (q[i] - q[j])
        x = 0.8 * math.exp(-qbar ** 2 / (2.0 * qc ** 2))
        pump = math.exp(-((q[i] + q[j]) * 4.0) ** 2 / 2.0)
        assert matrix[i, j] == pytest.approx(0.5 * math.sinh(2.0 * x) * pump,
                                             rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("phase_matching", ["sinc", "gaussian"])
@pytest.mark.parametrize("n_pixels", [16, 63, 64])
@pytest.mark.parametrize("pitch", [0.25, 0.1, 0.3137])
def test_kernel_from_its_symmetric_quarter_is_the_full_grid(pitch, n_pixels, phase_matching):
    # K = K^T = J K J exactly, so the quarter's values mirrored are the
    # values of every pixel pair, bit for bit
    for g0 in (1e-9, 1e-3, 0.1, 0.8814, 2.0, 5.0, 9.0):
        cfg = Hom2dConfig(n_pixels=n_pixels, pitch=pitch, phase_matching=phase_matching,
                          gain_scale=g0)
        matrix, full = build_kernel(cfg), full_grid_kernel(cfg)
        assert matrix.dtype == full.dtype and matrix.flags.c_contiguous
        assert np.array_equal(matrix, full), g0


def test_rank_one_kernel_recovers_mode():
    u = np.full(8, 1 / math.sqrt(8.0), dtype=complex)
    v = np.zeros(8, dtype=complex)
    v[3] = 1.0
    lam = 1.7
    kernel = lam * np.outer(u, v)
    dec = truncated_schmidt(kernel)
    assert dec.n_modes == 1
    assert dec.lam[0] == pytest.approx(lam)


def test_diagonal_kernel_gains():
    kernel = np.diag([2.0, 1.0]).astype(complex)
    dec = schmidt_decompose(kernel)
    assert dec.lam == pytest.approx([2.0, 1.0])
    # product modes lambda_i lambda_j = 4, 2, 2, 1
    assert _product_gains(dec.lam) == pytest.approx(np.array(
        [[math.asinh(8.0) / 2.0, math.asinh(4.0) / 2.0],
         [math.asinh(4.0) / 2.0, math.asinh(2.0) / 2.0]]))


def test_default_kernel_decomposition_invariants():
    dec = schmidt_decompose(build_kernel(Hom2dConfig()))
    assert dec.n_modes == Hom2dConfig().n_pixels
    # the run reports the residual of the decomposition it samples from
    assert 0 <= run_hom2d(Hom2dConfig(), 3, 42).schmidt_residual < 1e-8
    eye_u = dec.U.conj().T @ dec.U
    eye_v = dec.V.conj().T @ dec.V
    assert np.allclose(eye_u, np.eye(dec.n_modes), atol=1e-10)
    assert np.allclose(eye_v, np.eye(dec.n_modes), atol=1e-10)
    assert np.all(np.diff(dec.lam) <= 0)
    g2 = _product_gains(dec.lam)
    assert np.allclose(np.outer(dec.lam, dec.lam), np.cosh(g2) * np.sinh(g2))


def test_single_mode_sampling_reproduces_pixel_intensities():
    u = np.zeros(6, dtype=complex)
    u[2] = math.sqrt(0.75)
    u[3] = math.sqrt(0.25)
    v = np.roll(u, 1)
    lam = math.cosh(GL := math.asinh(1.0)) * math.sinh(GL)  # S^2 = 1
    kernel = lam * np.outer(u, v)
    dec = truncated_schmidt(kernel)
    signal, idler = sample_multimode(dec, RngStream(7, 0), 200_000)
    for pix, weight in ((2, 0.75), (3, 0.25)):
        est = mean_intensity(signal[:, pix])
        assert est.deviation(weight) < 5
    est = mean_intensity(idler[:, 3])
    assert est.deviation(0.75) < 5


def test_zero_gain_sampling_is_pure_vacuum():
    cfg = replace(SMALL, gain_scale=0.0)
    dec = truncated_schmidt(build_kernel(cfg))
    assert dec.n_modes == 0
    signal, idler = sample_multimode(dec, RngStream(1, 0), 100_000)
    for col in (signal[:, 4], idler[:, 11]):
        assert mean_intensity(col).deviation(0.0) < 5


def test_covariance_map_matches_kernel():
    cfg = replace(SMALL, gain_scale=0.9)
    kernel = build_kernel(cfg)
    dec = truncated_schmidt(kernel)
    signal, idler = sample_multimode(dec, RngStream(21, 0), 150_000)
    n = cfg.n_pixels
    for l, m in ((n // 2, n // 2 - 1), (n // 2 + 1, n // 2 - 2), (5, 10)):
        xa = np.abs(signal[:, l]) ** 2
        xb = np.abs(idler[:, m]) ** 2
        prod = (xa - xa.mean()) * (xb - xb.mean())
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        expect = abs(kernel[l, m]) ** 2
        assert abs(prod.mean() - expect) < 5 * se


def test_total_vacuum_budget():
    cfg = replace(SMALL, gain_scale=0.7)
    dec = truncated_schmidt(build_kernel(cfg))
    signal, _ = sample_multimode(dec, RngStream(9, 0), 150_000)
    total = (np.abs(signal) ** 2).sum(axis=1)
    se = total.std(ddof=1) / math.sqrt(total.size)
    g = 0.5 * np.arcsinh(2.0 * dec.lam)
    c2s2 = np.cosh(g) ** 2 + np.sinh(g) ** 2
    expect = c2s2.sum() / 2.0 + (cfg.n_pixels - dec.n_modes) / 2.0
    assert abs(total.mean() - expect) < 5 * se


def test_pixel_level_moment_theorem():
    cfg = replace(SMALL, gain_scale=0.9)
    dec = truncated_schmidt(build_kernel(cfg))
    signal, idler = sample_multimode(dec, RngStream(31, 0), 120_000)
    n = cfg.n_pixels
    for l, m in ((n // 2, n // 2 - 1), (6, 9)):
        assert moment_theorem_residual(signal[:, l], idler[:, m]).deviation(0.0) < 5


def test_image_planes_reproduce_analytic_moments():
    cfg = Hom2dConfig(n_pixels=16, pitch=0.6, gain_scale=0.8)
    dec = schmidt_decompose(build_kernel(cfg))
    n, reps = cfg.n_pixels, 20_000
    rows = [2, 6, 7, 8]  # the image rows read below, each the amplified half
    sig, idl = ({x: row[0].T for x, row in zip(rows, plane)}
                for plane in sample_image_planes(dec, RngStream(5, 0), reps, rows))
    img = image_mean_intensities(dec)
    for (x, y) in ((n // 2, n // 2), (n // 2 - 2, n // 2 + 1), (2, 3)):
        est = mean_intensity(sig[x][y])
        assert est.deviation(img[x, y]) < 5

    K = build_kernel(cfg)
    for (x, y) in ((n // 2, n // 2), (n // 2 - 1, n // 2 + 2)):
        mx, my = n - 1 - x, n - 1 - y
        ia = np.abs(sig[x][y]) ** 2
        ib = np.abs(idl[mx][my]) ** 2
        prod = (ia - ia.mean()) * (ib - ib.mean())
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        expect = abs(K[x, mx] * K[y, my]) ** 2
        assert abs(prod.mean() - expect) < 5 * se


def test_shift_field_matches_roll_and_is_unitary():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(10, 16)) + 1j * rng.normal(size=(10, 16))
    assert np.allclose(shift_field(f, 3), np.roll(f, 3, axis=-1))
    frac = shift_field(f, 1.5)
    norm_in = np.linalg.norm(f, axis=-1)
    norm_out = np.linalg.norm(frac, axis=-1)
    assert np.allclose(norm_in, norm_out, rtol=1e-12)


@pytest.mark.parametrize("n", [9, 16, 64])
@pytest.mark.parametrize("shift", [2.5, -1.8, 3, "half"])
def test_shift_matrix_is_real_but_for_the_nyquist_term(n, shift):
    s = n // 2 if shift == "half" else shift
    matrix = shift_field(np.eye(n), s)
    a = (-1.0) ** np.arange(n)
    nyquist = math.sin(math.pi * s) / n * np.outer(a, a) if n % 2 == 0 else 0.0
    assert np.max(np.abs(matrix - (matrix.real + 1j * nyquist))) < 1e-15


def test_calibrate_gain_hits_target():
    cfg = calibrate_gain(Hom2dConfig(), 1.0)
    dec = schmidt_decompose(build_kernel(cfg))
    assert image_mean_intensities(dec).max() == pytest.approx(1.0, abs=1e-8)
    for bad in (-1.0, 0.0, math.nan, math.inf, 1e300):  # 1e300: out of reach
        with pytest.raises(ValueError):
            calibrate_gain(Hom2dConfig(), bad)


@pytest.mark.parametrize("fail_at", [1, 2, 5])  # the two bracket ends, mid-search
def test_calibrate_gain_passes_kernel_errors_through(fail_at, monkeypatch):
    calls = []

    def failing_kernel(config):
        calls.append(config.gain_scale)
        if len(calls) == fail_at:
            raise ValueError("kernel entries must be finite")
        return build_kernel(config)

    monkeypatch.setattr(multimode, "build_kernel", failing_kernel)
    with pytest.raises(ValueError, match="^kernel entries must be finite$"):
        calibrate_gain(Hom2dConfig(n_pixels=16, pitch=0.6), 1.0)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2.0, 0.0, 3.0),
    (lambda x: math.exp(x) - 5.0, -1.0, 2.5),
    (lambda x: math.tanh(x - 0.3), -5.0, 7.0),
    (lambda x: x - math.cos(x), 1e-9, 9.0),
    (lambda x: math.atan(1e4 * (x - 0.123)), 0.0, 3.0),
    (lambda x: math.log1p(x) - 0.7, 0.0, 3.0),
    # steep or nearly flat ones take the rarer step-acceptance branches
    (lambda x: math.exp(6.0 * (x - 1.7)) - 1.0, -2.0, 3.5),
    (lambda x: math.exp(8.0 * (x - 1.7)) - 1.0, -2.0, 3.5),
    (lambda x: (x - 0.4) ** 3 + 1e-3 * (x - 0.4), -2.0, 5.0),
])
@pytest.mark.parametrize("xtol, rtol", [(1e-12, 1e-12), (2e-12, 4 * 2.0 ** -52),
                                        (1e-6, 1e-8)])
def test_brent_root_matches_scipy_bit_for_bit(f, a, b, xtol, rtol):
    from scipy.optimize import brentq
    assert _brent_root(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol,
                                                      rtol=rtol)


def test_brent_root_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError):
        _brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)


@pytest.mark.parametrize("photons", [0.01, 0.1, 1.0, 10.0])
def test_calibrate_gain_matches_scipy_brentq(photons):
    from scipy.optimize import brentq
    config = Hom2dConfig()

    def brightest(g0):
        dec = schmidt_decompose(build_kernel(replace(config, gain_scale=g0)))
        return image_mean_intensities(dec).max() - photons

    expected = brentq(brightest, 1e-9, 9.0, xtol=1e-12, rtol=1e-12)
    assert calibrate_gain(config, photons).gain_scale == expected


@pytest.mark.parametrize("photons, kernels", [(1.0, 17), (0.01, 21)])
def test_calibrate_gain_builds_each_kernel_once(photons, kernels, monkeypatch):
    # the range check's two bracket ends are the root search's first two
    # evaluations, so no gain is built twice (19 and 23 kernels before), and
    # each kernel is decomposed by schmidt_decompose, the run's model stage
    gains, decompositions = [], []

    def counting_kernel(config):
        gains.append(config.gain_scale)
        return build_kernel(config)

    def counting_decompose(kernel):
        decompositions.append(kernel)
        return schmidt_decompose(kernel)

    monkeypatch.setattr(multimode, "build_kernel", counting_kernel)
    monkeypatch.setattr(multimode, "schmidt_decompose", counting_decompose)
    calibrate_gain(Hom2dConfig(), photons)
    assert len(gains) == len(set(gains)) == len(decompositions) == kernels


@pytest.mark.parametrize("config, photons, max_overlap", [
    *((Hom2dConfig(), p, 0.05) for p in (0.01, 0.1, 1.0, 10.0)),
    (SMALL, None, 0.15), (SMALL, 0.01, 0.01), (SMALL, 10.0, 0.55),
], ids=["crit8-0.01", "crit8-0.1", "crit8-1", "crit8-10", "small", "small-0.01", "small-10"])
def test_a_band_clear_of_the_reference_shift_has_exact_wings_near_1(config, photons,
                                                                    max_overlap):
    # the criterion-8 targets and SMALL pass the band check, and the exact
    # curve at their sweep's end (tests/hom2d_oracle.py) is the
    # distinguishable-beam limit within 5%
    config = config if photons is None else calibrate_gain(config, photons)
    dec = schmidt_decompose(build_kernel(config))
    image = image_mean_intensities(dec)
    _band_pairs(image)  # raises past the bound
    band = image >= multimode.BAND_FLOOR * image.max()
    overlap = image[band & np.roll(band, config.n_pixels // 2, axis=1)].sum() / image[band].sum()
    assert overlap <= max_overlap
    wing = hom2d_oracle.dip_curve(dec, config.theta_sweep[:1], config.pitch,
                                  multimode.BAND_FLOOR)
    assert abs(wing[0] - 1.0) < 0.05


@pytest.mark.parametrize("gain", [0.5, 0.8814, 9.0])
def test_a_band_reaching_the_reference_shift_is_refused(gain):
    # 16 pixels at the default pitch put (nearly) the whole image in the
    # band, so the reference shift of 8 pixels leaves the beams overlapping
    with pytest.raises(ValueError, match="reaches the reference shift of 8 pixels"):
        run_hom2d(Hom2dConfig(n_pixels=16, gain_scale=gain), 5, 42)


def _curve_fit_width(thetas, amps, errs):
    """The dip fit by scipy's Levenberg-Marquardt, the reference for
    :func:`_fit_dip_width`; returns (a, sigma)."""
    from scipy.optimize import curve_fit

    def model(t, a, sigma):
        return 1.0 - a * np.exp(-(t ** 2) / (2.0 * sigma ** 2))

    popt, _ = curve_fit(model, thetas, amps, p0=[1.0, np.ptp(thetas) / 8.0],
                        sigma=errs, maxfev=20000)
    return popt[0], abs(popt[1])


def _weighted_sse(thetas, amps, errs, a, sigma):
    model = 1.0 - a * np.exp(-thetas ** 2 / (2.0 * sigma ** 2))
    return float((((amps - model) / errs) ** 2).sum())


def _best_amplitude(thetas, amps, errs, sigma):
    phi = np.exp(-thetas ** 2 / (2.0 * sigma ** 2))
    w = 1.0 / errs ** 2
    return (w * (1.0 - amps) * phi).sum() / (w * phi * phi).sum()


def _assert_fit_matches_curve_fit(thetas, amps, errs):
    a_ref, sigma_ref = _curve_fit_width(thetas, amps, errs)
    sigma = _fit_dip_width(thetas, amps, errs)
    assert sigma == pytest.approx(sigma_ref, rel=1e-5)
    sse = _weighted_sse(thetas, amps, errs,
                        _best_amplitude(thetas, amps, errs, sigma), sigma)
    # no larger, up to the rounding of the sum itself
    assert sse <= _weighted_sse(thetas, amps, errs, a_ref, sigma_ref) * (1 + 1e-12)


def test_fit_dip_width_matches_curve_fit_on_the_criterion_8_curves(hom2d_curves):
    curves, _ = hom2d_curves
    for curve in curves.values():
        _assert_fit_matches_curve_fit(curve.theta, curve.amplitude,
                                      curve.std_error)


def test_fit_dip_width_matches_curve_fit_on_a_noisy_dip():
    rng = np.random.default_rng(2024)
    thetas = np.linspace(-3.0, 3.0, 25)
    errs = rng.uniform(0.01, 0.05, thetas.size)
    amps = (1.0 - 0.9 * np.exp(-thetas ** 2 / (2.0 * 0.8 ** 2))
            + errs * rng.standard_normal(thetas.size))
    _assert_fit_matches_curve_fit(thetas, amps, errs)


@pytest.mark.parametrize("thetas", [[0.0], [0.5], [-0.5, 0.5], [0.0, 0.0, 0.0]])
def test_fit_dip_width_fails_without_enough_tilts(thetas):
    thetas = np.asarray(thetas)
    amps = 1.0 - np.exp(-thetas ** 2)
    assert _fit_dip_width(thetas, amps, np.full_like(thetas, 0.01)) is None


def test_fit_dip_width_fails_on_non_finite_input():
    thetas = np.linspace(-2.0, 2.0, 9)
    amps = 1.0 - np.exp(-thetas ** 2)
    errs = np.full_like(thetas, 0.01)
    assert _fit_dip_width(thetas, amps, errs) is not None
    for bad in (math.nan, math.inf):
        assert _fit_dip_width(thetas, np.where(thetas == 0, bad, amps),
                              errs) is None
        assert _fit_dip_width(np.where(thetas == 0, bad, thetas), amps,
                              errs) is None


def test_run_hom2d_smoke():
    curve = run_hom2d(replace(SMALL, gain_scale=0.8), SMALL_REPS, SMALL_SEED)
    assert curve.theta.shape == curve.amplitude.shape == curve.std_error.shape
    assert np.all(np.isfinite(curve.amplitude))
    mid = len(curve.theta) // 2
    assert curve.theta[mid] == pytest.approx(0.0)
    assert abs(curve.amplitude[mid]) < 0.2
    assert curve.amplitude[0] > 0.5  # wings recover towards 1
    assert curve.photons_per_pixel > 0
    assert curve.n_modes >= 1
    if curve.sigma_theta is not None:
        assert curve.sigma_theta > 0


def test_run_hom2d_needs_enough_pixels():
    with pytest.raises(ValueError):
        run_hom2d(Hom2dConfig(n_pixels=4), 10, 42)


@pytest.mark.parametrize("photons", [0.01, 10.0])
def test_run_hom2d_matches_exact_gaussian_oracle(photons):
    cfg = calibrate_gain(SMALL, photons)
    dec = schmidt_decompose(build_kernel(cfg))
    exact = hom2d_oracle.dip_curve(dec, cfg.theta_sweep, cfg.pitch,
                                   multimode.BAND_FLOOR)
    curve = run_hom2d(cfg, SMALL_REPS, SMALL_SEED)
    z = np.abs(curve.amplitude - exact) / curve.std_error
    assert np.all(z < 5), f"max deviation {z.max():.2f} se"


def test_vacuum_control_variate_has_zero_mean():
    dec = schmidt_decompose(build_kernel(SMALL))
    rows, band_l = _band_pairs(image_mean_intensities(dec))
    reps = 20_000
    signal, idler = sample_image_planes(dec, RngStream(13, 0), reps, rows)
    shifts = (3, 2.5, SMALL.n_pixels // 2)
    for tile, e1, e2, _ in _band_ports(signal, idler, band_l, shifts):
        # the vacuum half of the samples, (shift, pixel, rep), that of e1 negated
        v1, v2 = (e[0, 1] + 1j * e[1, 1] for e in (-e1, e2))
        for product in (v1 * np.conj(v2), v1 * v2):
            for part in (product.real, product.imag):
                se = part.std(axis=-1, ddof=1) / math.sqrt(reps)
                z = np.abs(part.mean(axis=-1)) / se  # (shifts, pixels of the row)
                assert np.all(z < 5), dict(zip(shifts[tile], z.max(axis=1)))


@pytest.mark.parametrize("photons", [0.01, 1.0])
@pytest.mark.parametrize("n_pixels, pitch", [(16, 0.6), (63, 0.25), (64, 0.25)])
@pytest.mark.parametrize("phase_matching", ["sinc", "gaussian"])
def test_band_pairs_mirror_through_the_restricted_image(phase_matching, n_pixels, pitch,
                                                        photons):
    # the sweep takes the partner of the band pixel at restricted flat index
    # l at len(rows) n - 1 - l: the synthesised rows are symmetric about the
    # image centre, and the mirror (n-1-x, n-1-y) of a band pixel is one too
    config = calibrate_gain(Hom2dConfig(n_pixels=n_pixels, pitch=pitch,
                                        phase_matching=phase_matching), photons)
    image = image_mean_intensities(schmidt_decompose(build_kernel(config)))
    rows, band_l = _band_pairs(image)
    n = n_pixels
    assert np.array_equal(rows, n - 1 - rows[::-1])
    x, y = rows[band_l // n], band_l % n
    band = image >= multimode.BAND_FLOOR * image.max()
    assert band[x, y].all() and band_l.size == np.count_nonzero(band)
    assert band[n - 1 - x, n - 1 - y].all()
    mirror = len(rows) * n - 1 - band_l
    assert np.array_equal(rows[mirror // n], n - 1 - x)
    assert np.array_equal(mirror % n, n - 1 - y)
    assert np.isin(mirror, band_l).all()


@pytest.mark.parametrize("n", [9, 16, 64])
def test_band_ports_are_the_shifted_rows_through_the_splitter(n, monkeypatch):
    # both ports of the one product of port 1's shift rows against the
    # complex shift matrices themselves, at fractional, integer and
    # half-grid shifts, in one tile and in tiles of one tilt; port 2's
    # shift is the opposite of port 1's
    rng = np.random.default_rng(n)
    # (row, half, rep, column)
    signal, idler = (rng.normal(size=(3, 2, 7, 2 * n)).view(complex) for _ in range(2))
    # flat over (3, n), each pixel's partner mirrored through the centre
    band_l = np.array([1, 2, n - 1, n + 3, 2 * n, 2 * n + 5])
    shifts = (2.5, -1.8, 3, n // 2)
    for tile_bytes, tiles in ((multimode._TILE_BYTES, 1), (1, len(shifts))):
        monkeypatch.setattr(multimode, "_TILE_BYTES", tile_bytes)
        rows = iter([(0, [1, 2, n - 1], 2, [n - 2, n - 3, 0]), (1, [3], 1, [n - 4]),
                     (2, [0, 5], 0, [n - 1, n - 6])])
        yields = 0
        for tile, e1, e2, _ in _band_ports(signal, idler, band_l, shifts):
            if tile.start == 0:
                x, cl, xm, cm = next(rows)
            yields += 1
            got1, got2 = (e[0] + 1j * e[1] for e in (e1, e2))  # (half, shift, pixel, rep)
            got1[1] *= -1.0  # e1's vacuum half is negated
            for t, s in enumerate(shifts[tile]):
                want1 = beam_split(signal[x][..., cl],
                                   idler[x] @ shift_field(np.eye(n), s)[:, cl], 0.5)[0]
                want2 = beam_split(signal[xm] @ shift_field(np.eye(n), -s)[:, cm],
                                   idler[xm][..., cm], 0.5)[1]
                assert np.max(np.abs(got1[:, t] - want1.transpose(0, 2, 1))) < 1e-13
                assert np.max(np.abs(got2[:, t] - want2.transpose(0, 2, 1))) < 1e-13
        assert next(rows, None) is None and yields == 3 * tiles


@pytest.mark.parametrize("photons", [None, 1.0], ids=["small", "default-1ppp"])
def test_run_hom2d_matches_the_plane_fft_reference(photons):
    config = SMALL if photons is None else calibrate_gain(Hom2dConfig(), photons)
    curve = run_hom2d(config, 100, 42)
    amplitude, std_error = fft_reference_dip(config, 100, 42)
    assert curve.amplitude == pytest.approx(amplitude, rel=1e-12)
    assert curve.std_error == pytest.approx(std_error, rel=1e-10)


@pytest.mark.parametrize("photons", [None, 1.0], ids=["small", "default-1ppp"])
def test_the_sweep_does_not_depend_on_its_tilt_tiles(photons, monkeypatch):
    # every tile size the byte budget can pick, from one tilt a tile to one
    # tile of all tilts, against one tile of all.  On OpenBLAS's Haswell
    # kernel every tiling gives the same bits.  Its SkylakeX kernel runs
    # small products through another kernel, which rounds them otherwise:
    # at 1 ppp, tiles of up to five tilts differ from one tile by up to
    # 2.2e-16 relative in the values and 4.4e-16 in the delete-one values.
    config = SMALL if photons is None else calibrate_gain(Hom2dConfig(), photons)
    reps, seed = (SMALL_REPS, SMALL_SEED) if photons is None else (100, 42)
    dec = schmidt_decompose(build_kernel(config))
    rows, band_l = _band_pairs(image_mean_intensities(dec))
    signal, idler = sample_image_planes(dec, RngStream(seed, 0), reps, rows)
    shifts = [*(2.0 * np.asarray(config.theta_sweep) / config.pitch), config.n_pixels // 2]
    monkeypatch.setattr(multimode, "_TILE_BYTES", 1 << 40)
    value, loo = _coherence_sweep(signal, idler, band_l, shifts)
    sizes = set()
    for budget in [1, *(int(1.5 ** k) for k in range(28, 42))]:
        monkeypatch.setattr(multimode, "_TILE_BYTES", budget)
        tile = next(_band_ports(signal, idler, band_l, shifts))[0]
        sizes.add(len(shifts[tile]))
        tiled = _coherence_sweep(signal, idler, band_l, shifts)
        np.testing.assert_allclose(tiled[0], value, rtol=1e-14, atol=0)
        np.testing.assert_allclose(tiled[1], loo, rtol=1e-14, atol=0)
    assert {1, 2, len(shifts)} <= sizes and len(sizes) >= 5, sizes


class _ProductSpy:
    """numpy for :mod:`spdcsim.multimode`, but for a ``matmul`` that checks
    each product of a tile's rows with the eight (port, re/im, half) input
    blocks of the sweep against eight products, and each product on a
    strided 4-D operand, the draw's vacuum half, against the same product
    on a contiguous copy of it: bit for bit.  ``checked`` counts both."""

    def __init__(self):
        self.checked = {"tile": 0, "strided": 0}

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        result = np.matmul(a, b, out=out)
        if a.ndim == 2 and b.ndim == 3 and len(b) == 8:
            assert np.array_equal(result, np.stack([np.matmul(a, block) for block in b]))
            self.checked["tile"] += 1
        elif b.ndim == 4 and not b.flags.c_contiguous:
            assert np.array_equal(result, np.matmul(a, b.copy()))
            self.checked["strided"] += 1
        return result


@pytest.mark.parametrize("photons", [None, 1.0], ids=["small", "default-1ppp"])
def test_batched_tile_products_and_the_drawn_vacuum_half_keep_the_bits_of_copies(
        photons, monkeypatch):
    # the sweep takes a tile's eight products in one batched matmul, and
    # the synthesis contracts the vacuum half from the draw's own (image,
    # rep, i, j) view: each must round as the separate products and as the
    # product on a copied half, on every BLAS kernel
    config = SMALL if photons is None else calibrate_gain(Hom2dConfig(), photons)
    reps, seed = (SMALL_REPS, SMALL_SEED) if photons is None else (100, 42)
    dec = schmidt_decompose(build_kernel(config))
    rows, band_l = _band_pairs(image_mean_intensities(dec))
    shifts = [*(2.0 * np.asarray(config.theta_sweep) / config.pitch), config.n_pixels // 2]
    spy = _ProductSpy()
    monkeypatch.setattr(multimode, "np", spy)
    signal, idler = sample_image_planes(dec, RngStream(seed, 0), reps, rows)
    chunks = -(-reps // block_rows(2 * config.n_pixels ** 2))
    assert spy.checked == {"tile": 0, "strided": chunks}
    for tile_bytes in (multimode._TILE_BYTES, 1):  # one tile of every tilt, and one tilt a tile
        monkeypatch.setattr(multimode, "_TILE_BYTES", tile_bytes)
        spy.checked["tile"] = 0
        tiles = sum(1 for _ in _band_ports(signal, idler, band_l, shifts))
        assert spy.checked["tile"] == tiles > 0


@pytest.mark.parametrize("config, photons, reps, seed", [
    (SMALL, None, SMALL_REPS, SMALL_SEED),
    # the last 4-repetition chunk holds one repetition
    (Hom2dConfig(), 1.0, 101, 42),
], ids=["small", "default-1ppp-101"])
def test_run_hom2d_is_the_same_at_one_and_two_blas_threads(config, photons, reps, seed):
    # the synthesis's and the band sweep's matrix products go through
    # BLAS, whose threads must not change a bit of the curve
    config = config if photons is None else calibrate_gain(config, photons)
    script = f"""
import numpy as np
from spdcsim.multimode import Hom2dConfig, run_hom2d
curve = run_hom2d({config!r}, {reps}, {seed})
print(curve.amplitude.tobytes().hex(), curve.std_error.tobytes().hex())
"""
    src = Path(multimode.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_image_rows_and_vacuum_reuse_the_full_synthesis():
    cfg = Hom2dConfig(n_pixels=16, pitch=0.6, gain_scale=0.8)
    dec = schmidt_decompose(build_kernel(cfg))
    n, reps = cfg.n_pixels, 50
    full_s, full_i = sample_image_planes(dec, RngStream(5, 0), reps, np.arange(n))
    assert full_s.shape == full_i.shape == (n, 2, reps, n)
    rows = [3, 4, 12]
    sig, idl = sample_image_planes(dec, RngStream(5, 0), reps, rows)
    assert sig.shape == idl.shape == (len(rows), 2, reps, n)
    assert np.array_equal(sig, full_s[rows])
    assert np.array_equal(idl, full_i[rows])
    # the second half is the first half of the same draw at zero gain
    unamplified = dec._replace(lam=np.zeros_like(dec.lam))
    vac_s, vac_i = sample_image_planes(unamplified, RngStream(5, 0), reps, rows)
    assert np.allclose(sig[:, 1], vac_s[:, 0], atol=1e-12)
    assert np.allclose(idl[:, 1], vac_i[:, 0], atol=1e-12)


@pytest.mark.parametrize("config, photons, reps, seed", [
    # 16-row key blocks, so 64-repetition chunks, the last one partial
    (SMALL, None, 437, 3),
    # one key a repetition, so 4-repetition chunks, the last one of one
    (Hom2dConfig(), 1.0, 101, 42),
    # 900-word rows, 16 to a key
    (Hom2dConfig(n_pixels=15, pitch=0.6), None, 150, 5),
], ids=["small-437", "default-1ppp-101", "n15-150"])
def test_chunked_synthesis_matches_the_whole_block_reference(config, photons, reps, seed):
    config = config if photons is None else calibrate_gain(config, photons)
    dec = schmidt_decompose(build_kernel(config))
    rows, _ = _band_pairs(image_mean_intensities(dec))
    got = sample_image_planes(dec, RngStream(seed, 7), reps, rows)
    want = whole_block_image_planes(dec, RngStream(seed, 7), reps, rows)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (rows.size, 2, reps, config.n_pixels)
        assert np.array_equal(g, w)


@pytest.mark.parametrize("config, photons, reps, prefix, seed", [
    (SMALL, None, 437, 400, 3),
    (Hom2dConfig(), 1.0, 101, 100, 42),
    (Hom2dConfig(n_pixels=15, pitch=0.6), None, 150, 99, 5),
], ids=["small-437", "default-1ppp-101", "n15-150"])
def test_a_repetitions_planes_do_not_depend_on_later_repetitions(config, photons, reps,
                                                                 prefix, seed):
    # the first `prefix` repetitions of a longer synthesis, amplified and
    # vacuum halves alike, are the shorter synthesis bit for bit
    config = config if photons is None else calibrate_gain(config, photons)
    dec = schmidt_decompose(build_kernel(config))
    rows, _ = _band_pairs(image_mean_intensities(dec))
    longer = sample_image_planes(dec, RngStream(seed, 7), reps, rows)
    shorter = sample_image_planes(dec, RngStream(seed, 7), prefix, rows)
    for a, b in zip(longer, shorter):
        assert np.array_equal(a[:, :, :prefix], b)


def _traced_peak(f, *args):
    """f(*args) and the peak of the memory traced while it ran, in bytes
    above what was traced when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("reps", [100, 400])
def test_image_synthesis_working_set_is_its_result_and_one_chunk(reps):
    # the draw, the amplified copy and both contractions take one chunk
    # of repetitions at a time, into buffers reused by every chunk
    config = calibrate_gain(Hom2dConfig(), 1.0)
    dec = schmidt_decompose(build_kernel(config))
    rows, _ = _band_pairs(image_mean_intensities(dec))
    planes, peak = _traced_peak(sample_image_planes, dec, RngStream(42, 0), reps, rows)
    result = sum(p.nbytes for p in planes)
    assert peak <= 1.6 * result + 2e6, (peak, result)


def test_a_warm_synthesis_chunk_allocates_no_buffer(monkeypatch):
    # every chunk after the first takes its draw and its products from the
    # buffers the first chunk made (the smallest, 426 KB), so a buffer name
    # that two modules used at two shapes, which would reallocate it on
    # every chunk, fails here.  So does a ufunc that numpy buffers (a
    # conjugating or broadcast complex one, in blocks of 8192 elements,
    # 128 KB): a warm chunk allocates about 3 KB, and the bound is 32 KB
    config = calibrate_gain(Hom2dConfig(), 1.0)  # 4-repetition chunks
    dec = schmidt_decompose(build_kernel(config))
    rows, _ = _band_pairs(image_mean_intensities(dec))
    draw = multimode.sample_vacuum
    starts, chunks = [], []  # traced memory at each chunk's start, and its peak above that

    def traced(*args):
        current, peak = tracemalloc.get_traced_memory()
        if starts:
            chunks.append(peak - starts[-1])
        tracemalloc.reset_peak()
        starts.append(current)
        return draw(*args)

    monkeypatch.setattr(multimode, "sample_vacuum", traced)
    _traced_peak(sample_image_planes, dec, RngStream(42, 0), 12, rows)
    assert len(chunks) == 2 and chunks[0] > 4e6 and chunks[1] <= 32 * 1024, chunks


def test_a_warm_band_row_allocates_no_buffer(monkeypatch):
    # every band row stacks its inputs into, and takes its tiles' products,
    # pair products and sums from, buffers made before the first row.  One
    # tile of the default geometry's widest row is about 1 MiB and a (port,
    # re/im, half) block's product 0.7 MB, and a scaled, stacked copy of
    # the row's transmitted pixels takes two temporaries of 83 KB, so a
    # product buffer or such a copy fails here.  A row allocates 49-65 KB:
    # numpy's buffer (8192 elements at most) for the add of the transmitted
    # terms, broadcast over the tile's tilts
    config = calibrate_gain(Hom2dConfig(), 1.0)
    dec = schmidt_decompose(build_kernel(config))
    rows, band_l = _band_pairs(image_mean_intensities(dec))
    signal, idler = sample_image_planes(dec, RngStream(42, 0), 100, rows)
    shifts = [*(2.0 * np.asarray(config.theta_sweep) / config.pitch), config.n_pixels // 2]
    ports = multimode._band_ports
    starts, peaks = [], []  # traced memory at each row's first tile, and the peak above that

    def mark():
        current, peak = tracemalloc.get_traced_memory()
        if starts:
            peaks.append(peak - starts[-1])
        tracemalloc.reset_peak()
        starts.append(current)

    def traced(*args):
        for item in ports(*args):
            if item[0].start == 0:
                mark()
            yield item
        mark()

    monkeypatch.setattr(multimode, "_band_ports", traced)
    _traced_peak(_coherence_sweep, signal, idler, band_l, shifts)
    # one peak a row: its tiles' pair sums, then the next row's stacking
    assert len(peaks) == np.unique(band_l // config.n_pixels).size, peaks
    assert max(peaks) <= 128 * 1024, peaks


def test_run_hom2d_working_set_is_bounded():
    # the criterion-8 geometry at 1 ppp: 10.6 MB of restricted planes, then
    # one synthesis chunk's buffers or one tilt tile of the sweep.  Traced
    # peak 17.5 MB (23.4 MB before the sweep was tiled); 2.5 MB of margin
    config = calibrate_gain(Hom2dConfig(), 1.0)
    _, peak = _traced_peak(run_hom2d, config, 100, 42)
    assert peak <= 20e6, peak


def test_run_hom2d_outputs_are_pinned():
    # Recorded with one Philox key per 16 of SMALL's 1024-word rows, the
    # table-and-polynomial Box-Muller, the real-arithmetic synthesis (both
    # contractions one product per image, half and repetition) into (row,
    # half, rep, column) planes and the tiled band sweep (one set of shift
    # rows for both ports, the shift's Nyquist term as an extra inner row,
    # one real matrix product per band row, tilt tile and (port, re/im,
    # half) block, pair sums as matrix-vector products, closed-form
    # delete-one sums), on OpenBLAS's SkylakeX kernel.  The products have
    # since been batched, eight blocks of a tile to one matmul, and the
    # vacuum half is contracted from the draw uncopied: the same BLAS calls
    # on the same operands, which kept these digests.  Other kernels give
    # other digests, and not only by rounding: the SVD's basis inside the
    # kernel's degenerate singular pairs is arbitrary, so the curve moves
    # by up to O(SE).  The digests also follow from the splitter constant:
    # the sweep scales by t = Im r = sqrt(0.5) of elements.splitter_amplitudes,
    # one ulp above the 1/sqrt(2) it used before, which moved the curve by
    # rounding only (below 1e-13 SE).
    curve = run_hom2d(SMALL, SMALL_REPS, SMALL_SEED)
    digest = {name: hashlib.sha256(getattr(curve, name).tobytes()).hexdigest()
              for name in ("amplitude", "std_error")}
    assert digest == {
        "amplitude": "d70162474dd4c8e517ca8f19e7fe99356d2842412d206afe9f96ea7521e5bc17",
        "std_error": "f2a0499494de1af360b2dcca14b0c28470fcfb335b2fdec85ade47ed3d91aa0f",
    }
