import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from spdcsim.estimators import gaussian_moment_check, mean_intensity
from spdcsim.multimode import (Hom2dConfig, JointAmplitudeKernel, build_kernel,
                               calibrate_gain, image_mean_intensities,
                               pixel_mean_intensities, run_hom2d,
                               sample_image_planes, sample_multimode,
                               schmidt_decompose, shift_field)
from spdcsim.multimode import _band_pairs, _port_fields
from spdcsim.sampling import RngStream

import hom2d_oracle


# 16 pixels at a coarser pitch so the amplified band keeps dark margins
SMALL = Hom2dConfig(n_pixels=16, pitch=0.6, reps=400, seed=3,
                    theta_sweep=tuple(np.linspace(-2.1, 2.1, 9)))


def test_config_validation():
    with pytest.raises(ValueError):
        Hom2dConfig(n_pixels=0)
    with pytest.raises(ValueError):
        Hom2dConfig(reps=0)
    with pytest.raises(ValueError):
        Hom2dConfig(theta_sweep=())
    with pytest.raises(ValueError):
        Hom2dConfig(gain_scale=-1.0)
    with pytest.raises(ValueError):
        Hom2dConfig(phase_matching="rect")


def test_single_pixel_kernel_reduces_to_single_mode():
    cfg = Hom2dConfig(n_pixels=1, gain_scale=0.8)
    k = build_kernel(cfg)
    assert k.matrix.shape == (1, 1)
    assert k.matrix[0, 0] == pytest.approx(math.cosh(0.8) * math.sinh(0.8))


def test_zero_gain_kernel_is_zero():
    cfg = Hom2dConfig(gain_scale=0.0)
    assert np.all(build_kernel(cfg).matrix == 0.0)


def test_rank_one_kernel_recovers_mode():
    u = np.full(8, 1 / math.sqrt(8.0), dtype=complex)
    v = np.zeros(8, dtype=complex)
    v[3] = 1.0
    lam = 1.7
    kernel = JointAmplitudeKernel(matrix=lam * np.outer(u, v), pitch=1.0)
    dec = schmidt_decompose(kernel)
    assert dec.n_modes == 1
    assert dec.lam[0] == pytest.approx(lam)


def test_diagonal_kernel_gains():
    kernel = JointAmplitudeKernel(matrix=np.diag([2.0, 1.0]).astype(complex),
                                  pitch=1.0)
    dec = schmidt_decompose(kernel)
    assert dec.lam == pytest.approx([2.0, 1.0])
    assert dec.g == pytest.approx([math.asinh(4.0) / 2.0, math.asinh(2.0) / 2.0])


def test_default_kernel_decomposition_invariants():
    dec = schmidt_decompose(build_kernel(Hom2dConfig()))
    assert dec.residual < 1e-8
    eye_u = dec.U.conj().T @ dec.U
    eye_v = dec.V.conj().T @ dec.V
    assert np.allclose(eye_u, np.eye(dec.n_modes), atol=1e-10)
    assert np.allclose(eye_v, np.eye(dec.n_modes), atol=1e-10)
    assert np.all(np.diff(dec.lam) <= 0)
    assert np.allclose(dec.lam, np.cosh(dec.g) * np.sinh(dec.g))


def test_single_mode_sampling_reproduces_pixel_intensities():
    u = np.zeros(6, dtype=complex)
    u[2] = math.sqrt(0.75)
    u[3] = math.sqrt(0.25)
    v = np.roll(u, 1)
    lam = math.cosh(GL := math.asinh(1.0)) * math.sinh(GL)  # S^2 = 1
    kernel = JointAmplitudeKernel(matrix=lam * np.outer(u, v), pitch=1.0)
    dec = schmidt_decompose(kernel)
    signal, idler = sample_multimode(dec, RngStream(7, 0), 200_000)
    for pix, weight in ((2, 0.75), (3, 0.25)):
        est = mean_intensity(signal[:, pix])
        assert est.deviation(weight) < 5
    est = mean_intensity(idler[:, 3])
    assert est.deviation(0.75) < 5


def test_zero_gain_sampling_is_pure_vacuum():
    cfg = replace(SMALL, gain_scale=0.0)
    dec = schmidt_decompose(build_kernel(cfg))
    assert dec.n_modes == 0
    signal, idler = sample_multimode(dec, RngStream(1, 0), 100_000)
    for col in (signal[:, 4], idler[:, 11]):
        assert mean_intensity(col).deviation(0.0) < 5


def test_covariance_map_matches_kernel():
    cfg = replace(SMALL, gain_scale=0.9)
    kernel = build_kernel(cfg)
    dec = schmidt_decompose(kernel)
    signal, idler = sample_multimode(dec, RngStream(21, 0), 150_000)
    n = cfg.n_pixels
    for l, m in ((n // 2, n // 2 - 1), (n // 2 + 1, n // 2 - 2), (5, 10)):
        xa = np.abs(signal[:, l]) ** 2
        xb = np.abs(idler[:, m]) ** 2
        prod = (xa - xa.mean()) * (xb - xb.mean())
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        expect = abs(kernel.matrix[l, m]) ** 2
        assert abs(prod.mean() - expect) < 5 * se


def test_total_vacuum_budget():
    cfg = replace(SMALL, gain_scale=0.7)
    dec = schmidt_decompose(build_kernel(cfg))
    signal, _ = sample_multimode(dec, RngStream(9, 0), 150_000)
    total = (np.abs(signal) ** 2).sum(axis=1)
    se = total.std(ddof=1) / math.sqrt(total.size)
    c2s2 = np.cosh(dec.g) ** 2 + np.sinh(dec.g) ** 2
    expect = c2s2.sum() / 2.0 + (cfg.n_pixels - dec.n_modes) / 2.0
    assert abs(total.mean() - expect) < 5 * se


def test_pixel_level_moment_theorem():
    cfg = replace(SMALL, gain_scale=0.9)
    dec = schmidt_decompose(build_kernel(cfg))
    signal, idler = sample_multimode(dec, RngStream(31, 0), 120_000)
    n = cfg.n_pixels
    for l, m in ((n // 2, n // 2 - 1), (6, 9)):
        assert gaussian_moment_check(signal[:, l], idler[:, m]) < 5


def test_image_planes_reproduce_analytic_moments():
    cfg = Hom2dConfig(n_pixels=16, pitch=0.6, gain_scale=0.8, reps=20_000, seed=5)
    dec = schmidt_decompose(build_kernel(cfg), floor=0.0)
    sig, idl = sample_image_planes(dec, RngStream(5, 0), cfg.reps)
    img = image_mean_intensities(dec)
    n = cfg.n_pixels
    for (x, y) in ((n // 2, n // 2), (n // 2 - 2, n // 2 + 1), (2, 3)):
        est = mean_intensity(sig[:, x, y])
        assert est.deviation(img[x, y]) < 5

    K = build_kernel(cfg).matrix
    for (x, y) in ((n // 2, n // 2), (n // 2 - 1, n // 2 + 2)):
        mx, my = n - 1 - x, n - 1 - y
        ia = np.abs(sig[:, x, y]) ** 2
        ib = np.abs(idl[:, mx, my]) ** 2
        prod = (ia - ia.mean()) * (ib - ib.mean())
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        expect = abs(K[x, mx] * K[y, my]) ** 2
        assert abs(prod.mean() - expect) < 5 * se


def test_image_planes_need_full_basis():
    cfg = Hom2dConfig(n_pixels=16, pitch=0.6, gain_scale=0.8)
    dec = schmidt_decompose(build_kernel(cfg), floor=1e-3)
    if dec.n_modes < cfg.n_pixels:
        with pytest.raises(ValueError):
            sample_image_planes(dec, RngStream(1, 0), 10)


def test_shift_field_matches_roll_and_is_unitary():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(10, 16)) + 1j * rng.normal(size=(10, 16))
    assert np.allclose(shift_field(f, 3), np.roll(f, 3, axis=-1))
    frac = shift_field(f, 1.5)
    norm_in = np.linalg.norm(f, axis=-1)
    norm_out = np.linalg.norm(frac, axis=-1)
    assert np.allclose(norm_in, norm_out, rtol=1e-12)


def test_calibrate_gain_hits_target():
    cfg = calibrate_gain(Hom2dConfig(), 1.0)
    dec = schmidt_decompose(build_kernel(cfg), floor=0.0)
    assert image_mean_intensities(dec).max() == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        calibrate_gain(Hom2dConfig(), -1.0)


def test_run_hom2d_smoke():
    curve = run_hom2d(replace(SMALL, gain_scale=0.8))
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
    cfg = Hom2dConfig(n_pixels=4, reps=10)
    with pytest.raises(ValueError):
        run_hom2d(cfg)


@pytest.mark.parametrize("photons", [0.01, 10.0])
def test_run_hom2d_matches_exact_gaussian_oracle(photons):
    cfg = calibrate_gain(SMALL, photons)
    dec = schmidt_decompose(build_kernel(cfg), floor=0.0)
    exact = hom2d_oracle.dip_curve(dec, cfg.theta_sweep, cfg.pitch,
                                   cfg.band_floor)
    curve = run_hom2d(cfg)
    z = np.abs(curve.amplitude - exact) / curve.std_error
    assert np.all(z < 5), f"max deviation {z.max():.2f} se"


def test_vacuum_control_variate_has_zero_mean():
    dec = schmidt_decompose(build_kernel(SMALL), floor=0.0)
    rows, band_l, band_m = _band_pairs(image_mean_intensities(dec),
                                       SMALL.band_floor)
    reps = 20_000
    signal, idler = sample_image_planes(dec, RngStream(13, 0), reps,
                                        rows=rows, vacuum=True)
    for shift_px in (3, 2.5, SMALL.n_pixels // 2):
        v1, v2 = _port_fields(signal[1], idler[1], band_l, band_m, shift_px)
        for product in (v1 * np.conj(v2), v1 * v2):
            for part in (product.real, product.imag):
                se = part.std(axis=0, ddof=1) / math.sqrt(reps)
                z = np.abs(part.mean(axis=0)) / se
                assert np.all(z < 5), (shift_px, z.max())


def test_image_rows_and_vacuum_reuse_the_full_synthesis():
    cfg = Hom2dConfig(n_pixels=16, pitch=0.6, gain_scale=0.8)
    dec = schmidt_decompose(build_kernel(cfg), floor=0.0)
    full_s, full_i = sample_image_planes(dec, RngStream(5, 0), 50)
    rows = [3, 4, 12]
    sig, idl = sample_image_planes(dec, RngStream(5, 0), 50, rows=rows,
                                   vacuum=True)
    assert sig.shape == idl.shape == (2, 50, len(rows), cfg.n_pixels)
    assert np.array_equal(sig[0], full_s[:, rows])
    assert np.array_equal(idl[0], full_i[:, rows])
    unamplified = replace(dec, lam=np.zeros_like(dec.lam))
    vac_s, vac_i = sample_image_planes(unamplified, RngStream(5, 0), 50)
    assert np.allclose(sig[1], vac_s[:, rows], atol=1e-12)
    assert np.allclose(idl[1], vac_i[:, rows], atol=1e-12)


def test_run_hom2d_outputs_are_pinned():
    # Recorded before the tilt sweep reused the forward transforms and the
    # sampler gained its per-row Philox path; both must leave every bit of
    # the curve as it was.
    curve = run_hom2d(SMALL)
    digest = {name: hashlib.sha256(getattr(curve, name).tobytes()).hexdigest()
              for name in ("amplitude", "std_error")}
    assert digest == {
        "amplitude": "3e173028d40a94b112d29da5fe68a7400ef0b76d707e7ddb6172cc4596146183",
        "std_error": "8fb5b209d19b2b46346d9a62b354b54738f433c4ea89a96c4b13bcc4d4a57773",
    }
