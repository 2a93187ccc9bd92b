import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from spdcsim import multimode
from spdcsim.estimators import gaussian_moment_check, mean_intensity
from spdcsim.multimode import (Hom2dConfig, JointAmplitudeKernel, build_kernel,
                               calibrate_gain, image_mean_intensities,
                               pixel_mean_intensities, run_hom2d,
                               sample_image_planes, sample_multimode,
                               schmidt_decompose, shift_field)
from spdcsim.multimode import (_band_pairs, _brent_root, _fit_dip_width,
                               _port_sweep)
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
    for reps in (1, 2):  # the delete-one jackknife divides by reps - 2
        with pytest.raises(ValueError):
            Hom2dConfig(reps=reps)
    with pytest.raises(ValueError):
        Hom2dConfig(theta_sweep=())
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Hom2dConfig(gain_scale=bad)
    for field in ("pitch", "crystal_length_mm", "pump_waist", "pm_bandwidth",
                  "pm_broadening_gain"):
        for bad in (0.0, -0.25, math.nan, math.inf):
            with pytest.raises(ValueError):
                Hom2dConfig(**{field: bad})
    with pytest.raises(ValueError):
        Hom2dConfig(pm_broadening_exponent=math.nan)
    with pytest.raises(ValueError):
        Hom2dConfig(theta_sweep=(math.nan, 0.0, 1.0))
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


def test_gaussian_phase_matching_kernel_matches_closed_form():
    # Gaussian phase matching: s_eff = sinh(x) with x = g0 exp(-qbar^2 /
    # (2 qc_eff^2)), so lambda = sinh(x) cosh(x) = sinh(2x) / 2, times the
    # Gaussian pump envelope of qs + qi.
    cfg = Hom2dConfig(n_pixels=16, pitch=0.6, phase_matching="gaussian",
                      gain_scale=0.8, crystal_length_mm=1.6)
    matrix = build_kernel(cfg).matrix
    q = cfg.q_axis
    # default bandwidth 0.7 at 0.8 mm, broadening gain 0.7, exponent 1.1;
    # pump waist 4
    qc = 0.7 * math.sqrt(0.8 / 1.6) * (1.0 + 0.8 / 0.7) ** 1.1
    for i, j in ((0, 0), (7, 8), (3, 12), (15, 2), (10, 10)):
        qbar = 0.5 * (q[i] - q[j])
        x = 0.8 * math.exp(-qbar ** 2 / (2.0 * qc ** 2))
        pump = math.exp(-((q[i] + q[j]) * 4.0) ** 2 / 2.0)
        assert matrix[i, j] == pytest.approx(0.5 * math.sinh(2.0 * x) * pump,
                                             rel=1e-12, abs=1e-300)


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
        dec = schmidt_decompose(build_kernel(replace(config, gain_scale=g0)),
                                floor=0.0)
        return image_mean_intensities(dec).max() - photons

    expected = brentq(brightest, 1e-9, 9.0, xtol=1e-12, rtol=1e-12)
    assert calibrate_gain(config, photons).gain_scale == expected


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
    # without usable errors the fit is unweighted
    assert _fit_dip_width(thetas, amps, np.zeros_like(errs)) == pytest.approx(
        _fit_dip_width(thetas, amps, np.ones_like(errs)), rel=1e-12)


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
    ports = _port_sweep(signal[1], idler[1], band_l, band_m)
    for shift_px in (3, 2.5, SMALL.n_pixels // 2):
        v1, v2 = ports(shift_px)
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
