import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcsim import estimators, theory
from spdcsim.elements import GainParams, beam_split, parametric_amplify
from spdcsim.estimators import (CHUNK_ROWS, INTENSITY_OFFSET, VARIANCE_OFFSET,
                                DegenerateStatisticError, correlation_features,
                                fourfold_features, intensity_products, intensity_snr,
                                stokes_products)
from spdcsim.experiments import (_B_WEIGHTS, ExperimentConfig, _chsh_weights,
                                 run_experiment)
from spdcsim.sampling import RngStream, sample_vacuum

from helpers import (CHSH_SETTINGS, bell_arms, chsh_b_estimate, chsh_coefficient,
                     chsh_numerator_denominator, correlation_coefficient,
                     covariance_intensity, feature_moments, field_pair_moment,
                     fourfold_covariance, fourfold_direct, jackknife_se, mean_intensity,
                     moment_theorem_residual, polarized_arms, stokes_moments,
                     variance_intensity)
from wick import centered_intensity_product, twin_beam_moment_table

GL_UNIT = math.asinh(1.0)


def _twin(reps=1_000_000, seed=42, gl=GL_UNIT):
    ens = sample_vacuum(RngStream(seed, 0), reps, 2)
    g = GainParams(gl)
    return parametric_amplify(ens[:, 0], ens[:, 1], g.C, g.S)


def _vacuum(reps=1_000_000, seed=11, modes=2):
    return sample_vacuum(RngStream(seed, 0), reps, modes)


def test_ordering_constants_exact():
    assert INTENSITY_OFFSET == 0.5
    assert VARIANCE_OFFSET == 0.25


def test_mean_intensity_oracles(twin_cache):
    vac = _vacuum()
    assert mean_intensity(vac[:, 0]).deviation(0.0) < 5
    es, _ = twin_cache(1.0)
    assert mean_intensity(es).deviation(1.0) < 5
    d1, _ = twin_cache(1.0, 0.5)
    assert mean_intensity(d1).deviation(0.5) < 5


def test_variance_intensity_oracles(twin_cache):
    vac = _vacuum()
    assert variance_intensity(vac[:, 0]).deviation(0.0) < 5
    es, _ = twin_cache(1.0)
    assert variance_intensity(es).deviation(2.0) < 5
    d1, _ = twin_cache(1.0, 0.5)
    assert variance_intensity(d1).deviation(0.75) < 5


def test_covariance_intensity_oracles(twin_cache):
    vac = _vacuum()
    assert covariance_intensity(vac[:, 0], vac[:, 1]).deviation(0.0) < 5
    es, ei = twin_cache(1.0)
    assert covariance_intensity(es, ei).deviation(2.0) < 5
    e1, e2 = beam_split(es, ei, 0.5)
    assert covariance_intensity(e1, e2).deviation(0.0) < 5


def test_correlation_coefficient_oracles(twin_cache, bell_cache):
    es, ei = twin_cache(1.0)
    rho = correlation_coefficient(es, ei, *twin_cache(0.0))
    assert rho.deviation(1.0) < 5

    arms, vacua = bell_cache(1.0), bell_cache(0.0)
    theta = math.pi / 8
    for theta2, oracle in ((theta, 0.5), (-theta, 0.0)):
        e1p, _, e2p, _ = polarized_arms(arms, theta, theta2)
        v1p, _, v2p, _ = polarized_arms(vacua, theta, theta2)
        assert correlation_coefficient(e1p, e2p, v1p, v2p).deviation(oracle) < 5


def test_hom_dip_degenerate_without_input_coherence():
    # at G = 0 the dip ratio's denominator |<Es Ei*>|^2 + |<Es Ei>|^2 is 0
    with pytest.raises(DegenerateStatisticError):
        run_experiment(ExperimentConfig(kind="hom", G=0.0, reps=20_000))


def test_correlation_degenerate_on_vacuum():
    # vacuum fields are their own input vacua
    vac = _vacuum(reps=10_000)
    with pytest.raises(DegenerateStatisticError):
        correlation_coefficient(vac[:, 0], vac[:, 1], vac[:, 0], vac[:, 1])


def test_field_pair_moment_oracles(twin_cache):
    es, ei = twin_cache(1.0)
    pair = field_pair_moment(es, ei)
    assert abs(abs(pair.value) - math.sqrt(2.0)) < 5 * pair.std_error
    cross = field_pair_moment(es, ei, conjugate_second=True)
    assert cross.deviation(0.0) < 5
    vac = _vacuum()
    self_moment = field_pair_moment(vac[:, 0], vac[:, 0],
                                    conjugate_second=True)
    assert self_moment.deviation(0.5) < 5


def test_moment_theorem_residuals(twin_cache):
    es, ei = twin_cache(1.0)
    assert moment_theorem_residual(es, ei).deviation(0.0) < 5
    vac = _vacuum()
    assert moment_theorem_residual(vac[:, 0], vac[:, 1]).deviation(0.0) < 5
    e1, e2 = beam_split(es, ei, 0.5)
    assert moment_theorem_residual(e1, e2).deviation(0.0) < 5


def test_input_validation():
    vac = _vacuum(reps=100)
    with pytest.raises(ValueError):
        mean_intensity(vac[:1, 0])
    with pytest.raises(ValueError):
        covariance_intensity(vac[:, 0], vac[:50, 1])
    with pytest.raises(ValueError):
        moment_theorem_residual(vac, vac)


def test_chsh_coefficient_oracles(bell_cache):
    # theta1 + theta2 = pi/2: E -> (1+G)/(1+3G) = 0.5
    est = estimators.chsh_coefficient(stokes_moments(bell_cache(1.0)),
                                      _chsh_weights(math.pi / 4, math.pi / 4))
    assert est.deviation(0.5) < 5

    # near the zero-gain limit the equal-angles setting gives E -> 0
    est = estimators.chsh_coefficient(stokes_moments(bell_cache(0.01)),
                                      _chsh_weights(math.pi / 8, math.pi / 8))
    assert est.deviation(0.0) < 5


def test_chsh_degenerate_denominator():
    vac = _vacuum(reps=50_000, modes=4)
    weights = _chsh_weights(math.pi / 8, math.pi / 8)
    with pytest.raises(DegenerateStatisticError):
        estimators.chsh_coefficient(stokes_moments(vac.T), weights)

    # at gL = 0.01 the intensity-product denominator is itself consistent
    # with zero at this sample size, which the contract rejects
    ens = sample_vacuum(RngStream(5, 0), 200_000, 4)
    g = GainParams(0.01)
    es1, ei1 = parametric_amplify(ens[:, 0], ens[:, 1], g.C, g.S)
    es2, ei2 = parametric_amplify(ens[:, 2], ens[:, 3], g.C, g.S)
    with pytest.raises(DegenerateStatisticError):
        estimators.chsh_coefficient(stokes_moments((es1, es2, ei1, ei2)), weights)


@settings(max_examples=25, deadline=None)
@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi), st.floats(0.0, 10.0))
def test_stokes_tensor_gives_every_settings_numerator_and_denominator(theta1, theta2, G):
    # per repetition, the projected numerator (i1p - i1m)(i2p - i2m) is the
    # bilinear form a(theta1)' [S_j(1) S_k(2)] a(theta2), and the projected
    # denominator (i1p + i1m)(i2p + i2m), the total coincidence rate, is
    # (S0(1) - 1)(S0(2) - 1), which polarisers do not change
    arms = bell_arms(ExperimentConfig(kind="bell", G=G, reps=2_000))
    num, den = chsh_numerator_denominator(*polarized_arms(arms, theta1, theta2))
    products = stokes_products(*arms)
    a1, a2 = ((math.cos(2 * t), math.sin(2 * t)) for t in (theta1, theta2))
    form = sum(a1[j] * a2[k] * products[2 * j + k] for j in (0, 1) for k in (0, 1))
    e1x, e1y, e2x, e2y = arms
    scale = (abs(e1x) ** 2 + abs(e1y) ** 2 + 1) * (abs(e2x) ** 2 + abs(e2y) ** 2 + 1)
    bound = 16 * np.finfo(float).eps * scale
    assert np.all(np.abs(num - form) <= bound)
    assert np.all(np.abs(den - products[4]) <= bound)


def test_b_is_the_signed_sum_of_its_settings_coefficients():
    config = ExperimentConfig(kind="bell", G=1.0, reps=50_000)
    b = next(row for row in run_experiment(config).rows if row.name == "B")
    arms = bell_arms(config)
    total = sum(sign * chsh_coefficient(*polarized_arms(arms, t1, t2)).value
                for t1, t2, sign in CHSH_SETTINGS)
    assert b.value == pytest.approx(total, rel=1e-12)
    assert b.value == pytest.approx(chsh_b_estimate(arms).value, rel=1e-12)
    np.testing.assert_allclose(_B_WEIGHTS, math.sqrt(2) * np.array([-1, 0, 0, 1]),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("gl", [0.1, GL_UNIT, 2.0])
def test_fourfold_classes_equal_the_nine_terms_at_the_sampled_pair_moments(gl):
    # at detectors (s, s, i, i) the six pair moments of the nine-term
    # factorisation are <E_s E_s*> = <|E_s|^2>, <E_i* E_i> = <|E_i|^2> and
    # <E_s E_i> four times; each closed-form class must give their sum
    es, ei = _twin(reps=3000, gl=gl)
    res = fourfold_covariance(es, ei)
    pair = np.mean(es * ei)
    terms, classes = theory.fourfold_terms(np.mean(np.abs(es) ** 2), np.mean(np.abs(ei) ** 2),
                                           pair, pair, pair, pair)
    assert res["fourfold_terms_total"].value == pytest.approx(np.sum(terms).real,
                                                               rel=1e-13, abs=0)
    # the report's row names, in its order
    assert list(res) == ["fourfold_direct", "fourfold_terms_total", "bunching_terms",
                         "low_gain_terms", "mixed_terms"]
    assert classes.keys() == {"bunching", "low_gain", "mixed"}
    for name, idx in classes.items():
        assert res[f"{name}_terms"].value == pytest.approx(
            np.sum(terms[idx]).real, rel=1e-13, abs=0), name


def test_fourfold_against_independent_enumeration(twin_cache):
    es, ei = twin_cache(1.0)
    res = fourfold_covariance(es, ei)
    oracle = centered_intensity_product(
        ["s", "s", "i", "i"], twin_beam_moment_table(GL_UNIT)).real
    assert oracle == pytest.approx(39.0625)
    assert res["fourfold_direct"].deviation(oracle) < 5
    assert res["fourfold_terms_total"].deviation(oracle) < 5
    # the raw-moment polynomial is the mean of the centred product
    assert res["fourfold_direct"].value == pytest.approx(fourfold_direct(es, es, ei, ei).value,
                                                         rel=1e-12)


def test_fourfold_independent_vacua():
    vac = _vacuum(reps=1_000_000, modes=4)
    assert fourfold_direct(*(vac[:, k] for k in range(4))).deviation(0.0) < 5


def test_fourfold_bunching_scaling(twin_cache):
    # ratio of bunching terms from symmetric pair moments across two gains
    vals = {}
    for s2 in (5.0, 10.0):
        es, ei = twin_cache(s2)
        res = fourfold_covariance(es, ei)
        vals[s2] = res["bunching_terms"].value
    expect = (10.5 / 5.5) ** 4
    assert vals[10.0] / vals[5.0] == pytest.approx(expect, rel=0.10)


def test_standard_error_scales_with_reps():
    big = _vacuum(reps=400_000, seed=21, modes=1)[:, 0]
    small = big[:100_000]
    se_small = mean_intensity(small).std_error
    se_big = mean_intensity(big).std_error
    assert se_small / se_big == pytest.approx(2.0, rel=0.2)


def test_jackknife_matches_classic_se_for_mean():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4000)
    se = jackknife_se(lambda m: m, x)
    assert se == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=1e-6)


@pytest.mark.parametrize("shape", [(33, 100), (3, 20_000), (1, 7)])
def test_jackknife_se_of_each_row_is_its_1d_value_bit_for_bit(shape):
    # run_hom2d takes every tilt's standard error from one (tilts, reps) array
    theta = np.random.default_rng(sum(shape)).normal(1.0, 0.1, size=shape)
    se = estimators.jackknife_se(theta)
    assert se.shape == shape[:1]
    assert se.tobytes() == np.array([estimators.jackknife_se(row) for row in theta]).tobytes()


def test_intensity_snr_values(twin_cache):
    es, _ = twin_cache(10.0)
    snr = intensity_snr(es)
    # thermal statistics: mean/std of sampled intensity = S^2/(S^2 + 1/2)
    assert snr == pytest.approx(10.0 / 10.5, rel=0.02)


def test_intensity_snr_rejects_a_column_that_is_not_1d_or_too_short():
    vac = _vacuum(reps=100)
    with pytest.raises(ValueError):
        intensity_snr(vac)
    with pytest.raises(ValueError):
        intensity_snr(vac[:1, 0])


def test_chunked_moments_equal_numpy_over_several_chunks():
    rng = np.random.default_rng(3)
    n = 12 * CHUNK_ROWS + 1234
    x = rng.normal(size=n)
    y = 1e3 + rng.exponential(size=n)

    def features(a, b):
        return a, a * a, a * b, b

    moments = feature_moments(features, x, y)
    cols = np.stack(features(x, y))
    assert moments.n == n
    np.testing.assert_allclose(moments.mean, cols.mean(axis=1), rtol=1e-12)
    np.testing.assert_allclose(moments.gram / (n - 1), np.cov(cols), rtol=1e-12)


def _reference_features(a, b, c, d):
    """Each feature function's columns as the one-line expressions it
    evaluated before it wrote into ``out``."""
    xa, xb, xc, xd = (np.abs(col) ** 2 for col in (a, b, c, d))
    s1, s2, d1 = xa - xb, 2 * (a.real * b.real + a.imag * b.imag), xa + xb - 1.0
    t1, t2, d2 = xc - xd, 2 * (c.real * d.real + c.imag * d.imag), xc + xd - 1.0
    pair = a * b
    return {
        "intensity_products": (lambda **kw: intensity_products(a, b, **kw),
                               [xa, xb, xa * xb]),
        "correlation_features": (lambda **kw: correlation_features(a, b, c, d, **kw),
                                 [xa, xb, xa * xb, xa ** 2, xb ** 2,
                                  xc, xd, xc ** 2, xd ** 2]),
        "stokes_products": (lambda **kw: stokes_products(a, b, c, d, **kw),
                            [s1 * t1, s1 * t2, s2 * t1, s2 * t2, d1 * d2]),
        "fourfold": (lambda **kw: fourfold_features(a, b, **kw),
                     [xa, xb, xa * xa, xa * xb, xb * xb, xa * xa * xb, xa * xb * xb,
                      xa * xa * xb * xb, pair.real, pair.imag]),
    }


@pytest.mark.parametrize("name", ["intensity_products", "correlation_features",
                                  "stokes_products", "fourfold"])
def test_feature_rows_equal_their_reference_expressions(name):
    ens = sample_vacuum(RngStream(9, 0), 3000, 4) * 3.0
    features, expect = _reference_features(*ens.T)[name]
    expect = np.array(expect).view(np.uint64)
    np.testing.assert_array_equal(features().view(np.uint64), expect)
    out = np.full(expect.shape, np.nan)
    scratch = {"stokes_products": np.empty((7, 3000)),
               "fourfold": np.empty(3000, dtype=np.complex128)}.get(name)
    given = features(out=out, **({} if scratch is None else {"scratch": scratch}))
    assert given is out
    np.testing.assert_array_equal(out.view(np.uint64), expect)


def _delta_and_jackknife_cases(twin_cache, bell_cache):
    """(name, engine estimate, jackknife SE of the same statistic) at 2e5 reps."""
    reps = 200_000
    es, ei = twin_cache(1.0, 1.0, reps)
    xs, xi = np.abs(es) ** 2, np.abs(ei) ** 2
    cross, pair = es * np.conj(ei), es * ei
    yield ("residual", moment_theorem_residual(es, ei), jackknife_se(
        lambda p, a, b, cr, ci, qr, qi: p - a * b - cr ** 2 - ci ** 2 - qr ** 2 - qi ** 2,
        xs * xi, xs, xi, cross.real, cross.imag, pair.real, pair.imag))

    e1, e2 = beam_split(es, ei, 0.5)
    parts = [p for c in (e1 * np.conj(e2), e1 * e2, cross, pair) for p in (c.real, c.imag)]
    report = run_experiment(ExperimentConfig(kind="hom", gl=GL_UNIT, reps=reps))
    dip = next(r for r in report.rows if r.name == "dip_amplitude")
    yield ("hom dip", dip, jackknife_se(
        lambda *m: sum(v ** 2 for v in m[:4]) / sum(v ** 2 for v in m[4:]), *parts))

    res = fourfold_covariance(es, ei)
    pm = [es * np.conj(es), np.conj(ei) * ei, es * ei, es * ei, es * ei, es * ei]
    parts = [p for c in pm for p in (c.real, c.imag)]
    classes = theory.fourfold_terms(*[0.0] * 6)[1]  # the same partition at any moments
    for name, idx in classes.items():
        def class_sum(*m, _idx=idx):
            moments = [m[2 * j] + 1j * m[2 * j + 1] for j in range(6)]
            return theory.fourfold_terms(*moments)[0][_idx].sum(axis=0).real
        yield (f"fourfold {name}", res[f"{name}_terms"], jackknife_se(class_sum, *parts))

    for G in (1.0, 0.01):
        arms = bell_cache(G, reps)
        moments = stokes_moments(arms)
        e1p, e1m, e2p, e2m = polarized_arms(arms, math.pi / 8, math.pi / 8)
        v1p, _, v2p, _ = polarized_arms(bell_cache(0.0, reps), math.pi / 8, math.pi / 8)
        num, den = chsh_numerator_denominator(e1p, e1m, e2p, e2m)
        yield (f"E at G={G}",
               estimators.chsh_coefficient(moments, _chsh_weights(math.pi / 8, math.pi / 8)),
               jackknife_se(lambda a, b: a / b, num, den))

        x1, x2 = np.abs(e1p) ** 2, np.abs(e2p) ** 2
        yield (f"rho at G={G}", correlation_coefficient(e1p, e2p, v1p, v2p), jackknife_se(
            lambda a, b, aa, bb, ab: (ab - a * b) / np.sqrt((aa - a * a - 0.25)
                                                            * (bb - b * b - 0.25)),
            x1, x2, x1 ** 2, x2 ** 2, x1 * x2))

        # B's numerator, the signed sum over its settings, over E's denominator
        b_num = sum(sign * chsh_numerator_denominator(*polarized_arms(arms, t1, t2))[0]
                    for t1, t2, sign in CHSH_SETTINGS)
        yield (f"B at G={G}", estimators.chsh_coefficient(moments, _B_WEIGHTS),
               jackknife_se(lambda n, d: n / d, b_num, den))


def test_delta_method_se_matches_jackknife(twin_cache, bell_cache):
    cases = list(_delta_and_jackknife_cases(twin_cache, bell_cache))
    assert len(cases) == 11
    for name, est, reference in cases:
        assert est.std_error == pytest.approx(reference, rel=0.01), name


def test_fourfold_direct_se_matches_jackknife_of_raw_moments(twin_cache):
    # The direct term is a function of raw intensity moments, so its error
    # must count the estimated means: the centred-product SE is 2.5-3% off.
    es, ei = twin_cache(1.0, 1.0, 200_000)
    xs, xi = np.abs(es) ** 2, np.abs(ei) ** 2

    def direct(a, b, aa, ab, bb, aab, abb, aabb):  # <(xs - a)^2 (xi - b)^2>
        return (aabb - 2 * b * aab - 2 * a * abb + b * b * aa + a * a * bb
                + 4 * a * b * ab - 3 * a * a * b * b)

    cols = (xs, xi, xs * xs, xs * xi, xi * xi, xs * xs * xi, xs * xi * xi,
            xs * xs * xi * xi)
    res = fourfold_covariance(es, ei)
    assert res["fourfold_direct"].value == pytest.approx(direct(*(c.mean() for c in cols)),
                                                         rel=1e-12)
    assert res["fourfold_direct"].std_error == pytest.approx(jackknife_se(direct, *cols),
                                                             rel=0.01)


def test_fourfold_memory_is_bounded_by_the_chunk(twin_cache):
    es, ei = twin_cache(1.0)
    tracemalloc.start()
    try:
        fourfold_covariance(es, ei)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
