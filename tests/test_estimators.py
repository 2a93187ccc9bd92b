import math
import tracemalloc

import numpy as np
import pytest

from spdcsim import theory
from spdcsim.elements import BeamSplitterParams, GainParams, beam_split, parametric_amplify
from spdcsim.estimators import (CHUNK_ROWS, DegenerateStatisticError, FourfoldPlan,
                                chsh_coefficient, chsh_features,
                                correlation_coefficient, correlation_features,
                                covariance_intensity, feature_moments,
                                field_pair_moment, fourfold_covariance,
                                gaussian_moment_check, intensity_products,
                                intensity_snr, jackknife_se, mean_intensity,
                                moment_theorem_residual, variance_intensity)
from spdcsim.experiments import ExperimentConfig, polarized_arms, run_experiment
from spdcsim.sampling import RngStream, sample_vacuum

from helpers import chsh_b_estimate
from wick import centered_intensity_product, twin_beam_moment_table

GL_UNIT = math.asinh(1.0)


def _twin(reps=1_000_000, seed=42, gl=GL_UNIT):
    ens = sample_vacuum(RngStream(seed, 0), reps, 2)
    return parametric_amplify(ens[:, 0], ens[:, 1], GainParams(gl))


def _vacuum(reps=1_000_000, seed=11, modes=2):
    return sample_vacuum(RngStream(seed, 0), reps, modes)


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
    e1, e2 = beam_split(es, ei, BeamSplitterParams.balanced())
    assert covariance_intensity(e1, e2).deviation(0.0) < 5


def test_correlation_coefficient_oracles(twin_cache, bell_cache):
    es, ei = twin_cache(1.0)
    rho = correlation_coefficient(es, ei)
    assert rho.deviation(1.0) < 5

    arms = bell_cache(1.0)
    theta = math.pi / 8
    e1p, _, e2p, _ = polarized_arms(arms, theta, theta)
    assert correlation_coefficient(e1p, e2p).deviation(0.5) < 5

    e1p, _, e2p, _ = polarized_arms(arms, theta, -theta)
    assert correlation_coefficient(e1p, e2p).deviation(0.0) < 5


def test_hom_dip_degenerate_without_input_coherence():
    # at G = 0 the dip ratio's denominator |<Es Ei*>|^2 + |<Es Ei>|^2 is 0
    with pytest.raises(DegenerateStatisticError):
        run_experiment(ExperimentConfig(kind="hom", G=0.0, reps=20_000))


def test_correlation_degenerate_on_vacuum():
    vac = _vacuum(reps=10_000)
    with pytest.raises(DegenerateStatisticError):
        correlation_coefficient(vac[:, 0], vac[:, 1])


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
    assert gaussian_moment_check(es, ei) < 5
    vac = _vacuum()
    assert gaussian_moment_check(vac[:, 0], vac[:, 1]) < 5
    e1, e2 = beam_split(es, ei, BeamSplitterParams.balanced())
    assert gaussian_moment_check(e1, e2) < 5


def test_input_validation():
    vac = _vacuum(reps=100)
    with pytest.raises(ValueError):
        mean_intensity(vac[:1, 0])
    with pytest.raises(ValueError):
        covariance_intensity(vac[:, 0], vac[:50, 1])
    with pytest.raises(ValueError):
        moment_theorem_residual(vac, vac)


def test_chsh_coefficient_oracles(bell_cache):
    arms = bell_cache(1.0)
    # theta1 + theta2 = pi/2: E -> (1+G)/(1+3G) = 0.5
    cols = polarized_arms(arms, math.pi / 4, math.pi / 4)
    est = chsh_coefficient(*cols)
    assert est.deviation(0.5) < 5

    # near the zero-gain limit the equal-angles setting gives E -> 0
    arms_low = bell_cache(0.01)
    cols = polarized_arms(arms_low, math.pi / 8, math.pi / 8)
    est = chsh_coefficient(*cols)
    assert est.deviation(0.0) < 5


def test_chsh_degenerate_denominator():
    vac = _vacuum(reps=50_000, modes=4)
    with pytest.raises(DegenerateStatisticError):
        chsh_coefficient(*(vac[:, k] for k in range(4)))

    # at gL = 0.01 the intensity-product denominator is itself consistent
    # with zero at this sample size, which the contract rejects
    ens = sample_vacuum(RngStream(5, 0), 200_000, 4)
    es1, ei1 = parametric_amplify(ens[:, 0], ens[:, 1], GainParams(0.01))
    es2, ei2 = parametric_amplify(ens[:, 2], ens[:, 3], GainParams(0.01))
    arms = (es1, es2, ei1, ei2)
    with pytest.raises(DegenerateStatisticError):
        chsh_coefficient(*polarized_arms(arms, math.pi / 8, math.pi / 8))


def test_fourfold_against_independent_enumeration(twin_cache):
    es, ei = twin_cache(1.0)
    res = fourfold_covariance(es, es, ei, ei)
    oracle = centered_intensity_product(
        ["s", "s", "i", "i"], twin_beam_moment_table(GL_UNIT)).real
    assert oracle == pytest.approx(39.0625)
    assert res.direct.deviation(oracle) < 5
    assert res.terms_total.deviation(oracle) < 5
    assert sorted(len(v) for v in res.term_classes.values()) == [1, 4, 4]


def test_fourfold_independent_vacua():
    vac = _vacuum(reps=1_000_000, modes=4)
    res = fourfold_covariance(*(vac[:, k] for k in range(4)))
    assert res.direct.deviation(0.0) < 5


def test_fourfold_bunching_scaling(twin_cache):
    # ratio of bunching terms from symmetric pair moments across two gains
    vals = {}
    for s2 in (5.0, 10.0):
        es, ei = twin_cache(s2)
        res = fourfold_covariance(es, es, ei, ei)
        vals[s2] = res.class_estimates["bunching"].value
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


def test_intensity_snr_values(twin_cache):
    es, _ = twin_cache(10.0)
    snr = intensity_snr(es)
    # thermal statistics: mean/std of sampled intensity = S^2/(S^2 + 1/2)
    assert snr == pytest.approx(10.0 / 10.5, rel=0.02)


def test_chunked_moments_equal_numpy_over_several_chunks():
    rng = np.random.default_rng(3)
    n = 3 * CHUNK_ROWS + 1234
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
    xa, xb = np.abs(a) ** 2, np.abs(b) ** 2
    i1p, i1m, i2p, i2m = (np.abs(col) ** 2 - 0.5 for col in (a, b, c, d))
    pairs = [a * np.conj(a), np.conj(b) * b, a * b]
    return {
        "intensity_products": (lambda **kw: intensity_products(a, b, **kw),
                               [xa, xb, xa * xb]),
        "correlation_features": (lambda **kw: correlation_features(a, b, **kw),
                                 [xa, xb, xa * xb, xa ** 2, xb ** 2]),
        "chsh_features": (lambda **kw: chsh_features(a, b, c, d, **kw),
                          [i1p * i2p + i1m * i2m - i1p * i2m - i1m * i2p,
                           i1p * i2p + i1m * i2m + i1p * i2m + i1m * i2p]),
        "fourfold": (lambda **kw: FourfoldPlan((0, 0, 1, 1)).features(a, b, **kw),
                     [xa, xb, xa * xa, xa * xb, xb * xb, xa * xa * xb, xa * xb * xb,
                      xa * xa * xb * xb, *(part for p in pairs for part in (p.real, p.imag))]),
    }


@pytest.mark.parametrize("name", ["intensity_products", "correlation_features",
                                  "chsh_features", "fourfold"])
def test_feature_rows_equal_their_reference_expressions(name):
    ens = sample_vacuum(RngStream(9, 0), 3000, 4) * 3.0
    features, expect = _reference_features(*ens.T)[name]
    expect = np.array(expect).view(np.uint64)
    np.testing.assert_array_equal(features().view(np.uint64), expect)
    out = np.full(expect.shape, np.nan)
    scratch = {"chsh_features": np.empty((4, 3000)),
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

    e1, e2 = beam_split(es, ei, BeamSplitterParams.balanced())
    parts = [p for c in (e1 * np.conj(e2), e1 * e2, cross, pair) for p in (c.real, c.imag)]
    report = run_experiment(ExperimentConfig(kind="hom", gl=GL_UNIT, reps=reps))
    dip = next(r for r in report.rows if r.name == "dip_amplitude")
    yield ("hom dip", dip, jackknife_se(
        lambda *m: sum(v ** 2 for v in m[:4]) / sum(v ** 2 for v in m[4:]), *parts))

    res = fourfold_covariance(es, es, ei, ei)
    pm = [es * np.conj(es), np.conj(ei) * ei, es * ei, es * ei, es * ei, es * ei]
    parts = [p for c in pm for p in (c.real, c.imag)]
    for name, idx in res.term_classes.items():
        def class_sum(*m, _idx=idx):
            moments = [m[2 * j] + 1j * m[2 * j + 1] for j in range(6)]
            return theory.fourfold_terms(*moments)[0][_idx].sum(axis=0).real
        yield (f"fourfold {name}", res.class_estimates[name], jackknife_se(class_sum, *parts))

    for G in (1.0, 0.01):
        arms = bell_cache(G, reps)
        e1p, e1m, e2p, e2m = polarized_arms(arms, math.pi / 8, math.pi / 8)
        i1p, i1m, i2p, i2m = (np.abs(c) ** 2 - 0.5 for c in (e1p, e1m, e2p, e2m))
        num = i1p * i2p + i1m * i2m - i1p * i2m - i1m * i2p
        den = i1p * i2p + i1m * i2m + i1p * i2m + i1m * i2p
        yield (f"E at G={G}", chsh_coefficient(e1p, e1m, e2p, e2m),
               jackknife_se(lambda a, b: a / b, num, den))

        x1, x2 = np.abs(e1p) ** 2, np.abs(e2p) ** 2
        yield (f"rho at G={G}", correlation_coefficient(e1p, e2p), jackknife_se(
            lambda a, b, aa, bb, ab: (ab - a * b) / np.sqrt((aa - a * a - 0.25)
                                                            * (bb - b * b - 0.25)),
            x1, x2, x1 ** 2, x2 ** 2, x1 * x2))

        a, ap, b, bp = theory.CHSH_ANGLES
        cols = []
        for t1, t2 in ((ap, b), (ap, bp), (a, bp), (a, b)):
            i1p, i1m, i2p, i2m = (np.abs(c) ** 2 - 0.5 for c in polarized_arms(arms, t1, t2))
            cols += [i1p * i2p + i1m * i2m - i1p * i2m - i1m * i2p,
                     i1p * i2p + i1m * i2m + i1p * i2m + i1m * i2p]
        yield (f"B at G={G}", chsh_b_estimate(arms), jackknife_se(
            lambda n1, d1, n2, d2, n3, d3, n4, d4: n1 / d1 + n2 / d2 + n3 / d3 - n4 / d4,
            *cols))


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
    res = fourfold_covariance(es, es, ei, ei)
    assert res.direct.value == pytest.approx(direct(*(c.mean() for c in cols)), rel=1e-12)
    assert res.direct.std_error == pytest.approx(jackknife_se(direct, *cols), rel=0.01)


def test_fourfold_memory_is_bounded_by_the_chunk(twin_cache):
    es, ei = twin_cache(1.0)
    tracemalloc.start()
    try:
        fourfold_covariance(es, es, ei, ei)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
