"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Statistical tolerances are 5 estimated standard errors unless a criterion
states an absolute cap.  All runs are seeded and deterministic.
"""

import math
import time

import numpy as np
import pytest

from spdcsim.elements import GainParams, parametric_amplify
from spdcsim.estimators import intensity_snr
from spdcsim.experiments import ExperimentConfig, run_experiment
from spdcsim.sampling import RngStream, sample_vacuum
from spdcsim import cli, theory

from helpers import (bell_columns, comparable_text, correlation_coefficient, hom_fields,
                     mean_intensity, moment_theorem_residual, polarized_arms,
                     twin_columns)
from wick import centered_intensity_product, twin_beam_moment_table

GL_UNIT = math.asinh(1.0)
SEED = 42
R = 1_000_000


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_twin_beam_moments():
    start = time.perf_counter()
    report = run_experiment(ExperimentConfig(kind="twin", gl=GL_UNIT,
                                             reps=R, seed=SEED))
    elapsed = time.perf_counter() - start
    checks = []
    for row, oracle in zip(report.rows, (1.0, 2.0, 2.0)):
        checks.append((f"{row.name}={row.value:.4f}",
                       row.deviation_se < 5 and
                       abs(row.value - oracle) <= 0.02 * oracle))
    checks.append((f"runtime={elapsed:.1f}s", elapsed < 10.0))
    ok = all(c[1] for c in checks)
    _report(1, ok, "; ".join(c[0] for c in checks))


def test_criterion_2_detector_efficiency():
    es, ei = twin_columns(1.0, eta=0.5)
    report = run_experiment(ExperimentConfig(kind="twin", gl=GL_UNIT, eta=0.5,
                                             reps=R, seed=SEED))
    rows = {r.name: r for r in report.rows}
    ratio = rows["cov"].value / rows["var"].value
    ok = (rows["var"].deviation_se < 5 and rows["cov"].deviation_se < 5
          and abs(ratio - 2.0 / 3.0) <= 0.03 * (2.0 / 3.0))
    _report(2, ok, f"var={rows['var'].value:.4f} cov={rows['cov'].value:.4f} "
                   f"cov/var={ratio:.4f} (target 2/3 within 3%)")


def test_criterion_3_hom_null():
    details, ok = [], True
    for s2 in (0.01, 1.0, 10.0):
        gl = math.asinh(math.sqrt(s2))
        report = run_experiment(ExperimentConfig(kind="hom", gl=gl,
                                                 reps=R, seed=SEED))
        rows = {r.name: r for r in report.rows}
        cov = rows["cov_output"]
        amp = rows["dip_amplitude"]
        good = cov.deviation_se < 5 and abs(amp.value) < 0.02
        ok &= good
        details.append(f"S2={s2}: cov={cov.value:+.2e} ({cov.deviation_se:.1f} se), "
                       f"amp={amp.value:+.2e}")
    _report(3, ok, "; ".join(details))


def test_criterion_4_bell_correlation_law():
    arms, vacua = bell_columns(1.0), bell_columns(0.0)
    max_dev = 0.0
    ok = True
    for k in range(8):
        total = k * math.pi / 8.0
        theta = total / 2.0
        e1p, _, e2p, _ = polarized_arms(arms, theta, theta)
        v1p, _, v2p, _ = polarized_arms(vacua, theta, theta)
        est = correlation_coefficient(e1p, e2p, v1p, v2p)
        oracle = theory.bell_correlation(theta, theta)
        ok &= est.deviation(oracle) < 5
        max_dev = max(max_dev, abs(est.value - oracle))
    ok &= max_dev < 0.02
    _report(4, ok, f"8 angle sums, max |rho - sin^2| = {max_dev:.4f} (< 0.02)")


def test_criterion_5_chsh_gain_law():
    values = {}
    ok = True
    for G in (0.01, theory.CHSH_THRESHOLD_GAIN, 1.0, 10.0):
        report = run_experiment(ExperimentConfig(kind="bell", G=G, reps=R, seed=SEED))
        est = next(row for row in report.rows if row.name == "B")
        oracle = theory.chsh_b(G)
        ok &= abs(est.value - oracle) < 5 * est.std_error
        values[G] = est.value
    ok &= abs(values[theory.CHSH_THRESHOLD_GAIN] - 2.0) <= 0.02
    ok &= values[0.01] > 2.7
    ok &= values[10.0] < 1.05
    _report(5, ok, "; ".join(f"B({G:.4g})={v:.4f}" for G, v in values.items()))


def test_criterion_6_positivity():
    arms = bell_columns(1.0)
    e1p, e1m, _, _ = polarized_arms(arms, math.pi / 8.0, math.pi / 8.0)
    ip = np.abs(e1p) ** 2
    im = np.abs(e1m) ** 2
    raw_ok = np.abs(ip - im) <= (ip + im) * (1.0 + 1e-12)
    raw_fraction = float(np.mean(raw_ok))

    dp = ip - ip.mean()
    dm = im - im.mean()
    violations = np.abs(dp - dm) > (dp + dm)
    violation_fraction = float(np.mean(violations))

    ok = raw_fraction == 1.0 and violation_fraction > 0.0
    _report(6, ok, f"raw bound holds for {raw_fraction:.6%} of samples; "
                   f"mean-subtracted bound violated for {violation_fraction:.2%}")


def test_criterion_7_fourfold_covariance():
    # independent enumeration oracle, frozen before the estimator was built
    oracle = centered_intensity_product(["s", "s", "i", "i"],
                                        twin_beam_moment_table(GL_UNIT)).real
    assert oracle == pytest.approx(625.0 / 16.0, rel=1e-12)

    reps = 10_000_000
    ens = sample_vacuum(RngStream(SEED, 0), reps, 2)
    g = GainParams(GL_UNIT)
    es, ei = parametric_amplify(ens[:, 0], ens[:, 1], g.C, g.S)
    xs = np.abs(es) ** 2
    xi = np.abs(ei) ** 2
    ds = xs - xs.mean()
    di = xi - xi.mean()
    prod = ds * ds * di * di
    direct = prod.mean()
    se = prod.std(ddof=1) / math.sqrt(reps)
    dev = abs(direct - oracle) / se

    bunching = {}
    for s2 in (5.0, 10.0):
        a, b = twin_columns(s2)
        m_ss = np.mean(a * np.conj(a))
        m_ii = np.mean(np.conj(b) * b)
        bunching[s2] = float(abs(m_ss) ** 2 * abs(m_ii) ** 2)
    ratio = bunching[10.0] / bunching[5.0]
    expect = (10.5 / 5.5) ** 4
    ok = dev < 5 and abs(ratio - expect) <= 0.10 * expect
    _report(7, ok, f"direct={direct:.3f} vs exact {oracle:.4f} ({dev:.2f} se); "
                   f"bunching ratio={ratio:.2f} vs {expect:.2f}")


def test_criterion_8_multimode_hom(hom2d_curves):
    hom2d_curves, elapsed = hom2d_curves
    details = []
    ok = True

    amps0 = {}
    for target, curve in hom2d_curves.items():
        mid = len(curve.theta) // 2
        assert curve.theta[mid] == 0.0
        amps0[target] = curve.amplitude[mid]
    a_ok = all(abs(a) <= 0.05 for a in amps0.values())
    details.append("(a) amp(0)=" + ", ".join(f"{t}:{a:+.3f}" for t, a in amps0.items()))
    ok &= a_ok

    sigmas = [hom2d_curves[t].sigma_theta for t in (0.01, 0.1, 1.0, 10.0)]
    b_ok = (all(s is not None for s in sigmas)
            and all(np.diff(sigmas) >= 0)
            and sigmas[-1] / sigmas[0] < 3.0)
    details.append("(b) sigma=" + ", ".join(f"{s:.3f}" for s in sigmas)
                   + f" ratio={sigmas[-1] / sigmas[0]:.2f}")
    ok &= b_ok

    def wing_se(curve):
        return 0.5 * (curve.std_error[:4].mean() + curve.std_error[-4:].mean())

    c_ok = wing_se(hom2d_curves[0.01]) > wing_se(hom2d_curves[10.0])
    details.append(f"(c) wing se {wing_se(hom2d_curves[0.01]):.3f} vs "
                   f"{wing_se(hom2d_curves[10.0]):.3f}")
    ok &= c_ok

    details.append(f"runtime={elapsed:.1f}s")
    ok &= elapsed < 600
    _report(8, ok, "; ".join(details))


def test_criterion_9_snr_scaling():
    es_high, _ = twin_columns(10.0)
    snr_high = intensity_snr(es_high)
    high_ok = abs(snr_high - 1.0) <= 0.10

    es_low, _ = twin_columns(0.01)
    snr_low = intensity_snr(es_low)
    low_factor = snr_low / 0.01
    low_ok = 1.0 / 1.5 <= low_factor <= 1.5

    es, _ = twin_columns(1.0)
    snr_1k = mean_intensity(es[:1000])
    snr_4k = mean_intensity(es[:4000])
    growth = (snr_4k.value / snr_4k.std_error) / (snr_1k.value / snr_1k.std_error)
    growth_ok = abs(growth - 2.0) <= 0.4

    ok = high_ok and low_ok and growth_ok
    _report(9, ok, f"SNR(S2=10)={snr_high:.3f} (1 within 10%: {high_ok}); "
                   f"SNR(S2=0.01)={snr_low:.5f} = {low_factor:.2f} x S^2 "
                   f"(within x1.5: {low_ok}); "
                   f"ensemble SNR growth R->4R = {growth:.2f} (2 within 20%: {growth_ok})")


def test_criterion_10_moment_theorem():
    residuals = {}
    es, ei = twin_columns(1.0)
    residuals["twin"] = moment_theorem_residual(es, ei).deviation(0.0)
    d1, d2 = twin_columns(1.0, eta=0.5)
    residuals["twin_eta"] = moment_theorem_residual(d1, d2).deviation(0.0)
    for s2 in (0.01, 1.0, 10.0):
        gl = math.asinh(math.sqrt(s2))
        _, _, e1, e2 = hom_fields(ExperimentConfig(kind="hom", gl=gl,
                                                   reps=R, seed=SEED))
        residuals[f"hom_{s2}"] = moment_theorem_residual(e1, e2).deviation(0.0)
    for G in (0.01, 1.0, 10.0):
        arms = bell_columns(G)
        e1p, _, e2p, _ = polarized_arms(arms, math.pi / 8.0, math.pi / 8.0)
        residuals[f"bell_{G}"] = moment_theorem_residual(e1p, e2p).deviation(0.0)
    ok = all(v < 5 for v in residuals.values())
    _report(10, ok, "; ".join(f"{k}={v:.2f}" for k, v in residuals.items()))


def test_criterion_11_reproducibility(tmp_path):
    base = ["twin", "--gain-gl", f"{GL_UNIT}", "--reps", "1e6", "--seed", "42"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    j1 = tmp_path / "a.json"
    j2 = tmp_path / "b.json"
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b)]) == 0
    assert cli.main(base + ["--threads", "8", "--out", str(c)]) == 0
    assert cli.main(base + ["--format", "json", "--out", str(j1)]) == 0
    assert cli.main(base + ["--format", "json", "--out", str(j2)]) == 0
    same_seed = a.read_bytes() == b.read_bytes()
    same_threads = a.read_bytes() == c.read_bytes()
    same_json = comparable_text(j1) == comparable_text(j2)
    ok = same_seed and same_threads and same_json
    _report(11, ok, f"rerun identical: {same_seed}; threads 1 vs 8 identical: "
                    f"{same_threads}; json (sans timestamps) identical: {same_json}")
