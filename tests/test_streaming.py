"""The twin, hom, bell and fourfold pipelines stream fixed row chunks: their
memory does not grow with reps, and neither chunking nor threads change a
result."""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from spdcsim.elements import (DetectorParams, beam_split, detector_loss,
                              parametric_amplify)
from spdcsim.estimators import (CHUNK_ROWS, PASS_ROWS, chsh_coefficient,
                                correlation_coefficient, covariance_intensity,
                                fourfold_covariance, mean_intensity,
                                variance_intensity)
from spdcsim.experiments import (ExperimentConfig, _chunk_reducer, bell_arms,
                                 hom_fields, polarized_arms, run_experiment,
                                 twin_fields)
from spdcsim.reporting import VOLATILE_METADATA
from spdcsim.sampling import LANE_STRIDE, RngStream, sample_vacuum

from helpers import chsh_b_estimate

#: Not a multiple of the chunk, so the last chunk is a short one.
REPS = 2 * CHUNK_ROWS + 777

CONFIGS = {
    "twin": ExperimentConfig(kind="twin", eta=0.5),
    "hom": ExperimentConfig(kind="hom", transmittance=0.3),
    "bell": ExperimentConfig(kind="bell"),
    "fourfold": ExperimentConfig(kind="fourfold"),
}


def _peak_bytes(config):
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", CONFIGS)
def test_peak_memory_does_not_grow_with_reps(kind):
    small = _peak_bytes(replace(CONFIGS[kind], reps=2 ** 17))
    large = _peak_bytes(replace(CONFIGS[kind], reps=2 ** 19))
    assert large <= 1.1 * small, (small, large)


@pytest.mark.parametrize("kind", ["twin", "hom", "bell", "fourfold"])
def test_reports_do_not_depend_on_threads(kind):
    reports = [run_experiment(replace(CONFIGS[kind], reps=REPS, threads=n))
               for n in (1, 3)]
    assert reports[0].rows == reports[1].rows
    metadata = [{k: v for k, v in r.metadata.items()
                 if k not in (*VOLATILE_METADATA, "threads")} for r in reports]
    assert metadata[0] == metadata[1]


@pytest.mark.parametrize("kind", CONFIGS)
def test_a_warm_chunk_allocates_less_than_one_pass_field(kind):
    # every array of a pass is a buffer of the worker's kept state, so once
    # one chunk has made them, the next chunk allocates none of pass size
    reduce = _chunk_reducer(CONFIGS[kind], SimpleNamespace())
    reduce(0, CHUNK_ROWS)
    tracemalloc.start()
    try:
        reduce(CHUNK_ROWS, CHUNK_ROWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PASS_ROWS * np.dtype(np.complex128).itemsize, peak


def _whole_lane(config, lane, modes):
    return sample_vacuum(RngStream(config.seed, lane * LANE_STRIDE), config.reps, modes)


def test_whole_column_helpers_equal_one_draw_of_each_lane():
    twin = replace(CONFIGS["twin"], reps=REPS)
    ens, vac = _whole_lane(twin, 0, 2), _whole_lane(twin, 1, 2)
    es, ei = parametric_amplify(ens[:, 0], ens[:, 1], twin.gain)
    det = DetectorParams(twin.eta)
    expect = (detector_loss(es, det, vac[:, 0]), detector_loss(ei, det, vac[:, 1]))
    for got, want in zip(twin_fields(twin), expect, strict=True):
        np.testing.assert_array_equal(got, want)

    hom = replace(CONFIGS["hom"], reps=REPS)
    ens = _whole_lane(hom, 0, 2)
    es, ei = parametric_amplify(ens[:, 0], ens[:, 1], hom.gain)
    expect = (es, ei, *beam_split(es, ei, hom.splitter))
    for got, want in zip(hom_fields(hom), expect, strict=True):
        np.testing.assert_array_equal(got, want)

    bell = replace(CONFIGS["bell"], reps=REPS)
    ens = _whole_lane(bell, 0, 4)
    e1x, e2y = parametric_amplify(ens[:, 0], ens[:, 1], bell.gain)
    e1y, e2x = parametric_amplify(ens[:, 2], ens[:, 3], bell.gain)
    for got, want in zip(bell_arms(bell), (e1x, e1y, e2x, e2y), strict=True):
        np.testing.assert_array_equal(got, want)


def _whole_column_estimates(config):
    """The report's statistics from the whole-column API, in report order."""
    if config.kind == "twin":
        es, ei = twin_fields(config)
        return [mean_intensity(es), variance_intensity(es), covariance_intensity(es, ei)]
    if config.kind == "hom":
        es, ei, e1, e2 = hom_fields(config)
        return [covariance_intensity(es, ei), covariance_intensity(e1, e2)]
    if config.kind == "bell":
        arms = bell_arms(config)
        e1p, e1m, e2p, e2m = polarized_arms(arms, config.theta1, config.theta2)
        return [correlation_coefficient(e1p, e2p), chsh_coefficient(e1p, e1m, e2p, e2m),
                chsh_b_estimate(arms)]
    es, ei = twin_fields(replace(config, kind="twin"))
    res = fourfold_covariance(es, es, ei, ei)
    return [res.direct, res.terms_total,
            *(res.class_estimates[name] for name in ("bunching", "low_gain", "mixed"))]


@pytest.mark.parametrize("kind", CONFIGS)
def test_streamed_reports_equal_the_whole_column_api(kind):
    # Values are means of the same chunks, merged in the same order, so they
    # agree exactly.  A pipeline stacks several statistics' features in one
    # Gram matrix, and BLAS may sum an entry in another order for another
    # matrix shape, so standard errors agree to rounding.
    config = replace(CONFIGS[kind], reps=REPS)
    rows = run_experiment(config).rows
    estimates = _whole_column_estimates(config)
    for row, est in zip(rows, estimates):
        assert row.value == est.value, row.name
        assert row.std_error == pytest.approx(est.std_error, rel=1e-12, abs=0), row.name
    assert len(estimates) == len(rows) - (kind == "hom")  # hom's dip has no column API


#: (statistic, mc_value, mc_se) of each report at seed 42 and REPS, recorded
#: when every chunk was drawn and reduced in one piece.  REPS crosses chunk
#: and pass boundaries, so a change to how either is cut or merged shows here.
PINNED_ROWS = {
    "twin": [
        ("mean", 0.49851193825292783, 0.0027583663247136444),
        ("var", 0.7531842948730016, 0.007808637726281166),
        ("cov", 0.5029086626831833, 0.005326563974922267),
    ],
    "hom": [
        ("cov_input", 2.0057224340885957, 0.01612473422939213),
        ("cov_output", 0.32465774424305605, 0.011217630665203197),
        ("dip_amplitude", 0.16001958345464734, 0.0005032997051703038),
    ],
    "bell": [
        ("rho", 0.49950877991807047, 0.0032434843058720426),
        ("E", -0.0008161690508127147, 0.002193863297112834),
        ("B", 1.4166188015665022, 0.003771485783788089),
    ],
    "fourfold": [
        ("fourfold_direct", 38.303751513442066, 1.2180719726489913),
        ("fourfold_terms_total", 39.08955023309615, 0.43506860845037704),
        ("bunching_terms", 5.067796633258253, 0.05430242367423305),
        ("low_gain_terms", 16.007896351869114, 0.18201397134312441),
        ("mixed_terms", 18.013857247968783, 0.1988364611433531),
    ],
}


@pytest.mark.parametrize("kind", CONFIGS)
def test_streamed_reports_are_pinned(kind):
    # A value is a function of the feature means alone, so it is exact; a
    # standard error also goes through the BLAS Gram matrix, so it agrees
    # to rounding.
    rows = run_experiment(replace(CONFIGS[kind], reps=REPS)).rows
    assert [row.name for row in rows] == [name for name, _, _ in PINNED_ROWS[kind]]
    for row, (name, value, se) in zip(rows, PINNED_ROWS[kind]):
        assert row.value == value, name
        assert row.std_error == pytest.approx(se, rel=1e-12, abs=0), name
