"""The twin, hom, bell and fourfold pipelines stream fixed row chunks: their
memory does not grow with reps, and neither chunking nor threads change a
result."""

import math
import threading
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from spdcsim.elements import beam_split, detector_loss, parametric_amplify, polarizer_project
from spdcsim import experiments
from spdcsim.estimators import CHUNK_ROWS, FeatureMoments, merge_moments
from spdcsim.experiments import ExperimentConfig, _chunk_reducer, run_experiment
from spdcsim.sampling import LANE_STRIDE, RngStream, sample_vacuum

from helpers import (VOLATILE_METADATA, bell_arms, chsh_b_estimate, chsh_coefficient,
                     correlation_coefficient, covariance_intensity,
                     fourfold_covariance, hom_fields, mean_intensity, polarized_arms,
                     twin_fields, variance_intensity)

#: Not a multiple of the chunk, so the last chunk is a short one.
REPS = 8 * CHUNK_ROWS + 777

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


class _ThirdChunk(Exception):
    pass


@pytest.mark.parametrize("threads", [1, 2])
def test_chunks_are_made_as_they_are_reduced(threads, monkeypatch):
    # 10**10 reps are 610352 chunks: a list of them alone takes 15 MB, and
    # so do futures submitted for all of them at once
    lock = threading.Lock()
    calls = []

    def fake_reducer(config, kept):
        def reduce(row0, rows):
            with lock:
                calls.append(row0)
                if len(calls) == 3:
                    raise _ThirdChunk
            return FeatureMoments(rows, np.zeros(1), np.zeros((1, 1)))
        return reduce

    monkeypatch.setattr(experiments, "_chunk_reducer", fake_reducer)
    config = replace(CONFIGS["twin"], reps=10 ** 10, threads=threads)
    tracemalloc.start()
    try:
        with pytest.raises(_ThirdChunk):
            run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # the two chunks merged before the failing one, and at most two a
    # worker in flight
    assert len(calls) <= 2 + 2 * threads, len(calls)


@pytest.mark.parametrize("kind,lanes", [("twin", 2), ("hom", 1), ("bell", 1), ("fourfold", 1)])
def test_a_chunk_draws_each_vacuum_lane_once(kind, lanes, monkeypatch):
    draws = []

    def counted(rng, reps, modes, kept=None):
        draws.append((rng.stream_id, reps))
        return sample_vacuum(rng, reps, modes, kept)

    monkeypatch.setattr(experiments, "sample_vacuum", counted)
    _chunk_reducer(CONFIGS[kind], SimpleNamespace())(CHUNK_ROWS, CHUNK_ROWS)
    assert draws == [(lane * LANE_STRIDE + CHUNK_ROWS, CHUNK_ROWS) for lane in range(lanes)]


@pytest.mark.parametrize("theta1,theta2", [(math.pi / 8, math.pi / 8), (0.3, 1.1),
                                           (0.0, math.pi / 4)])
def test_a_bell_chunk_projects_four_fields_whatever_the_angles(theta1, theta2, monkeypatch):
    # rho's two outputs and their input vacua; E and B come from the Stokes
    # products of the unprojected fields
    angles = []

    def counted(e_x, e_y, theta, **kwargs):
        angles.append(theta)
        return polarizer_project(e_x, e_y, theta, **kwargs)

    monkeypatch.setattr(experiments, "polarizer_project", counted)
    config = replace(CONFIGS["bell"], theta1=theta1, theta2=theta2)
    _chunk_reducer(config, SimpleNamespace())(0, CHUNK_ROWS)
    assert angles == [theta1, theta2, theta1, theta2]


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
    # every array of a chunk is a buffer of the worker's kept state, so once
    # one chunk has made them, the next chunk allocates none of chunk size
    reduce = _chunk_reducer(CONFIGS[kind], SimpleNamespace())
    reduce(0, CHUNK_ROWS)
    tracemalloc.start()
    try:
        reduce(CHUNK_ROWS, CHUNK_ROWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < CHUNK_ROWS * np.dtype(np.complex128).itemsize, peak


def _whole_lane(config, lane, modes):
    return sample_vacuum(RngStream(config.seed, lane * LANE_STRIDE), config.reps, modes)


def test_whole_column_helpers_equal_one_draw_of_each_lane():
    twin = replace(CONFIGS["twin"], reps=REPS)
    ens, vac = _whole_lane(twin, 0, 2), _whole_lane(twin, 1, 2)
    es, ei = parametric_amplify(ens[:, 0], ens[:, 1], twin.gain.C, twin.gain.S)
    expect = (detector_loss(es, twin.eta, vac[:, 0]), detector_loss(ei, twin.eta, vac[:, 1]))
    for got, want in zip(twin_fields(twin), expect, strict=True):
        np.testing.assert_array_equal(got, want)

    hom = replace(CONFIGS["hom"], reps=REPS)
    ens = _whole_lane(hom, 0, 2)
    es, ei = parametric_amplify(ens[:, 0], ens[:, 1], hom.gain.C, hom.gain.S)
    expect = (es, ei, *beam_split(es, ei, hom.transmittance))
    for got, want in zip(hom_fields(hom), expect, strict=True):
        np.testing.assert_array_equal(got, want)

    bell = replace(CONFIGS["bell"], reps=REPS)
    ens = _whole_lane(bell, 0, 4)
    e1x, e2y = parametric_amplify(ens[:, 0], ens[:, 1], bell.gain.C, bell.gain.S)
    e1y, e2x = parametric_amplify(ens[:, 2], ens[:, 3], bell.gain.C, bell.gain.S)
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
        v1p, _, v2p, _ = polarized_arms(bell_arms(replace(config, G=0.0)),
                                        config.theta1, config.theta2)
        return [correlation_coefficient(e1p, e2p, v1p, v2p),
                chsh_coefficient(e1p, e1m, e2p, e2m),
                chsh_b_estimate(arms, config.theta1, config.theta2)]
    es, ei = twin_fields(replace(config, kind="twin"))
    res = fourfold_covariance(es, ei)
    return [res[name] for name in ("fourfold_direct", "fourfold_terms_total",
                                   "bunching_terms", "low_gain_terms", "mixed_terms")]


@pytest.mark.parametrize("kind", CONFIGS)
def test_streamed_reports_equal_the_whole_column_api(kind):
    # Values are means of the same chunks, merged in the same order, so they
    # agree exactly.  A pipeline stacks several statistics' features in one
    # Gram matrix, and BLAS may sum an entry in another order for another
    # matrix shape, so standard errors agree to rounding.  Bell's E and B
    # come from the Stokes tensor, their references from fields projected at
    # every setting and an exact gradient: both the values and the standard
    # errors, whose complex-step gradient is exact too, agree to rounding.
    config = replace(CONFIGS[kind], reps=REPS)
    rows = run_experiment(config).rows
    estimates = _whole_column_estimates(config)
    for row, est in zip(rows, estimates):
        if kind == "bell" and row.name in ("E", "B"):
            assert abs(row.value - est.value) <= 1e-12 * est.std_error, row.name
            assert row.std_error == pytest.approx(est.std_error, rel=1e-12, abs=0), row.name
            continue
        assert row.value == est.value, row.name
        assert row.std_error == pytest.approx(est.std_error, rel=1e-12, abs=0), row.name
    assert len(estimates) == len(rows) - (kind == "hom")  # hom's dip has no column API


@pytest.mark.parametrize("kind", CONFIGS)
def test_reports_merged_in_reverse_chunk_order_keep_their_standard_errors(kind, monkeypatch):
    # The merge order moves each mean by rounding alone.  The delta-method
    # gradient is exact to rounding, so every standard error moves by no
    # more than its value does.
    config = replace(CONFIGS[kind], reps=REPS)
    forward = run_experiment(config).rows
    monkeypatch.setattr(experiments, "merge_moments",
                        lambda chunks: merge_moments(reversed(list(chunks))))
    reverse = run_experiment(config).rows
    assert [row.name for row in reverse] == [row.name for row in forward]
    for back, row in zip(reverse, forward):
        assert abs(back.value - row.value) <= 1e-12 * row.std_error, row.name
        assert back.std_error == pytest.approx(row.std_error, rel=1e-13, abs=0), row.name


#: (statistic, mc_value, mc_se, oracle) of each report at seed 42 and
#: REPS, recorded with 16384-row chunks, each drawn and reduced in one
#: piece, and one Philox key per 2**14 words of rows.  REPS crosses chunk
#: boundaries, so a change to how chunks are cut or merged shows here.
#: Bell's E and B are the weighted Stokes products over their one
#: denominator.  The standard errors were re-recorded when the delta-method
#: gradient became a complex step, exact to rounding: the central
#: difference's rounding had moved them by up to 3.0e-10 relative (hom's
#: dip).  The fourfold rows were re-recorded from the closed-form classes
#: of detectors (s, s, i, i) and the raw-moment polynomial of the direct
#: term: the direct term, the terms' total and the low-gain class moved by
#: 5.1e-15, 1.7e-14 and 9.9e-15 SE.  Every other value kept its bits.  The
#: oracles are pinned exactly, as recorded with the earlier splitter
#: dataclass: hom runs at T = 0.3, so its three oracles pin the splitter's
#: amplitudes bit for bit.
PINNED_ROWS = {
    "twin": [
        ("mean", 0.4955902047134543, 0.002732691867099751, 0.5),
        ("var", 0.7345962306168154, 0.007636600961193972, 0.75),
        ("cov", 0.4933263066326145, 0.005227267745337304, 0.5),
    ],
    "hom": [
        ("cov_input", 1.9815751488416011, 0.01623956826500664, 1.9999999999999996),
        ("cov_output", 0.3048788248759421, 0.011188637949723544, 0.3200000000000002),
        ("dip_amplitude", 0.15993827243652606, 0.0005059736610195629, 0.16000000000000011),
    ],
    "bell": [
        ("rho", 0.49952870626492396, 0.003260492103914201, 0.4999999999999999),
        ("E", -0.003205137583291089, 0.0021555098836046243, -1.1102230246251565e-16),
        ("B", 1.4105496258810606, 0.0038299444594635254, 1.4142135623730951),
    ],
    "fourfold": [
        ("fourfold_direct", 38.697479304388644, 1.3976205149408574, 39.06249999999999),
        ("fourfold_terms_total", 38.80915397645816, 0.4301949358987393, 39.06249999999999),
        ("bunching_terms", 5.026463978385682, 0.05366398299117934, 5.0625),
        ("low_gain_terms", 15.90192399974436, 0.18003076117885217, 15.999999999999995),
        ("mixed_terms", 17.880765998328126, 0.1965829316849065, 17.999999999999996),
    ],
}


@pytest.mark.parametrize("kind", CONFIGS)
def test_streamed_reports_are_pinned(kind):
    # A value is a function of the feature means alone, so it is exact, and
    # so is an oracle; a standard error also goes through the BLAS Gram
    # matrix, so it agrees to rounding.
    rows = run_experiment(replace(CONFIGS[kind], reps=REPS)).rows
    assert [row.name for row in rows] == [name for name, *_ in PINNED_ROWS[kind]]
    for row, (name, value, se, oracle) in zip(rows, PINNED_ROWS[kind]):
        assert row.value == value, name
        assert row.std_error == pytest.approx(se, rel=1e-12, abs=0), name
        assert row.oracle == oracle, name
