"""Tests of the benchmark's own code: span arithmetic, tracing, checks and
the result line.  Run with ``python3 -m pytest perfbench/tests``."""

import json
import math

import pytest

import child
import run
from checks import WORKLOADS, check_run, read_json
from layers import layer_metrics, self_times, top_self_times


def span(name, start, end, parent=None, work=None):
    return [name, start, end, parent, work]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("experiments.run_experiment", 0.0, 10.0),
        span("sampling.sample_vacuum", 1.0, 4.0, parent=0),
        span("sampling.raw_words", 2.0, 3.0, parent=1),
        span("estimators.jackknife_se", 5.0, 6.5, parent=0),
        span("reporting.emit_results", 10.5, 11.0),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5, 0.5])
    # self times of all spans add up to the time covered by root spans
    assert sum(self_times(spans)) == pytest.approx(10.5)


def test_layer_metrics_from_nested_spans():
    spans = [
        span("experiments.run_experiment", 0.0, 10.0),
        span("multimode.calibrate_gain", 0.0, 1.0, parent=0),
        span("multimode.build_kernel", 0.1, 0.2, parent=1),
        span("multimode.build_kernel", 0.3, 0.4, parent=1),
        span("multimode.run_hom2d", 1.0, 9.0, parent=0),
        span("multimode.build_kernel", 1.0, 1.5, parent=4),
        span("multimode.sample_image_planes", 2.0, 6.0, parent=4),
        span("sampling.sample_vacuum", 2.0, 5.5, parent=6, work=1600),
        span("sampling.raw_words", 2.0, 5.0, parent=7, work=100),
    ]
    m = layer_metrics(spans, wall_s=12.5, fit_failed=True)
    assert m["multimode.kernel_evals"] == 2
    assert m["multimode.calibrate_gain.s"] == pytest.approx(1.0)
    assert m["multimode.sample_image_planes.self_s"] == pytest.approx(0.5)
    assert m["multimode.run_hom2d.self_s"] == pytest.approx(3.5)
    assert m["sampling.sample_vacuum.self_s"] == pytest.approx(0.5)
    assert m["sampling.words"] == 100
    assert m["sampling.words_per_s"] == pytest.approx(100 / 3.0)
    assert m["sampling.bytes_out"] == 1600
    assert m["experiments.pipeline.self_s"] == pytest.approx(1.0)
    assert m["multimode.fit_failed"] == 1
    assert m["trace.coverage"] == pytest.approx(10.0 / 12.5)


def test_tracer_wraps_every_import_site_and_restores_it():
    import spdcsim.cli
    from spdcsim import experiments, multimode, sampling
    from spdcsim.sampling import RngStream

    originals = {
        (sampling, "raw_words"): sampling.raw_words,
        (sampling, "sample_vacuum"): sampling.sample_vacuum,
        (experiments, "sample_vacuum"): experiments.sample_vacuum,
        (multimode, "sample_vacuum"): multimode.sample_vacuum,
        (spdcsim.cli, "run_experiment"): spdcsim.cli.run_experiment,
    }
    tracer = child.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original
        experiments.sample_vacuum(RngStream(1, 0), 10, 2)
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    names = [s[0] for s in tracer.spans]
    assert names == ["sampling.sample_vacuum", "sampling.raw_words"]
    assert tracer.spans[1][3] == 0
    assert tracer.spans[1][4] == 10 * 4  # reps x words, two modes -> 4 words
    assert tracer.spans[0][4] == 10 * 2 * 16  # complex128 reps x modes


def _oracle_report(passes):
    return {"rows": [{"statistic": name, "pass": ok}
                     for name, ok in zip(("mean", "var", "cov"), passes)]}


def _dip_report(**changes):
    theta = [-3.6, -1.8, 0.0, 1.8, 3.6]
    curve = {"theta": theta, "amplitude": [1.01, 0.6, 0.02, 0.6, 0.98],
             "std_error": [0.02] * 5, "sigma_theta": 0.8}
    curve.update(changes)
    return {"rows": [], "curve": curve}


def test_passing_runs_pass_every_check():
    assert all(check_run(WORKLOADS["twin_loss"], 0,
                         _oracle_report([True] * 3)).values())
    assert all(check_run(WORKLOADS["hom2d_1ppp"], 0, _dip_report()).values())


@pytest.mark.parametrize("workload, code, report, failed", [
    ("twin_loss", 0, _oracle_report([True, False, True]), ["oracle:var"]),
    ("twin_loss", 0, {"rows": []}, ["oracle:mean", "oracle:var", "oracle:cov"]),
    ("twin_loss", 1, _oracle_report([True] * 3), ["exit_code"]),
    ("hom2d_1ppp", 0,
     _dip_report(amplitude=[1.0, math.nan, 0.0, 0.6, 1.0]),
     ["finite", "null_at_zero", "wing_low", "wing_high"]),
    ("hom2d_1ppp", 0, _dip_report(sigma_theta=None), ["sigma_theta"]),
    ("hom2d_1ppp", 0,
     _dip_report(amplitude=[0.5, 0.6, 0.3, 0.6, 1.0]),
     ["null_at_zero", "wing_low"]),
    ("hom2d_1ppp", 3, _dip_report(), ["exit_code"]),
    ("hom2d_1ppp", None, None, WORKLOADS["hom2d_1ppp"].check_names()),
])
def test_failed_runs_are_counted(workload, code, report, failed):
    results = check_run(WORKLOADS[workload], code, report)
    assert list(results) == WORKLOADS[workload].check_names()
    assert sorted(k for k, ok in results.items() if not ok) == sorted(failed)


def test_nan_in_report_file_fails(tmp_path):
    path = tmp_path / "out.json"
    report = _dip_report()
    report["curve"]["std_error"][2] = math.nan
    path.write_text(json.dumps(report))  # json writes NaN as a bare literal
    results = check_run(WORKLOADS["hom2d_1ppp"], 0, read_json(path))
    assert not results["finite"]
    assert read_json(tmp_path / "missing.json") is None
    (tmp_path / "bad.json").write_text("{not json")
    assert read_json(tmp_path / "bad.json") is None


def test_result_line_rejects_unknown_and_missing_metrics():
    declared = run.declared_metrics(run.load_spec(), trace=False)
    metrics = {name: 1.0 for name in declared}
    line = json.loads(run.result_line(True, 3, 0, metrics, declared))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(declared)
    with pytest.raises(ValueError, match="unknown"):
        run.result_line(True, 3, 0, {**metrics, "latency_ms": 1.0}, declared)
    with pytest.raises(ValueError, match="missing"):
        run.result_line(True, 3, 0, {"wall_s": 1.0}, declared)


def test_spec_matches_workloads_and_layer_metrics():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = set(layer_metrics([], wall_s=1.0, fit_failed=False))
    assert names | {"trace.overhead_s"} == set(run.declared_metrics(spec, trace=True))


def test_top_self_times_ranks_mean_self_time_over_runs():
    first = [span("experiments.run_experiment", 0.0, 4.0),
             span("sampling.raw_words", 0.0, 3.0, parent=0)]
    second = [span("experiments.run_experiment", 0.0, 6.0),
              span("sampling.raw_words", 0.0, 1.0, parent=0)]
    top = top_self_times([first, second])
    assert [name for name, _ in top] == ["experiments.run_experiment",
                                         "sampling.raw_words"]
    assert top[0][1] == pytest.approx(3.0)
    assert top[1][1] == pytest.approx(2.0)


def test_times_are_divided_by_their_own_runs_reference():
    def one(traced, setup, wall, reference):
        return run.Run(traced, 100.0, {"setup_s": setup, "wall_s": wall}, {},
                       reference_s=reference)

    # per-run ratios of wall to reference are 10, 20, 15 and of set-up 5, 2, 4
    runs = [one(False, 1.0, 2.0, 0.2), one(False, 1.2, 12.0, 0.6),
            one(True, 9.0, 9.0, 9.0), one(False, 1.6, 6.0, 0.4)]
    metrics = run.end_to_end_metrics(run.end_to_end(runs))
    assert metrics["setup_s"] == pytest.approx(4.0 * run.REFERENCE_S)
    assert metrics["wall_s"] == pytest.approx(15.0 * run.REFERENCE_S)
    assert metrics["peak_rss_mb"] == 100.0


def test_overhead_pairs_runs_in_either_order():
    spans = [span("experiments.run_experiment", 0.0, 1.0)]

    def one(traced, wall):
        return run.Run(traced, 100.0, {"setup_s": 0.5, "wall_s": wall}, {},
                       spans=spans if traced else None)

    runs = [one(False, 1.0), one(True, 1.1), one(True, 1.3), one(False, 1.0)]
    metrics = run.per_layer(runs)
    assert metrics["trace.overhead_s"] == pytest.approx(0.2)
    assert metrics["trace.coverage"] == pytest.approx((1.0 / 1.1 + 1.0 / 1.3) / 2)
