"""Per-layer metrics from the spans of one traced run.

A span is ``[name, start, end, parent, work]`` as written by
``child.Tracer``.  A span's self time is its duration minus the durations
of its direct children; children on one thread nest inside their parent,
so the self times of all spans add up to the time covered by root spans.
"""

from __future__ import annotations

ELEMENTS = ("elements.parametric_amplify", "elements.beam_split",
            "elements.polarizer_project", "elements.detector_loss")
MOMENTS = ("estimators.mean_intensity", "estimators.variance_intensity",
           "estimators.covariance_intensity",
           "estimators.correlation_coefficient", "estimators.chsh_coefficient")


def self_times(spans) -> list:
    """Self time of every span, in the order of ``spans``."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, wall_s: float, fit_failed: bool) -> dict:
    """Every per-layer metric of one traced run except ``trace.overhead_s``.

    ``wall_s`` is the traced run's wall time; ``fit_failed`` is whether its
    hom2d report has no fitted width (False for other experiments).
    """
    own = self_times(spans)
    total, self_total, calls, work = {}, {}, {}, {}
    for (name, start, end, _, amount), s in zip(spans, own):
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + (amount or 0)

    def incl(*names):
        return sum(total.get(n, 0.0) for n in names)

    def excl(name):
        return self_total.get(name, 0.0)

    def count(*names):
        return sum(calls.get(n, 0) for n in names)

    raw_s = incl("sampling.raw_words")
    words = work.get("sampling.raw_words", 0)
    return {
        "sampling.raw_words.s": raw_s,
        "sampling.raw_words.calls": count("sampling.raw_words"),
        "sampling.words": words,
        "sampling.words_per_s": words / raw_s if raw_s > 0 else 0.0,
        "sampling.sample_vacuum.self_s": excl("sampling.sample_vacuum"),
        "sampling.sample_vacuum.calls": count("sampling.sample_vacuum"),
        "sampling.bytes_out": work.get("sampling.sample_vacuum", 0),
        "elements.s": incl(*ELEMENTS),
        "elements.calls": count(*ELEMENTS),
        "estimators.jackknife_se.s": incl("estimators.jackknife_se"),
        "estimators.jackknife_se.calls": count("estimators.jackknife_se"),
        "estimators.fourfold_covariance.self_s": excl("estimators.fourfold_covariance"),
        "estimators.moments.s": incl(*MOMENTS),
        "experiments.pipeline.self_s": excl("experiments.run_experiment"),
        "multimode.calibrate_gain.s": incl("multimode.calibrate_gain"),
        "multimode.kernel_evals": sum(
            1 for j, span in enumerate(spans)
            if span[0] == "multimode.build_kernel"
            and _has_ancestor(spans, j, "multimode.calibrate_gain")),
        "multimode.schmidt_decompose.s": incl("multimode.schmidt_decompose"),
        "multimode.sample_image_planes.self_s": excl("multimode.sample_image_planes"),
        "multimode.shift_field.s": incl("multimode.shift_field"),
        "multimode.shift_field.calls": count("multimode.shift_field"),
        "multimode.run_hom2d.self_s": excl("multimode.run_hom2d"),
        "multimode.fit_failed": int(fit_failed),
        "reporting.emit_results.s": incl("reporting.emit_results"),
        "trace.coverage": sum(own) / wall_s,
    }


def top_self_times(runs, limit: int = 5) -> list:
    """The ``limit`` span names with the largest mean self time per run.

    ``runs`` holds the span list of each traced run.
    """
    by_name = {}
    for spans in runs:
        for span, s in zip(spans, self_times(spans)):
            by_name[span[0]] = by_name.get(span[0], 0.0) + s / len(runs)
    return sorted(by_name.items(), key=lambda item: -item[1])[:limit]
