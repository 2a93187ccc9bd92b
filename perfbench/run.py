"""Benchmark of the spdcsim command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each measured run is a fresh ``spdcsim`` CLI process (``child.py``), started
one at a time from this process with ``--threads`` at its default of 1 and
BLAS/OpenMP pools pinned to one thread.  Runs repeat for ``--seconds``
(at least three); every run's output is checked.  ``--trace 0`` reports the
end-to-end metrics, with the two times at reference speed (see
:func:`reference_work`), ``--trace 1`` the per-layer metrics of traced runs,
alternated with untraced runs to give the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` count runs, ``metrics`` holds medians.

Exit codes: 0 every check passed, 1 a check failed, 2 nothing could be
measured (for example no ``src/spdcsim`` next to ``perfbench``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from checks import WORKLOADS, Workload, check_run, read_json
from layers import layer_metrics, top_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
BENCHMARK = ROOT / "BENCHMARK.json"

MIN_RUNS = 3
#: No run starts this many seconds after a workload's benchmark began, and
#: any run still going at the kill deadline is killed, so one workload ends
#: within three minutes.
LAUNCH_DEADLINE_S = 120.0
KILL_AFTER_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: Typical duration of :func:`reference_work` on a 2-vCPU Intel Xeon virtual
#: machine; times at reference speed are scaled to it.
REFERENCE_S = 0.3


class SetupError(RuntimeError):
    """The program could not be measured at all; no result is printed."""


@dataclass
class Run:
    """One child process: its exit, peak memory, timings and checks."""

    traced: bool
    peak_rss_mb: float
    meta: dict | None
    checks: dict
    report: dict | None = None
    spans: list | None = None
    #: Mean time of the reference work just before and just after the run.
    reference_s: float | None = None


def _spawn(args: list, log_stem: Path, kill_at: float) -> tuple:
    """Run a child to completion; return (exit code or None, peak RSS in MB).

    The peak resident set comes from ``wait4``, so it covers the whole
    child process.  A child still running at monotonic time ``kill_at`` is
    killed and reaped, and its exit code is None.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, f"{log_stem}.out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, f"{log_stem}.err", flags, 0o644)]
    pid = os.posix_spawn(sys.executable, [sys.executable, str(CHILD), *args],
                         env, file_actions=actions)
    killed = False
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > kill_at and not killed:
                os.kill(pid, signal.SIGKILL)
                killed = True
            time.sleep(0.02)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    code = None if killed else os.waitstatus_to_exitcode(status)
    return code, usage.ru_maxrss / 1024.0


def _stderr_tail(log_stem: Path) -> str:
    try:
        return Path(f"{log_stem}.err").read_text()[-2000:]
    except OSError:
        return ""


def reference_work() -> float:
    """Time a fixed computation that shares no code with ``spdcsim``:
    interpreter loops, dictionary updates, sorting, hashing, and numpy
    sorting and SVD, on one thread in this process.

    The shared host's speed drifts by tens of percent over minutes, and it
    slows the program and this work alike.  Each child is bracketed by two
    of these timings, and its set-up and wall times are reported divided
    by their mean and multiplied by ``REFERENCE_S``: "at reference speed".
    In ten-seed sets that ratio spread by 0.03-0.11 of its median, the raw
    time by 0.09-0.19 (README.md, "Steadiness").  The work runs here, not
    in the child, so that the child's memory and allocator state are those
    of a plain CLI run.
    """
    import numpy as np

    start = time.perf_counter()
    rnd = random.Random(0)
    xs = [rnd.random() for _ in range(100_000)]
    xs.sort()
    table = {}
    for i, x in enumerate(xs):
        table[i % 5003] = table.get(i % 5003, 0.0) + x
    hashlib.sha256(bytes(range(256)) * 32768).digest()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((400, 400))
    for _ in range(2):
        total = 0
        for i in range(300_000):
            total += i
        np.sort(rng.standard_normal(1_000_000))
        np.linalg.svd(a)
    return time.perf_counter() - start


def warm_up(workdir: Path, kill_at: float) -> dict:
    """Import the package once, untimed, so bytecode and page cache are warm.

    Returns the versions the child reported; raises SetupError if the
    package cannot be imported from ``src``.
    """
    meta_path = workdir / "warmup.meta.json"
    code, _ = _spawn([str(meta_path), "--import-only"], workdir / "warmup",
                     kill_at)
    meta = read_json(meta_path)
    if code != 0 or meta is None:
        raise SetupError("cannot import spdcsim from "
                         f"{ROOT / 'src'}:\n{_stderr_tail(workdir / 'warmup')}")
    return meta


def run_once(workload: Workload, seed: int, workdir: Path, index: int,
             traced: bool, kill_at: float) -> Run:
    stem = workdir / f"run{index}"
    out = Path(f"{stem}.result.json")
    meta_path = Path(f"{stem}.meta.json")
    spans_path = Path(f"{stem}.spans.json")
    args = [str(meta_path)]
    if traced:
        args += ["--spans", str(spans_path)]
    code, rss = _spawn([*args, "--", *workload.argv(seed, str(out))], stem,
                       kill_at)
    report = read_json(out)
    run = Run(traced, rss, read_json(meta_path),
              check_run(workload, code, report), report)
    if traced:
        run.spans = (read_json(spans_path) or {}).get("spans")
    if not all(run.checks.values()):
        print(f"run {index} failed checks "
              f"{[k for k, ok in run.checks.items() if not ok]}, exit {code}\n"
              f"{_stderr_tail(stem)}", file=sys.stderr)
    return run


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path, started: float) -> list:
    """Run children one at a time for ``seconds`` and at least MIN_RUNS.

    With ``trace`` each step is an untraced and a traced run, in alternating
    order, so both see the same conditions and neither is always second.
    ``started`` is the monotonic time the workload's benchmark began, from
    which the deadlines count.
    """
    runs = []
    start = time.monotonic()
    kill_at = started + KILL_AFTER_S
    reference_work()  # untimed: the numpy import and first-call costs
    reference = reference_work()
    while True:
        now = time.monotonic()
        steps = len(runs) // 2 if trace else len(runs)
        if now > started + LAUNCH_DEADLINE_S or (
                now - start >= seconds and steps >= MIN_RUNS):
            return runs
        if not trace:
            order = (False,)
        else:
            order = (False, True) if steps % 2 == 0 else (True, False)
        for traced in order:
            run = run_once(workload, seed, workdir, len(runs), traced, kill_at)
            after = reference_work()
            run.reference_s = (reference + after) / 2
            reference = after
            runs.append(run)


def quartiles(values: list) -> tuple:
    """(median, first quartile, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def _timed(run: Run) -> bool:
    return bool(run.meta) and "wall_s" in run.meta


def end_to_end(runs: list) -> dict:
    """Samples of each end-to-end metric, and of the bracketing reference
    time, over the untraced runs; the times are raw."""
    timed = [r for r in runs if not r.traced and _timed(r)]
    return {"setup_s": [r.meta["setup_s"] for r in timed],
            "wall_s": [r.meta["wall_s"] for r in timed],
            "peak_rss_mb": [r.peak_rss_mb for r in timed],
            "reference_s": [r.reference_s for r in timed]}


def end_to_end_metrics(samples: dict) -> dict:
    """The reported end-to-end metrics: the medians over the runs of each
    time at reference speed, and of the peak memory as measured."""
    def at_reference_speed(times):
        return statistics.median(
            t * REFERENCE_S / r for t, r in zip(times, samples["reference_s"]))

    return {"setup_s": at_reference_speed(samples["setup_s"]),
            "wall_s": at_reference_speed(samples["wall_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"])}


def per_layer(runs: list) -> dict:
    """Median of each per-layer metric over the traced runs.

    ``runs`` come in (untraced, traced) pairs in either order, as
    :func:`measure` makes them; the tracing overhead is the median over
    those pairs of the traced minus the untraced wall time.
    """
    traced = [r for r in runs if r.traced and r.spans is not None and _timed(r)]
    if not traced:
        raise SetupError("no traced run finished with spans")
    samples = [layer_metrics(r.spans, r.meta["wall_s"], _fit_failed(r.report))
               for r in traced]
    pairs = [sorted(pair, key=lambda r: r.traced)
             for pair in zip(runs[0::2], runs[1::2])]
    overheads = [t.meta["wall_s"] - u.meta["wall_s"]
                 for u, t in pairs if _timed(u) and _timed(t)]
    if not overheads:
        raise SetupError("no untraced and traced pair of runs finished")
    medians = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    medians["trace.overhead_s"] = statistics.median(overheads)
    return medians


def _fit_failed(report) -> bool:
    curve = report.get("curve") if isinstance(report, dict) else None
    return isinstance(curve, dict) and curve.get("sigma_theta") is None


def load_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def declared_metrics(spec: dict, trace: bool) -> dict:
    """Name -> unit of the metrics the spec declares for this mode."""
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                declared: dict) -> str:
    """The final JSON line; every declared metric and nothing else."""
    unknown = sorted(set(metrics) - set(declared))
    missing = sorted(set(declared) - set(metrics))
    if unknown or missing:
        raise ValueError(f"unknown metrics {unknown}, missing metrics {missing}")
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()}})


def git_commit(root: Path):
    """Commit hash of a git checkout at ``root``, or None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(versions: dict, workload: Workload, seed: int) -> dict:
    return {
        "python": versions.get("python"), "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"), "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)), "thread_env": THREAD_ENV,
        "commit": git_commit(ROOT), "workload": workload.name, "seed": seed,
        "argv": ["spdcsim", *workload.argv(seed, "<out>")],
    }


def bench(workload: Workload, seed: int, seconds: float, trace: bool,
          spec: dict) -> bool:
    """Measure one workload and print its report; True if every check passed."""
    started = time.monotonic()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        versions = warm_up(workdir, started + KILL_AFTER_S)
        runs = measure(workload, seed, seconds, trace, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    samples = end_to_end(runs)
    if not samples["wall_s"]:
        raise SetupError(f"no run of {workload.name} finished with timings")

    checks = [ok for r in runs for ok in r.checks.values()]
    failed_runs = sum(not all(r.checks.values()) for r in runs)
    why = {w["name"]: w["why"] for w in spec["workloads"]}[workload.name]
    print(f"workload {workload.name}: {why}")
    print(json.dumps({"environment": environment(versions, workload, seed)}))
    for name, values in samples.items():
        med, q1, q3 = quartiles(values)
        print(f"  {name:20s} median {med:.6g}  quartiles [{q1:.6g}, {q3:.6g}]"
              f"  n={len(values)}")
    print(f"  {'checks_failed_frac':20s} {checks.count(False) / len(checks):.6g}"
          f"  ({checks.count(False)} of {len(checks)} checks,"
          f" {failed_runs} of {len(runs)} runs)")

    if trace:
        metrics = per_layer(runs)
        for name, value in metrics.items():
            print(f"  {name:40s} {value:.6g}")
        top = top_self_times([r.spans for r in runs if r.traced and r.spans])
        print("  largest mean self times (s): "
              + ", ".join(f"{n} {t:.4g}" for n, t in top))
    else:
        metrics = end_to_end_metrics(samples)
        print("  at reference speed: " + ", ".join(
            f"{name} {metrics[name]:.6g}" for name in ("setup_s", "wall_s")))
    print(result_line(failed_runs == 0, len(runs), failed_runs, metrics,
                      declared_metrics(spec, trace)))
    return failed_runs == 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(THREAD_ENV)  # for the reference work in this process
    # One CPU for this process and, by inheritance, every child: the
    # reference work then meets the same neighbours on the host as the
    # program, which makes the two times go up and down together.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not (ROOT / "src" / "spdcsim" / "__init__.py").is_file():
            raise SetupError(f"no spdcsim package under {ROOT / 'src'}")
        passed = [bench(WORKLOADS[n], args.seed, args.seconds, bool(args.trace),
                        spec) for n in names]
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
