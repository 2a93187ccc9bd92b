"""Benchmark workloads and the checks that verify each run's output.

Every workload is one ``spdcsim`` CLI invocation that writes its JSON report
to a file; the checks read that file and the process exit code.  Each
workload has a fixed list of checks, so a missing or unparsable report fails
all of them and the failed fraction stays comparable between runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

#: Deviation, in standard errors, that the hom2d sanity checks allow.
HOM2D_TOLERANCE_SE = 5.0


@dataclass(frozen=True)
class Workload:
    """One CLI invocation of the benchmark; BENCHMARK.json says why."""

    name: str
    args: tuple
    oracle_rows: tuple = ()

    def argv(self, seed: int, out: str) -> list:
        """Exact argument vector given to ``spdcsim.cli.main``."""
        return [*self.args, "--seed", str(seed), "--format", "json", "--out", out]

    def check_names(self) -> list:
        if self.oracle_rows:
            return ["exit_code"] + [f"oracle:{row}" for row in self.oracle_rows]
        return ["exit_code", "finite", "sigma_theta", "null_at_zero",
                "wing_low", "wing_high"]


WORKLOADS = {w.name: w for w in (
    Workload("twin_loss", ("twin", "--reps", "1e6", "--eta", "0.5"),
             oracle_rows=("mean", "var", "cov")),
    Workload("fourfold", ("fourfold", "--reps", "1e6"),
             oracle_rows=("fourfold_direct", "fourfold_terms_total",
                          "bunching_terms", "low_gain_terms", "mixed_terms")),
    Workload("hom2d_1ppp", ("hom2d", "--reps", "100", "--photons-per-pixel", "1")),
)}


def read_json(path: Path):
    """Parsed JSON file, or None when it is missing or unparsable."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def _oracle_checks(workload: Workload, report: dict) -> dict:
    rows = {r.get("statistic"): r for r in report.get("rows", [])
            if isinstance(r, dict)}
    return {f"oracle:{name}": rows.get(name, {}).get("pass") is True
            for name in workload.oracle_rows}


def _within(value, target, se) -> bool:
    return abs(value - target) <= HOM2D_TOLERANCE_SE * se


def _hom2d_checks(report: dict) -> dict:
    """Sanity checks of the dip curve; not an oracle comparison."""
    curve = report.get("curve") or {}
    theta = curve.get("theta") or []
    amp = curve.get("amplitude") or []
    se = curve.get("std_error") or []
    numbers = [*theta, *amp, *se]
    shaped = len(theta) >= 3 and len(theta) == len(amp) == len(se)
    finite = shaped and all(isinstance(x, (int, float)) and math.isfinite(x)
                            for x in numbers)
    results = {"finite": finite,
               "sigma_theta": curve.get("sigma_theta") is not None,
               "null_at_zero": False, "wing_low": False, "wing_high": False}
    if finite:
        zero = min(range(len(theta)), key=lambda j: abs(theta[j]))
        low = min(range(len(theta)), key=lambda j: theta[j])
        high = max(range(len(theta)), key=lambda j: theta[j])
        results["null_at_zero"] = (abs(theta[zero]) < 1e-9
                                   and _within(amp[zero], 0.0, se[zero]))
        results["wing_low"] = _within(amp[low], 1.0, se[low])
        results["wing_high"] = _within(amp[high], 1.0, se[high])
    return results


def check_run(workload: Workload, returncode, report) -> dict:
    """Outcome of every check of one run, keyed by check name.

    ``returncode`` is the process exit code (None if it was killed) and
    ``report`` the parsed JSON report (None if missing or unparsable).
    """
    results = {name: False for name in workload.check_names()}
    results["exit_code"] = returncode == 0
    if isinstance(report, dict):
        found = (_oracle_checks(workload, report) if workload.oracle_rows
                 else _hom2d_checks(report))
        results.update(found)
    return results
