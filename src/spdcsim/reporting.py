"""Run reports: Monte Carlo statistics paired with oracles, CSV/JSON output."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .estimators import MomentEstimate
from .multimode import DipCurve

__all__ = ["RunReport", "StatisticRow", "curve_sidecar", "emit_results", "make_row"]

PASS_THRESHOLD_SE = 5.0

#: Metadata keys that vary between runs and are excluded from reproducibility
#: comparisons.
VOLATILE_METADATA = ("timestamp", "wall_time_s")


@dataclass(frozen=True)
class StatisticRow:
    """One Monte Carlo statistic with its oracle, if one exists."""

    name: str
    value: float
    std_error: float
    oracle: float | None = None
    deviation_se: float | None = None
    passed: bool = True


def make_row(name: str, est: MomentEstimate, oracle: float | None) -> StatisticRow:
    """The report row of statistic ``name``; an ArithmeticError naming it
    when its value, standard error or oracle is not a finite number."""
    value = est.value.real if isinstance(est.value, complex) else est.value
    for what, x in (("value", value), ("standard error", est.std_error),
                    ("oracle", oracle)):
        if x is not None and not math.isfinite(x):
            raise ArithmeticError(f"statistic {name!r}: {what} is {x}, not a finite number")
    if oracle is None:
        return StatisticRow(name, float(value), est.std_error)
    dev = est.deviation(oracle)
    return StatisticRow(name, float(value), est.std_error, float(oracle), dev,
                        dev < PASS_THRESHOLD_SE)


@dataclass
class RunReport:
    """Outcome of one experiment pipeline."""

    experiment: str
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    curve: DipCurve | None = None

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12g}"


def _curve_dict(curve: DipCurve) -> dict:
    return {
        "theta": [float(t) for t in curve.theta],
        "amplitude": [float(a) for a in curve.amplitude],
        "std_error": [float(e) for e in curve.std_error],
        "sigma_theta": curve.sigma_theta,
        "photons_per_pixel": curve.photons_per_pixel,
        "n_modes": curve.n_modes,
        "seed": curve.seed,
    }


def curve_sidecar(path: str | Path) -> Path:
    """The JSON sidecar of a dip-curve CSV table written to ``path``.

    A ValueError if that is ``path`` itself, where the sidecar would
    overwrite the table.
    """
    path = Path(path)
    sidecar = path.with_suffix(".json")
    if sidecar == path:
        raise ValueError(f"{path}: a CSV dip curve there would be overwritten "
                         "by its JSON sidecar; write it as JSON or give it "
                         "another suffix than .json")
    return sidecar


def emit_results(report: RunReport, path: str | Path, fmt: str = "csv") -> Path:
    """Write the report to ``path`` as CSV or JSON and return the path.

    Statistic reports become ``statistic,mc_value,mc_se,oracle,deviation_se,
    pass`` tables.  Dip curves become plot-ready ``theta,amplitude,
    std_error`` tables, with the scalar results (fitted width, photons per
    pixel, mode count, seed, configuration echo) in a JSON sidecar next to
    the CSV.
    """
    path = Path(path)
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format: {fmt!r}")
    if fmt == "json":
        payload = {
            "experiment": report.experiment,
            "rows": [
                {
                    "statistic": r.name,
                    "mc_value": r.value,
                    "mc_se": r.std_error,
                    "oracle": r.oracle,
                    "deviation_se": r.deviation_se,
                    "pass": r.passed,
                }
                for r in report.rows
            ],
            "metadata": report.metadata,
        }
        if report.curve is not None:
            payload["curve"] = _curve_dict(report.curve)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    if report.curve is not None:
        sidecar = curve_sidecar(path)  # checked before the table is written
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        if report.curve is not None:
            writer.writerow(["theta", "amplitude", "std_error"])
            for t, a, e in zip(report.curve.theta, report.curve.amplitude,
                               report.curve.std_error):
                writer.writerow([_fmt(t), _fmt(a), _fmt(e)])
        else:
            writer.writerow(["statistic", "mc_value", "mc_se", "oracle",
                             "deviation_se", "pass"])
            for r in report.rows:
                writer.writerow([r.name, _fmt(r.value), _fmt(r.std_error),
                                 _fmt(r.oracle), _fmt(r.deviation_se),
                                 str(r.passed).lower()])
    if report.curve is not None:
        meta = dict(report.metadata)
        meta.update(_curve_dict(report.curve))
        sidecar.write_text(json.dumps(meta, indent=2) + "\n")
    return path


def comparable_text(path: Path) -> str:
    """File content with volatile metadata stripped, for reproducibility checks."""
    text = Path(path).read_text()
    if Path(path).suffix != ".json":
        return text
    data = json.loads(text)
    meta = data.get("metadata", data)
    for key in VOLATILE_METADATA:
        meta.pop(key, None)
    return json.dumps(data, indent=2, sort_keys=True)
