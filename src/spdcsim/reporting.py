"""Run reports: Monte Carlo statistics paired with oracles, and every output.

The printed report, statistic rows and dip curves (:func:`emit_results`)
and closed-form oracle tables (:func:`emit_table`) all leave from here,
each file or stdout table through one CSV writer and one JSON writer.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from contextlib import nullcontext
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: at run time reporting imports nothing of the package
    from .estimators import MomentEstimate
    from .multimode import DipCurve

__all__ = ["RunReport", "StatisticRow", "curve_sidecar", "emit_results", "emit_table",
           "make_row", "print_report"]

PASS_THRESHOLD_SE = 5.0

#: The CSV columns and JSON row keys of the :class:`StatisticRow` fields.
ROW_FIELDS = ("statistic", "mc_value", "mc_se", "oracle", "deviation_se", "pass")


class StatisticRow(namedtuple("StatisticRow", "name value std_error oracle "
                                               "deviation_se passed")):
    """One Monte Carlo statistic with its oracle, in the order of
    :data:`ROW_FIELDS`."""

    __slots__ = ()


def make_row(name: str, est: MomentEstimate, oracle: float) -> StatisticRow:
    """The report row of statistic ``name``; an ArithmeticError naming it
    when its value, standard error or oracle is not a finite number."""
    for what, x in (("value", est.value), ("standard error", est.std_error),
                    ("oracle", oracle)):
        if not math.isfinite(x):
            raise ArithmeticError(f"statistic {name!r}: {what} is {x}, not a finite number")
    dev = est.deviation(oracle)
    return StatisticRow(name, float(est.value), est.std_error, float(oracle), dev,
                        dev < PASS_THRESHOLD_SE)


class RunReport:
    """Outcome of one experiment pipeline: its :class:`StatisticRow` list,
    its metadata and, for hom2d, its dip curve."""

    __slots__ = ("experiment", "rows", "metadata", "curve")

    def __init__(self, experiment: str, rows: list | None = None,
                 metadata: dict | None = None, curve: DipCurve | None = None):
        self.experiment = experiment
        self.rows = [] if rows is None else rows
        self.metadata = {} if metadata is None else metadata
        self.curve = curve

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


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


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    return str(x).lower() if isinstance(x, bool) else f"{x:.12g}"


def _opened(path):
    """The file ``path`` opened for text with untranslated line ends, or stdout."""
    return nullcontext(sys.stdout) if path is None else open(path, "w", newline="")


def _write_csv(header, rows, path) -> None:
    """The one CSV writer: numbers as ``%.12g``, booleans as ``true``/``false``,
    to the file ``path`` with ``\\r\\n`` line ends or to stdout with ``\\n``."""
    import csv  # here: a JSON run does not pay for its import
    with _opened(path) as fh:
        writer = csv.writer(fh, lineterminator="\n" if path is None else "\r\n")
        writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)


def _write_json(payload, path) -> None:
    """The one JSON writer, to the file ``path`` or to stdout."""
    with _opened(path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


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
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format: {fmt!r}")
    curve = report.curve
    if fmt == "json":
        payload = {"experiment": report.experiment,
                   "rows": [dict(zip(ROW_FIELDS, r)) for r in report.rows],
                   "metadata": report.metadata}
        if curve is not None:
            payload["curve"] = _curve_dict(curve)
        _write_json(payload, path)
    elif curve is None:
        _write_csv(ROW_FIELDS, report.rows, path)
    else:
        sidecar = curve_sidecar(path)  # checked before the table is written
        _write_csv(("theta", "amplitude", "std_error"),
                   zip(curve.theta, curve.amplitude, curve.std_error), path)
        _write_json({**report.metadata, **_curve_dict(curve)}, sidecar)
    return Path(path)


def emit_table(header, rows, path: str | Path | None, fmt: str) -> None:
    """Write an oracle table, ``header`` and its numeric ``rows``, to
    ``path`` or, when None, to stdout, as CSV or a JSON list of row records."""
    if fmt == "json":
        _write_json([dict(zip(header, row)) for row in rows], path)
    else:
        _write_csv(header, rows, path)


def print_report(report: RunReport) -> None:
    """Print one line per statistic, or a dip curve's results and tilts."""
    print(f"experiment: {report.experiment}")
    if report.curve is not None:
        c = report.curve
        sigma = "n/a" if c.sigma_theta is None else f"{c.sigma_theta:.4g}"
        print(f"  photons/pixel {c.photons_per_pixel:.4g}  modes {c.n_modes}  "
              f"sigma_theta {sigma}")
        for t, a, e in zip(c.theta, c.amplitude, c.std_error):
            print(f"  theta {t:+8.4f}  amplitude {a:8.4f} +- {e:.4f}")
        return
    for r in report.rows:
        print(f"  {r.name:26s} {r.value:+.6g} +- {r.std_error:.3g}"
              f"  oracle {r.oracle:+.6g}  dev {r.deviation_se:.2f} se"
              f"  {'PASS' if r.passed else 'FAIL'}")
