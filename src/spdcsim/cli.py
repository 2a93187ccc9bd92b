"""Command-line front end.

Subcommands: twin, hom, bell, hom2d, fourfold, oracle.  Shared flags:
--reps, --seed, --threads, --out, --format, --config.  Values resolve as
command-line flag > config-file entry > built-in default; the config file
is flat ``key = value`` text (a TOML-compatible subset).  The environment
variable SPDC_SEED overrides the built-in default seed.

Exit codes: 0 all statistics pass, 1 statistical failure, 2 usage error,
3 numeric or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

from .estimators import DegenerateStatisticError
from .experiments import ExperimentConfig, oracle_table, run_experiment
from .multimode import Hom2dConfig
from .reporting import RunReport, emit_results

__all__ = ["main", "entry", "load_config_file"]

_DEFAULT_SEED = 42


def _parse_value(text: str):
    text = text.strip()
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        return [_parse_value(v) for v in inner.split(",")] if inner else []
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def load_config_file(path: str | Path) -> dict:
    """Parse a flat key = value config file (TOML-compatible subset)."""
    entries = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        entries[key.strip().replace("-", "_")] = _parse_value(value)
    return entries


def _reps(text: str) -> int:
    value = float(text)
    n = int(value) if math.isfinite(value) else 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"reps must be a positive integer, got {text!r}")
    return n


def _float_list(text: str):
    return tuple(float(v) for v in str(text).split(",") if str(v).strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcsim",
        description="Monte Carlo simulator of Gaussian quantum-optics experiments "
                    "using stochastic field sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--reps", type=_reps, default=None,
                        help="number of repetitions (accepts 1e6 notation)")
    shared.add_argument("--seed", type=int, default=None,
                        help="RNG seed (default: $SPDC_SEED or 42)")
    shared.add_argument("--threads", type=int, default=None,
                        help="worker cap for ensemble generation (default 1)")
    shared.add_argument("--out", default=None, help="output file path")
    shared.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default=None, help="output format (default csv)")
    shared.add_argument("--config", default=None,
                        help="flat key = value config file")

    gain = argparse.ArgumentParser(add_help=False)
    group = gain.add_mutually_exclusive_group()
    group.add_argument("--gain-gl", type=float, default=None,
                       help="gain-length product gL")
    group.add_argument("--G", type=float, default=None,
                       help="mean photons per mode, sinh^2(gL)")

    p = sub.add_parser("twin", parents=[shared, gain],
                       help="twin-beam mean/variance/covariance")
    p.add_argument("--eta", type=float, default=None,
                   help="detector quantum efficiency (default 1)")

    p = sub.add_parser("hom", parents=[shared, gain],
                       help="two-detector interference covariance null")
    p.add_argument("--transmittance", type=float, default=None,
                   help="splitter intensity transmittance (default 0.5)")

    p = sub.add_parser("bell", parents=[shared, gain],
                       help="polarisation correlations and CHSH coefficient")
    p.add_argument("--theta1", type=float, default=None,
                   help="polariser angle at location 1, radians (default pi/8)")
    p.add_argument("--theta2", type=float, default=None,
                   help="polariser angle at location 2, radians (default pi/8)")

    sub.add_parser("fourfold", parents=[shared, gain],
                   help="four-detector intensity covariance")

    p = sub.add_parser("hom2d", parents=[shared],
                       help="multimode spatial interference dip sweep")
    p.add_argument("--photons-per-pixel", type=float, default=None,
                   help="calibrate the gain to this brightest-pixel intensity")
    p.add_argument("--gain-scale", type=float, default=None,
                   help="raw gain scale g0 (ignored with --photons-per-pixel)")
    p.add_argument("--n-pixels", type=int, default=None)
    p.add_argument("--pitch", type=float, default=None)
    p.add_argument("--crystal-length", type=float, default=None,
                   help="crystal length in mm (default 0.8)")
    p.add_argument("--pump-waist", type=float, default=None)
    p.add_argument("--pm-bandwidth", type=float, default=None)
    p.add_argument("--phase-matching", choices=("sinc", "gaussian"), default=None)
    p.add_argument("--theta-sweep", type=_float_list, default=None,
                   help="comma-separated tilt angles")

    p = sub.add_parser("oracle", parents=[shared],
                       help="tabulated closed-form predictions")
    p.add_argument("--table", choices=("twin", "bell", "hom"), default=None)
    p.add_argument("--values", type=_float_list, default=None,
                   help="comma-separated gains or transmittances")
    p.add_argument("--eta", type=float, default=None)

    return parser


_COMMON_DEFAULTS = {"threads": 1, "fmt": "csv", "out": None}
_DEFAULTS = {
    "twin": {"reps": 1_000_000, "gain_gl": None, "g": None, "eta": 1.0},
    "hom": {"reps": 1_000_000, "gain_gl": None, "g": None, "transmittance": 0.5},
    "bell": {"reps": 1_000_000, "gain_gl": None, "g": None,
             "theta1": math.pi / 8.0, "theta2": math.pi / 8.0},
    "fourfold": {"reps": 1_000_000, "gain_gl": None, "g": None},
    "hom2d": {"reps": 100, "photons_per_pixel": None, "gain_scale": None,
              "n_pixels": None, "pitch": None, "crystal_length": None,
              "pump_waist": None, "pm_bandwidth": None, "phase_matching": None,
              "theta_sweep": None},
    "oracle": {"reps": 2, "table": "bell", "values": None, "eta": 1.0},
}


def _resolve(args: argparse.Namespace) -> dict:
    """Merge flag > config file > default for every option of the command."""
    file_values = load_config_file(args.config) if args.config else {}
    values = dict(_COMMON_DEFAULTS)
    values.update(_DEFAULTS[args.command])
    env_seed = os.environ.get("SPDC_SEED")
    values["seed"] = int(env_seed) if env_seed else _DEFAULT_SEED

    cli = {k.lower(): v for k, v in vars(args).items() if k not in ("command", "config")}
    for key in list(values):
        if key in file_values:
            values[key] = file_values[key]
        if cli.get(key) is not None:
            values[key] = cli[key]
    return values


def _experiment_config(command: str, v: dict) -> ExperimentConfig:
    common = dict(kind=command, reps=int(v["reps"]), seed=int(v["seed"]),
                  threads=int(v["threads"]))
    if command in ("twin", "hom", "bell", "fourfold"):
        common.update(gl=v.get("gain_gl"), G=v.get("g"))
    if command == "twin":
        common.update(eta=float(v["eta"]))
    elif command == "hom":
        common.update(transmittance=float(v["transmittance"]))
    elif command == "bell":
        common.update(theta1=float(v["theta1"]), theta2=float(v["theta2"]))
    elif command == "hom2d":
        base = Hom2dConfig()
        overrides = {}
        for cfg_key, opt_key in (("n_pixels", "n_pixels"), ("pitch", "pitch"),
                                 ("crystal_length_mm", "crystal_length"),
                                 ("pump_waist", "pump_waist"),
                                 ("pm_bandwidth", "pm_bandwidth"),
                                 ("phase_matching", "phase_matching"),
                                 ("gain_scale", "gain_scale"),
                                 ("theta_sweep", "theta_sweep")):
            if v.get(opt_key) is not None:
                value = v[opt_key]
                if cfg_key == "theta_sweep":
                    value = tuple(float(t) for t in value)
                overrides[cfg_key] = value
        from dataclasses import replace
        common.update(hom2d=replace(base, **overrides),
                      photons_per_pixel=v.get("photons_per_pixel"))
    elif command == "oracle":
        common.update(table=v["table"], eta=float(v["eta"]),
                      values=tuple(v["values"] or ()))
    return ExperimentConfig(**common)


def _print_report(report: RunReport) -> None:
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
        line = f"  {r.name:26s} {r.value:+.6g} +- {r.std_error:.3g}"
        if r.oracle is not None:
            line += f"  oracle {r.oracle:+.6g}  dev {r.deviation_se:.2f} se"
            line += "  PASS" if r.passed else "  FAIL"
        print(line)


def _write_oracle(header, rows, out: str | None, fmt: str) -> None:
    if out is None:
        print(",".join(header))
        for row in rows:
            print(",".join(f"{x:.12g}" for x in row))
        return
    path = Path(out)
    if fmt == "json":
        import json
        path.write_text(json.dumps([dict(zip(header, row)) for row in rows],
                                   indent=2) + "\n")
    else:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([f"{x:.12g}" for x in row])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = _resolve(args)
        config = _experiment_config(args.command, values)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"spdcsim: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "oracle":
            header, rows = oracle_table(config)
            _write_oracle(header, rows, values["out"], values["fmt"])
            return 0
        report = run_experiment(config)
        _print_report(report)
        if values["out"] is not None:
            emit_results(report, values["out"], values["fmt"])
    except DegenerateStatisticError as exc:
        print(f"spdcsim: degenerate statistic: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a bad value found once the run starts
        print(f"spdcsim: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"spdcsim: numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"spdcsim: i/o failure: {exc}", file=sys.stderr)
        return 3
    return 0 if report.all_passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
