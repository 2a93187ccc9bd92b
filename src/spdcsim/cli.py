"""Command-line front end.

Subcommands: twin, hom, bell, fourfold, hom2d (Monte Carlo runs) and oracle
(closed-form tables).  Each run option sets one field of
``ExperimentConfig`` or, for the hom2d geometry, of ``Hom2dConfig``, and its
default is that field's default; the environment variable SPDC_SEED
replaces the default seed.  Every Monte Carlo subcommand takes --reps and
--seed, and all but hom2d (which draws its repetitions as one chunk) take
--threads; every subcommand takes --out, --format and --config.

A ``--config`` file holds flat ``key = value`` lines (a TOML-compatible
subset; ``#`` starts a comment line).  Its keys are the subcommand's long
flag names with ``_`` for ``-`` (``gain_gl``, ``G``, ``crystal_length``);
a list is ``a,b`` or ``[a, b]``, and a value may be quoted.  The entries
are parsed as flags placed before the command line's own, so they get the
same types and checks, and a flag on the command line wins.  An unknown
key is a usage error.

Exit codes: 0 all statistics pass, 1 statistical failure, 2 usage error,
3 numeric or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import fields
from pathlib import Path

from .estimators import DegenerateStatisticError
from .experiments import ExperimentConfig, oracle_table, run_experiment
from .multimode import Hom2dConfig
from .reporting import RunReport, emit_results

__all__ = ["main", "entry", "load_config_file"]

_COMMANDS = {
    "twin": "twin-beam mean/variance/covariance",
    "hom": "two-detector interference covariance null",
    "bell": "polarisation correlations and CHSH coefficient",
    "fourfold": "four-detector intensity covariance",
    "hom2d": "multimode spatial interference dip sweep",
    "oracle": "tabulated closed-form predictions",
}


def load_config_file(path: str | Path) -> dict:
    """Entries of a flat ``key = value`` config file (TOML-compatible
    subset) as text, with surrounding quotes or list brackets removed."""
    entries = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        value = value.strip()
        if len(value) >= 2 and value[0] + value[-1] in ('""', "[]"):
            value = value[1:-1]
        entries[key.strip()] = value
    return entries


def _reps(text: str) -> int:
    value = float(text)
    if not (value >= 1 and value.is_integer()):
        raise argparse.ArgumentTypeError(f"reps must be a positive integer, got {text!r}")
    return int(value)


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  Each subcommand's ``config_keys`` default holds the
    keys its config file may use."""
    parser = argparse.ArgumentParser(
        prog="spdcsim",
        description="Monte Carlo simulator of Gaussian quantum-optics experiments "
                    "using stochastic field sampling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="flat key = value config file")
        flags = []

        def add(flag, owner=None, name=None, to=p, **kwargs):
            """Add ``flag``; with ``owner`` it sets field ``name`` of that
            config dataclass and takes the field's default (a dataclass
            keeps it as the class attribute)."""
            if owner is not None:
                kwargs = {"type": float, "dest": name,
                          "default": getattr(owner, name), **kwargs}
            to.add_argument(flag, **kwargs)
            flags.append(flag)

        add("--out", help="output file path")
        add("--format", dest="fmt", choices=("csv", "json"), default="csv",
            help="output format (default csv)")
        if command == "oracle":
            add("--table", choices=("twin", "bell", "hom"), default="bell")
            add("--values", type=_float_list, default=(),
                help="comma-separated gains or transmittances")
            add("--eta", ExperimentConfig, "eta")
        else:
            reps_owner = Hom2dConfig if command == "hom2d" else ExperimentConfig
            add("--reps", reps_owner, "reps", type=_reps,
                help="number of repetitions (accepts 1e6 notation; default %(default)s)")
            add("--seed", ExperimentConfig, "seed", type=int,
                default=os.environ.get("SPDC_SEED") or ExperimentConfig.seed,
                help="RNG seed (default $SPDC_SEED, else %(default)s)")
        if command in ("twin", "hom", "bell", "fourfold"):
            add("--threads", ExperimentConfig, "threads", type=int,
                help="chunk workers; results do not depend on it (default %(default)s)")
            gain = p.add_mutually_exclusive_group()
            add("--gain-gl", ExperimentConfig, "gl", to=gain,
                help="gain-length product gL")
            add("--G", ExperimentConfig, "G", to=gain,
                help="mean photons per mode, sinh^2(gL) (default 1)")
        if command == "twin":
            add("--eta", ExperimentConfig, "eta",
                help="detector quantum efficiency (default %(default)s)")
        elif command == "hom":
            add("--transmittance", ExperimentConfig, "transmittance",
                help="splitter intensity transmittance (default %(default)s)")
        elif command == "bell":
            for n in (1, 2):
                add(f"--theta{n}", ExperimentConfig, f"theta{n}",
                    help=f"polariser angle at location {n}, radians (default pi/8)")
        elif command == "hom2d":
            gain = p.add_mutually_exclusive_group()
            add("--photons-per-pixel", ExperimentConfig, "photons_per_pixel", to=gain,
                help="calibrate the gain to this brightest-pixel intensity")
            add("--gain-scale", Hom2dConfig, "gain_scale", to=gain,
                help="raw gain scale g0 (default %(default)s)")
            add("--n-pixels", Hom2dConfig, "n_pixels", type=int)
            add("--pitch", Hom2dConfig, "pitch")
            add("--crystal-length", Hom2dConfig, "crystal_length_mm",
                help="crystal length in mm (default %(default)s)")
            add("--pump-waist", Hom2dConfig, "pump_waist")
            add("--pm-bandwidth", Hom2dConfig, "pm_bandwidth")
            add("--phase-matching", Hom2dConfig, "phase_matching", type=str,
                choices=("sinc", "gaussian"))
            add("--theta-sweep", Hom2dConfig, "theta_sweep", type=_float_list,
                help="comma-separated tilt angles")
        p.set_defaults(config_keys=[f[2:].replace("-", "_") for f in flags])
    return parser


def _config_flags(path: str, keys: list) -> list:
    """The entries of config file ``path`` as ``--flag=value`` arguments."""
    entries = load_config_file(path)
    for key in entries:
        if key.replace("-", "_") not in keys:
            raise ValueError(f"{path}: unknown key {key!r}; "
                             f"this subcommand takes {', '.join(keys)}")
    return [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()]


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """Hand each parsed option to the config field of its name: an
    ``ExperimentConfig`` field first, else a ``Hom2dConfig`` one."""
    options = vars(args)
    run = {f.name: options[f.name] for f in fields(ExperimentConfig)
           if f.name in options}
    if args.command == "hom2d":
        geometry = {f.name: options[f.name] for f in fields(Hom2dConfig)
                    if f.name in options and f.name not in run}
        run["hom2d"] = Hom2dConfig(**geometry)
    return ExperimentConfig(kind=args.command, **run)


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
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # argv[0] is the subcommand: the top-level parser has no options
            file_flags = _config_flags(args.config, args.config_keys)
            args = parser.parse_args(argv[:1] + file_flags + argv[1:])
        if args.command != "oracle":
            config = _experiment_config(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"spdcsim: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "oracle":
            header, rows = oracle_table(args.table, args.values, args.eta)
            _write_oracle(header, rows, args.out, args.fmt)
            return 0
        report = run_experiment(config)
        _print_report(report)
        if args.out is not None:
            emit_results(report, args.out, args.fmt)
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
