"""Command-line front end.

Subcommands: twin, hom, bell, fourfold, hom2d (Monte Carlo runs) and oracle
(closed-form tables).  Each run option sets one field of
``ExperimentConfig`` or, for the hom2d geometry, of ``Hom2dConfig``, and its
default is that field's default: for --reps the subcommand's entry of
``DEFAULT_REPS``, and the environment variable SPDC_SEED replaces the
default seed; a seed is an integer in [0, 2**64).  A Monte Carlo
subcommand takes --reps, --seed and the flags of the fields its kind
reads (``experiments.READS``); every subcommand takes --out, --format
and --config.  Without --out, oracle prints its table in --format.  Every
report and table is written or printed by :mod:`spdcsim.reporting`.

A ``--config`` file holds flat ``key = value`` lines (a TOML-compatible
subset; ``#`` starts a comment line).  Its keys are the subcommand's long
flag names with ``_`` for ``-`` (``gain_gl``, ``G``, ``crystal_length``);
a list is ``a,b`` or ``[a, b]``, and a value may be quoted.  The entries
are parsed as flags placed before the command line's own, so they get the
same types and checks, and a flag on the command line wins, also over
the file's entry for the other flag of a mutually exclusive pair
(``gain_gl``/``G``, ``photons_per_pixel``/``gain_scale``).  An unknown
key is a usage error.

Exit codes: 0 all statistics pass, 1 statistical failure, 2 usage error
(a bad value found once the run starts and an unreadable ``--config``
file included), 3 numeric failure, out of memory or an I/O error in
writing ``--out``, which comes only after the whole run and its printed
report.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .estimators import DegenerateStatisticError
from .experiments import DEFAULT_REPS, READS, ExperimentConfig, oracle_table, run_experiment
from .multimode import Hom2dConfig
from .reporting import curve_sidecar, emit_results, emit_table, print_report

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
        if len(value) >= 2 and value[0] + value[-1] in ('""', "''", "[]"):
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
    """The CLI parser.  A run subcommand has the flags of the fields its
    kind reads (:data:`~spdcsim.experiments.READS`).  Each subcommand's
    ``config_keys`` default holds the keys its config file may use, and
    ``exclusive`` one ``{key: dest}`` per mutually exclusive group.  A
    group's flags default to absent, so that a parsed namespace shows which
    one the command line gave; the config dataclass supplies the default."""
    parser = argparse.ArgumentParser(
        prog="spdcsim",
        description="Monte Carlo simulator of Gaussian quantum-optics experiments "
                    "using stochastic field sampling.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about in _COMMANDS.items():
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="flat key = value config file")
        flags = []
        groups = {}
        reads = READS.get(command, ())

        def add(flag, owner=None, name=None, to=p, **kwargs):
            """Add ``flag``; with ``owner`` it sets field ``name`` of that
            config dataclass and takes the field's default (a dataclass
            keeps it as the class attribute)."""
            if owner is not None:
                kwargs = {"type": float, "dest": name,
                          "default": getattr(owner, name), **kwargs}
            if to is not p:
                kwargs["default"] = argparse.SUPPRESS
                groups.setdefault(to, {})[flag[2:].replace("-", "_")] = kwargs["dest"]
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
            add("--reps", ExperimentConfig, "reps", type=_reps,
                default=DEFAULT_REPS[command],
                help="number of repetitions (accepts 1e6 notation; default %(default)s)")
            add("--seed", ExperimentConfig, "seed", type=int,
                default=os.environ.get("SPDC_SEED") or ExperimentConfig.seed,
                help="RNG seed (default $SPDC_SEED, else %(default)s)")
        if "threads" in reads:
            add("--threads", ExperimentConfig, "threads", type=int,
                help="chunk workers; results do not depend on it (default %(default)s)")
        if "gl" in reads:
            gain = p.add_mutually_exclusive_group()
            add("--gain-gl", ExperimentConfig, "gl", to=gain,
                help="gain-length product gL")
            add("--G", ExperimentConfig, "G", to=gain,
                help="mean photons per mode, sinh^2(gL) (default 1)")
        if "eta" in reads:
            add("--eta", ExperimentConfig, "eta",
                help="detector quantum efficiency (default %(default)s)")
        if "transmittance" in reads:
            add("--transmittance", ExperimentConfig, "transmittance",
                help="splitter intensity transmittance (default %(default)s)")
        for n in (1, 2):
            if f"theta{n}" in reads:
                add(f"--theta{n}", ExperimentConfig, f"theta{n}",
                    help=f"polariser angle at location {n}, radians (default pi/8)")
        if "hom2d" in reads:
            gain = p.add_mutually_exclusive_group()
            add("--photons-per-pixel", ExperimentConfig, "photons_per_pixel", to=gain,
                help="calibrate the gain to this brightest-pixel intensity")
            add("--gain-scale", Hom2dConfig, "gain_scale", to=gain,
                help=f"raw gain scale g0 (default {Hom2dConfig.gain_scale})")
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
        p.set_defaults(config_keys=[f[2:].replace("-", "_") for f in flags],
                       exclusive=list(groups.values()))
    return parser


def _config_flags(path: str, args: argparse.Namespace) -> list:
    """The entries of config file ``path`` as ``--flag=value`` arguments,
    less those of a mutually exclusive group that ``args``, parsed from the
    command line alone, already sets."""
    entries = load_config_file(path)
    keys = args.config_keys
    for key in entries:
        if key.replace("-", "_") not in keys:
            raise ValueError(f"{path}: unknown key {key!r}; "
                             f"this subcommand takes {', '.join(keys)}")
    given = {key for group in args.exclusive
             if any(hasattr(args, dest) for dest in group.values())
             for key in group}
    return [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()
            if key.replace("-", "_") not in given]


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """Hand each parsed option to the config field of its name, of
    ``ExperimentConfig`` or of the hom2d geometry ``Hom2dConfig``."""
    options = vars(args)
    run = {f.name: options[f.name] for f in fields(ExperimentConfig)
           if f.name in options}
    if "hom2d" in READS[args.command]:
        geometry = {f.name: options[f.name] for f in fields(Hom2dConfig)
                    if f.name in options}
        run["hom2d"] = Hom2dConfig(**geometry)
    return ExperimentConfig(kind=args.command, **run)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # argv[0] is the subcommand: the top-level parser has no options
            file_flags = _config_flags(args.config, args)
            args = parser.parse_args(argv[:1] + file_flags + argv[1:])
        if args.command != "oracle":
            config = _experiment_config(args)
        if args.command == "hom2d" and args.fmt == "csv" and args.out is not None:
            curve_sidecar(args.out)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"spdcsim: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "oracle":
            header, rows = oracle_table(args.table, args.values, args.eta)
            emit_table(header, rows, args.out, args.fmt)
            return 0
        report = run_experiment(config)
        print_report(report)
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
    except MemoryError as exc:
        print(f"spdcsim: out of memory: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"spdcsim: i/o failure: {exc}", file=sys.stderr)
        return 3
    return 0 if report.all_passed else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
