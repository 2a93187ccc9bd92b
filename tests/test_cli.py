import csv
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import spdcsim
from spdcsim import cli, experiments, multimode
from spdcsim.elements import GainParams
from spdcsim.estimators import FeatureMoments, MomentEstimate
from spdcsim.experiments import ExperimentConfig
from spdcsim.multimode import DipCurve, Hom2dConfig, schmidt_decompose
from spdcsim.reporting import RunReport, emit_results, make_row
from spdcsim.sampling import RngStream

from helpers import VOLATILE_METADATA, comparable_text


def run_cli(args):
    return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_twin_report_has_three_data_rows(tmp_path):
    out = tmp_path / "twin.csv"
    code = run_cli(["twin", "--gain-gl", "0.8814", "--reps", "2e5",
                    "--seed", "42", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["statistic", "mc_value", "mc_se", "oracle",
                       "deviation_se", "pass"]
    assert [r[0] for r in rows[1:]] == ["mean", "var", "cov"]
    assert all(r[5] == "true" for r in rows[1:])
    # cov ~ 2.0 at S^2 = 1
    assert float(rows[3][1]) == pytest.approx(2.0, abs=0.05)


def test_gain_flags_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        run_cli(["twin", "--gain-gl", "1.0", "--G", "1.0"])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["twin", "--no-such-flag"])
    assert exc.value.code == 2
    assert run_cli(["twin", "--eta", "1.5", "--reps", "100"]) == 2


@pytest.mark.parametrize("argv", [
    ["twin", "--reps", "inf"],
    ["twin", "--reps", "100", "--G", "-1"],
    ["twin", "--reps", "100", "--G", "nan"],
    ["twin", "--reps", "100", "--gain-gl", "nan"],
    ["hom", "--reps", "100", "--transmittance", "1.5"],
    ["hom", "--reps", "100", "--transmittance", "nan"],
    ["twin", "--reps", "100", "--eta", "nan"],
    ["bell", "--reps", "100", "--theta1", "nan"],
    ["hom2d", "--reps", "3", "--n-pixels", "4"],
    ["hom2d", "--reps", "2"],
    ["hom2d", "--reps", "3", "--pitch", "nan", "--photons-per-pixel", "1"],
    ["hom2d", "--reps", "3", "--pump-waist", "nan", "--photons-per-pixel", "1"],
    ["twin", "--reps", "2.7"],
    ["oracle", "--table", "bell", "--values", "nan"],
    ["oracle", "--table", "bell", "--values", "1,inf"],
    ["hom2d", "--reps", "3", "--threads", "2"],
    ["hom2d", "--reps", "3", "--gain-scale", "0.8", "--photons-per-pixel", "1"],
    ["oracle", "--table", "bell", "--values", "1", "--eta", "0.5"],
    ["oracle", "--table", "hom", "--values", "0.5", "--eta", "0.9"],
    ["oracle", "--table", "twin", "--eta", "1.5"],
    ["oracle", "--table", "hom", "--values", "1.5"],
    ["hom2d", "--reps", "3", "--phase-matching", "rect"],
])
def test_bad_input_is_a_usage_error_with_a_reason(argv, capsys):
    try:
        code = run_cli(argv)
    except SystemExit as exc:  # argparse rejects the --reps value itself
        code = exc.code
        assert code == 2
        assert "spdcsim" in capsys.readouterr().err
        return
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("spdcsim: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, reason", [
    (["hom", "--transmittance", "1.5"], "transmittance must lie in [0, 1], got 1.5"),
    (["hom", "--transmittance", "nan"], "transmittance must lie in [0, 1], got nan"),
    (["twin", "--eta", "nan"], "eta must lie in [0, 1], got nan"),
    (["oracle", "--table", "twin", "--eta", "1.5"], "eta must lie in [0, 1], got 1.5"),
    (["oracle", "--table", "hom", "--values", "1.5"],
     "transmittance must lie in [0, 1], got 1.5"),
])
def test_unit_interval_refusals_name_the_setting_and_its_value(argv, reason, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"spdcsim: {reason}\n"


@pytest.mark.parametrize("argv, reason", [
    (["twin", "--G", "-1"], "G must be finite and >= 0, got -1.0"),
    (["twin", "--G", "nan"], "G must be finite and >= 0, got nan"),
    (["twin", "--G", "inf"], "G must be finite and >= 0, got inf"),
    (["oracle", "--table", "twin", "--values", "-1"], "G must be finite and >= 0, got -1.0"),
    (["twin", "--gain-gl", "-1"], "gl must be finite and >= 0, got -1.0"),
    (["hom", "--threads", "0"], "threads must be >= 1, got 0"),
    (["hom2d", "--gain-scale", "-1"], "gain_scale must be finite and >= 0, got -1.0"),
    (["hom2d", "--gain-scale", "nan"], "gain_scale must be finite and >= 0, got nan"),
    (["oracle", "--table", "bell", "--values", "-1"], "G must be finite and >= 0, got -1.0"),
    (["bell", "--theta1", "nan"], "theta1 must be finite, got nan"),
    (["hom2d", "--n-pixels", "0"], "n_pixels must be >= 1, got 0"),
    (["hom2d", "--pitch", "-1"], "pitch must be positive and finite, got -1.0"),
    # a geometry whose kernel terms leave double range: no overflow
    # warning, and no blame on the gain
    (["hom2d", "--reps", "3", "--pump-waist", "1e-300"],
     "pump_waist 1e-300 is out of range: 2 / pump_waist^2 is not positive and finite"),
    (["hom2d", "--reps", "3", "--n-pixels", "8", "--pitch", "1e308"],
     "pitch 1e+308 is too large: the span of the 8-pixel momentum axis, squared, overflows"),
    (["hom2d", "--reps", "3", "--pm-bandwidth", "1e-300"],
     "pm_bandwidth 1e-300 at crystal_length_mm 0.8 is too narrow for the 64-pixel axis "
     "at pitch 0.25: the phase mismatch at its edge overflows"),
])
def test_gain_and_thread_refusals_name_the_setting_and_its_value(argv, reason, capsys):
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"spdcsim: {reason}\n"


@pytest.mark.parametrize("seed", [-1, 2 ** 64 + 42])
@pytest.mark.parametrize("given", ["flag", "env", "config"])
def test_seed_outside_64_bits_is_a_usage_error(seed, given, tmp_path, monkeypatch, capsys):
    # the streams take 64-bit seeds: 2**64 + 42 must not run as seed 42
    argv = ["twin", "--reps", "100"]
    if given == "flag":
        argv += ["--seed", str(seed)]
    elif given == "env":
        monkeypatch.setenv("SPDC_SEED", str(seed))
    else:
        cfg = tmp_path / "run.toml"
        cfg.write_text(f"seed = {seed}\n")
        argv += ["--config", str(cfg)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == f"spdcsim: seed must be in [0, 2**64), got {seed}\n"


def test_a_fractional_seed_is_rejected_not_truncated():
    # the streams own the seed range: 42.5 must not run as seed 42 while
    # the report records 42.5
    with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\), got 42.5$"):
        ExperimentConfig(kind="twin", seed=42.5)


def test_largest_seed_runs(tmp_path):
    out = tmp_path / "twin.csv"
    assert run_cli(["twin", "--reps", "1000", "--seed", str(2 ** 64 - 1),
                    "--out", str(out)]) == 0
    assert [r[0] for r in read_csv(out)[1:]] == ["mean", "var", "cov"]


def test_gain_beyond_cosh_range_is_a_usage_error_naming_it(capsys):
    assert run_cli(["twin", "--reps", "100", "--gain-gl", "1000"]) == 2
    assert capsys.readouterr().err == (
        "spdcsim: gain-length product gL = 1000.0 is too large: cosh(gL) "
        "overflows a double for gL above about 710.48\n")


@pytest.mark.parametrize("photons", ["1e300", "0", "-1", "nan", "inf"])
def test_hom2d_bad_photon_target_is_a_usage_error(photons, capsys):
    code = run_cli(["hom2d", "--reps", "3", "--photons-per-pixel", photons])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("spdcsim: photons_per_pixel") and err.count("\n") == 1
    if photons == "1e300":
        assert "reachable range" in err


def test_runs_never_import_scipy(tmp_path):
    # Every subcommand runs with scipy unimportable, and a default-size
    # hom2d run leaves it unloaded.
    script = f"""
import sys
from spdcsim import cli
out = {str(tmp_path)!r}
assert cli.main(["hom2d", "--reps", "100", "--photons-per-pixel", "1",
                 "--seed", "42", "--out", out + "/dip.csv"]) == 0
assert "scipy" not in sys.modules
sys.modules["scipy"] = None
runs = [
    ["hom2d", "--reps", "20", "--n-pixels", "16", "--pitch", "0.6",
     "--theta-sweep=-1.8,-0.9,0,0.9,1.8", "--photons-per-pixel", "1"],
    ["twin", "--reps", "20000"], ["hom", "--reps", "20000"],
    ["bell", "--reps", "20000"], ["fourfold", "--reps", "20000"],
    ["oracle", "--table", "twin"],
]
for argv in runs:
    assert cli.main(argv + ["--out", out + "/" + argv[0] + ".csv"]) == 0, argv
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("kind, reps", [("twin", "2"), ("fourfold", "2"), ("hom", "2"),
                                        ("bell", "2"), ("hom2d", "1")])
def test_every_kind_needs_three_reps(kind, reps, capsys):
    # with two rows the delta-method variance of a variance is identically
    # zero, so twin and fourfold would report rows whose SE is exactly 0
    assert run_cli([kind, "--reps", reps]) == 2
    assert "reps must be >= 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, reason", [
    (["hom2d", "--reps", "2"], "reps must be >= 3"),
    (["hom2d", "--reps", "3", "--pitch", "nan"], "pitch"),
    (["hom2d", "--reps", "3", "--theta-sweep=nan,0,1"], "theta_sweep"),
])
def test_hom2d_bad_geometry_fails_before_the_run(argv, reason, monkeypatch, capsys):
    def no_run(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    assert run_cli(argv) == 2
    assert reason in capsys.readouterr().err


def test_hom2d_tilt_at_the_reference_shift_is_a_usage_error(capsys):
    # 2 * 2.1 / 0.6 = 7 pixels, the reference shift 15 // 2: that dip point
    # would be 1 with a standard error of 0
    sweep = ",".join(f"{t:.17g}" for t in np.linspace(-2.1, 2.1, 7))
    assert run_cli(["hom2d", "--reps", "60", "--seed", "5", "--n-pixels", "15",
                    "--pitch", "0.6", f"--theta-sweep={sweep}"]) == 2
    err = capsys.readouterr().err
    assert "theta = 2.1 " in err and "reference shift 7" in err, err


def test_hom2d_tilt_near_the_reference_shift_is_a_usage_error(capsys):
    # 2 * 2.103 / 0.6 = 7.01 pixels, 0.01 from the reference shift: that dip
    # point would be 0.9999 +- 3.4e-4, and its weight would pull the width
    # fit from 0.879 to 0.601
    sweep = ",".join(f"{t:.17g}" for t in [*np.linspace(-2.1, 2.1, 7)[:-1], 2.1 + 3e-3])
    assert run_cli(["hom2d", "--reps", "60", "--seed", "5", "--n-pixels", "15",
                    "--pitch", "0.6", f"--theta-sweep={sweep}"]) == 2
    err = capsys.readouterr().err
    assert "theta = 2.103 " in err and "within 0.5 of the reference shift 7" in err, err


@pytest.mark.parametrize("argv", [
    ["hom2d", "--reps", "60", "--n-pixels", "16"],
    ["hom2d", "--reps", "5", "--n-pixels", "16", "--gain-scale", "9"],
])
def test_hom2d_band_reaching_the_reference_shift_is_a_usage_error(argv, monkeypatch,
                                                                  capsys):
    # at the default pitch the whole 16-pixel image is band, so the
    # reference tilt does not separate the beams: the first exited 0 with
    # wings of 0.45 and 0.69, the second 3 on a reference coherence of -2.2e29
    def no_draw(*args, **kwargs):
        raise AssertionError("the images were drawn")

    monkeypatch.setattr(multimode, "sample_image_planes", no_draw)
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "reaches the reference shift of 8 pixels" in err and "Traceback" not in err, err


def test_hom2d_tilt_beyond_half_the_grid_is_a_usage_error(monkeypatch, capsys):
    # the default sweep's wings, theta = +-3.6 at pitch 0.25, shift by 28.8
    # pixels: on 16 pixels the circular shift wraps that round to -3.2, and
    # the curve dipped again at theta = +-2.025 (16.2 pixels, wrapped to 0.2)
    def no_draw(*args, **kwargs):
        raise AssertionError("the images were drawn")

    monkeypatch.setattr(multimode, "sample_image_planes", no_draw)
    assert run_cli(["hom2d", "--n-pixels", "16", "--gain-scale", "0.1", "--reps", "40"]) == 2
    err = capsys.readouterr().err
    assert "theta = -3.6 " in err and "more than half of n_pixels = 16" in err, err
    assert "Traceback" not in err, err


def test_hom2d_zero_gain_is_a_usage_error(capsys):
    assert run_cli(["hom2d", "--reps", "3", "--gain-scale", "0"]) == 2
    assert "gain_scale" in capsys.readouterr().err


@pytest.mark.parametrize("gain", ["100", "200", "400"])
def test_hom2d_gain_too_large_is_a_usage_error(gain, capsys):
    # the pair statistics (100), the product gains (200) or the kernel (400)
    # overflow at these gains; under the suite's error::RuntimeWarning
    # filter a numpy warning would fail the test
    assert run_cli(["hom2d", "--reps", "5", "--gain-scale", gain, "--n-pixels", "16"]) == 2
    assert f"gain_scale {gain} is too large" in capsys.readouterr().err


@pytest.mark.parametrize("gain", ["1e200", "1e300"])
def test_hom2d_gain_beyond_double_range_is_a_usage_error(gain, capsys):
    # the square of the gain (1e200) and the gain-guided bandwidth (1e300)
    # overflow a double; under the suite's error::RuntimeWarning filter a
    # numpy warning would fail the test
    assert run_cli(["hom2d", "--reps", "5", "--gain-scale", gain, "--n-pixels", "16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spdcsim: gain_scale {float(gain):g} is too large")
    assert "Traceback" not in err
    assert "Warning" not in err


def test_only_chunked_runs_report_threads(tmp_path):
    # hom2d runs on the calling thread, so its report has no threads
    twin, dip = tmp_path / "twin.json", tmp_path / "dip.json"
    assert run_cli(["twin", "--reps", "1e4", "--format", "json",
                    "--out", str(twin)]) == 0
    assert json.loads(twin.read_text())["metadata"]["threads"] == 1
    assert run_cli(["hom2d", "--reps", "3", "--n-pixels", "16", "--pitch", "0.6",
                    "--theta-sweep=-1.8,0,1.8", "--format", "json",
                    "--out", str(dip)]) == 0
    assert "threads" not in json.loads(dip.read_text())["metadata"]


def test_bell_threshold_brackets_two(tmp_path):
    out = tmp_path / "bell.json"
    code = run_cli(["bell", "--G", "0.26120", "--reps", "2e5", "--seed", "42",
                    "--out", str(out), "--format", "json"])
    assert code == 0
    data = json.loads(out.read_text())
    b_row = [r for r in data["rows"] if r["statistic"] == "B"][0]
    assert abs(b_row["mc_value"] - 2.0) < 0.05
    assert b_row["pass"] is True


def test_hom_null(tmp_path):
    out = tmp_path / "hom.csv"
    code = run_cli(["hom", "--gain-gl", "0.8814", "--reps", "2e5",
                    "--seed", "42", "--out", str(out)])
    assert code == 0
    rows = {r[0]: r for r in read_csv(out)[1:]}
    assert float(rows["cov_output"][3]) == 0.0
    assert rows["cov_output"][5] == "true"
    assert abs(float(rows["dip_amplitude"][1])) < 0.02


def test_reproducible_outputs_and_thread_independence(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    base = ["twin", "--gain-gl", "0.8814", "--reps", "1e5", "--seed", "7"]
    assert run_cli(base + ["--out", str(a)]) == 0
    assert run_cli(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run_cli(base + ["--threads", "8", "--out", str(c)]) == 0
    assert a.read_bytes() == c.read_bytes()


def test_json_comparable_text_strips_volatile(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    base = ["twin", "--gain-gl", "0.8814", "--reps", "5e4", "--seed", "3",
            "--format", "json"]
    assert run_cli(base + ["--out", str(a)]) == 0
    assert run_cli(base + ["--out", str(b)]) == 0
    assert comparable_text(a) == comparable_text(b)


def test_env_seed_default(tmp_path, monkeypatch):
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    monkeypatch.setenv("SPDC_SEED", "1234")
    assert run_cli(["twin", "--reps", "5e4", "--out", str(out1)]) == 0
    monkeypatch.delenv("SPDC_SEED")
    assert run_cli(["twin", "--reps", "5e4", "--seed", "1234",
                    "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text('seed = 99\nreps = 50000\ngain_gl = 0.8814\n# comment\n')
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    assert run_cli(["twin", "--config", str(cfg), "--out", str(out1)]) == 0
    # flag overrides file
    assert run_cli(["twin", "--config", str(cfg), "--seed", "100",
                    "--out", str(out2)]) == 0
    ref = tmp_path / "ref.csv"
    assert run_cli(["twin", "--gain-gl", "0.8814", "--reps", "5e4",
                    "--seed", "99", "--out", str(ref)]) == 0
    assert out1.read_bytes() == ref.read_bytes()
    assert out2.read_bytes() != ref.read_bytes()


@pytest.mark.parametrize("argv, entry, flags", [
    (["twin", "--reps", "1e4"], "G = 0.01", ["--G", "0.01"]),
    (["hom2d", "--reps", "5", "--n-pixels", "16", "--pitch", "0.6"],
     'theta_sweep = "-1.8,0,1.8"', ["--theta-sweep=-1.8,0,1.8"]),
    (["hom2d", "--reps", "5", "--n-pixels", "16", "--pitch", "0.6"],
     "theta_sweep = -1.8,0,1.8", ["--theta-sweep=-1.8,0,1.8"]),
    (["twin", "--reps", "1e4"], "seeed = 5", None),
    (["twin", "--reps", "1e4"], "g = 0.01", None),
    (["hom2d", "--reps", "5"], "crystal_length_mm = 5", None),
    (["hom2d", "--reps", "5"], "threads = 2", None),
    (["hom2d", "--reps", "5", "--n-pixels", "16", "--pitch", "0.6"],
     "theta_sweep = '-1.8,0,1.8'", ["--theta-sweep=-1.8,0,1.8"]),
])
def test_config_file_keys_are_flag_names(argv, entry, flags, tmp_path, capsys):
    # A config entry acts as its flag; a key that is no flag (None) is a
    # usage error that names it.
    cfg = tmp_path / "run.toml"
    cfg.write_text(entry + "\n")
    from_file = tmp_path / "file.csv"
    from_flags = tmp_path / "flags.csv"
    code = run_cli(argv + ["--config", str(cfg), "--out", str(from_file)])
    if flags is None:
        assert code == 2
        key = entry.split("=")[0].strip()
        assert f"unknown key {key!r}" in capsys.readouterr().err
        return
    assert code == 0
    assert run_cli(argv + flags + ["--out", str(from_flags)]) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()


def test_oracle_eta_is_rejected_where_no_table_column_uses_it(capsys):
    assert run_cli(["oracle", "--table", "bell", "--values", "1", "--eta", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "eta applies to the twin table only" in err and err.count("\n") == 1
    assert run_cli(["oracle", "--table", "bell", "--values", "1", "--eta", "1"]) == 0
    assert run_cli(["oracle", "--table", "twin", "--values", "1", "--eta", "0.5"]) == 0


@pytest.mark.parametrize("kind", ["hom", "bell", "fourfold", "hom2d"])
@pytest.mark.parametrize("eta", [0.5, 0.0, math.nan])
def test_eta_is_refused_by_every_kind_without_detector_loss(kind, eta):
    # only twin has lossy detectors: any other kind would run lossless and
    # still record the eta it was given in its report
    with pytest.raises(ValueError, match=f"^the {kind} run does not read eta, got .*; "
                                         "eta applies to twin runs only$"):
        ExperimentConfig(kind=kind, eta=eta)
    assert ExperimentConfig(kind=kind, eta=1.0).eta == 1.0
    if math.isfinite(eta):
        assert ExperimentConfig(kind="twin", eta=eta).eta == eta


#: Each field of ExperimentConfig but kind, reps and seed: a value off its
#: default, and the kinds that read it.
FIELD_READERS = {
    "gl": (0.5, "twin, hom, bell, fourfold"),
    "G": (5.0, "twin, hom, bell, fourfold"),
    "eta": (0.5, "twin"),
    "theta1": (1.0, "bell"),
    "theta2": (1.0, "bell"),
    "transmittance": (0.3, "hom"),
    "threads": (4, "twin, hom, bell, fourfold"),
    "photons_per_pixel": (1.0, "hom2d"),
    "hom2d": (Hom2dConfig(n_pixels=16, pitch=0.6, theta_sweep=(-1.8, 0.0, 1.8)), "hom2d"),
}


def test_field_readers_cover_every_field_and_agree_with_reads():
    assert set(FIELD_READERS) == {f.name for f in fields(ExperimentConfig)} - {
        "kind", "reps", "seed"}
    for name, (_, readers) in FIELD_READERS.items():
        assert readers.split(", ") == [kind for kind in experiments.EXPERIMENT_KINDS
                                       if name in experiments.READS[kind]]


@pytest.mark.parametrize("kind, name", [
    (kind, name) for name, (_, readers) in FIELD_READERS.items()
    for kind in experiments.EXPERIMENT_KINDS if kind not in readers.split(", ")])
def test_every_kind_refuses_the_fields_it_does_not_read(kind, name):
    # a run that ignored a field would still be taken to have checked it
    value, readers = FIELD_READERS[name]
    with pytest.raises(ValueError) as exc:
        ExperimentConfig(kind=kind, **{name: value})
    assert str(exc.value) == (f"the {kind} run does not read {name}, got {value}; "
                              f"{name} applies to {readers} runs only")
    for reader in readers.split(", "):
        assert getattr(ExperimentConfig(kind=reader, **{name: value}), name) == value


def test_hom2d_refuses_photons_per_pixel_with_a_gain_scale():
    geometry = Hom2dConfig(n_pixels=16, pitch=0.6, gain_scale=2.0)
    with pytest.raises(ValueError, match="^give either photons_per_pixel or gain_scale, "
                                         "not both$"):
        ExperimentConfig(kind="hom2d", photons_per_pixel=1.0, hom2d=geometry)
    assert ExperimentConfig(kind="hom2d", hom2d=geometry).hom2d.gain_scale == 2.0
    assert ExperimentConfig(kind="hom2d", photons_per_pixel=1.0).photons_per_pixel == 1.0


#: The metadata keys of each kind's report, in order, less the volatile
#: ones: the fields it reads between reps and version, hom2d's as
#: calibrated (its geometry as "config") after its diagnostics.
METADATA_KEYS = {
    "twin": ["experiment", "seed", "reps", "threads", "gl", "G", "eta", "version"],
    "hom": ["experiment", "seed", "reps", "threads", "gl", "G", "transmittance", "version"],
    "bell": ["threshold_G", "experiment", "seed", "reps", "threads", "gl", "G",
             "theta1", "theta2", "version"],
    "fourfold": ["experiment", "seed", "reps", "threads", "gl", "G", "version"],
    "hom2d": ["sigma_theta", "photons_per_pixel", "n_modes", "band_pairs", "band_rows",
              "schmidt_residual", "config", "experiment", "seed", "reps", "version"],
}


@pytest.mark.parametrize("kind, settings, recorded", [
    ("twin", {"eta": 0.5}, {"eta": 0.5}),
    ("hom", {"transmittance": 0.3}, {"transmittance": 0.3}),
    ("bell", {"theta1": 0.3, "theta2": 1.1}, {"theta1": 0.3, "theta2": 1.1}),
    ("fourfold", {"gl": 0.5}, {"gl": 0.5}),
    ("hom2d", {"photons_per_pixel": 1.0, "hom2d": FIELD_READERS["hom2d"][0]}, {}),
])
def test_each_report_records_exactly_the_fields_its_kind_reads(kind, settings, recorded):
    config = ExperimentConfig(kind=kind, reps=3 if kind == "hom2d" else 5000, **settings)
    meta = json.loads(json.dumps(experiments.run_experiment(config).metadata))
    keys = [k for k in meta if k not in VOLATILE_METADATA]
    assert keys == METADATA_KEYS[kind]
    if kind == "hom2d":
        # as calibrated: the brightest pixel's intensity, and the geometry
        # at the gain found
        assert experiments.READS[kind] == ("photons_per_pixel", "hom2d")
        assert meta["photons_per_pixel"] == pytest.approx(1.0, rel=1e-3)
        geometry = replace(settings["hom2d"], gain_scale=meta["config"]["gain_scale"])
        assert meta["config"] == json.loads(json.dumps(asdict(geometry)))
    else:
        assert tuple(keys[keys.index("reps") + 1:keys.index("version")]) == \
            experiments.READS[kind]
    assert {k: meta[k] for k in recorded} == recorded


@pytest.mark.parametrize("command", experiments.EXPERIMENT_KINDS)
def test_each_subcommand_takes_the_flags_of_the_fields_its_kind_reads(command):
    args = cli.build_parser().parse_args([command])
    geometry = [{"crystal_length_mm": "crystal_length"}.get(f.name, f.name)
                for f in fields(Hom2dConfig)]
    flags = {"gl": ["gain_gl"], "hom2d": geometry}
    expected = ["out", "format", "reps", "seed",
                *(key for name in experiments.READS[command] for key in flags.get(name, [name]))]
    assert sorted(args.config_keys) == sorted(expected)


@pytest.mark.parametrize("argv, entry, flags", [
    (["twin", "--reps", "1e4"], "gain_gl = 0.8814", ["--G", "1"]),
    (["twin", "--reps", "1e4"], "G = 0.01", ["--gain-gl", "0.5"]),
    (["twin", "--reps", "1e4"], "gain-gl = 0.8814", ["--G=1"]),
    (["hom2d", "--reps", "5", "--n-pixels", "16", "--pitch", "0.6",
      "--theta-sweep=-1.8,0,1.8"], "gain_scale = 0.5", ["--photons-per-pixel", "1"]),
    (["hom2d", "--reps", "5", "--n-pixels", "16", "--pitch", "0.6",
      "--theta-sweep=-1.8,0,1.8"], "photons_per_pixel = 1", ["--gain-scale", "0.8814"]),
])
def test_command_line_flag_wins_over_file_entry_of_its_exclusive_partner(
        argv, entry, flags, tmp_path):
    # The command line sets one flag of a mutually exclusive pair and the
    # config file the other: the run is the command line's alone.
    cfg = tmp_path / "run.toml"
    cfg.write_text(entry + "\n")
    from_both = tmp_path / "both.csv"
    from_flags = tmp_path / "flags.csv"
    assert run_cli(argv + flags + ["--config", str(cfg), "--out", str(from_both)]) == 0
    assert run_cli(argv + flags + ["--out", str(from_flags)]) == 0
    assert from_both.read_bytes() == from_flags.read_bytes()


def test_config_file_with_both_exclusive_keys_is_a_usage_error(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text("gain_gl = 0.8814\nG = 1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["twin", "--reps", "1e4", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_file_parse_errors(tmp_path):
    bad = tmp_path / "bad.toml"
    bad.write_text("this is not a key value line\n")
    assert run_cli(["twin", "--config", str(bad)]) == 2


def test_statistical_failure_exit_code(monkeypatch):
    report = RunReport("twin", rows=[
        make_row("mean", MomentEstimate(1.0, 0.001), 2.0)])
    monkeypatch.setattr(cli, "run_experiment", lambda cfg: report)
    assert run_cli(["twin", "--reps", "100"]) == 1


@pytest.mark.parametrize("argv,named", [
    (["fourfold", "--gain-gl", "150"], "fourfold oracle overflows"),
    (["bell", "--gain-gl", "200"], "statistic 'rho': value is nan"),
    (["twin", "--gain-gl", "300"], "twin-beam var and cov oracles overflow"),
    (["hom", "--gain-gl", "350"], "hom cov_input oracle overflows"),
    # a finite oracle (9.0e304) whose sampled value overflows
    (["fourfold", "--G", "1e76"], "statistic 'fourfold_direct': value is inf"),
])
def test_overflow_is_a_numeric_failure_naming_its_statistic(argv, named, tmp_path, capsys):
    # the fields overflow a double at these gains; under the suite's
    # error::RuntimeWarning filter a numpy warning would fail the test
    out = tmp_path / "report.json"
    code = run_cli([*argv, "--reps", "1000", "--format", "json", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("spdcsim: numeric failure: ")
    assert named in captured.err
    assert "Warning" not in captured.err
    assert "nan" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv,named", [
    (["twin", "--gain-gl", "300", "--eta", "0.5"], "twin-beam var and cov oracles overflow"),
    (["hom", "--gain-gl", "350"], "hom cov_input oracle overflows"),
    (["fourfold", "--gain-gl", "150"], "fourfold oracle overflows"),
])
def test_an_overflowing_oracle_fails_before_the_draw(argv, named, monkeypatch, capsys):
    # the oracles depend on the configuration alone
    def no_draw(*args, **kwargs):
        raise AssertionError("sample_vacuum was called")

    monkeypatch.setattr(experiments, "sample_vacuum", no_draw)
    assert run_cli([*argv, "--reps", "1e6"]) == 3
    assert named in capsys.readouterr().err


def test_hom2d_without_reference_coherence_is_degenerate(tmp_path, capsys):
    # at this gain every pair product equals its vacuum control variate, so
    # the reference-tilt aggregate, the dip's denominator, is 0; under the
    # suite's error::RuntimeWarning filter a numpy warning would fail the test
    out = tmp_path / "curve.json"
    code = run_cli(["hom2d", "--reps", "5", "--gain-scale", "1e-9",
                    "--format", "json", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("spdcsim: degenerate statistic: ")
    assert "reference tilt (the dip's denominator)" in captured.err
    assert "Warning" not in captured.err
    assert "nan" not in captured.out
    assert not out.exists()


def test_out_of_memory_is_an_exit_3_with_a_reason(monkeypatch, capsys):
    message = "Unable to allocate 1.19 TiB for an array with shape (10000000, 8192)"

    def no_memory(config):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_experiment", no_memory)
    assert run_cli(["hom2d", "--reps", "1e7"]) == 3
    assert capsys.readouterr().err == f"spdcsim: out of memory: {message}\n"


@pytest.mark.parametrize("command", ["twin", "hom", "bell", "fourfold", "hom2d"])
def test_api_defaults_are_the_command_line_defaults(command, monkeypatch):
    monkeypatch.delenv("SPDC_SEED", raising=False)
    args = cli.build_parser().parse_args([command])
    config = ExperimentConfig(kind=command)
    assert (args.reps, args.seed) == (config.reps, config.seed)
    assert {"reps", "seed"}.isdisjoint(f.name for f in fields(Hom2dConfig))


@pytest.mark.parametrize("make, reason", [
    (lambda: ExperimentConfig(kind="twin", reps=1e4), "reps must be an integer, got 10000.0"),
    (lambda: multimode.run_hom2d(Hom2dConfig(), 5.0, 1), "reps must be an integer, got 5.0"),
    (lambda: ExperimentConfig(kind="hom", threads=1.5), "threads must be an integer, got 1.5"),
    (lambda: Hom2dConfig(n_pixels=16.0), "n_pixels must be an integer, got 16.0"),
], ids=["reps", "hom2d-reps", "threads", "n_pixels"])
def test_a_non_integer_count_is_refused(make, reason):
    # a float count that passes the range checks would otherwise fail
    # later with a TypeError, or, as threads, run and be recorded
    with pytest.raises(ValueError, match=f"^{reason}$"):
        make()


def test_io_failure_exit_code(tmp_path):
    out = tmp_path / "no-such-dir" / "x.csv"
    code = run_cli(["twin", "--reps", "1e4", "--out", str(out)])
    assert code == 3


def test_hom2d_outputs_curve_and_sidecar(tmp_path):
    out = tmp_path / "dip.csv"
    code = run_cli(["hom2d", "--reps", "30", "--seed", "11",
                    "--n-pixels", "16", "--pitch", "0.6",
                    "--theta-sweep=-1.8,-0.9,0,0.9,1.8",
                    "--gain-scale", "0.8", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["theta", "amplitude", "std_error"]
    assert len(rows) - 1 == 5
    sidecar = json.loads(out.with_suffix(".json").read_text())
    for key in ("sigma_theta", "photons_per_pixel", "n_modes", "seed", "config"):
        assert key in sidecar
    assert "G" not in sidecar  # hom2d's gain is config.gain_scale
    assert sidecar["config"]["theta_sweep"] == [-1.8, -0.9, 0.0, 0.9, 1.8]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_ndarray_theta_sweep_gives_a_complete_report(fmt, tmp_path):
    sweep = np.array([-1.8, -0.9, 0.0, 0.9, 1.8])
    geometry = Hom2dConfig(n_pixels=16, pitch=0.6, gain_scale=0.8, theta_sweep=sweep)
    report = experiments.run_experiment(
        ExperimentConfig(kind="hom2d", reps=30, seed=11, hom2d=geometry))
    out = emit_results(report, tmp_path / f"dip.{fmt}", fmt)
    if fmt == "csv":
        assert len(read_csv(out)) - 1 == sweep.size
        out = out.with_suffix(".json")
    payload = json.loads(out.read_text())
    assert payload.get("metadata", payload)["config"]["theta_sweep"] == sweep.tolist()


def test_hom2d_metadata_records_the_band_and_the_schmidt_residual(tmp_path):
    out = tmp_path / "dip.json"
    code = run_cli(["hom2d", "--reps", "3", "--photons-per-pixel", "1",
                    "--format", "json", "--out", str(out)])
    assert code == 0
    meta = json.loads(out.read_text())["metadata"]
    assert (meta["band_pairs"], meta["band_rows"]) == (532, 26)
    assert 0 <= meta["schmidt_residual"] < 1e-12


def test_hom2d_run_does_not_import_numpy_ma(tmp_path):
    # numpy.unique imports numpy.ma (about 15 ms and 1 MB); the sweep
    # needs neither
    script = f"""
import sys
from spdcsim import cli
code = cli.main(["hom2d", "--reps", "5", "--n-pixels", "16", "--pitch", "0.6",
                 "--theta-sweep=-1.8,0,1.8", "--out", {str(tmp_path / "dip.csv")!r}])
print(code, "numpy.ma" in sys.modules)
"""
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1].split() == ["0", "False"]


def test_a_one_thread_json_run_imports_no_thread_pool_or_csv_writer(tmp_path):
    # concurrent.futures (with logging, queue and traceback) and csv are
    # imported where a run uses them, so neither the import of the command
    # line nor a one-thread JSON run pays for them; numpy.random is
    # imported by the first draw, not by the import
    script = f"""
import sys
import spdcsim.cli
print(*(m in sys.modules for m in ("concurrent.futures", "csv", "numpy.random")))
code = spdcsim.cli.main(["twin", "--reps", "20000", "--format", "json",
                         "--out", {str(tmp_path / "twin.json")!r}])
print(code, *(m in sys.modules for m in ("concurrent.futures", "csv")))
"""
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()  # the report is printed between them
    assert lines[0].split() == ["False", "False", "False"]
    assert lines[-1].split() == ["0", "False", "False"]


def test_the_records_generate_only_the_methods_that_something_uses():
    # Every run pays for the code that the import compiles from "<string>"
    # with exec or eval: each method a dataclass generates (__repr__ comes
    # wrapped) and the __new__ of each namedtuple base.  Only the two configs stay dataclasses: cli reads their fields(),
    # the hom2d report asdict()s its geometry and calibrate_gain replace()s
    # it, ExperimentConfig compares its hom2d field to the default
    # Hom2dConfig, and the tests print a Hom2dConfig's repr; no caller
    # compares or prints an ExperimentConfig.  The immutable records are
    # namedtuples, one generated __new__ each, and RunReport a slotted class.
    generated = {}
    for info in pkgutil.iter_modules(spdcsim.__path__):
        module = importlib.import_module(f"spdcsim.{info.name}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            for klass in cls.__mro__:  # a namedtuple base too
                names = sorted(
                    name for name, attr in vars(klass).items()
                    if inspect.isfunction(f := getattr(attr, "__func__", attr))
                    and inspect.unwrap(f).__code__.co_filename == "<string>")
                if klass.__module__.startswith("spdcsim.") and names:
                    generated[klass] = names
    assert sum(map(len, generated.values())) == 16, {
        f"{k.__module__}.{k.__qualname__}": v for k, v in generated.items()}


FROZEN_RECORDS = {
    "GainParams": (lambda: GainParams(0.5), "gl"),
    "MomentEstimate": (lambda: MomentEstimate(1.0, 0.1), "value"),
    "FeatureMoments": (lambda: FeatureMoments.of_chunk(np.ones((2, 3))), "mean"),
    "SchmidtDecomposition": (lambda: schmidt_decompose(np.eye(2)), "lam"),
    "DipCurve": (lambda: DipCurve(np.zeros(1), np.zeros(1), np.ones(1), None, 1.0,
                                  4, 1, 2, 2, 0.0), "amplitude"),
    "StatisticRow": (lambda: make_row("mean", MomentEstimate(1.0, 0.1), 1.0), "passed"),
    "RngStream": (lambda: RngStream(42, 0), "stream_id"),
    "ExperimentConfig": (lambda: ExperimentConfig(kind="twin"), "reps"),
    "Hom2dConfig": (lambda: Hom2dConfig(), "n_pixels"),
}


@pytest.mark.parametrize("name", FROZEN_RECORDS)
def test_a_frozen_record_refuses_attribute_assignment(name):
    make, field = FROZEN_RECORDS[name]
    record = make()
    before = getattr(record, field)
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    assert not hasattr(record, "extra")


def test_hom2d_csv_curve_refuses_a_json_path(tmp_path, capsys):
    # the curve's JSON sidecar would go to the same path and overwrite it
    out = tmp_path / "curve.json"
    code = run_cli(["hom2d", "--reps", "5", "--n-pixels", "16",
                    "--format", "csv", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "sidecar" in err


def test_emit_refuses_a_csv_curve_at_its_sidecar_path(tmp_path):
    curve = DipCurve(theta=np.array([0.0]), amplitude=np.array([0.1]),
                     std_error=np.array([0.01]), sigma_theta=None,
                     photons_per_pixel=1.0, n_modes=4, seed=1, band_pairs=2,
                     band_rows=2, schmidt_residual=0.0)
    out = tmp_path / "curve.json"
    with pytest.raises(ValueError, match="sidecar"):
        emit_results(RunReport("hom2d", curve=curve), out, "csv")
    assert not out.exists()


def test_oracle_tables(tmp_path, capsys):
    out = tmp_path / "bell_table.csv"
    assert run_cli(["oracle", "--table", "bell", "--values", "0,1",
                    "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["G", "gain_factor", "B", "threshold_G"]
    assert float(rows[1][2]) == pytest.approx(2 * math.sqrt(2))
    assert float(rows[2][2]) == pytest.approx(math.sqrt(2))

    assert run_cli(["oracle", "--table", "hom", "--values", "0.9"]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed[0] == "transmittance,cov_ratio"
    assert float(printed[1].split(",")[1]) == pytest.approx(0.64)


@pytest.mark.parametrize("table", ["twin", "bell", "hom"])
def test_oracle_json_on_stdout_is_the_json_file(table, tmp_path, capsys):
    out = tmp_path / "table.json"
    argv = ["oracle", "--table", table, "--format", "json"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == out.read_text()


def test_empty_report_emits_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    emit_results(RunReport("twin", rows=[]), out, "csv")
    rows = read_csv(out)
    assert rows == [["statistic", "mc_value", "mc_se", "oracle",
                     "deviation_se", "pass"]]


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_results(RunReport("twin", rows=[]), tmp_path / "x.yaml", "yaml")


def test_curve_json_roundtrip(tmp_path):
    curve = DipCurve(theta=np.array([0.0, 1.0]), amplitude=np.array([0.1, 0.9]),
                     std_error=np.array([0.01, 0.02]), sigma_theta=0.5,
                     photons_per_pixel=1.0, n_modes=4, seed=1, band_pairs=2,
                     band_rows=2, schmidt_residual=0.0)
    report = RunReport("hom2d", rows=[], curve=curve,
                       metadata={"seed": 1})
    out = tmp_path / "curve.json"
    emit_results(report, out, "json")
    data = json.loads(out.read_text())
    assert data["curve"]["amplitude"] == [0.1, 0.9]
