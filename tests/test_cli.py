import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdcsim import cli
from spdcsim.estimators import MomentEstimate
from spdcsim.multimode import DipCurve
from spdcsim.reporting import (RunReport, comparable_text, emit_results,
                               make_row)


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
])
def test_bad_input_is_a_usage_error_with_a_reason(argv, capsys):
    try:
        code = run_cli(argv)
    except SystemExit as exc:  # argparse rejects the --reps value itself
        code = exc.code
    assert code == 2
    assert "spdcsim" in capsys.readouterr().err


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


def test_hom2d_needs_two_reps(capsys):
    assert run_cli(["hom2d", "--reps", "1"]) == 2
    assert "reps >= 2" in capsys.readouterr().err


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


def test_hom2d_zero_gain_is_a_usage_error(capsys):
    assert run_cli(["hom2d", "--reps", "3", "--gain-scale", "0"]) == 2
    assert "gain_scale" in capsys.readouterr().err


def test_only_chunked_runs_report_threads(tmp_path):
    # hom2d draws its repetitions as one chunk, so its report has no threads
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


@pytest.mark.parametrize("argv, entry, flags", [
    (["twin", "--reps", "1e4"], "gain_gl = 0.8814", ["--G", "1"]),
    (["twin", "--reps", "1e4"], "G = 0.01", ["--gain-gl", "0.5"]),
    (["twin", "--reps", "1e4"], "gain-gl = 0.8814", ["--G=1"]),
    (["hom2d", "--reps", "5", "--n-pixels", "16", "--pitch", "0.6"],
     "gain_scale = 0.5", ["--photons-per-pixel", "1"]),
    (["hom2d", "--reps", "5", "--n-pixels", "16", "--pitch", "0.6"],
     "photons_per_pixel = 1", ["--gain-scale", "0.8814"]),
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
    (["fourfold", "--gain-gl", "150"], "statistic 'fourfold_direct': value is nan"),
    (["bell", "--gain-gl", "200"], "statistic 'rho': value is nan"),
    (["twin", "--gain-gl", "300"], "twin-beam var and cov oracles overflow"),
    (["hom", "--gain-gl", "350"], "hom cov_input oracle overflows"),
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
                     photons_per_pixel=1.0, n_modes=4, seed=1)
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
                     photons_per_pixel=1.0, n_modes=4, seed=1)
    report = RunReport("hom2d", rows=[], curve=curve,
                       metadata={"seed": 1})
    out = tmp_path / "curve.json"
    emit_results(report, out, "json")
    data = json.loads(out.read_text())
    assert data["curve"]["amplitude"] == [0.1, 0.9]
