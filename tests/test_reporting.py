"""Every output of the command line pinned byte for byte.

Hand-built reports and oracle rows go through ``cli.main`` in place of a
run or a table, so the bytes depend on no draw, CPU or BLAS build: the
printed report, the statistic table as CSV and as JSON, the dip curve as
CSV with its JSON sidecar and as JSON, and an oracle table as a CSV file,
a JSON file and CSV on stdout.  CSV files end their lines with the csv
module's ``\\r\\n``, stdout with ``\\n``.
"""

import numpy as np
import pytest

from spdcsim import cli
from spdcsim.multimode import DipCurve
from spdcsim.reporting import RunReport, StatisticRow

REPORTS = {
    "twin": RunReport("twin", rows=[
        StatisticRow("mean", 1 / 3, 0.0125, 0.5, 13.333333333333334, False),
        StatisticRow("cov", 2.0000000000001, 1e-17, 2.0, 0.25, True),
    ], metadata={"experiment": "twin", "seed": 42, "reps": 1000, "eta": 0.5}),
    # the metadata shares keys with the curve, so the sidecar's key order shows
    "hom2d": RunReport("hom2d", curve=DipCurve(
        theta=np.array([-1.8, 0.0, 1.8]), amplitude=np.array([0.9531, 0.1 / 3, 1e-5]),
        std_error=np.array([0.0126, 0.0147, 2.5e-3]), sigma_theta=0.7717527987665955,
        photons_per_pixel=0.9999999999994911, n_modes=4096, seed=42, band_pairs=532,
        band_rows=26, schmidt_residual=1.6651196428632766e-15),
        metadata={"sigma_theta": 0.7717527987665955, "n_modes": 4096,
                  "config": {"n_pixels": 64, "theta_sweep": [-1.8, 0.0, 1.8]},
                  "experiment": "hom2d", "seed": 42}),
}

PRINTED = {
    "twin": """\
experiment: twin
  mean                       +0.333333 +- 0.0125  oracle +0.5  dev 13.33 se  FAIL
  cov                        +2 +- 1e-17  oracle +2  dev 0.25 se  PASS
""",
    "hom2d": """\
experiment: hom2d
  photons/pixel 1  modes 4096  sigma_theta 0.7718
  theta  -1.8000  amplitude   0.9531 +- 0.0126
  theta  +0.0000  amplitude   0.0333 +- 0.0147
  theta  +1.8000  amplitude   0.0000 +- 0.0025
""",
}

STATS_JSON = """\
{
  "experiment": "twin",
  "rows": [
    {
      "statistic": "mean",
      "mc_value": 0.3333333333333333,
      "mc_se": 0.0125,
      "oracle": 0.5,
      "deviation_se": 13.333333333333334,
      "pass": false
    },
    {
      "statistic": "cov",
      "mc_value": 2.0000000000001,
      "mc_se": 1e-17,
      "oracle": 2.0,
      "deviation_se": 0.25,
      "pass": true
    }
  ],
  "metadata": {
    "experiment": "twin",
    "seed": 42,
    "reps": 1000,
    "eta": 0.5
  }
}
"""

SIDECAR = """\
{
  "sigma_theta": 0.7717527987665955,
  "n_modes": 4096,
  "config": {
    "n_pixels": 64,
    "theta_sweep": [
      -1.8,
      0.0,
      1.8
    ]
  },
  "experiment": "hom2d",
  "seed": 42,
  "theta": [
    -1.8,
    0.0,
    1.8
  ],
  "amplitude": [
    0.9531,
    0.03333333333333333,
    1e-05
  ],
  "std_error": [
    0.0126,
    0.0147,
    0.0025
  ],
  "photons_per_pixel": 0.9999999999994911
}
"""

CURVE_JSON = """\
{
  "experiment": "hom2d",
  "rows": [],
  "metadata": {
    "sigma_theta": 0.7717527987665955,
    "n_modes": 4096,
    "config": {
      "n_pixels": 64,
      "theta_sweep": [
        -1.8,
        0.0,
        1.8
      ]
    },
    "experiment": "hom2d",
    "seed": 42
  },
  "curve": {
    "theta": [
      -1.8,
      0.0,
      1.8
    ],
    "amplitude": [
      0.9531,
      0.03333333333333333,
      1e-05
    ],
    "std_error": [
      0.0126,
      0.0147,
      0.0025
    ],
    "sigma_theta": 0.7717527987665955,
    "photons_per_pixel": 0.9999999999994911,
    "n_modes": 4096,
    "seed": 42
  }
}
"""

WRITTEN = {
    ("twin", "csv"): {"out.csv": b"statistic,mc_value,mc_se,oracle,deviation_se,pass\r\n"
                                 b"mean,0.333333333333,0.0125,0.5,13.3333333333,false\r\n"
                                 b"cov,2,1e-17,2,0.25,true\r\n"},
    ("twin", "json"): {"out.json": STATS_JSON.encode()},
    ("hom2d", "csv"): {"out.csv": b"theta,amplitude,std_error\r\n"
                                  b"-1.8,0.9531,0.0126\r\n"
                                  b"0,0.0333333333333,0.0147\r\n"
                                  b"1.8,1e-05,0.0025\r\n",
                       "out.json": SIDECAR.encode()},
    ("hom2d", "json"): {"out.json": CURVE_JSON.encode()},
}

ORACLE = (["G", "gain_factor", "B"], [[0.0, 1.0, 2.8284271247461903],
                                      [0.1 / 3, 0.25, 1e-20]])

ORACLE_CSV = "G,gain_factor,B\n0,1,2.82842712475\n0.0333333333333,0.25,1e-20\n"

ORACLE_FILES = {
    "csv": ORACLE_CSV.replace("\n", "\r\n").encode(),
    "json": b"""\
[
  {
    "G": 0.0,
    "gain_factor": 1.0,
    "B": 2.8284271247461903
  },
  {
    "G": 0.03333333333333333,
    "gain_factor": 0.25,
    "B": 1e-20
  }
]
""",
}


@pytest.mark.parametrize("kind,fmt", list(WRITTEN))
def test_report_bytes(kind, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_experiment", lambda config: REPORTS[kind])
    code = cli.main([kind, "--format", fmt, "--out", str(tmp_path / f"out.{fmt}")])
    assert code == (1 if kind == "twin" else 0)  # the twin report has a failing row
    assert capsys.readouterr().out == PRINTED[kind]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == WRITTEN[kind, fmt]


@pytest.mark.parametrize("fmt", list(ORACLE_FILES))
def test_oracle_file_bytes(fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_table", lambda table, values, eta: ORACLE)
    out = tmp_path / "table"
    assert cli.main(["oracle", "--format", fmt, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == ORACLE_FILES[fmt]


def test_oracle_csv_stdout_bytes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "oracle_table", lambda table, values, eta: ORACLE)
    assert cli.main(["oracle"]) == 0
    assert capsys.readouterr().out == ORACLE_CSV
