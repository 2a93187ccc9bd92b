"""The checks that need another process or a full-size run, so that a plain
``pytest`` runs every check of the CI workflow.

**Reruns on a second BLAS kernel and a second SIMD dispatch.**  The
fixed-seed pins are recorded on one machine: the Gaussians go through
numpy's SIMD log, and the hom2d digests through OpenBLAS (the SVD of the
kernel, the real products of the image synthesis, and the band sweep's
products), whose kernels round differently and, through the SVD's
degenerate singular pairs, move a hom2d curve by O(SE) (ROADMAP.md,
direction 8).  So the pins cannot cover another kernel or dispatch, but the
tests that compare two computations which run the same loops must agree on
every one.  Each rerun runs one ``-k`` selection in a child pytest with one
environment switch:

- ``OPENBLAS_CORETYPE=Haswell`` over the hom2d tests that check the
  real-arithmetic band sweep against its complex references (the
  plane-domain FFT sweep, the exact Gaussian oracle, the complex shift
  matrices), its BLAS-thread invariance and its independence of the tile
  size, the chunked image synthesis against the whole-block reference
  and against a synthesis of more repetitions, and the batched tile
  products and the vacuum half contracted from the draw against separate
  products and a copied half, bit for bit;
- ``NPY_DISABLE_CPU_FEATURES`` (numpy's AVX2 loops on an AVX-512 host) over
  the raw-word layout, the Box-Muller on uniforms against the integer-word
  reference, tall and wide draws a block at a time against one draw, a warm
  draw through the kept generator against a new one, and the hom2d axis
  kernel from its symmetric quarter against the full grid, each bit for
  bit.  The four pins known to fail under AVX2 (two vacuum pins and two
  hom2d draw pins, ROADMAP.md direction 8) stay out of the selection.

A rerun fails on any nonzero exit of the child, pytest's 5 (nothing
collected) included, and on any ``-k`` term that no passing test matches,
so a renamed test cannot drop out of its selection unseen.

**Full-size commands.**  The commands that no benchmark workload runs, at
their default 1e6 repetitions, through ``cli.main``: each must exit 0, so
every row lies within 5 standard errors of its oracle and no statistic is
degenerate, under pyproject.toml's filter that fails a test on any
RuntimeWarning.  The bell run at (0.3, 1.1) and the default hom run write
JSON reports whose metadata must record the settings they read, and each
oracle table printed as JSON must parse.
"""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import pytest

from spdcsim import cli

ROOT = Path(__file__).resolve().parents[1]

#: The reruns: id -> (environment switch, test files, -k terms).
RERUNS = {
    "haswell-blas": (
        {"OPENBLAS_CORETYPE": "Haswell"},
        ["tests/test_multimode.py"],
        ["plane_fft_reference", "exact_gaussian_oracle", "blas_threads", "band_ports",
         "tilt_tiles", "whole_block_reference", "later_repetitions",
         "batched_tile_products"]),
    "avx2-dispatch": (
        {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
        ["tests/test_sampling.py", "tests/test_multimode.py"],
        ["raw_words_follow_block_layout", "integer_path_bit_for_bit",
         "passes_of_a_tall_draw_equal_one_draw", "chunks_of_a_wide_draw_equal_one_draw",
         "reuses_its_generator", "symmetric_quarter_is_the_full_grid"]),
}


@pytest.mark.parametrize("switch, files, terms", RERUNS.values(), ids=RERUNS)
def test_selection_passes_in_a_child_pytest(switch, files, terms, tmp_path):
    junit = tmp_path / "junit.xml"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junit-xml={junit}", *files, "-k", " or ".join(terms)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path, **switch},
        capture_output=True, text=True, timeout=900)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
    passed = [case.get("name") for case in ElementTree.parse(junit).iter("testcase")
              if not any(child.tag in ("failure", "error", "skipped") for child in case)]
    assert [t for t in terms if not any(t in name for name in passed)] == [], passed


#: The full-size commands: id -> (argv, metadata its JSON report must record).
FULL_SIZE = {
    "bell-G0.05": (["bell", "--G", "0.05"], None),
    "bell-G1": (["bell", "--G", "1"], None),
    "bell-G10": (["bell", "--G", "10"], None),
    "bell-angles": (["bell", "--theta1", "0.3", "--theta2", "1.1", "--format", "json"],
                    {"theta1": 0.3, "theta2": 1.1}),
    "hom-T0.5": (["hom", "--format", "json"], {"transmittance": 0.5}),
    "hom-T0.3": (["hom", "--transmittance", "0.3"], None),
    # an unbalanced splitter, whose dip (2T - 1)^2 is no null, at low flux
    "hom-T0.9-G0.01": (["hom", "--transmittance", "0.9", "--G", "0.01"], None),
    # lossy detectors at low flux
    "twin-eta0.3-G0.01": (["twin", "--eta", "0.3", "--G", "0.01"], None),
    "fourfold-G0.01": (["fourfold", "--G", "0.01"], None),
    "fourfold-G10": (["fourfold", "--G", "10"], None),
}


@pytest.mark.parametrize("argv, recorded", FULL_SIZE.values(), ids=FULL_SIZE)
def test_full_size_command_passes_every_oracle_row(argv, recorded, tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(argv if recorded is None else [*argv, "--out", str(out)]) == 0
    if recorded is not None:
        metadata = json.loads(out.read_text())["metadata"]
        assert {key: metadata.get(key) for key in recorded} == recorded, metadata


@pytest.mark.parametrize("table", ["twin", "bell", "hom"])
def test_oracle_table_prints_json(table, capsys):
    assert cli.main(["oracle", "--table", table, "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)
