import time

import pytest

from helpers import bell_columns, twin_columns
from spdcsim.multimode import Hom2dConfig, calibrate_gain, run_hom2d


@pytest.fixture(scope="session")
def twin_cache():
    return twin_columns


@pytest.fixture(scope="session")
def bell_cache():
    return bell_columns


@pytest.fixture(scope="session")
def hom2d_curves():
    """The criterion-8 dip curves at seed 42, 100 reps, keyed by the
    calibrated photons per pixel, and the seconds they took."""
    start = time.perf_counter()
    curves = {}
    for target in (0.01, 0.1, 1.0, 10.0):
        curves[target] = run_hom2d(calibrate_gain(Hom2dConfig(), target), 100, 42)
    return curves, time.perf_counter() - start
