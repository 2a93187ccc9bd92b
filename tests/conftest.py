import math
import time
from dataclasses import replace
from functools import lru_cache

import pytest

from spdcsim.estimators import feature_moments
from spdcsim.experiments import (ExperimentConfig, _chsh_b, _chsh_b_features,
                                 bell_arms, twin_fields)
from spdcsim.multimode import Hom2dConfig, calibrate_gain, run_hom2d


@lru_cache(maxsize=8)
def twin_columns(s2: float, eta: float = 1.0, reps: int = 1_000_000, seed: int = 42):
    cfg = ExperimentConfig(kind="twin", gl=math.asinh(math.sqrt(s2)), eta=eta,
                           reps=reps, seed=seed)
    return twin_fields(cfg)


@lru_cache(maxsize=8)
def bell_columns(G: float, reps: int = 1_000_000, seed: int = 42):
    cfg = ExperimentConfig(kind="bell", G=G, reps=reps, seed=seed)
    return bell_arms(cfg)


def chsh_b_estimate(arms, reps: int):
    """CHSH coefficient B at the standard angle set over ``reps`` repetitions,
    from the same features and function as the bell report's B row."""
    est = feature_moments(_chsh_b_features, *arms).estimate(_chsh_b)
    return replace(est, n_samples=reps)


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
        cfg = calibrate_gain(Hom2dConfig(seed=42, reps=100), target)
        curves[target] = run_hom2d(cfg)
    return curves, time.perf_counter() - start
