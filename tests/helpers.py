"""Cached whole-column draws and the CHSH B estimate shared by the tests."""

import math
from functools import lru_cache

from spdcsim.estimators import feature_moments
from spdcsim.experiments import (ExperimentConfig, _chsh_b, _chsh_b_features,
                                 bell_arms, twin_fields)


@lru_cache(maxsize=8)
def twin_columns(s2: float, eta: float = 1.0, reps: int = 1_000_000, seed: int = 42):
    cfg = ExperimentConfig(kind="twin", gl=math.asinh(math.sqrt(s2)), eta=eta,
                           reps=reps, seed=seed)
    return twin_fields(cfg)


@lru_cache(maxsize=8)
def bell_columns(G: float, reps: int = 1_000_000, seed: int = 42):
    cfg = ExperimentConfig(kind="bell", G=G, reps=reps, seed=seed)
    return bell_arms(cfg)


def chsh_b_estimate(arms):
    """CHSH coefficient B at the standard angle set, from the same features
    and function as the bell report's B row."""
    return feature_moments(_chsh_b_features, *arms).estimate(_chsh_b)
