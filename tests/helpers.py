"""Test-only helpers: whole-column field draws, pair-moment statistics,
single-axis multimode sampling and report comparison.

No command of ``spdcsim`` uses these, so they live with the tests.  The
whole-column draws concatenate the chunks of the streamed pipelines
(``experiments._twin_chunk``, ``_hom_chunk``, ``_bell_chunk``), each drawn
into new arrays, so they hold the rows that the pipelines reduce.
"""

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from spdcsim.estimators import (MomentEstimate, feature_moments,
                                intensity_products, row_chunks)
from spdcsim.experiments import (ExperimentConfig, _bell_chunk, _chsh_b,
                                 _chsh_b_features, _hom_chunk, _twin_chunk)
from spdcsim.multimode import SchmidtDecomposition
from spdcsim.sampling import RngStream, sample_vacuum

#: Metadata keys that vary between runs and are excluded from reproducibility
#: comparisons.
VOLATILE_METADATA = ("timestamp", "wall_time_s")


def _whole_columns(draw, config: ExperimentConfig):
    chunks = (draw(config, *chunk, None) for chunk in row_chunks(config.reps))
    return tuple(np.concatenate(cols) for cols in zip(*chunks))


def twin_fields(config: ExperimentConfig):
    """Detector-plane twin-beam field columns (signal, idler)."""
    return _whole_columns(_twin_chunk, config)


def hom_fields(config: ExperimentConfig):
    """Input and output field columns of the interference experiment."""
    return _whole_columns(_hom_chunk, config)


def bell_arms(config: ExperimentConfig):
    """Polarisation-entangled fields at the two locations.

    Two independent amplifiers pump the crossed polarisation pairs
    (1x, 2y) and (1y, 2x), which realises the maximally entangled
    polarisation state for intensity correlations.
    """
    return _whole_columns(_bell_chunk, config)


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


def field_pair_moment(col_a: np.ndarray, col_b: np.ndarray,
                      conjugate_second: bool = False) -> MomentEstimate:
    """Mean field product <E_a E_b> or <E_a E_b*> (symmetric order)."""
    def features(a, b):
        prod = a * (np.conj(b) if conjugate_second else b)
        return prod.real, prod.imag

    return feature_moments(features, col_a, col_b).estimate(lambda m: m[0] + 1j * m[1])


def moment_theorem_residual(col_a: np.ndarray, col_b: np.ndarray) -> MomentEstimate:
    """Residual of the Gaussian factorisation of <I_a I_b>.

    For jointly Gaussian fields the symmetric-order intensity product
    factorises as <I_a><I_b> + |<E_a E_b*>|^2 + |<E_a E_b>|^2; the returned
    estimate is the sampled difference.
    """
    def features(a, b):
        cross, pair = a * np.conj(b), a * b
        return (*intensity_products(a, b), cross.real, cross.imag, pair.real, pair.imag)

    def resid(m):
        return m[2] - m[0] * m[1] - (m[3] ** 2 + m[4] ** 2) - (m[5] ** 2 + m[6] ** 2)

    return feature_moments(features, col_a, col_b).estimate(resid)


def sample_multimode(dec: SchmidtDecomposition, rng: RngStream, reps: int):
    """Synthesise single-axis pixel-plane field ensembles from Schmidt modes.

    Per repetition: draw a vacuum pair per Schmidt mode, amplify it with
    the per-mode gain, map to pixels through U and V, and add the
    orthogonal-complement vacuum so every pixel carries the full vacuum.
    Returns ``(signal, idler)`` arrays of shape (reps, n_pixels).
    """
    K = dec.n_modes
    ns = dec.U.shape[0]
    ni = dec.V.shape[0]
    ens = sample_vacuum(rng, reps, 2 * K + ns + ni)
    es0 = ens[:, :K]
    ei0 = ens[:, K:2 * K]
    vs = ens[:, 2 * K:2 * K + ns]
    vi = ens[:, 2 * K + ns:]
    C = np.cosh(dec.g)
    S = np.sinh(dec.g)
    amp_s = C * es0 - 1j * S * np.conj(ei0)
    amp_i = C * ei0 - 1j * S * np.conj(es0)
    signal = amp_s @ dec.U.T + vs - (vs @ np.conj(dec.U)) @ dec.U.T
    idler = amp_i @ dec.V.T + vi - (vi @ np.conj(dec.V)) @ dec.V.T
    return signal, idler


def comparable_text(path: Path) -> str:
    """File content with volatile metadata stripped, for reproducibility checks."""
    text = Path(path).read_text()
    if Path(path).suffix != ".json":
        return text
    data = json.loads(text)
    meta = data.get("metadata", data)
    for key in VOLATILE_METADATA:
        meta.pop(key, None)
    return json.dumps(data, indent=2, sort_keys=True)
