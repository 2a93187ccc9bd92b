"""Test-only helpers: whole-column field draws and statistics, the
reference jackknife, pair-moment statistics, single-axis multimode
sampling and report comparison.

No command of ``spdcsim`` uses these, so they live with the tests.  The
whole-column draws concatenate the chunks of the streamed pipelines
(``experiments._twin_chunk``, ``_hom_chunk``, ``_bell_chunk``), each drawn
into new arrays, so they hold the rows that the pipelines reduce.  The
whole-column statistics (:func:`mean_intensity`, ...,
:func:`fourfold_covariance`) reduce their columns in the same
``CHUNK_ROWS``-row chunks (:func:`feature_moments`) and hand the merged
moments to the ``spdcsim.estimators`` statistic of the same name, so they
give what the pipelines report for the same rows.  :func:`jackknife_se`
of a function of sample means is the reference for the delta-method
standard errors.
"""

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from spdcsim import estimators
from spdcsim.estimators import (FeatureMoments, FourfoldPlan, FourfoldResult,
                                MomentEstimate, chsh_intensities, chsh_products,
                                correlation_features, intensity_products, merge_moments,
                                row_chunks)
from spdcsim.experiments import (ExperimentConfig, _B_ANGLES, _bell_chunk, _chsh_b,
                                 _chsh_rows, _hom_chunk, _twin_chunk)
from spdcsim.multimode import SchmidtDecomposition
from spdcsim.sampling import RngStream, sample_vacuum

#: Metadata keys that vary between runs and are excluded from reproducibility
#: comparisons.
VOLATILE_METADATA = ("timestamp", "wall_time_s")


def _check_equal(*cols):
    cols = [np.asarray(c) for c in cols]
    if any(c.ndim != 1 for c in cols):
        raise ValueError("estimators expect 1-D ensemble columns")
    n = cols[0].shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if any(c.shape[0] != n for c in cols):
        raise ValueError("ensemble columns must have equal lengths")
    return cols


def feature_moments(features, *columns: np.ndarray) -> FeatureMoments:
    """Moments of the real feature columns ``features(*rows)`` over all rows.

    ``features`` maps a ``CHUNK_ROWS``-row chunk of each column to k real
    columns (or a (k, rows) array); the chunks' moments are merged by
    ``merge_moments``.  The pipelines reduce and merge the same chunks, so
    the two give the same means.
    """
    columns = _check_equal(*columns)
    return merge_moments(
        FeatureMoments.of_chunk(np.array(features(*(c[row0:row0 + rows] for c in columns)),
                                         dtype=np.float64))
        for row0, rows in row_chunks(columns[0].shape[0]))


def _intensities(*cols):
    return [np.abs(c) ** 2 for c in cols]


def mean_intensity(col: np.ndarray) -> MomentEstimate:
    """Normal-ordered mean intensity of one ensemble column."""
    return estimators.mean_intensity(feature_moments(_intensities, col))


def variance_intensity(col: np.ndarray) -> MomentEstimate:
    """Normal-ordered intensity variance of one ensemble column.

    The sampled variance of |E|^2, its covariance with itself, minus the
    1/4 ordering offset.
    """
    return estimators.variance_intensity(feature_moments(intensity_products, col, col))


def covariance_intensity(col_a: np.ndarray, col_b: np.ndarray) -> MomentEstimate:
    """Sample covariance of two intensity columns (no ordering correction)."""
    return estimators.covariance_intensity(
        feature_moments(intensity_products, col_a, col_b))


def correlation_coefficient(col_a: np.ndarray, col_b: np.ndarray) -> MomentEstimate:
    """Intensity correlation coefficient with normal-ordered variances."""
    return estimators.correlation_coefficient(
        feature_moments(correlation_features, col_a, col_b))


def chsh_coefficient(e1p: np.ndarray, e1m: np.ndarray,
                     e2p: np.ndarray, e2m: np.ndarray) -> MomentEstimate:
    """Polarisation correlation coefficient E from intensity products."""
    return estimators.chsh_coefficient(feature_moments(chsh_features, e1p, e1m, e2p, e2m))


def fourfold_covariance(s1: np.ndarray, s2: np.ndarray,
                        i1: np.ndarray, i2: np.ndarray) -> FourfoldResult:
    """Four-fold intensity covariance of four detector columns.  A column
    passed for two detectors (the same array object) is one field."""
    cols = (s1, s2, i1, i2)
    distinct = [c for k, c in enumerate(cols) if not any(c is d for d in cols[:k])]
    plan = FourfoldPlan([next(j for j, d in enumerate(distinct) if d is c) for c in cols])
    return estimators.fourfold_covariance(plan, feature_moments(plan.features, *distinct))


def jackknife_se(func, *samples: np.ndarray) -> float:
    """Delete-one jackknife standard error of ``func`` of sample means.

    ``func`` must accept the means of each column in ``samples`` and be
    numpy-broadcastable; it is evaluated on all leave-one-out means at
    once, and ``estimators.jackknife_se`` takes the values.
    """
    samples = [np.asarray(s) for s in samples]
    n = samples[0].shape[0]
    loo = [(s.sum() - s) / (n - 1) for s in samples]
    return estimators.jackknife_se(func(*loo))


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


def chsh_features(e1p, e1m, e2p, e2m, out=None, scratch=None):
    """The two feature rows of ``estimators.chsh_coefficient`` from the
    fields at the four polariser outputs, into ``out`` (new when absent),
    through the (4, n) float64 ``scratch`` (new when absent)."""
    out = np.empty((2, len(e1p))) if out is None else out
    scratch = np.empty((4, len(e1p))) if scratch is None else scratch
    i = chsh_intensities((e1p, e1m, e2p, e2m), scratch)
    chsh_products(*i, out=out, scratch=i[0])
    return out


def _chsh_b_features(*arms):
    out = np.empty((len(_B_ANGLES), len(arms[0])))  # two rows per (theta1, theta2)
    _chsh_rows(arms, _B_ANGLES, out)
    return out


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
