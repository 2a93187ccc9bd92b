"""Ensemble statistics with symmetric-to-normal ordering corrections.

Estimators consume columns of complex field samples (one repetition per
row).  Sampled intensities |E|^2 are symmetric-order quantities; the
estimators subtract the ordering constants (1/2 for means, 1/4 for
variances, nothing for covariances) so that reported values are
normal-ordered observables.

Every statistic is a smooth function f of the means of per-repetition
feature columns.  The engine reduces each chunk of at most
:data:`CHUNK_ROWS` = 16384 rows (the sampler's chunk, see
:mod:`spdcsim.sampling`) to its mean vector and centred Gram matrix
(:meth:`FeatureMoments.of_chunk`), and :func:`merge_moments` merges the
chunks in row order (Chan, Golub & LeVeque 1979).  The experiment
pipelines write a chunk's features straight into the rows of a (k, rows)
matrix that the worker keeps: the feature functions
(:func:`intensity_products`, :func:`correlation_features`,
:func:`chsh_features`, :meth:`FourfoldPlan.features`, :func:`pair_parts`)
take ``out`` rows and scratch arrays, so a warm chunk allocates nothing.
The value is f(mean); the standard error is the delta method,
sqrt(grad f' Sigma grad f / n), with a central-difference gradient.

The whole-column functions (:func:`mean_intensity`,
:func:`variance_intensity`, :func:`covariance_intensity`,
:func:`correlation_coefficient`, :func:`chsh_coefficient`,
:func:`fourfold_covariance`) compute the same features, into new arrays,
over the same chunks through :func:`feature_moments`, and
:func:`jackknife_se` is the reference for the delta method.  No command
calls them: the tests check the pipelines against them, and the benchmark
harness (``perfbench/child.py``, ``TRACED``) wraps them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .sampling import CHUNK_ROWS, ORDERING
from . import theory

__all__ = [
    "CHUNK_ROWS",
    "DegenerateStatisticError",
    "FeatureMoments",
    "FourfoldPlan",
    "FourfoldResult",
    "MomentEstimate",
    "chsh_coefficient",
    "chsh_estimate",
    "chsh_features",
    "correlation_coefficient",
    "correlation_estimate",
    "correlation_features",
    "covariance_estimate",
    "covariance_intensity",
    "feature_moments",
    "fourfold_covariance",
    "intensity_products",
    "intensity_snr",
    "jackknife_se",
    "mean_estimate",
    "mean_intensity",
    "merge_moments",
    "normal_intensities",
    "pair_parts",
    "row_chunks",
    "variance_estimate",
    "variance_intensity",
]

def row_chunks(n: int):
    """(row0, rows) of each :data:`CHUNK_ROWS`-row chunk of ``n`` rows, in
    row order, made as they are asked for."""
    return ((row0, min(CHUNK_ROWS, n - row0)) for row0 in range(0, n, CHUNK_ROWS))


#: Central-difference step of the delta-method gradient, relative to the
#: magnitude of each mean plus its standard error.
_GRADIENT_STEP = 1e-6


class DegenerateStatisticError(ValueError):
    """Raised when a ratio statistic has no usable denominator."""


@dataclass(frozen=True)
class MomentEstimate:
    """A statistic with its standard error."""

    value: float | complex
    std_error: float

    def deviation(self, oracle: float | complex) -> float:
        """Distance from an oracle value in units of the standard error."""
        if self.std_error <= 0:
            return float("inf")
        return float(abs(self.value - oracle) / self.std_error)


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


def normal_intensities(col: np.ndarray) -> np.ndarray:
    """Per-sample normal-ordered intensities |E|^2 - 1/2 (may be negative)."""
    col = np.asarray(col)
    return np.abs(col) ** 2 - ORDERING.intensity_offset


def jackknife_se(func, *samples: np.ndarray) -> float:
    """Delete-one jackknife standard error of ``func`` of sample means.

    ``func`` must accept the means of each column in ``samples`` and be
    numpy-broadcastable; it is evaluated on all leave-one-out means at
    once.  The tests use it as the reference for :meth:`FeatureMoments.estimate`.
    """
    samples = [np.asarray(s) for s in samples]
    n = samples[0].shape[0]
    loo = [(s.sum() - s) / (n - 1) for s in samples]
    theta = func(*loo)
    theta = np.asarray(theta, dtype=np.float64)
    return float(np.sqrt((n - 1) * np.mean((theta - theta.mean()) ** 2)))


@dataclass(frozen=True)
class FeatureMoments:
    """Mean vector and centred Gram matrix of k feature columns over n rows."""

    n: int
    mean: np.ndarray
    gram: np.ndarray

    @classmethod
    def of_chunk(cls, x: np.ndarray) -> "FeatureMoments":
        """Moments of one chunk given as its C-contiguous (k, rows) float64
        feature matrix, one feature a row; ``x`` is centred in place."""
        mean = x.mean(axis=1)
        x -= mean[:, None]
        return cls(x.shape[1], mean, x @ x.T)

    def select(self, idx) -> "FeatureMoments":
        """Moments of the features ``idx`` (in that order; repeats allowed)."""
        idx = np.asarray(idx)
        return FeatureMoments(self.n, self.mean[idx], self.gram[np.ix_(idx, idx)])

    def estimate(self, f) -> MomentEstimate:
        """``f`` of the feature means with its delta-method standard error.

        ``f`` indexes the mean vector by feature (``m[0]``, ``m[1]``, ...) and
        must broadcast over trailing axes: the gradient evaluates it on all 2k
        shifted mean vectors at once.  A complex ``f`` gets sqrt(E|f_hat - f|^2).
        """
        k = self.mean.shape[0]
        cov = self.gram / (self.n - 1)
        h = _GRADIENT_STEP * (np.abs(self.mean) + np.sqrt(np.diag(cov) / self.n))
        h = np.where(h > 0, h, _GRADIENT_STEP)
        shifts = np.diag(h)
        shifted = np.asarray(f(self.mean[:, None] + np.hstack([shifts, -shifts])))
        grad = (shifted[:k] - shifted[k:]) / (2.0 * h)
        var = float(np.real(np.conj(grad) @ cov @ grad)) / self.n
        return MomentEstimate(np.asarray(f(self.mean)).item(),
                              float(np.sqrt(max(var, 0.0))))


def merge_moments(chunks) -> FeatureMoments:
    """Merge the :class:`FeatureMoments` of consecutive row chunks, in the
    order given, into the moments of all their rows (Chan, Golub & LeVeque
    1979).  ``chunks`` may be any iterable, so a caller can draw and reduce
    one chunk at a time."""
    n, mean, gram = 0, 0.0, 0.0
    for chunk in chunks:
        rows = chunk.n
        delta = chunk.mean - mean
        gram = gram + chunk.gram + np.outer(delta, delta) * (n * rows / (n + rows))
        mean = mean + delta * (rows / (n + rows))
        n += rows
    return FeatureMoments(n, mean, gram)


def feature_moments(features, *columns: np.ndarray) -> FeatureMoments:
    """Moments of the real feature columns ``features(*rows)`` over all rows.

    ``features`` maps a :data:`CHUNK_ROWS`-row chunk of each column to k
    real columns (or a (k, rows) array); the chunks' moments are merged by
    :func:`merge_moments`.  The pipelines reduce and merge the same chunks,
    so the two give the same means.
    """
    columns = _check_equal(*columns)
    return merge_moments(
        FeatureMoments.of_chunk(np.array(features(*(c[row0:row0 + rows] for c in columns)),
                                         dtype=np.float64))
        for row0, rows in row_chunks(columns[0].shape[0]))


def _intensities(*cols):
    return [np.abs(c) ** 2 for c in cols]


def _rows(out, k: int, col) -> np.ndarray:
    """``out``, the k feature rows to write, or a new (k, len(col)) array."""
    return np.empty((k, len(col))) if out is None else out


def _intensity(col, out: np.ndarray) -> np.ndarray:
    """|E|^2 of ``col`` into ``out``: the doubles of ``np.abs(col) ** 2``."""
    np.abs(col, out=out)
    return np.square(out, out=out)


def intensity_products(a, b, out=None):
    """Features |E_a|^2, |E_b|^2 and their product (symmetric order).

    The feature functions write their k features as the rows of ``out``, a
    (k, n) float64 array or k float64 rows, and return it; a new (k, n)
    array when absent.
    """
    xa, xb, xab = out = _rows(out, 3, a)
    _intensity(a, xa)
    _intensity(b, xb)
    np.multiply(xa, xb, out=xab)
    return out


def correlation_features(a, b, out=None):
    """Features of :func:`correlation_estimate`: those of
    :func:`intensity_products` and both squared intensities."""
    out = _rows(out, 5, a)
    xa, xb = intensity_products(a, b, out[:3])[:2]
    np.square(xa, out=out[3])
    np.square(xb, out=out[4])
    return out


def pair_parts(a, conj_a: bool, b, conj_b: bool, out, scratch) -> None:
    """Real and imaginary parts of the product a b, either factor
    conjugated when its flag says so, into the two float64 rows ``out``,
    through the complex128 ``scratch`` (not both factors conjugated)."""
    a = np.conjugate(a, out=scratch) if conj_a else a
    b = np.conjugate(b, out=scratch) if conj_b else b
    np.multiply(a, b, out=scratch)
    np.copyto(out[0], scratch.real)
    np.copyto(out[1], scratch.imag)


def _variance(n: int, i: int, ii: int):
    """Normal-ordered variance (n - 1 normalisation) from the means of x, x^2."""
    return lambda m: (m[ii] - m[i] ** 2) * (n / (n - 1)) - ORDERING.variance_offset


def mean_estimate(moments: FeatureMoments) -> MomentEstimate:
    """Normal-ordered mean intensity from the moments of (|E|^2,)."""
    return moments.estimate(lambda m: m[0] - ORDERING.intensity_offset)


def variance_estimate(moments: FeatureMoments) -> MomentEstimate:
    """Normal-ordered intensity variance from the moments of
    :func:`intensity_products` of a column with itself."""
    return moments.estimate(_variance(moments.n, 0, 2))


def covariance_estimate(moments: FeatureMoments) -> MomentEstimate:
    """Intensity covariance (no ordering correction) from the moments of
    :func:`intensity_products`."""
    n = moments.n
    return moments.estimate(lambda m: (m[2] - m[0] * m[1]) * (n / (n - 1)))


def correlation_estimate(moments: FeatureMoments) -> MomentEstimate:
    """Intensity correlation coefficient with normal-ordered variances from
    the moments of :func:`correlation_features`."""
    off = ORDERING.variance_offset

    def rho(m):
        va = m[3] - m[0] ** 2 - off
        vb = m[4] - m[1] ** 2 - off
        return (m[2] - m[0] * m[1]) / np.sqrt(va * vb)

    for i, ii in ((0, 3), (1, 4)):
        var = moments.estimate(_variance(moments.n, i, ii))
        if var.value <= 0 or var.value < 5.0 * var.std_error:
            raise DegenerateStatisticError(
                "normal-ordered variance consistent with zero")
    return moments.estimate(rho)


def chsh_estimate(moments: FeatureMoments) -> MomentEstimate:
    """Polarisation correlation coefficient E from the moments of
    :func:`chsh_features`."""
    den = moments.estimate(lambda m: m[1])
    if abs(den.value) < 5.0 * den.std_error:
        raise DegenerateStatisticError("intensity-product denominator consistent with zero")
    return moments.estimate(lambda m: m[0] / m[1])


def mean_intensity(col: np.ndarray) -> MomentEstimate:
    """Normal-ordered mean intensity of one ensemble column."""
    return mean_estimate(feature_moments(_intensities, col))


def variance_intensity(col: np.ndarray) -> MomentEstimate:
    """Normal-ordered intensity variance of one ensemble column.

    The sampled variance of |E|^2, its covariance with itself, minus the
    1/4 ordering offset.
    """
    return variance_estimate(feature_moments(intensity_products, col, col))


def covariance_intensity(col_a: np.ndarray, col_b: np.ndarray) -> MomentEstimate:
    """Sample covariance of two intensity columns (no ordering correction)."""
    return covariance_estimate(feature_moments(intensity_products, col_a, col_b))


def correlation_coefficient(col_a: np.ndarray, col_b: np.ndarray) -> MomentEstimate:
    """Intensity correlation coefficient with normal-ordered variances."""
    return correlation_estimate(feature_moments(correlation_features, col_a, col_b))


def chsh_features(e1p, e1m, e2p, e2m, out=None, scratch=None):
    """Per-repetition numerator and denominator of the coefficient E.

    Products of normal-ordered intensities at the plus/minus outputs of the
    two polarisers; E is the ratio of their means.  The two rows go to
    ``out`` (see :func:`intensity_products`); the four intensities take
    the (4, n) float64 ``scratch``, new when absent.
    """
    num, den = out = _rows(out, 2, e1p)
    i1p, i1m, i2p, i2m = _rows(scratch, 4, e1p)
    for col, i in zip((e1p, e1m, e2p, e2m), (i1p, i1m, i2p, i2m)):
        np.subtract(_intensity(col, i), ORDERING.intensity_offset, out=i)
    # num = i1p i2p + i1m i2m - i1p i2m - i1m i2p and den the same with +,
    # summed left to right; i1p and i1m, read for the last time, hold the
    # last two products.
    np.multiply(i1p, i2p, out=num)
    np.add(num, np.multiply(i1m, i2m, out=den), out=num)
    np.copyto(den, num)
    for i, j in ((i1p, i2m), (i1m, i2p)):
        np.multiply(i, j, out=i)
        np.subtract(num, i, out=num)
        np.add(den, i, out=den)
    return out


def chsh_coefficient(e1p: np.ndarray, e1m: np.ndarray,
                     e2p: np.ndarray, e2m: np.ndarray) -> MomentEstimate:
    """Polarisation correlation coefficient E from intensity products.

    Uses raw per-sample normal-ordered intensities; the product of mean
    intensities is deliberately not subtracted (covariances are not a
    valid ingredient of this statistic).
    """
    return chsh_estimate(feature_moments(chsh_features, e1p, e1m, e2p, e2m))


@dataclass(frozen=True)
class FourfoldResult:
    """Direct four-detector covariance plus its nine-term factorisation."""

    direct: MomentEstimate
    terms: np.ndarray
    term_classes: dict = field(default_factory=dict)
    terms_total: MomentEstimate | None = None
    class_estimates: dict = field(default_factory=dict)


#: The six pair moments of :func:`theory.fourfold_terms` as products of two
#: detector fields, (detector, conjugated) each: <E_s1 E_s2*>, <E_i1* E_i2>,
#: <E_s1 E_i1>, <E_s1 E_i2>, <E_s2 E_i1>, <E_s2 E_i2>.
_FOURFOLD_PAIRS = (((0, False), (1, True)), ((2, True), (3, False)),
                   ((0, False), (2, False)), ((0, False), (3, False)),
                   ((1, False), (2, False)), ((1, False), (3, False)))


class FourfoldPlan:
    """Features and estimates of the four-fold covariance of detectors
    (s1, s2, i1, i2) whose fields are the distinct columns ``pattern``
    names: ``(0, 0, 1, 1)`` when both signal and both idler detectors see
    the same field, ``(0, 1, 2, 3)`` for four distinct fields.

    The direct term <prod_k (I_k - <I_k>)> is the sum over detector subsets
    S of <prod_{k in S} I_k> prod_{k not in S} (-<I_k>), a smooth function of
    raw intensity moments, so its delta-method error accounts for the
    estimated means.  Each distinct intensity monomial and each distinct
    pair product is one feature: 8 + 6 features for ``(0, 0, 1, 1)``.
    """

    def __init__(self, pattern):
        self.pattern = tuple(pattern)
        self._subsets = [s for r in range(5) for s in combinations(range(4), r)]
        # sorted field indices of each distinct monomial -> its feature, by degree
        self._monomials = {key: j for j, key in enumerate(dict.fromkeys(
            self._monomial(s) for s in self._subsets[1:]))}
        # (field, conjugated, field, conjugated) of each distinct pair product
        keys = [(self.pattern[p], cp, self.pattern[q], cq)
                for (p, cp), (q, cq) in _FOURFOLD_PAIRS]
        self._pairs = list(dict.fromkeys(keys))
        self._pair_features = [len(self._monomials) + 2 * self._pairs.index(k) for k in keys]
        #: Number of features.
        self.k = len(self._monomials) + 2 * len(self._pairs)

    def _monomial(self, subset):
        return tuple(sorted(self.pattern[k] for k in subset))

    def features(self, *cols, out=None, scratch=None):
        """The features of the distinct field columns, as the rows of
        ``out`` (see :func:`intensity_products`); each pair product passes
        through the complex128 ``scratch``, new when absent."""
        out = _rows(out, self.k, cols[0])
        rows = dict(zip(self._monomials, out))
        for key, row in rows.items():  # lower degrees first
            if len(key) == 1:
                _intensity(cols[key[0]], row)
            else:
                np.multiply(rows[key[:-1]], rows[key[-1:]], out=row)
        if scratch is None:
            scratch = np.empty(len(cols[0]), dtype=np.complex128)
        for j, (p, cp, q, cq) in enumerate(self._pairs):
            pair_parts(cols[p], cp, cols[q], cq, out[len(rows) + 2 * j:][:2], scratch)
        return out

    def _direct(self, m):
        neg_means = [-m[self._monomials[(p,)]] for p in self.pattern]
        return sum(math.prod((neg_means[k] for k in range(4) if k not in s),
                             start=m[self._monomials[self._monomial(s)]] if s else 1.0)
                   for s in self._subsets)

    def _pair_moments(self, m):
        return [m[i] + 1j * m[i + 1] for i in self._pair_features]

    def result(self, moments: FeatureMoments) -> FourfoldResult:
        """The direct estimate and the nine-term factorisation from the
        moments of :meth:`features`."""
        terms, classes = theory.fourfold_terms(*self._pair_moments(moments.mean))

        def terms_sum(idx):
            return moments.estimate(lambda m: theory.fourfold_terms(
                *self._pair_moments(m))[0][idx].sum(axis=0).real)

        return FourfoldResult(
            direct=moments.estimate(self._direct), terms=terms, term_classes=classes,
            terms_total=terms_sum(slice(None)),
            class_estimates={name: terms_sum(idx) for name, idx in classes.items()})


def fourfold_covariance(s1: np.ndarray, s2: np.ndarray,
                        i1: np.ndarray, i2: np.ndarray) -> FourfoldResult:
    """Four-fold intensity covariance <prod_k (I_k - <I_k>)>.

    The direct Monte Carlo estimate uses symmetric-order intensities
    (centering cancels every ordering constant for four distinct
    detectors) and is built from raw intensity moments in one pass, see
    :class:`FourfoldPlan`.  The nine pair-moment products that reproduce it
    for Gaussian fields are evaluated from the sampled field moments of the
    same pass and grouped into bunching / low-gain / mixed classes.  A
    column passed for two detectors (the same array object) is one field.
    """
    cols = (s1, s2, i1, i2)
    distinct = [c for k, c in enumerate(cols) if not any(c is d for d in cols[:k])]
    plan = FourfoldPlan([next(j for j, d in enumerate(distinct) if d is c) for c in cols])
    return plan.result(feature_moments(plan.features, *distinct))


def intensity_snr(col: np.ndarray) -> float:
    """Single-repetition SNR: mean over std of normal-ordered intensities.

    The mean is the photon number S^2 and the std is that of the sampled
    (symmetrically ordered) intensity, S^2 + 1/2, so for a thermal mode the
    value is S^2 / (S^2 + 1/2): it tends to 1 at high gain and to 2 S^2 at
    low gain.  Acceptance criterion 9 expects S^2 at low gain; which SNR
    definition the paper uses is not settled by its abstract.
    """
    x = normal_intensities(_check_equal(col)[0])
    return float(x.mean() / x.std(ddof=1))
