"""Ensemble statistics with symmetric-to-normal ordering corrections.

Sampled intensities |E|^2 are symmetric-order quantities; the estimators
subtract the ordering constants (1/2 for means, 1/4 for variances, nothing
for covariances) so that reported values are normal-ordered observables.

Every statistic is a smooth function f of the means of per-repetition
feature columns, and each takes the merged moments of its features.  The
engine reduces each chunk of at most :data:`CHUNK_ROWS` = 16384 rows (a
draw block of two-mode rows, :mod:`spdcsim.sampling`) to its mean vector and
centred Gram matrix (:meth:`FeatureMoments.of_chunk`), and
:func:`merge_moments` merges the chunks in row order (Chan, Golub &
LeVeque 1979).  The experiment pipelines write a chunk's features straight
into the rows of a (k, rows) matrix that the worker keeps: the feature
functions (:func:`intensity_products`, :func:`correlation_features`,
:func:`stokes_products`, :func:`fourfold_features`, :func:`pair_parts`)
take ``out`` rows and scratch arrays, so a warm chunk allocates nothing.
The statistics (:func:`mean_intensity`, :func:`variance_intensity`,
:func:`covariance_intensity`, :func:`correlation_coefficient`,
:func:`chsh_coefficient`, :func:`fourfold_covariance`) give f(mean) with
the delta-method standard error, sqrt(grad f' Sigma grad f / n).  The
gradient is a complex step (Martins, Sturdza & Alonso 2003): grad_j is
Im f(m + i h e_j) / h, one evaluation of f on k complex-shifted mean
vectors, with no difference of two values of f to lose digits, so it is
exact to rounding and a standard error is as stable as its value.  Its
contract is that every f is real-analytic as written: arithmetic, powers
and ``np.sqrt``, but no ``abs``, ``conj``, ``.real`` or comparison of
the means.

CHSH takes raw normal-ordered intensity products, not covariances: a Bell
test cannot subtract accidental coincidences (Clauser, Horne, Shimony &
Holt 1969).  A polariser at theta has output intensities of difference
cos 2 theta S1 + sin 2 theta S2 and sum S0 - 1, with the Stokes parameters
S0, S1 = |E_x|^2 +- |E_y|^2 and S2 = 2 Re E_x E_y*.  So the means of the
products S_j(1) S_k(2), one 2x2 tensor, give E's numerator at any angles
and B's, and (S0(1) - 1)(S0(2) - 1) is their one denominator.

The fourfold run places both signal detectors on one field and both idler
detectors on the other, (s, s, i, i).  Its direct term is
<(I_s - <I_s>)^2 (I_i - <I_i>)^2>, a polynomial in eight raw intensity
moments.  The nine Isserlis pair-moment products that give it for
Gaussian fields (:func:`~spdcsim.theory.fourfold_terms`, the oracle's
general form) then reduce to three classes of u = <I_s><I_i> and
p = |<E_s E_i>|^2: bunching u^2, mixed 4 u p and low-gain 4 p^2, in total
(u + 2 p)^2, all free of conjugates.

hom2d's dip ratio is not a function of feature means; its standard error
is the delete-one jackknife, :func:`jackknife_se` of the delete-one
values.  :func:`intensity_snr` and :func:`normal_intensities` take one
ensemble column; no command calls them yet (criterion 9).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

__all__ = [
    "CHUNK_ROWS",
    "DegenerateStatisticError",
    "FeatureMoments",
    "INTENSITY_OFFSET",
    "MomentEstimate",
    "VARIANCE_OFFSET",
    "check_reps",
    "chsh_coefficient",
    "correlation_coefficient",
    "correlation_features",
    "covariance_intensity",
    "fourfold_covariance",
    "fourfold_features",
    "intensity_products",
    "intensity_snr",
    "jackknife_se",
    "mean_intensity",
    "merge_moments",
    "normal_intensities",
    "pair_parts",
    "row_chunks",
    "stokes_products",
    "variance_intensity",
]

#: Rows per chunk that the pipelines and the moment engine draw, reduce
#: and merge; fixed, so that no result depends on the machine.
CHUNK_ROWS = 1 << 14

#: Normal order's offsets of a sampled mean intensity and intensity variance.
INTENSITY_OFFSET = 0.5
VARIANCE_OFFSET = 0.25


def row_chunks(n: int):
    """(row0, rows) of each :data:`CHUNK_ROWS`-row chunk of ``n`` rows, in
    row order, made as they are asked for."""
    return ((row0, min(CHUNK_ROWS, n - row0)) for row0 in range(0, n, CHUNK_ROWS))


#: Complex step of the delta-method gradient, relative to the magnitude of
#: each mean plus its standard error: far below rounding, so that the
#: step's own O(h^2) error is nil.
_COMPLEX_STEP = 1e-20


class DegenerateStatisticError(ValueError):
    """Raised when a ratio statistic has no usable denominator."""


class MomentEstimate(namedtuple("MomentEstimate", "value std_error")):
    """A statistic with its standard error."""

    __slots__ = ()

    def deviation(self, oracle: float) -> float:
        """Distance from an oracle value in units of the standard error."""
        if self.std_error <= 0:
            return float("inf")
        return float(abs(self.value - oracle) / self.std_error)


def normal_intensities(col: np.ndarray) -> np.ndarray:
    """Per-sample normal-ordered intensities |E|^2 - 1/2 (may be negative)."""
    col = np.asarray(col)
    return np.abs(col) ** 2 - INTENSITY_OFFSET


def check_reps(reps: int) -> None:
    """A ValueError unless every kind of run can take ``reps`` repetitions.

    With two, the standard errors degenerate: the delta-method variance of
    a sampled variance is identically zero, and each of the dip's
    delete-one aggregates divides by its own reps - 1 = reps - 2.
    """
    if reps < 3:
        raise ValueError("reps must be >= 3: with fewer, the standard errors "
                         "of variances and of the dip's jackknife degenerate")


def jackknife_se(delete_one_values):
    """Delete-one jackknife standard error from n delete-one values theta_i
    on the last axis, sqrt((n - 1) mean((theta_i - theta_bar)^2)); a row
    of a C-contiguous array gets the bits that it gets alone."""
    theta = np.asarray(delete_one_values, dtype=np.float64)
    dev = theta - theta.mean(axis=-1, keepdims=True)
    return np.sqrt((theta.shape[-1] - 1) * np.mean(dev ** 2, axis=-1))


class FeatureMoments(namedtuple("FeatureMoments", "n mean gram")):
    """Mean vector and centred Gram matrix of k feature columns over n rows:
    the int ``n`` and the float64 arrays ``mean`` (k) and ``gram`` (k, k)."""

    __slots__ = ()

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

        ``f`` indexes the mean vector by feature (``m[0]``, ``m[1]``, ...)
        and must broadcast over trailing axes: the gradient evaluates it once
        on the k mean vectors shifted by i h_j along each feature j, and
        grad_j = Im f(m + i h_j e_j) / h_j (the complex step).  So ``f`` must
        be real-analytic as written, with no ``abs``, ``conj``, ``.real`` or
        comparison of its argument; then no two values of f are subtracted,
        and the gradient is exact to rounding however small the step.
        """
        cov = self.gram / (self.n - 1)
        h = _COMPLEX_STEP * (np.abs(self.mean) + np.sqrt(np.diag(cov) / self.n))
        h = np.where(h > 0, h, _COMPLEX_STEP)
        grad = np.imag(f(self.mean[:, None] + np.diag(1j * h))) / h
        var = float(grad @ cov @ grad) / self.n
        return MomentEstimate(float(f(self.mean)), float(np.sqrt(max(var, 0.0))))


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


def correlation_features(a, b, va, vb, out=None):
    """Features of :func:`correlation_coefficient`: those of
    :func:`intensity_products` and both squared intensities, then the
    intensities of the input vacua ``va`` and ``vb`` of ``a`` and ``b``
    (the same optics at zero gain) and their squares."""
    out = _rows(out, 9, a)
    xa, xb = intensity_products(a, b, out[:3])[:2]
    np.square(xa, out=out[3])
    np.square(xb, out=out[4])
    _intensity(va, out[5])
    _intensity(vb, out[6])
    np.square(out[5], out=out[7])
    np.square(out[6], out=out[8])
    return out


def pair_parts(a, b, conj_b: bool, out, scratch) -> None:
    """Real and imaginary parts of the product a b, or a b* when ``conj_b``
    says so, into the two float64 rows ``out``, through the complex128
    ``scratch``."""
    b = np.conjugate(b, out=scratch) if conj_b else b
    np.multiply(a, b, out=scratch)
    np.copyto(out[0], scratch.real)
    np.copyto(out[1], scratch.imag)


def mean_intensity(moments: FeatureMoments) -> MomentEstimate:
    """Normal-ordered mean intensity from the moments of (|E|^2,)."""
    return moments.estimate(lambda m: m[0] - INTENSITY_OFFSET)


def variance_intensity(moments: FeatureMoments) -> MomentEstimate:
    """Normal-ordered intensity variance (n - 1 normalisation) from the
    moments of :func:`intensity_products` of a column with itself."""
    n = moments.n
    return moments.estimate(
        lambda m: (m[2] - m[0] ** 2) * (n / (n - 1)) - VARIANCE_OFFSET)


def covariance_intensity(moments: FeatureMoments) -> MomentEstimate:
    """Intensity covariance (no ordering correction) from the moments of
    :func:`intensity_products`."""
    n = moments.n
    return moments.estimate(lambda m: (m[2] - m[0] * m[1]) * (n / (n - 1)))


def correlation_coefficient(moments: FeatureMoments) -> MomentEstimate:
    """Intensity correlation coefficient with normal-ordered variances from
    the moments of :func:`correlation_features`.

    Each normal-ordered variance it divides by must be positive and clear
    of zero by 5 standard errors.  The second test reads the arm's sampled
    intensity variance less that of its input vacuum: the vacuum's has
    expectation 1/4, the ordering offset, so the difference has the
    normal-ordered variance as its expectation, and at low gain, where the
    arm is mostly that vacuum, the noise they share cancels out of its
    standard error.
    """
    n = moments.n

    def rho(m):
        va = m[3] - m[0] ** 2 - VARIANCE_OFFSET
        vb = m[4] - m[1] ** 2 - VARIANCE_OFFSET
        return (m[2] - m[0] * m[1]) / np.sqrt(va * vb)

    mean = moments.mean
    for i, ii, v, vv in ((0, 3, 5, 7), (1, 4, 6, 8)):
        excess = moments.estimate(
            lambda m: ((m[ii] - m[i] ** 2) - (m[vv] - m[v] ** 2)) * (n / (n - 1)))
        if mean[ii] - mean[i] ** 2 - VARIANCE_OFFSET <= 0 or excess.value <= 5.0 * excess.std_error:
            raise DegenerateStatisticError(
                "normal-ordered variance consistent with zero")
    return moments.estimate(rho)


def chsh_coefficient(moments: FeatureMoments, weights) -> MomentEstimate:
    """Polarisation correlation coefficient E, or the CHSH B, from the
    moments of :func:`stokes_products`: (w . m[:4]) / m[4].  E at angles
    (theta1, theta2) weighs the products by w = a(theta1) (x) a(theta2),
    a(theta) = (cos 2 theta, sin 2 theta), and B by the signed sum of its
    settings' w.  The denominator must be clear of zero by 5 standard
    errors."""
    den = moments.estimate(lambda m: m[4])
    if abs(den.value) < 5.0 * den.std_error:
        raise DegenerateStatisticError("intensity-product denominator consistent with zero")
    return moments.estimate(lambda m: sum(w * m[j] for j, w in enumerate(weights)) / m[4])


def stokes_products(e1x, e1y, e2x, e2y, out=None, scratch=None):
    """Features of :func:`chsh_coefficient` from the fields of both
    locations: the four products S_j(1) S_k(2), j, k = 1, 2 (j-major), and
    (S0(1) - 1)(S0(2) - 1) (see the module docstring), through the (7, n)
    float64 ``scratch`` (new when absent)."""
    out = _rows(out, 5, e1x)
    scratch = np.empty((7, len(e1x))) if scratch is None else scratch
    t = scratch[6]
    for (ex, ey), (s1, s2, s0) in zip(((e1x, e1y), (e2x, e2y)), (scratch[:3], scratch[3:6])):
        _intensity(ex, s0)
        np.subtract(s0, _intensity(ey, t), out=s1)
        s0 += t
        s0 -= 2.0 * INTENSITY_OFFSET
        np.multiply(ex.real, ey.real, out=s2)
        s2 += np.multiply(ex.imag, ey.imag, out=t)
        s2 *= 2.0
    s1, s2, d1, t1, t2, d2 = scratch[:6]
    for row, (a, b) in zip(out, ((s1, t1), (s1, t2), (s2, t1), (s2, t2), (d1, d2))):
        np.multiply(a, b, out=row)
    return out


def fourfold_features(es, ei, out=None, scratch=None):
    """Features of :func:`fourfold_covariance` of detectors (s, s, i, i),
    both signal detectors on the field ``es`` and both idler detectors on
    ``ei``: the eight intensity monomials I_s, I_i, I_s^2, I_s I_i, I_i^2,
    I_s^2 I_i, I_s I_i^2 and I_s^2 I_i^2 (symmetric order), then the real
    and imaginary parts of E_s E_i through the complex128 ``scratch`` (new
    when absent)."""
    out = _rows(out, 10, es)
    xs, xi, xss, xsi, xii, xssi, xsii, xssii = out[:8]
    _intensity(es, xs)
    _intensity(ei, xi)
    np.multiply(xs, xs, out=xss)
    np.multiply(xs, xi, out=xsi)
    np.multiply(xi, xi, out=xii)
    np.multiply(xss, xi, out=xssi)
    np.multiply(xsi, xi, out=xsii)
    np.multiply(xssi, xi, out=xssii)
    scratch = np.empty(len(es), dtype=np.complex128) if scratch is None else scratch
    pair_parts(es, ei, False, out[8:10], scratch)
    return out


def _fourfold_direct(m):
    """<(I_s - a)^2 (I_i - b)^2>, a = <I_s> and b = <I_i>, as a polynomial
    in the raw moments of :func:`fourfold_features`."""
    a, b = m[0], m[1]
    return (m[7] - 2.0 * b * m[5] - 2.0 * a * m[6] + b * b * m[2] + a * a * m[4]
            + 4.0 * a * b * m[3] - 3.0 * a * a * b * b)


#: Each class of the nine pair-moment products of
#: :func:`~spdcsim.theory.fourfold_terms` at detectors (s, s, i, i), as a
#: function of u = <I_s><I_i> and p = |<E_s E_i>|^2; their total is
#: (u + 2 p)^2.
_FOURFOLD_CLASSES = {
    "bunching": lambda u, p: u * u,
    "low_gain": lambda u, p: 4.0 * p * p,
    "mixed": lambda u, p: 4.0 * u * p,
}


def fourfold_covariance(moments: FeatureMoments) -> dict:
    """Four-fold intensity covariance <prod_k (I_k - <I_k>)> of detectors
    (s, s, i, i) from the moments of :func:`fourfold_features`.

    The direct Monte Carlo estimate uses symmetric-order intensities
    (centering cancels every ordering constant) and is a polynomial in
    raw intensity moments, so its delta-method error accounts for the
    estimated means.  For Gaussian fields the nine pair-moment products
    reproduce it; at these detectors <E_s E_s*> = <I_s>, <E_i* E_i> = <I_i>
    and all four signal-idler moments are <E_s E_i>, so the products fall
    into the bunching, mixed and low-gain classes of the module docstring,
    evaluated from the sampled moments of the same rows.  Returns the five
    estimates keyed by the fourfold report's row names, in its row order.
    """
    def terms(cls):
        return moments.estimate(lambda m: cls(m[0] * m[1], m[8] ** 2 + m[9] ** 2))

    return {"fourfold_direct": moments.estimate(_fourfold_direct),
            "fourfold_terms_total": terms(lambda u, p: (u + 2.0 * p) ** 2),
            **{f"{name}_terms": terms(cls) for name, cls in _FOURFOLD_CLASSES.items()}}


def intensity_snr(col: np.ndarray) -> float:
    """Single-repetition SNR: mean over std of normal-ordered intensities.

    The mean is the photon number S^2 and the std is that of the sampled
    (symmetrically ordered) intensity, S^2 + 1/2, so for a thermal mode the
    value is S^2 / (S^2 + 1/2): it tends to 1 at high gain and to 2 S^2 at
    low gain.  Acceptance criterion 9 expects S^2 at low gain; which SNR
    definition the paper uses is not settled by its abstract.
    """
    col = np.asarray(col)
    if col.ndim != 1 or col.shape[0] < 2:
        raise ValueError(f"intensity_snr needs one ensemble column of at least "
                         f"2 samples, got shape {col.shape}")
    x = normal_intensities(col)
    return float(x.mean() / x.std(ddof=1))
