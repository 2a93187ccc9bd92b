"""Experiment pipelines binding configurations to sampled statistics.

The twin, hom, bell and fourfold pipelines stream their ensemble: each is a
draw function, giving the fields of rows ``[row0, row0 + rows)``, plus one
feature function covering every statistic of its report (``_STREAMED``).
The chunks of :func:`~spdcsim.estimators.row_chunks`, at most
:data:`~spdcsim.estimators.CHUNK_ROWS` = 16384 rows, are the one unit of
drawing, reduction and merging, so memory does not grow with ``reps``.  A
chunk draws each vacuum lane in one call (one draw block of the sampler
for two-mode rows, see :func:`~spdcsim.sampling.block_rows`), propagates
the fields through the elements, writes its features into the rows of a
(k, rows) matrix and reduces that to its feature mean and centred Gram
matrix.  Every array of
it, the vacuum draw's words and Box-Muller scratch included, is a buffer
of the one namespace that the worker owns and passes down
(:func:`~spdcsim.sampling.kept_array`), reused for its next chunk: a
warm chunk allocates no fresh pages, and its working set stays in cache.
The chunk at ``row0`` of vacuum lane ``L`` is
``sample_vacuum(RngStream(seed, L * LANE_STRIDE + row0), rows, modes)``,
which holds the same rows, bit for bit, as one draw of the whole lane:
a Philox key covers 2**14 words of rows (4096 rows of two modes, 2048 of
four), so ``row0``, a multiple of the chunk, starts a key block of the
lane (see :mod:`~spdcsim.sampling`).  Every report row comes from the
one merged :class:`~spdcsim.estimators.FeatureMoments`, one feature per
distinct moment: a statistic of :mod:`~spdcsim.estimators` takes the
moments of its features, and the hom dip, a ratio of this module's own,
takes its ``estimate``.  bell's 14 features are rho's nine, of the plus
outputs at (theta1, theta2) and their input vacua, and the five Stokes
products, whose weights give E and B: a chunk projects four fields
whatever the settings.  A row's closed-form
oracle is computed before the draw, so an oracle that overflows fails the
run at once; a value, standard error or oracle that is not finite fails
the run where its row is made.

``threads`` workers reduce whole chunks, at most two per worker in flight,
and the merge takes their results strictly in row order, so a report does
not depend on the thread count.  One thread reduces them on the calling
thread: ``concurrent.futures`` is imported only when ``threads`` > 1, so
a one-thread run does not pay for its import.  hom2d draws and
synthesises its repetitions on the calling thread, one draw block of the
sampler at a time, and its sweep then reduces them all at once, so
neither its command nor its report has ``threads``.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import __version__, theory
from .elements import (BeamSplitterParams, DetectorParams, GainParams,
                       beam_split, detector_loss, parametric_amplify,
                       polarizer_project)
from .estimators import (DegenerateStatisticError, FeatureMoments, chsh_coefficient,
                         correlation_coefficient, correlation_features,
                         covariance_intensity, fourfold_covariance, fourfold_features,
                         intensity_products, mean_intensity, merge_moments, pair_parts,
                         row_chunks, stokes_products, variance_intensity)
from .multimode import Hom2dConfig, calibrate_gain, check_reps, run_hom2d
from .reporting import RunReport, make_row
from .sampling import LANE_STRIDE, RngStream, kept_array, sample_vacuum

__all__ = ["ExperimentConfig", "run_experiment", "oracle_table", "EXPERIMENT_KINDS",
           "DEFAULT_REPS"]

EXPERIMENT_KINDS = ("twin", "hom", "bell", "hom2d", "fourfold")

#: Default ``reps`` of each kind.  A hom2d repetition is a pair of whole
#: images, 8192 complex vacuum amplitudes at the default geometry.
DEFAULT_REPS = {**dict.fromkeys(EXPERIMENT_KINDS, 1_000_000), "hom2d": 100}


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one experiment run.

    The amplifier strength is given either as the gain-length product
    ``gl`` or as the mean photon number per mode ``G`` (mutually
    exclusive); angles are radians.  Only twin has detector loss, so
    every other kind refuses an ``eta`` other than 1.  ``threads`` workers
    reduce the row chunks of the twin, hom, bell and fourfold pipelines in
    parallel; no result depends on it, and hom2d, which runs on the calling
    thread, does not read it.  ``reps`` and ``seed`` apply to every kind; ``reps``
    left at None takes the kind's :data:`DEFAULT_REPS`, and every kind
    needs at least three (:func:`~spdcsim.multimode.check_reps`).
    ``hom2d`` holds the hom2d geometry alone.  The field defaults are the
    command line's defaults.
    """

    kind: str
    gl: float | None = None
    G: float | None = None
    eta: float = 1.0
    theta1: float = math.pi / 8.0
    theta2: float = math.pi / 8.0
    transmittance: float = 0.5
    reps: int | None = None
    seed: int = 42
    threads: int = 1
    photons_per_pixel: float | None = None
    hom2d: Hom2dConfig = Hom2dConfig()

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        if self.kind != "twin" and self.eta != 1.0:
            raise ValueError(f"the {self.kind} run has no detector loss; eta applies "
                             f"to twin runs only, got {self.eta}")
        if self.reps is None:  # a frozen field, set once here
            object.__setattr__(self, "reps", DEFAULT_REPS[self.kind])
        if self.gl is not None and self.G is not None:
            raise ValueError("give either gl or G, not both")
        check_reps(self.reps)
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ValueError("polariser angles must be finite")
        # bad values, the seed's included, fail here
        _ = self.gain, self.splitter, DetectorParams(self.eta), RngStream(self.seed, 0)

    @cached_property
    def gain(self) -> GainParams:
        if self.G is not None:
            return GainParams.from_mean_photons(self.G)
        if self.gl is not None:
            return GainParams(self.gl)
        return GainParams(math.asinh(1.0))  # S^2 = 1 default

    @cached_property
    def splitter(self) -> BeamSplitterParams:
        return BeamSplitterParams.from_transmittance(self.transmittance)


def _vacuum(config: ExperimentConfig, lane: int, row0: int, rows: int, modes: int, kept):
    """Rows ``[row0, row0 + rows)`` of vacuum lane ``lane``, in the chunk
    buffer ``sampling_vacuum``: a lane drawn later in the chunk overwrites it."""
    return sample_vacuum(RngStream(config.seed, lane * LANE_STRIDE + row0), rows, modes, kept)


def _fields(kept, n: int, *names: str) -> tuple:
    """The complex chunk buffers ``names`` of ``n`` rows."""
    return tuple(kept_array(kept, "experiments_" + name, (n,)) for name in names)


def _scratch(kept, n: int) -> np.ndarray:
    """The complex chunk buffer that each element or pair product uses for
    its intermediate term and leaves free again."""
    return kept_array(kept, "experiments_scratch", (n,))


def _amplified_pair(config: ExperimentConfig, row0: int, rows: int, kept):
    ens = _vacuum(config, 0, row0, rows, 2, kept)
    return parametric_amplify(ens[:, 0], ens[:, 1], config.gain,
                              out=_fields(kept, rows, "signal", "idler"),
                              scratch=_scratch(kept, rows))


def _twin_chunk(config: ExperimentConfig, row0: int, rows: int, kept):
    es, ei = _amplified_pair(config, row0, rows, kept)
    if config.eta < 1.0:
        det = DetectorParams(config.eta)
        vac = _vacuum(config, 1, row0, rows, 2, kept)
        ds, di = _fields(kept, rows, "detected_signal", "detected_idler")
        es = detector_loss(es, det, vac[:, 0], out=ds, scratch=_scratch(kept, rows))
        ei = detector_loss(ei, det, vac[:, 1], out=di, scratch=_scratch(kept, rows))
    return es, ei


def _twin_features(config, x, kept, es, ei):
    xs, xi, xss, xsi = x
    intensity_products(es, ei, out=(xs, xi, xsi))
    np.multiply(xs, xs, out=xss)


def _run_twin(config: ExperimentConfig) -> RunReport:
    oracle = theory.twin_beam_moments(config.gain, config.eta)
    moments = _moments(config)
    rows = [
        make_row("mean", mean_intensity(moments.select([0])), oracle["mean"]),
        make_row("var", variance_intensity(moments.select([0, 0, 2])), oracle["var"]),
        make_row("cov", covariance_intensity(moments.select([0, 1, 3])), oracle["cov"]),
    ]
    return RunReport("twin", rows=rows)


def _hom_chunk(config: ExperimentConfig, row0: int, rows: int, kept):
    es, ei = _amplified_pair(config, row0, rows, kept)
    e1, e2 = beam_split(es, ei, config.splitter, out=_fields(kept, rows, "port1", "port2"),
                        scratch=_scratch(kept, rows))
    return es, ei, e1, e2


def _hom_features(config, x, kept, es, ei, e1, e2):
    # The dip amplitude takes the field-coherence route: for Gaussian fields
    # the cross-port covariance equals |<E1 E2*>|^2 + |<E1 E2>|^2, and the
    # pair-moment estimates resolve the null far below the noise floor of
    # the raw intensity covariance (whose 5-se check stands separately).
    intensity_products(es, ei, out=x[0:3])
    intensity_products(e1, e2, out=x[3:6])
    pairs = ((e1, e2, True), (e1, e2, False), (es, ei, True), (es, ei, False))
    for j, (a, b, conj_b) in enumerate(pairs):
        pair_parts(a, b, conj_b, x[6 + 2 * j:8 + 2 * j], _scratch(kept, len(a)))


def _coherence(m):
    """|<A B*>|^2 + |<A B>|^2 from the means of the real and imaginary parts."""
    return sum(m[k] ** 2 for k in range(4))


def _coherence_ratio(m):
    return _coherence(m[:4]) / _coherence(m[4:])


def _run_hom(config: ExperimentConfig) -> RunReport:
    try:
        cov_in_oracle = (config.gain.C * config.gain.S) ** 2
    except OverflowError:
        raise ArithmeticError(f"the hom cov_input oracle overflows: C S = "
                              f"{config.gain.C * config.gain.S:.6g} squared is out "
                              f"of float range") from None
    ratio_oracle = theory.hom_covariance_ratio(config.splitter)
    moments = _moments(config)
    coherence_in = moments.select(range(10, 14)).estimate(_coherence)
    if coherence_in.value < 5.0 * coherence_in.std_error:
        raise DegenerateStatisticError(
            "input field coherence (the dip's denominator) consistent with zero")
    rows = [
        make_row("cov_input", covariance_intensity(moments.select([0, 1, 2])),
                 cov_in_oracle),
        make_row("cov_output", covariance_intensity(moments.select([3, 4, 5])),
                 ratio_oracle * cov_in_oracle),
        make_row("dip_amplitude",
                 moments.select(range(6, 14)).estimate(_coherence_ratio), ratio_oracle),
    ]
    return RunReport("hom", rows=rows)


def _bell_chunk(config: ExperimentConfig, row0: int, rows: int, kept):
    """Polarisation-entangled fields (e1x, e1y, e2x, e2y) at the two
    locations, then the input vacua of the same four fields (the fields at
    zero gain): two independent amplifiers pump the crossed polarisation
    pairs (1x, 2y) and (1y, 2x), which realises the maximally entangled
    polarisation state for intensity correlations."""
    ens = _vacuum(config, 0, row0, rows, 4, kept)
    e1x, e2y = parametric_amplify(ens[:, 0], ens[:, 1], config.gain,
                                  out=_fields(kept, rows, "e1x", "e2y"),
                                  scratch=_scratch(kept, rows))
    e1y, e2x = parametric_amplify(ens[:, 2], ens[:, 3], config.gain,
                                  out=_fields(kept, rows, "e1y", "e2x"),
                                  scratch=_scratch(kept, rows))
    return e1x, e1y, e2x, e2y, ens[:, 0], ens[:, 2], ens[:, 3], ens[:, 1]


def _chsh_weights(theta1: float, theta2: float) -> np.ndarray:
    """Weights a(theta1) (x) a(theta2), a(theta) = (cos 2 theta, sin 2 theta),
    of the four Stokes products in E's numerator at (theta1, theta2)."""
    a1, a2 = ([math.cos(2.0 * t), math.sin(2.0 * t)] for t in (theta1, theta2))
    return np.outer(a1, a2).ravel()


_A, _AP, _B, _BP = theory.CHSH_ANGLES
#: (theta1, theta2, sign) of the four terms of B at the standard angles.
_CHSH_SETTINGS = ((_AP, _B, 1.0), (_AP, _BP, 1.0), (_A, _BP, 1.0), (_A, _B, -1.0))
#: Weights of B's numerator: the signed sum of its settings' weights.
_B_WEIGHTS = sum(sign * _chsh_weights(t1, t2) for t1, t2, sign in _CHSH_SETTINGS)


def _bell_features(config, x, kept, *fields):
    """Rows 0-8 the correlation features of the polarisers' plus outputs at
    (theta1, theta2) and of their input vacua, 9-13 the Stokes products of
    the fields, whose weights give E at any angles and B."""
    arms, vacua = fields[:4], fields[4:]
    n = len(arms[0])
    t = _scratch(kept, n)
    e1p, e2p, v1p, v2p = _fields(kept, n, "e1p", "e2p", "vacuum1", "vacuum2")
    polarizer_project(*arms[:2], config.theta1, out=e1p, scratch=t)
    polarizer_project(*arms[2:], config.theta2, out=e2p, scratch=t)
    polarizer_project(*vacua[:2], config.theta1, out=v1p, scratch=t)
    polarizer_project(*vacua[2:], config.theta2, out=v2p, scratch=t)
    correlation_features(e1p, e2p, v1p, v2p, out=x[0:9])
    stokes_products(*arms, out=x[9:14],
                    scratch=kept_array(kept, "experiments_stokes", (7, n), np.float64))


def _run_bell(config: ExperimentConfig) -> RunReport:
    oracle = theory.bell_prediction(config.theta1, config.theta2,
                                    config.gain.mean_photons)
    moments = _moments(config)
    chsh = moments.select(range(9, 14))
    rows = [
        make_row("rho", correlation_coefficient(moments.select(range(9))), oracle["rho"]),
        make_row("E", chsh_coefficient(chsh, _chsh_weights(config.theta1, config.theta2)),
                 oracle["E"]),
        make_row("B", chsh_coefficient(chsh, _B_WEIGHTS), oracle["B"]),
    ]
    report = RunReport("bell", rows=rows)
    report.metadata["threshold_G"] = oracle["threshold_G"]
    return report


def _fourfold_features(config, x, kept, es, ei):
    # both signal detectors see es, and both idler detectors ei
    fourfold_features(es, ei, out=x, scratch=_scratch(kept, len(es)))


def _run_fourfold(config: ExperimentConfig) -> RunReport:
    exact_terms, classes = theory.fourfold_terms(
        **theory.coincident_fourfold_moments(config.gain))
    exact_total = float(np.sum(exact_terms).real)
    oracle = {"fourfold_direct": exact_total, "fourfold_terms_total": exact_total,
              **{f"{name}_terms": float(sum(exact_terms[i] for i in classes[name]).real)
                 for name in ("bunching", "low_gain", "mixed")}}
    if not all(map(math.isfinite, oracle.values())):
        raise ArithmeticError(f"the fourfold oracle overflows: its closed-form total "
                              f"is {exact_total:.6g} at gl = {config.gain.gl:.6g}")
    estimates = fourfold_covariance(_moments(config))
    return RunReport("fourfold", rows=[make_row(name, estimates[name], exact)
                                       for name, exact in oracle.items()])


#: (draw, features, k) of one chunk of each streamed pipeline:
#: ``draw(config, row0, rows, kept)`` gives the fields of those rows and
#: ``features(config, x, kept, *fields)`` writes their k features into the
#: chunk's (k, rows) feature matrix ``x``.
_STREAMED = {
    "twin": (_twin_chunk, _twin_features, 4),
    "hom": (_hom_chunk, _hom_features, 14),
    "bell": (_bell_chunk, _bell_features, 14),
    "fourfold": (_amplified_pair, _fourfold_features, 10),
}


def _chunk_reducer(config: ExperimentConfig, kept):
    """``reduce(row0, rows)``: the moments of that chunk of the streamed
    pipeline ``config.kind``.  It draws, propagates and featurises the rows
    into the buffers of ``kept`` (the features into the (k, rows) matrix
    ``experiments_features``), which one thread at a time may use and the
    next chunk reduced with it reuses.  numpy's floating-point warnings are
    off: a statistic that overflows fails where its report row is made."""
    draw, features, k = _STREAMED[config.kind]

    def reduce(row0, rows):
        x = kept_array(kept, "experiments_features", (k, rows), np.float64)
        with np.errstate(all="ignore"):
            features(config, x, kept, *draw(config, row0, rows, kept))
            return FeatureMoments.of_chunk(x)

    return reduce


def _in_order(pool, reduce, chunks, depth: int):
    """``reduce(*chunk)`` of each of ``chunks`` in order, run in ``pool``
    with at most ``depth`` chunks submitted and not yet taken."""
    pending = deque()
    for chunk in chunks:
        if len(pending) == depth:
            yield pending.popleft().result()
        pending.append(pool.submit(reduce, *chunk))
    while pending:
        yield pending.popleft().result()


def _moments(config: ExperimentConfig) -> FeatureMoments:
    """Moments of the features of the streamed pipeline ``config.kind`` over
    all its rows.  Workers reduce whole chunks, each through chunk buffers
    of its own that it reuses, with at most two chunks a worker in flight;
    :func:`merge_moments` takes them in row order, so the result does not
    depend on ``config.threads``.
    """
    reduce = _chunk_reducer(config, threading.local())
    chunks = row_chunks(config.reps)
    if config.threads == 1:
        return merge_moments(reduce(*chunk) for chunk in chunks)
    from concurrent.futures import ThreadPoolExecutor  # only here: see the module docstring
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        return merge_moments(_in_order(pool, reduce, chunks, 2 * config.threads))


def _run_hom2d(config: ExperimentConfig) -> RunReport:
    mm = config.hom2d
    if config.photons_per_pixel is not None:
        mm = calibrate_gain(mm, config.photons_per_pixel)
    curve = run_hom2d(mm, config.reps, config.seed)
    report = RunReport("hom2d", rows=[], curve=curve)
    report.metadata.update({
        "sigma_theta": curve.sigma_theta,
        "photons_per_pixel": curve.photons_per_pixel,
        "n_modes": curve.n_modes,
        "band_pairs": curve.band_pairs,
        "band_rows": curve.band_rows,
        "schmidt_residual": curve.schmidt_residual,
        "config": asdict(mm),
    })
    return report


def oracle_table(table: str, values: tuple, eta: float):
    """Closed-form predictions of ``table`` ('twin', 'bell' or 'hom') at
    ``values`` (gains G, or transmittances for 'hom'; empty for the
    default set) and detector efficiency ``eta``; returns (header, rows)."""
    if table in ("bell", "hom") and eta != 1.0:
        raise ValueError(f"the {table} table has no detector efficiency; "
                         f"eta applies to the twin table only, got {eta}")
    if table == "twin":
        values = values or (0.01, 0.1, theory.CHSH_THRESHOLD_GAIN, 1.0, 10.0)
        header = ["G", "gl", "eta", "mean", "var", "cov"]
        rows = []
        for G in values:
            gain = GainParams.from_mean_photons(G)
            m = theory.twin_beam_moments(gain, eta)
            rows.append([G, gain.gl, eta, m["mean"], m["var"], m["cov"]])
        return header, rows
    if table == "bell":
        values = values or (0.0, 0.01, 0.1, theory.CHSH_THRESHOLD_GAIN, 1.0, 10.0)
        header = ["G", "gain_factor", "B", "threshold_G"]
        return header, [
            [G, theory.chsh_gain_factor(G), theory.chsh_b(G),
             theory.CHSH_THRESHOLD_GAIN]
            for G in values
        ]
    if table == "hom":
        values = values or (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
        header = ["transmittance", "cov_ratio"]
        return header, [
            [T, theory.hom_covariance_ratio(BeamSplitterParams.from_transmittance(T))]
            for T in values
        ]
    raise ValueError(f"unknown oracle table: {table!r}")


_PIPELINES = {
    "twin": _run_twin,
    "hom": _run_hom,
    "bell": _run_bell,
    "fourfold": _run_fourfold,
    "hom2d": _run_hom2d,
}


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute the configured pipeline; deterministic under a fixed seed."""
    start = time.perf_counter()
    # A streamed statistic or oracle that overflows fails where its report
    # row is made, so numpy's floating-point warnings are off for them.
    with np.errstate(all="ignore") if config.kind in _STREAMED else nullcontext():
        report = _PIPELINES[config.kind](config)
    meta = report.metadata
    meta.setdefault("experiment", config.kind)
    meta.update({
        "seed": config.seed,
        "reps": config.reps,
    })
    if config.kind != "hom2d":  # hom2d's gain is its geometry's gain_scale
        meta.update({
            "threads": config.threads,
            "gl": config.gain.gl,
            "G": config.gain.mean_photons,
            "eta": config.eta,
        })
    meta.update({
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    })
    return report
