"""Experiment pipelines binding configurations to sampled statistics.

The twin, hom, bell and fourfold pipelines stream their ensemble: each is a
draw function, giving the fields of rows ``[row0, row0 + rows)``, plus one
feature function covering every statistic of its report (``_PASSES``).
Chunks are the unit of reduction and merging: those of
:func:`~spdcsim.estimators.row_chunks`, at most
:data:`~spdcsim.estimators.CHUNK_ROWS` = 65536 rows.  Passes are the unit
of drawing: :func:`~spdcsim.estimators.reduce_chunk` fills a chunk's
feature matrix in passes of at most
:data:`~spdcsim.estimators.PASS_ROWS` = 16384 rows and reduces it to its
feature mean and centred Gram matrix, so memory does not grow with
``reps``.  A pass draws its vacuum lanes, propagates them through the
elements and writes its features into the matrix's rows, every array of
it a buffer that the worker keeps (:func:`~spdcsim.sampling.kept_array`)
and reuses for its next pass: no pass allocates fresh pages, and its
working set stays in cache.  The pass at ``row0`` of vacuum lane ``L`` is
``sample_vacuum(RngStream(seed, L * LANE_STRIDE + row0), rows, modes)``,
which holds the same rows, bit for bit, as one draw of the whole lane,
because every row has its own Philox key.  Every report row is a function
of the one merged :class:`~spdcsim.estimators.FeatureMoments`; a value,
standard error or oracle that is not finite fails the run where its row is
made.

``threads`` workers reduce whole chunks (draws, elements, features, chunk
moments) and the merge takes their results strictly in row order, so a
report does not depend on the thread count.  hom2d draws its repetitions
as one chunk on the calling thread, so neither its command nor its report
has ``threads``.  :func:`twin_fields`, :func:`hom_fields` and
:func:`bell_arms` concatenate whole chunks, drawn into new arrays, into
columns for callers that need them.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from . import __version__, theory
from .elements import (BeamSplitterParams, DetectorParams, GainParams,
                       beam_split, detector_loss, parametric_amplify,
                       polarizer_project)
from .estimators import (DegenerateStatisticError, FeatureMoments, FourfoldPlan,
                         chsh_estimate, chsh_features, correlation_estimate,
                         correlation_features, covariance_estimate,
                         intensity_products, mean_estimate, merge_moments,
                         pair_parts, reduce_chunk, row_chunks, variance_estimate)
from .multimode import Hom2dConfig, calibrate_gain, run_hom2d
from .reporting import RunReport, make_row
from .sampling import LANE_STRIDE, RngStream, kept_array, sample_vacuum

__all__ = ["ExperimentConfig", "run_experiment", "oracle_table", "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = ("twin", "hom", "bell", "hom2d", "fourfold")


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one experiment run.

    The amplifier strength is given either as the gain-length product
    ``gl`` or as the mean photon number per mode ``G`` (mutually
    exclusive); angles are radians.  ``threads`` workers reduce the row
    chunks of the twin, hom, bell and fourfold pipelines in parallel; no
    result depends on it, and hom2d, drawn as one chunk, does not read it.
    The field defaults are the command line's defaults.
    """

    kind: str
    gl: float | None = None
    G: float | None = None
    eta: float = 1.0
    theta1: float = math.pi / 8.0
    theta2: float = math.pi / 8.0
    transmittance: float = 0.5
    reps: int = 1_000_000
    seed: int = 42
    threads: int = 1
    photons_per_pixel: float | None = None
    hom2d: Hom2dConfig | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        if self.gl is not None and self.G is not None:
            raise ValueError("give either gl or G, not both")
        if self.reps < 2:
            raise ValueError("Monte Carlo experiments need reps >= 2")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not (math.isfinite(self.theta1) and math.isfinite(self.theta2)):
            raise ValueError("polariser angles must be finite")
        _ = self.gain, self.splitter  # built now, so that bad values fail here
        if self.kind == "hom2d":
            _ = self.multimode

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

    @cached_property
    def multimode(self) -> Hom2dConfig:
        """The hom2d geometry with this run's reps and seed."""
        mm = self.hom2d if self.hom2d is not None else Hom2dConfig()
        return replace(mm, reps=self.reps, seed=self.seed)


def _vacuum(config: ExperimentConfig, lane: int, row0: int, rows: int, modes: int, kept):
    """Rows ``[row0, row0 + rows)`` of vacuum lane ``lane``, in the pass
    buffer ``vacuum``: a lane drawn later in the pass overwrites it."""
    return sample_vacuum(RngStream(config.seed, lane * LANE_STRIDE + row0), rows, modes,
                         out=kept_array(kept, "vacuum", (rows, modes)))


def _fields(kept, n: int, *names: str) -> tuple:
    """The complex pass buffers ``names`` of ``n`` rows."""
    return tuple(kept_array(kept, name, (n,)) for name in names)


def _scratch(kept, n: int) -> np.ndarray:
    """The complex pass buffer that each element or pair product uses for
    its intermediate term and leaves free again."""
    return kept_array(kept, "scratch", (n,))


def _whole_columns(draw, config: ExperimentConfig):
    chunks = (draw(config, *chunk, None) for chunk in row_chunks(config.reps))
    return tuple(np.concatenate(cols) for cols in zip(*chunks))


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


def twin_fields(config: ExperimentConfig):
    """Detector-plane twin-beam field columns (signal, idler)."""
    return _whole_columns(_twin_chunk, config)


def _twin_features(config, x, kept, es, ei):
    xs, xi, xss, xsi = x
    intensity_products(es, ei, out=(xs, xi, xsi))
    np.multiply(xs, xs, out=xss)


def _run_twin(config: ExperimentConfig) -> RunReport:
    moments = _moments(config)
    oracle = theory.twin_beam_moments(config.gain, config.eta)
    rows = [
        make_row("mean", mean_estimate(moments.select([0])), oracle["mean"]),
        make_row("var", variance_estimate(moments.select([0, 0, 2])), oracle["var"]),
        make_row("cov", covariance_estimate(moments.select([0, 1, 3])), oracle["cov"]),
    ]
    return RunReport("twin", rows=rows)


def _hom_chunk(config: ExperimentConfig, row0: int, rows: int, kept):
    es, ei = _amplified_pair(config, row0, rows, kept)
    e1, e2 = beam_split(es, ei, config.splitter, out=_fields(kept, rows, "port1", "port2"),
                        scratch=_scratch(kept, rows))
    return es, ei, e1, e2


def hom_fields(config: ExperimentConfig):
    """Input and output field columns of the interference experiment."""
    return _whole_columns(_hom_chunk, config)


def _hom_features(config, x, kept, es, ei, e1, e2):
    # The dip amplitude takes the field-coherence route: for Gaussian fields
    # the cross-port covariance equals |<E1 E2*>|^2 + |<E1 E2>|^2, and the
    # pair-moment estimates resolve the null far below the noise floor of
    # the raw intensity covariance (whose 5-se check stands separately).
    intensity_products(es, ei, out=x[0:3])
    intensity_products(e1, e2, out=x[3:6])
    pairs = ((e1, e2, True), (e1, e2, False), (es, ei, True), (es, ei, False))
    for j, (a, b, conj_b) in enumerate(pairs):
        pair_parts(a, False, b, conj_b, x[6 + 2 * j:8 + 2 * j], _scratch(kept, len(a)))


def _coherence(m):
    """|<A B*>|^2 + |<A B>|^2 from the means of the real and imaginary parts."""
    return sum(m[k] ** 2 for k in range(4))


def _coherence_ratio(m):
    return _coherence(m[:4]) / _coherence(m[4:])


def _run_hom(config: ExperimentConfig) -> RunReport:
    moments = _moments(config)
    coherence_in = moments.select(range(10, 14)).estimate(_coherence)
    if coherence_in.value < 5.0 * coherence_in.std_error:
        raise DegenerateStatisticError(
            "input field coherence (the dip's denominator) consistent with zero")
    try:
        cov_in_oracle = (config.gain.C * config.gain.S) ** 2
    except OverflowError:
        raise ArithmeticError(f"the hom cov_input oracle overflows: C S = "
                              f"{config.gain.C * config.gain.S:.6g} squared is out "
                              f"of float range") from None
    ratio_oracle = theory.hom_covariance_ratio(config.splitter)
    rows = [
        make_row("cov_input", covariance_estimate(moments.select([0, 1, 2])),
                 cov_in_oracle),
        make_row("cov_output", covariance_estimate(moments.select([3, 4, 5])),
                 ratio_oracle * cov_in_oracle),
        make_row("dip_amplitude",
                 moments.select(range(6, 14)).estimate(_coherence_ratio), ratio_oracle),
    ]
    return RunReport("hom", rows=rows)


def _bell_chunk(config: ExperimentConfig, row0: int, rows: int, kept):
    ens = _vacuum(config, 0, row0, rows, 4, kept)
    e1x, e2y = parametric_amplify(ens[:, 0], ens[:, 1], config.gain,
                                  out=_fields(kept, rows, "e1x", "e2y"),
                                  scratch=_scratch(kept, rows))
    e1y, e2x = parametric_amplify(ens[:, 2], ens[:, 3], config.gain,
                                  out=_fields(kept, rows, "e1y", "e2x"),
                                  scratch=_scratch(kept, rows))
    return e1x, e1y, e2x, e2y


def bell_arms(config: ExperimentConfig):
    """Polarisation-entangled fields at the two locations.

    Two independent amplifiers pump the crossed polarisation pairs
    (1x, 2y) and (1y, 2x), which realises the maximally entangled
    polarisation state for intensity correlations.
    """
    return _whole_columns(_bell_chunk, config)


def polarized_arms(arms, theta1, theta2, kept=None):
    """Project both locations onto polariser axes (plus/minus outputs), into
    the pass buffers of ``kept`` (new arrays when None)."""
    e1x, e1y, e2x, e2y = arms
    n = len(e1x)
    e1p, e1m, e2p, e2m = _fields(kept, n, "e1p", "e1m", "e2p", "e2m")
    t = _scratch(kept, n)
    return (polarizer_project(e1x, e1y, theta1, out=e1p, scratch=t),
            polarizer_project(e1x, e1y, theta1 + math.pi / 2.0, out=e1m, scratch=t),
            polarizer_project(e2x, e2y, theta2, out=e2p, scratch=t),
            polarizer_project(e2x, e2y, theta2 + math.pi / 2.0, out=e2m, scratch=t))


_A, _AP, _B, _BP = theory.CHSH_ANGLES
#: (theta1, theta2, sign) of the four terms of B at the standard angles.
_CHSH_SETTINGS = ((_AP, _B, 1.0), (_AP, _BP, 1.0), (_A, _BP, 1.0), (_A, _B, -1.0))


def _chsh_b_features(*arms, out=None, kept=None):
    """The :func:`chsh_features` of the four settings of B, as the eight rows
    of ``out`` (new when None), through the pass buffers of ``kept``."""
    n = len(arms[0])
    out = np.empty((2 * len(_CHSH_SETTINGS), n)) if out is None else out
    intensities = kept_array(kept, "intensities", (4, n), np.float64)
    for j, (t1, t2, _) in enumerate(_CHSH_SETTINGS):
        chsh_features(*polarized_arms(arms, t1, t2, kept), out=out[2 * j:2 * j + 2],
                      scratch=intensities)
    return out


def _chsh_b(m):
    return sum(sign * m[2 * j] / m[2 * j + 1]
               for j, (_, _, sign) in enumerate(_CHSH_SETTINGS))


def _bell_features(config, x, kept, *arms):
    e1p, e1m, e2p, e2m = polarized_arms(arms, config.theta1, config.theta2, kept)
    correlation_features(e1p, e2p, out=x[0:5])
    chsh_features(e1p, e1m, e2p, e2m, out=x[5:7],
                  scratch=kept_array(kept, "intensities", (4, len(e1p)), np.float64))
    _chsh_b_features(*arms, out=x[7:15], kept=kept)


def _run_bell(config: ExperimentConfig) -> RunReport:
    G = config.gain.mean_photons
    moments = _moments(config)
    rows = [
        make_row("rho", correlation_estimate(moments.select(range(5))),
                 theory.bell_correlation(config.theta1, config.theta2)),
        make_row("E", chsh_estimate(moments.select([5, 6])),
                 theory.bell_chsh_coefficient(config.theta1, config.theta2, G)),
        make_row("B", moments.select(range(7, 15)).estimate(_chsh_b),
                 theory.chsh_b(G)),
    ]
    report = RunReport("bell", rows=rows)
    report.metadata["threshold_G"] = theory.CHSH_THRESHOLD_GAIN
    return report


#: Both signal and both idler detectors of the fourfold run see the same field.
_FOURFOLD = FourfoldPlan((0, 0, 1, 1))


def _fourfold_features(config, x, kept, es, ei):
    _FOURFOLD.features(es, ei, out=x, scratch=_scratch(kept, len(es)))


def _run_fourfold(config: ExperimentConfig) -> RunReport:
    res = _FOURFOLD.result(_moments(config))

    exact_terms, classes = theory.fourfold_terms(
        **theory.coincident_fourfold_moments(config.gain))
    exact_total = float(np.sum(exact_terms).real)

    rows = [
        make_row("fourfold_direct", res.direct, exact_total),
        make_row("fourfold_terms_total", res.terms_total, exact_total),
    ]
    for name in ("bunching", "low_gain", "mixed"):
        exact = float(sum(exact_terms[i] for i in classes[name]).real)
        rows.append(make_row(f"{name}_terms", res.class_estimates[name], exact))
    return RunReport("fourfold", rows=rows)


#: (draw, features, k) of one pass of each streamed pipeline:
#: ``draw(config, row0, rows, kept)`` gives the fields of those rows and
#: ``features(config, x, kept, *fields)`` writes their k features into the
#: (k, rows) slice ``x`` of the chunk's feature matrix.
_PASSES = {
    "twin": (_twin_chunk, _twin_features, 4),
    "hom": (_hom_chunk, _hom_features, 14),
    "bell": (_bell_chunk, _bell_features, 15),
    "fourfold": (_amplified_pair, _fourfold_features, _FOURFOLD.k),
}


def _chunk_reducer(config: ExperimentConfig, kept):
    """``reduce(row0, rows)``: the moments of that chunk of the streamed
    pipeline ``config.kind``.  Each pass draws, propagates and featurises
    into the buffers of ``kept``, which one thread at a time may use and
    which the next chunk reduced with it reuses.  numpy's floating-point
    warnings are off: a statistic that overflows fails where its report
    row is made."""
    draw, features, k = _PASSES[config.kind]

    def fill(row0, x):
        features(config, x, kept, *draw(config, row0, x.shape[1], kept))

    def reduce(row0, rows):
        with np.errstate(all="ignore"):
            return reduce_chunk(fill, k, row0, rows, kept)

    return reduce


def _moments(config: ExperimentConfig) -> FeatureMoments:
    """Moments of the features of the streamed pipeline ``config.kind`` over
    all its rows.  Workers reduce whole chunks, each through pass buffers
    of its own that it reuses; :func:`merge_moments` takes them in row
    order, so the result does not depend on ``config.threads``.
    """
    reduce = _chunk_reducer(config, threading.local())
    chunks = row_chunks(config.reps)
    if config.threads == 1 or len(chunks) == 1:
        return merge_moments(reduce(*chunk) for chunk in chunks)
    with ThreadPoolExecutor(max_workers=min(config.threads, len(chunks))) as pool:
        return merge_moments(pool.map(reduce, *zip(*chunks)))


def _run_hom2d(config: ExperimentConfig) -> RunReport:
    mm = config.multimode
    if config.photons_per_pixel is not None:
        mm = calibrate_gain(mm, config.photons_per_pixel)
    curve = run_hom2d(mm)
    report = RunReport("hom2d", rows=[], curve=curve)
    report.metadata.update({
        "sigma_theta": curve.sigma_theta,
        "photons_per_pixel": curve.photons_per_pixel,
        "n_modes": curve.n_modes,
        "config": asdict(mm),
    })
    return report


def oracle_table(table: str, values: tuple, eta: float):
    """Closed-form predictions of ``table`` ('twin', 'bell' or 'hom') at
    ``values`` (gains G, or transmittances for 'hom'; empty for the
    default set) and detector efficiency ``eta``; returns (header, rows)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
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
    with np.errstate(all="ignore") if config.kind in _PASSES else nullcontext():
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
