"""Experiment pipelines binding configurations to sampled statistics.

The twin, hom, bell and fourfold pipelines stream their ensemble: each is a
draw function, giving the fields of rows ``[row0, row0 + rows)``, plus one
feature function covering every statistic of its report.  Chunks are the
unit of reduction and merging: those of
:func:`~spdcsim.estimators.row_chunks`, at most
:data:`~spdcsim.estimators.CHUNK_ROWS` = 65536 rows.  Passes are the unit
of drawing: :func:`~spdcsim.estimators.reduce_chunk` draws a chunk in
passes of at most :data:`~spdcsim.estimators.PASS_ROWS` = 16384 rows,
writes each pass's features into one feature matrix that the worker keeps
for its next chunk, and reduces the chunk's matrix to its feature mean and
centred Gram matrix, so memory does not grow with ``reps`` and a pass's
temporaries stay in cache.  The pass at ``row0`` of vacuum lane ``L`` is
``sample_vacuum(RngStream(seed, L * LANE_STRIDE + row0), rows, modes)``,
which holds the same rows, bit for bit, as one draw of the whole lane,
because every row has its own Philox key.  Every report row is a function
of the one merged :class:`~spdcsim.estimators.FeatureMoments`.

``threads`` workers reduce whole chunks (draws, elements, features, chunk
moments) and the merge takes their results strictly in row order, so a
report does not depend on the thread count.  hom2d draws its repetitions
as one chunk on the calling thread, so neither its command nor its report
has ``threads``.  :func:`twin_fields`, :func:`hom_fields` and
:func:`bell_arms` concatenate whole chunks into columns for callers that
need them.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
                         reduce_chunk, row_chunks, variance_estimate)
from .multimode import Hom2dConfig, calibrate_gain, run_hom2d
from .reporting import RunReport, make_row
from .sampling import LANE_STRIDE, RngStream, sample_vacuum

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


def _vacuum(config: ExperimentConfig, lane: int, row0: int, rows: int, modes: int):
    """Rows ``[row0, row0 + rows)`` of vacuum lane ``lane``."""
    return sample_vacuum(RngStream(config.seed, lane * LANE_STRIDE + row0), rows, modes)


def _whole_columns(draw, config: ExperimentConfig):
    chunks = (draw(config, *chunk) for chunk in row_chunks(config.reps))
    return tuple(np.concatenate(cols) for cols in zip(*chunks))


def _moments(draw, features, config: ExperimentConfig) -> FeatureMoments:
    """Moments of ``features(*fields)`` over the fields ``draw`` gives for
    every pass of every chunk.  Workers reduce whole chunks, each into a
    feature matrix of its own that it reuses; :func:`merge_moments` takes
    them in row order, so the result does not depend on ``config.threads``.
    """
    kept = threading.local()

    def reduce(chunk):
        return reduce_chunk(lambda row0, rows: features(*draw(config, row0, rows)),
                            *chunk, kept)

    chunks = row_chunks(config.reps)
    if config.threads == 1 or len(chunks) == 1:
        return merge_moments(map(reduce, chunks))
    with ThreadPoolExecutor(max_workers=min(config.threads, len(chunks))) as pool:
        return merge_moments(pool.map(reduce, chunks))


def _amplified_pair(config: ExperimentConfig, row0: int, rows: int):
    ens = _vacuum(config, 0, row0, rows, 2)
    return parametric_amplify(ens[:, 0], ens[:, 1], config.gain)


def _twin_chunk(config: ExperimentConfig, row0: int, rows: int):
    es, ei = _amplified_pair(config, row0, rows)
    if config.eta < 1.0:
        det = DetectorParams(config.eta)
        vac = _vacuum(config, 1, row0, rows, 2)
        es = detector_loss(es, det, vac[:, 0])
        ei = detector_loss(ei, det, vac[:, 1])
    return es, ei


def twin_fields(config: ExperimentConfig):
    """Detector-plane twin-beam field columns (signal, idler)."""
    return _whole_columns(_twin_chunk, config)


def _twin_features(es, ei):
    xs, xi, xsi = intensity_products(es, ei)
    return xs, xi, xs * xs, xsi


def _run_twin(config: ExperimentConfig) -> RunReport:
    moments = _moments(_twin_chunk, _twin_features, config)
    oracle = theory.twin_beam_moments(config.gain, config.eta)
    rows = [
        make_row("mean", mean_estimate(moments.select([0])), oracle["mean"]),
        make_row("var", variance_estimate(moments.select([0, 0, 2])), oracle["var"]),
        make_row("cov", covariance_estimate(moments.select([0, 1, 3])), oracle["cov"]),
    ]
    return RunReport("twin", rows=rows)


def _hom_chunk(config: ExperimentConfig, row0: int, rows: int):
    es, ei = _amplified_pair(config, row0, rows)
    e1, e2 = beam_split(es, ei, config.splitter)
    return es, ei, e1, e2


def hom_fields(config: ExperimentConfig):
    """Input and output field columns of the interference experiment."""
    return _whole_columns(_hom_chunk, config)


def _hom_features(es, ei, e1, e2):
    # The dip amplitude takes the field-coherence route: for Gaussian fields
    # the cross-port covariance equals |<E1 E2*>|^2 + |<E1 E2>|^2, and the
    # pair-moment estimates resolve the null far below the noise floor of
    # the raw intensity covariance (whose 5-se check stands separately).
    pairs = (e1 * np.conj(e2), e1 * e2, es * np.conj(ei), es * ei)
    return [*intensity_products(es, ei), *intensity_products(e1, e2),
            *(part for p in pairs for part in (p.real, p.imag))]


def _coherence(m):
    """|<A B*>|^2 + |<A B>|^2 from the means of the real and imaginary parts."""
    return sum(m[k] ** 2 for k in range(4))


def _coherence_ratio(m):
    return _coherence(m[:4]) / _coherence(m[4:])


def _run_hom(config: ExperimentConfig) -> RunReport:
    moments = _moments(_hom_chunk, _hom_features, config)
    coherence_in = moments.select(range(10, 14)).estimate(_coherence)
    if coherence_in.value < 5.0 * coherence_in.std_error:
        raise DegenerateStatisticError(
            "input field coherence (the dip's denominator) consistent with zero")
    cov_in_oracle = (config.gain.C * config.gain.S) ** 2
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


def _bell_chunk(config: ExperimentConfig, row0: int, rows: int):
    ens = _vacuum(config, 0, row0, rows, 4)
    e1x, e2y = parametric_amplify(ens[:, 0], ens[:, 1], config.gain)
    e1y, e2x = parametric_amplify(ens[:, 2], ens[:, 3], config.gain)
    return e1x, e1y, e2x, e2y


def bell_arms(config: ExperimentConfig):
    """Polarisation-entangled fields at the two locations.

    Two independent amplifiers pump the crossed polarisation pairs
    (1x, 2y) and (1y, 2x), which realises the maximally entangled
    polarisation state for intensity correlations.
    """
    return _whole_columns(_bell_chunk, config)


def polarized_arms(arms, theta1, theta2):
    """Project both locations onto polariser axes (plus/minus outputs)."""
    e1x, e1y, e2x, e2y = arms
    e1p = polarizer_project(e1x, e1y, theta1)
    e1m = polarizer_project(e1x, e1y, theta1 + math.pi / 2.0)
    e2p = polarizer_project(e2x, e2y, theta2)
    e2m = polarizer_project(e2x, e2y, theta2 + math.pi / 2.0)
    return e1p, e1m, e2p, e2m


_A, _AP, _B, _BP = theory.CHSH_ANGLES
#: (theta1, theta2, sign) of the four terms of B at the standard angles.
_CHSH_SETTINGS = ((_AP, _B, 1.0), (_AP, _BP, 1.0), (_A, _BP, 1.0), (_A, _B, -1.0))


def _chsh_b_features(*arms):
    return [col for t1, t2, _ in _CHSH_SETTINGS
            for col in chsh_features(*polarized_arms(arms, t1, t2))]


def _chsh_b(m):
    return sum(sign * m[2 * j] / m[2 * j + 1]
               for j, (_, _, sign) in enumerate(_CHSH_SETTINGS))


def _run_bell(config: ExperimentConfig) -> RunReport:
    G = config.gain.mean_photons

    def features(*arms):
        e1p, e1m, e2p, e2m = polarized_arms(arms, config.theta1, config.theta2)
        return [*correlation_features(e1p, e2p), *chsh_features(e1p, e1m, e2p, e2m),
                *_chsh_b_features(*arms)]

    moments = _moments(_bell_chunk, features, config)
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


def _run_fourfold(config: ExperimentConfig) -> RunReport:
    plan = FourfoldPlan((0, 0, 1, 1))  # both signal and both idler detectors coincide
    res = plan.result(_moments(_amplified_pair, plan.features, config))

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
