"""Experiment pipelines binding configurations to sampled statistics."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace
from functools import cached_property

import numpy as np

from . import __version__, theory
from .elements import (BeamSplitterParams, DetectorParams, GainParams,
                       beam_split, detector_loss, parametric_amplify,
                       polarizer_project)
from .estimators import (MomentEstimate, chsh_coefficient, chsh_features,
                         correlation_coefficient, covariance_intensity,
                         feature_moments, fourfold_covariance, mean_intensity,
                         variance_intensity)
from .multimode import Hom2dConfig, calibrate_gain, run_hom2d
from .reporting import RunReport, StatisticRow, make_row
from .sampling import LANE_STRIDE, RngStream, sample_vacuum

__all__ = ["ExperimentConfig", "run_experiment", "oracle_table", "EXPERIMENT_KINDS"]

EXPERIMENT_KINDS = ("twin", "hom", "bell", "hom2d", "fourfold")


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one experiment run.

    The amplifier strength is given either as the gain-length product
    ``gl`` or as the mean photon number per mode ``G`` (mutually
    exclusive); angles are radians.  The field defaults are the command
    line's defaults.
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


def _lane(config: ExperimentConfig, lane: int) -> RngStream:
    return RngStream(config.seed, lane * LANE_STRIDE)


def twin_fields(config: ExperimentConfig):
    """Detector-plane twin-beam field columns (signal, idler)."""
    gain = config.gain
    ens = sample_vacuum(_lane(config, 0), config.reps, 2, threads=config.threads)
    es, ei = parametric_amplify(ens.column(0), ens.column(1), gain)
    if config.eta < 1.0:
        det = DetectorParams(config.eta)
        vac = sample_vacuum(_lane(config, 1), config.reps, 2, threads=config.threads)
        es = detector_loss(es, det, vac.column(0))
        ei = detector_loss(ei, det, vac.column(1))
    return es, ei


def _run_twin(config: ExperimentConfig) -> RunReport:
    es, ei = twin_fields(config)
    oracle = theory.twin_beam_moments(config.gain, config.eta)
    rows = [
        make_row("mean", mean_intensity(es), oracle["mean"]),
        make_row("var", variance_intensity(es), oracle["var"]),
        make_row("cov", covariance_intensity(es, ei), oracle["cov"]),
    ]
    return RunReport("twin", rows=rows)


def hom_fields(config: ExperimentConfig):
    """Input and output field columns of the interference experiment."""
    ens = sample_vacuum(_lane(config, 0), config.reps, 2, threads=config.threads)
    es, ei = parametric_amplify(ens.column(0), ens.column(1), config.gain)
    e1, e2 = beam_split(es, ei, config.splitter)
    return es, ei, e1, e2


def _run_hom(config: ExperimentConfig) -> RunReport:
    gain = config.gain
    es, ei, e1, e2 = hom_fields(config)

    cov_in_oracle = (gain.C * gain.S) ** 2
    ratio_oracle = theory.hom_covariance_ratio(config.splitter)

    # Dip amplitude through the field-coherence route: for Gaussian fields
    # the cross-port covariance equals |<E1 E2*>|^2 + |<E1 E2>|^2, and the
    # pair-moment estimates resolve the null far below the noise floor of
    # the raw intensity covariance (whose 5-se check stands separately).
    def pair_parts(e1, e2, es, ei):
        pairs = (e1 * np.conj(e2), e1 * e2, es * np.conj(ei), es * ei)
        return [part for p in pairs for part in (p.real, p.imag)]

    def coherence_ratio(m):
        return sum(m[k] ** 2 for k in range(4)) / sum(m[k] ** 2 for k in range(4, 8))

    dip = feature_moments(pair_parts, e1, e2, es, ei).estimate(coherence_ratio)

    rows = [
        make_row("cov_input", covariance_intensity(es, ei), cov_in_oracle),
        make_row("cov_output", covariance_intensity(e1, e2),
                 ratio_oracle * cov_in_oracle),
        make_row("dip_amplitude", dip, ratio_oracle),
    ]
    return RunReport("hom", rows=rows)


def bell_arms(config: ExperimentConfig):
    """Polarisation-entangled fields at the two locations.

    Two independent amplifiers pump the crossed polarisation pairs
    (1x, 2y) and (1y, 2x), which realises the maximally entangled
    polarisation state for intensity correlations.
    """
    gain = config.gain
    ens = sample_vacuum(_lane(config, 0), config.reps, 4, threads=config.threads)
    e1x, e2y = parametric_amplify(ens.column(0), ens.column(1), gain)
    e1y, e2x = parametric_amplify(ens.column(2), ens.column(3), gain)
    return e1x, e1y, e2x, e2y


def polarized_arms(arms, theta1, theta2):
    """Project both locations onto polariser axes (plus/minus outputs)."""
    e1x, e1y, e2x, e2y = arms
    e1p = polarizer_project(e1x, e1y, theta1)
    e1m = polarizer_project(e1x, e1y, theta1 + math.pi / 2.0)
    e2p = polarizer_project(e2x, e2y, theta2)
    e2m = polarizer_project(e2x, e2y, theta2 + math.pi / 2.0)
    return e1p, e1m, e2p, e2m


def chsh_b_estimate(arms, reps: int) -> MomentEstimate:
    """CHSH coefficient B at the standard angle set over ``reps`` repetitions."""
    a, ap, b, bp = theory.CHSH_ANGLES
    settings = ((ap, b, 1.0), (ap, bp, 1.0), (a, bp, 1.0), (a, b, -1.0))

    def features(*chunk):
        return [col for t1, t2, _ in settings
                for col in chsh_features(*polarized_arms(chunk, t1, t2))]

    def b_value(m):
        return sum(sign * m[2 * j] / m[2 * j + 1]
                   for j, (_, _, sign) in enumerate(settings))

    est = feature_moments(features, *arms).estimate(b_value)
    return replace(est, n_samples=reps)


def _run_bell(config: ExperimentConfig) -> RunReport:
    G = config.gain.mean_photons
    arms = bell_arms(config)
    e1p, e1m, e2p, e2m = polarized_arms(arms, config.theta1, config.theta2)

    rows = [
        make_row("rho", correlation_coefficient(e1p, e2p),
                 theory.bell_correlation(config.theta1, config.theta2)),
        make_row("E", chsh_coefficient(e1p, e1m, e2p, e2m),
                 theory.bell_chsh_coefficient(config.theta1, config.theta2, G)),
        make_row("B", chsh_b_estimate(arms, config.reps),
                 theory.BellPrediction(G).b_of_g),
    ]
    report = RunReport("bell", rows=rows)
    report.metadata["threshold_G"] = theory.CHSH_THRESHOLD_GAIN
    return report


def _run_fourfold(config: ExperimentConfig) -> RunReport:
    gain = config.gain
    ens = sample_vacuum(_lane(config, 0), config.reps, 2, threads=config.threads)
    es, ei = parametric_amplify(ens.column(0), ens.column(1), gain)
    res = fourfold_covariance(es, es, ei, ei)

    exact_terms, classes = theory.fourfold_terms(
        **theory.coincident_fourfold_moments(gain))
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
    if table == "twin":
        values = values or (0.01, 0.1, 0.2612038749637415, 1.0, 10.0)
        header = ["G", "gl", "eta", "mean", "var", "cov"]
        rows = []
        for G in values:
            gain = GainParams.from_mean_photons(G)
            m = theory.twin_beam_moments(gain, eta)
            rows.append([G, gain.gl, eta, m["mean"], m["var"], m["cov"]])
        return header, rows
    if table == "bell":
        values = values or (0.0, 0.01, 0.1, 0.2612038749637415, 1.0, 10.0)
        header = ["G", "gain_factor", "B", "threshold_G"]
        return header, [
            [G, theory.chsh_gain_factor(G), theory.BellPrediction(G).b_of_g,
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
        "threads": config.threads,
    })
    if config.kind != "hom2d":  # hom2d's gain is its geometry's gain_scale
        meta.update({
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
