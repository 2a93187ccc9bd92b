"""Experiment pipelines binding configurations to sampled statistics.

:data:`READS` names the fields each kind reads besides ``kind``, ``reps``
and ``seed``: a config refuses any other field off its default, a report's
metadata records exactly those, and the command line has their flags.
``reps`` is at least three (:func:`~spdcsim.estimators.check_reps`).

The twin, hom, bell and fourfold pipelines run one path, each through its
entry of ``_STREAMED``.  The oracle is computed before the draw, so one
that overflows fails the run at once; a value, standard error or oracle
that is not finite fails the run where its row is made.  The chunks of
:func:`~spdcsim.estimators.row_chunks`, at most
:data:`~spdcsim.estimators.CHUNK_ROWS` = 16384 rows, are the one unit of
drawing, reduction and merging, so memory does not grow with ``reps``.  A
chunk draws each vacuum lane in one call (one draw block of the sampler
for two-mode rows, see :func:`~spdcsim.sampling.block_rows`), propagates
the fields through the elements, writes its features into the rows of a
(k, rows) matrix and reduces that to its feature mean and centred Gram
matrix.  Every array of it, the vacuum draw's words and Box-Muller
scratch included, is a buffer of the one namespace that the worker owns
and passes down (:func:`~spdcsim.sampling.kept_array`), reused for its
next chunk: a warm chunk allocates no fresh pages, and its working set
stays in cache.  The chunk at ``row0`` of vacuum lane ``L`` is
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
whatever the settings.

``threads`` workers reduce whole chunks, at most two per worker in flight,
and the merge takes their results strictly in row order, so a report does
not depend on the thread count.  One thread reduces them on the calling
thread: ``concurrent.futures`` is imported only when ``threads`` > 1, so
a one-thread run does not pay for its import.  hom2d draws and
synthesises its repetitions on the calling thread, one draw block of the
sampler at a time, and its sweep then reduces them all at once.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from . import __version__, theory
from .elements import (GainParams, beam_split, check_unit_interval, detector_loss,
                       parametric_amplify, polarizer_project, splitter_amplitudes)
from .estimators import (DegenerateStatisticError, FeatureMoments, check_reps,
                         chsh_coefficient, correlation_coefficient, correlation_features,
                         covariance_intensity, fourfold_covariance, fourfold_features,
                         intensity_products, mean_intensity, merge_moments, pair_parts,
                         row_chunks, stokes_products, variance_intensity)
from .multimode import Hom2dConfig, calibrate_gain, run_hom2d
from .reporting import RunReport, make_row
from .sampling import LANE_STRIDE, RngStream, kept_array, sample_vacuum

__all__ = ["ExperimentConfig", "run_experiment", "oracle_table", "EXPERIMENT_KINDS",
           "DEFAULT_REPS", "READS"]

#: The fields of :class:`ExperimentConfig` each kind reads besides
#: ``kind``, ``reps`` and ``seed``, in the order its metadata records them.
READS = {
    "twin": ("threads", "gl", "G", "eta"),
    "hom": ("threads", "gl", "G", "transmittance"),
    "bell": ("threads", "gl", "G", "theta1", "theta2"),
    "hom2d": ("photons_per_pixel", "hom2d"),
    "fourfold": ("threads", "gl", "G"),
}
EXPERIMENT_KINDS = tuple(READS)

#: Default ``reps`` of each kind.  A hom2d repetition is a pair of whole
#: images, 8192 complex vacuum amplitudes at the default geometry.
DEFAULT_REPS = {**dict.fromkeys(EXPERIMENT_KINDS, 1_000_000), "hom2d": 100}


def _readers(name: str) -> str:
    """The kinds of :data:`READS` that read the field ``name``, as text."""
    return ", ".join(kind for kind, names in READS.items() if name in names)


@dataclass(frozen=True, eq=False, repr=False)
class ExperimentConfig:
    """Configuration of one experiment run.

    ``reps`` and ``seed`` apply to every kind, and every other field to the
    kinds of :data:`READS` that name it: any other kind refuses it off its
    default, so a run never ignores a setting.  ``reps`` left at None takes
    the kind's :data:`DEFAULT_REPS`; every kind needs at least three
    (:func:`~spdcsim.estimators.check_reps`).  The gain is the gain-length
    product ``gl`` or the mean photons per mode ``G``, and hom2d's its
    geometry's ``gain_scale`` or calibrated to ``photons_per_pixel`` (each
    pair mutually exclusive); angles are radians.  No result depends on
    ``threads``.  The field defaults are the command line's defaults.
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
        if self.kind not in READS:
            raise ValueError(f"unknown experiment kind: {self.kind!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in (*READS[self.kind], "kind", "reps", "seed") and value != f.default:
                raise ValueError(f"the {self.kind} run does not read {f.name}, got {value}; "
                                 f"{f.name} applies to {_readers(f.name)} runs only")
        if self.reps is None:  # a frozen field, set once here
            object.__setattr__(self, "reps", DEFAULT_REPS[self.kind])
        if self.gl is not None and self.G is not None:
            raise ValueError("give either gl or G, not both")
        if (self.photons_per_pixel is not None
                and self.hom2d.gain_scale != Hom2dConfig.gain_scale):
            raise ValueError("give either photons_per_pixel or gain_scale, not both")
        check_reps(self.reps)
        if not isinstance(self.threads, numbers.Integral):
            raise ValueError(f"threads must be an integer, got {self.threads!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        for name in ("theta1", "theta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # bad values, the seed's included, fail here
        _ = (self.gain, splitter_amplitudes(self.transmittance),
             check_unit_interval("eta", self.eta), RngStream(self.seed, 0))

    @cached_property
    def gain(self) -> GainParams:
        if self.G is not None:
            return GainParams.from_mean_photons(self.G)
        if self.gl is not None:
            return GainParams(self.gl)
        return GainParams(math.asinh(1.0))  # S^2 = 1 default


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
    return parametric_amplify(ens[:, 0], ens[:, 1], config.gain.C, config.gain.S,
                              out=_fields(kept, rows, "signal", "idler"),
                              scratch=_scratch(kept, rows))


def _twin_chunk(config: ExperimentConfig, row0: int, rows: int, kept):
    es, ei = _amplified_pair(config, row0, rows, kept)
    if config.eta < 1.0:
        vac = _vacuum(config, 1, row0, rows, 2, kept)
        ds, di = _fields(kept, rows, "detected_signal", "detected_idler")
        es = detector_loss(es, config.eta, vac[:, 0], out=ds, scratch=_scratch(kept, rows))
        ei = detector_loss(ei, config.eta, vac[:, 1], out=di, scratch=_scratch(kept, rows))
    return es, ei


def _twin_features(config, x, kept, es, ei):
    xs, xi, xss, xsi = x
    intensity_products(es, ei, out=(xs, xi, xsi))
    np.multiply(xs, xs, out=xss)


def _twin_rows(config, moments):
    return {"mean": mean_intensity(moments.select([0])),
            "var": variance_intensity(moments.select([0, 0, 2])),
            "cov": covariance_intensity(moments.select([0, 1, 3]))}


def _hom_chunk(config: ExperimentConfig, row0: int, rows: int, kept):
    es, ei = _amplified_pair(config, row0, rows, kept)
    e1, e2 = beam_split(es, ei, config.transmittance,
                        out=_fields(kept, rows, "port1", "port2"), scratch=_scratch(kept, rows))
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


def _hom_oracle(config):
    try:
        cov_in_oracle = (config.gain.C * config.gain.S) ** 2
    except OverflowError:
        raise ArithmeticError(f"the hom cov_input oracle overflows: C S = "
                              f"{config.gain.C * config.gain.S:.6g} squared is out "
                              f"of float range") from None
    ratio_oracle = theory.hom_covariance_ratio(config.transmittance)
    return {"cov_input": cov_in_oracle, "cov_output": ratio_oracle * cov_in_oracle,
            "dip_amplitude": ratio_oracle}


def _hom_rows(config, moments):
    coherence_in = moments.select(range(10, 14)).estimate(_coherence)
    if coherence_in.value < 5.0 * coherence_in.std_error:
        raise DegenerateStatisticError(
            "input field coherence (the dip's denominator) consistent with zero")
    return {"cov_input": covariance_intensity(moments.select([0, 1, 2])),
            "cov_output": covariance_intensity(moments.select([3, 4, 5])),
            "dip_amplitude": moments.select(range(6, 14)).estimate(_coherence_ratio)}


def _bell_chunk(config: ExperimentConfig, row0: int, rows: int, kept):
    """Polarisation-entangled fields (e1x, e1y, e2x, e2y) at the two
    locations, then the input vacua of the same four fields (the fields at
    zero gain): two independent amplifiers pump the crossed polarisation
    pairs (1x, 2y) and (1y, 2x), which realises the maximally entangled
    polarisation state for intensity correlations."""
    ens = _vacuum(config, 0, row0, rows, 4, kept)
    e1x, e2y = parametric_amplify(ens[:, 0], ens[:, 1], config.gain.C, config.gain.S,
                                  out=_fields(kept, rows, "e1x", "e2y"),
                                  scratch=_scratch(kept, rows))
    e1y, e2x = parametric_amplify(ens[:, 2], ens[:, 3], config.gain.C, config.gain.S,
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


def _bell_rows(config, moments):
    chsh = moments.select(range(9, 14))
    return {"rho": correlation_coefficient(moments.select(range(9))),
            "E": chsh_coefficient(chsh, _chsh_weights(config.theta1, config.theta2)),
            "B": chsh_coefficient(chsh, _B_WEIGHTS)}


def _fourfold_features(config, x, kept, es, ei):
    # both signal detectors see es, and both idler detectors ei
    fourfold_features(es, ei, out=x, scratch=_scratch(kept, len(es)))


def _fourfold_oracle(config):
    exact_terms, classes = theory.fourfold_terms(
        **theory.coincident_fourfold_moments(config.gain))
    exact_total = float(np.sum(exact_terms).real)
    return {"fourfold_direct": exact_total, "fourfold_terms_total": exact_total,
            **{f"{name}_terms": float(sum(exact_terms[i] for i in classes[name]).real)
               for name in ("bunching", "low_gain", "mixed")}}


#: (draw, features, k, oracle, rows) of each streamed pipeline:
#: ``draw(config, row0, rows, kept)`` gives the fields of a chunk's rows,
#: ``features(config, x, kept, *fields)`` writes their k features into the
#: chunk's (k, rows) feature matrix ``x``, ``oracle(config)`` the value of
#: each report row (bell's also its metadata's ``threshold_G``), and
#: ``rows(config, moments)`` each row's estimate from all rows' moments.
_STREAMED = {
    "twin": (_twin_chunk, _twin_features, 4,
             lambda config: theory.twin_beam_moments(config.gain, config.eta), _twin_rows),
    "hom": (_hom_chunk, _hom_features, 14, _hom_oracle, _hom_rows),
    "bell": (_bell_chunk, _bell_features, 14,
             lambda config: theory.bell_prediction(config.theta1, config.theta2,
                                                   config.gain.mean_photons), _bell_rows),
    "fourfold": (_amplified_pair, _fourfold_features, 10, _fourfold_oracle,
                 lambda config, moments: fourfold_covariance(moments)),
}


def _chunk_reducer(config: ExperimentConfig, kept):
    """``reduce(row0, rows)``: the moments of that chunk of the streamed
    pipeline ``config.kind``.  It draws, propagates and featurises the rows
    into the buffers of ``kept`` (the features into the (k, rows) matrix
    ``experiments_features``), which one thread at a time may use and the
    next chunk reduced with it reuses.  numpy's floating-point warnings are
    off: a statistic that overflows fails where its report row is made."""
    draw, features, k = _STREAMED[config.kind][:3]

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


def _run_streamed(config: ExperimentConfig) -> RunReport:
    """The report of the streamed pipeline ``config.kind``, with numpy's
    floating-point warnings off: see the module docstring."""
    *_, oracle, rows = _STREAMED[config.kind]
    with np.errstate(all="ignore"):
        exact = oracle(config)
        for name, value in exact.items():
            if not math.isfinite(value):
                raise ArithmeticError(f"the {config.kind} oracle overflows: {name} is "
                                      f"{value} at gl = {config.gain.gl:.6g}")
        estimates = rows(config, _moments(config))
        report = RunReport(config.kind, rows=[make_row(name, est, exact[name])
                                              for name, est in estimates.items()])
    report.metadata.update({name: v for name, v in exact.items() if name not in estimates})
    return report


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
    if table in READS and "eta" not in READS[table] and eta != 1.0:
        raise ValueError(f"the {table} table has no detector efficiency; "
                         f"eta applies to the {_readers('eta')} table only, got {eta}")
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
        return header, [[T, theory.hom_covariance_ratio(T)] for T in values]
    raise ValueError(f"unknown oracle table: {table!r}")


_PIPELINES = {**dict.fromkeys(_STREAMED, _run_streamed), "hom2d": _run_hom2d}


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute the configured pipeline; deterministic under a fixed seed."""
    start = time.perf_counter()
    report = _PIPELINES[config.kind](config)
    meta = report.metadata
    meta.setdefault("experiment", config.kind)
    meta.update({"seed": config.seed, "reps": config.reps})
    # the fields the kind reads, as the run used them: gl and G as its gain's;
    # hom2d's two as calibrated, which its pipeline records (the geometry as config)
    gain = {"gl": config.gain.gl, "G": config.gain.mean_photons}
    meta.update({name: gain[name] if name in gain else getattr(config, name)
                 for name in READS[config.kind] if name not in meta and name != "hom2d"})
    meta.update({
        "version": __version__,
        "wall_time_s": time.perf_counter() - start,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    })
    return report
