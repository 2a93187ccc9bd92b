"""Sample-wise propagation rules for the optical elements.

Each element maps the complex amplitudes of its input fields, scalars or
numpy arrays, to those of its output fields, sample by sample, with the
same operations whatever the caller.  Phases are defined relative to the
pump, whose phase is fixed to zero throughout.

Every element function takes two optional arrays of the inputs'
broadcast shape:

* ``out``: the complex128 arrays the outputs are written to and returned
  (one array, or a pair for the two-output elements); new arrays when
  absent;
* ``scratch``: one complex128 array holding the intermediate term of an
  output; a new one when absent.

So a caller that keeps these arrays, as the pipelines do for each pass,
propagates without allocating.  ``out`` and ``scratch`` are only written,
after every read of an input they would overwrite: an ``out`` or
``scratch`` that may share memory with an input, or with one another, is
a ValueError, never a silently wrong field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BeamSplitterParams",
    "DetectorParams",
    "GainParams",
    "beam_split",
    "detector_loss",
    "parametric_amplify",
    "polarizer_project",
]


@dataclass(frozen=True)
class GainParams:
    """Parametric-amplifier gain triple (gL, cosh gL, sinh gL)."""

    gl: float
    C: float = field(init=False)
    S: float = field(init=False)

    def __post_init__(self):
        if not (self.gl >= 0.0 and math.isfinite(self.gl)):
            raise ValueError(f"gain-length product must be finite and >= 0, got {self.gl}")
        object.__setattr__(self, "C", math.cosh(self.gl))
        object.__setattr__(self, "S", math.sinh(self.gl))

    @classmethod
    def from_mean_photons(cls, G: float) -> "GainParams":
        """Gain producing G = sinh^2(gL) photons per mode."""
        if G < 0:
            raise ValueError("mean photon number must be >= 0")
        return cls(gl=math.asinh(math.sqrt(G)))

    @property
    def mean_photons(self) -> float:
        return self.S * self.S


def _buffers(inputs, out, n_out: int, scratch):
    """The ``n_out`` output arrays and the scratch array of an element:
    ``out`` and ``scratch``, each new when None, checked to share no memory
    with ``inputs`` or with one another."""
    if out is None or scratch is None:
        shape = np.broadcast_shapes(*(np.shape(x) for x in inputs))
    if out is None:
        out = tuple(np.empty(shape, dtype=np.complex128) for _ in range(n_out))
    if scratch is None:
        scratch = np.empty(shape, dtype=np.complex128)
    written = (*out, scratch)
    for k, w in enumerate(written):
        if any(np.may_share_memory(w, x) for x in (*inputs, *written[k + 1:])):
            raise ValueError("an element's out and scratch arrays must not "
                             "share memory with its inputs or one another")
    return out, scratch


def parametric_amplify(es0, ei0, gain: GainParams, out=None, scratch=None):
    """Amplify a signal/idler pair of vacuum inputs.

    Returns ``(C es0 - i S conj(ei0), C ei0 - i S conj(es0))``, in ``out``
    when given (see the module docstring).  The transform is linear and
    deterministic; the sample-wise difference |E_s|^2 - |E_i|^2 is
    conserved exactly.
    """
    (es, ei), t = _buffers((es0, ei0), out, 2, scratch)
    coupling = 1j * gain.S
    np.multiply(gain.C, es0, out=es)
    np.multiply(coupling, np.conjugate(ei0, out=t), out=t)
    np.subtract(es, t, out=es)
    np.multiply(gain.C, ei0, out=ei)
    np.multiply(coupling, np.conjugate(es0, out=t), out=t)
    np.subtract(ei, t, out=ei)
    return es, ei


_UNITARITY_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitterParams:
    """Complex transmission/reflection amplitudes of a lossless splitter.

    ``t_s1`` (``r_s2``) couples input s to output 1 (2); ``t_i2``
    (``r_i1``) couples input i to output 2 (1).
    """

    t_s1: complex
    r_s2: complex
    r_i1: complex
    t_i2: complex

    def __post_init__(self):
        a1 = abs(self.t_s1) ** 2 + abs(self.r_s2) ** 2
        a2 = abs(self.t_i2) ** 2 + abs(self.r_i1) ** 2
        cross = self.t_s1 * np.conj(self.r_s2) + self.r_i1 * np.conj(self.t_i2)
        if abs(a1 - 1.0) > _UNITARITY_TOL or abs(a2 - 1.0) > _UNITARITY_TOL \
                or abs(cross) > _UNITARITY_TOL:
            raise ValueError("beam-splitter amplitudes are not unitary")

    @classmethod
    def balanced(cls) -> "BeamSplitterParams":
        """Symmetric 50/50 splitter: t = 1/sqrt(2), r = i/sqrt(2)."""
        t = 1.0 / math.sqrt(2.0)
        r = 1j / math.sqrt(2.0)
        return cls(t_s1=t, r_s2=r, r_i1=r, t_i2=t)

    @classmethod
    def from_transmittance(cls, T: float) -> "BeamSplitterParams":
        """Splitter with intensity transmittance T on both inputs."""
        if not 0.0 <= T <= 1.0:
            raise ValueError("transmittance must lie in [0, 1]")
        t = math.sqrt(T)
        r = 1j * math.sqrt(1.0 - T)
        return cls(t_s1=t, r_s2=r, r_i1=r, t_i2=t)


def _mix(a, x, b, y, out, t):
    """``out`` <- a x + b y, through ``t``."""
    np.multiply(a, x, out=out)
    np.add(out, np.multiply(b, y, out=t), out=out)
    return out


def beam_split(e_s, e_i, bs: BeamSplitterParams, out=None, scratch=None):
    """Mix two fields on a lossless splitter; conserves |E1|^2 + |E2|^2.

    Returns ``(t_s1 e_s + r_i1 e_i, r_s2 e_s + t_i2 e_i)``, in ``out`` when
    given (see the module docstring).
    """
    (e1, e2), t = _buffers((e_s, e_i), out, 2, scratch)
    return (_mix(bs.t_s1, e_s, bs.r_i1, e_i, e1, t),
            _mix(bs.r_s2, e_s, bs.t_i2, e_i, e2, t))


def polarizer_project(e_x, e_y, theta: float, out=None, scratch=None):
    """Project onto the polarizer axis at angle theta.

    Returns ``cos(theta) e_x + sin(theta) e_y``, in ``out`` when given (see
    the module docstring).  The orthogonal output is obtained by calling
    with theta + pi/2.
    """
    (out,), t = _buffers((e_x, e_y), None if out is None else (out,), 1, scratch)
    return _mix(np.cos(theta), e_x, np.sin(theta), e_y, out, t)


@dataclass(frozen=True)
class DetectorParams:
    """Quantum efficiency of a detector, modelled as vacuum admixture."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"quantum efficiency must lie in [0, 1], got {self.eta}")


def detector_loss(e, det: DetectorParams, vac, out=None, scratch=None):
    """Mix a field with fresh vacuum: sqrt(eta) e + sqrt(1-eta) vac, in
    ``out`` when given (see the module docstring).

    ``vac`` must come from an independent vacuum stream, one per detector;
    vacua are never shared between call sites.
    """
    (out,), t = _buffers((e, vac), None if out is None else (out,), 1, scratch)
    return _mix(math.sqrt(det.eta), e, math.sqrt(1.0 - det.eta), vac, out, t)
