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

So a caller that keeps these arrays, as the pipelines do for each chunk,
propagates without allocating.  ``out`` and ``scratch`` are only written,
after every read of an input they would overwrite: an ``out`` or
``scratch`` that may share memory with an input, or with one another, is
a ValueError, never a silently wrong field.

Each element takes the numbers it reads as plain floats, as its callers
hold them: the splitter its intensity transmittance T, the polariser its
angle theta, the detector its quantum efficiency eta, the amplifier cosh
gL and sinh gL (arrays of them for a gain per mode).  The splitter and
the detector check theirs on every call, one comparison a chunk.  A run
derives cosh gL and sinh gL once, in a :class:`GainParams`, which names
the cosh overflow where the gain is set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GainParams",
    "beam_split",
    "check_unit_interval",
    "detector_loss",
    "parametric_amplify",
    "polarizer_project",
    "splitter_amplitudes",
]


@dataclass(frozen=True, repr=False, eq=False)
class GainParams:
    """Parametric-amplifier gain triple (gL, cosh gL, sinh gL)."""

    gl: float
    C: float = field(init=False)
    S: float = field(init=False)

    def __post_init__(self):
        if not (self.gl >= 0.0 and math.isfinite(self.gl)):
            raise ValueError(f"gl must be finite and >= 0, got {self.gl}")
        try:
            object.__setattr__(self, "C", math.cosh(self.gl))
        except OverflowError:
            raise ValueError(f"gain-length product gL = {self.gl} is too large: cosh(gL) "
                             "overflows a double for gL above about 710.48") from None
        object.__setattr__(self, "S", math.sinh(self.gl))

    @classmethod
    def from_mean_photons(cls, G: float) -> "GainParams":
        """Gain producing G = sinh^2(gL) photons per mode, G finite and >= 0."""
        if not (G >= 0.0 and math.isfinite(G)):
            raise ValueError(f"G must be finite and >= 0, got {G}")
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


def parametric_amplify(es0, ei0, C, S, out=None, scratch=None):
    """Amplify a signal/idler pair of vacuum inputs at cosh gL = ``C`` and
    sinh gL = ``S``, floats or arrays that broadcast against the fields.

    Returns ``(C es0 - i S conj(ei0), C ei0 - i S conj(es0))``, in ``out``
    when given (see the module docstring).  The transform is linear and
    deterministic; the sample-wise difference |E_s|^2 - |E_i|^2 is
    conserved exactly.  For a real S, -i S conj(x) = conj(i S x), which
    spares numpy a buffer for a strided x.
    """
    (es, ei), t = _buffers((es0, ei0), out, 2, scratch)
    for field, own, partner in ((es, es0, ei0), (ei, ei0, es0)):
        np.multiply(C, own, out=field)
        np.multiply(S, partner, out=t)
        np.conjugate(np.multiply(1j, t, out=t), out=t)
        np.add(field, t, out=field)
    return es, ei


def check_unit_interval(name: str, value: float) -> None:
    """Refuse the setting ``name`` unless its ``value`` lies in [0, 1]; the
    ValueError names both, and NaN is refused too."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def splitter_amplitudes(transmittance: float) -> tuple:
    """Amplitudes ``(t, r) = (sqrt(T), i sqrt(1 - T))`` of a lossless
    splitter of intensity transmittance T on both inputs: ``t`` a float,
    ``r`` a complex.  The one place the splitter's phase convention lives."""
    check_unit_interval("transmittance", transmittance)
    return math.sqrt(transmittance), 1j * math.sqrt(1.0 - transmittance)


def _mix(a, x, b, y, out, t):
    """``out`` <- a x + b y, through ``t``."""
    np.multiply(a, x, out=out)
    np.add(out, np.multiply(b, y, out=t), out=out)
    return out


def beam_split(e_s, e_i, transmittance: float, out=None, scratch=None):
    """Mix two fields on a lossless splitter of intensity transmittance T;
    conserves |E1|^2 + |E2|^2.

    Returns ``(t e_s + r e_i, r e_s + t e_i)`` with ``(t, r)`` of
    :func:`splitter_amplitudes`, in ``out`` when given (see the module
    docstring).  A T outside [0, 1] is a ValueError.
    """
    t, r = splitter_amplitudes(transmittance)
    (e1, e2), tmp = _buffers((e_s, e_i), out, 2, scratch)
    return _mix(t, e_s, r, e_i, e1, tmp), _mix(r, e_s, t, e_i, e2, tmp)


def polarizer_project(e_x, e_y, theta: float, out=None, scratch=None):
    """Project onto the polarizer axis at angle theta.

    Returns ``cos(theta) e_x + sin(theta) e_y``, in ``out`` when given (see
    the module docstring).  The orthogonal output is obtained by calling
    with theta + pi/2.
    """
    (out,), t = _buffers((e_x, e_y), None if out is None else (out,), 1, scratch)
    return _mix(np.cos(theta), e_x, np.sin(theta), e_y, out, t)


def detector_loss(e, eta: float, vac, out=None, scratch=None):
    """Mix a field with fresh vacuum at quantum efficiency eta:
    sqrt(eta) e + sqrt(1-eta) vac, in ``out`` when given (see the module
    docstring).  An eta outside [0, 1] is a ValueError.

    ``vac`` must come from an independent vacuum stream, one per detector;
    vacua are never shared between call sites.
    """
    check_unit_interval("eta", eta)
    (out,), t = _buffers((e, vac), None if out is None else (out,), 1, scratch)
    return _mix(math.sqrt(eta), e, math.sqrt(1.0 - eta), vac, out, t)
