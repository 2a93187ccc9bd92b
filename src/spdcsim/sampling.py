"""Seedable vacuum-field sampling with counter-based per-repetition streams.

The sampler draws complex field amplitudes whose real and imaginary parts
are independent zero-mean Gaussians with variance 1/4, so each vacuum mode
carries a mean intensity <|E|^2> = 1/2 (units of photons per mode).
Expectations of sampled intensities are symmetric-order moments; converting
to normal order requires subtracting 1/2 from intensities and 1/4 from
intensity variances (see :data:`ORDERING`).  Individual normal-ordered
samples may be negative; nothing here clamps them.

Random number generation is fully deterministic and order-independent:

* Every repetition ``r`` of an ensemble owns a private Philox-4x64-10
  stream keyed by ``(seed, stream_id + r)``.  Philox is a pure function of
  (key, counter), so any number of workers can fill disjoint repetition
  ranges and always produce the same ensemble as a serial run.
* Within a stream, 64-bit words are consumed in counter order, mapped to
  doubles in [0, 1), and converted to Gaussians with the Box-Muller
  transform (word pair ``2t, 2t+1`` gives the cosine/sine pair).  Mode
  ``m`` of a repetition uses words ``2m`` and ``2m+1`` as its real and
  imaginary quadratures.

:func:`raw_words` draws the words along one of two paths that give the
same words:

* tall ensembles (many repetitions, few counter blocks) run the Philox
  below, vectorised over repetitions with a Python loop over blocks;
* wide ensembles (few repetitions, many blocks, as for hom2d image
  planes) run one ``numpy.random.Philox``, rekeyed for each repetition r
  to ``(seed, stream_id + r)`` with its counter one block before 0.

The choice is a fixed cost rule on (repetitions, blocks), see
:func:`_per_row_is_faster`; the test suite checks both paths against each
other and against ``numpy.random.Philox`` bit for bit.

Since rows are keyed independently, rows ``[row0, row0 + n)`` of a stream
``(seed, s)`` are ``sample_vacuum(RngStream(seed, s + row0), n, modes)``.
The twin, hom, bell and fourfold pipelines draw their ensembles that way,
one 65536-row chunk per call, and run their ``threads`` over those chunks
(see :mod:`spdcsim.experiments`); a single call here runs on the calling
thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ORDERING",
    "FieldEnsemble",
    "OrderingConstants",
    "RngStream",
    "derive_stream",
    "sample_vacuum",
    "LANE_STRIDE",
]

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

# Philox-4x64 round multipliers and Weyl key increments (Random123 constants).
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK32 = _U64(0xFFFFFFFF)
_SH32 = _U64(32)
_SH11 = _U64(11)
_INV53 = 2.0 ** -53

#: Offset between stream_id blocks reserved for independent vacuum lanes of
#: a single experiment (e.g. amplifier inputs vs. detector-loss vacua).
LANE_STRIDE = 1 << 40

#: Constants converting symmetric-order sampled moments to normal order.
@dataclass(frozen=True)
class OrderingConstants:
    intensity_offset: float = 0.5
    variance_offset: float = 0.25


ORDERING = OrderingConstants()


@dataclass(frozen=True)
class RngStream:
    """Identifier of one deterministic random stream.

    Identical ``(seed, stream_id)`` pairs reproduce bit-identical samples;
    distinct stream ids yield statistically independent streams.
    """

    seed: int
    stream_id: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)


def derive_stream(seed: int, repetition_index: int) -> RngStream:
    """Pure derivation of the per-repetition stream for a given seed."""
    return RngStream(seed=seed, stream_id=repetition_index)


@dataclass(frozen=True)
class FieldEnsemble:
    """R independent repetitions x M modes of complex field amplitudes."""

    data: np.ndarray
    seed: int
    stream_base: int = 0

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ValueError("ensemble data must be 2-D (reps x modes)")

    @property
    def reps(self) -> int:
        return self.data.shape[0]

    @property
    def modes(self) -> int:
        return self.data.shape[1]

    def column(self, m: int) -> np.ndarray:
        return self.data[:, m]


def _mulhilo(a: int, x: np.ndarray, hi: np.ndarray, lo: np.ndarray,
             t: np.ndarray, u: np.ndarray) -> None:
    """``hi``, ``lo`` <- high and low 64 bits of a * x (64x64 -> 128 via
    32-bit limbs).  ``t`` and ``u`` are scratch; ``x`` is overwritten."""
    ah, al = _U64(a >> 32), _U64(a & 0xFFFFFFFF)
    np.multiply(x, _U64(a), out=lo)
    np.bitwise_and(x, _MASK32, out=t)       # xl
    np.multiply(t, al, out=u)
    np.right_shift(u, _SH32, out=u)         # (al xl) >> 32
    np.multiply(t, ah, out=t)
    np.add(t, u, out=t)                     # t = ah xl + (al xl >> 32)
    np.right_shift(x, _SH32, out=u)         # xh
    np.multiply(u, ah, out=hi)
    np.multiply(u, al, out=u)               # al xh
    np.right_shift(t, _SH32, out=x)
    np.add(hi, x, out=hi)
    np.bitwise_and(t, _MASK32, out=t)
    np.add(u, t, out=u)                     # u = al xh + (t & mask)
    np.right_shift(u, _SH32, out=u)
    np.add(hi, u, out=hi)                   # hi = ah xh + (t >> 32) + (u >> 32)


def _philox_block(counter0: int, seed: int, stream_ids: np.ndarray):
    """One Philox-4x64-10 block per stream id; returns four uint64 arrays."""
    shape = stream_ids.shape
    x0 = np.full(shape, _U64(counter0), dtype=np.uint64)
    x1 = np.zeros(shape, dtype=np.uint64)
    x2 = np.zeros(shape, dtype=np.uint64)
    x3 = np.zeros(shape, dtype=np.uint64)
    hi0, lo0, hi1, lo1, t, u = (np.empty(shape, dtype=np.uint64) for _ in range(6))
    k1 = stream_ids.astype(np.uint64, copy=True)
    for i in range(10):
        k0 = _U64((seed + i * _W0) & _MASK64)
        _mulhilo(_M0, x0, hi0, lo0, t, u)
        _mulhilo(_M1, x2, hi1, lo1, t, u)
        np.bitwise_xor(hi1, x1, out=x0)
        np.bitwise_xor(x0, k0, out=x0)
        np.bitwise_xor(hi0, x3, out=x2)
        np.bitwise_xor(x2, k1, out=x2)
        x1, lo1 = lo1, x1
        x3, lo0 = lo0, x3
        np.add(k1, _U64(_W1), out=k1)
    return x0, x1, x2, x3


def _per_row_is_faster(reps: int, n_blocks: int) -> bool:
    """Dispatch rule of :func:`raw_words`: True where the per-row numpy
    Philox path beats the path vectorised over rows.

    Measured on a 2-vCPU x86-64 VM with numpy 2.4: the per-row path costs
    ~5 us a row (rekeying its one generator; its words cost ~0.03 us a
    block), the vectorised one ~240 us a block plus ~0.17 us per row and
    block.  So one-block and two-block tall ensembles stay vectorised, and
    rows win from ~2 blocks at 100 rows, ~13 at 1000 and ~26 at 10 000.
    """
    return 500 * reps < n_blocks * (24_000 + 17 * reps)


def raw_words(stream: RngStream, reps: int, n_words: int) -> np.ndarray:
    """First ``n_words`` raw 64-bit words of ``reps`` consecutive streams."""
    n_blocks = -(-n_words // 4)
    words = np.empty((reps, 4 * n_blocks), dtype=np.uint64)
    if _per_row_is_faster(reps, n_blocks):
        # numpy's Philox steps its counter before each block, so starting it
        # at 2**64 - 1 in every word makes its first block our block 0.  One
        # generator is rekeyed per row: building one per row would draw OS
        # entropy for a seed that the key then overrides.
        counter = np.full(4, _MASK64, dtype=np.uint64)
        bit_gen = np.random.Philox(0)
        state = bit_gen.state
        for r in range(reps):
            key = np.array([stream.seed, (stream.stream_id + r) & _MASK64],
                           dtype=np.uint64)
            state["state"] = {"counter": counter, "key": key}
            bit_gen.state = state
            words[r] = bit_gen.random_raw(4 * n_blocks)
    else:
        sids = (_U64(stream.stream_id) + np.arange(reps, dtype=np.uint64)).astype(np.uint64)
        for j in range(n_blocks):
            for k, w in enumerate(_philox_block(j, stream.seed, sids)):
                words[:, 4 * j + k] = w
    return words[:, :n_words]


def _gaussian_pairs(words: np.ndarray, out: np.ndarray) -> None:
    """Box-Muller transform of an even number of word columns into the
    float64 array ``out`` of the same shape."""
    r = out[:, 0::2]
    ang = out[:, 1::2]
    bits = np.right_shift(words[:, 0::2], _SH11)
    np.add(bits, _U64(1), out=bits)
    np.multiply(bits, _INV53, out=r)        # u1 in (0, 1]
    np.right_shift(words[:, 1::2], _SH11, out=bits)
    np.multiply(bits, _INV53, out=ang)      # u2 in [0, 1)
    del bits  # freed before the cosine temporary of the same size
    np.log(r, out=r)
    np.multiply(r, -2.0, out=r)
    np.sqrt(r, out=r)
    np.multiply(ang, 2.0 * np.pi, out=ang)
    cos = np.cos(ang)
    np.sin(ang, out=ang)
    np.multiply(r, ang, out=ang)
    np.multiply(r, cos, out=r)


#: Rows :func:`sample_vacuum` fills per block of raw words.
_FILL_ROWS = 1 << 16


def _fill_rows(out: np.ndarray, stream: RngStream, row0: int, rows: int, modes: int) -> None:
    n_words = 2 * modes
    if n_words % 4:
        n_words += 4 - (n_words % 4)  # keep whole blocks, discard extras
    sub = RngStream(stream.seed, stream.stream_id + row0)
    words = raw_words(sub, rows, n_words)
    z = out[row0:row0 + rows].view(np.float64)  # re, im interleaved per mode
    _gaussian_pairs(words[:, :2 * modes], z)
    np.multiply(z, 0.5, out=z)


def sample_vacuum(rng: RngStream, reps: int, modes: int) -> FieldEnsemble:
    """Sample independent vacuum fields, one stream per repetition.

    Each amplitude is a circular complex Gaussian with <E E*> = 1/2 and
    <E E> = 0; distinct modes and repetitions are uncorrelated.  The rows
    are filled in blocks of 65536, which bounds the raw-word temporaries;
    the result depends only on ``rng`` and the shape.
    """
    if reps < 1 or modes < 1:
        raise ValueError("reps and modes must both be >= 1")
    out = np.empty((reps, modes), dtype=np.complex128)
    for a in range(0, reps, _FILL_ROWS):
        _fill_rows(out, rng, a, min(_FILL_ROWS, reps - a), modes)
    return FieldEnsemble(data=out, seed=rng.seed, stream_base=rng.stream_id)
