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
* Within a stream, 64-bit words are consumed in counter order and
  converted to Gaussians with the Box-Muller transform (word pair ``2t,
  2t+1`` gives the cosine/sine pair).  Mode ``m`` of a repetition uses
  words ``2m`` and ``2m+1`` as its real and imaginary quadratures.  The
  radius word gives ``u1 = ((w >> 11) + 1) 2**-53`` in (0, 1] and the
  radius ``sqrt(-0.5 ln u1)``, which folds the 1/2 scale of the quadratures
  into ``0.5 sqrt(-2 ln u1)`` exactly.  The angle word ``w`` is the turn
  ``u2 = (w >> 11) 2**-53``, reduced exactly in integers: its top 10 bits
  pick one of 1024 cells, whose cosine and sine come from a table
  (:data:`_COS_TABLE`, :data:`_SIN_TABLE`, correct to half an ulp of 1),
  and its next 43 bits give the offset ``b`` in [0, 2 pi / 1024) into the
  cell.  A short Taylor polynomial gives ``sin b`` and ``cos b - 1``, and
  one angle addition the cosine and sine of the whole turn, to within
  6e-16 of the radius, with no call to libm's cos or sin.  The transform
  runs in slabs of at most :data:`_SLAB_PAIRS` pairs, so that each of its
  temporaries takes at most 256 KB and stays in L2 cache.

:func:`raw_words` draws the words along one of two paths that give the
same words:

* tall ensembles (many repetitions, few counter blocks) run the Philox
  below, vectorised over repetitions.  Rows go through a chunk of
  :data:`CHUNK_ROWS` = 16384 at a time, each a Python loop over counter
  blocks, so the seven (2, 16384) scratch arrays, allocated once a thread,
  stay in cache.  The state is two lanes, ``[x0; x2]`` and ``[x1; x3]``,
  so one multiply-high-low serves both multipliers of a round.  The first
  round is closed form: the counter ``(j, 0, 0, 0)`` is the same in every
  row, so only ``M0 j`` is left, one Python-int product, and the rows
  start at round 2;
* wide ensembles (few repetitions, many blocks, as for hom2d image
  planes) run one ``numpy.random.Philox``, rekeyed for each repetition r
  to ``(seed, stream_id + r)`` with its counter one block before 0.

The choice is a fixed cost rule on (repetitions, blocks), see
:func:`_per_row_is_faster`; the test suite checks both paths against each
other and against ``numpy.random.Philox`` bit for bit.

Since rows are keyed independently, rows ``[row0, row0 + n)`` of a stream
``(seed, s)`` are ``sample_vacuum(RngStream(seed, s + row0), n, modes)``.
:func:`sample_vacuum` uses this itself: a tall call is drawn a chunk at a
time, each one :func:`raw_words` draw into a word buffer and one
Box-Muller step.  The word buffer, the chunk's stream ids and the
Box-Muller and Philox scratch hold at most :data:`CHUNK_ROWS` rows each,
and each thread keeps them for its next call (:func:`kept_array`), so a
repeated tall call allocates nothing beyond its result, and nothing at all
when the caller hands it ``out``; its working set does not grow with the
rows asked for.  A wide call stays one :func:`raw_words` draw; its
Box-Muller temporaries are one slab's, freed on return.  The chunk is
also the row block of the twin, hom, bell and fourfold pipelines and of
the moment engine: each chunk is one call here per vacuum lane, drawn
into a buffer that the worker keeps, and one reduction (see
:mod:`spdcsim.experiments`); a single call here runs on the calling
thread.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CHUNK_ROWS",
    "ORDERING",
    "OrderingConstants",
    "RngStream",
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


#: Rows per chunk, the one row block of the package: the tall path draws
#: its rows a chunk at a time, and the pipelines and the moment engine of
#: :mod:`spdcsim.estimators` draw, reduce and merge chunks of this size.
#: Fixed, so that no result depends on the machine.  The tall path's seven
#: (2, 16384) uint64 Philox scratch arrays take 1.8 MB, so a chunk stays in
#: a 2 MB L2 cache.
CHUNK_ROWS = 1 << 14

#: 0, 1, ..., CHUNK_ROWS - 1: a chunk's stream ids less its first.
_ROW_OFFSETS = np.arange(CHUNK_ROWS, dtype=np.uint64)

#: Buffers of the tall path that each thread keeps between calls.
_kept = threading.local()


def kept_array(kept, name: str, shape, dtype=np.complex128) -> np.ndarray:
    """A C-contiguous array of ``shape`` over the start of the flat buffer
    ``name`` of ``kept``, created or grown when it is smaller, so that the
    next call asking for it reuses its pages.

    ``kept`` is an attribute namespace that one thread at a time uses (a
    ``threading.local`` or a ``SimpleNamespace``); None gives a new array.
    """
    if kept is None:
        return np.empty(shape, dtype=dtype)
    size = math.prod(shape)
    buf = getattr(kept, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size, dtype=dtype)
        setattr(kept, name, buf)
    return buf[:size].reshape(shape)

# Column constants of the two-lane state: row 0 acts on x0 and k0, row 1 on
# x2 and k1.
_M = np.array([[_M0], [_M1]], dtype=np.uint64)
_M_HI = _M >> _SH32
_M_LO = _M & _MASK32
_W = np.array([[_W0], [_W1]], dtype=np.uint64)


def _mulhilo(x: np.ndarray, hi: np.ndarray, lo: np.ndarray,
             t: np.ndarray, u: np.ndarray) -> None:
    """``hi``, ``lo`` <- high and low 64 bits of [[M0], [M1]] * x for the
    (2, n) lane pair ``x`` (64x64 -> 128 via 32-bit limbs).  ``t`` and
    ``u`` are scratch; ``x`` is overwritten."""
    np.multiply(x, _M, out=lo)
    np.bitwise_and(x, _MASK32, out=t)       # xl
    np.multiply(t, _M_LO, out=u)
    np.right_shift(u, _SH32, out=u)         # (al xl) >> 32
    np.multiply(t, _M_HI, out=t)
    np.add(t, u, out=t)                     # t = ah xl + (al xl >> 32)
    np.right_shift(x, _SH32, out=u)         # xh
    np.multiply(u, _M_HI, out=hi)
    np.multiply(u, _M_LO, out=u)            # al xh
    np.right_shift(t, _SH32, out=x)
    np.add(hi, x, out=hi)
    np.bitwise_and(t, _MASK32, out=t)
    np.add(u, t, out=u)                     # u = al xh + (t & mask)
    np.right_shift(u, _SH32, out=u)
    np.add(hi, u, out=hi)                   # hi = ah xh + (t >> 32) + (u >> 32)


def _scratch(width: int) -> tuple:
    """Seven (2, width) uint64 arrays for :func:`_philox_block`."""
    return tuple(np.empty((2, width), dtype=np.uint64) for _ in range(7))


def _kept_scratch() -> tuple:
    """This thread's :func:`_scratch` of :data:`CHUNK_ROWS` columns."""
    return tuple(kept_array(_kept, "scratch", (7, 2, CHUNK_ROWS), np.uint64))


def _philox_block(counter: int, seed: int, stream_ids: np.ndarray,
                  scratch: tuple | None = None) -> tuple:
    """Philox-4x64-10 block of counter ``(counter, 0, 0, 0)`` under each key
    ``(seed, stream_id)``; returns the four words as uint64 arrays.

    ``scratch`` is :func:`_scratch` of at least ``len(stream_ids)`` columns,
    reused across calls; the words returned are views into it.
    """
    n = len(stream_ids)
    a, b, hi, lo, t, u, key = (s[:, :n] for s in scratch or _scratch(n))
    # Round 1 in closed form: M1 * x2 = 0, so [x0; x2] <- [k0; hi(M0 c) ^ k1]
    # and [x1; x3] <- [0; lo(M0 c)].
    p = _M0 * int(counter)
    key[0] = seed
    key[1] = stream_ids
    a[0] = seed
    np.bitwise_xor(stream_ids, _U64(p >> 64), out=a[1])
    b[0] = 0
    b[1] = p & _MASK64
    for _ in range(9):
        np.add(key, _W, out=key)
        _mulhilo(a, hi, lo, t, u)
        # [x0; x2] <- [hi1 ^ x1; hi0 ^ x3] ^ key, [x1; x3] <- [lo1; lo0]
        np.bitwise_xor(hi[::-1], b, out=a)
        np.bitwise_xor(a, key, out=a)
        b, lo = lo[::-1], b
    return a[0], b[0], a[1], b[1]


def _per_row_is_faster(reps: int, n_blocks: int) -> bool:
    """Dispatch rule of :func:`raw_words`: True where the per-row numpy
    Philox path beats the path vectorised over rows.

    Measured on a 2-vCPU x86-64 (AVX-512) VM with numpy 2.4: the per-row
    path costs ~2 us a row (rekeying its one generator; its words cost
    ~0.02 us a block), the vectorised one ~90 us a block plus ~0.09 us per
    row and block; the rule counts in units of 0.01 us.  So one-block and
    two-block tall ensembles stay vectorised, and rows win from ~3 blocks
    at 100 rows, ~14 at 1000 and ~26 at 10 000 (measured crossovers: 2-3,
    10-14 and 30-32 blocks; on either side of them the two paths differ
    by less than 10%).
    """
    return 200 * reps < n_blocks * (9_000 + 7 * reps)


def raw_words(stream: RngStream, reps: int, n_words: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """First ``n_words`` raw 64-bit words of ``reps`` consecutive streams.

    With ``out``, a flat uint64 array of at least ``reps * 4 *
    ceil(n_words / 4)`` elements, the words are written to its start and
    the (reps, n_words) result is a view into it.
    """
    n_blocks = -(-n_words // 4)
    if out is None:
        out = np.empty(reps * 4 * n_blocks, dtype=np.uint64)
    words = out[:reps * 4 * n_blocks].reshape(reps, 4 * n_blocks)
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
        scratch = _kept_scratch()
        for r0 in range(0, reps, CHUNK_ROWS):
            rows = words[r0:r0 + CHUNK_ROWS]
            sids = np.add(_ROW_OFFSETS[:len(rows)], _U64((stream.stream_id + r0) & _MASK64),
                          out=kept_array(_kept, "sids", (len(rows),), np.uint64))
            for j in range(n_blocks):
                block = _philox_block(j, stream.seed, sids, scratch)
                for k, w in enumerate(block):
                    rows[:, 4 * j + k] = w
    return words[:, :n_words]


#: Pairs per Box-Muller slab: each of the slab's six float64 temporaries
#: takes 256 KB, so the slab stays in L2 cache.
_SLAB_PAIRS = 1 << 15

#: Bits of the angle word that pick one of the table's cells, and the
#: shift and mask that split the word into the cell and the rest of the turn.
_CELL_BITS = 10
_CELL_SHIFT = _U64(64 - _CELL_BITS)
_CELL_REST = _U64((1 << (64 - _CELL_BITS)) - 1)


def _turn_table(cells: int) -> tuple:
    """Cosine and sine of the turns ``k / cells``, k = 0 .. cells - 1, as
    float64 arrays, each within 1.1e-16 (half an ulp of 1) of the exact
    value for 1024 cells, measured against long double.

    The angle 2 pi k / cells is a head ``k hi``, exact in double for
    ``cells`` <= 1024 (``hi`` keeps 43 bits), plus a tail ``k lo`` below
    1e-12 that carries the rest of 2 pi, ``2.449...e-16`` included; libm's
    cos and sin of the head are turned by the tail to first order.  Built
    from ``math`` alone: numpy's long-double functions would do as well,
    but they cost 0.4 MB of resident memory on import.
    """
    step = 2.0 * math.pi / cells
    hi = math.ldexp(math.floor(math.ldexp(step, 50)), -50)
    lo = (step - hi) + 2.4492935982947064e-16 / cells
    cos, sin = np.empty(cells), np.empty(cells)
    for k in range(cells):
        c, s, tail = math.cos(k * hi), math.sin(k * hi), k * lo
        cos[k] = c - s * tail
        sin[k] = s + c * tail
    return cos, sin


_COS_TABLE, _SIN_TABLE = _turn_table(1 << _CELL_BITS)


def _box_muller_slab(words: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """:func:`_gaussian_pairs` of one slab; ``scratch`` is float64 of shape
    (6, >= the slab's pairs)."""
    shape = (words.shape[0], words.shape[1] // 2)
    t, ca, sa, b, z, p = (row[:math.prod(shape)].reshape(shape) for row in scratch)
    ib = t.view(np.uint64)
    r = out[:, 0::2]
    np.right_shift(words[:, 0::2], _SH11, out=ib)
    np.add(ib, _U64(1), out=ib)
    np.multiply(ib, _INV53, out=r)          # u1 in (0, 1]
    np.log(r, out=r)
    np.multiply(r, -0.5, out=r)
    np.sqrt(r, out=r)
    turn = words[:, 1::2]
    cell = np.right_shift(turn, _CELL_SHIFT, out=ib).view(np.int64)
    # mode="raise" would make take buffer its out
    np.take(_COS_TABLE, cell, out=ca, mode="clip")
    np.take(_SIN_TABLE, cell, out=sa, mode="clip")
    np.bitwise_and(turn, _CELL_REST, out=ib)
    np.right_shift(ib, _SH11, out=ib)
    np.multiply(ib, _INV53 * 2.0 * np.pi, out=b)    # b in [0, 2 pi / 1024)
    np.multiply(b, b, out=z)
    # sin b = b - b^3/6 + b^5/120 - b^7/5040
    np.multiply(z, -1.0 / 5040.0, out=p)
    np.add(p, 1.0 / 120.0, out=p)
    np.multiply(p, z, out=p)
    np.add(p, -1.0 / 6.0, out=p)
    np.multiply(p, z, out=p)
    np.multiply(p, b, out=p)
    np.add(b, p, out=b)
    # cos b - 1 = -b^2/2 + b^4/24 - b^6/720
    np.multiply(z, -1.0 / 720.0, out=p)
    np.add(p, 1.0 / 24.0, out=p)
    np.multiply(p, z, out=p)
    np.add(p, -0.5, out=p)
    np.multiply(p, z, out=p)
    # cos = ca + (ca (cos b - 1) - sa sin b), sin = sa + (sa (cos b - 1) + ca sin b)
    np.multiply(ca, p, out=z)
    np.multiply(sa, b, out=t)
    np.subtract(z, t, out=z)
    np.add(z, ca, out=z)
    np.multiply(sa, p, out=t)
    np.multiply(ca, b, out=p)
    np.add(t, p, out=t)
    np.add(t, sa, out=t)
    np.multiply(r, t, out=out[:, 1::2])
    np.multiply(r, z, out=r)


def _gaussian_pairs(words: np.ndarray, out: np.ndarray, kept=None) -> None:
    """Box-Muller transform of an even number of word columns into the
    float64 array ``out`` of the same shape, scaled by 1/2: Gaussians of
    variance 1/4.  It runs in slabs of at most :data:`_SLAB_PAIRS` pairs,
    whose scratch is the buffer ``"slab"`` of ``kept`` (see
    :func:`kept_array`)."""
    rows, cols = out.shape
    pairs = cols // 2
    slab_rows = max(1, _SLAB_PAIRS // pairs)
    slab_cols = 2 * min(pairs, _SLAB_PAIRS)
    scratch = kept_array(kept, "slab", (6, min(rows, slab_rows) * slab_cols // 2), np.float64)
    for r0 in range(0, rows, slab_rows):
        for c0 in range(0, cols, slab_cols):
            _box_muller_slab(words[r0:r0 + slab_rows, c0:c0 + slab_cols],
                             out[r0:r0 + slab_rows, c0:c0 + slab_cols], scratch)


def sample_vacuum(rng: RngStream, reps: int, modes: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Sample independent vacuum fields, one stream per repetition.

    Returns the C-contiguous (reps, modes) complex128 array of amplitudes;
    each is a circular complex Gaussian with <E E*> = 1/2 and <E E> = 0, and
    distinct modes and repetitions are uncorrelated.  The result depends
    only on ``rng`` and the shape.  With ``out``, an array of that shape,
    dtype and layout, the amplitudes are written there and ``out`` is
    returned.
    """
    if reps < 1 or modes < 1:
        raise ValueError("reps and modes must both be >= 1")
    if out is None:
        out = np.empty((reps, modes), dtype=np.complex128)
    elif (out.shape != (reps, modes) or out.dtype != np.complex128
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous ({reps}, {modes}) complex128 "
                         f"array, got {out.dtype} {out.shape}")
    pairs = out.view(np.float64)  # re, im interleaved per mode
    n_blocks = -(-modes // 2)
    if _per_row_is_faster(reps, n_blocks):
        _gaussian_pairs(raw_words(rng, reps, 2 * modes), pairs)
        return out
    for p0 in range(0, reps, CHUNK_ROWS):
        n = min(CHUNK_ROWS, reps - p0)
        words = raw_words(RngStream(rng.seed, rng.stream_id + p0), n, 2 * modes,
                          out=kept_array(_kept, "words", (n * 4 * n_blocks,), np.uint64))
        _gaussian_pairs(words, pairs[p0:p0 + n], _kept)
    return out
