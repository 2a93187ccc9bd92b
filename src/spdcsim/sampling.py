"""Seedable vacuum-field sampling from counter-based Philox streams.

The sampler draws complex field amplitudes whose real and imaginary parts
are independent zero-mean Gaussians with variance 1/4, so each vacuum mode
carries a mean intensity <|E|^2> = 1/2 (units of photons per mode).
Expectations of sampled intensities are symmetric-order moments; converting
to normal order requires subtracting 1/2 from intensities and 1/4 from
intensity variances (see :data:`~spdcsim.estimators.INTENSITY_OFFSET` and
:data:`~spdcsim.estimators.VARIANCE_OFFSET`).  Individual normal-ordered
samples may be negative; nothing here clamps them.

Random number generation is fully deterministic and order-independent.
:func:`raw_words` draws the 64-bit words of a call's rows from numpy's own
Philox-4x64-10 bit generator (``numpy.random.Philox``), one key per block
of rows, and returns each word ``w`` as its 53-bit uniform ``(w >> 11)
2**-53`` in [0, 1), which ``numpy.random.Generator.random`` computes from
the raw word in place:

* a row takes ``4 ceil(n_words / 4)`` words, whole Philox blocks, of which
  the first ``n_words`` are returned;
* a key block is the largest power of two of rows whose words fit in
  :data:`_KEY_WORDS` = 2**14; a row of 2**14 words or more is a key block
  of its own;
* rows ``[b, b + K)`` of a call from stream ``(seed, stream_id)``, with
  ``b`` a multiple of the block size ``K``, are the uniforms of one
  ``random_raw`` of ``numpy.random.Philox(key=[seed, stream_id + b])``
  from counter block 0, so row ``b + j`` starts at counter block ``j``
  times the blocks of a row.

Philox is a pure function of (key, counter) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), so rows ``[b, b + n)`` of
a stream ``(seed, s)``, with ``b`` a multiple of ``K``, are the call from
``RngStream(seed, s + b)``: any number of workers can fill key-aligned row
ranges and produce the same ensemble as a serial run.  Twin, hom and
fourfold rows (4 words) take 4096 rows a key and bell rows (8 words)
2048; a default hom2d row (16384 words) is its own key block, ``(seed,
stream_id + r)``.

The uniforms are converted to Gaussians with the Box-Muller transform
(uniform pair ``2t, 2t+1`` gives the cosine/sine pair).  Mode ``m`` of a
repetition uses uniforms ``2m`` and ``2m+1`` as its real and imaginary
quadratures.  The radius uniform ``u`` gives ``u1 = u + 2**-53 = ((w >>
11) + 1) 2**-53`` in (0, 1], exactly, and the radius ``sqrt(-0.5 ln
u1)``, which folds the 1/2 scale of the quadratures into ``0.5 sqrt(-2 ln
u1)`` exactly.  The angle uniform ``u2`` is the turn, reduced exactly:
``1024 u2`` is exact, its integer part (the top 10 bits of ``w``) picks
one of 1024 cells, whose cosine and sine come from a table
(:data:`_COS_TABLE`, :data:`_SIN_TABLE`, correct to half an ulp of 1),
and its fraction (the next 43 bits) times ``2 pi / 1024``, one rounding,
gives the offset ``b`` in [0, 2 pi / 1024) into the cell.  A short Taylor
polynomial gives ``sin b`` and ``cos b - 1``, and one angle addition the
cosine and sine of the whole turn, to within 6e-16 of the radius, with no
call to libm's cos or sin.  These are the bits that the same steps on the
integer words, shifted and masked, give.  Each step is elementwise, so a
word's Gaussians do not depend on the block that transforms them.

:func:`sample_vacuum` has one unit, the draw block (:func:`block_rows`):
the largest power of two of rows whose words fit in :data:`_BLOCK_WORDS`
= 2**16, or one row when a row alone is wider, so whole key blocks.  A
block is one :func:`raw_words` call into a float64 word buffer and one
Box-Muller call into the result's rows, on eight scratch rows of its
pairs (the radius, the table cells as int64 and six temporaries).  So
beside its result a draw holds one block's words (512 KB) and scratch (2
MB, more only for a row wider than a block), whatever the rows asked for.
This module keeps no state between calls: a draw's buffers (its result,
the block's words and the Box-Muller scratch) and its Philox generator
belong to the caller.  Given an attribute namespace ``kept``, a draw
takes them from it and leaves them there for the caller's next draw
(:func:`kept_array`), so a warm draw allocates nothing of the size of its
rows, whatever its shape, and only rekeys its generator; given None,
every array and the generator are new, and all but the result is freed
on return.  A 16384-row pipeline chunk (:mod:`spdcsim.experiments`) is one
block of two-mode rows (twin, hom, fourfold) and two of bell's four, and
hom2d synthesises its repetitions a block at a time; a call runs on the
calling thread.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple

import numpy as np

__all__ = [
    "RngStream",
    "sample_vacuum",
    "LANE_STRIDE",
    "raw_words",
    "kept_array",
    "block_rows",
]

_MASK64 = (1 << 64) - 1
_INV53 = 2.0 ** -53

#: Offset between stream_id blocks reserved for independent vacuum lanes of
#: a single experiment (e.g. amplifier inputs vs. detector-loss vacua).
LANE_STRIDE = 1 << 40

class RngStream(namedtuple("RngStream", "seed stream_id")):
    """Identifier of one deterministic random stream.

    Identical ``(seed, stream_id)`` pairs reproduce bit-identical samples;
    distinct stream ids yield statistically independent streams.  Both are
    integers: a seed in [0, 2**64), so no two alias; stream ids wrap to 64 bits.
    """

    __slots__ = ()

    def __new__(cls, seed: int, stream_id: int):
        if not (isinstance(seed, numbers.Integral) and 0 <= seed <= _MASK64):
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        if not isinstance(stream_id, numbers.Integral):
            raise ValueError(f"stream_id must be an integer, got {stream_id!r}")
        return super().__new__(cls, int(seed), int(stream_id) & _MASK64)

    @classmethod
    def _make(cls, fields):  # so that _replace validates too
        return cls(*fields)


#: Words of one Philox key: a key block is the largest power of two of rows
#: whose words fit in it (one row when a row alone is wider).  A row takes
#: at least four words, so a key block is at most 4096 rows.  A default
#: hom2d row is 2**14 words, so it keeps a key of its own.  Measured per
#: 16384-row draw of two modes, :func:`sample_vacuum` takes about as long
#: with one key per draw, and 5% longer with 2**12 words a key.
_KEY_WORDS = 1 << 14

#: Words of one draw block, the unit of :func:`sample_vacuum` (see the
#: module docstring): 512 KB of words, and eight Box-Muller scratch rows of
#: 256 KB, each of which stays in L2 cache.
_BLOCK_WORDS = 1 << 16


def kept_array(kept, name: str, shape, dtype=np.complex128) -> np.ndarray:
    """A C-contiguous ``dtype`` array of ``shape`` over the start of the
    flat buffer ``name`` of ``kept``, created anew when that is smaller or
    of another dtype, so that the next call asking for it reuses its pages.

    ``kept`` is an attribute namespace, such as a ``SimpleNamespace``,
    that one thread at a time uses; None gives a new array.  Each name
    starts with its module's, so that modules sharing ``kept`` never clash.
    """
    if kept is None:
        return np.empty(shape, dtype=dtype)
    size = math.prod(shape)
    buf = getattr(kept, name, None)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = np.empty(size, dtype=dtype)
        setattr(kept, name, buf)
    return buf[:size].reshape(shape)


def _row_words(n_words: int) -> int:
    """Words a row of ``n_words`` takes: whole four-word Philox blocks."""
    return 4 * -(-n_words // 4)


def _rows_within(words: int, n_words: int) -> int:
    """The largest power of two of rows of ``n_words`` in ``words``, at least one."""
    return 1 << max(0, (words // _row_words(n_words)).bit_length() - 1)


def block_rows(modes: int) -> int:
    """Rows of ``modes`` modes in one draw block of :func:`sample_vacuum`:
    whole Philox key blocks, so a draw that starts at a multiple of it
    holds the rows of one whole draw (see the module docstring)."""
    return _rows_within(_BLOCK_WORDS, 2 * modes)


@functools.cache
def _fresh_state() -> dict:
    """A new ``numpy.random.Philox``'s state, empty buffer and all, made on
    first use: numpy imports ``numpy.random`` only then."""
    return np.random.Philox(0).state


def raw_words(stream: RngStream, reps: int, n_words: int, kept=None) -> np.ndarray:
    """The 53-bit uniforms ``(w >> 11) 2**-53`` of the first ``n_words`` raw
    64-bit words ``w`` of each of ``reps`` rows, one ``numpy.random.Philox``
    key per block of rows (see the module docstring).

    The rows, ``4 ceil(n_words / 4)`` words each, are drawn as float64 into
    the buffer ``"sampling_words"`` of ``kept`` (see :func:`kept_array`),
    and the (reps, n_words) result is a view into it.  Its Philox
    ``numpy.random.Generator`` is ``kept.sampling_generator``, rekeyed per
    key block; with None it is new.
    """
    row_words = _row_words(n_words)
    key_rows = _rows_within(_KEY_WORDS, n_words)
    words = kept_array(kept, "sampling_words", (reps, row_words), np.float64)
    gen = getattr(kept, "sampling_generator", None)
    if gen is None:
        # seeded, since a seed left to OS entropy would be drawn, then rekeyed
        gen = np.random.Generator(np.random.Philox(0))
        if kept is not None:
            kept.sampling_generator = gen
    # numpy's Philox steps its counter before each block, so starting it at
    # 2**256 - 1 makes its first block counter 0.  Each key block sets the
    # whole fresh state, so no word depends on what the generator drew
    # before.  Generator.random turns each word w into (w >> 11) 2**-53
    # (numpy's philox_next_double) in place.
    state = dict(_fresh_state())
    counter = np.full(4, _MASK64, dtype=np.uint64)
    for r0 in range(0, reps, key_rows):
        key = np.array([stream.seed, (stream.stream_id + r0) & _MASK64], dtype=np.uint64)
        state["state"] = {"counter": counter, "key": key}
        gen.bit_generator.state = state
        gen.random(out=words[r0:r0 + key_rows])
    return words[:, :n_words]


#: Cells of the table of turns: the angle uniform times this, exact, has
#: the cell as its integer part and the offset into it as the rest.
_CELLS = 1 << 10


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
    cos, sin = [], []
    for k in range(cells):
        c, s, tail = math.cos(k * hi), math.sin(k * hi), k * lo
        cos.append(c - s * tail)
        sin.append(s + c * tail)
    return np.array(cos), np.array(sin)


_COS_TABLE, _SIN_TABLE = _turn_table(_CELLS)


def _box_muller(u: np.ndarray, out: np.ndarray, kept=None) -> None:
    """Box-Muller transform of an even number of columns of 53-bit uniforms
    (:func:`raw_words`) into the float64 array ``out`` of the same shape,
    scaled by 1/2: Gaussians of variance 1/4.  Its scratch is the buffer
    ``"sampling_box_muller"`` of ``kept`` (see :func:`kept_array`), eight
    rows of the pairs: six temporaries, the radius, which runs its log and
    sqrt on a contiguous row, and the table cells, as int64."""
    shape = (u.shape[0], u.shape[1] // 2)
    t, ca, sa, b, z, p, r, cell = kept_array(kept, "sampling_box_muller", (8, *shape), np.float64)
    cell = cell.view(np.int64)
    np.add(u[:, 0::2], _INV53, out=r)       # u1 in (0, 1], exact
    np.log(r, out=r)
    np.multiply(r, -0.5, out=r)
    np.sqrt(r, out=r)
    np.multiply(u[:, 1::2], _CELLS, out=b)  # the turn in cells, exact
    np.floor(b, out=t)
    np.subtract(b, t, out=b)                # offset into the cell, exact
    np.copyto(cell, t, casting="unsafe")
    # mode="raise" would make take buffer its out
    np.take(_COS_TABLE, cell, out=ca, mode="clip")
    np.take(_SIN_TABLE, cell, out=sa, mode="clip")
    np.multiply(b, 2.0 * np.pi / _CELLS, out=b)     # b in [0, 2 pi / 1024)
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
    np.multiply(r, z, out=out[:, 0::2])


def sample_vacuum(rng: RngStream, reps: int, modes: int, kept=None) -> np.ndarray:
    """Sample independent vacuum fields, rows keyed as in :func:`raw_words`.

    Returns the C-contiguous (reps, modes) complex128 array of amplitudes;
    each is a circular complex Gaussian with <E E*> = 1/2 and <E E> = 0, and
    distinct modes and repetitions are uncorrelated.  The result depends
    only on ``rng`` and the shape.  It is the buffer ``"sampling_vacuum"``
    of ``kept``, drawn a block at a time (:func:`block_rows`) through its
    buffers ``"sampling_words"`` and ``"sampling_box_muller"`` (see
    :func:`kept_array`); with None it is a new array.
    """
    if reps < 1 or modes < 1:
        raise ValueError("reps and modes must both be >= 1")
    out = kept_array(kept, "sampling_vacuum", (reps, modes))
    pairs = out.view(np.float64)  # re, im interleaved per mode
    block = block_rows(modes)
    for b0 in range(0, reps, block):
        words = raw_words(RngStream(rng.seed, rng.stream_id + b0), min(block, reps - b0),
                          2 * modes, kept)
        _box_muller(words, pairs[b0:b0 + block], kept)
    return out
