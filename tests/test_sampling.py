import hashlib
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import integer_gaussian_pairs

from spdcsim import sampling
from spdcsim.estimators import CHUNK_ROWS
from spdcsim.sampling import RngStream, raw_words, sample_vacuum


def _key_rows(n_words):
    """Rows of one Philox key: the largest power of two of rows of whole
    four-word blocks that fit in 2**14 words, at least one."""
    row_words = 4 * -(-n_words // 4)
    k = 1
    while 2 * k * row_words <= 1 << 14:
        k *= 2
    return k


def _philox(seed, stream_id):
    """numpy's Philox under the key (seed, stream_id) before counter block
    0: it steps its counter before each block.  The key goes in as uint64,
    since a list holding an int of 2**63 or more would become float64."""
    key = np.array([seed, stream_id % 2 ** 64], dtype=np.uint64)
    return np.random.Philox(key=key, counter=2 ** 256 - 1)


def _numpy_rows(seed, stream_id, reps, n_words):
    """The rows of raw_words as numpy's Philox gives them: rows [b, b + K)
    of a call are one random_raw under the key (seed, stream_id + b), from
    counter block 0."""
    row_words = 4 * -(-n_words // 4)
    k = _key_rows(n_words)
    blocks = []
    for b in range(0, reps, k):
        bit_gen = _philox(seed, stream_id + b)
        n = min(k, reps - b)
        blocks.append(bit_gen.random_raw(n * row_words).reshape(n, row_words))
    return np.concatenate(blocks)[:, :n_words]


def _uniforms(words):
    """numpy's 53-bit uniforms of raw 64-bit words, as Generator.random
    makes them: (w >> 11) 2**-53."""
    return (words >> np.uint64(11)) * 2.0 ** -53


@pytest.mark.parametrize("reps,n_words,key_rows", [
    (5000, 4, 4096),        # twin, hom, fourfold rows: a second, short key block
    (3000, 8, 2048),        # bell rows
    (40, 1024, 16),         # a small hom2d geometry's rows
    (20, 1001, 16),         # rows of 1004 words, 1001 returned
    (3, 16384, 1),          # default hom2d rows: a key each
    (2, 20000, 1),          # rows wider than a key block
    (9, 3, 4096),
])
@pytest.mark.parametrize("seed,stream_id", [
    (42, 5),
    (42, 2 ** 64 - 3),              # stream ids wrap past 2**64 - 1 within the call
    (2 ** 63, 0),                   # seeds that do not fit a signed 64-bit int
    (2 ** 64 - 1, 2 ** 64 - 4096),
])
def test_raw_words_follow_block_layout(reps, n_words, key_rows, seed, stream_id):
    assert _key_rows(n_words) == key_rows
    words = raw_words(RngStream(seed, stream_id), reps, n_words)
    assert words.shape == (reps, n_words)
    assert np.array_equal(words, _uniforms(_numpy_rows(seed, stream_id, reps, n_words)))
    # row r: key block floor(r / K) K, at counter block (r mod K) blocks
    blocks = -(-n_words // 4)
    for r in {0, reps // 2, reps - 1}:
        bit_gen = _philox(seed, stream_id + r - r % key_rows)
        bit_gen.advance((r % key_rows) * blocks)
        assert np.array_equal(words[r], _uniforms(bit_gen.random_raw(4 * blocks)[:n_words])), r


def test_default_hom2d_draw_is_unchanged():
    # a default hom2d row (8192 modes, 16384 words) is a key block of its
    # own, keyed (seed, stream_id + r) as when every row had its own key,
    # so the criterion-8 curves keep their draw
    draw = sample_vacuum(RngStream(42, 0), 100, 8192)
    assert (hashlib.sha256(draw.tobytes()).hexdigest()
            == "1eca5e5121f380eda265d74cd158f6ea02cc9a10619c7c04aaba309626f483aa")


def test_vacuum_first_and_second_moments():
    ens = sample_vacuum(RngStream(42, 0), 1_000_000, 1)
    col = ens[:, 0]
    n = col.size
    intensity = np.abs(col) ** 2
    se_i = intensity.std(ddof=1) / np.sqrt(n)
    assert abs(intensity.mean() - 0.5) < 5 * se_i
    assert se_i == pytest.approx(0.0005, rel=0.1)

    se_mean = 0.5 / np.sqrt(n)
    assert abs(col.real.mean()) < 5 * se_mean
    assert abs(col.imag.mean()) < 5 * se_mean

    se_var = 0.25 * np.sqrt(2.0 / (n - 1))
    assert abs(col.real.var(ddof=1) - 0.25) < 5 * se_var
    assert abs(col.imag.var(ddof=1) - 0.25) < 5 * se_var


def test_vacuum_circularity_and_mode_independence():
    ens = sample_vacuum(RngStream(7, 0), 1_000_000, 2)
    a, b = ens[:, 0], ens[:, 1]
    n = a.size
    pair = a * a
    se = np.sqrt((pair.real.var() + pair.imag.var()) / n)
    assert abs(pair.mean()) < 5 * se

    ia, ib = np.abs(a) ** 2, np.abs(b) ** 2
    prod = (ia - ia.mean()) * (ib - ib.mean())
    assert abs(prod.mean()) < 5 * prod.std(ddof=1) / np.sqrt(n)


def test_vacuum_fourth_moment_factorises():
    ens = sample_vacuum(RngStream(3, 0), 1_000_000, 1)
    i4 = np.abs(ens[:, 0]) ** 4
    se = i4.std(ddof=1) / np.sqrt(i4.size)
    assert abs(i4.mean() - 0.5) < 5 * se


def test_reproducible_and_order_independent():
    a = sample_vacuum(RngStream(42, 0), 10_000, 3)
    b = sample_vacuum(RngStream(42, 0), 10_000, 3)
    assert np.array_equal(a, b)


def test_one_stream_per_repetition():
    ens = sample_vacuum(RngStream(42, 0), 100, 2)
    # a plain C-contiguous array, so its buffer is the whole ensemble
    assert type(ens) is np.ndarray and ens.flags.c_contiguous
    assert ens.shape == (100, 2) and ens.dtype == np.complex128
    # the first rows of a call do not depend on how many rows it draws
    assert np.array_equal(ens[:58], sample_vacuum(RngStream(42, 0), 58, 2))
    # rows as wide as a key block each have their own stream: repetition r
    # equals the single-repetition ensemble of the stream derived for r
    wide = sample_vacuum(RngStream(42, 0), 4, 8192)
    assert np.array_equal(wide[3], sample_vacuum(RngStream(42, 3), 1, 8192)[0])


def test_rng_stream_contract():
    assert RngStream(7, 0) == RngStream(7, 0)
    first = sample_vacuum(RngStream(7, 0), 1, 1)[0, 0]
    other = sample_vacuum(RngStream(7, 1), 1, 1)[0, 0]
    different_seed = sample_vacuum(RngStream(8, 3), 1, 1)[0, 0]
    same_idx = sample_vacuum(RngStream(7, 3), 1, 1)[0, 0]
    assert first != other
    assert same_idx != different_seed
    for seed in (-1, 2 ** 64 + 42, 42.5):  # no seed aliases another, as 42 would
        with pytest.raises(ValueError, match=r"^seed must be in \[0, 2\*\*64\)"):
            RngStream(seed, 0)


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        sample_vacuum(RngStream(1, 0), 0, 1)
    with pytest.raises(ValueError):
        sample_vacuum(RngStream(1, 0), 1, 0)


def test_stream_ids_wrap_to_uint64():
    s = RngStream(seed=42, stream_id=2 ** 64 + 5)
    assert s.stream_id == 5
    assert RngStream(42, np.uint64(7)) == RngStream(42, 7)


def test_a_stream_compares_and_hashes_by_value():
    # seed and stream id are kept as Python ints, so numpy integers name the
    # same stream: equal, with one hash, one key of a set
    a, b = RngStream(42, 7), RngStream(np.uint64(42), np.uint64(7))
    assert a == b and hash(a) == hash(b) and len({a, b, RngStream(42, 7)}) == 1
    assert type(b.seed) is int and type(b.stream_id) is int
    assert a != RngStream(42, 8) and a != RngStream(43, 7)
    assert hash(RngStream(42, 2 ** 64 + 7)) == hash(a)
    assert a._replace(stream_id=2 ** 64 + 8) == RngStream(42, 8)
    with pytest.raises(ValueError, match=r"^seed must be in"):
        a._replace(seed=-1)


@pytest.mark.parametrize("stream_id", [0.5, "7"])
def test_a_stream_id_that_is_not_an_integer_is_rejected(stream_id):
    # int() would truncate 0.5 to stream 0 and parse "7"
    with pytest.raises(ValueError, match=r"^stream_id must be an integer"):
        RngStream(42, stream_id)


def test_samples_finite():
    ens = sample_vacuum(RngStream(123, 0), 50_000, 4)
    assert np.all(np.isfinite(ens.view(np.float64)))


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _raw_pin(seed, stream_id, reps, n_words):
    """numpy's raw Philox words of a call, once raw_words is checked to be
    their 53-bit uniforms bit for bit."""
    reference = _numpy_rows(seed, stream_id, reps, n_words)
    assert np.array_equal(raw_words(RngStream(seed, stream_id), reps, n_words),
                          _uniforms(reference))
    return reference


# Recorded with one numpy Philox key per 2**14-word block of rows and the
# table-and-polynomial Box-Muller (cos and sin of each drawn turn from a
# 1024-cell table plus a short polynomial).  The raw digests hash the
# uint64 words whose uniforms raw_words returns.  Any change to the words
# or to the Gaussians drawn from them shows here.
@pytest.mark.parametrize("draw,digest", [
    (lambda: _raw_pin(42, 0, 16, 4096),  # four rows a key
     "9910e707ec624d4404a32041aa6c9568b91612b39a54963bf2442239d32fe757"),
    (lambda: _raw_pin(42, 5, 4096, 8),  # two keys of 2048 rows
     "98e92094c29aeadd57c6adb5745ee16f375980c3d000a327f81696902f02a860"),
    (lambda: _raw_pin(2 ** 64 - 1, 2 ** 64 - 7, 12, 1001),
     "83b0235ab5cb0826324d97d1dc023c97ff245ac00ff7434306ca00add4607e4d"),
    (lambda: sample_vacuum(RngStream(42, 0), 1000, 3),
     "d41a50e8eed5099cd7957333c83f952b8c99d560c335c645c5fb8871834fe087"),
    (lambda: sample_vacuum(RngStream(7, 2 ** 64 - 3), 4, 1001),
     "a334ead308278a05e0256fe812a911d18f5cce47ed8ce683801d2c3c3fa6932c"),
], ids=["raw-wide", "raw-tall", "raw-wrapping", "vacuum-tall", "vacuum-wide"])
def test_fixed_seed_output_is_pinned(draw, digest):
    assert _sha256(draw()) == digest


@pytest.mark.parametrize("n_words,key_rows", [(4, 4096), (4 * 2 + 1, 1024)])
def test_row_range_of_a_call_is_the_call_from_its_first_row(n_words, key_rows):
    # rows [a, b) start at a key block inside a chunk and end inside another
    stream = RngStream(42, 3)
    words = raw_words(stream, 3 * CHUNK_ROWS, n_words)
    a, b = CHUNK_ROWS + key_rows, 2 * CHUNK_ROWS + 300
    assert np.array_equal(words[a:b], raw_words(RngStream(42, 3 + a), b - a, n_words))
    # a range that starts inside a key block is not the call from its first row
    assert not np.array_equal(words[a + 1:b],
                              raw_words(RngStream(42, 3 + a + 1), b - a - 1, n_words))


def _one_draw(stream, reps, modes):
    """sample_vacuum as one raw_words draw and one Box-Muller step on the
    whole draw."""
    out = np.empty((reps, modes), dtype=np.complex128)
    sampling._box_muller(raw_words(stream, reps, 2 * modes), out.view(np.float64))
    return out


@pytest.mark.parametrize("stream_id,modes", [
    (11, 2),
    (11, 1), (11, 3),                   # 2 and 6 words a row: not whole blocks
    (2 ** 64 - CHUNK_ROWS - 2, 2),      # the ids wrap inside the second block
])
def test_passes_of_a_tall_draw_equal_one_draw(stream_id, modes):
    reps = 2 * CHUNK_ROWS + 5
    stream = RngStream(42, stream_id)
    # a block at a time, through a namespace's buffers and without one
    expect = _one_draw(stream, reps, modes)
    assert np.array_equal(sample_vacuum(stream, reps, modes, SimpleNamespace()), expect)
    assert np.array_equal(sample_vacuum(stream, reps, modes), expect)


def test_chunks_of_a_wide_draw_equal_one_draw():
    # a wide draw too is drawn a block at a time, and rows wider than a
    # block one row at a time
    stream = RngStream(42, 11)
    for reps, modes in [(CHUNK_ROWS + 3, 40), (3, 40000)]:
        expect = _one_draw(stream, reps, modes)
        assert np.array_equal(sample_vacuum(stream, reps, modes, SimpleNamespace()), expect)
        assert np.array_equal(sample_vacuum(stream, reps, modes), expect)


@pytest.mark.parametrize("reps,modes", [(2 * CHUNK_ROWS + 5, 2), (3, 40)])  # tall, wide
def test_a_draw_through_a_namespace_returns_its_vacuum_buffer(reps, modes):
    stream = RngStream(42, 5)
    kept = SimpleNamespace()
    out = sample_vacuum(stream, reps, modes, kept)
    assert out.base is kept.sampling_vacuum and out.flags.c_contiguous
    assert np.array_equal(out, sample_vacuum(stream, reps, modes))
    # the next draw reuses the buffer, and so does raw_words its words
    assert sample_vacuum(RngStream(42, 6), reps, modes, kept).base is kept.sampling_vacuum
    words = raw_words(stream, reps, 2 * modes, kept)
    assert words.base is kept.sampling_words
    assert np.array_equal(words, raw_words(stream, reps, 2 * modes))


@pytest.mark.parametrize("reps,modes", [(CHUNK_ROWS, 2), (100, 8192), (7, 40000)])
def test_a_warm_namespace_draw_reuses_its_generator(reps, modes):
    # the first draw through a namespace keeps its Philox generator there,
    # and the next rekeys it from a fresh state: the bits of a draw without
    # a namespace, whatever the kept generator drew before
    kept = SimpleNamespace()
    sample_vacuum(RngStream(42, 1), reps, modes, kept)
    gen = kept.sampling_generator
    out = sample_vacuum(RngStream(42, 2), reps, modes, kept)
    assert kept.sampling_generator is gen
    assert np.array_equal(out, sample_vacuum(RngStream(42, 2), reps, modes))
    gen.random(3)  # leaves a word in Philox's buffer
    assert np.array_equal(raw_words(RngStream(7, 9), reps, 3, kept),
                          raw_words(RngStream(7, 9), reps, 3))
    assert kept.sampling_generator is gen


def test_threads_drawing_at_once_get_the_serial_draws():
    # draws without a namespace share no buffer; shapes that need buffers of
    # different sizes are drawn at the same time, switching threads often
    shapes = [(RngStream(3, 0), CHUNK_ROWS + 9, 2), (RngStream(4, 0), 5000, 5),
              (RngStream(5, 0), 3000, 1)]
    serial = [sample_vacuum(*shape) for shape in shapes]
    barrier = threading.Barrier(len(shapes))
    failures = []

    def draw(shape, expect):
        barrier.wait(timeout=60)
        for _ in range(20):
            if not np.array_equal(sample_vacuum(*shape), expect):
                failures.append(shape)

    threads = [threading.Thread(target=draw, args=args) for args in zip(shapes, serial)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures


#: Bytes that a warm draw may allocate: it fills its namespace's buffers in
#: place, and numpy's small per-call objects take 3.5-4.4 KB, while one
#: Philox key block of words, or one Box-Muller scratch row at any of the
#: shapes below, takes 128 KB or more.
_WARM_DRAW_BYTES = 8 * 1024


@pytest.mark.parametrize("reps,modes", [(CHUNK_ROWS, 2), (CHUNK_ROWS, 4), (1 << 16, 2),
                                        (100, 8192)])  # pipeline chunks, hom2d's draw
def test_a_warm_namespace_draw_allocates_no_buffer(reps, modes):
    stream = RngStream(42, 0)
    kept = SimpleNamespace()
    sample_vacuum(stream, reps, modes, kept)  # the namespace's buffers now exist
    tracemalloc.start()
    try:
        sample_vacuum(stream, reps, modes, kept)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _WARM_DRAW_BYTES, peak


@pytest.mark.parametrize("reps,modes", [(2 * CHUNK_ROWS + 5, 2), (100, 8192)])  # tall, wide
def test_a_draw_without_a_namespace_keeps_nothing_but_its_result(reps, modes):
    sample_vacuum(RngStream(42, 0), 1, 1)  # numpy's lazy set-up
    for _ in range(2):
        tracemalloc.start()
        try:
            out = sample_vacuum(RngStream(42, 0), reps, modes)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        blocks = [trace.size for trace in snapshot.traces]
        assert [b for b in blocks if b >= 1024] == [out.nbytes], blocks
    # beside it, only numpy's own small caches, filled by the first draw of
    # the shape, which hold a few hundred bytes that vary with the process
    assert sum(blocks) - out.nbytes < 2048, blocks


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="needs a long double wider than double")
def test_box_muller_is_within_rounding_of_the_exact_transform():
    # 2**20 drawn pairs, and angle words at 0, 2**64 - 1, every table cell's
    # first turn and the last turn before it, each with a drawn radius word
    words = _numpy_rows(42, 0, 1 << 20, 2)
    cells = np.arange(1024, dtype=np.uint64) << np.uint64(54)
    edges = np.concatenate([np.array([0, 2 ** 64 - 1], dtype=np.uint64),
                            cells, cells - np.uint64(2048)])
    words = np.concatenate([words, np.stack([words[:len(edges), 0], edges], axis=1)])
    out = np.empty(words.shape)
    sampling._box_muller(_uniforms(words), out)

    bits = (words >> np.uint64(11)).astype(np.longdouble)
    radius = 0.5 * np.sqrt(-2 * np.log((bits[:, 0] + 1) * np.longdouble(2) ** -53))
    turn = bits[:, 1] * np.longdouble(2) ** -53 * (8 * np.arctan(np.longdouble(1)))
    exact = np.stack([radius * np.cos(turn), radius * np.sin(turn)], axis=1)
    assert np.all(np.abs(out - exact) <= 6e-16 * radius[:, None])

    # the double-precision formula the fixed-seed pins were first recorded with
    u1 = ((words[:, 0] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    r = np.sqrt(-0.5 * np.log(u1))
    angle = (words[:, 1] >> np.uint64(11)) * (2.0 ** -53 * 2.0 * np.pi)
    libm = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)
    assert np.max(np.abs(out - libm)) <= 2e-15


def _edge_pairs():
    """2**20 drawn word pairs, then the edge words each as the angle word and
    as the radius word of a drawn pair: 0, 2**64 - 1, 2047 and 2048 (either
    side of the first nonzero uniform), (2**53 - 1) << 11 (u1 = 1, radius
    0), and each table cell's first turn k << 54 and the last turn before
    it, (k << 54) - 2048; drawn pairs pad the rows to a multiple of 8192."""
    drawn = _numpy_rows(42, 0, (1 << 20) + 8192, 2)
    cells = np.arange(1024, dtype=np.uint64) << np.uint64(54)
    edges = np.concatenate([np.array([0, 2 ** 64 - 1, 2047, 2048, (2 ** 53 - 1) << 11],
                                     dtype=np.uint64), cells, cells - np.uint64(2048)])
    pad = drawn[1 << 20:]
    words = np.concatenate([drawn[:1 << 20],
                            np.stack([pad[:len(edges), 0], edges], axis=1),
                            np.stack([edges, pad[:len(edges), 1]], axis=1)])
    return np.concatenate([words, pad[len(edges):][:-len(words) % 8192]])


@pytest.mark.parametrize("cols", [2, 16384])  # tall (twin's rows), wide (hom2d's rows)
def test_box_muller_on_uniforms_equals_the_integer_path_bit_for_bit(cols):
    words = _edge_pairs().reshape(-1, cols)
    expect = np.empty(words.shape)
    integer_gaussian_pairs(words, expect)
    out = np.empty(words.shape)
    sampling._box_muller(_uniforms(words), out)
    assert np.array_equal(out.view(np.uint64), expect.view(np.uint64))


def test_kept_array_holds_one_dtype_per_name():
    kept = SimpleNamespace()
    words = sampling.kept_array(kept, "words", (2, 4), np.uint64)
    assert words.dtype == np.uint64
    uniforms = sampling.kept_array(kept, "words", (2, 4), np.float64)
    assert uniforms.dtype == np.float64 and kept.words.dtype == np.float64
    # asked again with the same dtype, the name keeps its buffer
    again = sampling.kept_array(kept, "words", (1, 4), np.float64)
    assert again.dtype == np.float64 and again.base is uniforms.base is kept.words


def test_a_wide_draw_allocates_no_full_size_float_temporaries():
    # hom2d's draw: beside its result, it holds one draw block's words
    # (2**16 of them, 512 KB) and Box-Muller scratch (8 rows of 2**15
    # pairs, 2 MB), whatever the rows asked for
    tracemalloc.start()
    try:
        out = sample_vacuum(RngStream(42, 0), 100, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 4 * 2 ** 20, (peak, out.nbytes)
