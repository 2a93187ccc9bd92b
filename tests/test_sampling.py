import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spdcsim import sampling
from spdcsim.sampling import ORDERING, RngStream, raw_words, sample_vacuum
from spdcsim.sampling import _SUB_ROWS, _per_row_is_faster, _philox_block, _scratch


def test_ordering_constants_exact():
    assert ORDERING.intensity_offset == 0.5
    assert ORDERING.variance_offset == 0.25


@pytest.mark.parametrize("counter,seed,sid", [
    (0, 0, 0), (1, 0, 0), (0, 42, 0), (3, 42, 7), (1234, 98765, 43210),
])
def test_philox_block_matches_numpy(counter, seed, sid):
    # numpy's Philox increments the counter before emitting its first block,
    # so its block for counter c equals ours for counter c + 1.
    bg = np.random.Philox(counter=[counter, 0, 0, 0],
                          key=[np.uint64(seed), np.uint64(sid)])
    ref = bg.random_raw(8)
    sids = np.array([sid], dtype=np.uint64)
    mine = []
    with np.errstate(over="ignore"):
        for c in (counter + 1, counter + 2):
            mine.extend(w[0] for w in _philox_block(c, seed, sids))
    assert np.array_equal(ref, np.array(mine, dtype=np.uint64))


def test_raw_words_follow_block_layout():
    stream = RngStream(42, 5)
    words = raw_words(stream, 3, 8)
    sids = np.array([5, 6, 7], dtype=np.uint64)
    with np.errstate(over="ignore"):
        blk0 = _philox_block(0, 42, sids)
        blk1 = _philox_block(1, 42, sids)
    expect = np.stack(blk0 + blk1, axis=1)
    assert np.array_equal(words, expect)


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
    # repetition r of the ensemble equals the single-repetition ensemble of
    # the stream derived for index r
    row = sample_vacuum(RngStream(42, 57), 1, 2)
    assert np.array_equal(ens[57], row[0])


def test_rng_stream_contract():
    assert RngStream(7, 0) == RngStream(7, 0)
    first = sample_vacuum(RngStream(7, 0), 1, 1)[0, 0]
    other = sample_vacuum(RngStream(7, 1), 1, 1)[0, 0]
    different_seed = sample_vacuum(RngStream(8, 3), 1, 1)[0, 0]
    same_idx = sample_vacuum(RngStream(7, 3), 1, 1)[0, 0]
    assert first != other
    assert same_idx != different_seed


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        sample_vacuum(RngStream(1, 0), 0, 1)
    with pytest.raises(ValueError):
        sample_vacuum(RngStream(1, 0), 1, 0)


def test_stream_ids_wrap_to_uint64():
    s = RngStream(seed=-1, stream_id=2 ** 64 + 5)
    assert s.seed == 2 ** 64 - 1
    assert s.stream_id == 5


def test_samples_finite():
    ens = sample_vacuum(RngStream(123, 0), 50_000, 4)
    assert np.all(np.isfinite(ens.view(np.float64)))


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


# Recorded with the row-vectorised Philox and the original Box-Muller,
# before the per-row path existed; any change to the words or the Gaussians
# drawn from them shows here.
@pytest.mark.parametrize("draw,digest", [
    (lambda: raw_words(RngStream(42, 0), 16, 4096),  # wide: per-row path
     "641f3014536a566344c392f07df3d7eadc44f8d1a8e6fb571d79a06f0a1d5d25"),
    (lambda: raw_words(RngStream(42, 5), 4096, 8),  # tall: vectorised path
     "2bc14acd1c695d25973bf703967650e05b6eb42c840b81d5e38575ed1d86476f"),
    (lambda: raw_words(RngStream(2 ** 64 - 1, 2 ** 64 - 7), 12, 1001),
     "385fc0d5eb9a70c8953f32c435f14a0e9a56f45e41552abb382b78b700af238f"),
    (lambda: sample_vacuum(RngStream(42, 0), 1000, 3),
     "f36049557a86328ec0b7ed86ca7404b95d8e925c09ea62068b01c3b8288f6bd3"),
    (lambda: sample_vacuum(RngStream(7, 2 ** 64 - 3), 4, 1001),
     "cc8e69919675f9966c90e1e77528caf6f96016e8bc6a5d5573bf43371ec267c4"),
], ids=["raw-wide", "raw-tall", "raw-wrapping", "vacuum-tall", "vacuum-wide"])
def test_fixed_seed_output_is_pinned(draw, digest):
    assert _sha256(draw()) == digest


def test_dispatch_keeps_tall_ensembles_vectorised():
    # the pipelines hand sample_vacuum at most 65536 rows at a time
    assert not _per_row_is_faster(1 << 16, 1)   # twin: one block per row
    assert not _per_row_is_faster(1 << 16, 2)   # fourfold: two blocks
    assert _per_row_is_faster(100, 4096)        # hom2d image planes
    assert _per_row_is_faster(1, 1)


def _both_paths(monkeypatch, stream, reps, n_words):
    with monkeypatch.context() as m:
        m.setattr(sampling, "_per_row_is_faster", lambda reps, n_blocks: True)
        rows = raw_words(stream, reps, n_words)
    with monkeypatch.context() as m:
        m.setattr(sampling, "_per_row_is_faster", lambda reps, n_blocks: False)
        vectorised = raw_words(stream, reps, n_words)
    return rows, vectorised


@pytest.mark.parametrize("reps,n_words", [
    (100, 4 * 5), (100, 4 * 6), (100, 4 * 4), (1000, 4 * 36), (1000, 4 * 38),
    (3, 7), (1, 1), (7, 4 * 64 + 3),
])
def test_per_row_and_vectorised_paths_agree(monkeypatch, reps, n_words):
    stream = RngStream(42, 11)
    rows, vectorised = _both_paths(monkeypatch, stream, reps, n_words)
    assert rows.shape == vectorised.shape == (reps, n_words)
    assert np.array_equal(rows, vectorised)
    assert np.array_equal(raw_words(stream, reps, n_words), rows)


@pytest.mark.parametrize("seed,stream_id", [
    (42, 2 ** 64 - 3),          # stream ids wrap past 2**64 - 1 within the call
    (2 ** 63, 0),               # seeds that do not fit a signed 64-bit int
    (2 ** 64 - 1, 2 ** 63 + 5),
    (2 ** 63 + 12345, 2 ** 64 - 1),
])
def test_paths_agree_on_large_seeds_and_wrapping_stream_ids(monkeypatch, seed,
                                                             stream_id):
    stream = RngStream(seed, stream_id)
    rows, vectorised = _both_paths(monkeypatch, stream, 6, 4 * 9)
    assert np.array_equal(rows, vectorised)
    # row r belongs to the stream id stream_id + r modulo 2**64
    wrapped = RngStream(seed, (stream_id + 4) % 2 ** 64)
    assert np.array_equal(rows[4], raw_words(wrapped, 1, 4 * 9)[0])


@pytest.mark.parametrize("stream_id,n_words", [
    (11, 4), (11, 4 * 2 + 1),
    (2 ** 64 - _SUB_ROWS - 2, 4),  # the ids wrap inside the second sub-block
])
def test_paths_agree_across_sub_blocks(monkeypatch, stream_id, n_words):
    reps = 2 * _SUB_ROWS + 5
    rows, vectorised = _both_paths(monkeypatch, RngStream(42, stream_id), reps, n_words)
    assert np.array_equal(rows, vectorised)


@pytest.mark.parametrize("n_words", [4, 4 * 2 + 1])
def test_row_range_of_a_call_is_the_call_from_its_first_row(n_words):
    # rows [a, b) start and end inside sub-blocks of the longer call
    stream = RngStream(42, 3)
    words = raw_words(stream, 3 * _SUB_ROWS, n_words)
    a, b = _SUB_ROWS + 100, 2 * _SUB_ROWS + 300
    part = raw_words(RngStream(42, 3 + a), b - a, n_words)
    assert not _per_row_is_faster(b - a, -(-n_words // 4))
    assert np.array_equal(words[a:b], part)


def test_philox_block_reusing_wider_scratch_matches_numpy():
    scratch = _scratch(64)
    sids = np.array([0, 7, 2 ** 64 - 1], dtype=np.uint64)
    seed = 2 ** 63 + 99
    mine = [[] for _ in sids]
    for c in (1, 2, 3):
        for w in _philox_block(c, seed, sids, scratch):
            for r, word in enumerate(w):
                mine[r].append(word)
    for r, sid in enumerate(sids):
        bg = np.random.Philox(counter=[0, 0, 0, 0], key=[np.uint64(seed), sid])
        assert np.array_equal(bg.random_raw(12), np.array(mine[r], dtype=np.uint64))


def _one_draw(stream, reps, modes):
    """sample_vacuum as one raw_words draw and one Box-Muller step."""
    out = np.empty((reps, modes), dtype=np.complex128)
    sampling._gaussian_pairs(raw_words(stream, reps, 2 * modes), out.view(np.float64))
    return out


@pytest.mark.parametrize("stream_id,modes", [
    (11, 2),
    (11, 1), (11, 3),                   # 2 and 6 words a row: not whole blocks
    (2 ** 64 - _SUB_ROWS - 2, 2),       # the ids wrap inside the second pass
])
def test_passes_of_a_tall_draw_equal_one_draw(stream_id, modes):
    reps = 2 * _SUB_ROWS + 5
    stream = RngStream(42, stream_id)
    assert not _per_row_is_faster(reps, -(-modes // 2))
    assert np.array_equal(sample_vacuum(stream, reps, modes),
                          _one_draw(stream, reps, modes))


@pytest.mark.parametrize("reps,modes", [(2 * _SUB_ROWS + 5, 2), (3, 40)])  # tall, wide
def test_sample_vacuum_writes_its_out(reps, modes):
    stream = RngStream(42, 5)
    out = np.full((reps, modes), np.nan, dtype=np.complex128)
    assert sample_vacuum(stream, reps, modes, out=out) is out
    assert np.array_equal(out, sample_vacuum(stream, reps, modes))
    for bad in (out[:-1], out.astype(np.complex64), np.asfortranarray(out)):
        with pytest.raises(ValueError, match="out must be"):
            sample_vacuum(stream, reps, modes, out=bad)


def test_threads_drawing_at_once_get_the_serial_draws():
    # each thread keeps its own pass buffers; shapes that need buffers of
    # different sizes are drawn at the same time, switching threads often
    shapes = [(RngStream(3, 0), _SUB_ROWS + 9, 2), (RngStream(4, 0), 5000, 5),
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


@pytest.mark.parametrize("reps,modes", [(_SUB_ROWS, 2), (_SUB_ROWS, 4), (1 << 16, 2)])
def test_repeated_tall_draw_allocates_little_beyond_its_result(reps, modes):
    stream = RngStream(42, 0)
    sample_vacuum(stream, reps, modes)  # the thread's pass buffers now exist
    tracemalloc.start()
    try:
        out = sample_vacuum(stream, reps, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes, (peak, out.nbytes)
