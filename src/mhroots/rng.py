"""Deterministic random streams addressed by sample index.

Uniforms (``uniforms``; they feed the shape corpora) address
each draw by a global counter g = sample_index * draws_per_sample +
draw_index, hashed through a keyed splitmix64-style finalizer.

Normals (``normals``; they feed every Monte Carlo estimator) come from
numpy's Philox counter generator (Salmon et al., SC'11) with its ziggurat
``standard_normal`` (Marsaglia & Tsang, JSS 2000).  The sample range is cut
into blocks of SAMPLE_BLOCK rows; block b is drawn, row after row, from
Philox keyed by (seed, b) (each call makes one generator and re-keys it per
block).  So any range of rows is a pure function of
(seed, row, count), whatever partition of the range over workers or
batches produced it.  SAMPLE_BLOCK is part of the stream contract, and the
values are pinned to the installed numpy's ziggurat.

``batches`` is the batching policy of the determinant sampler: batches are
whole blocks, sized by an element budget so that peak memory stays flat in
the per-sample draw count.  ``normal_pieces`` hands a range's normals over
in pieces of a smaller budget, which holds even where one block exceeds the
batch budget; the root-counting sampler takes its draws from it directly.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1

# Stream contract: rows per Philox key.  Changing it changes every normal.
SAMPLE_BLOCK = 1024
# Batching policy: draws per batch, and samples per batch at most.
BATCH_ELEMENTS = 1 << 22
MAX_BATCH = 1 << 16
# Draws held at once by one piece of a batch (2 MB).  Pieces far below the
# batch budget keep the allocator from holding two batch-sized buffers.  At
# 4 MB, a small block that numpy keeps for reuse could land on the C heap
# above a freed piece and stop the heap from shrinking, so the estimator's
# peak memory moved by 4 MB with the heap's layout.  A DET_CHUNK of n = 7
# samples (4096 x 42 draws) still fits in one piece.
PIECE_ELEMENTS = 1 << 18


def _mix(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    x = x ^ (x >> np.uint64(31))
    return x


def _hash_counters(seed: int, counters: np.ndarray) -> np.ndarray:
    key = np.uint64(int(seed) & _MASK64)
    state = _mix((counters + np.uint64(1)) * _GOLDEN) ^ key
    return _mix(state)


def uniforms(seed: int, first_sample: int, n_samples: int, draws: int) -> np.ndarray:
    """(n_samples, draws) doubles in (0, 1], a pure function of (seed, indices)."""
    idx = np.uint64(first_sample) + np.arange(n_samples, dtype=np.uint64)
    g = idx[:, None] * np.uint64(draws) + np.arange(draws, dtype=np.uint64)[None, :]
    bits = _hash_counters(seed, g)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def _piece_rows(count: int) -> int:
    """Rows of ``count`` draws that fit PIECE_ELEMENTS, at least one."""
    return max(1, PIECE_ELEMENTS // max(count, 1))


def _generator() -> np.random.Generator:
    """A Philox generator for ``_start_block`` to key.  Seeded with 0, so
    that making it reads no OS entropy: each block sets key and counter."""
    return np.random.Generator(np.random.Philox(0))


def _start_block(
    gen: np.random.Generator, seed64: int, block: int, skip: int, count: int
) -> np.random.Generator:
    """Re-key ``gen`` to block ``block``'s stream, advanced past its first
    ``skip`` rows.

    The stream is that of Philox(key=seed64 | block << 64): key words
    [seed64, block], counter 0 and an empty buffer.  Ziggurat rejection gives
    no skip-ahead, so the skipped rows are drawn and dropped, PIECE_ELEMENTS
    draws at a time.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed64, block], np.uint64)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    step = _piece_rows(count)
    for done in range(0, skip, step):
        gen.standard_normal((min(step, skip - done), count))
    return gen


def normals(seed: int, first_sample: int, n_samples: int, count: int) -> np.ndarray:
    """(n_samples, count) standard normals for sample rows first_sample onward.

    Row r is row r % SAMPLE_BLOCK of its block's stream.  Each block's rows
    are drawn straight into the result; a partial first block is drawn from
    the block's start and the rows before ``first_sample`` are dropped.
    """
    out = np.empty((n_samples, count), dtype=np.float64)
    if count == 0:
        return out
    seed64 = int(seed) & _MASK64
    gen = _generator()
    row = int(first_sample)
    end = row + n_samples
    pos = 0
    while row < end:
        block, offset = divmod(row, SAMPLE_BLOCK)
        take = min(SAMPLE_BLOCK - offset, end - row)
        _start_block(gen, seed64, block, offset, count).standard_normal(out=out[pos : pos + take])
        row += take
        pos += take
    return out


def normal_pieces(
    seed: int, first_sample: int, n_samples: int, count: int, rows: int | None = None
) -> Iterator[np.ndarray]:
    """Yield the rows of ``normals(seed, first_sample, n_samples, count)`` in
    order, in pieces of at most ``rows`` rows and PIECE_ELEMENTS draws.

    Where a block fits that budget, a piece is a run of whole blocks (its
    first block may start at ``first_sample``) drawn by ``normals``, and
    ``rows`` is rounded down to whole blocks.  Where one block exceeds it,
    each block is drawn in pieces from one generator: successive draws
    continue its stream, so no block is drawn twice.
    """
    budget = _piece_rows(count)
    rows = budget if rows is None else min(rows, budget)
    row = int(first_sample)
    end = row + n_samples
    if rows >= SAMPLE_BLOCK:
        rows -= rows % SAMPLE_BLOCK
        while row < end:
            stop = min(end, row - row % SAMPLE_BLOCK + rows)
            yield normals(seed, row, stop - row, count)
            row = stop
        return
    seed64 = int(seed) & _MASK64
    gen = _generator()
    while row < end:
        block, offset = divmod(row, SAMPLE_BLOCK)
        stop = min(end, (block + 1) * SAMPLE_BLOCK)
        _start_block(gen, seed64, block, offset, count)
        for first in range(row, stop, rows):
            piece = np.empty((min(rows, stop - first), count), dtype=np.float64)
            gen.standard_normal(out=piece)
            yield piece
        row = stop


def batch_size(count: int) -> int:
    """Samples per batch for samples of ``count`` draws each.

    At most MAX_BATCH samples and about BATCH_ELEMENTS draws, a whole number
    of blocks, and never less than one block.  ``normal_pieces`` holds a
    batch's normals within PIECE_ELEMENTS at a time, even where one block
    exceeds this budget.
    """
    size = min(MAX_BATCH, max(SAMPLE_BLOCK, BATCH_ELEMENTS // max(count, 1)))
    return size - size % SAMPLE_BLOCK


def batches(samples: int, count: int) -> list[tuple[int, int]]:
    """(first sample, sample count) of each batch covering ``samples`` samples."""
    size = batch_size(count)
    return [(start, min(size, samples - start)) for start in range(0, samples, size)]
