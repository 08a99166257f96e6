"""Deterministic random streams addressed by sample index.

Uniforms (``uniforms``; they feed the shape corpora) address
each draw by a global counter g = sample_index * draws_per_sample +
draw_index, hashed through a keyed splitmix64-style finalizer.

Normals (they feed every Monte Carlo estimator) come from numpy's SFC64
generator (Doty-Humphrey's Small Fast Chaotic generator) with its ziggurat
``standard_normal`` (Marsaglia & Tsang, JSS 2000).  The sample range is cut
into blocks of SAMPLE_BLOCK rows; block b is drawn, row after row, from
SFC64 keyed by (seed, b): its three state words are the keyed hash of three
counters of b, its counter starts at 1, and its first 12 outputs are
dropped, as numpy's own seeding does.  So any range of rows is a pure
function of (seed, row, count), whatever partition of the range over
workers or pieces produced it.  SAMPLE_BLOCK, the keying and the warm-up
are part of the stream contract, and the values are pinned to the
installed numpy's ziggurat.

One walk (``_walk``) draws every normal: one generator per call, re-keyed
as each block starts, fills pieces of a fixed number of rows that need not
line up with the blocks.  ``normal_pieces`` caps a piece at PIECE_ELEMENTS
draws, so that peak memory stays flat in the per-sample draw count, and
both Monte Carlo samplers take their draws from it; ``normals`` is the
walk taken as one piece, for replays of single samples.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1

# Stream contract: rows per SFC64 key.  Changing it changes every normal.
SAMPLE_BLOCK = 1024
# Draws held at once by one piece (2 MB).  At 4 MB, a small block that
# numpy keeps for reuse could land on the C heap above a freed piece and stop
# the heap from shrinking, so the estimator's peak memory moved by 4 MB with
# the heap's layout.  The determinant estimator cuts its pieces so that a
# piece and its working copy fit here.
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
    """An SFC64 generator for ``_start_block`` to key.  Seeded with 0, so
    that making it reads no OS entropy: each block sets its whole state."""
    return np.random.Generator(np.random.SFC64(0))


def _block_states(seed64: int, first_block: int, blocks: int) -> np.ndarray:
    """(blocks, 4) SFC64 states of blocks ``first_block`` onward of seed
    ``seed64``: three state words and the counter, 1.  Block b's words are
    the keyed hash of counters 3 * b + (0, 1, 2), counted down from
    2**64 - 1 so that no word is the bits of a corpus uniform, whose
    counters count up from 0.  One hash serves all the blocks that a piece
    starts."""
    counters = np.uint64(3 * first_block) + np.arange(3 * blocks, dtype=np.uint64)
    states = np.ones((blocks, 4), dtype=np.uint64)
    states[:, :3] = _hash_counters(seed64, ~counters).reshape(blocks, 3)
    return states


def _start_block(
    gen: np.random.Generator, state: np.ndarray, skip: int, count: int
) -> np.random.Generator:
    """Re-key ``gen`` to the block stream that starts at SFC64 ``state`` (a
    row of ``_block_states``), past its 12 warm-up outputs and its first
    ``skip`` rows.  Ziggurat rejection gives no skip-ahead, so the skipped
    rows are drawn and dropped, PIECE_ELEMENTS draws at a time."""
    gen.bit_generator.state = {
        "bit_generator": "SFC64",
        "state": {"state": state},
        "has_uint32": 0,
        "uinteger": 0,
    }
    gen.bit_generator.random_raw(12)
    step = _piece_rows(count)
    for done in range(0, skip, step):
        gen.standard_normal((min(step, skip - done), count))
    return gen


def _walk(
    seed: int, first_sample: int, n_samples: int, count: int, rows: int
) -> Iterator[np.ndarray]:
    """The one walk of the block streams: pieces of ``rows`` rows, the last
    one shorter, from one generator that is re-keyed as each block starts.
    The first block is keyed at ``first_sample``, its earlier rows drawn and
    dropped.  Each piece hashes the keys of the blocks it starts in one
    ``_block_states`` call, so the keys held do not grow with ``n_samples``."""
    seed64 = int(seed) & _MASK64
    gen = _generator()
    row = int(first_sample)
    end = row + n_samples
    block = row // SAMPLE_BLOCK  # the next block to key
    while row < end:
        piece = np.empty((min(rows, end - row), count), dtype=np.float64)
        stop = row + len(piece)
        last = (stop - 1) // SAMPLE_BLOCK
        states = iter(_block_states(seed64, block, last + 1 - block))
        for b in range(row // SAMPLE_BLOCK, last + 1):
            lo = max(row, b * SAMPLE_BLOCK)
            if b == block:
                _start_block(gen, next(states), lo % SAMPLE_BLOCK, count)
                block += 1
            gen.standard_normal(out=piece[lo - row : min(stop, (b + 1) * SAMPLE_BLOCK) - row])
        yield piece
        row = stop


def normals(seed: int, first_sample: int, n_samples: int, count: int) -> np.ndarray:
    """(n_samples, count) standard normals for sample rows first_sample onward:
    the walk of the block streams taken as one piece, with no budget."""
    return next(_walk(seed, first_sample, n_samples, count, n_samples), np.empty((0, count)))


def normal_pieces(
    seed: int, first_sample: int, n_samples: int, count: int, rows: int | None = None
) -> Iterator[np.ndarray]:
    """Yield the rows of ``normals(seed, first_sample, n_samples, count)`` in
    order, in pieces of exactly min(``rows``, budget) rows but the last,
    which may be shorter.  The budget is the rows that hold PIECE_ELEMENTS
    draws, and ``rows=None`` takes it.  A piece may span several blocks or
    cover part of one: the walk makes one generator per call."""
    budget = _piece_rows(count)
    return _walk(seed, first_sample, n_samples, count, budget if rows is None else min(rows, budget))
