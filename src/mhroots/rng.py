"""Deterministic random streams addressed by sample index.

Uniforms (``uniforms``, ``integers``; they feed the shape corpora) address
each draw by a global counter g = sample_index * draws_per_sample +
draw_index, hashed through a keyed splitmix64-style finalizer.

Normals (``normals``; they feed every Monte Carlo estimator) come from
numpy's Philox counter generator (Salmon et al., SC'11) with its ziggurat
``standard_normal`` (Marsaglia & Tsang, JSS 2000).  The sample range is cut
into blocks of SAMPLE_BLOCK rows; block b is drawn, row after row, from
Philox keyed by (seed, b).  So any range of rows is a pure function of
(seed, row, count), whatever partition of the range over workers or
batches produced it.  SAMPLE_BLOCK is part of the stream contract, and the
values are pinned to the installed numpy's ziggurat.

``batches`` is the one batching policy of the samplers: batches are whole
blocks, bounded by an element budget so that peak memory stays flat in the
per-sample draw count.
"""

from __future__ import annotations

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


def normals(seed: int, first_sample: int, n_samples: int, count: int) -> np.ndarray:
    """(n_samples, count) standard normals for sample rows first_sample onward.

    Row r is row r % SAMPLE_BLOCK of its block's stream.  Whole blocks are
    drawn straight into the result; a partial first block is drawn up to the
    last row needed (ziggurat rejection gives no skip-ahead) and sliced.
    """
    out = np.empty((n_samples, count), dtype=np.float64)
    if count == 0:
        return out
    seed64 = int(seed) & _MASK64
    row = int(first_sample)
    end = row + n_samples
    pos = 0
    while row < end:
        block, offset = divmod(row, SAMPLE_BLOCK)
        take = min(SAMPLE_BLOCK - offset, end - row)
        # a 128-bit integer key is the word pair [seed64, block]
        gen = np.random.Generator(np.random.Philox(key=seed64 | block << 64))
        if offset == 0:
            gen.standard_normal(out=out[pos : pos + take])
        else:
            out[pos : pos + take] = gen.standard_normal((offset + take, count))[offset:]
        row += take
        pos += take
    return out


def batch_size(count: int) -> int:
    """Samples per batch for samples of ``count`` draws each.

    At most MAX_BATCH samples and about BATCH_ELEMENTS draws, a whole number
    of blocks, and never less than one block.
    """
    size = min(MAX_BATCH, max(SAMPLE_BLOCK, BATCH_ELEMENTS // max(count, 1)))
    return size - size % SAMPLE_BLOCK


def batches(samples: int, count: int) -> list[tuple[int, int]]:
    """(first sample, sample count) of each batch covering ``samples`` samples."""
    size = batch_size(count)
    return [(start, min(size, samples - start)) for start in range(0, samples, size)]


def integers(seed: int, first_sample: int, n_samples: int, draws: int, bound: int) -> np.ndarray:
    """(n_samples, draws) ints uniform on [0, bound); for corpus generation."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    u = uniforms(seed, first_sample, n_samples, draws)
    return np.minimum((u * bound).astype(np.int64), bound - 1)
