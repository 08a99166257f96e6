"""The stream contract: block-keyed normals, the batching policy, frozen corpora."""

import math

import numpy as np
import pytest

from mhroots import rng
from mhroots.corpus import random_shape

B = rng.SAMPLE_BLOCK


class TestNormals:
    @pytest.mark.parametrize(
        "first, n_samples",
        [
            (0, 1),
            (0, B),
            (1, B - 1),
            (B - 1, 2),  # straddles the first block boundary
            (B + 7, 3),
            (3, 2 * B + 5),  # unaligned start, a whole block, a partial tail
            (2 * B, B),
            (3 * B - 1, 1),
        ],
    )
    def test_any_row_range_matches_a_larger_call(self, first, n_samples):
        full = rng.normals(41, 0, 3 * B, 5)
        part = rng.normals(41, first, n_samples, 5)
        assert part.shape == (n_samples, 5)
        assert np.array_equal(part, full[first : first + n_samples])

    def test_seed_is_taken_modulo_two_to_the_64(self):
        assert np.array_equal(rng.normals(-1, 5, 2, 3), rng.normals(2**64 - 1, 5, 2, 3))

    def test_empty_shapes(self):
        assert rng.normals(1, 0, 3, 0).shape == (3, 0)
        assert rng.normals(1, 10, 0, 4).shape == (0, 4)

    def test_golden_values(self):
        # Pins the block size, the keying, the warm-up and numpy's ziggurat:
        # a change to any of them moves every seeded Monte Carlo number.
        z = rng.normals(2024, 0, 2 * B + 1, 2)
        assert z[0].tolist() == [-0.3930539188238259, -2.084073182577661]
        assert z[B - 1].tolist() == [0.699928393440034, 0.9337086353095561]
        assert z[B].tolist() == [-0.2459277637303958, -1.8826000678831425]
        assert z[2 * B].tolist() == [0.24751293420595855, -1.159000697999155]

    def test_blocks_and_seeds_look_independent(self):
        # the first rows of 4,096 consecutive blocks, at seeds s and s + 1:
        # each position's mean and variance, and its correlation with the
        # next block and with the other seed, stay within 4 standard errors
        blocks, rows, count = 4096, 4, 2
        z = np.stack(
            [
                np.stack([rng.normals(seed, b * B, rows, count) for b in range(blocks)])
                for seed in (77, 78)
            ]
        ).reshape(2, blocks, rows * count)
        se = 1 / math.sqrt(blocks)
        assert np.abs(z.mean(axis=1)).max() <= 4 * se
        assert np.abs(z.var(axis=1) - 1).max() <= 4 * math.sqrt(2) * se
        next_block = (z[:, :-1] * z[:, 1:]).mean(axis=1)
        other_seed = (z[0] * z[1]).mean(axis=0)
        assert np.abs(next_block).max() <= 4 * se
        assert np.abs(other_seed).max() <= 4 * se


_MASK = (1 << 64) - 1


def _mix(x: int) -> int:
    """splitmix64's finaliser on a Python int."""
    x ^= x >> 30
    x = x * 0xBF58476D1CE4E5B9 & _MASK
    x ^= x >> 27
    x = x * 0x94D049BB133111EB & _MASK
    return x ^ x >> 31


def _sfc64_step(state: list[int]) -> int:
    """One output of SFC64 (Doty-Humphrey), advancing ``state`` = [a, b, c, w]."""
    a, b, c, w = state
    out = (a + b + w) & _MASK
    state[:] = [b ^ b >> 11, (c + (c << 3)) & _MASK, (((c << 24) | c >> 40) + out) & _MASK, w + 1]
    return out


def _block_generator(seed: int, block: int) -> np.random.Generator:
    """Block ``block``'s stream, keyed in pure Python: state words the keyed
    hash of counters 2**64 - 1 - (3 * block + i), counter 1, 12 outputs
    dropped."""
    golden = 0x9E3779B97F4A7C15
    counters = [_MASK - (3 * block + i) for i in range(3)]
    words = [_mix(_mix((c + 1) * golden & _MASK) ^ seed & _MASK) for c in counters]
    state = [*words, 1]
    for _ in range(12):
        _sfc64_step(state)
    bits = np.random.SFC64(0)
    bits.state = {
        "bit_generator": "SFC64",
        "state": {"state": np.array(state, np.uint64)},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bits)


def _whole_block(seed: int, block: int, count: int) -> np.ndarray:
    return _block_generator(seed, block).standard_normal((B, count))


class TestKeying:
    @pytest.mark.parametrize("seed, block", [(0, 0), (2024, 1), (2**64 - 5, 3), (9, 2**40)])
    def test_raw_stream_is_sfc64_of_the_block_key(self, seed, block):
        # numpy's SFC64 against the published step function, from the key
        state = _block_generator(seed, block).bit_generator.state["state"]["state"]
        expected = [int(x) for x in state]
        state = rng._block_states(seed % 2**64, block, 1)[0]
        gen = rng._start_block(rng._generator(), state, 0, 1)
        assert gen.bit_generator.random_raw(5).tolist() == [
            _sfc64_step(expected) for _ in range(5)
        ]


class TestNormalPieces:
    @pytest.mark.parametrize("first", [0, B + 5])
    @pytest.mark.parametrize("rows", [1, 300, B - 1, B, B + 1, 2 * B + 1, None])
    def test_pieces_are_exactly_min_of_rows_and_budget(self, monkeypatch, first, rows):
        # 100 normals a sample: the budget is 2,621 rows, more than 2 * B + 1
        count, n_samples = 100, 3 * B + 700
        budget = rng.PIECE_ELEMENTS // count
        size = budget if rows is None else min(rows, budget)
        opened = []
        start_block = rng._start_block
        monkeypatch.setattr(
            rng, "_start_block", lambda *a: opened.append(a[1].tolist()) or start_block(*a)
        )
        pieces = list(rng.normal_pieces(46, first, n_samples, count, rows))
        lengths = [len(z) for z in pieces]
        assert lengths[:-1] == [size] * (len(pieces) - 1) and 0 < lengths[-1] <= size
        # one keying per block touched, however the pieces cut the blocks
        touched = range(first // B, (first + n_samples - 1) // B + 1)
        assert opened == [rng._block_states(46, b, 1)[0].tolist() for b in touched]
        assert np.array_equal(np.concatenate(pieces), rng.normals(46, first, n_samples, count))

    @pytest.mark.parametrize("first, n_samples", [(0, 2 * B), (B - 300, 700), (2 * B + 1, 5)])
    def test_blocks_over_budget_are_drawn_in_pieces(self, monkeypatch, first, n_samples):
        count = 7
        monkeypatch.setattr(rng, "PIECE_ELEMENTS", 300 * count)
        opened = []
        start_block = rng._start_block
        monkeypatch.setattr(
            rng, "_start_block", lambda *a: opened.append(a[1].tolist()) or start_block(*a)
        )
        pieces = list(rng.normal_pieces(44, first, n_samples, count))
        assert max(z.size for z in pieces) <= rng.PIECE_ELEMENTS
        # one keying per block touched: no block is drawn twice
        touched = range(first // B, (first + n_samples - 1) // B + 1)
        assert opened == [rng._block_states(44, b, 1)[0].tolist() for b in touched]
        whole = np.concatenate([_whole_block(44, b, count) for b in range(3)])
        expected = whole[first : first + n_samples]
        assert np.array_equal(np.concatenate(pieces), expected)
        assert np.array_equal(rng.normals(44, first, n_samples, count), expected)


class TestCorpus:
    def test_golden_shapes(self):
        # The corpus comes from the uniform stream, which stays frozen.
        golden = {
            0: ((0, 1, 1), ((2, 1, 1), (2, 2, 3))),
            1: ((4,), ((2,), (2,), (1,), (2,))),
            2: ((2, 1), ((0, 2), (3, 2), (1, 0))),
            3: ((5,), ((1,), (1,), (0,), (2,), (3,))),
            7: ((4,), ((1,), (2,), (0,), (1,))),
        }
        for t, (sizes, degrees) in golden.items():
            spec = random_shape(0, t)
            assert (spec.block_sizes, spec.degrees) == (sizes, degrees)


class TestRekeying:
    def test_one_generator_rekeyed_per_block(self, monkeypatch):
        made = []
        generator = rng._generator
        monkeypatch.setattr(rng, "_generator", lambda: made.append(1) or generator())
        seed = 2**64 - 5
        first = B - 7
        z = rng.normals(seed, first, 2 * B + 5, 3)  # 3 blocks, unaligned start
        assert len(made) == 1
        fresh = np.concatenate([_whole_block(seed, b, 3) for b in range(3)])
        assert np.array_equal(z, fresh[first : first + 2 * B + 5])
        # one generator for a whole call of pieces, within and across blocks
        for calls, rows in enumerate((300, 2 * B - 1), start=2):
            pieces = list(rng.normal_pieces(seed, first, 2 * B + 5, 3, rows))
            assert len(made) == calls
            assert np.array_equal(np.concatenate(pieces), z)
