"""The stream contract: block-keyed normals, the batching policy, frozen corpora."""

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
        # Pins the block size, the key layout and numpy's ziggurat: a change
        # to any of them moves every seeded Monte Carlo number.
        z = rng.normals(2024, 0, 2 * B + 1, 2)
        assert z[0].tolist() == [0.03674125380393216, -0.588885431018047]
        assert z[B - 1].tolist() == [-0.3410928391360843, -0.7708965418959095]
        assert z[B].tolist() == [0.2769563760080999, -0.8944725437372066]
        assert z[2 * B].tolist() == [-1.3376504124503397, 1.3267069154632882]


def _whole_block(seed: int, block: int, count: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=seed | block << 64))
    return gen.standard_normal((B, count))


class TestNormalPieces:
    @pytest.mark.parametrize("first, n_samples", [(0, 3 * B), (5, 2 * B), (B - 3, 10), (0, 1)])
    def test_whole_block_pieces_match_normals(self, first, n_samples):
        pieces = list(rng.normal_pieces(43, first, n_samples, 4, rows=2 * B + 1))
        assert np.array_equal(np.concatenate(pieces), rng.normals(43, first, n_samples, 4))
        ends = np.cumsum([len(z) for z in pieces]) + first
        # every piece but the last ends on a block boundary
        assert all(e % B == 0 for e in ends[:-1]) and all(len(z) <= 2 * B for z in pieces)

    @pytest.mark.parametrize("first, n_samples", [(0, 2 * B), (B - 300, 700), (2 * B + 1, 5)])
    def test_blocks_over_budget_are_drawn_in_pieces(self, monkeypatch, first, n_samples):
        count = 7
        monkeypatch.setattr(rng, "PIECE_ELEMENTS", 300 * count)
        opened = []
        start_block = rng._start_block
        monkeypatch.setattr(
            rng, "_start_block", lambda *a: opened.append(a[2]) or start_block(*a)
        )
        pieces = list(rng.normal_pieces(44, first, n_samples, count))
        assert max(z.size for z in pieces) <= rng.PIECE_ELEMENTS
        # one keying per block touched: no block is drawn twice
        assert opened == list(range(first // B, (first + n_samples - 1) // B + 1))
        whole = np.concatenate([_whole_block(44, b, count) for b in range(3)])
        expected = whole[first : first + n_samples]
        assert np.array_equal(np.concatenate(pieces), expected)
        assert np.array_equal(rng.normals(44, first, n_samples, count), expected)

    def test_pieces_at_n_100_are_whole_block_rows(self):
        count = 100 * 100
        pieces = rng.normal_pieces(45, 0, B + 76, count)
        rows = 0
        for block in range(2):
            whole = _whole_block(45, block, count)
            for z in pieces:
                assert z.nbytes <= rng.PIECE_ELEMENTS * 8
                assert np.array_equal(z, whole[rows % B : rows % B + len(z)])
                rows += len(z)
                if rows % B == 0:
                    break
        assert rows == B + 76


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
        fresh = np.concatenate(
            [
                np.random.Generator(np.random.Philox(key=seed | b << 64)).standard_normal((B, 3))
                for b in range(3)
            ]
        )
        assert np.array_equal(z, fresh[first : first + 2 * B + 5])
