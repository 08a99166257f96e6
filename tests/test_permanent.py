"""Permanents: fast paths against the brute-force oracle, plus the
bipartite matching behind the zero test."""

import itertools
import tracemalloc

import numpy as np
import pytest

from mhroots import permanent
from mhroots.permanent import (
    MatrixTooLargeError,
    _max_matching,
    permanent_bruteforce,
    permanent_exact,
    permanent_float,
)


class TestExamples:
    def test_two_by_two(self):
        assert permanent_exact([[1, 2], [3, 4]]) == 10

    def test_identity(self):
        for n in (1, 2, 3, 5):
            assert permanent_exact(np.eye(n, dtype=int)) == 1

    def test_single_transversal(self):
        assert permanent_exact([[0, 1], [1, 0]]) == 1

    def test_float_all_ones(self):
        assert permanent_float([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(2.0)

    def test_float_two_one(self):
        assert permanent_float([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(5.0)

    def test_sqrt_expanded_degree_matrix(self):
        from mhroots.shape import expand_delta, validate

        spec = validate((1, 1), [[4, 1], [1, 4]])
        assert permanent_float(expand_delta(spec, sqrt=True)) == pytest.approx(5.0)

    def test_bruteforce_scalar(self):
        assert permanent_bruteforce([[7]]) == 7

    def test_bruteforce_rectangular_wide(self):
        assert permanent_bruteforce([[1, 1, 1], [1, 1, 1]]) == 6

    def test_bruteforce_tall_is_zero(self):
        assert permanent_bruteforce([[1, 1], [1, 1], [1, 1]]) == 0

    def test_rectangular_exact_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.integers(0, 4)
            n = rng.integers(m, 5)
            mat = rng.integers(0, 5, size=(m, n))
            assert permanent_exact(mat) == permanent_bruteforce(mat)


class TestAgainstOracle:
    def test_exact_matches_bruteforce_200_trials(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = rng.integers(1, 8)
            mat = rng.integers(0, 5, size=(n, n))
            assert permanent_exact(mat) == permanent_bruteforce(mat)

    def test_float_matches_bruteforce(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = rng.integers(1, 7)
            mat = rng.random((n, n))
            assert permanent_float(mat) == pytest.approx(
                permanent_bruteforce(mat), rel=1e-10
            )


class TestAlgebraicProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = rng.integers(1, 7)
            mat = rng.integers(0, 5, size=(n, n))
            base = permanent_exact(mat)
            rp = rng.permutation(n)
            cp = rng.permutation(n)
            assert permanent_exact(mat[rp][:, cp]) == base

    def test_row_scaling(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = rng.integers(1, 6)
            mat = rng.integers(0, 4, size=(n, n))
            base = permanent_exact(mat)
            c = int(rng.integers(0, 5))
            i = int(rng.integers(0, n))
            scaled = mat.copy()
            scaled[i] *= c
            assert permanent_exact(scaled) == c * base

    def test_row_expansion_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            mat = rng.integers(0, 4, size=(n, n))
            total = permanent_exact(mat)
            for i in range(n):
                acc = 0
                for j in range(n):
                    minor = np.delete(np.delete(mat, i, axis=0), j, axis=1)
                    acc += int(mat[i, j]) * permanent_exact(minor)
                assert acc == total


class TestZeroBlock:
    def test_matching_equals_the_recursive_search(self):
        def recursive(adj, n_cols):
            match_row, match_col = [-1] * n_cols, [-1] * len(adj)

            def try_row(i, seen):
                for j in adj[i]:
                    if not seen[j]:
                        seen[j] = True
                        if match_row[j] == -1 or try_row(match_row[j], seen):
                            match_row[j], match_col[i] = i, j
                            return True
                return False

            size = sum(try_row(i, [False] * n_cols) for i in range(len(adj)))
            return size, match_row, match_col

        rng = np.random.default_rng(12)
        for _ in range(500):
            m = int(rng.integers(1, 10))
            n = int(rng.integers(m, 12))
            mat = rng.random((m, n)) < rng.uniform(0.1, 0.6)
            adj = [np.flatnonzero(row).tolist() for row in mat]
            assert _max_matching(adj, n) == recursive(adj, n)

    def test_long_augmenting_path(self):
        # row i covers columns i and i + 1, the last row only column 0: the
        # last row's augmenting path runs through every other row
        n = 1000
        pattern = np.zeros((n, n), dtype=int)
        pattern[np.arange(n - 1), np.arange(n - 1)] = 1
        pattern[np.arange(n - 1), np.arange(1, n)] = 1
        pattern[n - 1, 0] = 1
        adj = [np.flatnonzero(row).tolist() for row in pattern]
        assert _max_matching(adj, n)[0] == n


class TestCaps:
    def test_exact_cap(self):
        with pytest.raises(MatrixTooLargeError):
            permanent_exact(np.ones((35, 35), dtype=int))

    def test_float_cap(self):
        with pytest.raises(MatrixTooLargeError):
            permanent_float(np.ones((35, 35)))

    def test_bruteforce_cap(self):
        with pytest.raises(MatrixTooLargeError):
            permanent_bruteforce(np.ones((10, 10)))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            permanent_exact([[-1, 0], [0, 1]])


def _sequential_ryser(rows, zero, one):
    """Ryser's Gray-code loop one step at a time: the kernel's oracle, whose
    every sum and product, and so every rounding, the kernel must repeat."""
    n = len(rows)
    if n == 0:
        return one
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    rowsums = [zero] * n
    total = zero
    gray = 0
    for s in range(1, 1 << n):
        bit = s & -s
        j = bit.bit_length() - 1
        gray ^= bit
        col = cols[j]
        if gray & bit:
            for i in range(n):
                rowsums[i] += col[i]
        else:
            for i in range(n):
                rowsums[i] -= col[i]
        prod = one
        for v in rowsums:
            prod *= v
            if prod == 0:
                break
        if (gray.bit_count() & 1) == (n & 1):
            total += prod
        else:
            total -= prod
    return total


def _mixed_matrices(seed, count, n_max=12, n_min=1):
    """Seeded square matrices with zeros and magnitudes from 1e-8 to 1e8."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        scale = 10.0 ** rng.uniform(-8, 8, size=(n, n))
        yield rng.random((n, n)) * scale * (rng.random((n, n)) > 0.3)


class TestGrayKernel:
    def test_float_is_bitwise_the_sequential_loop(self):
        # the 2^13 and 2^14 steps of n = 13 and 14 span several chunks
        assert 1 << 13 > permanent.RYSER_CHUNK
        mats = itertools.chain(
            _mixed_matrices(71, 200), _mixed_matrices(74, 4, n_max=14, n_min=13)
        )
        for mat in mats:
            expected = _sequential_ryser(mat.tolist(), 0.0, 1.0)
            assert np.float64(permanent_float(mat)).tobytes() == np.float64(expected).tobytes()

    def test_int_equals_the_sequential_loop(self):
        rng = np.random.default_rng(72)

        def check(n):
            mat = rng.integers(0, 6, size=(n, n)) * (rng.random((n, n)) > 0.3)
            big = mat * 10**12  # past int64 once multiplied out
            assert permanent_exact(mat) == _sequential_ryser(mat.tolist(), 0, 1)
            assert permanent_exact(big) == _sequential_ryser(big.tolist(), 0, 1)

        for _ in range(200):
            check(int(rng.integers(1, 13)))
        for n in (13, 14):  # past one chunk of the shipped RYSER_CHUNK
            check(n)

    # the kernel runs the largest power of two at most RYSER_CHUNK, so 3
    # runs as 2; chunks of 4 to 32 put patched steps, at a chunk's start
    # and middle, all through the 2^8 steps of n = 8
    @pytest.mark.parametrize("chunk", [2, 3, 4, 16, 32])
    def test_chunk_boundaries_do_not_move_the_rounding(self, monkeypatch, chunk):
        monkeypatch.setattr(permanent, "RYSER_CHUNK", chunk)
        for mat in _mixed_matrices(73, 20, n_max=8):
            expected = _sequential_ryser(mat.tolist(), 0.0, 1.0)
            assert np.float64(permanent_float(mat)).tobytes() == np.float64(expected).tobytes()
            ints = (mat > 0).astype(int) * 3
            assert permanent_exact(ints) == _sequential_ryser(ints.tolist(), 0, 1)

    @pytest.mark.parametrize(
        "n, upper",
        [(14, 439295.99985478807), (16, 3294720.0144438245), (18, 24893440.925856154)],
    )
    def test_rank_one_upper_bounds_keep_their_recorded_rounding(self, n, upper):
        # perfbench/reference.json records these Ryser roundings as the
        # expected bounds() upper bound; exact: 2^(n/2) * C(n, n/2)
        from mhroots.expectation import bounds
        from mhroots.shape import validate

        spec = validate((n // 2, n // 2), [[1, 2], [2, 4]] * (n // 2))
        assert bounds(spec).upper == upper

    def test_working_memory_is_bounded_by_the_chunk(self):
        # two (n, chunk) float64 tables, the row sums and their deltas, plus
        # a few chunk-long vectors; nothing grows with the 2^n steps
        n = 20
        chunk = 1 << (permanent.RYSER_CHUNK.bit_length() - 1)
        mat = np.random.default_rng(77).random((n, n))
        tracemalloc.start()
        try:
            permanent_float(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2 * n + 8) * chunk


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_float_path(self, bad):
        with pytest.raises(ValueError, match=r"entry \(1,2\) must be finite and nonnegative"):
            permanent_float([[1.0, bad], [1.0, 1.0]])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_exact_path(self, bad):
        with pytest.raises(ValueError, match=r"entry \(1,1\) must be a nonnegative integer"):
            permanent_exact([[bad]])
