"""Structured-matrix sampling and the |det| Monte Carlo estimator."""

import concurrent.futures
import itertools
import math
import os
import sys

import numpy as np
import pytest

from mhroots import gaussian, rng
from mhroots.corpus import random_variance_profile
from mhroots.gaussian import (
    DET_CHUNK,
    abs_det_closed_standard,
    mc_abs_det,
    permanent_sandwich,
    sample_matrix,
    variance_profile,
)
from mhroots.shape import game_shape, validate


class TestSampling:
    def test_zero_variances_give_zero_matrix(self):
        mat = sample_matrix(np.zeros((3, 3)), seed=1)
        assert (mat == 0).all()

    def test_scalar_profile(self):
        mat = sample_matrix(np.ones((1, 1)), seed=1)
        assert mat.shape == (1, 1) and math.isfinite(mat[0, 0])

    def test_entrywise_variances(self):
        var = np.array([[1.0, 2.0], [4.0, 1.0]])
        draws = rng.normals(77, 0, 100_000, 4) * np.sqrt(var).ravel()[None, :]
        sample_var = draws.var(axis=0, ddof=1).reshape(2, 2)
        assert np.all(np.abs(sample_var - var) <= 0.05 * var)

    def test_profile_from_shape(self):
        spec = validate((1, 1), [[1, 2], [2, 1]])
        assert variance_profile(spec).tolist() == [[1.0, 2.0], [2.0, 1.0]]

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            mc_abs_det(np.array([[1.0, -1.0], [0.0, 1.0]]), 100, seed=0)


class TestClosedStandard:
    def test_small_dimensions(self):
        assert abs_det_closed_standard(1) == pytest.approx(math.sqrt(2 / math.pi))
        assert abs_det_closed_standard(2) == pytest.approx(1.0)
        assert abs_det_closed_standard(3) == pytest.approx(2 * math.sqrt(2 / math.pi))
        assert abs_det_closed_standard(4) == pytest.approx(3.0)


def _task_count(var: np.ndarray, samples: int) -> int:
    """Pool tasks of ``mc_abs_det(var, samples, ...)``."""
    return -(-samples // gaussian._column_block(var).task_rows)


def _column_scaled(n: int) -> np.ndarray:
    """The standard profile with column j scaled by j + 1: the columns are
    distinct, so a sample draws all but the first, and E|det| is
    sqrt(n!) * abs_det_closed_standard(n)."""
    return np.tile(1.0 + np.arange(n), (n, 1))


def _column_scaled_target(n: int) -> float:
    return math.sqrt(math.factorial(n)) * abs_det_closed_standard(n)


class TestMonteCarlo:
    def test_scalar_standard_gaussian(self):
        # every n = 1 profile is one column: exact, and nothing is sampled
        est = mc_abs_det(np.ones((1, 1)), 200_000, seed=5)
        assert (est.mean, est.stderr) == (pytest.approx(math.sqrt(2 / math.pi), rel=1e-12), 0.0)
        est = mc_abs_det(np.full((1, 1), 4.0), 200_000, seed=5)
        assert (est.mean, est.stderr) == (pytest.approx(2 * math.sqrt(2 / math.pi), rel=1e-12), 0.0)

    def test_two_by_two_standard(self):
        exact = mc_abs_det(np.ones((2, 2)), 200_000, seed=6)
        assert (exact.mean, exact.stderr) == (pytest.approx(1.0, rel=1e-12), 0.0)
        est = mc_abs_det(_column_scaled(2), 200_000, seed=6)
        assert est.stderr > 0
        assert abs(est.mean - _column_scaled_target(2)) <= 4 * est.stderr

    def test_three_by_three_standard(self):
        exact = mc_abs_det(np.ones((3, 3)), 100_000, seed=7)
        target = abs_det_closed_standard(3)
        assert (exact.mean, exact.stderr) == (pytest.approx(target, rel=1e-12), 0.0)
        est = mc_abs_det(_column_scaled(3), 100_000, seed=7)
        assert est.stderr > 0
        assert abs(est.mean - _column_scaled_target(3)) <= 4 * est.stderr

    def test_zero_column_exact_zero(self):
        var = np.ones((3, 3))
        var[:, 1] = 0.0
        est = mc_abs_det(var, 10_000, seed=8)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_bitwise_determinism_across_workers(self):
        var = variance_profile(validate((1, 1), [[1, 2], [2, 1]]))
        runs = [mc_abs_det(var, 200_000, seed=9, workers=w) for w in (1, 2, 8)]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr

    def test_bitwise_determinism_across_workers_several_batches(self):
        n = 10
        var = np.arange(1.0, n * n + 1).reshape(n, n) % 4
        # columns 0, 4 and 8 are the largest group of equal columns, so a
        # sample draws the other 7 columns, but for their 25 zero entries
        block = gaussian._column_block(var)
        assert block.width == n * 7 - 25
        samples = 3 * block.task_rows + 1000
        assert _task_count(var, samples) >= 3
        runs = [mc_abs_det(var, samples, seed=19, workers=w) for w in (1, 2, 8)]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr

    def test_pool_is_no_larger_than_the_tasks_or_the_cpus(self, monkeypatch):
        # pool.map submits every task at once, and the pool starts a thread,
        # each with its own working copy, per submit up to max_workers
        var = variance_profile(game_shape((2,) * 4))
        samples = 8 * gaussian._column_block(var).task_rows
        serial = mc_abs_det(var, samples, seed=23)
        real, sizes = concurrent.futures.ThreadPoolExecutor, []

        def recording(max_workers):
            sizes.append(max_workers)
            return real(max_workers=2)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        for cpus in (3, 10_000):
            affinity = set(range(cpus))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
            est = mc_abs_det(var, samples, seed=23, workers=10_000)
            assert (est.mean, est.stderr) == (serial.mean, serial.stderr)
        assert sizes == [3, 8]

    def test_sample_matrix_replays_the_estimator_draw(self, monkeypatch):
        # every column is distinct, so column 0 is integrated out: a sample
        # draws columns 1..n-1 row by row, but for the zero-variance entry
        # (0, 2), and its value comes through the cofactors of the zero
        # column 0
        n = 3
        var = np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 1.0], [2.0, 2.0, 4.0]])
        drawn = {}
        values = []
        pieces = rng.normal_pieces
        block_values = gaussian._block_values

        def recording(seed, first, count, width, rows):
            for z in pieces(seed, first, count, width, rows):
                drawn.update((first + r, z[r].copy()) for r in range(len(z)))
                first += len(z)
                yield z

        def recording_values(*args):
            shift, v = block_values(*args)
            values.append(math.exp(shift) * v)  # one worker: pieces come in stream order
            return shift, v

        monkeypatch.setattr(rng, "normal_pieces", recording)
        monkeypatch.setattr(gaussian, "_block_values", recording_values)
        est = mc_abs_det(var, 3000, seed=23)
        monkeypatch.undo()
        values = np.concatenate(values)
        assert values.size == 3000 and est.mean == pytest.approx(values.mean(), rel=1e-12)
        for index in (0, rng.SAMPLE_BLOCK + 5, 2999):
            mat = sample_matrix(var, 23, index)
            assert (mat[:, 0] == 0).all()
            o = np.zeros((n, n - 1))
            o[[0, 1, 1, 2, 2], [0, 0, 1, 0, 1]] = drawn[index]
            assert np.array_equal(mat[:, 1:], o * np.sqrt(var[:, 1:]))
            cofactors = [np.linalg.det(np.delete(mat, r, axis=0)[:, 1:]) for r in range(n)]
            value = math.sqrt(2 / math.pi) * math.sqrt(np.dot(var[:, 0], np.square(cofactors)))
            assert values[index] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 8])
    def test_sample_matrix_replays_every_row_outside_the_kernel(self, n):
        # n = 1 is one column, integrated out: nothing is drawn.  Every
        # column of the zero-diagonal profile is distinct, so column 0 is the
        # block integrated out: a sample draws columns 1..n-1 row by row,
        # skipping the diagonal, and column 0 stays zero
        if n == 1:
            var = _profile("graded", n)
            drawn = np.zeros((1, 1))
        else:
            var = _profile("game", n)
            drawn = np.zeros((n, n))
            off_diagonal = ~np.eye(n, dtype=bool)
            off_diagonal[:, 0] = False
            drawn[off_diagonal] = rng.normals(29, 7, 1, (n - 1) ** 2)[0]
        assert np.array_equal(sample_matrix(var, 29, 7), drawn * np.sqrt(var))

    def test_sample_matrix_is_zero_exactly_where_the_variance_is(self):
        # game-2x4: columns 0 and 1 are integrated out; each drawn column is
        # zero on the two rows of its own block and drawn elsewhere
        var = variance_profile(game_shape((2,) * 4))
        drawn = gaussian._column_block(var).others
        assert drawn.tolist() == [2, 3, 4, 5, 6, 7]
        for index in (0, 1, 2 * rng.SAMPLE_BLOCK + 3):
            mat = sample_matrix(var, 61, index)
            assert (mat[:, :2] == 0).all()
            assert np.array_equal(mat[:, 2:] == 0, var[:, 2:] == 0)

    def test_row_scale_equivariance(self):
        # one column (exact), then distinct columns (sampled)
        base = mc_abs_det(np.ones((2, 2)), 200_000, seed=10)
        scaled = mc_abs_det(np.array([[4.0, 4.0], [1.0, 1.0]]), 200_000, seed=11)
        assert scaled.stderr == base.stderr == 0.0
        assert scaled.mean == pytest.approx(2 * base.mean, rel=1e-12)
        base = mc_abs_det(_column_scaled(2), 200_000, seed=10)
        scaled = mc_abs_det(_column_scaled(2) * np.array([[4.0], [1.0]]), 200_000, seed=11)
        joint = math.hypot(2 * base.stderr, scaled.stderr)
        assert joint > 0
        assert abs(scaled.mean - 2 * base.mean) <= 4 * joint

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_abs_det(np.ones((2, 2)), 1, seed=0)

    def test_log_domain_path_matches_direct_computation(self):
        # moments accumulate in the log domain and fold across pieces: a
        # sample draws 820 normals, so a piece is 159 samples and the 4000
        # samples span many pieces.  The 21 even columns (zero on rows 0..2)
        # are integrated out and the 20 odd ones O drawn.
        # Directly, by LAPACK: with a QR of the zero rows' O_Z^T = [Q1 Q2] R,
        # the sum over row subsets is prod d * det(O_Z O_Z^T) *
        # det((W Q2)^T W Q2), W the other rows of O
        n, m, p, samples = 41, 20, 3, 4000
        var = _split_profile(n, p)
        est = mc_abs_det(var, samples, seed=55)
        o = rng.normals(55, 0, samples, n * m).reshape(-1, n, m) * math.sqrt(2.0)
        o_z, w = o[:, :p], o[:, p:]
        q2 = np.linalg.qr(o_z.transpose(0, 2, 1), mode="complete")[0][:, :, p:]
        wq = w @ q2
        gram = np.linalg.det(o_z @ o_z.transpose(0, 2, 1))
        direct = abs_det_closed_standard(n - m) * np.sqrt(
            gram * np.linalg.det(wq.transpose(0, 2, 1) @ wq)
        )
        assert est.mean == pytest.approx(direct.mean(), rel=1e-10)
        assert est.stderr == pytest.approx(direct.std(ddof=1) / math.sqrt(samples), rel=1e-8)


# float.hex of (mean, stderr) of mc_abs_det(_positive_profile(n), 70_000,
# seed, workers=2), 70,000 samples being several pool tasks: the stream
# contract, the kernel and the moment fold bit for bit.  At n = 1 the
# profile is one column and the value is exact.
PINNED_SMALL = (
    (1, 3, "0x1.9884533d43651p-1", "0x0.0p+0"),
    (1, 11, "0x1.9884533d43651p-1", "0x0.0p+0"),
    (2, 3, "0x1.02a1e8c8485a3p+1", "0x1.3bbec83647872p-8"),
    (2, 11, "0x1.02921e7664914p+1", "0x1.3c9303e573d9fp-8"),
    (3, 3, "0x1.71ac30c24f180p+2", "0x1.2065bd17fe31dp-6"),
    (3, 11, "0x1.70c014c232d22p+2", "0x1.1f4fdd80b0b5fp-6"),
    (4, 3, "0x1.3163a426293c9p+4", "0x1.10503cb445d2fp-4"),
    (4, 11, "0x1.31d5e1c68351ap+4", "0x1.1135b4c0ce53ep-4"),
    (5, 3, "0x1.d1e383456f376p+5", "0x1.5ca72491cd8dbp-3"),
    (5, 11, "0x1.d277c55ea4c89p+5", "0x1.5d0349538f05fp-3"),
    (6, 3, "0x1.b06ea6ea7ddf1p+7", "0x1.6d8f8e25b02fbp-1"),
    (6, 11, "0x1.aebc72f8b96d9p+7", "0x1.69c3f6644e029p-1"),
    (7, 3, "0x1.c6fceb61b1372p+9", "0x1.9e69b2648b2bdp+1"),
    (7, 11, "0x1.c40a374d4712ap+9", "0x1.9a4a4e2f0d68cp+1"),
)


def _split_profile(n: int, p: int) -> np.ndarray:
    """Variance 1 on even and 2 on odd columns, and 0 on rows 0..p-1 of the
    even ones.  The even group comes first and is at least as large, so it
    is the block integrated out, with p zero rows."""
    var = np.tile(1.0 + np.arange(n) % 2, (n, 1))
    var[:p, ::2] = 0.0
    return var


def _positive_profile(n: int) -> np.ndarray:
    """Variances 1..4 in a pattern with no zero row or column."""
    return np.array([[1.0 + (3 * i + 5 * j) % 4 for j in range(n)] for i in range(n)])


class TestMomentFold:
    @pytest.mark.parametrize(
        "n, seed, mean, stderr", PINNED_SMALL, ids=[f"{n}-{seed}" for n, seed, *_ in PINNED_SMALL]
    )
    def test_small_dimensions_pinned(self, n, seed, mean, stderr):
        samples = 70_000
        width = gaussian._column_block(_positive_profile(n)).width
        # n = 1 draws nothing; above, several pool tasks
        assert width == 0 if n == 1 else _task_count(_positive_profile(n), samples) > 1
        est = mc_abs_det(_positive_profile(n), samples, seed, workers=2)
        assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)

    @pytest.mark.parametrize("n, log2_var, samples", [(20, 62, 2048), (44, 10, 1024)])
    def test_scaled_profile_scales_mean_and_stderr(self, n, log2_var, samples):
        # every entry scaled by 2**(log2_var / 2) scales |det| by
        # 2**(n * log2_var / 2); at n = 20 the sum of det**2 is past float range
        unit = mc_abs_det(_split_profile(n, 2), samples, seed=4)
        scaled = mc_abs_det(_split_profile(n, 2) * 2.0**log2_var, samples, seed=4)
        factor = 2.0 ** (n * log2_var // 2)
        assert scaled.mean == pytest.approx(factor * unit.mean, rel=1e-12)
        assert scaled.stderr == pytest.approx(factor * unit.stderr, rel=1e-12)
        assert unit.stderr > 0

    def test_mean_past_float_range_raises(self):
        # one group of equal columns: the exact value c_n * sqrt(prod d)
        with pytest.raises(OverflowError):
            mc_abs_det(np.full((40, 40), 2.0**62), 100, seed=1)

    def test_sampled_mean_past_float_range_raises(self):
        # two groups: sampled, and the mean overflows only where the fold
        # scales it by exp(shift) at the end
        var = _split_profile(40, 2) * 2.0**62
        assert gaussian._column_block(var).width == 40 * 20
        with pytest.raises(OverflowError, match="math range error"):
            mc_abs_det(var, 100, seed=1)

    @pytest.mark.parametrize("n, variance", [(2, 1e300), (4, 1e150), (7, 1e44)])
    def test_sums_past_float_range_give_a_finite_mean(self, n, variance):
        # the sums of |v| and v**2 are past float range; every value is
        # folded shifted, so the mean and the stderr scale as |det| does
        unit = mc_abs_det(_column_scaled(n), 4096, seed=1)
        scaled = mc_abs_det(_column_scaled(n) * variance, 4096, seed=1)
        factor = variance ** (n / 2)
        assert factor * unit.mean > math.sqrt(sys.float_info.max / 4096)
        assert scaled.mean == pytest.approx(factor * unit.mean, rel=1e-12)
        assert scaled.stderr == pytest.approx(factor * unit.stderr, rel=1e-12)

    def test_overflow_only_past_float_range(self, monkeypatch):
        # a mean of half the float range is returned although its largest
        # sample is past float range; a mean past float range raises
        n, samples = 4, 4096
        unit = mc_abs_det(_column_scaled(n), samples, seed=2)
        scale = math.sqrt(0.5 * sys.float_info.max / unit.mean)  # |det| scales as scale**2
        shifts = []
        block_values = gaussian._block_values

        def recording(*args):
            shift, v = block_values(*args)
            shifts.append(shift)  # the log of the piece's largest value
            return shift, v

        monkeypatch.setattr(gaussian, "_block_values", recording)
        est = mc_abs_det(_column_scaled(n) * scale, samples, seed=2)
        assert max(shifts) > math.log(sys.float_info.max)
        assert est.mean == pytest.approx(0.5 * sys.float_info.max, rel=1e-12)
        assert est.stderr == pytest.approx(scale**2 * unit.stderr, rel=1e-12)
        with pytest.raises(OverflowError):
            mc_abs_det(_column_scaled(n) * (2 * scale), samples, seed=2)


def _profile(kind: str, n: int) -> np.ndarray:
    if kind == "unit":
        return np.ones((n, n))
    if kind == "game":  # zero diagonal, unit variances elsewhere
        return variance_profile(game_shape((1,) * n))
    if kind == "graded":
        return np.arange(1.0, n * n + 1).reshape(n, n) % 4
    # singular: rows 0 and 1 both live on column 0 only, so no perfect matching
    var = np.ones((n, n))
    var[:2, 1:] = 0.0
    return var if n > 1 else np.zeros((1, 1))


def _lapack_values(var: np.ndarray, seed: int, samples: int) -> np.ndarray:
    """The estimator's per-sample values by LAPACK over the same stream rows:
    the brute-force subset sum ``_subset_sum_values`` over the columns a
    sample draws."""
    block = _block_of(var)
    return _subset_sum_values(var, block, _drawn_columns(var, block, seed, samples))


def _block_of(var: np.ndarray) -> list[int]:
    """The columns integrated out: the largest group of equal columns, the
    first such group where sizes tie."""
    n = len(var)
    groups = [[j for j in range(n) if (var[:, j] == var[:, i]).all()] for i in range(n)]
    return max(groups, key=len)


def _drawn_columns(var: np.ndarray, block: list[int], seed: int, samples: int) -> np.ndarray:
    """O of samples 0..samples-1: the columns outside ``block``, their
    positive-variance entries drawn row-major and the others 0."""
    others = [j for j in range(len(var)) if j not in block]
    sd = np.sqrt(var[:, others])
    o = np.zeros((samples, *sd.shape))
    o[:, sd > 0] = rng.normals(seed, 0, samples, np.count_nonzero(sd))
    return o * sd


def _subset_sum_values(var: np.ndarray, block: list[int], o: np.ndarray) -> np.ndarray:
    """E[|det| | O] for each O in ``o``, by brute force: c_k * sqrt(sum over
    k-subsets S of rows of prod_{i in S} d_i * det(O without rows S)**2),
    k = len(block) and d the block's column of variances."""
    n, k = len(var), len(block)
    d = var[:, block[0]]
    acc = np.zeros(len(o))
    for s in itertools.combinations(range(n), k):
        weight = np.prod(d[list(s)])
        if weight:
            acc += weight * np.linalg.det(np.delete(o, s, axis=1)) ** 2
    return abs_det_closed_standard(k) * np.sqrt(acc)


# E|det| of the zero-diagonal profile: at n = 3 by quadrature, sqrt(2/pi) *
# E hypot(ab, cd) for a..d iid standard normal (|ab| has density 2 K0(x) / pi);
# at n = 5 from 8e7 samples of the plain estimator, mean |det| over the
# whole matrix.  (mean, standard error)
GAME_ABS_DET = {3: (0.849086394557, 0.0), 5: (3.67466, 0.00062)}
COVERAGE_REPLICATES = 100


def _assert_coverage(var, target: float, target_se: float, first_seed: int) -> None:
    """The conditional sample is unbiased and its iid stderr honest: the
    z-scores of COVERAGE_REPLICATES runs of 4096 samples, seeds first_seed
    onward, have mean 0 and standard deviation 1."""
    z = []
    for r in range(COVERAGE_REPLICATES):
        est = mc_abs_det(var, 4096, seed=first_seed + r)
        z.append((est.mean - target) / math.hypot(est.stderr, target_se))
    z = np.array(z)
    assert abs(z.mean()) <= 4 / math.sqrt(COVERAGE_REPLICATES)
    assert 0.75 <= z.std(ddof=1) <= 1.25


class TestSmallDeterminantKernel:
    """n = 1..8 through the one column-block kernel, against LAPACK."""

    @pytest.mark.parametrize("kind", ["unit", "game", "graded", "singular"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_lapack_over_the_same_rows(self, n, kind):
        # two whole chunks and a partial one
        samples = 2 * DET_CHUNK + 808
        var = _profile(kind, n)
        est = mc_abs_det(var, samples, seed=70 + n)
        direct = _lapack_values(var, 70 + n, samples)
        assert est.mean == pytest.approx(direct.mean(), rel=1e-10)
        assert est.stderr == pytest.approx(direct.std(ddof=1) / math.sqrt(samples), rel=1e-10)
        if kind == "singular":
            # a reflection meets a zero norm, or p > m: every value is exactly 0
            assert est.mean == 0.0 and est.stderr == 0.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_normals_drawn_per_sample(self, monkeypatch, n):
        shapes = []
        pieces = rng.normal_pieces

        def recording(*args):
            for z in pieces(*args):
                shapes.append(z.shape)
                yield z

        monkeypatch.setattr(rng, "normal_pieces", recording)
        samples = DET_CHUNK + 100
        var = _profile("graded", n)
        mc_abs_det(var, samples, seed=3)
        # columns j and j + 4 of the graded profile are equal, so from n = 5
        # on the block integrated out has 2 columns; at n = 1 it is the whole
        # matrix, and at n = 4 and 8 column 3 has variance 0: the value is
        # exact, and nothing is drawn.  Otherwise a sample draws the entries
        # of the other columns whose variance is positive
        per_sample = np.count_nonzero(np.delete(var, [0, 4] if n > 4 else [0], axis=1))
        drawn = n not in (1, 4, 8)
        assert {width for _, width in shapes} == ({per_sample} if drawn else set())
        assert sum(rows for rows, _ in shapes) == (samples if drawn else 0)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_bitwise_determinism_across_workers_conditional_kernel(self, n):
        var = _profile("game", n)
        samples = 2 * gaussian._column_block(var).task_rows + 1000
        assert _task_count(var, samples) == 3
        runs = [mc_abs_det(var, samples, seed=41, workers=w) for w in (1, 2, 8)]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr

    @pytest.mark.parametrize("kind", ["unit", "game"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_replicated_coverage(self, n, kind):
        # the all-ones profile is one column, so its value is exact; its
        # columns scaled apart, it is sampled
        if kind == "unit":
            exact = mc_abs_det(_profile(kind, n), 4096, seed=5000 + 1000 * n)
            assert exact.mean == pytest.approx(abs_det_closed_standard(n), rel=1e-12)
            assert exact.stderr == 0.0
            var, target, target_se = _column_scaled(n), _column_scaled_target(n), 0.0
        else:
            var = _profile(kind, n)
            target, target_se = GAME_ABS_DET[n]
        _assert_coverage(var, target, target_se, first_seed=5000 + 1000 * n)

    def test_bitwise_determinism_across_workers_several_batches(self):
        # columns 0 and 4, 1 and 5, 2 and 6 are equal: a sample draws 5
        # columns, but for their 8 zero entries
        n = 7
        var = _profile("graded", n)
        assert gaussian._column_block(var).width == n * 5 - 8
        samples = 3 * gaussian._column_block(var).task_rows + 1000
        assert _task_count(var, samples) == 4
        runs = [mc_abs_det(var, samples, seed=29, workers=w) for w in (1, 2, 8)]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr

    def test_batch_normals_stay_within_the_budget_at_n_100(self, monkeypatch):
        # a sample draws the 50 odd columns, so one block's normals exceed
        # PIECE_ELEMENTS; each piece's normals and its working copy fit it
        n, m = 100, 50
        assert rng.SAMPLE_BLOCK * n * m > rng.PIECE_ELEMENTS
        held = []
        block_values = gaussian._block_values

        def recording(z, block, work):
            held.append((z.size, work.size))
            return block_values(z, block, work)

        monkeypatch.setattr(gaussian, "_block_values", recording)
        samples = rng.SAMPLE_BLOCK + 76
        est = mc_abs_det(_split_profile(n, 2), samples, seed=31)
        assert sum(z for z, _ in held) == samples * n * m
        assert max(z + w for z, w in held) <= rng.PIECE_ELEMENTS
        assert est.mean > 0 and math.isfinite(est.mean)


# E|det| of game-2x4 (n = 8, four blocks of size 2, zero diagonal blocks)
# from 4e7 samples of the plain estimator, mean |det| over whole matrices.
# (mean, standard error)
GAME_2X4_ABS_DET = (33.3951004423, 0.0095283)
# E|det| of two profiles of the README verify run's Monte Carlo estimates,
# blocks (2, 2) at n = 4 and (1, 2, 2) at n = 5, each a pair of equal columns
# integrated out, from 4e7 samples of the plain estimator on numpy's own
# generator, mean |det| over whole matrices.  (profile, mean, standard error)
VERIFY_ABS_DET = {
    4: (
        [[1, 1, 1, 1], [1, 1, 3, 3], [2, 2, 3, 3], [3, 3, 3, 3]],
        11.302572320460502,
        0.0023447224883940605,
    ),
    5: (
        [[0, 1, 1, 1, 1], [0, 2, 2, 3, 3], [1, 0, 0, 2, 2], [1, 0, 0, 3, 3], [1, 1, 1, 3, 3]],
        8.427108428778633,
        0.0022172462626014267,
    ),
}
# Variances of the block columns: degrees from 1 to 10**4, and from 1 to 2**62.
BLOCK_DEGREES = (1, 3, 10, 70, 500, 2000, 10**4)
WIDE_BLOCK_DEGREES = (1, 5, 2**20, 2**40, 2**51, 2**62)


def _block_profile(n: int, k: int, p: int, degrees=BLOCK_DEGREES) -> np.ndarray:
    """Columns 0..k-1 equal, with ``degrees`` and 0 on p rows; the other
    columns distinct, with degrees from 1 to 10**4."""
    gen = np.random.default_rng(1000 * n + 10 * k + p)
    var = np.floor(10.0 ** gen.uniform(0.0, 4.0, (n, n)))
    var[:, :k] = gen.choice(degrees, n)[:, None]
    var[gen.permutation(n)[:p], :k] = 0.0
    return var


def _alternating_profile(n: int) -> np.ndarray:
    """Column 0 alternates degrees 1 and 2**62; column j > 0 is constant j.
    W has n / 2 rows of order 1 for its n - 1 columns, so its other singular
    values are about 2**31 times smaller, and a Gram matrix W^T W rounds
    away what the value is made of."""
    var = np.tile(np.arange(float(n)), (n, 1))
    var[:, 0] = [1.0, 2.0**62] * (n // 2)
    return var


@pytest.fixture
def valued_samples(monkeypatch):
    """A list that gets the number of samples of each piece that
    ``gaussian._block_values`` values, from any worker."""
    counts = []
    block_values = gaussian._block_values

    def recording(z, block, work):
        counts.append(z.shape[0])
        return block_values(z, block, work)

    monkeypatch.setattr(gaussian, "_block_values", recording)
    return counts


class TestColumnBlockKernel:
    """At every n a sample integrates the largest group of equal columns out
    and draws the others."""

    @pytest.mark.parametrize(
        "var",
        [
            pytest.param(_block_profile(n, k, p), id=f"n{n}-k{k}-p{p}")
            for n, k, p in [
                (8, 1, 0), (8, 1, 1), (8, 3, 2), (9, 3, 0), (9, 2, 4), (10, 3, 7), (10, 4, 1),
                (2, 1, 0), (2, 1, 1), (3, 1, 0), (3, 2, 1), (4, 1, 2), (4, 2, 0), (5, 2, 2),
                (5, 3, 0), (6, 1, 3), (6, 3, 1), (7, 2, 3), (7, 4, 0),
            ]
        ]
        + [
            pytest.param(_block_profile(n, k, p, WIDE_BLOCK_DEGREES), id=f"n{n}-k{k}-p{p}-wide")
            for n, k, p in [
                (8, 1, 0), (8, 2, 1), (8, 3, 2), (10, 2, 0), (3, 1, 0), (5, 2, 1), (7, 3, 2)
            ]
        ]
        + [
            pytest.param(_alternating_profile(n), id=f"n{n}-alternating")
            for n in (8, 10, 2, 4, 6)
        ]
        + [
            # zero-variance entries inside O, which draw no normal
            pytest.param(variance_profile(game_shape((s,) * 4)), id=f"game-{s}x4")
            for s in (2, 3)
        ],
    )
    def test_value_is_the_subset_sum(self, monkeypatch, var):
        values = []
        block_values = gaussian._block_values

        def recording(*args):
            shift, v = block_values(*args)
            values.append(math.exp(shift) * v)
            return shift, v

        monkeypatch.setattr(gaussian, "_block_values", recording)
        samples = 200
        est = mc_abs_det(var, samples, seed=17)
        values = np.concatenate(values)
        block = _block_of(var)
        assert block[0] == 0
        direct = _subset_sum_values(var, block, _drawn_columns(var, block, 17, samples))
        assert values.size == samples and (direct > 0).all()
        np.testing.assert_allclose(values, direct, rtol=1e-10, atol=0)
        assert est.mean == pytest.approx(direct.mean(), rel=1e-10)

    @pytest.mark.parametrize(
        "n, k, p", [(8, 3, 6), (10, 1, 10), (9, 8, 2), (1, 1, 1), (3, 2, 2), (5, 3, 3), (7, 1, 7)]
    )
    def test_more_zero_rows_than_drawn_columns_is_exactly_zero(self, monkeypatch, n, k, p):
        # the p rows where the block vanishes live on the m = n - k other
        # columns, so p > m makes every matrix singular
        var = _block_profile(n, k, p)
        drawn = []
        monkeypatch.setattr(rng, "normal_pieces", lambda *args: drawn.append(args) or iter(()))
        est = mc_abs_det(var, 1000, seed=3)
        assert (est.mean, est.stderr, drawn) == (0.0, 0.0, [])
        assert not sample_matrix(var, 3, 5).any()

    def test_structurally_singular_profile_is_zero(self, valued_samples):
        # columns 1 and 2 live on row 0 only, so every draw is singular: a
        # reflection meets a zero norm, and each value is exactly 0
        for n in range(3, 9):
            var = np.tile(1.0 + np.arange(n), (n, 1))
            var[1:, 1:3] = 0.0
            valued_samples.clear()
            with np.errstate(all="raise"):
                est = mc_abs_det(var, 3000, seed=1)
            assert (est.mean, est.stderr) == (0.0, 0.0)
            assert sum(valued_samples) == 3000

    @pytest.mark.parametrize("n", [8, 12, 40, 1, 2, 3, 4, 5, 6, 7])
    def test_one_block_is_exact(self, monkeypatch, n):
        # every column equal: the whole matrix is D**(1/2) G, G standard
        var = _block_profile(n, n, 0)
        drawn = []
        monkeypatch.setattr(rng, "normal_pieces", lambda *args: drawn.append(args) or iter(()))
        est = mc_abs_det(var, 1000, seed=3)
        exact = abs_det_closed_standard(n) * math.prod(math.sqrt(d) for d in var[:, 0])
        assert est.mean == pytest.approx(exact, rel=1e-12)
        assert (est.stderr, drawn) == (0.0, [])

    @pytest.mark.parametrize("kind", ["rank-one", "game"])
    def test_replicated_coverage(self, kind):
        # rank-one: degrees a_i * b_j (n = 10, six equal columns integrated
        # out), E|det| = c_n * sqrt(prod a * prod b); game: game-2x4, two of
        # whose eight rows are zero on the block integrated out
        if kind == "rank-one":
            a, b = 1.0 + np.arange(10) % 2, np.repeat([2.0, 1.0], [4, 6])
            var = np.outer(a, b)
            target, target_se = abs_det_closed_standard(10) * math.sqrt(a.prod() * b.prod()), 0.0
        else:
            var = variance_profile(game_shape((2,) * 4))
            target, target_se = GAME_2X4_ABS_DET
        _assert_coverage(var, target, target_se, first_seed=9000)

    @pytest.mark.parametrize("n", range(4, 6))
    @pytest.mark.parametrize("kind", ["column-scaled", "verify"])
    def test_replicated_coverage_on_verify_profiles(self, valued_samples, kind, n):
        # k = 1: verify's det_mean_closed_form profile, whose target is
        # exact; k = 2: a profile of the README verify run's Monte Carlo
        # estimates, against a plain-estimator reference
        if kind == "column-scaled":
            var, target, target_se = _column_scaled(n), _column_scaled_target(n), 0.0
        else:
            profile, target, target_se = VERIFY_ABS_DET[n]
            var = np.array(profile, dtype=float)
        assert len(_block_of(var)) == (1 if kind == "column-scaled" else 2)
        _assert_coverage(var, target, target_se, first_seed=7000 + 1000 * n)
        assert sum(valued_samples) == COVERAGE_REPLICATES * 4096

    @pytest.mark.parametrize(
        "n, k, p", [(2, 1, 1), (3, 2, 0), (4, 1, 0), (5, 2, 1), (6, 3, 2), (7, 2, 0)]
    )
    def test_bitwise_determinism_across_workers_small_n(self, valued_samples, n, k, p):
        var = _block_profile(n, k, p)
        assert gaussian._column_block(var).width == n * (n - k)
        samples = 2 * gaussian._column_block(var).task_rows + 1000
        assert _task_count(var, samples) == 3
        runs = [mc_abs_det(var, samples, seed=47, workers=w) for w in (1, 2, 8)]
        assert sum(valued_samples) == 3 * samples
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr
        assert runs[0].stderr > 0

    def test_bitwise_determinism_across_workers_zero_rows(self):
        var = variance_profile(game_shape((2,) * 4))
        # six columns drawn, each zero on the two rows of its own block
        assert gaussian._column_block(var).width == 8 * 6 - 6 * 2
        samples = 2 * gaussian._column_block(var).task_rows + 1000
        assert _task_count(var, samples) == 3
        runs = [mc_abs_det(var, samples, seed=43, workers=w) for w in (1, 2, 8)]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr

    def test_bitwise_determinism_across_workers_sub_block_pieces(self, valued_samples):
        # game-4x4 draws 144 normals per sample into a 16 x 12 working copy,
        # so a piece is 780 samples and each pool task is one block drawn in
        # two pieces.  Over 24 blocks, folding each task's pieces first, with
        # tasks that grow with the worker count, moves the last bits at
        # seed 53
        var = variance_profile(game_shape((4,) * 4))
        block = gaussian._column_block(var)
        assert (block.width, block.piece_rows, block.task_rows) == (144, 780, rng.SAMPLE_BLOCK)
        samples = 24 * rng.SAMPLE_BLOCK + 500
        runs = [mc_abs_det(var, samples, seed=53, workers=w) for w in (1, 2, 8)]
        assert sorted(set(valued_samples)) == [244, 500, 780]
        assert sum(valued_samples) == 3 * samples
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr
        assert runs[0].stderr > 0


class TestOrthogonalInvariance:
    def test_block_rotation_leaves_mean_unchanged(self):
        # one block of two variables: rotate both columns by a random angle
        spec = validate((2,), [[1], [2]])
        var = variance_profile(spec)
        n = 2
        draws = rng.normals(13, 0, 50_000, n * n) * np.sqrt(var).ravel()[None, :]
        mats = draws.reshape(-1, n, n)
        plain = np.abs(np.linalg.det(mats))
        angles = rng.uniforms(14, 0, mats.shape[0], 1)[:, 0] * 2 * np.pi
        cos, sin = np.cos(angles), np.sin(angles)
        rot = np.zeros((mats.shape[0], 2, 2))
        rot[:, 0, 0] = cos
        rot[:, 0, 1] = -sin
        rot[:, 1, 0] = sin
        rot[:, 1, 1] = cos
        rotated = np.abs(np.linalg.det(mats @ rot))
        se = math.hypot(
            plain.std(ddof=1) / math.sqrt(plain.size),
            rotated.std(ddof=1) / math.sqrt(rotated.size),
        )
        assert abs(plain.mean() - rotated.mean()) <= 4 * se


class TestMinorExpansion:
    def test_permanent_sandwich_values(self):
        upper, lower = permanent_sandwich(np.ones((2, 2)))
        assert upper == pytest.approx(4 / math.pi)
        assert lower == pytest.approx((2 / math.pi) * math.sqrt(2))

    def test_permanent_sandwich_on_random_profiles(self):
        for t in range(50):
            var = random_variance_profile(5005, t, max_n=5)
            est = mc_abs_det(var, 20_000, seed=600 + t)
            upper, lower = permanent_sandwich(var)
            slack = 4 * est.stderr + 1e-9
            assert upper + slack >= est.mean >= lower - slack, (t, var)


class TestNonFiniteProfiles:
    # NaN compares False with everything, so a bare `min() < 0` test let it through
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "entry_point",
        [
            lambda var: mc_abs_det(var, 1024, seed=1),
            lambda var: sample_matrix(var, seed=1),
            permanent_sandwich,
        ],
        ids=["mc_abs_det", "sample_matrix", "permanent_sandwich"],
    )
    def test_rejected_naming_the_entry(self, entry_point, bad):
        var = np.ones((2, 2))
        var[1, 0] = bad
        with pytest.raises(ValueError, match=r"variance \(2,1\) must be finite and nonnegative"):
            entry_point(var)
