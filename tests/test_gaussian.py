"""Structured-matrix sampling and the |det| Monte Carlo estimator."""

import math

import numpy as np
import pytest

from mhroots import rng
from mhroots.corpus import random_variance_profile
from mhroots.gaussian import (
    DET_CHUNK,
    SMALL_DET_DIM,
    abs_det_closed_standard,
    mc_abs_det,
    minor_expansion_bounds,
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


class TestMonteCarlo:
    def test_scalar_standard_gaussian(self):
        est = mc_abs_det(np.ones((1, 1)), 200_000, seed=5)
        assert abs(est.mean - math.sqrt(2 / math.pi)) <= 4 * est.stderr

    def test_two_by_two_standard(self):
        est = mc_abs_det(np.ones((2, 2)), 200_000, seed=6)
        assert abs(est.mean - 1.0) <= 4 * est.stderr

    def test_three_by_three_standard(self):
        est = mc_abs_det(np.ones((3, 3)), 100_000, seed=7)
        assert abs(est.mean - abs_det_closed_standard(3)) <= 4 * est.stderr

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
        samples = 100_000
        assert len(rng.batches(samples, n * n)) >= 3
        runs = [mc_abs_det(var, samples, seed=19, workers=w) for w in (1, 2, 8)]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr

    def test_sample_matrix_replays_the_estimator_draw(self, monkeypatch):
        n = 3
        var = np.array([[1.0, 2.0, 0.0], [3.0, 1.0, 1.0], [2.0, 2.0, 4.0]])
        drawn = {}
        normals = rng.normals

        def recording(seed, first, count, width):
            z = normals(seed, first, count, width)
            drawn.update((first + r, z[r].copy()) for r in range(count))
            return z

        monkeypatch.setattr(rng, "normals", recording)
        mc_abs_det(var, 3000, seed=23)
        monkeypatch.undo()
        for index in (0, rng.SAMPLE_BLOCK + 5, 2999):
            expected = drawn[index].reshape(n, n) * np.sqrt(var)
            assert np.array_equal(sample_matrix(var, 23, index), expected)

    def test_row_scale_equivariance(self):
        base = mc_abs_det(np.ones((2, 2)), 200_000, seed=10)
        scaled_var = np.array([[4.0, 4.0], [1.0, 1.0]])
        scaled = mc_abs_det(scaled_var, 200_000, seed=11)
        joint = math.hypot(2 * base.stderr, scaled.stderr)
        assert abs(scaled.mean - 2 * base.mean) <= 4 * joint

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            mc_abs_det(np.ones((2, 2)), 1, seed=0)

    def test_log_domain_path_matches_direct_computation(self, monkeypatch):
        # above dimension 40 moments accumulate in the log domain; force
        # several batches so the streaming merge is exercised too
        n = 41
        monkeypatch.setattr(rng, "BATCH_ELEMENTS", rng.SAMPLE_BLOCK * n * n)
        est = mc_abs_det(np.ones((n, n)), 4000, seed=55)
        direct = np.abs(np.linalg.det(rng.normals(55, 0, 4000, n * n).reshape(-1, n, n)))
        assert est.mean == pytest.approx(direct.mean(), rel=1e-10)
        assert est.stderr == pytest.approx(direct.std(ddof=1) / math.sqrt(4000), rel=1e-8)


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


class TestSmallDeterminantKernel:
    @pytest.mark.parametrize("kind", ["unit", "game", "graded", "singular"])
    @pytest.mark.parametrize("n", range(1, SMALL_DET_DIM + 2))
    def test_matches_lapack_over_the_same_rows(self, n, kind):
        # two whole chunks and a partial one
        samples = 2 * DET_CHUNK + 808
        var = _profile(kind, n)
        est = mc_abs_det(var, samples, seed=70 + n)
        z = rng.normals(70 + n, 0, samples, n * n) * np.sqrt(var).ravel()
        direct = np.abs(np.linalg.det(z.reshape(-1, n, n)))
        assert est.mean == pytest.approx(direct.mean(), rel=1e-10)
        assert est.stderr == pytest.approx(direct.std(ddof=1) / math.sqrt(samples), rel=1e-10)
        if kind == "singular" and n <= SMALL_DET_DIM:
            # every expansion term holds an exact zero factor
            assert est.mean == 0.0 and est.stderr == 0.0

    def test_bitwise_determinism_across_workers_several_batches(self):
        n = SMALL_DET_DIM
        var = _profile("graded", n)
        samples = 3 * rng.batch_size(n * n) + 1000
        runs = [mc_abs_det(var, samples, seed=29, workers=w) for w in (1, 2, 8)]
        assert runs[0].mean == runs[1].mean == runs[2].mean
        assert runs[0].stderr == runs[1].stderr == runs[2].stderr

    def test_batch_normals_stay_within_the_budget_at_n_100(self, monkeypatch):
        n = 100
        assert rng.SAMPLE_BLOCK * n * n > rng.BATCH_ELEMENTS
        held = []
        pieces = rng.normal_pieces

        def recording(*args):
            for z in pieces(*args):
                held.append(z.nbytes)
                yield z

        monkeypatch.setattr(rng, "normal_pieces", recording)
        samples = rng.SAMPLE_BLOCK + 76
        est = mc_abs_det(np.ones((n, n)), samples, seed=31)
        assert sum(held) == samples * n * n * 8
        assert max(held) <= rng.PIECE_ELEMENTS * 8 <= rng.BATCH_ELEMENTS * 8
        assert est.mean > 0 and math.isfinite(est.mean)


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
    def test_base_case_collapses(self):
        upper, lower = minor_expansion_bounds(np.array([[4.0]]), 1, [1.0])
        expected = math.sqrt(2 / math.pi) * 2.0
        assert upper == pytest.approx(expected)
        assert lower == pytest.approx(expected)

    def test_all_ones_two_by_two(self):
        minor = math.sqrt(2 / math.pi)  # mean |N(0,1)|
        upper, lower = minor_expansion_bounds(np.ones((2, 2)), 1, [minor, minor])
        assert upper == pytest.approx(4 / math.pi)
        assert lower == pytest.approx((2 / math.pi) * math.sqrt(2))
        assert upper >= 1.0 >= lower  # true mean is 1

    def test_single_nonzero_per_row_is_tight(self):
        var = np.array([[2.0, 0.0], [0.0, 3.0]])
        upper, lower = minor_expansion_bounds(var, 1, [math.sqrt(2 / math.pi), 0.0])
        assert upper == pytest.approx(lower)

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
