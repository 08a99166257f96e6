"""Ground-truth root counting: samplers, counters, uniformity, invariance."""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from mhroots import empirical, rng
from mhroots.empirical import (
    IMAG_TOL,
    INFINITY_TOL,
    SystemSample,
    UnsupportedFamilyError,
    ZeroPolynomialError,
    _bilinear_quadratic,
    _coefficient_batch,
    _count,
    _count_univariate,
    _decompose,
    count_real_roots,
    empirical_expectation,
    evaluate,
    rotate_sample,
    sample_counts,
    sample_system,
    theta_norm_sq,
    uniformity_check,
)
from mhroots.gaussian import SampleCountError
from mhroots.shape import support_variances, validate

UNI2 = validate((1,), [[2]])
UNI4 = validate((1,), [[4]])
BILINEAR = validate((1, 1), [[1, 1], [1, 1]])
# The eigenvalue solver itself, kept before any test wraps it.
EIGVALS = np.linalg.eigvals


def _rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _eigvals_oracle(rows: np.ndarray, tau: float = IMAG_TOL):
    """(counts, flags, angles) of binary forms from companion-matrix eigenvalues.

    The counter's rules written out row by row: an eigenvalue is real when
    |imag| <= tau (1 + |lambda|); sorted real parts closer than
    tau (1 + |x|) flag ``multiple_root``; leading coefficients below
    INFINITY_TOL of the row's largest count one root at infinity (angle 0)
    flagged ``infinity_root``, plus the roots of the rest of the row.
    """
    counts, flags, angles = [], {}, []
    for r, row in enumerate(np.asarray(rows, dtype=np.float64)):
        row_flags = ()
        lead = int(np.argmax(np.abs(row) >= INFINITY_TOL * np.abs(row).max()))
        if lead:
            row_flags = ("infinity_root",)
            angles.append(0.0)
        rest = row[lead:]
        d = rest.size - 1
        count = int(lead > 0)
        if d:
            comp = np.zeros((1, d, d))
            comp[0, np.arange(1, d), np.arange(0, d - 1)] = 1.0
            comp[0, 0, :] = -rest[1:] / rest[0]
            eig = EIGVALS(comp)[0]
            real = np.sort(eig.real[np.abs(eig.imag) <= tau * (1.0 + np.abs(eig))])
            count += real.size
            if np.any(np.diff(real) <= tau * (1.0 + np.abs(real[:-1]))):
                row_flags += ("multiple_root",)
            angles.extend(np.arctan2(1.0, real) % math.pi)
        counts.append(count)
        if row_flags:
            flags[r] = row_flags
    return counts, flags, np.array(angles)


def _discriminant_oracle(e1: np.ndarray, e2: np.ndarray):
    """(counts, flagged) of bilinear pairs by the sign of the elimination
    quadratic's discriminant, a vanishing one (to 1e-12) counting 1."""
    a, b, c = _bilinear_quadratic(e1, e2).T
    disc, scale = b * b - 4.0 * a * c, b * b + np.abs(4.0 * a * c)
    flagged = np.abs(disc) <= 1e-12 * scale
    return np.where(flagged & (scale > 0), 1, np.where(disc > 0, 2, 0)), flagged


def _kostlan_rows(d: int, count: int, seed: int) -> np.ndarray:
    sigma = np.sqrt(support_variances(validate((1,), [[d]]), 1))
    return rng.normals(seed, 0, count, d + 1) * sigma


@pytest.fixture
def eigvals_rows(monkeypatch):
    """Row counts of every matrix stack the counters pass to numpy's eigvals."""
    seen = []

    def spy(a):
        seen.append(a.shape[0])
        return EIGVALS(a)

    monkeypatch.setattr(empirical.np.linalg, "eigvals", spy)
    return seen


class TestSampling:
    def test_quadratic_coefficient_variances(self):
        assert support_variances(UNI2, 1).tolist() == [1.0, 2.0, 1.0]
        draws = rng.normals(3, 0, 100_000, 3) * np.sqrt([1.0, 2.0, 1.0])
        sample_var = draws.var(axis=0, ddof=1)
        assert np.all(np.abs(sample_var - [1, 2, 1]) <= 0.05 * np.array([1, 2, 1]))

    def test_bilinear_unit_variances(self):
        assert support_variances(BILINEAR, 1).tolist() == [1.0] * 4

    def test_degree_zero_equation_single_constant(self):
        spec = validate((1,), [[0]])
        sample = sample_system(spec, seed=1)
        assert sample.coefficients[0].shape == (1,)

    def test_distinct_indices_differ(self):
        a = sample_system(UNI4, seed=1, index=0)
        b = sample_system(UNI4, seed=1, index=1)
        assert not np.allclose(a.coefficients[0], b.coefficients[0])

    def test_sample_system_replays_the_counted_system(self):
        # the univariate counter alone, and a product of two counters
        uni_x_bilinear = validate((1, 1, 1), [[3, 0, 0], [0, 1, 1], [0, 1, 1]])
        for spec in (UNI4, uni_x_bilinear):
            counts, flags = sample_counts(spec, 3000, seed=4)
            for index in (0, rng.SAMPLE_BLOCK + 3, 2999):
                sample = sample_system(spec, seed=4, index=index)
                assert count_real_roots(sample) == (counts[index], flags.get(index, ()))

    def test_counts_do_not_depend_on_the_draw_partition(self):
        # sample_counts draws STURM_CHUNK rows at a time; one batch of every
        # row, counted by the same _count, gives the same counts and flags
        uni_x_bilinear = validate((1, 1, 1), [[3, 0, 0], [0, 1, 1], [0, 1, 1]])
        samples = 2 * empirical.STURM_CHUNK + 5
        counts, flags = sample_counts(uni_x_bilinear, samples, seed=8)
        whole = np.ones(samples, dtype=np.int64)
        comps = empirical._counted_components(uni_x_bilinear)
        whole_flags = _count(comps, _coefficient_batch(uni_x_bilinear, 8, 0, samples), IMAG_TOL, whole)
        assert np.array_equal(counts, whole) and flags == whole_flags

    def test_draws_are_held_one_sturm_chunk_at_a_time(self, monkeypatch):
        pieces = rng.normal_pieces
        rows = []

        def recording(*args, **kwargs):
            for piece in pieces(*args, **kwargs):
                rows.append(piece.shape[0])
                yield piece

        monkeypatch.setattr(rng, "normal_pieces", recording)
        sample_counts(BILINEAR, 3 * empirical.STURM_CHUNK + 7, seed=9)
        assert rows == [empirical.STURM_CHUNK] * 3 + [7]


class TestEvaluate:
    def test_zero_coefficients(self):
        sample = SystemSample(UNI2, [np.zeros(3)])
        assert evaluate(sample, [np.array([0.3, 0.7])]).tolist() == [0.0]

    def test_constructed_root(self):
        sample = SystemSample(UNI2, [np.array([1.0, 0.0, -1.0])])  # x^2 - y^2
        assert evaluate(sample, [np.array([1.0, 1.0])])[0] == pytest.approx(0.0)

    def test_evaluation_variance_is_one_on_unit_blocks(self):
        spec = validate((1, 1), [[2, 1], [1, 2]])
        point = []
        gen = np.random.default_rng(5)
        for nj in spec.block_sizes:
            v = gen.standard_normal(nj + 1)
            point.append(v / np.linalg.norm(v))
        coords = np.concatenate(point)
        from mhroots.empirical import _coefficient_batch
        from mhroots.shape import support_exponent_matrix

        batches = _coefficient_batch(spec, seed=6, start=0, count=100_000)
        for i in (1, 2):
            exps = support_exponent_matrix(spec, i)
            monos = np.prod(coords[None, :] ** exps, axis=1)
            values = batches[i - 1] @ monos
            assert values.var(ddof=1) == pytest.approx(1.0, rel=0.05)

    def test_theta_norm_identity(self):
        spec = validate((1, 2), [[3, 2], [0, 4], [1, 1]])
        gen = np.random.default_rng(7)
        for i in (1, 2, 3):
            point = []
            for nj in spec.block_sizes:
                v = gen.standard_normal(nj + 1)
                point.append(v / np.linalg.norm(v))
            assert theta_norm_sq(spec, i, point) == pytest.approx(1.0, rel=1e-10)


class TestUnivariateCounting:
    def test_no_real_roots(self):
        sample = SystemSample(UNI2, [np.array([1.0, 0.0, 1.0])])  # x^2 + y^2
        assert count_real_roots(sample)[0] == 0

    def test_two_real_roots(self):
        sample = SystemSample(UNI2, [np.array([1.0, 0.0, -1.0])])  # x^2 - y^2
        assert count_real_roots(sample)[0] == 2

    def test_zero_polynomial_raises(self):
        sample = SystemSample(UNI2, [np.zeros(3)])
        with pytest.raises(ZeroPolynomialError):
            count_real_roots(sample)

    def test_infinity_root_rule(self):
        # numerically vanishing leading coefficient: one flagged root at infinity
        sample = SystemSample(UNI2, [np.array([1e-15, 1.0, 1.0])])
        # root at infinity plus root of x + 1
        assert count_real_roots(sample) == (2, ("infinity_root",))

    def test_double_root_flagged(self):
        # (x - y)^2 = x^2 - 2xy + y^2
        sample = SystemSample(UNI2, [np.array([1.0, -2.0, 1.0])])
        assert count_real_roots(sample) == (2, ("multiple_root",))

    def test_statistical_sqrt_d(self):
        est = empirical_expectation(UNI4, samples=20_000, seed=9)
        assert abs(est.mean - 2.0) <= 4 * est.stderr

    def test_vanishing_leads_in_a_batch(self):
        def roots_oracle(row):
            # one root at infinity for vanishing leads, plus numpy.roots on the rest
            lead = int(np.argmax(np.abs(row) >= INFINITY_TOL * np.abs(row).max()))
            roots = np.roots(row[lead:])
            return (lead > 0) + int((np.abs(roots.imag) <= IMAG_TOL * (1 + np.abs(roots))).sum())

        def positions(angles):
            # root positions to within pi / 1001; no expected angle is near an edge
            return np.histogram(angles, bins=1001, range=(0.0, math.pi))[0].tolist()

        # x^2 - y^2, then y (x + y) with a vanishing lead, then x^2 + y^2
        rows = np.array([[1.0, 0.0, -1.0], [1e-15, 1.0, 1.0], [1.0, 0.0, 1.0]])
        counts, flag_rows, binned = _count_univariate(rows, bins=1001)
        assert counts.tolist() == [2, 2, 0] == [roots_oracle(r) for r in rows]
        assert flag_rows == {1: ("infinity_root",)}
        assert binned.tolist() == positions([0.0, math.pi / 4, 3 * math.pi / 4, 3 * math.pi / 4])
        # two vanishing leads are one root at infinity; the rest keeps its flags
        rows = np.array([[1e-15, 1e-16, 1.0, 1.0], [1e-15, 1.0, -2.0, 1.0]])
        counts, flag_rows, binned = _count_univariate(rows, bins=1001)
        assert counts.tolist() == [2, 3] == [roots_oracle(r) for r in rows]
        assert flag_rows == {0: ("infinity_root",), 1: ("infinity_root", "multiple_root")}
        assert binned.tolist() == positions(
            [0.0, 0.0, math.pi / 4, math.pi / 4, 3 * math.pi / 4]
        )

    def test_linear_always_one_root(self):
        est = empirical_expectation(validate((1,), [[1]]), samples=5_000, seed=11)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_imag_tolerance_robustness(self):
        # counts at tau/10 and tau*10 agree with the default within 1 stderr
        for spec in (validate((1,), [[6]]), BILINEAR):
            base, _ = sample_counts(spec, 20_000, seed=12, tau=1e-8)
            se = base.std(ddof=1) / math.sqrt(base.size)
            for tau in (1e-9, 1e-7):
                other, _ = sample_counts(spec, 20_000, seed=12, tau=tau)
                assert abs(other.mean() - base.mean()) <= max(se, 1e-12)


class TestSturmCounting:
    """The Sturm counter against the eigenvalue oracle, row by row."""

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 12, 20, 30])
    def test_kostlan_rows_match_the_oracle(self, d):
        rows = _kostlan_rows(d, 4096, seed=40 + d)
        counts, flags, _ = _count_univariate(rows)
        want_counts, want_flags, _ = _eigvals_oracle(rows)
        assert counts.tolist() == want_counts
        assert flags == want_flags

    def test_boundary_rows_go_to_eigenvalues(self, eigvals_rows):
        rows = np.array([
            [1.0, 2.0 - 1e-9, -2e-9, 0.0],  # t (t - 1e-9) (t + 2): real roots 1e-9 apart
            [1.0, -2.0, 1e-20, -2e-20],  # (t^2 + 1e-20) (t - 2): imaginary parts 1e-10
            [1e-15, 1.0, 1.0, 2.0],  # a vanishing leading coefficient
            [1.0, 0.0, -1.0, 0.0],  # t (t - 1) (t + 1): counted by the Sturm chain
        ])
        counts, flags, _ = _count_univariate(rows)
        assert counts.tolist() == [3, 3, 1, 3] == _eigvals_oracle(rows)[0]
        assert flags == _eigvals_oracle(rows)[1] == {
            0: ("multiple_root",), 1: ("multiple_root",), 2: ("infinity_root",)
        }
        # the first two rows, and the rest of the third; not the last row
        assert sum(eigvals_rows) == 3

    def test_vanishing_lead_skips_the_chain_at_zero_tau(self):
        # at tau = 0 the chain would count y (1e-15 x + y) (x + y) as sure
        rows = np.array([[1e-15, 1.0 + 1e-15, 1.0], [1.0, 0.0, -1.0]])
        counts, flags, _ = _count_univariate(rows, tau=0.0)
        assert (counts.tolist(), flags) == _eigvals_oracle(rows, tau=0.0)[:2]
        assert flags == {0: ("infinity_root",)}

    def test_every_row_unsure_at_large_tau(self, eigvals_rows):
        rows = _kostlan_rows(6, 512, seed=47)
        counts, flags, _ = _count_univariate(rows, tau=1e3)
        assert eigvals_rows == [512]
        assert (counts.tolist(), flags) == _eigvals_oracle(rows, tau=1e3)[:2]
        assert (counts == 6).all()
        # bilinear rows too: --tau-imag governs their elimination quadratics
        eigvals_rows.clear()
        counts, flags = sample_counts(BILINEAR, 512, seed=47, tau=1e3)
        assert eigvals_rows == [512]
        quadratics = _bilinear_quadratic(*_coefficient_batch(BILINEAR, 47, 0, 512))
        assert (counts.tolist(), flags) == _eigvals_oracle(quadratics, tau=1e3)[:2]
        assert (counts == 2).all()

    @pytest.mark.parametrize("d, bins", [(1, 10), (2, 7), (6, 10), (12, 5)])
    def test_bin_counts_match_the_oracle_angles(self, d, bins):
        rows = _kostlan_rows(d, 4096, seed=50 + d)
        rows[7, 0] = 1e-15 * np.abs(rows[7]).max()  # one root at infinity
        _, _, binned = _count_univariate(rows, bins=bins)
        angles = _eigvals_oracle(rows)[2]
        assert binned.tolist() == np.histogram(angles, bins=bins, range=(0.0, math.pi))[0].tolist()

    def test_few_rows_fall_back_to_eigenvalues(self, eigvals_rows):
        # the Sturm chain counts all but a few boundary rows at the default tau
        counts, _ = sample_counts(validate((1,), [[12]]), 65_536, seed=48)
        assert counts.size == 65_536
        assert sum(eigvals_rows) <= 0.005 * 65_536


class TestBilinearCounting:
    def test_hand_example_two_roots(self):
        m1 = np.eye(2).ravel()
        m2 = np.array([[1.0, 0.0], [0.0, -1.0]]).ravel()
        sample = SystemSample(BILINEAR, [m1, m2])
        assert count_real_roots(sample)[0] == 2

    def test_hand_example_no_roots(self):
        m1 = np.eye(2).ravel()
        m2 = np.array([[0.0, -1.0], [1.0, 0.0]]).ravel()  # rotation by 90 degrees
        sample = SystemSample(BILINEAR, [m1, m2])
        assert count_real_roots(sample)[0] == 0

    def test_hand_example_is_scale_free(self):
        # a projectively unchanged system: both equations times 1e-7
        m1 = np.eye(2).ravel()
        m2 = np.array([[1.0, 0.0], [0.0, -1.0]]).ravel()
        scaled = count_real_roots(SystemSample(BILINEAR, [1e-7 * m1, 1e-7 * m2]))
        assert scaled == count_real_roots(SystemSample(BILINEAR, [m1, m2]))
        assert scaled[0] == 2

    def test_double_root_counts_two(self):
        # elimination quadratic s^2: one root of multiplicity two, as for a univariate s^2
        m1 = np.eye(2).ravel()
        m2 = np.array([[0.0, 1.0], [0.0, 0.0]]).ravel()
        got = count_real_roots(SystemSample(BILINEAR, [m1, m2]))
        assert got == (2, ("multiple_root",))
        assert got == count_real_roots(SystemSample(UNI2, [np.array([1.0, 0.0, 0.0])]))

    def test_degenerate_raises(self):
        # a vanishing elimination quadratic is a zero binary form
        sample = SystemSample(BILINEAR, [np.zeros(4), np.zeros(4)])
        with pytest.raises(ZeroPolynomialError):
            count_real_roots(sample)

    def test_statistical_half_pi(self):
        est = empirical_expectation(BILINEAR, samples=100_000, seed=13)
        assert abs(est.mean - math.pi / 2) <= 4 * est.stderr

    def test_discriminant_positive_frequency(self):
        counts, _ = sample_counts(BILINEAR, 100_000, seed=13)
        freq = (counts == 2).mean()
        se = (counts == 2).std(ddof=1) / math.sqrt(counts.size)
        assert abs(freq - math.pi / 4) <= 4 * se

    def test_elimination_direction_symmetry(self):
        # eliminating the first block instead is the same count on the transposes M_i'
        batch = _coefficient_batch(BILINEAR, seed=14, start=0, count=10_000)
        transposed = [e.reshape(-1, 2, 2).transpose(0, 2, 1).reshape(-1, 4) for e in batch]
        first, second = np.ones((2, 10_000), dtype=np.int64)
        _count(_decompose(BILINEAR), batch, IMAG_TOL, first)
        _count(_decompose(BILINEAR), transposed, IMAG_TOL, second)
        assert (first == second).all()

    def test_discriminant_rule_agrees(self):
        # the one counter against the former special-case rule on 4 x 262,144 systems
        for seed in (31, 32, 33, 34):
            counts, flags = sample_counts(BILINEAR, 262_144, seed=seed)
            want, flagged = _discriminant_oracle(*_coefficient_batch(BILINEAR, seed, 0, 262_144))
            assert flags == {} and not flagged.any()
            assert np.array_equal(counts, want)

    def test_counts_even_unless_flagged(self):
        counts, flags = sample_counts(BILINEAR, 10_000, seed=15)
        odd = np.nonzero(counts % 2 == 1)[0]
        assert all(int(i) in flags for i in odd)
        assert len(flags) < 10  # boundary events are rare


class TestRotationInvariance:
    def test_univariate_counts_preserved(self):
        gen = np.random.default_rng(16)
        for idx in range(200):
            sample = sample_system(UNI4, seed=17, index=idx)
            base = count_real_roots(sample)[0]
            rotated = rotate_sample(sample, [_rotation(float(gen.uniform(0, math.pi)))])
            assert count_real_roots(rotated)[0] == base

    def test_bilinear_counts_preserved(self):
        gen = np.random.default_rng(18)
        for idx in range(200):
            sample = sample_system(BILINEAR, seed=19, index=idx)
            base = count_real_roots(sample)[0]
            rotated = rotate_sample(
                sample,
                [
                    _rotation(float(gen.uniform(0, math.pi))),
                    _rotation(float(gen.uniform(0, math.pi))),
                ],
            )
            assert count_real_roots(rotated)[0] == base


class TestFamilies:
    def test_product_of_univariates(self):
        spec = validate((1, 1), [[2, 0], [0, 3]])
        est = empirical_expectation(spec, samples=20_000, seed=21)
        left = empirical_expectation(validate((1,), [[2]]), samples=20_000, seed=22)
        right = empirical_expectation(validate((1,), [[3]]), samples=20_000, seed=23)
        joint = math.hypot(left.mean * right.stderr, right.mean * left.stderr)
        joint = math.hypot(joint, est.stderr)
        assert abs(est.mean - left.mean * right.mean) <= 4 * joint

    def test_zero_degree_row_forces_zero(self):
        spec = validate((1,), [[0]])
        counts, _ = sample_counts(spec, 500, seed=24)
        assert (counts == 0).all()
        assert count_real_roots(sample_system(spec, seed=24)) == (0, ())

    def test_zero_degree_row_draws_nothing(self):
        # the other supports exceed SUPPORT_CAP: drawing them would raise
        spec = validate((3,), [[0], [400], [400]])
        counts, flags = sample_counts(spec, 100_000, seed=24)
        assert (counts == 0).all() and flags == {}

    @pytest.mark.parametrize("sizes", [(0,), (0, 0)])
    def test_null_shape_counts_one(self, sizes):
        # no equations and no unknowns: the one empty solution
        spec = validate(sizes, [])
        counts, flags = sample_counts(spec, 500, seed=24)
        assert (counts == 1).all() and flags == {}
        assert count_real_roots(sample_system(spec, seed=24)) == (1, ())

    def test_unsupported_coupled_shape(self):
        spec = validate((1, 1), [[1, 2], [2, 1]])
        with pytest.raises(UnsupportedFamilyError):
            empirical_expectation(spec, 100, seed=25)
        with pytest.raises(UnsupportedFamilyError):
            count_real_roots(sample_system(spec, seed=25))

    def test_unsupported_three_block_game(self):
        from mhroots.shape import game_shape

        with pytest.raises(UnsupportedFamilyError):
            empirical_expectation(game_shape((1, 1, 1)), 100, seed=26)
        with pytest.raises(UnsupportedFamilyError):
            count_real_roots(sample_system(game_shape((1, 1, 1)), seed=26))


class TestDecompose:
    @pytest.mark.parametrize(
        "sizes, degrees, kinds",
        [
            # (kind, rows, blocks), 0-based, in component order
            ((1, 0), [[2, 0]], [("univariate", (0,), (0,)), ("null", (), (1,))]),
            ((1,), [[0]], [("unsupported", (), (0,)), ("zero_row", (0,), ())]),
            ((1, 1), [[1, 1], [1, 1]], [("bilinear", (0, 1), (0, 1))]),
            ((1, 1), [[1, 2], [2, 1]], [("unsupported", (0, 1), (0, 1))]),
            ((2,), [[1], [1]], [("unsupported", (0, 1), (0,))]),
            (
                (1, 1, 1),
                [[3, 0, 0], [0, 1, 1], [0, 1, 1]],
                [("univariate", (0,), (0,)), ("bilinear", (1, 2), (1, 2))],
            ),
        ],
    )
    def test_kinds_rows_and_blocks(self, sizes, degrees, kinds):
        comps = _decompose(validate(sizes, degrees))
        assert [(c.kind, c.rows, c.blocks) for c in comps] == kinds

class TestUniformity:
    def test_linear_roots_uniform(self):
        rep = uniformity_check(validate((1,), [[1]]), samples=20_000, bins=10, seed=27)
        assert rep.chi_square < chi2.ppf(0.999, rep.dof)

    def test_quartic_roots_uniform(self):
        rep = uniformity_check(UNI4, samples=20_000, bins=10, seed=28)
        assert rep.chi_square < chi2.ppf(0.999, rep.dof)

    def test_miscalibrated_weights_fail(self):
        rep = uniformity_check(
            UNI4, samples=20_000, bins=10, seed=29, invariant_weights=False
        )
        assert rep.chi_square > chi2.ppf(0.999, rep.dof)

    def test_bin_counts_sum(self):
        rep = uniformity_check(UNI2, samples=5_000, bins=8, seed=30)
        assert sum(rep.bin_counts) == rep.total_roots

    @pytest.mark.parametrize("samples", [0, 1, -4])
    def test_samples_must_allow_a_statistic(self, samples):
        # with no roots binned, a chi-square of 0 would pass every cut
        with pytest.raises(SampleCountError):
            uniformity_check(validate((1,), [(3,)]), samples, bins=3, seed=0)

    def test_no_root_drawn_is_refused(self):
        # two quadratics with no real root between them: no statistic to test
        with pytest.raises(ValueError, match="no real root in 2 samples"):
            uniformity_check(validate((1,), [[2]]), 2, bins=8, seed=12)

    @pytest.mark.parametrize("bins", [0, -1])
    def test_bins_must_be_positive(self, bins):
        with pytest.raises(ValueError, match=f"bins must be at least 1, got {bins}"):
            uniformity_check(UNI2, samples=100, bins=bins, seed=30)

    def test_vanishing_lead_root_in_bin_zero(self):
        # y (x + y) with a vanishing lead: infinity at angle 0, the other at 3 pi / 4
        _, flags, binned = _count_univariate(np.array([[1e-15, 1.0, 1.0]]), bins=5)
        assert flags == {0: ("infinity_root",)}
        assert binned.tolist() == [1, 0, 0, 1, 0]
