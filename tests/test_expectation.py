"""Expectation dispatcher: closed forms, splits, bounds, row recursions."""

import importlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mhroots.bkk import _canonical, bkk_count
from mhroots.corpus import random_rank_one_shape, random_shape
from mhroots.expectation import (
    EXPECTATION_MEMO_SIZE,
    abs_det_2x2,
    abs_det_3x3,
    bounds,
    closed_form,
    derive_seed,
    expectation,
    prefactor,
    rank_one_factors,
    row_recursion_check,
    scaling_factor,
    split_expectation,
)
from mhroots.gaussian import abs_det_closed_standard, mc_abs_det, variance_profile
from mhroots.shape import ShapeSpec, game_shape, validate

# The package re-exports the function ``expectation`` under the module's name.
mx = importlib.import_module("mhroots.expectation")

BILINEAR = validate((1, 1), [[1, 1], [1, 1]])


class TestPrefactor:
    def test_bilinear(self):
        assert prefactor(BILINEAR) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_zero_blocks_are_neutral(self):
        spec = validate((0, 2), [[3, 1], [0, 2]])
        plain = validate((2,), [[1], [2]])
        assert prefactor(spec) == pytest.approx(prefactor(plain), rel=1e-14)

    def test_log_path_matches_direct(self):
        # same value through the linear-domain formula at a size the log path uses
        spec = validate((61,), [[1]] * 61)
        n = 61
        import math as _m

        from mhroots.specialfn import gamma_half

        g = gamma_half(n + 1)
        direct = 2.0 ** (-n / 2) * _m.pi ** (n / 2) * (
            1.0 if g.sqrt_pi else 1.0
        )  # placeholder, recompute below
        direct = 2.0 ** (-n / 2) * _m.pi ** (0.5 * (1 - g.sqrt_pi) + 0.5 * 0) / float(
            g.rational
        ) * _m.pi ** (0.5 * 0)
        # the single block contributes sqrt(pi)**(1 - p) / rational
        expected = 2.0 ** (-n / 2) * _m.sqrt(_m.pi) ** (1 - g.sqrt_pi) / float(g.rational)
        assert prefactor(spec) == pytest.approx(expected, rel=1e-12)


class TestRankOne:
    def test_k1_always_factors(self):
        d, e = rank_one_factors(validate((3,), [[2], [3], [4]]))
        assert d == (2, 3, 4) and e == (1,)

    def test_primitive_column_factor(self):
        d, e = rank_one_factors(validate((1, 1), [[2, 4], [3, 6]]))
        assert d == (2, 3) and e == (1, 2)

    def test_rank_two_rejected(self):
        assert rank_one_factors(validate((1, 1), [[1, 2], [2, 1]])) is None

    def test_zero_rows_get_zero_multiplier(self):
        d, e = rank_one_factors(validate((1, 1), [[0, 0], [2, 4]]))
        assert d == (0, 2) and e == (1, 2)


class TestClosedForm:
    def test_k1_sqrt_product(self):
        cf = closed_form(validate((3,), [[2], [3], [4]]))
        assert cf.value == pytest.approx(math.sqrt(24), rel=1e-14)

    def test_quartic_closed_value(self):
        cf = closed_form(validate((1,), [[4]]))
        assert cf.value == pytest.approx(2.0, rel=1e-15)
        assert cf.radicand == 4

    def test_bilinear_symbolic(self):
        cf = closed_form(BILINEAR)
        assert cf.rational == Fraction(1, 2)
        assert cf.pi_sqrt_power == 2
        assert cf.radicand == 1
        assert cf.value == pytest.approx(math.pi / 2, rel=1e-15)

    def test_two_four_three_six(self):
        cf = closed_form(validate((1, 1), [[2, 4], [3, 6]]))
        assert cf.value == pytest.approx((math.pi / 2) * math.sqrt(12), rel=1e-14)

    def test_non_rank_one_is_none(self):
        assert closed_form(validate((1, 1), [[1, 2], [2, 1]])) is None

    def test_zero_row_gives_zero(self):
        cf = closed_form(validate((1, 1), [[0, 0], [2, 4]]))
        assert cf is not None and cf.value == 0.0


class TestScalingFactor:
    def test_identity(self):
        assert scaling_factor((1, 1), (1, 1), (1, 1)) == 1.0

    def test_row_multiplier(self):
        assert scaling_factor((4, 1), (1, 1), (1, 1)) == pytest.approx(2.0)

    def test_column_multiplier_counts_block_size(self):
        assert scaling_factor((1, 1), (4, 1), (1, 1)) == pytest.approx(2.0)

    def test_zero_size_block_ignores_multiplier(self):
        assert scaling_factor((1,), (1, 0), (1, 0)) == pytest.approx(1.0)

    def test_oracle_against_independent_mc(self):
        base_spec = validate((1, 1), [[1, 2], [2, 1]])
        scaled_spec = validate((1, 1), [[4, 8], [2, 1]])  # d=(4,1), e=(1,1)
        factor = scaling_factor((4, 1), (1, 1), (1, 1))
        base = mc_abs_det(variance_profile(base_spec), 200_000, seed=31)
        scaled = mc_abs_det(variance_profile(scaled_spec), 200_000, seed=32)
        pf = prefactor(base_spec)
        joint = 4 * pf * math.hypot(factor * base.stderr, scaled.stderr)
        assert abs(pf * scaled.mean - factor * pf * base.mean) <= joint


class TestSplitExpectation:
    def test_triangular_coupling_ignored(self):
        res = split_expectation(validate((1, 1), [[2, 0], [5, 3]]), seed=1)
        assert res.kind == "product"
        assert res.value == pytest.approx(math.sqrt(6), rel=1e-14)

    def test_fully_coupled_none(self):
        assert split_expectation(BILINEAR, seed=1) is None

    def test_game_two_singletons(self):
        res = split_expectation(game_shape((1, 1)), seed=1)
        assert res.value == pytest.approx(1.0, rel=1e-15)


class TestDispatch:
    def test_k1_closed(self):
        res = expectation(validate((2,), [[2], [3]]), seed=2)
        assert res.kind == "closed_form"
        assert res.value == pytest.approx(math.sqrt(6), rel=1e-14)

    def test_bilinear_closed(self):
        res = expectation(BILINEAR, seed=2)
        assert res.kind == "closed_form"
        assert res.value == pytest.approx(math.pi / 2, rel=1e-15)

    def test_game_balanced_exactly_one(self):
        for m in (1, 2, 3):
            res = expectation(game_shape((m, m)), seed=2)
            assert res.value == 1.0 and res.stderr == 0.0

    def test_game_unbalanced_exactly_zero(self):
        for sizes in ((1, 2), (2, 3)):
            res = expectation(game_shape(sizes), seed=2)
            assert res.value == 0.0 and res.stderr == 0.0

    def test_monte_carlo_path(self):
        res = expectation(MC_SHAPE, samples=50_000, seed=2)
        assert res.kind == "monte_carlo"
        assert res.mc is not None and res.stderr > 0
        assert res.value == pytest.approx(res.prefactor * res.mc.mean)

    def test_zero_iff_vanishing_complex_count(self):
        for t in range(40):
            spec = random_shape(8001, t, max_n=4, max_degree=2)
            res = expectation(spec, samples=2_000, seed=100 + t)
            if bkk_count(spec) == 0:
                assert res.value == 0.0 and res.stderr == 0.0
            else:
                assert res.value > 0.0

    def test_central_formula_consistency_light(self):
        # closed form vs prefactor * MC on a few rank-one shapes
        for t in range(3):
            spec = random_rank_one_shape(8002, t, max_n=4)
            cf = closed_form(spec)
            est = mc_abs_det(variance_profile(spec), 200_000, seed=200 + t)
            pf = prefactor(spec)
            assert abs(cf.value - pf * est.mean) <= 4 * pf * est.stderr, spec


class TestBounds:
    def test_k1_all_equal(self):
        rep = bounds(validate((2,), [[2], [3]]), seed=3)
        assert rep.equality
        assert rep.upper == pytest.approx(rep.lower, rel=1e-12)
        assert rep.estimate.value == pytest.approx(rep.lower, rel=1e-12)

    def test_bilinear_frozen_values(self):
        rep = bounds(BILINEAR, seed=3)
        assert rep.upper == pytest.approx(2.0, rel=1e-12)
        assert rep.lower == pytest.approx(math.sqrt(2), rel=1e-15)
        assert rep.estimate.value == pytest.approx(math.pi / 2, rel=1e-15)
        assert not rep.equality
        assert rep.margin_upper == pytest.approx(2 - math.pi / 2, rel=1e-12)
        assert rep.margin_lower == pytest.approx(math.pi / 2 - math.sqrt(2), rel=1e-12)

    def test_game_unbalanced_all_zero(self):
        rep = bounds(game_shape((1, 2)), seed=3)
        assert rep.upper == 0.0 and rep.lower == 0.0 and rep.estimate.value == 0.0
        assert rep.equality

    def test_upper_at_least_lower_analytically(self):
        for t in range(60):
            spec = random_shape(8003, t, max_n=5, max_degree=3)
            rep = bounds(spec, samples=2_000, seed=300 + t)
            assert rep.upper + 1e-9 * max(1.0, rep.upper) >= rep.lower

    def test_bilinear_strict_gaps_with_mc_estimate(self):
        # force the Monte Carlo estimate: gaps 0.43 / 0.16 dwarf 4 stderr
        pf = prefactor(BILINEAR)
        est = mc_abs_det(variance_profile(BILINEAR), 200_000, seed=33)
        value = pf * est.mean
        se = pf * est.stderr
        assert 2.0 - value > 4 * se
        assert value - math.sqrt(2) > 4 * se


class TestRowRecursion:
    def test_k1_equality_both_sides(self):
        spec = validate((2,), [[2], [3]])
        rep = row_recursion_check(spec, 1, seed=4)
        assert rep.equality_expected
        assert rep.upper == pytest.approx(rep.middle.value, rel=1e-12)
        assert rep.lower == pytest.approx(rep.middle.value, rel=1e-12)

    def test_bilinear_frozen(self):
        rep = row_recursion_check(BILINEAR, 1, seed=4)
        assert rep.upper == pytest.approx(2.0, rel=1e-12)
        assert rep.lower == pytest.approx(math.sqrt(2), rel=1e-12)
        assert rep.middle.value == pytest.approx(math.pi / 2, rel=1e-15)
        assert not rep.equality_expected
        assert rep.holds

    def test_zero_row_everything_vanishes(self):
        spec = validate((1, 1), [[0, 0], [1, 1]])
        rep = row_recursion_check(spec, 1, seed=4)
        assert rep.upper == 0.0 and rep.lower == 0.0 and rep.middle.value == 0.0

    def test_holds_on_corpus(self):
        for t in range(20):
            spec = random_shape(8004, t, max_n=4, max_degree=2)
            for i in range(1, spec.n + 1):
                rep = row_recursion_check(spec, i, samples=20_000, seed=400 + t)
                assert rep.holds, (spec, i)


# not rank one, no product split, nonzero count, nothing to peel, n = 4: the
# Monte Carlo path
MC_SHAPE = validate((1, 3), [[1, 2], [2, 1], [1, 3], [2, 2]])
# the same shape with its blocks swapped and its rows reversed
MC_SHAPE_PERMUTED = validate((3, 1), [[2, 2], [3, 1], [1, 2], [2, 1]])


class TestCanonicalMemo:
    def test_permuted_shape_is_bitwise_equal(self):
        first = expectation(MC_SHAPE, samples=4_000, seed=6)
        mx._EXPECTATION_MEMO.clear()
        second = expectation(MC_SHAPE_PERMUTED, samples=4_000, seed=6)
        assert first.kind == second.kind == "monte_carlo"
        assert (first.value, first.stderr) == (second.value, second.stderr)
        assert first.mc.seed == second.mc.seed

    def test_mc_seed_is_derived_from_the_canonical_shape(self):
        res = expectation(MC_SHAPE_PERMUTED, samples=4_000, seed=6)
        canonical = ShapeSpec(*_canonical(MC_SHAPE.block_sizes, MC_SHAPE.degrees))
        assert res.mc.seed == derive_seed(6, canonical)
        direct = mc_abs_det(variance_profile(canonical), 4_000, res.mc.seed)
        assert res.mc.mean == direct.mean and res.mc.stderr == direct.stderr

    def test_repeat_is_served_from_the_memo_whatever_the_workers(self):
        first = expectation(MC_SHAPE, samples=4_000, seed=6, workers=1)
        assert expectation(MC_SHAPE_PERMUTED, samples=4_000, seed=6, workers=2) is first
        assert expectation(MC_SHAPE, samples=4_000, seed=7) is not first
        assert expectation(MC_SHAPE, samples=5_000, seed=6) is not first

    def test_memo_is_bounded_and_drops_the_least_recently_used(self, monkeypatch):
        assert len(mx._EXPECTATION_MEMO) == 0 and EXPECTATION_MEMO_SIZE > 0
        monkeypatch.setattr(mx, "EXPECTATION_MEMO_SIZE", 3)
        shapes = [validate((1,), [[d]]) for d in range(1, 6)]
        for spec in shapes[:3]:
            expectation(spec, seed=1)
        expectation(shapes[0], seed=1)  # now the most recently used
        for spec in shapes[3:]:
            expectation(spec, seed=1)
        assert len(mx._EXPECTATION_MEMO) == 3
        assert [key[1] for key in mx._EXPECTATION_MEMO] == [((1,),), ((4,),), ((5,),)]
        mx._EXPECTATION_MEMO.clear()
        assert len(mx._EXPECTATION_MEMO) == 0


class TestSharedEstimateErrors:
    def test_row_recursion_adds_the_terms_of_one_estimate(self):
        # the two sub-shapes are one n = 4 Monte Carlo shape, up to a swap of
        # blocks 1 and 2
        spec = validate((2, 2, 1), [[1, 1, 0], [1, 2, 1], [2, 1, 1], [1, 1, 2], [1, 1, 1]])
        rep = row_recursion_check(spec, 1, samples=4_000, seed=5)
        (_, d1, e1), (_, d2, e2) = rep.subs
        assert d1 == d2 == 1.0
        assert e1.kind == "monte_carlo" and e1 is e2
        value, se = e1.value, e1.stderr
        assert rep.upper_stderr == pytest.approx(2 * se, rel=1e-12)
        # d/dE sqrt(E**2 + E**2) = sqrt(2)
        assert rep.lower_stderr == pytest.approx(2 * value * se / rep.lower, rel=1e-12)
        assert rep.lower_stderr == pytest.approx(math.sqrt(2) * se, rel=1e-12)

    def test_product_of_one_estimate_with_itself(self):
        spec = validate(
            (1, 3, 1, 3),
            [[1, 2, 0, 0], [2, 1, 0, 0], [1, 3, 0, 0], [2, 2, 0, 0],
             [0, 0, 1, 2], [0, 0, 2, 1], [0, 0, 1, 3], [0, 0, 2, 2]],
        )
        res = expectation(spec, samples=4_000, seed=5)
        left, right = res.parts
        assert res.kind == "product" and left.kind == "monte_carlo" and left is right
        linear = abs(left.value) * right.stderr + abs(right.value) * left.stderr
        assert res.stderr == pytest.approx(linear, rel=1e-12)

    def test_independent_parts_still_add_in_quadrature(self):
        spec = validate(
            (1, 3, 1, 3),
            [[1, 2, 0, 0], [2, 1, 0, 0], [1, 3, 0, 0], [2, 2, 0, 0],
             [0, 0, 1, 2], [0, 0, 2, 1], [0, 0, 1, 4], [0, 0, 2, 2]],
        )
        res = expectation(spec, samples=4_000, seed=5)
        left, right = res.parts
        assert left.kind == right.kind == "monte_carlo" and left.mc.seed != right.mc.seed
        quadrature = math.hypot(left.value * right.stderr, right.value * left.stderr)
        assert res.stderr == pytest.approx(quadrature, rel=1e-12)


def cycle_shape(n: int, degree: int = 2) -> ShapeSpec:
    """Row i has degree 1 in block i and ``degree`` in block i + 1; the last
    row degree 1 in block 1.  One perfect matching, so the count is
    degree**(n - 1); with n > 12 blocks no product split is searched for."""
    degrees = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        degrees[i][i], degrees[i][i + 1] = 1, degree
    degrees[n - 1][0] = 1
    return validate((1,) * n, degrees)


# Row 1 lives in block 1 alone (size 2): the peel drops it, and its residual
# (1, 2) [[1, 1], [2, 1], [1, 2]] has the exact 3 x 3 value.
PEEL_SHAPE = validate((2, 2), [[3, 0], [1, 1], [2, 1], [1, 2]])
# The same with a fifth equation: its residual, with n = 4, goes to Monte Carlo.
PEEL_SHAPE_MC = validate((2, 3), [[3, 0], [1, 1], [2, 1], [1, 2], [2, 2]])
PEEL_RESIDUAL_MC = validate((1, 3), [[1, 1], [2, 1], [1, 2], [2, 2]])
MIXED_2x2 = validate((1, 1), [[1, 2], [2, 1]])


class TestExact2x2:
    def test_exact_cases(self):
        assert abs_det_2x2(np.ones((2, 2))) == pytest.approx(1.0, rel=1e-15)
        assert abs_det_2x2([[4.0, 0.0], [3.0, 9.0]]) == pytest.approx(12 / math.pi, rel=1e-15)
        assert abs_det_2x2([[0.0, 2.0], [3.0, 0.0]]) == pytest.approx(2 * math.sqrt(6) / math.pi)
        assert abs_det_2x2(np.zeros((2, 2))) == 0.0
        assert abs_det_2x2([[0.0, 5.0], [0.0, 7.0]]) == 0.0

    def test_against_monte_carlo_on_random_profiles(self):
        gen = np.random.default_rng(1801)
        for t in range(10):
            v = gen.uniform(0.2, 4.0, size=(2, 2))
            est = mc_abs_det(v, 1_000_000, seed=1810 + t)
            assert abs(abs_det_2x2(v) - est.mean) <= 4 * est.stderr, v

    def test_every_2x2_shape_left_over_is_exact(self):
        res = expectation(MIXED_2x2, samples=2, seed=2)
        assert res.kind == "exact_2x2" and res.stderr == 0.0 and res.mc is None
        assert res.value == res.prefactor * abs_det_2x2([[1, 2], [2, 1]])


MIXED_3x3 = validate((1, 2), [[1, 2], [2, 1], [1, 3]])


class TestExact3x3:
    def test_all_ones_is_the_closed_form(self):
        assert abs_det_3x3(np.ones((3, 3))) == pytest.approx(abs_det_closed_standard(3), rel=1e-14)

    def test_game_profile_matches_the_quadrature_reference(self):
        assert abs_det_3x3(np.ones((3, 3)) - np.eye(3)) == pytest.approx(0.849086394557, abs=1e-12)

    def test_profile_with_one_entry_in_a_row(self):
        # row 0 has one entry, so l2 = 0 at every node (E(1) = 1), and
        # det = z_01 * det of a 2 x 2 matrix with variances [[3, 1], [1, 1]]
        value = abs_det_3x3([[0, 2, 0], [3, 2, 1], [1, 0, 1]])
        exact = math.sqrt(2) * math.sqrt(2 / math.pi) * abs_det_2x2([[3, 1], [1, 1]])
        assert value == pytest.approx(exact, rel=1e-13)

    def test_row_and_column_permutations_agree(self):
        v = np.random.default_rng(2101).integers(1, 5, size=(3, 3)).astype(float)
        reference = abs_det_3x3(v)
        for rows in itertools.permutations(range(3)):
            for cols in itertools.permutations(range(3)):
                assert abs_det_3x3(v[np.ix_(rows, cols)]) == pytest.approx(reference, rel=1e-13)

    def test_against_monte_carlo_on_random_profiles(self):
        gen = np.random.default_rng(2102)
        for t in range(4):
            v = gen.integers(0, 5, size=(3, 3)).astype(float)
            est = mc_abs_det(v, 1_000_000, seed=2110 + t)
            assert abs(abs_det_3x3(v) - est.mean) <= 4 * est.stderr, v

    def test_every_3x3_shape_left_over_is_exact(self):
        res = expectation(MIXED_3x3, samples=2, seed=2)
        assert res.kind == "exact_3x3" and res.stderr == 0.0 and res.mc is None
        profile = variance_profile(MIXED_3x3)
        assert res.value == pytest.approx(res.prefactor * abs_det_3x3(profile), rel=1e-13)

    def test_falls_back_to_monte_carlo_when_the_levels_disagree(self, monkeypatch):
        monkeypatch.setattr(mx, "EXACT_3X3_RTOL", 0.0)
        res = expectation(MIXED_3x3, samples=4_000, seed=2)
        assert res.kind == "monte_carlo" and res.stderr > 0

    def test_row_checks_compare_exact_values(self):
        # the kind is not a reduced one: the middle is the exact value itself,
        # independent of the n = 2 sub-values, so each row is an exact check
        assert expectation(MIXED_3x3, seed=3, reduce=False) is expectation(MIXED_3x3, seed=3)
        for i in range(1, 4):
            rep = row_recursion_check(MIXED_3x3, i, seed=3)
            assert rep.middle.kind == "exact_3x3"
            assert rep.middle.stderr == rep.upper_stderr == rep.lower_stderr == 0.0
            assert rep.holds


class TestPeel:
    def test_value_is_the_residual_scaled_bitwise_under_permutations(self):
        expected = math.sqrt(3) * expectation(PEEL_RESIDUAL_MC, samples=4_000, seed=8).value
        rows = PEEL_SHAPE_MC.degrees
        for perm_rows, swap in [(rows, False), (rows[::-1], False), (rows[1:] + rows[:1], True)]:
            mx._EXPECTATION_MEMO.clear()
            sizes = PEEL_SHAPE_MC.block_sizes[::-1] if swap else PEEL_SHAPE_MC.block_sizes
            spec = validate(sizes, [r[::-1] if swap else r for r in perm_rows])
            res = expectation(spec, samples=4_000, seed=8)
            assert res.kind == "peel" and res.peeled == 3
            assert res.value == expected
            (rest,) = res.parts
            assert rest.kind == "monte_carlo"
            assert res.stderr == math.sqrt(3) * rest.stderr

    def test_agrees_with_the_full_shape_by_monte_carlo(self):
        res = expectation(PEEL_SHAPE, samples=200_000, seed=9)
        pf = prefactor(PEEL_SHAPE)
        direct = mc_abs_det(variance_profile(PEEL_SHAPE), 200_000, seed=91)
        assert abs(res.value - pf * direct.mean) <= 4 * math.hypot(res.stderr, pf * direct.stderr)

    def test_fully_peeled_shape_is_its_lower_bound(self):
        spec = cycle_shape(14)
        rep = bounds(spec, seed=3)
        assert rep.estimate.kind == "peel" and rep.estimate.parts is None
        assert rep.estimate.value == rep.lower == math.sqrt(2**13)
        assert rep.equality and rep.estimate.stderr == 0.0

    def test_long_cycle_is_exact(self):
        res = expectation(cycle_shape(1000), samples=2, seed=0)
        assert res.kind == "peel" and res.peeled == 2**999
        assert res.value == math.sqrt(2**999) == pytest.approx(2.3146e150, rel=1e-4)

    def test_product_past_float_range_goes_through_the_log(self):
        res = expectation(cycle_shape(18, degree=2**62), samples=2, seed=0)
        assert res.peeled == 2 ** (62 * 17)
        assert res.value == pytest.approx(2.0**527, rel=1e-12)


class TestIndependentRowChecks:
    @pytest.mark.parametrize("spec", [PEEL_SHAPE, MIXED_2x2], ids=["peel", "exact_2x2"])
    def test_reduced_shape_is_compared_with_its_own_estimate(self, spec, monkeypatch):
        canonical = ShapeSpec(*_canonical(spec.block_sizes, spec.degrees))
        seed = derive_seed(10, canonical)
        calls = []
        original = mx.mc_abs_det
        monkeypatch.setattr(
            mx, "mc_abs_det",
            lambda var, samples, s, workers=1: calls.append(s) or original(var, samples, s, workers),
        )
        reports = [row_recursion_check(spec, i, samples=4_000, seed=10) for i in range(1, spec.n + 1)]
        for rep in reports:
            assert rep.middle.kind == "monte_carlo" and rep.middle.mc.seed == seed
            assert rep.middle is reports[0].middle
            assert rep.holds
        assert calls.count(seed) == 1
        assert expectation(spec, samples=4_000, seed=10).kind in ("peel", "exact_2x2")

    def test_memo_entries_do_not_depend_on_call_order(self):
        first = expectation(PEEL_SHAPE_MC, samples=4_000, seed=11)
        first_mc = expectation(PEEL_SHAPE_MC, samples=4_000, seed=11, reduce=False)
        mx._EXPECTATION_MEMO.clear()
        second_mc = expectation(PEEL_SHAPE_MC, samples=4_000, seed=11, reduce=False)
        second = expectation(PEEL_SHAPE_MC, samples=4_000, seed=11)
        # equal up to the timings that MCEstimate.elapsed records
        for a, b in ((first, second), (first_mc, second_mc), (first.parts[0], second.parts[0])):
            assert (a.kind, a.value, a.stderr) == (b.kind, b.value, b.stderr)
        assert first.kind == "peel" and first_mc.kind == "monte_carlo"
        assert first_mc.mc.seed == second_mc.mc.seed != first.parts[0].mc.seed

    def test_other_kinds_are_served_unchanged(self):
        for spec in (BILINEAR, MC_SHAPE):
            assert expectation(spec, samples=4_000, seed=12, reduce=False) is expectation(
                spec, samples=4_000, seed=12
            )
