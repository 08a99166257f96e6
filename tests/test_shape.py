"""Shape validation, index arithmetic, supports, and invariant weights."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mhroots.corpus import random_shape
from mhroots.shape import (
    DimensionMismatchError,
    EmptyShapeError,
    ExponentVector,
    NegativeDegreeError,
    ShapeError,
    SupportTooLargeError,
    enumerate_support,
    expand_delta,
    from_json,
    game_shape,
    incidence_components,
    monomial_weight,
    support_size,
    support_variances,
    validate,
)


class TestValidate:
    def test_univariate_cubic(self):
        spec = validate((1,), [[3]])
        assert spec.n == 1 and spec.k == 1

    def test_bilinear(self):
        spec = validate((1, 1), [[1, 1], [1, 1]])
        assert spec.n == 2 and spec.k == 2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate((2,), [[1], [1], [1]])

    def test_row_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate((1, 1), [[1, 1], [1]])

    def test_negative_degree(self):
        with pytest.raises(NegativeDegreeError):
            validate((1,), [[-2]])

    def test_non_integral_degree(self):
        with pytest.raises(NegativeDegreeError):
            validate((1,), [[1.5]])

    def test_empty_shape(self):
        with pytest.raises(EmptyShapeError):
            validate((), [])

    @pytest.mark.parametrize(
        "sizes, degrees",
        [((1,), [2]), (1, [[2]]), ((1,), 2), ((1, 1), [[1, 1], 1])],
    )
    def test_non_list_rejected(self, sizes, degrees):
        with pytest.raises(ShapeError, match="must be a list"):
            validate(sizes, degrees)

    @pytest.mark.parametrize(
        "sizes, degrees",
        [((True,), [[1]]), ((1,), [[True]]), ((1,), [[np.bool_(True)]]), ((1,), [[False]])],
    )
    def test_booleans_rejected(self, sizes, degrees):
        with pytest.raises(NegativeDegreeError, match="must be an integer"):
            validate(sizes, degrees)

    def test_numpy_integers_accepted(self):
        spec = validate(np.array([1, 1]), np.array([[1, 2], [2, 1]], dtype=np.int32))
        assert spec == validate((1, 1), [[1, 2], [2, 1]])
        assert validate([np.uint8(1)], [[np.int64(3)]]).degrees == ((3,),)

    @pytest.mark.parametrize(
        "degrees, error, message",
        [
            ([[1, -1]], NegativeDegreeError, "degree (1,2) is negative: -1"),
            ([[1, 2.5]], NegativeDegreeError, "degree (1,2) must be integral, got 2.5"),
            # conversion is checked across the row before the sign
            ([[-1, 2.5]], NegativeDegreeError, "degree (1,2) must be integral, got 2.5"),
            ([[1, 1], [1, "x"]], NegativeDegreeError, "degree (2,2) must be an integer, got 'x'"),
            ([[1, 1], [np.int64(-3), 1]], NegativeDegreeError, "degree (2,1) is negative: -3"),
            ([[1, 1], [1, 1, 1]], DimensionMismatchError, "degree row 2 has 3 entries, expected k=2"),
        ],
    )
    def test_messages_name_the_entry(self, degrees, error, message):
        with pytest.raises(error) as info:
            validate((1, 1), degrees)
        assert str(info.value) == message

    def test_degrees_past_int64_refused(self):
        assert validate((1,), [[2**63 - 1]]).degrees == ((2**63 - 1,),)
        for big in (2**63, 10**400, float(2**70), np.uint64(2**64 - 1)):
            with pytest.raises(ShapeError, match=r"^degree \(1,2\) exceeds 2\*\*63 - 1$"):
                validate((1, 1), [[1, big]])

    def test_integral_floats_become_ints(self):
        spec = validate((1, 1), [[1.0, 2], [2, np.int32(1)]])
        assert spec.degrees == ((1, 2), (2, 1))
        assert all(type(d) is int for row in spec.degrees for d in row)

    def test_zero_blocks_allowed(self):
        spec = validate((0, 1), [[2, 3]])
        assert spec.block_sizes == (0, 1)

    def test_json_round_trip(self):
        spec = validate((1, 1), [[1, 2], [2, 1]])
        assert from_json(spec.to_json()) == spec


class TestGameShape:
    def test_two_singleton_blocks(self):
        assert game_shape((1, 1)).degrees == ((0, 1), (1, 0))

    def test_two_pair_blocks(self):
        spec = game_shape((2, 2))
        assert spec.degrees[:2] == ((0, 1), (0, 1))
        assert spec.degrees[2:] == ((1, 0), (1, 0))

    def test_single_block(self):
        assert game_shape((1,)).degrees == ((0,),)


class TestExpandDelta:
    def test_all_ones(self):
        spec = validate((1, 1), [[1, 1], [1, 1]])
        assert expand_delta(spec).tolist() == [[1, 1], [1, 1]]

    def test_column_repetition(self):
        spec = validate((2,), [[2], [3]])
        assert expand_delta(spec).tolist() == [[2, 2], [3, 3]]

    def test_sqrt_entries(self):
        spec = validate((1, 1), [[4, 1], [1, 4]])
        assert expand_delta(spec, sqrt=True).tolist() == [[2.0, 1.0], [1.0, 2.0]]

    def test_sqrt_squares_back(self):
        for t in range(25):
            spec = random_shape(202, t)
            plain = expand_delta(spec, sqrt=False)
            rooted = expand_delta(spec, sqrt=True)
            assert np.allclose(rooted**2, plain)

    def test_zero_block_contributes_no_columns(self):
        spec = validate((0, 2), [[5, 1], [5, 1]])
        assert expand_delta(spec).shape == (2, 2)
        assert expand_delta(spec).tolist() == [[1, 1], [1, 1]]


class TestSupport:
    def test_degree_two_binary_forms(self):
        spec = validate((1,), [[2]])
        assert [a.blocks for a in enumerate_support(spec, 1)] == [
            ((2, 0),),
            ((1, 1),),
            ((0, 2),),
        ]

    def test_bilinear_product(self):
        spec = validate((1, 1), [[1, 1], [1, 1]])
        assert len(enumerate_support(spec, 1)) == 4

    def test_stars_and_bars_count(self):
        spec = validate((2,), [[3], [3]])
        assert support_size(spec, 1) == math.comb(5, 2) == 10
        assert len(enumerate_support(spec, 1)) == 10

    def test_cardinality_formula_on_corpus(self):
        for t in range(20):
            spec = random_shape(303, t)
            for i in range(1, spec.n + 1):
                expected = 1
                for d, nj in zip(spec.row(i), spec.block_sizes):
                    expected *= math.comb(d + nj, nj)
                assert support_size(spec, i) == expected
                assert len(enumerate_support(spec, i)) == expected

    def test_deterministic_order(self):
        spec = validate((1, 2), [[2, 1], [1, 1], [0, 2]])
        first = enumerate_support(spec, 1)
        second = enumerate_support(spec, 1)
        assert first == second

    def test_cap(self):
        spec = validate((3,), [[30], [1], [1]])
        with pytest.raises(SupportTooLargeError):
            enumerate_support(spec, 1, cap=100)


class TestMonomialWeight:
    def test_symmetric_cubic(self):
        assert monomial_weight(ExponentVector(((1, 1, 1),))) == Fraction(1, 6)

    def test_concentrated_degree(self):
        assert monomial_weight(ExponentVector(((5, 0, 0),))) == 1

    def test_two_linear_blocks(self):
        assert monomial_weight(ExponentVector(((1, 0), (0, 1)))) == 1

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            monomial_weight(ExponentVector(((61, 0),)))

    def test_variances_match_binomials(self):
        spec = validate((1,), [[2]])
        assert support_variances(spec, 1).tolist() == [1.0, 2.0, 1.0]


class TestWeightIdentity:
    """Sum over the support of (inverse weight) * zeta^(2a) equals 1 on unit blocks."""

    @pytest.mark.parametrize(
        "sizes, degrees",
        [
            ((1,), [[6]]),
            ((2,), [[3], [2]]),
            ((1, 2), [[2, 3], [1, 1], [0, 2]]),
            ((0, 1), [[2, 4]]),
        ],
    )
    def test_unit_norm_identity(self, sizes, degrees):
        spec = validate(sizes, degrees)
        rng = np.random.default_rng(17)
        for i in range(1, spec.n + 1):
            support = enumerate_support(spec, i)
            for _ in range(5):
                blocks = []
                for nj in spec.block_sizes:
                    v = rng.standard_normal(nj + 1)
                    blocks.append(v / np.linalg.norm(v))
                total = 0.0
                for a in support:
                    mono = 1.0
                    for bex, bvec in zip(a.blocks, blocks):
                        for e, z in zip(bex, bvec):
                            mono *= z**e
                    total += float(1 / monomial_weight(a)) * mono * mono
                assert total == pytest.approx(1.0, rel=1e-10)


class TestIncidenceComponents:
    def test_degree_zero_equation_is_its_own_component(self):
        spec = validate((1, 1), [[0, 0], [1, 1]])
        assert incidence_components(spec) == [((0, 1), (1,)), ((), (0,))]

    def test_untouched_block_is_its_own_component(self):
        spec = validate((1, 0, 1), [[2, 0, 0], [0, 0, 3]])
        assert incidence_components(spec) == [((0,), (0,)), ((1,), ()), ((2,), (1,))]

    def test_order_is_by_smallest_member_blocks_first(self):
        # equation 1 joins blocks 1 and 3; equation 2 stays in block 2
        spec = validate((1, 1, 0), [[1, 0, 1], [0, 4, 0]])
        assert incidence_components(spec) == [((0, 2), (0,)), ((1,), (1,))]
        # relabelling the rows does not reorder the components
        swapped = validate((1, 1, 0), [[0, 4, 0], [1, 0, 1]])
        assert incidence_components(swapped) == [((0, 2), (1,)), ((1,), (0,))]

    def test_connected_game_is_one_component(self):
        spec = game_shape((1, 1, 1))
        assert incidence_components(spec) == [((0, 1, 2), (0, 1, 2))]
