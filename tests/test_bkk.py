"""Generic root counts: permanent vs recursion routes, splits, scaling,
and simple reducibility."""

import json
import math
import sys

import numpy as np
import pytest

from mhroots import bkk
from mhroots.bkk import (
    DP_CELLS,
    _admissible_blocks,
    _canonical,
    _row_terms,
    bkk_count,
    bkk_permanent,
    bkk_recursive,
    is_simply_reducible,
    product_split,
)
from mhroots.corpus import random_shape
from mhroots.permanent import permanent_bruteforce, permanent_exact, permanent_float
from mhroots.shape import expand_delta, game_shape, validate


def _bkk_bruteforce(spec) -> int:
    """Independent route: literal injection-sum permanent, then scale."""
    per = permanent_bruteforce(expand_delta(spec, sqrt=False))
    divisor = 1
    for nj in spec.block_sizes:
        divisor *= math.factorial(nj)
    assert per % divisor == 0
    return per // divisor


class TestExamples:
    def test_univariate_degree(self):
        for d in (0, 1, 3, 7):
            assert bkk_permanent(validate((1,), [[d]])).count == d

    def test_bilinear(self):
        spec = validate((1, 1), [[1, 1], [1, 1]])
        assert bkk_permanent(spec).count == 2
        assert bkk_recursive(spec).count == 2

    def test_game_square_blocks(self):
        for m in (1, 2, 3):
            assert bkk_permanent(game_shape((m, m))).count == 1

    def test_game_unbalanced_blocks(self):
        assert bkk_permanent(game_shape((1, 2))).count == 0
        assert bkk_recursive(game_shape((2, 3))).count == 0

    def test_null_system(self):
        assert bkk_recursive(validate((0, 0), [])).count == 1

    def test_single_step_recursion(self):
        assert bkk_recursive(validate((1,), [[3]])).count == 3

    def test_explicit_pivots_on_bilinear(self):
        spec = validate((1, 1), [[1, 1], [1, 1]])
        assert bkk_recursive(spec, ("row", 1)).count == 2
        assert bkk_recursive(spec, ("row", 2)).count == 2
        assert bkk_recursive(spec, ("column", 1)).count == 2
        assert bkk_recursive(spec, ("column", 2)).count == 2

    def test_derivation_labels(self):
        spec = validate((1,), [[2]])
        assert bkk_permanent(spec).derivation == "permanent"
        assert bkk_recursive(spec, ("column", 1)).derivation == "column_recursion"


class TestRouteAgreement:
    def test_permanent_equals_recursion_200_shapes(self):
        for t in range(200):
            spec = random_shape(7001, t, max_n=6, max_degree=3)
            perm = bkk_permanent(spec).count
            assert bkk_recursive(spec).count == perm
            for i in range(1, spec.n + 1):
                assert bkk_recursive(spec, ("row", i)).count == perm
            for j in range(1, spec.k + 1):
                if spec.block_sizes[j - 1] > 0:
                    assert bkk_recursive(spec, ("column", j)).count == perm

    def test_matches_bruteforce_route(self):
        for t in range(60):
            spec = random_shape(7002, t, max_n=5, max_degree=3)
            assert bkk_permanent(spec).count == _bkk_bruteforce(spec)

    def test_positive_iff_no_zero_block(self):
        for t in range(60):
            spec = random_shape(7003, t, max_n=5, max_degree=3)
            if spec.n == 0:
                continue
            pattern = (expand_delta(spec) > 0).astype(int)
            assert (bkk_count(spec) == 0) == (permanent_exact(pattern) == 0)


class TestProductSplit:
    def test_diagonal_blocks(self):
        spec = validate((1, 1), [[2, 0], [0, 3]])
        sp = product_split(spec)
        assert sp is not None
        counts = sorted(
            (bkk_count(sp.first), bkk_count(sp.second))
        )
        assert counts == [2, 3]
        assert bkk_count(spec) == 6

    def test_fully_coupled_has_no_split(self):
        assert product_split(validate((1, 1), [[1, 1], [1, 1]])) is None

    def test_game_splits_after_relabelling(self):
        sp = product_split(game_shape((1, 1)))
        assert sp is not None
        assert bkk_count(sp.first) == 1 and bkk_count(sp.second) == 1

    def test_lower_coupling_block_is_dropped(self):
        spec = validate((1, 1), [[2, 0], [5, 3]])
        sp = product_split(spec)
        assert sp is not None
        assert {sp.first.degrees, sp.second.degrees} == {((2,),), ((3,),)}

    def test_product_law_on_corpus(self):
        for t in range(80):
            spec = random_shape(7004, t, max_n=5, max_degree=2)
            sp = product_split(spec)
            if sp is not None:
                assert bkk_count(spec) == bkk_count(sp.first) * bkk_count(sp.second)

    def test_components_path_above_exhaustive_k(self):
        # 13 blocks: only the incidence components are tried
        a, b = game_shape((1,) * 6), game_shape((1,) * 7)
        rows = [r + (0,) * 7 for r in a.degrees] + [(0,) * 6 + r for r in b.degrees]
        sp = product_split(validate(a.block_sizes + b.block_sizes, rows))
        assert sp.first_blocks == (1, 2, 3, 4, 5, 6)
        assert sp.first_rows == (1, 2, 3, 4, 5, 6)
        assert (sp.first, sp.second) == (a, b)

    def test_components_path_skips_a_component_short_of_equations(self):
        # block 1 (size 2) has one equation of its own, so only the second
        # component (12 size-1 blocks, 13 equations) can stand on top
        game = game_shape((1,) * 12)
        rows = [(1,) + (0,) * 12] + [(0,) + r for r in game.degrees] + [(0,) + (1,) * 12]
        sp = product_split(validate((2,) + (1,) * 12, rows))
        assert sp.first_blocks == tuple(range(2, 14))
        assert sp.first_rows == tuple(range(2, 14))
        assert sp.first == game
        assert sp.second == validate((2,), [[1], [0]])

    def test_single_component_above_exhaustive_k_has_no_split(self):
        assert product_split(game_shape((1,) * 13)) is None


class TestScaling:
    # degrees d_i * e_j * delta_ij multiply the count by prod d_i * prod e_j**n_j
    def test_univariate_row_scale(self):
        assert bkk_count(validate((1,), [[4]])) == 4

    def test_bilinear_row_scales(self):
        assert bkk_count(validate((1, 1), [[2, 2], [3, 3]])) == 12

    def test_scaling_law_on_corpus(self):
        rng = np.random.default_rng(21)
        for t in range(40):
            spec = random_shape(7005, t, max_n=5, max_degree=2)
            d = [int(x) for x in rng.integers(0, 4, size=spec.n)]
            e = [int(x) for x in rng.integers(0, 4, size=spec.k)]
            factor = 1
            for di in d:
                factor *= di
            for ej, nj in zip(e, spec.block_sizes):
                if nj > 0:
                    factor *= ej**nj
            rows = [[di * ej * x for ej, x in zip(e, row)] for di, row in zip(d, spec.degrees)]
            assert bkk_count(validate(spec.block_sizes, rows)) == factor * bkk_count(spec)


def _brute_count(sizes, rows) -> int:
    cols = []
    for j, nj in enumerate(sizes):
        cols.extend([j] * nj)
    if not rows:
        return 1
    mat = [[rw[j] for j in cols] for rw in rows]
    per = permanent_bruteforce(np.array(mat, dtype=int).reshape(len(rows), len(cols)))
    div = 1
    for nj in sizes:
        div *= math.factorial(nj)
    return per // div


def _admissible(sizes, rows, idx) -> list:
    """Blocks j (0-based) of positive size and degree in row ``idx`` whose
    sub-shape has a positive brute-force count."""
    rest = rows[:idx] + rows[idx + 1 :]
    return [
        j
        for j, nj in enumerate(sizes)
        if nj > 0
        and rows[idx][j] > 0
        and _brute_count(sizes[:j] + (nj - 1,) + sizes[j + 1 :], rest) > 0
    ]


def _simply_reducible_oracle(sizes: tuple, rows: tuple) -> tuple:
    """Independent checker: full existential search with backtracking,
    brute-force counts.  Returns (reducible, first-success witness); each
    sub-shape is searched in canonical form, so on a canonical shape the
    witness is in ``is_simply_reducible``'s indices."""
    if not rows:
        return True, ()
    for idx in range(len(rows)):
        admissible = _admissible(sizes, rows, idx)
        if len(admissible) == 0:
            return True, ((idx + 1, None),)
        if len(admissible) == 1:
            j = admissible[0]
            sub = sizes[:j] + (sizes[j] - 1,) + sizes[j + 1 :]
            ok, trace = _simply_reducible_oracle(*_canonical(sub, rows[:idx] + rows[idx + 1 :]))
            if ok:
                return True, ((idx + 1, j + 1),) + trace
    return False, None


class TestSimpleReducibility:
    def test_general_homogeneous_always_reducible(self):
        assert is_simply_reducible(validate((3,), [[2], [3], [1]])).reducible

    def test_bilinear_not_reducible(self):
        assert not is_simply_reducible(validate((1, 1), [[1, 1], [1, 1]])).reducible

    def test_diagonal_blocks_reducible(self):
        assert is_simply_reducible(validate((1, 1), [[2, 0], [0, 3]])).reducible

    def test_zero_count_shapes_are_reducible(self):
        assert is_simply_reducible(game_shape((1, 2))).reducible

    def test_agrees_with_full_search_oracle(self):
        for t in range(60):
            spec = random_shape(7006, t, max_n=5, max_degree=2)
            ours = is_simply_reducible(spec).reducible
            oracle, _ = _simply_reducible_oracle(spec.block_sizes, spec.degrees)
            assert ours == oracle, spec

    def test_first_single_branch_row_decides(self):
        # The walk follows the first row with at most one admissible block
        # and never backtracks; the oracle backtracks.  Shapes with several
        # blocks, zero-size blocks and zero degrees, among them shapes with
        # a single-branch row that are still not reducible.
        rng = np.random.default_rng(1616)
        single_branch_not_reducible = 0
        for _ in range(320):
            k = int(rng.integers(2, 5))
            sizes = [int(b) for b in rng.integers(0, 3, size=k)]
            while not 0 < sum(sizes) <= 6:
                sizes = [int(b) for b in rng.integers(0, 3, size=k)]
            degrees = rng.integers(0, 4, size=(sum(sizes), k)) * (rng.random((sum(sizes), k)) < 0.7)
            spec = validate(sizes, degrees.tolist())
            canonical = _canonical(spec.block_sizes, spec.degrees)
            res = is_simply_reducible(spec)
            assert (res.reducible, res.witness) == _simply_reducible_oracle(*canonical), spec
            if not res.reducible and any(
                len(_admissible(*canonical, idx)) == 1 for idx in range(spec.n)
            ):
                single_branch_not_reducible += 1
        assert single_branch_not_reducible >= 20

    def test_reducible_iff_bounds_coincide(self):
        for t in range(60):
            spec = random_shape(7007, t, max_n=5, max_degree=3)
            if spec.n == 0:
                continue
            div = 1
            for nj in spec.block_sizes:
                div *= math.factorial(nj)
            upper = permanent_float(expand_delta(spec, sqrt=True)) / div
            lower = math.sqrt(bkk_count(spec))
            tight = abs(upper - lower) <= 1e-9 * max(1.0, upper)
            assert is_simply_reducible(spec).reducible == tight, spec

    def test_witness_replays(self):
        from mhroots.bkk import _bkk_state

        for t in range(40):
            spec = random_shape(7008, t, max_n=5, max_degree=2)
            res = is_simply_reducible(spec)
            if not res.reducible:
                continue
            blocks, rows = _canonical(spec.block_sizes, spec.degrees)
            for step_row, step_block in res.witness:
                row = rows[step_row - 1]
                rest = rows[: step_row - 1] + rows[step_row:]
                admissible = []
                for j, nj in enumerate(blocks):
                    if nj > 0 and row[j] > 0:
                        sub = blocks[:j] + (nj - 1,) + blocks[j + 1 :]
                        if _bkk_state(*_canonical(sub, rest)) > 0:
                            admissible.append(j + 1)
                if step_block is None:
                    assert admissible == []
                    break
                assert admissible == [step_block]
                sub = blocks[: step_block - 1] + (blocks[step_block - 1] - 1,) + blocks[step_block:]
                blocks, rows = _canonical(sub, rest)


# Reducibility witnesses and forced-pivot counts, recorded from the row and
# column expansions before they shared one expansion step.
GOLDEN = [
    # block sizes, degrees, witness (None: not reducible), row pivots, column pivots
    ((3,), [[2], [3], [1]], ((1, 1), (1, 1), (1, 1)), [6, 6, 6], [6]),
    ((1, 1), [[2, 0], [0, 3]], ((1, 2), (1, 2)), [6, 6], [6, 6]),
    ((1, 1), [[1, 1], [1, 1]], None, [2, 2], [2, 2]),
    ((1, 1), [[1, 2], [2, 1]], None, [5, 5], [5, 5]),
    ((1, 2), [[0, 1], [1, 0], [1, 0]], ((1, None),), [0, 0, 0], [0, 0]),
    ((2, 1), [[1, 0], [2, 0], [3, 4]], ((1, 2), (1, 2), (1, 2)), [8, 8, 8], [8, 8]),
    ((1, 1), [[0, 0], [1, 2]], ((1, None),), [0, 0], [0, 0]),
    ((1, 2, 0), [[1, 2, 3], [0, 1, 1], [2, 1, 0]], None, [5, 5, 5], [5, 5, None]),
    ((2, 0, 1), [[1, 1, 0], [0, 3, 1], [2, 0, 2]], ((1, 3), (1, 3), (1, 3)), [2, 2, 2], [2, None, 2]),
]


class TestGoldenExpansion:
    @pytest.mark.parametrize("sizes, degrees, witness, row_counts, col_counts", GOLDEN)
    def test_witness_and_forced_pivots(self, sizes, degrees, witness, row_counts, col_counts):
        spec = validate(sizes, degrees)
        res = is_simply_reducible(spec)
        assert (res.reducible, res.witness) == (witness is not None, witness)
        assert [bkk_recursive(spec, ("row", i)).count for i in range(1, spec.n + 1)] == row_counts
        assert [
            bkk_recursive(spec, ("column", j)).count if nj > 0 else None
            for j, nj in enumerate(sizes, start=1)
        ] == col_counts


class TestRecursionDepth:
    def test_deep_chain_is_one_table_leaf(self):
        spec = validate((1100,), [[1]] * 1100)
        assert bkk_count(spec) == 1
        res = is_simply_reducible(spec)
        assert res.reducible and res.witness == ((1, 1),) * 1100

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_refused_at_the_real_limit(self, monkeypatch, tmp_path, capsys, wrapped):
        # 200 blocks of size 1 expand rows until the table fits: a recursion
        # as deep as that raises RecursionError (the CLI exits 3), traced or
        # not, and memoizes no partial state; the reducibility walk does not
        # recurse and computes no count
        from mhroots.cli import main

        _fresh_memos(monkeypatch, DP_CELLS)
        if wrapped:  # a pass-through wrapper, as perfbench's tracer installs
            real = bkk._bkk_state
            monkeypatch.setattr(bkk, "_bkk_state", lambda *state: real(*state))
        spec = validate((1,) * 200, np.eye(200, dtype=int).tolist())
        shallow, deep = tmp_path / "shallow.json", tmp_path / "deep.json"
        for path, n in [(shallow, 20), (deep, 200)]:
            degrees = np.eye(n, dtype=int).tolist()
            path.write_text(json.dumps({"block_sizes": [1] * n, "degrees": degrees}))
        limit = sys.getrecursionlimit()
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        sys.setrecursionlimit(depth + 150)
        try:
            with pytest.raises(RecursionError):
                bkk_count(spec)
            res = is_simply_reducible(spec)
            assert res.reducible and len(res.witness) == 200
            assert bkk._BKK_MEMO == {}
            assert main(["bkk", str(shallow)]) == 0
            capsys.readouterr()
            assert main(["bkk", str(deep)]) == 3
            assert capsys.readouterr().err.startswith("resource cap:")
        finally:
            sys.setrecursionlimit(limit)
        assert bkk_count(spec) == 1
        assert is_simply_reducible(spec).reducible


class TestScale:
    def test_game_large_recursion_is_exact_bigint(self):
        value = bkk_recursive(game_shape((3,) * 8)).count
        assert value > 2**53
        assert isinstance(value, int)


class TestRowTerms:
    def test_sub_states_are_canonical_forms(self):
        # rows in any order, as the forced ("row", i) pivot passes them
        from mhroots.bkk import _row_terms

        rng = np.random.default_rng(74)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            blocks = tuple(int(b) for b in rng.integers(0, 4, size=k))
            degrees = rng.choice([0, 0, 1, 2, 3], size=(int(rng.integers(1, 8)), k))
            rows = tuple(tuple(int(d) for d in row) for row in degrees)
            for idx, row in enumerate(rows):
                rest = rows[:idx] + rows[idx + 1 :]
                expected = [
                    (j, row[j], _canonical(blocks[:j] + (nj - 1,) + blocks[j + 1 :], rest))
                    for j, nj in enumerate(blocks)
                    if nj > 0 and row[j] > 0
                ]
                assert list(_row_terms(blocks, rows, idx)) == expected


def _fresh_memos(monkeypatch, cells):
    """Empty memos and a table cap of ``cells`` (0: pure row expansion)."""
    monkeypatch.setattr(bkk, "DP_CELLS", cells)
    monkeypatch.setattr(bkk, "_BKK_MEMO", {})
    monkeypatch.setattr(bkk, "_REDUCIBLE_MEMO", {})


def _count_with(monkeypatch, spec, cells) -> int:
    _fresh_memos(monkeypatch, cells)
    return bkk_count(spec)


def _count_admissible(blocks, rows) -> list[list[int]]:
    """Admissible blocks of each row by exact sub-counts: the oracle for
    ``_admissible_blocks``."""
    return [
        [j for j, _, sub in _row_terms(blocks, rows, idx) if bkk._bkk_state(*sub) > 0]
        for idx in range(len(rows))
    ]


class TestMemoStates:
    # States the recursion visits on the benchmark's game shapes: a change of
    # pivot rule or canonical form shows up here before it shows up in time.
    # The reducibility walk decides by matchings and adds no state; deciding
    # every row by exact sub-counts instead brings the memo to
    # ``with_reducibility``.
    @pytest.mark.parametrize(
        "sizes, count, states, with_reducibility",
        [
            ((3,) * 6, 5691917785, 1532, 1694),
            ((4,) * 5, 3993445276, 3481, 3604),
            ((2,) * 9, 1596005408152, 946, 1410),
            ((3,) * 8, 16086070907249329, 8772, 10876),
        ],
    )
    def test_game_shapes(self, monkeypatch, sizes, count, states, with_reducibility):
        _fresh_memos(monkeypatch, 0)
        spec = game_shape(sizes)
        assert bkk_count(spec) == count
        assert len(bkk._BKK_MEMO) == states
        assert not is_simply_reducible(spec).reducible
        assert len(bkk._BKK_MEMO) == states
        canonical = _canonical(spec.block_sizes, spec.degrees)
        by_counts = _count_admissible(*canonical)
        assert all(len(blocks) >= 2 for blocks in by_counts)
        assert list(_admissible_blocks(*canonical)) == by_counts
        assert len(bkk._BKK_MEMO) == with_reducibility

    @pytest.mark.parametrize(
        "sizes, count, with_reducibility",
        [
            ((3,) * 6, 5691917785, 6),
            ((4,) * 5, 3993445276, 5),
            ((2,) * 9, 1596005408152, 9),
            ((3,) * 8, 16086070907249329, 8),
        ],
    )
    def test_game_shapes_on_table_leaves(self, monkeypatch, sizes, count, with_reducibility):
        # each shape fits one table; the walk adds no state, and sub-counts
        # of every row add the shape's distinct sub-states
        _fresh_memos(monkeypatch, DP_CELLS)
        spec = game_shape(sizes)
        assert bkk_count(spec) == count
        assert len(bkk._BKK_MEMO) == 1
        assert not is_simply_reducible(spec).reducible
        assert len(bkk._BKK_MEMO) == 1
        canonical = _canonical(spec.block_sizes, spec.degrees)
        assert list(_admissible_blocks(*canonical)) == _count_admissible(*canonical)
        assert len(bkk._BKK_MEMO) == with_reducibility


def _random_state_shape(rng):
    """Zero-size blocks, all-zero rows and degrees up to 5."""
    k = int(rng.integers(1, 6))
    sizes = [int(b) for b in rng.integers(0, 5, size=k)]
    while sum(sizes) > 14:
        sizes[int(rng.integers(k))] = 0
    degrees = rng.integers(0, 6, size=(sum(sizes), k)) * (rng.random((sum(sizes), k)) < 0.8)
    degrees[rng.random(sum(sizes)) < 0.02] = 0
    return validate(sizes, degrees.tolist())


def _cycle_shape(n: int):
    """n blocks of size 1; row i has degree 1 in block i and 2 in block i + 1 mod n."""
    degrees = [[0] * n for _ in range(n)]
    for i in range(n):
        degrees[i][i], degrees[i][(i + 1) % n] = 1, 2
    return validate((1,) * n, degrees)


class TestMatchingAdmissibility:
    def test_random_states_against_sub_counts(self, monkeypatch):
        # every term of every row, on states with zero-size blocks, all-zero
        # rows and zero counts, in canonical and in drawn row order
        _fresh_memos(monkeypatch, DP_CELLS)
        rng = np.random.default_rng(2323)
        zero_counts = narrow_rows = 0
        for _ in range(1000):
            spec = _random_state_shape(rng)
            for blocks, rows in [
                (spec.block_sizes, spec.degrees),
                _canonical(spec.block_sizes, spec.degrees),
            ]:
                by_counts = _count_admissible(blocks, rows)
                assert list(_admissible_blocks(blocks, rows)) == by_counts, spec
                if bkk._bkk_state(*_canonical(blocks, rows)) > 0:
                    assert list(_admissible_blocks(blocks, rows, True)) == by_counts, spec
                else:
                    zero_counts += 1
                narrow_rows += sum(len(b) == 1 for b in by_counts)
        assert zero_counts >= 100 and narrow_rows >= 1000

    def test_cycle_of_300_computes_no_count(self, monkeypatch):
        # deciding by sub-counts takes every row's here: more than 3 GB
        _fresh_memos(monkeypatch, DP_CELLS)
        res = is_simply_reducible(_cycle_shape(300))
        assert (res.reducible, res.witness) == (False, None)
        assert bkk._BKK_MEMO == {}
        assert len(bkk._REDUCIBLE_MEMO) == 1

    def test_walk_memoizes_only_its_start(self, monkeypatch):
        # 300 steps, each into a state of its own: memory of one state, not 300
        _fresh_memos(monkeypatch, DP_CELLS)
        diagonal = validate((1,) * 300, np.eye(300, dtype=int).tolist())
        res = is_simply_reducible(diagonal)
        assert res.reducible and len(res.witness) == 300
        assert len(bkk._REDUCIBLE_MEMO) == 1
        assert is_simply_reducible(diagonal) == res  # from the memo


class TestTableLeaves:
    """Table leaves against pure row expansion (DP_CELLS = 0) as the oracle."""

    def _pass_dtypes(self, monkeypatch):
        seen = []
        real = bkk._table_pass

        def recording(plan, degrees):
            seen.append(degrees.dtype.kind)
            return real(plan, degrees)

        monkeypatch.setattr(bkk, "_table_pass", recording)
        return seen

    @pytest.mark.parametrize(
        "spec, passes",
        [
            (game_shape((3,) * 6), ["f"]),  # below 2**52
            (game_shape((3,) * 8), ["f", "u"]),  # above 2**53, below 2**62
            (  # above 2**64
                validate((3,) * 6, 7 * np.array(game_shape((3,) * 6).degrees)),
                ["f", "O"],
            ),
            (validate((1, 1), [[2**63 - 1, 1], [1, 1]]), ["O"]),  # degree past the uint64 guard
        ],
    )
    def test_each_exactness_guard_against_row_expansion(self, monkeypatch, spec, passes):
        oracle = _count_with(monkeypatch, spec, 0)
        seen = self._pass_dtypes(monkeypatch)
        assert _count_with(monkeypatch, spec, DP_CELLS) == oracle
        assert seen == passes

    def test_game_2x12_above_2_64_through_expanded_rows(self, monkeypatch):
        spec = game_shape((2,) * 12)
        count = _count_with(monkeypatch, spec, DP_CELLS)
        assert count == 19629681235869138841 > 2**64
        assert _count_with(monkeypatch, spec, 0) == count

    def test_random_states_against_row_expansion_and_permanent(self, monkeypatch):
        rng = np.random.default_rng(1313)
        for _ in range(300):
            spec = _random_state_shape(rng)
            count = _count_with(monkeypatch, spec, DP_CELLS)
            assert count == _count_with(monkeypatch, spec, 0), spec
            if spec.n <= 12:
                assert count == bkk_permanent(spec).count, spec

    @pytest.mark.parametrize("cells", [4, 64])
    def test_small_caps_keep_counts_and_witnesses(self, monkeypatch, cells):
        specs = [validate(sizes, degrees) for sizes, degrees, *_ in GOLDEN]
        specs += [random_shape(7010, t, max_n=7, max_degree=3) for t in range(60)]
        for spec in specs:
            _fresh_memos(monkeypatch, 0)
            expected = (bkk_count(spec), is_simply_reducible(spec))
            _fresh_memos(monkeypatch, cells)
            assert (bkk_count(spec), is_simply_reducible(spec)) == expected, spec

