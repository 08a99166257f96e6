"""Generic complex-root counts of multihomogeneous systems.

The generic number of complex roots equals the permanent of the
column-expanded degree matrix divided by the product of block-size
factorials.  Expanding that permanent along rows or columns gives exact
recursions that scale far past the 2^n permanent cap; both routes are exact
big-integer arithmetic and must agree everywhere.

One expansion step, ``_row_terms``, serves the recursion, the forced row
pivot and the simple-reducibility search: expanding along an equation gives
one term per block of positive size and degree, weighted by that degree,
whose sub-state drops the equation and one variable of the block.  States
are canonical up to row permutations and block relabellings, both of which
leave the count invariant, and are memoized.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import shape as shape_mod
from .permanent import MatrixTooLargeError, RYSER_CAP, permanent_exact
from .shape import ShapeSpec, _factorial_product, expand_delta, validate

EXHAUSTIVE_SPLIT_K = 12
# Frames the recursion needs beyond one per equation (measured on CPython
# 3.11: `python -m mhroots.cli bkk` on the chain [[1]] * n still runs n <= 989
# at the default limit, and refuses n = 990, where the recursion would fail).
_DEPTH_HEADROOM = 2

_BKK_MEMO: dict = {}
_REDUCIBLE_MEMO: dict = {}


@dataclass(frozen=True)
class BkkValue:
    count: int
    derivation: str  # "permanent" | "row_recursion" | "column_recursion"


@dataclass(frozen=True)
class ProductSplit:
    """A decomposition into two independent sub-shapes.

    ``first_blocks`` / ``first_rows`` are the 1-based indices (in the
    original shape) of the blocks and rows moved into ``first``.  The
    coupling degrees of the remaining rows within the first block group do
    not affect the root count and are discarded.
    """

    first: ShapeSpec
    second: ShapeSpec
    first_blocks: tuple[int, ...]
    first_rows: tuple[int, ...]


def _canonical(blocks: tuple[int, ...], rows: tuple[tuple[int, ...], ...]):
    """Canonical representative under row permutation and block relabelling:
    blocks sorted by (size, column of the sorted rows), then rows sorted."""
    cols = list(zip(*sorted(rows))) or [()] * len(blocks)
    blocks1, cols1 = zip(*sorted(zip(blocks, cols)))
    return blocks1, tuple(sorted(zip(*cols1)))


def _row_terms(blocks, rows, idx):
    """(block j, degree, canonical sub-state) for each nonzero term of the
    expansion along row ``idx``: the sub-state drops the row and one
    variable of block j.  Each sub-state is ``_canonical(sub_blocks, rest)``;
    the rest is sorted and transposed once for all terms."""
    row = rows[idx]
    rest = rows[:idx] + rows[idx + 1 :]
    cols = list(zip(*sorted(rest))) or [()] * len(blocks)
    pairs = list(zip(blocks, cols))
    for j, nj in enumerate(blocks):
        if nj > 0 and row[j] > 0:
            pairs[j] = (nj - 1, cols[j])
            blocks1, cols1 = zip(*sorted(pairs))
            pairs[j] = (nj, cols[j])
            yield j, row[j], (blocks1, tuple(sorted(zip(*cols1))))


def _bkk_state(blocks: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> int:
    """Exact count for a canonical state; row expansion with min-branch pivot.

    The pivot is the first row with the fewest nonzero degrees on blocks of
    positive size; canonical states list the size-0 blocks first."""
    if not rows:
        return 1
    key = (blocks, rows)
    cached = _BKK_MEMO.get(key)
    if cached is not None:
        return cached
    dead = blocks.count(0)
    zeros = [row[dead:].count(0) for row in rows]
    pivot = zeros.index(max(zeros))
    total = 0
    for _, degree, sub in _row_terms(blocks, rows, pivot):
        # through the module global, so a wrapper sees every state lookup
        total += degree * _bkk_state(*sub)
    _BKK_MEMO[key] = total
    return total


def _nest(levels: int) -> None:
    if levels > 0:
        _nest(levels - 1)


def _check_depth(n: int) -> None:
    """Raise MatrixTooLargeError where n nested states (one per equation)
    would pass the recursion limit, probed by a trivial recursion as deep:
    the limit counts interpreter entries from C as well as frames."""
    try:
        _nest(n + _DEPTH_HEADROOM)
    except RecursionError:
        raise MatrixTooLargeError(
            f"exact recursion on n={n} equations would pass the recursion limit"
        ) from None


def bkk_recursive(spec: ShapeSpec, pivot: tuple[str, int] | None = None) -> BkkValue:
    """Generic complex-root count by exact expansion recursion.

    ``pivot`` optionally forces the first expansion: ("row", i) expands along
    equation i, ("column", j) along block j (1-based; block j must have
    positive size).  The base case with no equations counts 1 (the null
    system has one root).  No size cap; values are big integers.
    """
    blocks = spec.block_sizes
    rows = spec.degrees
    _check_depth(spec.n)
    if pivot is None:
        count = _bkk_state(*_canonical(blocks, rows))
        return BkkValue(count, "row_recursion")
    kind, index = pivot
    if kind == "row":
        if not 1 <= index <= spec.n:
            raise shape_mod.IndexOutOfRangeError(f"row index {index} outside 1..{spec.n}")
        total = sum(d * _bkk_state(*sub) for _, d, sub in _row_terms(blocks, rows, index - 1))
        return BkkValue(total, "row_recursion")
    if kind == "column":
        j = index - 1
        if not 0 <= j < spec.k:
            raise shape_mod.IndexOutOfRangeError(f"block index {index} outside 1..{spec.k}")
        nj = blocks[j]
        if nj <= 0:
            raise ValueError(f"column recursion needs block {index} to have positive size")
        sub_blocks = blocks[:j] + (nj - 1,) + blocks[j + 1 :]
        total = 0
        for i, row in enumerate(rows):
            if row[j] > 0:
                rest = rows[:i] + rows[i + 1 :]
                total += row[j] * _bkk_state(*_canonical(sub_blocks, rest))
        assert total % nj == 0, "column expansion must divide evenly"
        return BkkValue(total // nj, "column_recursion")
    raise ValueError(f"pivot kind must be 'row' or 'column', got {kind!r}")


def bkk_permanent(spec: ShapeSpec) -> BkkValue:
    """Generic complex-root count as an exact scaled permanent.

    Computes the permanent of the column-expanded degree matrix and divides
    by the product of block-size factorials (asserted divisible).  Capped at
    n <= 34; use :func:`bkk_recursive` beyond that.
    """
    n = spec.n
    if n > RYSER_CAP:
        raise MatrixTooLargeError(
            f"permanent path capped at n={RYSER_CAP}, got n={n}; use bkk_recursive"
        )
    per = permanent_exact(expand_delta(spec, sqrt=False))
    divisor = _factorial_product(spec.block_sizes)
    assert per % divisor == 0, "expanded-degree permanent must divide by block factorials"
    return BkkValue(per // divisor, "permanent")


def bkk_count(spec: ShapeSpec) -> int:
    """Exact count via the uncapped recursion (plain integer convenience)."""
    return bkk_recursive(spec).count


def _subshape(spec: ShapeSpec, block_idx: list[int], row_idx: list[int]) -> ShapeSpec:
    sizes = [spec.block_sizes[j] for j in block_idx]
    rows = [tuple(spec.degrees[i][j] for j in block_idx) for i in row_idx]
    return validate(sizes, rows)


def _split_for_subset(spec: ShapeSpec, subset: list[int]) -> ProductSplit | None:
    """Try a block subset as the self-contained top group."""
    k = spec.k
    others = [j for j in range(k) if j not in subset]
    if not subset or not others:
        return None
    n_top = sum(spec.block_sizes[j] for j in subset)
    supported = [
        i
        for i, row in enumerate(spec.degrees)
        if all(row[j] == 0 for j in others)
    ]
    if len(supported) < n_top:
        return None
    top_rows = supported[:n_top]
    bottom_rows = [i for i in range(spec.n) if i not in set(top_rows)]
    first = _subshape(spec, subset, top_rows)
    second = _subshape(spec, others, bottom_rows)
    return ProductSplit(
        first,
        second,
        tuple(j + 1 for j in subset),
        tuple(i + 1 for i in top_rows),
    )


def product_split(spec: ShapeSpec) -> ProductSplit | None:
    """Find a decomposition into two independent sub-shapes, if one exists.

    Searched up to simultaneous relabelling of blocks and equations.  For
    k <= 12 all proper block subsets are tried (smallest first), which covers
    every relabelled block-triangular pattern; for larger k only connected
    components of the row/block incidence graph are tried, so a None result
    is then not a proof that no split exists.
    """
    k = spec.k
    if k <= EXHAUSTIVE_SPLIT_K:
        masks = sorted(range(1, (1 << k) - 1), key=lambda s: (s.bit_count(), s))
        subsets = ([j for j in range(k) if s >> j & 1] for s in masks)
    else:
        subsets = (list(blocks) for blocks, _ in shape_mod.incidence_components(spec) if blocks)
    for subset in subsets:
        found = _split_for_subset(spec, subset)
        if found is not None:
            return found
    return None


def scale_shape(spec: ShapeSpec, d, e) -> ShapeSpec:
    """Shape with degrees d_i * e_j * delta_ij for nonnegative integer multipliers.

    The generic root count of the result equals
    prod(d_i) * prod(e_j ** n_j over positive blocks) times the original
    count; tests assert this law rather than assuming it.
    """
    d = [int(x) for x in d]
    e = [int(x) for x in e]
    if len(d) != spec.n:
        raise ValueError(f"need {spec.n} row multipliers, got {len(d)}")
    if len(e) != spec.k:
        raise ValueError(f"need {spec.k} column multipliers, got {len(e)}")
    if any(x < 0 for x in d) or any(x < 0 for x in e):
        raise ValueError("multipliers must be nonnegative")
    rows = [
        tuple(d[i] * e[j] * spec.degrees[i][j] for j in range(spec.k))
        for i in range(spec.n)
    ]
    return validate(spec.block_sizes, rows)


@dataclass(frozen=True)
class SimpleReducibility:
    reducible: bool
    # Witness steps (row, block) in 1-based indices of the *canonical*
    # (row-sorted, block-sorted) representation of each successive sub-shape;
    # block None marks a step whose expansion has no nonzero term at all.
    witness: tuple[tuple[int, int | None], ...] | None


def _simply_reducible_state(blocks, rows) -> tuple[bool, tuple | None]:
    if not rows:
        return True, ()
    key = (blocks, rows)
    cached = _REDUCIBLE_MEMO.get(key)
    if cached is not None:
        return cached
    result: tuple[bool, tuple | None] = (False, None)
    for idx in range(len(rows)):
        admissible = [
            (j, sub) for j, _, sub in _row_terms(blocks, rows, idx) if _bkk_state(*sub) > 0
        ]
        if not admissible:
            result = (True, ((idx + 1, None),))
            break
        if len(admissible) == 1:
            j, sub = admissible[0]
            ok, trace = _simply_reducible_state(*sub)
            if ok:
                result = (True, ((idx + 1, j + 1),) + trace)
                break
    _REDUCIBLE_MEMO[key] = result
    return result


def is_simply_reducible(spec: ShapeSpec) -> SimpleReducibility:
    """Whether the expansion recursion admits a single-branch reduction path.

    Inductive criterion: some equation has at most one block with positive
    size, positive degree, and positive sub-count, and the surviving
    sub-shape is again simply reducible.  Exactly these shapes make the
    two-sided root-count bounds tight.  Rows are scanned in order with
    backtracking, so the boolean is order-independent.
    """
    _check_depth(spec.n)
    ok, trace = _simply_reducible_state(*_canonical(spec.block_sizes, spec.degrees))
    return SimpleReducibility(ok, trace if ok else None)
