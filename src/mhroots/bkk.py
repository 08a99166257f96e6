"""Generic complex-root counts of multihomogeneous systems.

The generic number of complex roots equals the permanent of the
column-expanded degree matrix divided by the product of block-size
factorials.  Expanding that permanent along rows or columns gives exact
recursions that scale far past the 2^n permanent cap; both routes are exact
big-integer arithmetic and must agree everywhere.

One expansion step, ``_row_terms``, serves the recursion, the forced row
pivot and the simple-reducibility walk: expanding along an equation gives
one term per block of positive size and degree, weighted by that degree,
whose sub-state drops the equation and one variable of the block.  States
are canonical up to row permutations and block relabellings, both of which
leave the count invariant, and are memoized.  The walk needs no
backtracking (the first row with at most one admissible branch decides, by
the lemma in ``is_simply_reducible``) and no count: a branch is admissible
when its sub-state's support has a perfect matching, and ``_row_terms``
builds only the one sub-state the walk steps into.

The recursion ends on table leaves.  The count of a state is the
coefficient of prod_j x_j^{n_j} in prod_i (sum_j d_ij x_j), so a state whose
table of used capacities a <= n (prod (n_j + 1) cells over blocks of
positive size) fits in ``DP_CELLS`` is counted by pushing the cells through
its rows in order, c[a + e_j] += d_ij * c[a]; only a larger state expands a
row.  The table runs in float64 when that pass ends below 2^52, in uint64
when it ends below 2^62, and in Python integers otherwise, so every count
is exact (see ``_table_count``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import shape as shape_mod
from .permanent import MatrixTooLargeError, RYSER_CAP, _max_matching, permanent_exact
from .shape import ShapeSpec, _factorial_product, expand_delta, validate

EXHAUSTIVE_SPLIT_K = 12
# Largest table of used block capacities, prod(n_j + 1) over blocks of
# positive size, that a state is counted on; larger states expand a row.
DP_CELLS = 1 << 16
# Bounds on the float64 pass's result below which it, or a uint64 pass, is
# exact: float64 holds integers below 2**53 and uint64 is exact mod 2**64;
# the margins cover the float pass's rounding.
_FLOAT_EXACT = 1 << 52
_UINT_EXACT = 1 << 62

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


def _row_terms(blocks, rows, idx, only: int | None = None):
    """(block j, degree, canonical sub-state) for each nonzero term of the
    expansion along row ``idx``, or for block ``only`` alone: the sub-state
    drops the row and one variable of block j.  Each sub-state is
    ``_canonical(sub_blocks, rest)``; the rest is sorted and transposed once
    for all terms."""
    row = rows[idx]
    rest = rows[:idx] + rows[idx + 1 :]
    cols = list(zip(*sorted(rest))) or [()] * len(blocks)
    pairs = list(zip(blocks, cols))
    for j, nj in enumerate(blocks):
        if nj > 0 and row[j] > 0 and only in (None, j):
            pairs[j] = (nj - 1, cols[j])
            blocks1, cols1 = zip(*sorted(pairs))
            pairs[j] = (nj, cols[j])
            yield j, row[j], (blocks1, tuple(sorted(zip(*cols1))))


@functools.lru_cache(maxsize=8)
def _table_plan(sizes: tuple[int, ...]) -> tuple[int, tuple[np.ndarray, ...]]:
    """Cell count and per-layer gather maps of the table for positive block
    sizes ``sizes``.

    A cell is a vector a <= sizes of used capacities.  Cells are stored by
    layer |a| = m, row-major within a layer, and one zero slot follows the
    last.  Entry [j, c] of layer m's map is the index of cell c minus e_j,
    or the zero slot when a_j = 0.
    """
    axes = [np.arange(s + 1, dtype=np.min_scalar_type(sum(sizes))) for s in sizes]
    layer = functools.reduce(np.add.outer, axes)
    order = np.argsort(layer, axis=None, kind="stable")
    index = np.empty(layer.size, np.intp)
    index[order] = np.arange(layer.size)
    index = index.reshape(layer.shape)
    # each block's map is built on the grid, then gathered into layer order
    pull = np.empty((len(sizes), layer.size), np.intp)
    grid = np.empty(layer.shape, np.intp)
    for j, row in enumerate(pull):
        block = np.moveaxis(grid, j, 0)
        block[0] = layer.size
        block[1:] = np.moveaxis(index, j, 0)[:-1]
        np.take(grid.reshape(-1), order, out=row)
    pull.flags.writeable = False  # shared by every caller through the cache
    stops = np.cumsum(np.bincount(layer.ravel()))
    return layer.size, tuple(pull[:, a:b] for a, b in zip(stops[:-1], stops[1:]))


def _table_pass(plan, degrees: np.ndarray):
    """Last cell of c[a + e_j] += d_ij * c[a] over the rows of ``degrees``,
    one layer per row, in the dtype of ``degrees``."""
    cells, maps = plan
    table = np.zeros(cells + 1, degrees.dtype)
    table[0] = 1
    stop = 1
    for row, pull in zip(degrees, maps):
        start, stop = stop, stop + pull.shape[1]
        table[start:stop] = row @ table[pull]
    return table[cells - 1]


def _table_count(sizes: tuple[int, ...], rows) -> int:
    """Exact count of ``rows`` on blocks of positive sizes ``sizes`` (the
    rows' last columns) by the layered table; on one block, a product.

    Every term is nonnegative and each cell that feeds the last one is at
    most the count, so a float64 pass that ends below 2**52 is exact; one
    that ends below 2**62 makes a uint64 pass (exact mod 2**64) exact;
    Python integers cover larger counts and degrees of 2**62 or more."""
    p = len(sizes)
    if p == 1:
        return math.prod(row[-1] for row in rows)
    plan = _table_plan(sizes)
    cols = [row[-p:] for row in rows]
    if max(map(max, cols)) < _UINT_EXACT:
        approx = _table_pass(plan, np.array(cols, dtype=np.float64))
        if approx < _FLOAT_EXACT:
            return int(approx)
        if approx < _UINT_EXACT:
            return int(_table_pass(plan, np.array(cols, dtype=np.uint64)))
    return int(_table_pass(plan, np.array(cols, dtype=object)))


def _bkk_state(blocks: tuple[int, ...], rows: tuple[tuple[int, ...], ...]) -> int:
    """Exact count for a canonical state.

    A state whose table fits in DP_CELLS cells is counted on it; a larger
    one is expanded along a row with the fewest branches, the first row
    with the most zero degrees on blocks of positive size (canonical states
    list the size-0 blocks first)."""
    if not rows:
        return 1
    key = (blocks, rows)
    cached = _BKK_MEMO.get(key)
    if cached is not None:
        return cached
    dead = blocks.count(0)
    if math.prod(nj + 1 for nj in blocks) <= DP_CELLS:
        total = _table_count(blocks[dead:], rows)
    else:
        zeros = [row[dead:].count(0) for row in rows]
        pivot = zeros.index(max(zeros))
        total = 0
        for _, degree, sub in _row_terms(blocks, rows, pivot):
            # through the module global, so a wrapper sees every state lookup
            total += degree * _bkk_state(*sub)
    _BKK_MEMO[key] = total
    return total


def bkk_recursive(spec: ShapeSpec, pivot: tuple[str, int] | None = None) -> BkkValue:
    """Generic complex-root count by exact expansion recursion.

    ``pivot`` optionally forces the first expansion: ("row", i) expands along
    equation i, ("column", j) along block j (1-based; block j must have
    positive size).  The base case with no equations counts 1 (the null
    system has one root).  No size cap; values are big integers; states
    nesting past the interpreter's limit raise RecursionError.
    """
    blocks = spec.block_sizes
    rows = spec.degrees
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


@dataclass(frozen=True)
class SimpleReducibility:
    reducible: bool
    # Witness steps (row, block) in 1-based indices of the *canonical*
    # (row-sorted, block-sorted) representation of each successive sub-shape;
    # block None marks a step whose expansion has no nonzero term at all.
    witness: tuple[tuple[int, int | None], ...] | None


def _perfect_matching(blocks, rows) -> list[int] | None:
    """Block of each row in one perfect matching of the state's support, or
    None when it has none.

    Block j gives n_j slot columns and row r lists the slots of each block
    where its degree is positive, starting at slot r mod n_j: equal rows try
    distinct slots first, so a block of many equal rows needs no search."""
    starts = list(itertools.accumulate(blocks, initial=0))
    adj = []
    for r, row in enumerate(rows):
        slots = []
        for j, nj in enumerate(blocks):
            if nj > 0 and row[j] > 0:
                first = starts[j] + r % nj
                slots += range(first, starts[j + 1])
                slots += range(starts[j], first)
        adj.append(slots)
    size, _, slot_of = _max_matching(adj, starts[-1])
    if size < len(rows):
        return None
    owner = [j for j, nj in enumerate(blocks) for _ in range(nj)]
    return [owner[s] for s in slot_of]


def _strong_components(succ: list[set[int]]) -> list[int]:
    """Label of each node's strongly connected component, by Tarjan's
    algorithm on an explicit stack."""
    order = [-1] * len(succ)  # discovery order
    low = [0] * len(succ)
    label = [-1] * len(succ)  # set when the node's component closes
    found = 0
    open_nodes = []
    for root in range(len(succ)):
        if order[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        order[root] = low[root] = found
        found += 1
        open_nodes.append(root)
        while work:
            v, children = work[-1]
            for w in children:
                if order[w] == -1:
                    order[w] = low[w] = found
                    found += 1
                    open_nodes.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if label[w] == -1:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:
                    while label[v] == -1:
                        label[open_nodes.pop()] = v
    return label


def _move_labels(blocks, rows, matched) -> list[int]:
    """Strong component of each block in the move graph of a matching:
    a -> b when a row matched to block a has positive degree on a block b
    of positive size."""
    succ = [set() for _ in blocks]
    live = [j for j, nj in enumerate(blocks) if nj > 0]
    for row, a in zip(rows, matched):
        succ[a].update(b for b in live if row[b] > 0)
    return _strong_components(succ)


def _admissible_blocks(blocks, rows, matchable: bool = False):
    """Yield the admissible blocks of each row in turn: the blocks j with
    d_ij > 0 and n_j > 0 whose term has a positive sub-count.

    Every term of a count is nonnegative, so a count is positive exactly
    when the state's column-expanded support has a perfect matching.  Given
    one, matching row i to block m, block j is admissible exactly when j = m
    or j reaches m in the move graph: moving one row along each edge of the
    path frees a slot of m for the slot of j that the term uses, and
    conversely the difference of the two matchings holds such a path.  Row i
    gives the edge m -> j, so j reaches m exactly when both lie in one
    strong component.  The matching and the components are computed once,
    when a row with two or more candidate blocks needs them.  ``matchable``
    says the state is known to have a perfect matching, so that a row with
    one candidate block needs neither."""
    matched = labels = None
    if not matchable:
        matched = _perfect_matching(blocks, rows)
        if matched is None:  # no term has a positive sub-count
            yield from ([] for _ in rows)
            return
    live = [j for j, nj in enumerate(blocks) if nj > 0]
    for idx, row in enumerate(rows):
        admissible = [j for j in live if row[j] > 0]
        if len(admissible) > 1:
            if labels is None:
                if matched is None:
                    matched = _perfect_matching(blocks, rows)
                labels = _move_labels(blocks, rows, matched)
            home = labels[matched[idx]]
            admissible = [j for j in admissible if labels[j] == home]
        yield admissible


def _simply_reducible_state(blocks, rows) -> tuple[bool, tuple | None]:
    """Walk along the first row with at most one admissible block until no
    rows are left or every row has two or more; memoize the state the walk
    started from.

    Admissibility is decided by matchings (``_admissible_blocks``), so the
    walk computes no count, and only the branch it takes is expanded.  It
    holds one state at a time and the (row, block) step of each state it
    left, so its memory is that of one state, whatever the path's length."""
    start = state = (blocks, rows)
    steps = []
    while (result := _REDUCIBLE_MEMO.get(state)) is None and state[1]:
        blocks, rows = state
        # a state entered by a step has a perfect matching: its term was admissible
        for idx, admissible in enumerate(_admissible_blocks(blocks, rows, bool(steps))):
            if len(admissible) <= 1:
                break
        if len(admissible) != 1:
            result = (True, ((idx + 1, None),)) if not admissible else (False, None)
            break
        ((j, _, sub),) = _row_terms(blocks, rows, idx, only=admissible[0])
        steps.append((idx + 1, j + 1))
        state = sub
    ok, trace = result or (True, ())
    if ok:
        trace = tuple(steps) + trace
    _REDUCIBLE_MEMO[start] = (ok, trace)
    return ok, trace


def is_simply_reducible(spec: ShapeSpec) -> SimpleReducibility:
    """Whether the expansion recursion admits a single-branch reduction path.

    Inductive criterion: some equation has at most one admissible block
    (positive size, degree and sub-count), and the surviving sub-shape is
    again simply reducible.  Exactly these shapes make the two-sided bounds
    tight.  Lemma: by U(S) = sum_j sqrt(d_ij) U(S_ij) and BKK(S) = sum_j
    d_ij BKK(S_ij), where a zero-count term has a zero upper term (same
    support), one admissible block j scales both bounds by sqrt(d_ij), and
    two or more in every row make U(S) > sqrt(BKK(S)).  So the first row in
    canonical order with at most one decides; nothing backtracks.

    A sub-count is a sum of nonnegative products, one per perfect matching
    of the sub-shape's column-expanded support, so it is positive exactly
    when that support has a perfect matching.  The walk decides
    admissibility that way and computes no count: it adds nothing to the
    count memo, and each step holds one state, its expanded support and one
    matching.
    """
    return SimpleReducibility(*_simply_reducible_state(*_canonical(spec.block_sizes, spec.degrees)))
