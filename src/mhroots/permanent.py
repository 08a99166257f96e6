"""Matrix permanents: exact big-integer and float paths, a brute-force
oracle, and the structural zero-permanent test for 0/1 patterns.

The permanent of an m-by-n matrix sums, over all one-to-one maps sigma from
rows into columns, the products prod_i d[i, sigma(i)]; it is zero when
m > n.  The workhorse is Ryser's inclusion-exclusion with Gray-code column
updates, O(2^n * n); the brute-force literal sum over injections serves as
the independent oracle at small sizes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

RYSER_CAP = 34
BRUTEFORCE_CAP = 9


class MatrixTooLargeError(RuntimeError):
    """Matrix size above the configured cap for this method."""


def _as_rows(matrix) -> list[list]:
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {arr.shape}")
    return [list(row) for row in arr.tolist()]


def _ryser_square(rows: list[list], zero, one):
    """Ryser with Gray-code updates; `zero`/`one` fix the arithmetic domain."""
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


def permanent_bruteforce(matrix):
    """Literal sum over all injections of rows into columns.

    Exact for integer input (Python ints), float otherwise; the oracle the
    fast paths are tested against.  Capped at n <= 9 columns.
    """
    rows = _as_rows(matrix)
    m = len(rows)
    n = len(rows[0]) if m else 0
    integral = all(isinstance(v, int) for row in rows for v in row)
    zero = 0 if integral else 0.0
    one = 1 if integral else 1.0
    if m > n:
        return zero
    if n > BRUTEFORCE_CAP:
        raise MatrixTooLargeError(f"brute force capped at n={BRUTEFORCE_CAP}, got {n}")
    if m == 0:
        return one
    total = zero
    for perm in itertools.permutations(range(n), m):
        prod = one
        for i in range(m):
            prod *= rows[i][perm[i]]
        total += prod
    return total


def permanent_exact(matrix) -> int:
    """Exact permanent of a nonnegative integer matrix (big integers).

    Rectangular m < n is reduced to the square case by padding with all-ones
    rows and dividing by (n - m)!; m > n gives 0.  Capped at n <= 34.
    """
    rows = _as_rows(matrix)
    m = len(rows)
    n = len(rows[0]) if m else 0
    clean = []
    for i, row in enumerate(rows):
        crow = []
        for j, v in enumerate(row):
            iv = int(v)
            if iv != v or iv < 0:
                raise ValueError(f"entry ({i + 1},{j + 1}) must be a nonnegative integer: {v!r}")
            crow.append(iv)
        clean.append(crow)
    if m > n:
        return 0
    if n > RYSER_CAP:
        raise MatrixTooLargeError(
            f"exact permanent capped at n={RYSER_CAP} (2^n subsets); "
            "for expanded degree matrices use the recursive BKK path"
        )
    pad = n - m
    for _ in range(pad):
        clean.append([1] * n)
    value = _ryser_square(clean, 0, 1)
    if pad:
        divisor = math.factorial(pad)
        assert value % divisor == 0
        value //= divisor
    return value


def permanent_float(matrix) -> float:
    """Float permanent of a square nonnegative real matrix via Ryser.

    Relative error is bounded by roughly n * 2^n machine epsilons.  Capped at
    n <= 34.
    """
    rows = _as_rows(matrix)
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m != n:
        raise ValueError(f"float path needs a square matrix, got {m}x{n}")
    if n > RYSER_CAP:
        raise MatrixTooLargeError(f"float permanent capped at n={RYSER_CAP}, got {n}")
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v < 0:
                raise ValueError(f"entry ({i + 1},{j + 1}) must be nonnegative: {v!r}")
    return float(_ryser_square([[float(v) for v in row] for row in rows], 0.0, 1.0))


def _max_matching(adj: list[list[int]], n_cols: int) -> tuple[int, list[int], list[int]]:
    """Augmenting-path maximum bipartite matching.

    Returns (size, match_row[col] or -1, match_col[row] or -1).
    """
    match_row = [-1] * n_cols
    match_col = [-1] * len(adj)

    def try_row(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_row[j] == -1 or try_row(match_row[j], seen):
                    match_row[j] = i
                    match_col[i] = j
                    return True
        return False

    size = 0
    for i in range(len(adj)):
        if try_row(i, [False] * n_cols):
            size += 1
    return size, match_row, match_col


def has_zero_block(matrix) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Whether a 0/1 pattern matrix has an all-zero k x (n + 1 - k) block
    after independent row and column relabelling; equivalently whether its
    permanent vanishes.

    Decided by bipartite matching (a transversal saturating the rows exists
    iff no such block).  Requires m <= n and entries in {0, 1}.  When True,
    returns a witness (rows, cols) of 0-based indices spanning an all-zero
    block with len(cols) >= n + 1 - len(rows).
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {arr.shape}")
    m, n = arr.shape
    if m > n:
        raise ValueError(f"zero-block test requires m <= n, got {m}x{n}")
    # np.unique only on failure: its first call imports numpy.ma
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError(f"entries must be 0/1, got values {np.unique(arr).tolist()}")
    if m == 0:
        return False, None
    adj = [[j for j in range(n) if arr[i, j]] for i in range(m)]
    size, match_row, match_col = _max_matching(adj, n)
    if size == m:
        return False, None
    # Konig-style witness: alternating reachability from unmatched rows.
    reach_row = [False] * m
    reach_col = [False] * n
    stack = [i for i in range(m) if match_col[i] == -1]
    for i in stack:
        reach_row[i] = True
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if not reach_col[j]:
                reach_col[j] = True
                owner = match_row[j]
                if owner != -1 and not reach_row[owner]:
                    reach_row[owner] = True
                    stack.append(owner)
    rows = tuple(i for i in range(m) if reach_row[i])
    cols = tuple(j for j in range(n) if not reach_col[j])
    assert rows and len(cols) >= n + 1 - len(rows)
    assert not arr[np.ix_(rows, cols)].any()
    return True, (rows, cols)
