"""Matrix permanents: exact big-integer and float paths, a brute-force
oracle, and the bipartite matching on which the structural zero test of
``bkk._perfect_matching`` rests.

The permanent of an m-by-n matrix sums, over all one-to-one maps sigma from
rows into columns, the products prod_i d[i, sigma(i)]; it is zero when
m > n.  The workhorse is Ryser's inclusion-exclusion with Gray-code column
updates, O(2^n * n): one kernel, ``_ryser``, walks the Gray code in chunks
of numpy array operations and serves both domains, float64 for
``permanent_float`` and Python integers for ``permanent_exact``.  The
brute-force literal sum over injections serves as the independent oracle at
small sizes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

RYSER_CAP = 34
BRUTEFORCE_CAP = 9
# Gray-code steps per chunk of the Ryser kernel: its (steps, n) buffers stay
# near 1024 * 34 entries, so larger chunks only add resident memory.
RYSER_CHUNK = 1024


class MatrixTooLargeError(RuntimeError):
    """Matrix size above the configured cap for this method."""


def _as_rows(matrix) -> list[list]:
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {arr.shape}")
    return [list(row) for row in arr.tolist()]


def _ryser(cols: np.ndarray):
    """Permanent of the square matrix whose column j is ``cols[j]``, by
    Ryser's inclusion-exclusion in Gray-code order; float64 or object
    (Python int) ``cols`` fix the arithmetic domain.

    Step s flips column ctz(s), added when that bit of s ^ (s >> 1) is set.
    A chunk of steps gathers its signed column deltas, adds the carried row
    sums to the first, and rebuilds every step's row sums by a sequential
    cumsum; products run over the columns left to right, and the signed
    products accumulate onto the carried total by a second cumsum.  So every
    sum and product, and its rounding, is the one a step-by-step loop forms.
    """
    n = len(cols)
    if n == 0:
        return np.ones((), cols.dtype)[()]
    signed = np.stack((-cols, cols))
    sums = np.zeros(n, cols.dtype)
    total = np.zeros(1, cols.dtype)
    end = 1 << n
    for base in range(0, end, RYSER_CHUNK):
        s = np.arange(max(base, 1), min(base + RYSER_CHUNK, end), dtype=np.int64)
        low = s & -s
        flipped = np.frexp(low.astype(np.float64))[1] - 1
        added = ((s ^ (s >> 1)) & low) != 0
        rowsums = signed[added.astype(np.intp), flipped]
        rowsums[0] += sums
        np.cumsum(rowsums, axis=0, out=rowsums)
        sums = rowsums[-1]
        prod = rowsums[:, 0].copy()
        for i in range(1, n):
            prod *= rowsums[:, i]
        # subset parity is s & 1; a subset of n's parity adds
        first = 0 if (s[0] ^ n) & 1 else 1
        prod[first::2] = -prod[first::2]
        prod[0] += total[0]
        np.cumsum(prod, out=prod)
        total = prod[-1:]
    return total[0]


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
            try:
                iv = int(v)
            except (ValueError, OverflowError):  # NaN and infinities
                iv = -1
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
    value = _ryser(np.array(clean, dtype=object).T)
    if pad:
        divisor = math.factorial(pad)
        assert value % divisor == 0
        value //= divisor
    return value


def _check_finite_nonnegative(arr: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first entry that is NaN, infinite or negative."""
    ok = (arr >= 0) & (arr < np.inf)  # False for NaN
    if not ok.all():
        i, j = np.argwhere(~ok)[0]
        raise ValueError(
            f"{what} ({i + 1},{j + 1}) must be finite and nonnegative: {float(arr[i, j])!r}"
        )


def permanent_float(matrix) -> float:
    """Float permanent of a square nonnegative real matrix via Ryser.

    The rounding is that of the sequential Gray-order sums and products
    (the tests pin it on the benchmark's rank-one shapes); cancellation
    between the signed subset terms makes it grow with n, to about 4e-8
    relative on an 18 x 18 expanded degree matrix.  Entries must be finite
    and nonnegative.  Capped at n <= 34.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"need a 2-d matrix, got shape {arr.shape}")
    m, n = arr.shape
    if m != n:
        raise ValueError(f"float path needs a square matrix, got {m}x{n}")
    if n > RYSER_CAP:
        raise MatrixTooLargeError(f"float permanent capped at n={RYSER_CAP}, got {n}")
    _check_finite_nonnegative(arr, "entry")
    return float(_ryser(arr.T))


def _max_matching(adj: list[list[int]], n_cols: int) -> tuple[int, list[int], list[int]]:
    """Augmenting-path maximum bipartite matching.

    Returns (size, match_row[col] or -1, match_col[row] or -1).
    """
    match_row = [-1] * n_cols
    match_col = [-1] * len(adj)

    def try_row(root: int, seen: list[bool]) -> bool:
        # depth-first on a stack of [row, its untried columns, column tried]
        stack = [[root, iter(adj[root]), -1]]
        while stack:
            top = stack[-1]
            for j in top[1]:
                if not seen[j]:
                    seen[j] = True
                    top[2] = j
                    if match_row[j] == -1:
                        for i, _, j in stack:
                            match_row[j], match_col[i] = i, j
                        return True
                    stack.append([match_row[j], iter(adj[match_row[j]]), -1])
                    break
            else:
                stack.pop()
        return False

    size = 0
    for i in range(len(adj)):
        if try_row(i, [False] * n_cols):
            size += 1
    return size, match_row, match_col
