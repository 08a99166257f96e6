"""Problem instances: block sizes, degree matrices, supports, and weights.

A problem instance is the pair (block_sizes, degrees): k blocks of
homogeneous variables with n_j non-homogenizing coordinates each (block j has
n_j + 1 coordinates in total), and an n-by-k matrix of nonnegative integer
degrees, one row per equation.  Exact determinacy requires the number of
equations n to equal sum(block_sizes).

Row and block indices in the public API are 1-based, matching the standard
mathematical convention for these systems; array internals are 0-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

SUPPORT_CAP = 10**7
WEIGHT_DEGREE_CAP = 60
# Largest degree accepted: degree matrices and variance profiles are int64.
MAX_DEGREE = 2**63 - 1


class ShapeError(ValueError):
    """Invalid problem instance."""


class DimensionMismatchError(ShapeError):
    """sum(block_sizes) does not match the number of degree rows."""


class NegativeDegreeError(ShapeError):
    """A degree or block size is negative or non-integral."""


class EmptyShapeError(ShapeError):
    """No blocks at all (k = 0)."""


class IndexOutOfRangeError(ShapeError):
    """Row or block index outside 1..n or 1..k."""


class SupportTooLargeError(RuntimeError):
    """Support enumeration would exceed the configured cap."""


class WeightCapError(SupportTooLargeError, ValueError):
    """A block degree above the monomial-weight cap: a resource cap, and a
    ValueError as an argument the weight does not take."""


@dataclass(frozen=True)
class ShapeSpec:
    """Validated immutable problem instance.

    Construct through :func:`validate` rather than directly; direct
    construction skips all invariant checks.
    """

    block_sizes: tuple[int, ...]
    degrees: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.block_sizes)

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    def degree_matrix(self) -> np.ndarray:
        """Degrees as an (n, k) integer array (a copy)."""
        return np.array(self.degrees, dtype=np.int64).reshape(len(self.degrees), self.k)

    def row(self, i: int) -> tuple[int, ...]:
        """Degree row of equation i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRangeError(f"row index {i} outside 1..{self.n}")
        return self.degrees[i - 1]

    def to_json(self) -> dict:
        return {
            "block_sizes": list(self.block_sizes),
            "degrees": [list(r) for r in self.degrees],
        }


@dataclass(frozen=True)
class ExponentVector:
    """One monomial exponent: per block j, a tuple of n_j + 1 nonnegative ints."""

    blocks: tuple[tuple[int, ...], ...]

    def flat(self) -> tuple[int, ...]:
        """All exponents concatenated in block order."""
        return tuple(itertools.chain.from_iterable(self.blocks))


def _as_int(value, what: str) -> int:
    if isinstance(value, (bool, np.bool_)):
        raise NegativeDegreeError(f"{what} must be an integer, got {value!r}")
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: infinities
        raise NegativeDegreeError(f"{what} must be an integer, got {value!r}") from exc
    if out != value:
        raise NegativeDegreeError(f"{what} must be integral, got {value!r}")
    return out


def _as_list(value, what: str) -> list:
    try:
        return list(value)
    except TypeError as exc:
        raise ShapeError(f"{what} must be a list, got {value!r}") from exc


def validate(block_sizes: Sequence[int], degrees: Iterable[Sequence[int]]) -> ShapeSpec:
    """Validate raw shape input and return an immutable ShapeSpec.

    Raises ShapeError when block_sizes, degrees or a degree row is not a
    list or a degree exceeds MAX_DEGREE, EmptyShapeError when k = 0,
    NegativeDegreeError for negative, non-integral or boolean entries, and
    DimensionMismatchError when sum(block_sizes) differs from the number of
    degree rows or a row has the wrong length.
    """
    sizes = tuple(_as_int(b, "block size") for b in _as_list(block_sizes, "block_sizes"))
    if len(sizes) == 0:
        raise EmptyShapeError("at least one block is required")
    for j, b in enumerate(sizes, start=1):
        if b < 0:
            raise NegativeDegreeError(f"block {j} has negative size {b}")
    rows = []
    for idx, row in enumerate(_as_list(degrees, "degrees"), start=1):
        entries = tuple(_as_list(row, f"degree row {idx}"))
        # a row of Python ints in range, the usual case, needs no message
        plain = all(type(d) is int and 0 <= d <= MAX_DEGREE for d in entries)
        if not plain:
            entries = tuple(
                _as_int(d, f"degree ({idx},{pos})") for pos, d in enumerate(entries, start=1)
            )
        if len(entries) != len(sizes):
            raise DimensionMismatchError(
                f"degree row {idx} has {len(entries)} entries, expected k={len(sizes)}"
            )
        if not plain:
            for pos, d in enumerate(entries, start=1):
                if d < 0:
                    raise NegativeDegreeError(f"degree ({idx},{pos}) is negative: {d}")
                if d > MAX_DEGREE:
                    raise ShapeError(f"degree ({idx},{pos}) exceeds 2**63 - 1")
        rows.append(entries)
    n = sum(sizes)
    if len(rows) != n:
        raise DimensionMismatchError(
            f"sum(block_sizes)={n} but degree matrix has {len(rows)} rows"
        )
    return ShapeSpec(sizes, tuple(rows))


def from_json(data: dict) -> ShapeSpec:
    """Build a ShapeSpec from the canonical JSON form."""
    try:
        sizes = data["block_sizes"]
        degrees = data["degrees"]
    except (KeyError, TypeError) as exc:
        raise ShapeError("shape JSON needs 'block_sizes' and 'degrees'") from exc
    return validate(sizes, degrees)


def block_of(spec: ShapeSpec, i: int) -> int:
    """Block index owning equation row i (both 1-based).

    Returns the unique j with n_1 + ... + n_{j-1} < i <= n_1 + ... + n_j.
    """
    if not 1 <= i <= spec.n:
        raise IndexOutOfRangeError(f"row index {i} outside 1..{spec.n}")
    total = 0
    for j, nj in enumerate(spec.block_sizes, start=1):
        total += nj
        if i <= total:
            return j
    raise AssertionError("unreachable")


def incidence_components(spec: ShapeSpec) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Connected components of the graph joining block j and equation i when
    degree (i, j) is positive, as (blocks, rows) pairs of ascending 0-based
    indices.  A degree-zero equation and an untouched block are components of
    their own.  Components are ordered by smallest member, blocks first.
    """
    k = spec.k
    parent = list(range(k + spec.n))  # blocks, then rows

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, row in enumerate(spec.degrees):
        for j, d in enumerate(row):
            if d > 0:
                parent[find(k + i)] = find(j)
    groups: dict[int, list[int]] = {}
    for x in range(len(parent)):
        groups.setdefault(find(x), []).append(x)
    return [
        (tuple(x for x in members if x < k), tuple(x - k for x in members if x >= k))
        for members in groups.values()
    ]


def game_shape(block_sizes: Sequence[int]) -> ShapeSpec:
    """Degree pattern of the game/quasiequilibrium system.

    Each equation has degree 0 in its own block and degree 1 in every other
    block.
    """
    sizes = tuple(_as_int(b, "block size") for b in block_sizes)
    if len(sizes) == 0:
        raise EmptyShapeError("at least one block is required")
    n = sum(sizes)
    rows = []
    owner = []
    for j, nj in enumerate(sizes, start=1):
        owner.extend([j] * nj)
    for i in range(n):
        rows.append(tuple(0 if owner[i] == j else 1 for j in range(1, len(sizes) + 1)))
    return validate(sizes, rows)


def expand_delta(spec: ShapeSpec, sqrt: bool = False) -> np.ndarray:
    """Column-expanded n-by-n degree matrix.

    Column group j consists of n_j identical copies of degree column j
    (blocks with n_j = 0 contribute no columns).  With ``sqrt`` set, entries
    are the entrywise square roots (float); otherwise exact int64.
    """
    n = spec.n
    dmat = spec.degree_matrix()
    cols = []
    for j, nj in enumerate(spec.block_sizes):
        cols.extend([dmat[:, j]] * nj)
    if cols:
        out = np.column_stack(cols)
    else:
        out = np.zeros((n, 0), dtype=np.int64)
    if sqrt:
        return np.sqrt(out.astype(np.float64))
    return out


def support_size(spec: ShapeSpec, i: int) -> int:
    """Number of monomials of equation i: prod_j C(delta_ij + n_j, n_j)."""
    row = spec.row(i)
    size = 1
    for d, nj in zip(row, spec.block_sizes):
        size *= math.comb(d + nj, nj)
    return size


def _compositions(total: int, parts: int):
    """All ways to write ``total`` as ``parts`` nonnegative ints, first part descending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_support(spec: ShapeSpec, i: int, cap: int = SUPPORT_CAP) -> list[ExponentVector]:
    """All exponent vectors of equation i, in a fixed deterministic order.

    Per block the exponents run with leading coordinates decreasing (the
    natural monomial order x^d, x^(d-1) y, ..., y^d); blocks vary with the
    last block fastest.  Raises SupportTooLargeError above ``cap``.
    """
    size = support_size(spec, i)
    if size > cap:
        raise SupportTooLargeError(
            f"support of equation {i} has {size} monomials, above cap {cap}"
        )
    row = spec.row(i)
    per_block = [
        list(_compositions(d, nj + 1)) for d, nj in zip(row, spec.block_sizes)
    ]
    return [ExponentVector(combo) for combo in itertools.product(*per_block)]


def _factorial_product(values) -> int:
    return math.prod(map(math.factorial, values))


def monomial_weight(a: ExponentVector, degree_cap: int = WEIGHT_DEGREE_CAP) -> Fraction:
    """Invariant weight of a monomial: the product over blocks of the inverse
    multinomial coefficient (prod_h a_jh!) / (sum_h a_jh)!.

    The corresponding coefficient variance in the invariant Gaussian ensemble
    is the reciprocal of this weight.  Exact rational arithmetic; a block
    degree above ``degree_cap`` raises WeightCapError, a guard against
    runaway factorials.
    """
    out = Fraction(1)
    for block in a.blocks:
        total = sum(block)
        if total > degree_cap:
            raise WeightCapError(
                f"block degree {total} exceeds weight degree cap {degree_cap}"
            )
        out *= Fraction(_factorial_product(block), math.factorial(total))
    return out


def support_variances(spec: ShapeSpec, i: int, cap: int = SUPPORT_CAP) -> np.ndarray:
    """Coefficient variances (inverse weights) aligned with enumerate_support order."""
    return np.array(
        [1.0 / float(monomial_weight(a)) for a in enumerate_support(spec, i, cap)],
        dtype=np.float64,
    )


def support_exponent_matrix(spec: ShapeSpec, i: int, cap: int = SUPPORT_CAP) -> np.ndarray:
    """Exponents of equation i as an integer array of shape (size, sum(n_j + 1)).

    Coordinates are concatenated block by block; aligned with
    enumerate_support order.
    """
    support = enumerate_support(spec, i, cap)
    return np.array([a.flat() for a in support], dtype=np.int64)
