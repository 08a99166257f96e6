"""Ground-truth simulation: draw actual random systems and count real roots.

Coefficients are independent mean-zero Gaussians whose variances are the
reciprocal invariant monomial weights.  Counting is exactly solvable for a
restricted family of shapes: systems whose row/block incidence graph
decomposes into univariate pieces (one equation in one size-1 block), the
bilinear 2x2 pattern, degree-zero rows (constant equations, which force zero
roots), and empty blocks.

Every countable component reduces to one binary form per system: a
univariate equation is its own form, and a bilinear pair eliminates its
second block, leaving a quadratic in the first.  One counter counts the
forms from sign variations of each row's Sturm chain; the rows whose chain
comes too close to a vanishing leading coefficient (near-multiple roots,
nearly real complex pairs) and rows with a root at infinity are counted by
companion-matrix eigenvalues.  ``_count`` reduces and counts one batch of
systems, multiplies the counts of a shape's components and merges their
flags.  ``count_pieces`` draws and counts STURM_CHUNK systems at a time,
the one piece loop, with one workspace for all its pieces: so a pass
allocates no piece-sized array, and its speed does not depend on what the
C heap held before.  Its callers hold one piece at a time whatever the
number of samples: ``empirical_expectation`` and ``mhroots simulate`` fold
each piece into exact integer moments (``fold_counts``), and only
``sample_counts``, the per-sample API, keeps every count.
``count_real_roots`` counts a single system as a one-row batch.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import rng
from .gaussian import MCEstimate, check_samples
from .shape import (
    ShapeSpec,
    incidence_components,
    support_size,
    support_variances,
)

IMAG_TOL = 1e-8
INFINITY_TOL = 1e-12
# Rows per Sturm chain pass: the two live members of a pass stay in cache.
STURM_CHUNK = 8192


class ZeroPolynomialError(ValueError):
    """All coefficients vanish; no root count is defined."""


class UnsupportedFamilyError(ValueError):
    """Shape outside the exactly countable families."""


@dataclass(frozen=True)
class SystemSample:
    """One coefficient draw for every equation of a shape.

    ``coefficients[i]`` is aligned with ``enumerate_support(spec, i + 1)``.
    """

    spec: ShapeSpec
    coefficients: list[np.ndarray]


def _coefficient_layout(spec: ShapeSpec):
    """(offsets, sigma): equation i's coefficients are the columns
    offsets[i]..offsets[i + 1] of a draw, with standard deviations sigma."""
    sizes = [support_size(spec, i) for i in range(1, spec.n + 1)]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    sigma = np.concatenate(
        [np.sqrt(support_variances(spec, i)) for i in range(1, spec.n + 1)]
    ) if spec.n else np.zeros(0)
    return offsets, sigma


def _equations(z: np.ndarray, offsets, sigma) -> list[np.ndarray]:
    """Scale the standard normals ``z`` in place by ``sigma`` and split their
    columns at ``offsets`` into per-equation coefficient arrays."""
    z *= sigma
    return [z[:, offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


def sample_system(spec: ShapeSpec, seed: int, index: int = 0) -> SystemSample:
    """Draw one system at stream position ``index`` under the invariant weights."""
    offsets, sigma = _coefficient_layout(spec)
    z = rng.normals(seed, index, 1, int(offsets[-1]))
    return SystemSample(spec, [c[0].copy() for c in _equations(z, offsets, sigma)])


# ---------------------------------------------------------------------------
# the real-root counter of binary forms, over batches of coefficient rows


class _Workspace:
    """Named buffers that every pass of one counting call reuses.

    ``take`` returns a C-contiguous view of the named buffer, which is
    allocated on first use and grows only when a later view does not fit;
    a call's pieces have at most as many rows as its first.  Every pass
    writes its piece-sized arrays here with ``out=``, so a call allocates
    them once: fresh ones of about a megabyte per pass would come and go
    through mmap or a trimmed heap top, and the pass would run at a speed
    set by glibc's heap thresholds, which earlier large arrays raise.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def _count_univariate(
    coeffs: np.ndarray, tau: float = IMAG_TOL, bins: int = 0, work: _Workspace | None = None
):
    """Real projective root counts of binary forms, one per (N, d+1) row.

    Coefficients are ordered from the highest power of the first coordinate
    downward.  Returns (counts, flag_rows, binned): flag_rows maps row ->
    flags for the rare boundary rows, and binned counts the roots of all
    rows whose projective angle arctan2(1, t) falls in each of ``bins``
    equal bins of [0, pi).  Rows are counted by ``_sturm_count``; the rows
    it is unsure of, and rows with vanishing leading coefficients, go
    through ``_eig_count`` and keep its flags.  Every row is counted in one
    pass, so callers hand over at most STURM_CHUNK rows at a time (fewer
    with bins: ``uniformity_check``).  The pass runs in ``work`` (a fresh
    workspace when None), and the counts it returns are a view of it.
    """
    work = _Workspace() if work is None else work
    c = np.asarray(coeffs, dtype=np.float64)
    rows, width = c.shape
    # one coefficient per row of p: reducing across rows is fast, along them is not
    p = work.take("p", (width, rows))
    np.copyto(p, c.T)
    scale = work.take("scale", (rows,))
    np.max(np.abs(p, out=work.take("scratch", (width, rows))), axis=0, out=scale)
    if np.any(scale == 0.0):
        raise ZeroPolynomialError("all coefficients are zero")
    if width == 1:
        # constant equations never vanish (almost surely): zero roots
        return np.zeros(rows, dtype=np.int64), {}, np.zeros(bins, dtype=np.int64)
    # a vanishing leading coefficient: a root at infinity, never sure
    sure = work.take("sure", (rows,), bool)
    np.less(
        np.abs(p[0], out=work.take("lead", (rows,))),
        np.multiply(INFINITY_TOL, scale, out=work.take("q", (rows,))),
        out=sure,
    )
    np.logical_not(sure, out=sure)
    p /= scale
    counts, binned = _sturm_count(p, sure, tau, bins, work)
    flag_rows: dict[int, tuple[str, ...]] = {}
    idx = np.nonzero(~sure)[0]
    if idx.size:
        counts[idx], eig_flags, angles = _eig_count(c[idx], tau, want_angles=bins > 0)
        flag_rows = {int(idx[i]): fl for i, fl in eig_flags.items()}
        if bins:
            binned += np.histogram(angles, bins=bins, range=(0.0, math.pi))[0]
    return counts, flag_rows, binned


def _sturm_count(p: np.ndarray, sure: np.ndarray, tau: float, bins: int, work: _Workspace):
    """Real root counts of the polynomials in the columns of p, (d+1, N)
    with d >= 1, from sign variations of their Sturm chains.

    Column r holds the coefficients of p_r(t), highest power first, scaled
    to max-abs 1; only the columns marked in ``sure`` can stay sure, and
    ``sure`` is narrowed in place.  The chain runs p, p', then the negated
    remainders of dividing each member by the next, each rescaled to
    max-abs 1; only the last two members are kept, in ``p`` (overwritten)
    and a buffer of ``work``.  The count is V(-inf) - V(+inf), read from
    the signs of the leading coefficients.  A column stays sure while every
    member's leading coefficient exceeds ``tau`` on the unit scale, both
    before and after its rescaling (so no column is sure at tau >= 1).

    Returns (counts, binned): binned sums V(cot theta_{k+1}) -
    V(cot theta_k) over the sure columns, the roots whose angle
    arctan2(1, t) lies in [theta_k, theta_{k+1}), for ``bins`` equal bins
    of [0, pi).
    """
    d, rows = p.shape[0] - 1, p.shape[1]
    scale, q, lead = (work.take(name, (rows,)) for name in ("scale", "q", "lead"))
    neg, b_neg, mask = (work.take(name, (rows,), bool) for name in ("neg", "b_neg", "mask"))
    sure &= np.greater(np.abs(p[0], out=lead), tau, out=mask)
    np.less(p[0], 0, out=neg)
    changes = work.take("changes", (rows,), np.int64)
    changes[...] = 0
    if bins:
        theta = np.linspace(0.0, math.pi, bins + 1)[1:-1]
        edges = (np.cos(theta) / np.sin(theta))[:, None]
        values = work.take("edge_values", (bins - 1, rows))
        edge_neg, edge_b_neg, edge_mask = (
            work.take(name, (bins - 1, rows), bool) for name in ("edge_neg", "edge_b_neg", "edge_mask")
        )
        np.less(_horner(p, edges, values), 0, out=edge_neg)
        edge_changes = work.take("edge_changes", (bins - 1, rows), np.int64)
        edge_changes[...] = 0
    a = p
    b = np.multiply(p[:-1], np.arange(d, 0, -1, dtype=np.float64)[:, None], out=work.take("b", (d, rows)))
    # holds |b|, then the quotient step's a - q1 b
    scratch = work.take("scratch", (d, rows))
    # unsure columns may overflow or divide by zero; their results are dropped
    with np.errstate(all="ignore"):
        while True:
            np.max(np.abs(b, out=scratch[: len(b)]), axis=0, out=scale)
            np.maximum(scale, 1.0, out=q)
            q *= tau
            sure &= np.greater(np.abs(b[0], out=lead), q, out=mask)
            b /= scale
            np.less(b[0], 0, out=b_neg)
            changes += np.not_equal(b_neg, neg, out=mask)
            neg, b_neg = b_neg, neg
            if bins:
                np.less(_horner(b, edges, values), 0, out=edge_b_neg)
                edge_changes += np.not_equal(edge_b_neg, edge_neg, out=edge_mask)
                edge_neg, edge_b_neg = edge_b_neg, edge_neg
            if b.shape[0] == 1:
                break
            # a - (q1 t + q0) b, negated: two multiply-adds per coefficient;
            # the remainder takes the rows of a that no later step reads
            tail = b[1:]
            np.divide(a[0], b[0], out=q)
            top = np.multiply(q, tail, out=scratch[: len(tail)])
            np.subtract(a[1:-1], top, out=top)
            np.divide(top[0], b[0], out=q)
            rem = np.multiply(q, tail, out=a[: len(tail)])
            rem[:-1] -= top[1:]
            rem[-1] -= a[-1]
            a, b = b, rem
    binned = np.zeros(0, dtype=np.int64)
    if bins:
        # V at +inf, at the interior edges (decreasing), and at -inf
        inside = int(changes.sum(where=sure))
        at_edges = edge_changes.sum(axis=1, where=sure).tolist()
        binned = np.diff([inside, *at_edges, d * int(np.count_nonzero(sure)) - inside])
    # the counts d - 2 * changes, in place
    changes *= -2
    changes += d
    return changes, binned


def _horner(p: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Values (len(x), N) of the polynomials in the columns of p at x, a
    column, written to ``out``."""
    out[...] = p[0]
    for coeff in p[1:]:
        out *= x
        out += coeff
    return out


def _eig_count(c: np.ndarray, tau: float, want_angles: bool = False):
    """Real projective root counts of binary forms from companion-matrix
    eigenvalues, one per (N, d+1) row of ``c`` (no row zero).

    Returns (counts, flag_rows, angles): angles concatenates the projective
    angles of all counted roots (only when requested).  An eigenvalue is
    real when its imaginary part is at most ``tau * (1 + |lambda|)``.
    Leading coefficients below INFINITY_TOL of the row's largest, of any
    multiplicity, count one root at infinity (angle 0.0) flagged
    ``infinity_root``, plus the roots of the rest of the row; near-coincident
    real roots flag ``multiple_root``.  A width-1 row is a nonzero constant:
    no roots.
    """
    n_rows, width = c.shape
    counts = np.zeros(n_rows, dtype=np.int64)
    flag_rows: dict[int, tuple[str, ...]] = {}
    angle_parts: list[np.ndarray] = []
    if width == 1:
        # constant equations never vanish (almost surely): zero roots
        return counts, flag_rows, np.zeros(0)
    cmax = np.max(np.abs(c), axis=1)
    bad = np.abs(c[:, 0]) < INFINITY_TOL * cmax
    good = np.nonzero(~bad)[0]
    if good.size:
        d = width - 1
        comp = np.zeros((good.size, d, d))
        comp[:, np.arange(1, d), np.arange(0, d - 1)] = 1.0
        comp[:, 0, :] = -c[good, 1:] / c[good, 0][:, None]
        eig = np.linalg.eigvals(comp)
        real_mask = np.abs(eig.imag) <= tau * (1.0 + np.abs(eig))
        counts[good] = real_mask.sum(axis=1)
        # near-multiple real roots: flag rows whose sorted real parts collide
        reals = np.where(real_mask, eig.real, np.inf)
        reals.sort(axis=1)
        finite = np.isfinite(reals[:, :-1]) & np.isfinite(reals[:, 1:])
        with np.errstate(invalid="ignore"):
            close = finite & (np.diff(reals, axis=1) <= tau * (1.0 + np.abs(reals[:, :-1])))
        for pos in np.nonzero(close.any(axis=1))[0]:
            flag_rows[int(good[pos])] = ("multiple_root",)
        if want_angles:
            vals = eig.real[real_mask]
            angle_parts.append(np.arctan2(1.0, vals) % math.pi)
    for row in np.nonzero(bad)[0]:
        lead = int(np.argmax(np.abs(c[row]) >= INFINITY_TOL * cmax[row]))
        rest, rest_flags, rest_angles = _eig_count(c[row : row + 1, lead:], tau, want_angles)
        counts[row] = 1 + rest[0]
        flag_rows[int(row)] = ("infinity_root",) + rest_flags.get(0, ())
        if want_angles:
            angle_parts.append(np.concatenate([[0.0], rest_angles]))
    all_angles = np.concatenate(angle_parts) if angle_parts else np.zeros(0)
    return counts, flag_rows, all_angles


def _bilinear_quadratic(e1: np.ndarray, e2: np.ndarray, work: _Workspace | None = None) -> np.ndarray:
    """(N, 3) coefficient rows of the elimination quadratics of bilinear
    pairs, from the (N, 4) coefficient rows of the two equations.

    Each equation is a quadratic form y1' M_i y2 with M_i the row read as a
    2x2 matrix.  A root's first block y1 makes the rows y1' M_1 and y1' M_2
    dependent, so eliminating the second block leaves the binary form
    det [y1' M_1; y1' M_2] in y1, whose real projective roots biject with
    the system's.  The rows are a view of ``work`` (a fresh workspace when
    None).
    """
    work = _Workspace() if work is None else work
    m1, m2 = e1.reshape(-1, 2, 2), e2.reshape(-1, 2, 2)
    # filled one coefficient at a time, as the transpose ``_count_univariate`` reads
    q = work.take("forms", (3, m1.shape[0]))
    term = work.take("term", (m1.shape[0],))
    np.multiply(m1[:, 0, 0], m2[:, 0, 1], out=q[0])
    q[0] -= np.multiply(m1[:, 0, 1], m2[:, 0, 0], out=term)
    np.multiply(m1[:, 0, 0], m2[:, 1, 1], out=q[1])
    q[1] += np.multiply(m1[:, 1, 0], m2[:, 0, 1], out=term)
    q[1] -= np.multiply(m1[:, 0, 1], m2[:, 1, 0], out=term)
    q[1] -= np.multiply(m1[:, 1, 1], m2[:, 0, 0], out=term)
    np.multiply(m1[:, 1, 0], m2[:, 1, 1], out=q[2])
    q[2] -= np.multiply(m1[:, 1, 1], m2[:, 1, 0], out=term)
    return q.T


# ---------------------------------------------------------------------------
# countable-family decomposition


@dataclass(frozen=True)
class _Component:
    kind: str  # "null" | "zero_row" | "univariate" | "bilinear" | "unsupported"
    rows: tuple[int, ...]  # 0-based
    blocks: tuple[int, ...]  # 0-based


def _decompose(spec: ShapeSpec) -> list[_Component]:
    comps = []
    for blocks, rows in incidence_components(spec):
        sizes = [spec.block_sizes[j] for j in blocks]
        if not rows:
            kind = "null" if sum(sizes) == 0 else "unsupported"
        elif len(rows) == 1 and not blocks:
            kind = "zero_row"
        elif len(rows) == 1 and len(blocks) == 1 and sizes == [1]:
            kind = "univariate"
        elif (
            len(rows) == 2
            and len(blocks) == 2
            and sizes == [1, 1]
            and all(spec.degrees[i][j] == 1 for i in rows for j in blocks)
        ):
            kind = "bilinear"
        else:
            kind = "unsupported"
        comps.append(_Component(kind, rows, blocks))
    return comps


def _counted_components(spec: ShapeSpec) -> list[_Component]:
    """The components whose counts multiply to a system's root count.

    A degree-zero equation (a nonzero constant, almost surely) leaves no
    roots whatever the rest of the shape; otherwise every component must be
    countable, else UnsupportedFamilyError.
    """
    comps = _decompose(spec)
    zero_rows = [c for c in comps if c.kind == "zero_row"]
    if zero_rows:
        return zero_rows[:1]
    bad = [c for c in comps if c.kind == "unsupported"]
    if bad:
        raise UnsupportedFamilyError(
            f"shape is not in a countable family (component blocks {bad[0].blocks}, "
            f"rows {bad[0].rows})"
        )
    return [c for c in comps if c.kind != "null"]


def _count(
    comps: list[_Component],
    coeffs: list[np.ndarray],
    tau: float,
    out: np.ndarray,
    work: _Workspace | None = None,
):
    """Multiply the component counts of a batch of systems into ``out``, one
    entry per system, and return the components' flags merged per row.

    ``coeffs[i]`` holds the (N, size_i) coefficient rows of equation i; its
    callers pass at most STURM_CHUNK systems.  Each component becomes one
    binary form per system, counted by ``_count_univariate`` in ``work``: a
    univariate equation is its own form, a bilinear pair its elimination
    quadratic.  A zero_row equation is a width-1 row, which counts 0; with
    no components ``out`` keeps its empty product.
    """
    work = _Workspace() if work is None else work
    flags: dict[int, tuple[str, ...]] = {}
    for comp in comps:
        eqs = [coeffs[i] for i in comp.rows]
        forms = _bilinear_quadratic(*eqs, work) if comp.kind == "bilinear" else eqs[0]
        part, part_flags, _ = _count_univariate(forms, tau, work=work)
        out *= part
        for i, fl in part_flags.items():
            flags[i] = flags.get(i, ()) + fl
    return flags


def count_real_roots(sample: SystemSample, tau: float = IMAG_TOL) -> tuple[int, tuple[str, ...]]:
    """Real root count and flags of one system in a countable family.

    Raises UnsupportedFamilyError on the shapes ``sample_counts`` rejects,
    and ZeroPolynomialError when a component's binary form vanishes: a
    univariate equation, or a bilinear pair's elimination quadratic.
    """
    coeffs = [np.asarray(c, dtype=np.float64)[None, :] for c in sample.coefficients]
    counts = np.ones(1, dtype=np.int64)
    row_flags = _count(_counted_components(sample.spec), coeffs, tau, counts).get(0, ())
    return int(counts[0]), row_flags


def count_pieces(
    spec: ShapeSpec, samples: int, seed: int, tau: float = IMAG_TOL
) -> Iterator[tuple[int, np.ndarray, dict[int, tuple[str, ...]]]]:
    """Real root counts of the systems at stream rows 0..samples-1, a piece
    at a time: yields (start, counts, flags) in stream order, where counts
    holds rows start.. and flags maps a row's offset in the piece to its
    boundary-event labels.

    A piece is STURM_CHUNK rows (fewer where rng.PIECE_ELEMENTS binds, and
    the last may be shorter), counted by one ``_count`` call in the one
    workspace of this call.  Rows are a pure function of (seed, row), so
    counts and flags do not depend on the partition.  A degree-zero
    equation makes every count 0 (a constant equation almost surely has no
    roots), and nothing is drawn; other unsupported components raise
    UnsupportedFamilyError, at once, before any piece.
    """
    comps = _counted_components(spec)
    if comps and comps[0].kind == "zero_row":
        # known without drawing: the rest of the shape's supports may be huge
        zeros = np.zeros(min(samples, STURM_CHUNK), dtype=np.int64)
        return ((start, zeros[: samples - start], {}) for start in range(0, samples, STURM_CHUNK))
    return _counted_pieces(comps, spec, samples, seed, tau)


def _counted_pieces(comps, spec, samples, seed, tau):
    """The pieces of ``count_pieces`` for countable components ``comps``."""
    offsets, sigma = _coefficient_layout(spec)
    work = _Workspace()
    start = 0
    for z in rng.normal_pieces(seed, 0, samples, int(offsets[-1]), STURM_CHUNK):
        counts = np.ones(z.shape[0], dtype=np.int64)
        flags = _count(comps, _equations(z, offsets, sigma), tau, counts, work)
        yield start, counts, flags
        start += z.shape[0]


def sample_counts(
    spec: ShapeSpec, samples: int, seed: int, tau: float = IMAG_TOL
) -> tuple[np.ndarray, dict[int, tuple[str, ...]]]:
    """Per-sample real root counts for shapes in the countable families.

    Returns (counts, flags) where flags maps sample index to boundary-event
    labels: the pieces of ``count_pieces`` laid end to end, so the one
    array of ``samples`` counts is the only memory that grows with them.
    Raises UnsupportedFamilyError as ``count_pieces`` does.
    """
    counts = np.empty(samples, dtype=np.int64)
    flags: dict[int, tuple[str, ...]] = {}
    for start, piece, piece_flags in count_pieces(spec, samples, seed, tau):
        counts[start : start + piece.shape[0]] = piece
        flags.update((start + i, fl) for i, fl in piece_flags.items())
    return counts, flags


def fold_counts(moments: tuple[int, int, int], counts: np.ndarray) -> tuple[int, int, int]:
    """``moments`` (n, sum of counts, sum of squared counts) with the
    nonnegative ``counts`` added, in Python integers: exact at any number
    of samples.  The int64 sums serve while they cannot overflow."""
    n, total, squares = moments
    top = int(counts.max(initial=0))
    if top * top * counts.size < 1 << 63:
        return n + counts.size, total + int(counts.sum()), squares + int(np.dot(counts, counts))
    values = counts.tolist()
    return n + len(values), total + sum(values), squares + sum(c * c for c in values)


def count_mean(moments: tuple[int, int, int], seed: int, elapsed: float = 0.0) -> MCEstimate:
    """Mean root count, with its standard error, from the exact moments
    (n, sum of counts, sum of squared counts) of at least two samples
    (``fold_counts``).  The mean is the correctly rounded quotient, the
    sample variance the exact rational (n sum c^2 - (sum c)^2) / (n (n - 1))."""
    samples, total, squares = moments
    var = Fraction(samples * squares - total * total, samples * (samples - 1))
    return MCEstimate(total / samples, math.sqrt(var / samples), samples, seed, elapsed)


def empirical_expectation(spec: ShapeSpec, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo mean real-root count over actual sampled systems, folded
    a piece at a time (``count_pieces``): memory does not grow with
    ``samples``."""
    check_samples(samples)
    t0 = time.perf_counter()
    moments = (0, 0, 0)
    for _, counts, _ in count_pieces(spec, samples, seed):
        moments = fold_counts(moments, counts)
    return count_mean(moments, seed, time.perf_counter() - t0)


@dataclass(frozen=True)
class UniformityReport:
    chi_square: float
    dof: int
    bin_counts: tuple[int, ...]
    total_roots: int
    samples: int


def uniformity_check(
    spec: ShapeSpec,
    samples: int,
    bins: int,
    seed: int,
    invariant_weights: bool = True,
) -> UniformityReport:
    """Chi-square statistic of root positions against the uniform law.

    Roots of the univariate family are mapped to their arc position on the
    real projective line (angle in [0, pi)) and binned; under the invariant
    ensemble the positions are uniform.  A bin's count is the difference of
    Sturm sign variations at its edges, so no root is located, except in the
    rows counted by eigenvalues.  ``invariant_weights=False`` draws
    all coefficients with unit variance instead, a deliberately miscalibrated
    ensemble whose root positions are not uniform (the weights matter).
    Raises ValueError when the samples hold no real root at all: a
    chi-square of nothing would pass every cut.
    """
    check_samples(samples)
    if spec.k != 1 or spec.block_sizes != (1,):
        raise UnsupportedFamilyError("uniformity check supports the univariate family")
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    d = spec.degrees[0][0]
    sigma = np.sqrt(support_variances(spec, 1)) if invariant_weights else np.ones(d + 1)
    counts = np.zeros(bins, dtype=np.int64)
    # a pass keeps bins - 1 sign-variation counts per row: 8 x STURM_CHUNK at most
    rows = max(1, STURM_CHUNK * 8 // max(bins, 8))
    work = _Workspace()
    for coeffs in rng.normal_pieces(seed, 0, samples, d + 1, rows):
        coeffs *= sigma
        counts += _count_univariate(coeffs, bins=bins, work=work)[2]
    total = int(counts.sum())
    if total == 0:
        raise ValueError(f"no real root in {samples} samples: no statistic to test")
    expected = total / bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return UniformityReport(chi2, bins - 1, tuple(int(x) for x in counts), total, samples)
