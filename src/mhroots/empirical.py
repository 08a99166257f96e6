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
companion-matrix eigenvalues.  ``_count`` reduces and counts a batch
STURM_CHUNK systems at a time, multiplies the counts of a shape's
components and merges their flags; ``sample_counts`` draws and counts
STURM_CHUNK systems at a time, and ``count_real_roots`` counts a single
system as a one-row batch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .gaussian import MCEstimate, check_samples
from .shape import (
    ShapeSpec,
    enumerate_support,
    incidence_components,
    support_exponent_matrix,
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
    sizes = [support_size(spec, i) for i in range(1, spec.n + 1)]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    sigma = np.concatenate(
        [np.sqrt(support_variances(spec, i)) for i in range(1, spec.n + 1)]
    ) if spec.n else np.zeros(0)
    return sizes, offsets, sigma


def _coefficient_batch(spec: ShapeSpec, seed: int, start: int, count: int) -> list[np.ndarray]:
    """Per-equation coefficient arrays of shape (count, size_i)."""
    _, offsets, sigma = _coefficient_layout(spec)
    return _equations(rng.normals(seed, start, count, int(offsets[-1])), offsets, sigma)


def _equations(z: np.ndarray, offsets, sigma) -> list[np.ndarray]:
    """Scale the standard normals ``z`` in place by ``sigma`` and split their
    columns at ``offsets`` into per-equation coefficient arrays."""
    z *= sigma
    return [z[:, offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


def sample_system(spec: ShapeSpec, seed: int, index: int = 0) -> SystemSample:
    """Draw one system at stream position ``index`` under the invariant weights."""
    batch = _coefficient_batch(spec, seed, index, 1)
    return SystemSample(spec, [c[0].copy() for c in batch])


def evaluate(sample: SystemSample, point) -> np.ndarray:
    """Values of all equations at a point given as per-block coordinate vectors."""
    spec = sample.spec
    if len(point) != spec.k:
        raise ValueError(f"need {spec.k} block vectors, got {len(point)}")
    coords = []
    for j, (block, nj) in enumerate(zip(point, spec.block_sizes), start=1):
        arr = np.asarray(block, dtype=np.float64)
        if arr.shape != (nj + 1,):
            raise ValueError(f"block {j} needs {nj + 1} coordinates, got shape {arr.shape}")
        coords.append(arr)
    flat = np.concatenate(coords)
    out = np.empty(spec.n)
    for i in range(1, spec.n + 1):
        exps = support_exponent_matrix(spec, i)
        monomials = np.prod(flat[None, :] ** exps, axis=1)
        out[i - 1] = float(np.dot(sample.coefficients[i - 1], monomials))
    return out


def theta_norm_sq(spec: ShapeSpec, i: int, point) -> float:
    """sum over the support of (inverse weight) * point**(2a).

    Equals 1 whenever every block of the point has unit Euclidean norm; this
    is the evaluation-variance identity of the invariant ensemble.
    """
    coords = np.concatenate([np.asarray(b, dtype=np.float64) for b in point])
    exps = support_exponent_matrix(spec, i)
    monomials = np.prod(coords[None, :] ** exps, axis=1)
    variances = support_variances(spec, i)
    return float(np.dot(variances, monomials * monomials))


# ---------------------------------------------------------------------------
# the real-root counter of binary forms, over batches of coefficient rows


def _count_univariate(coeffs: np.ndarray, tau: float = IMAG_TOL, bins: int = 0):
    """Real projective root counts of binary forms, one per (N, d+1) row.

    Coefficients are ordered from the highest power of the first coordinate
    downward.  Returns (counts, flag_rows, binned): flag_rows maps row ->
    flags for the rare boundary rows, and binned counts the roots of all
    rows whose projective angle arctan2(1, t) falls in each of ``bins``
    equal bins of [0, pi).  Rows are counted by ``_sturm_count``; the rows
    it is unsure of, and rows with vanishing leading coefficients, go
    through ``_eig_count`` and keep its flags.  Every row is counted in one
    pass, so callers hand over at most STURM_CHUNK rows at a time (fewer
    with bins: ``uniformity_check``).
    """
    c = np.asarray(coeffs, dtype=np.float64)
    # one coefficient per row of p: reducing across rows is fast, along them is not
    p = np.ascontiguousarray(c.T)
    scale = np.max(np.abs(p), axis=0)
    if np.any(scale == 0.0):
        raise ZeroPolynomialError("all coefficients are zero")
    if c.shape[1] == 1:
        # constant equations never vanish (almost surely): zero roots
        return np.zeros(c.shape[0], dtype=np.int64), {}, np.zeros(bins, dtype=np.int64)
    infinity = np.abs(p[0]) < INFINITY_TOL * scale
    sure, counts, binned = _sturm_count(p / scale, ~infinity, tau, bins)
    flag_rows: dict[int, tuple[str, ...]] = {}
    idx = np.nonzero(~sure)[0]
    if idx.size:
        counts[idx], eig_flags, angles = _eig_count(c[idx], tau, want_angles=bins > 0)
        flag_rows = {int(idx[i]): fl for i, fl in eig_flags.items()}
        if bins:
            binned += np.histogram(angles, bins=bins, range=(0.0, math.pi))[0]
    return counts, flag_rows, binned


def _sturm_count(p: np.ndarray, sure: np.ndarray, tau: float, bins: int):
    """Real root counts of the polynomials in the columns of p, (d+1, N)
    with d >= 1, from sign variations of their Sturm chains.

    Column r holds the coefficients of p_r(t), highest power first, scaled
    to max-abs 1; only the columns marked in ``sure`` can stay sure.  The
    chain runs p, p', then the negated remainders of dividing each member
    by the next, each rescaled to max-abs 1; only the last two members are
    kept.  The count is V(-inf) - V(+inf), read from the signs of the
    leading coefficients.  A column stays sure while every member's leading
    coefficient exceeds ``tau`` on the unit scale, both before and after
    its rescaling (so no column is sure at tau >= 1).

    Returns (sure, counts, binned): binned sums V(cot theta_{k+1}) -
    V(cot theta_k) over the sure columns, the roots whose angle
    arctan2(1, t) lies in [theta_k, theta_{k+1}), for ``bins`` equal bins
    of [0, pi).
    """
    d = p.shape[0] - 1
    sure = sure & (np.abs(p[0]) > tau)
    neg = p[0] < 0
    changes = np.zeros(p.shape[1], dtype=np.int64)
    if bins:
        theta = np.linspace(0.0, math.pi, bins + 1)[1:-1]
        edges = (np.cos(theta) / np.sin(theta))[:, None]
        edge_neg = _horner(p, edges) < 0
        edge_changes = np.zeros(edge_neg.shape, dtype=np.int64)
    a = p
    b = p[:-1] * np.arange(d, 0, -1, dtype=np.float64)[:, None]
    # unsure columns may overflow or divide by zero; their results are dropped
    with np.errstate(all="ignore"):
        while True:
            scale = np.max(np.abs(b), axis=0)
            sure &= np.abs(b[0]) > tau * np.maximum(scale, 1.0)
            b /= scale
            b_neg = b[0] < 0
            changes += b_neg != neg
            neg = b_neg
            if bins:
                b_edge_neg = _horner(b, edges) < 0
                edge_changes += b_edge_neg != edge_neg
                edge_neg = b_edge_neg
            if b.shape[0] == 1:
                break
            # a - (q1 t + q0) b, negated: two multiply-adds per coefficient
            tail = b[1:]
            q1 = a[0] / b[0]
            top = a[1:-1] - q1 * tail
            q0 = top[0] / b[0]
            rem = q0 * tail
            rem[:-1] -= top[1:]
            rem[-1] -= a[-1]
            a, b = b, rem
    counts = d - 2 * changes
    if not bins:
        return sure, counts, np.zeros(0, dtype=np.int64)
    # V at +inf, at the interior edges (decreasing), and at -inf
    variations = np.concatenate(
        [[changes[sure].sum()], edge_changes[:, sure].sum(axis=1), [(d - changes[sure]).sum()]]
    )
    return sure, counts, np.diff(variations)


def _horner(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Values (len(x), N) of the polynomials in the columns of p at x, a column."""
    out = np.broadcast_to(p[0], (x.shape[0], p.shape[1])).copy()
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


def _bilinear_quadratic(e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """(N, 3) coefficient rows of the elimination quadratics of bilinear
    pairs, from the (N, 4) coefficient rows of the two equations.

    Each equation is a quadratic form y1' M_i y2 with M_i the row read as a
    2x2 matrix.  A root's first block y1 makes the rows y1' M_1 and y1' M_2
    dependent, so eliminating the second block leaves the binary form
    det [y1' M_1; y1' M_2] in y1, whose real projective roots biject with
    the system's.
    """
    m1, m2 = e1.reshape(-1, 2, 2), e2.reshape(-1, 2, 2)
    # filled one coefficient at a time, as the transpose ``_count_univariate`` reads
    q = np.empty((3, m1.shape[0]))
    q[0] = m1[:, 0, 0] * m2[:, 0, 1] - m1[:, 0, 1] * m2[:, 0, 0]
    q[1] = (
        m1[:, 0, 0] * m2[:, 1, 1]
        + m1[:, 1, 0] * m2[:, 0, 1]
        - m1[:, 0, 1] * m2[:, 1, 0]
        - m1[:, 1, 1] * m2[:, 0, 0]
    )
    q[2] = m1[:, 1, 0] * m2[:, 1, 1] - m1[:, 1, 1] * m2[:, 1, 0]
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


def _count(comps: list[_Component], coeffs: list[np.ndarray], tau: float, out: np.ndarray):
    """Multiply the component counts of a batch of systems into ``out``, one
    entry per system, and return the components' flags merged per row.

    ``coeffs[i]`` holds the (N, size_i) coefficient rows of equation i.
    STURM_CHUNK systems at a time, each component becomes one binary form
    per system, counted by ``_count_univariate``: a univariate equation is
    its own form, a bilinear pair its elimination quadratic.  A zero_row
    equation is a width-1 row, which counts 0; with no components ``out``
    keeps its empty product.
    """
    flags: dict[int, tuple[str, ...]] = {}
    for lo in range(0, out.shape[0], STURM_CHUNK):
        chunk = slice(lo, lo + STURM_CHUNK)
        for comp in comps:
            eqs = [coeffs[i][chunk] for i in comp.rows]
            forms = _bilinear_quadratic(*eqs) if comp.kind == "bilinear" else eqs[0]
            part, part_flags, _ = _count_univariate(forms, tau)
            out[chunk] *= part
            for i, fl in part_flags.items():
                flags[lo + i] = flags.get(lo + i, ()) + fl
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


def sample_counts(
    spec: ShapeSpec, samples: int, seed: int, tau: float = IMAG_TOL
) -> tuple[np.ndarray, dict[int, tuple[str, ...]]]:
    """Per-sample real root counts for shapes in the countable families.

    Returns (counts, flags) where flags maps sample index to boundary-event
    labels.  A degree-zero equation makes every count 0 (a constant equation
    almost surely has no roots); other unsupported components raise
    UnsupportedFamilyError.

    The coefficients are drawn STURM_CHUNK systems at a time, the rows that
    one ``_count`` pass takes (0.5 MB for a bilinear pair, 0.85 MB for a
    degree-12 form): a small block that numpy keeps for reuse can land on
    the C heap above a freed multi-megabyte batch and stop the heap from
    shrinking, which made peak memory depend on the heap's layout.  Rows
    are a pure function of (seed, row), so counts and flags do not depend
    on the partition.
    """
    comps = _counted_components(spec)
    if comps and comps[0].kind == "zero_row":
        # known without drawing: the rest of the shape's supports may be huge
        return np.zeros(samples, dtype=np.int64), {}
    counts = np.ones(samples, dtype=np.int64)
    flags: dict[int, tuple[str, ...]] = {}
    _, offsets, sigma = _coefficient_layout(spec)
    start = 0
    for z in rng.normal_pieces(seed, 0, samples, int(offsets[-1]), STURM_CHUNK):
        size = z.shape[0]
        batch_flags = _count(comps, _equations(z, offsets, sigma), tau, counts[start : start + size])
        for i, fl in batch_flags.items():
            flags[start + i] = fl
        start += size
    return counts, flags


def count_mean(counts: np.ndarray, seed: int, elapsed: float = 0.0) -> MCEstimate:
    """Mean root count of the per-sample ``counts`` (at least two) with its
    standard error."""
    samples = counts.shape[0]
    var = float(counts.var(ddof=1))
    return MCEstimate(float(counts.mean()), math.sqrt(var / samples), samples, seed, elapsed)


def empirical_expectation(spec: ShapeSpec, samples: int, seed: int) -> MCEstimate:
    """Monte Carlo mean real-root count over actual sampled systems."""
    check_samples(samples)
    t0 = time.perf_counter()
    counts, _ = sample_counts(spec, samples, seed)
    return count_mean(counts, seed, time.perf_counter() - t0)


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
    for coeffs in rng.normal_pieces(seed, 0, samples, d + 1, rows):
        coeffs *= sigma
        counts += _count_univariate(coeffs, bins=bins)[2]
    total = int(counts.sum())
    if total == 0:
        raise ValueError(f"no real root in {samples} samples: no statistic to test")
    expected = total / bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return UniformityReport(chi2, bins - 1, tuple(int(x) for x in counts), total, samples)


# ---------------------------------------------------------------------------
# coordinate changes


def transform_coefficients(spec: ShapeSpec, i: int, coeffs, block_matrices) -> np.ndarray:
    """Coefficients of the composed polynomial f(B_1 y_1, ..., B_k y_k).

    ``block_matrices[j]`` is the (n_j + 1) x (n_j + 1) matrix substituted
    into block j.  Substitution preserves per-block homogeneity, so the
    result lives on the same support.
    """
    support = enumerate_support(spec, i)
    index = {a.blocks: t for t, a in enumerate(support)}
    out = np.zeros(len(support))
    mats = [np.asarray(m, dtype=np.float64) for m in block_matrices]
    for coeff, a in zip(np.asarray(coeffs, dtype=np.float64), support):
        if coeff == 0.0:
            continue
        expanded: dict[tuple, float] = {(): 1.0}
        for bex, mat in zip(a.blocks, mats):
            width = len(bex)
            block_poly: dict[tuple[int, ...], float] = {(0,) * width: 1.0}
            for h, power in enumerate(bex):
                row = mat[h]
                for _ in range(power):
                    nxt: dict[tuple[int, ...], float] = {}
                    for key, val in block_poly.items():
                        for m_idx in range(width):
                            w = row[m_idx]
                            if w == 0.0:
                                continue
                            key2 = key[:m_idx] + (key[m_idx] + 1,) + key[m_idx + 1 :]
                            nxt[key2] = nxt.get(key2, 0.0) + val * w
                    block_poly = nxt
            merged: dict[tuple, float] = {}
            for key, val in expanded.items():
                for bkey, bval in block_poly.items():
                    merged_key = key + (bkey,)
                    merged[merged_key] = merged.get(merged_key, 0.0) + val * bval
            expanded = merged
        for key, val in expanded.items():
            out[index[key]] += coeff * val
    return out


def rotate_sample(sample: SystemSample, block_rotations) -> SystemSample:
    """The sample transformed by orthogonal maps acting on each block.

    Produces the coefficients of f composed with the inverse rotation, whose
    roots are the rotated roots of f; real root counts are preserved.
    """
    spec = sample.spec
    mats = [np.asarray(m, dtype=np.float64).T for m in block_rotations]
    new_coeffs = [
        transform_coefficients(spec, i, sample.coefficients[i - 1], mats)
        for i in range(1, spec.n + 1)
    ]
    return SystemSample(spec, new_coeffs)
