"""Ground-truth simulation: draw actual random systems and count real roots.

Coefficients are independent mean-zero Gaussians whose variances are the
reciprocal invariant monomial weights.  Counting is exactly solvable for a
restricted family of shapes: systems whose row/block incidence graph
decomposes into univariate pieces (one equation in one size-1 block), the
bilinear 2x2 pattern, degree-zero rows (constant equations, which force zero
roots), and empty blocks.  Univariate counting goes through companion-matrix
eigenvalues; bilinear counting eliminates one block and reads the sign of a
binary quadratic's discriminant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .gaussian import MCEstimate, check_samples
from .shape import (
    ShapeSpec,
    SupportTooLargeError,
    enumerate_support,
    incidence_components,
    support_exponent_matrix,
    support_size,
    support_variances,
)

IMAG_TOL = 1e-8
INFINITY_TOL = 1e-12
DEGENERATE_TOL = 1e-12


class ZeroPolynomialError(ValueError):
    """All coefficients vanish; no root count is defined."""


class DegenerateSystemError(ValueError):
    """The elimination quadratic vanishes identically."""


class UnsupportedFamilyError(ValueError):
    """Shape outside the exactly countable families."""


@dataclass
class SystemSample:
    """One coefficient draw for every equation of a shape.

    ``coefficients[i]`` is aligned with ``enumerate_support(spec, i + 1)``.
    ``root_count`` is filled after counting; ``flags`` records boundary
    events (roots at infinity, near-multiple roots, ...).
    """

    spec: ShapeSpec
    coefficients: list[np.ndarray]
    root_count: int | None = None
    flags: tuple[str, ...] = field(default_factory=tuple)


def _coefficient_layout(spec: ShapeSpec):
    sizes = [support_size(spec, i) for i in range(1, spec.n + 1)]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    sigma = np.concatenate(
        [np.sqrt(support_variances(spec, i)) for i in range(1, spec.n + 1)]
    ) if spec.n else np.zeros(0)
    return sizes, offsets, sigma


def _coefficient_batch(spec: ShapeSpec, seed: int, start: int, count: int) -> list[np.ndarray]:
    """Per-equation coefficient arrays of shape (count, size_i)."""
    sizes, offsets, sigma = _coefficient_layout(spec)
    total = int(offsets[-1])
    z = rng.normals(seed, start, count, total)
    z *= sigma
    return [z[:, offsets[i] : offsets[i + 1]] for i in range(spec.n)]


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
# univariate counting


def _count_univariate_scalar(
    coeffs: np.ndarray, tau: float = IMAG_TOL, inf_tol: float = INFINITY_TOL
) -> tuple[int, tuple[str, ...], list[float]]:
    """Count real projective roots of one binary form; returns angles too.

    Coefficients are ordered from the highest power of the first coordinate
    downward.  Roots at infinity (leading coefficients numerically zero) add
    one flagged root; near-coincident real eigenvalues are flagged.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    cmax = float(np.max(np.abs(c))) if c.size else 0.0
    if cmax == 0.0:
        raise ZeroPolynomialError("all coefficients are zero")
    flags: list[str] = []
    lead = 0
    while abs(c[lead]) < inf_tol * cmax:
        lead += 1
    angles: list[float] = []
    count = 0
    if lead > 0:
        flags.append("infinity_root")
        count += 1
        angles.append(0.0)
    p = c[lead:]
    if p.size > 1:
        roots = np.roots(p)
        real_mask = np.abs(roots.imag) <= tau * (1.0 + np.abs(roots))
        reals = np.sort(roots.real[real_mask])
        count += int(real_mask.sum())
        angles.extend(float(math.atan2(1.0, r) % math.pi) for r in reals)
        if reals.size >= 2:
            gaps = np.diff(reals)
            if np.any(gaps <= tau * (1.0 + np.abs(reals[:-1]))):
                flags.append("multiple_root")
    return count, tuple(flags), angles


def count_real_roots_univariate(
    sample: SystemSample, tau: float = IMAG_TOL, inf_tol: float = INFINITY_TOL
) -> tuple[int, tuple[str, ...]]:
    """Real projective root count for the one-equation, one-block family."""
    spec = sample.spec
    if spec.k != 1 or spec.block_sizes != (1,):
        raise UnsupportedFamilyError(
            f"univariate counter needs one size-1 block, got {spec.block_sizes}"
        )
    count, flags, _ = _count_univariate_scalar(sample.coefficients[0], tau, inf_tol)
    sample.root_count = count
    sample.flags = flags
    return count, flags


def _batch_univariate(
    coeffs: np.ndarray, tau: float = IMAG_TOL, inf_tol: float = INFINITY_TOL, want_angles: bool = False
):
    """Vectorized root counts for (N, d+1) coefficient rows.

    Returns (counts, flag_rows, angles) where flag_rows maps row -> flags for
    the rare boundary rows and angles concatenates the projective angles of
    all counted roots (only when requested).
    """
    c = np.asarray(coeffs, dtype=np.float64)
    n_rows, width = c.shape
    counts = np.zeros(n_rows, dtype=np.int64)
    flag_rows: dict[int, tuple[str, ...]] = {}
    angle_parts: list[np.ndarray] = []
    if width == 1:
        # constant equations never vanish (almost surely): zero roots
        if np.any(np.all(c == 0.0, axis=1)):
            raise ZeroPolynomialError("all coefficients are zero")
        return counts, flag_rows, np.zeros(0)
    cmax = np.max(np.abs(c), axis=1)
    if np.any(cmax == 0.0):
        raise ZeroPolynomialError("all coefficients are zero")
    bad = np.abs(c[:, 0]) < inf_tol * cmax
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
        cnt, flags, angles = _count_univariate_scalar(c[row], tau, inf_tol)
        counts[row] = cnt
        if flags:
            flag_rows[int(row)] = flags
        if want_angles and angles:
            angle_parts.append(np.asarray(angles))
    all_angles = np.concatenate(angle_parts) if angle_parts else np.zeros(0)
    return counts, flag_rows, all_angles


# ---------------------------------------------------------------------------
# bilinear counting


def _bilinear_quadratic(m1: np.ndarray, m2: np.ndarray, direction: str):
    """Coefficients (A, B, C) of the elimination quadratic.

    direction "first": roots range over the first block (eliminate the
    second); "second": the reverse.  Works on stacked (..., 2, 2) inputs.
    """
    if direction == "first":
        a = m1[..., 0, 0] * m2[..., 0, 1] - m1[..., 0, 1] * m2[..., 0, 0]
        b = (
            m1[..., 0, 0] * m2[..., 1, 1]
            + m1[..., 1, 0] * m2[..., 0, 1]
            - m1[..., 0, 1] * m2[..., 1, 0]
            - m1[..., 1, 1] * m2[..., 0, 0]
        )
        c = m1[..., 1, 0] * m2[..., 1, 1] - m1[..., 1, 1] * m2[..., 1, 0]
    elif direction == "second":
        a = m1[..., 0, 0] * m2[..., 1, 0] - m1[..., 1, 0] * m2[..., 0, 0]
        b = (
            m1[..., 0, 0] * m2[..., 1, 1]
            + m1[..., 0, 1] * m2[..., 1, 0]
            - m1[..., 1, 0] * m2[..., 0, 1]
            - m1[..., 1, 1] * m2[..., 0, 0]
        )
        c = m1[..., 0, 1] * m2[..., 1, 1] - m1[..., 1, 1] * m2[..., 0, 1]
    else:
        raise ValueError(f"direction must be 'first' or 'second', got {direction!r}")
    return a, b, c


def _quadratic_root_count(a, b, c):
    """Projective real root counts (0, 1, or 2) of stacked binary quadratics."""
    disc = b * b - 4.0 * a * c
    scale = b * b + np.abs(4.0 * a * c)
    boundary = np.abs(disc) <= DEGENERATE_TOL * scale
    counts = np.where(disc > 0, 2, 0)
    counts = np.where(boundary & (scale > 0), 1, counts)
    degenerate = np.maximum(np.abs(a), np.maximum(np.abs(b), np.abs(c))) < DEGENERATE_TOL
    return counts.astype(np.int64), boundary & ~degenerate, degenerate


def count_real_roots_bilinear(
    sample: SystemSample, direction: str = "first"
) -> tuple[int, tuple[str, ...]]:
    """Real root count in the product of two projective lines for the
    bilinear two-equation shape.

    The two equations are written as quadratic forms y1' M_i y2; eliminating
    one block leaves a real binary quadratic whose projective real roots
    (generically 0 or 2 by the sign of the discriminant) biject with system
    roots.  A vanishing discriminant counts 1 and is flagged ``boundary``.
    """
    spec = sample.spec
    if spec.block_sizes != (1, 1) or spec.degrees != ((1, 1), (1, 1)):
        raise UnsupportedFamilyError("bilinear counter needs the 2x2 all-ones shape")
    m1 = np.asarray(sample.coefficients[0], dtype=np.float64).reshape(2, 2)
    m2 = np.asarray(sample.coefficients[1], dtype=np.float64).reshape(2, 2)
    a, b, c = _bilinear_quadratic(m1, m2, direction)
    if max(abs(a), abs(b), abs(c)) < DEGENERATE_TOL:
        raise DegenerateSystemError("elimination quadratic vanishes identically")
    counts, boundary, _ = _quadratic_root_count(
        np.asarray([a]), np.asarray([b]), np.asarray([c])
    )
    flags = ("boundary",) if boundary[0] else ()
    sample.root_count = int(counts[0])
    sample.flags = flags
    return int(counts[0]), flags


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


def sample_counts(
    spec: ShapeSpec, samples: int, seed: int, tau: float = IMAG_TOL
) -> tuple[np.ndarray, dict[int, tuple[str, ...]]]:
    """Per-sample real root counts for shapes in the countable families.

    Returns (counts, flags) where flags maps sample index to boundary-event
    labels.  A degree-zero equation makes every count 0 (a constant equation
    almost surely has no roots); other unsupported components raise
    UnsupportedFamilyError.
    """
    comps = _decompose(spec)
    if any(c.kind == "zero_row" for c in comps):
        # a degree-zero equation is a nonzero constant almost surely: no roots
        return np.zeros(samples, dtype=np.int64), {}
    bad = [c for c in comps if c.kind == "unsupported"]
    if bad:
        raise UnsupportedFamilyError(
            f"shape is not in a countable family (component blocks {bad[0].blocks}, "
            f"rows {bad[0].rows})"
        )
    counters = [c for c in comps if c.kind in ("univariate", "bilinear")]
    counts = np.ones(samples, dtype=np.int64)
    flags: dict[int, tuple[str, ...]] = {}
    width = sum(support_size(spec, i) for i in range(1, spec.n + 1))
    for start, size in rng.batches(samples, width):
        batch = _coefficient_batch(spec, seed, start, size)
        for comp in counters:
            if comp.kind == "univariate":
                ccounts, cflags, _ = _batch_univariate(batch[comp.rows[0]], tau)
            else:
                i1, i2 = sorted(comp.rows)
                m1 = batch[i1].reshape(size, 2, 2)
                m2 = batch[i2].reshape(size, 2, 2)
                a, b, c = _bilinear_quadratic(m1, m2, "first")
                ccounts, boundary, degenerate = _quadratic_root_count(a, b, c)
                cflags = {int(i): ("boundary",) for i in np.nonzero(boundary)[0]}
                for i in np.nonzero(degenerate)[0]:
                    cflags[int(i)] = cflags.get(int(i), ()) + ("degenerate",)
            counts[start : start + size] *= ccounts
            for i, fl in cflags.items():
                gi = start + i
                flags[gi] = flags.get(gi, ()) + fl
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
    ensemble the positions are uniform.  ``invariant_weights=False`` draws
    all coefficients with unit variance instead, a deliberately miscalibrated
    ensemble whose root positions are not uniform (the weights matter).
    """
    if spec.k != 1 or spec.block_sizes != (1,):
        raise UnsupportedFamilyError("uniformity check supports the univariate family")
    d = spec.degrees[0][0]
    sigma = np.sqrt(support_variances(spec, 1)) if invariant_weights else np.ones(d + 1)
    angles_parts = []
    for start, size in rng.batches(samples, d + 1):
        coeffs = rng.normals(seed, start, size, d + 1)
        coeffs *= sigma
        _, _, angles = _batch_univariate(coeffs, want_angles=True)
        angles_parts.append(angles)
    angles = np.concatenate(angles_parts)
    counts, _ = np.histogram(angles, bins=bins, range=(0.0, math.pi))
    total = int(counts.sum())
    expected = total / bins
    chi2 = float(((counts - expected) ** 2 / expected).sum()) if expected > 0 else 0.0
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
