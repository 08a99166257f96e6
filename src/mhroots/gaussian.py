"""Structured Gaussian random matrices and the mean absolute determinant.

The random matrix attached to a shape has independent mean-zero normal
entries whose variance in column group j is the degree of the row's equation
in block j.  The Monte Carlo mean of |det| over such draws is the kernel of
the expected-root-count formula.  Sample i of an estimate is row i of the
block-keyed normal stream of ``rng.normals``, so the result is a pure
function of (seed, samples), bitwise independent of the worker count, and
``sample_matrix(var, seed, i)`` replays sample i of any run.

Determinants up to SMALL_DET_DIM come from a vectorised Laplace expansion
by complementary minors, run on chunks of DET_CHUNK matrices with each
entry a contiguous vector over the chunk; there batched LAPACK spends most
of its time on per-matrix overhead.  Larger ones use LAPACK's pivoted
triangular factorization, in the log domain above LOGDET_DIM.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .permanent import _check_finite_nonnegative, permanent_float
from .shape import ShapeSpec, expand_delta
from .specialfn import SQRT_PI, gamma_half

LOGDET_DIM = 40
# Largest n at which the Laplace kernel beats batched LAPACK on 65,536
# samples: x1.25 at n = 7, x0.71 at n = 8 (2-core Xeon, numpy 2.4 OpenBLAS).
SMALL_DET_DIM = 7
# Matrices per kernel pass: each operand, one entry over the chunk, fits in cache.
DET_CHUNK = 4096


class SampleCountError(ValueError):
    """A Monte Carlo estimate asked for fewer than two samples."""


def check_samples(samples: int) -> None:
    """Raise SampleCountError unless ``samples`` allows a standard error."""
    if samples < 2:
        raise SampleCountError(f"need at least 2 samples, got {samples}")


@dataclass(frozen=True)
class MCEstimate:
    """A Monte Carlo mean with its standard error and replay coordinates."""

    mean: float
    stderr: float
    samples: int
    seed: int
    elapsed: float = 0.0


def variance_profile(spec: ShapeSpec) -> np.ndarray:
    """Entry variances of the shape's random matrix (column-expanded degrees)."""
    return expand_delta(spec, sqrt=False).astype(np.float64)


def _check_profile(variances) -> np.ndarray:
    arr = np.asarray(variances, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"variance profile must be square, got shape {arr.shape}")
    _check_finite_nonnegative(arr, "variance")
    return arr


def sample_matrix(variances, seed: int, index: int = 0) -> np.ndarray:
    """One draw of the structured matrix for stream position ``index``.

    Zero-variance entries are exact structural zeros.
    """
    arr = _check_profile(variances)
    n = arr.shape[0]
    z = rng.normals(seed, index, 1, n * n).reshape(n, n)
    return z * np.sqrt(arr)


@functools.lru_cache(maxsize=SMALL_DET_DIM)
def _laplace_plan(n: int) -> tuple:
    """Bottom-up Laplace expansion of an n x n determinant.

    Level r (r = 2..n) lists, for each r-subset S of the columns in
    lexicographic order, the minor on the last r rows and columns S as terms
    (sign, flat index of entry (n - r, c), index of the level r - 1 minor on
    S minus c), for c running through S.  Level 1 is the last row itself.
    """
    levels = []
    index = {(c,): c for c in range(n)}
    for r in range(2, n + 1):
        row = (n - r) * n
        subsets = list(itertools.combinations(range(n), r))
        levels.append(
            tuple(
                tuple((k % 2 == 0, row + c, index[s[:k] + s[k + 1 :]]) for k, c in enumerate(s))
                for s in subsets
            )
        )
        index = {s: i for i, s in enumerate(subsets)}
    return tuple(levels)


def _laplace_det(zt: np.ndarray, n: int) -> np.ndarray:
    """Determinants of the n x n matrices whose row-major entries are the
    rows of ``zt``, of shape (n * n, matrices): one vector operation per term."""
    minors = zt[n * (n - 1) :]
    for level in _laplace_plan(n):
        nxt = []
        for (_, entry, minor), *rest in level:
            acc = zt[entry] * minors[minor]
            for plus, entry, minor in rest:
                if plus:
                    acc += zt[entry] * minors[minor]
                else:
                    acc -= zt[entry] * minors[minor]
            nxt.append(acc)
        minors = nxt
    return minors[0]


def _dets(z: np.ndarray, sigma_flat: np.ndarray, n: int) -> np.ndarray:
    """det of each row of ``z`` scaled by ``sigma_flat`` as an n x n matrix;
    log |det| (-inf when singular) above LOGDET_DIM."""
    if n <= SMALL_DET_DIM:
        # one transposed copy makes each entry a contiguous vector over the chunk
        return _laplace_det(np.multiply(z.T, sigma_flat[:, None], order="C"), n)
    z *= sigma_flat
    mats = z.reshape(-1, n, n)
    if n <= LOGDET_DIM:
        return np.linalg.det(mats)
    sign, logabs = np.linalg.slogdet(mats)
    return np.where(sign == 0, -np.inf, logabs)


def _batch_absdet_moments(sigma_flat: np.ndarray, n: int, seed: int, start: int, count: int):
    rows = DET_CHUNK if n <= SMALL_DET_DIM else None
    pieces = rng.normal_pieces(seed, start, count, n * n, rows)
    if n > LOGDET_DIM:
        return count, None, None, np.concatenate([_dets(z, sigma_flat, n) for z in pieces])
    # folded piece by piece, in stream order: no batch-sized array of determinants
    s1 = 0.0
    s2 = 0.0
    for z in pieces:
        a = np.abs(_dets(z, sigma_flat, n))
        s1 += float(a.sum())
        s2 += float((a * a).sum())
    return count, s1, s2, None


def mc_abs_det(variances, samples: int, seed: int, workers: int = 1) -> MCEstimate:
    """Monte Carlo mean of |det| of the structured Gaussian matrix.

    The estimate depends only on (seed, samples): the sample range is cut
    into the batches of ``rng.batches``, whose size depends only on n, and
    their partial sums are folded in batch order, so any worker count gives
    bitwise identical results.  Up to dimension SMALL_DET_DIM (7) the
    determinants come from the Laplace kernel, in fixed chunks of DET_CHUNK
    samples; above it from pivoted triangular factorization, and above
    LOGDET_DIM (40) the batch moments are accumulated in the log domain.
    At any dimension a batch holds at most PIECE_ELEMENTS normals at a time
    (``rng.normal_pieces``).
    """
    arr = _check_profile(variances)
    check_samples(samples)
    n = arr.shape[0]
    t0 = time.perf_counter()
    if n == 0:
        return MCEstimate(1.0, 0.0, samples, seed, time.perf_counter() - t0)
    sigma_flat = np.sqrt(arr).ravel()
    batches = rng.batches(samples, n * n)
    if workers > 1 and len(batches) > 1:
        # imported here: it adds about 7 ms to every start-up that needs no pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda b: _batch_absdet_moments(sigma_flat, n, seed, *b), batches)
            )
    else:
        results = [_batch_absdet_moments(sigma_flat, n, seed, *b) for b in batches]

    if n <= LOGDET_DIM:
        total = 0
        s1 = 0.0
        s2 = 0.0
        for count, b1, b2, _ in results:
            total += count
            s1 += b1
            s2 += b2
        mean = s1 / total
        var = max(0.0, (s2 - total * mean * mean) / (total - 1))
    else:
        # streaming log-sum-exp over batches, folded in batch order
        total = 0
        shift = -np.inf
        e1 = 0.0
        e2 = 0.0
        for count, _, _, logabs in results:
            total += count
            m = float(np.max(logabs, initial=-np.inf))
            if m > shift:
                if shift > -np.inf:
                    scale = math.exp(shift - m)
                    e1 *= scale
                    e2 *= scale * scale
                shift = m
            if shift > -np.inf:
                w = np.exp(logabs - shift)
                e1 += float(w.sum())
                e2 += float((w * w).sum())
        if shift == -np.inf:
            mean, var = 0.0, 0.0
        else:
            mean = math.exp(shift) * e1 / total
            second = math.exp(2 * shift) * e2
            var = max(0.0, (second - total * mean * mean) / (total - 1))
    stderr = math.sqrt(var / total)
    return MCEstimate(mean, stderr, samples, seed, time.perf_counter() - t0)


def abs_det_closed_standard(n: int) -> float:
    """Exact mean |det| of an n x n standard Gaussian matrix:
    2**(n/2) * Gamma((n+1)/2) / Gamma(1/2)."""
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got {n}")
    if n == 0:
        return 1.0
    g = gamma_half(n + 1)
    return 2.0 ** (n / 2.0) * float(g.rational) * SQRT_PI ** (g.sqrt_pi - 1)


def minor_expansion_bounds(variances, row: int, minor_means) -> tuple[float, float]:
    """Two-sided bounds on E|det| from expanding along ``row`` (1-based).

    Given the mean absolute minor determinants m_b for deleting ``row`` and
    column b, returns

        upper = sqrt(2/pi) * sum_b sigma_rb * m_b
        lower = sqrt(2/pi) * sqrt(sum_b sigma_rb^2 * m_b^2)
    """
    arr = _check_profile(variances)
    n = arr.shape[0]
    if not 1 <= row <= n:
        raise ValueError(f"row index {row} outside 1..{n}")
    m = np.asarray(minor_means, dtype=np.float64)
    if m.shape != (n,):
        raise ValueError(f"need {n} minor means, got shape {m.shape}")
    sig = np.sqrt(arr[row - 1])
    c = math.sqrt(2.0 / math.pi)
    upper = c * float(np.dot(sig, m))
    lower = c * math.sqrt(float(np.dot(arr[row - 1], m * m)))
    return upper, lower


def permanent_sandwich(variances) -> tuple[float, float]:
    """Full-induction permanent bounds on E|det|:

        (2/pi)**(n/2) * per(sigma) >= E|det| >= (2/pi)**(n/2) * sqrt(per(sigma^2)).
    """
    arr = _check_profile(variances)
    n = arr.shape[0]
    factor = (2.0 / math.pi) ** (n / 2.0)
    upper = factor * permanent_float(np.sqrt(arr))
    lower = factor * math.sqrt(permanent_float(arr))
    return upper, lower
