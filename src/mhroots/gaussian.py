"""Structured Gaussian random matrices and the mean absolute determinant.

The random matrix attached to a shape has independent mean-zero normal
entries whose variance in column group j is the degree of the row's equation
in block j.  The Monte Carlo mean of |det| over such draws is the kernel of
the expected-root-count formula.  Sample i of an estimate is row i of the
block-keyed normal stream of ``rng.normals``, so the result is a pure
function of (seed, samples), bitwise independent of the worker count, and
``sample_matrix(var, seed, i)`` replays sample i of any run.

For 2 <= n <= SMALL_DET_DIM a sample draws only rows 1..n-1 and integrates
the top row out: det is linear in row 0, so its value is E[|det| | rows
1..n-1] = sqrt(2/pi) * sqrt(sum_c v_0c * M_c**2), M_c the minor without row
0 and column c.  It has the same mean as |det|, a lower variance (its
second moment is (2/pi) * per(V)) and n fewer normals; its stderr is a plain
iid one.  So SMALL_DET_DIM is part of the stream contract.  The minors come
from a vectorised Laplace expansion by complementary minors, run on chunks
of DET_CHUNK samples with each entry a contiguous vector over the chunk;
there batched LAPACK spends most of its time on per-matrix overhead.  At
n = 1 a sample is |sigma z|.  Above SMALL_DET_DIM a sample draws the whole
matrix and its |det| comes from LAPACK's pivoted triangular factorization,
in the log domain above LOGDET_DIM.
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
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


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


def _draws_per_sample(n: int) -> int:
    """Normals each sample of an n x n estimate draws: rows 1..n-1 where the
    top row is integrated out (2 <= n <= SMALL_DET_DIM), else all n rows."""
    return n * (n - 1) if 2 <= n <= SMALL_DET_DIM else n * n


def sample_matrix(variances, seed: int, index: int = 0) -> np.ndarray:
    """One draw of the structured matrix for stream position ``index``: the
    rows that sample ``index`` of ``mc_abs_det`` draws.

    Zero-variance entries are exact structural zeros.  For 2 <= n <=
    SMALL_DET_DIM the estimator integrates the top row out, so row 0 is
    zero and the sample's value is sqrt(2/pi) * sqrt(sum_c v_0c * M_c**2),
    M_c the determinant of rows 1..n-1 without column c.
    """
    arr = _check_profile(variances)
    n = arr.shape[0]
    width = _draws_per_sample(n)
    z = np.zeros(n * n)
    z[n * n - width :] = rng.normals(seed, index, 1, width)[0]
    return z.reshape(n, n) * np.sqrt(arr)


@functools.lru_cache(maxsize=SMALL_DET_DIM)
def _laplace_plan(n: int) -> tuple:
    """Bottom-up Laplace expansion of the maximal minors of an (n - 1) x n
    matrix.

    Level r (r = 2..n-1) lists, for each r-subset S of the columns in
    lexicographic order, the minor on the last r rows and columns S as terms
    (sign, flat index of entry (n - 1 - r, c), index of the level r - 1 minor
    on S minus c), for c running through S.  Level 1 is the last row itself.
    """
    levels = []
    index = {(c,): c for c in range(n)}
    for r in range(2, n):
        row = (n - 1 - r) * n
        subsets = list(itertools.combinations(range(n), r))
        levels.append(
            tuple(
                tuple((k % 2 == 0, row + c, index[s[:k] + s[k + 1 :]]) for k, c in enumerate(s))
                for s in subsets
            )
        )
        index = {s: i for i, s in enumerate(subsets)}
    return tuple(levels)


def _maximal_minors(zt: np.ndarray, n: int):
    """The n maximal minors of the (n - 1) x n matrices whose row-major
    entries are the rows of ``zt``, of shape (n * (n - 1), matrices): one
    vector operation per term.  The minor without column c is entry n - 1 - c."""
    minors = zt[n * (n - 2) :]
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
    return minors


def _top_row_values(z: np.ndarray, sigma_flat: np.ndarray, var_top: np.ndarray, n: int):
    """E[|det| | rows 1..n-1] for each row of ``z``, the unscaled rows 1..n-1
    of a sample.  det is linear in row 0, so given the other rows it is
    normal with variance sum_c v_0c * M_c**2, M_c the minor without row 0
    and column c, and its mean absolute value is sqrt(2/pi) times the root."""
    # one transposed copy makes each entry a contiguous vector over the chunk
    minors = _maximal_minors(np.multiply(z.T, sigma_flat[n:, None], order="C"), n)
    acc = np.zeros(z.shape[0])
    for c in np.flatnonzero(var_top):
        m = minors[n - 1 - c]
        acc += var_top[c] * (m * m)
    acc = np.sqrt(acc, out=acc)
    acc *= _SQRT_2_OVER_PI
    return acc


def _dets(z: np.ndarray, sigma_flat: np.ndarray, n: int) -> np.ndarray:
    """det of each row of ``z`` scaled by ``sigma_flat`` as an n x n matrix;
    log |det| (-inf when singular) above LOGDET_DIM."""
    z *= sigma_flat
    mats = z.reshape(-1, n, n)
    if n <= LOGDET_DIM:
        return np.linalg.det(mats)
    sign, logabs = np.linalg.slogdet(mats)
    return np.where(sign == 0, -np.inf, logabs)


def _batch_absdet_moments(
    arr: np.ndarray, sigma_flat: np.ndarray, seed: int, start: int, count: int
):
    n = arr.shape[0]
    rows = DET_CHUNK if n <= SMALL_DET_DIM else None
    pieces = rng.normal_pieces(seed, start, count, _draws_per_sample(n), rows)
    if n > SMALL_DET_DIM:
        values = (_dets(z, sigma_flat, n) for z in pieces)
    elif n > 1:
        values = (_top_row_values(z, sigma_flat, arr[0], n) for z in pieces)
    else:
        values = (z[:, 0] * sigma_flat[0] for z in pieces)
    if n > LOGDET_DIM:
        return count, None, None, np.concatenate(list(values))
    # folded piece by piece, in stream order: no batch-sized array of values
    s1 = 0.0
    s2 = 0.0
    for v in values:
        a = np.abs(v)
        s1 += float(a.sum())
        s2 += float((a * a).sum())
    return count, s1, s2, None


def mc_abs_det(variances, samples: int, seed: int, workers: int = 1) -> MCEstimate:
    """Monte Carlo mean of |det| of the structured Gaussian matrix.

    The estimate depends only on (seed, samples): the sample range is cut
    into the batches of ``rng.batches``, whose size depends only on n, and
    their partial sums are folded in batch order, so any worker count gives
    bitwise identical results.  For 2 <= n <= SMALL_DET_DIM (7) each sample
    draws rows 1..n-1 only and contributes E[|det| | rows 1..n-1] =
    sqrt(2/pi) * sqrt(sum_c v_0c * M_c**2), whose mean is E|det|; the minors
    M_c come from the Laplace kernel, in fixed chunks of DET_CHUNK samples.
    Elsewhere a sample is |det| of a whole draw: |sigma z| at n = 1, by
    pivoted triangular factorization above SMALL_DET_DIM, and above
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
    batches = rng.batches(samples, _draws_per_sample(n))
    if workers > 1 and len(batches) > 1:
        # imported here: it adds about 7 ms to every start-up that needs no pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda b: _batch_absdet_moments(arr, sigma_flat, seed, *b), batches)
            )
    else:
        results = [_batch_absdet_moments(arr, sigma_flat, seed, *b) for b in batches]

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
