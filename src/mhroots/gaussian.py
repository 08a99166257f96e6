"""Structured Gaussian random matrices and the mean absolute determinant.

The random matrix attached to a shape has independent mean-zero normal
entries whose variance in column group j is the degree of the row's equation
in block j.  The Monte Carlo mean of |det| over such draws is the kernel of
the expected-root-count formula.  Sample i of an estimate is row i of the
block-keyed normal stream of ``rng.normals``, so the result is a pure
function of (seed, samples), bitwise independent of the worker count, and
``sample_matrix(var, seed, i)`` replays sample i of any run.  A sample
draws only part of the matrix and integrates the rest out in closed form,
so its value is a conditional mean of |det|: it has the mean of |det|, a
lower variance, and a plain iid stderr.  Which part is drawn is the stream
contract.

At every n the largest group of identical columns of the profile (ties to
the first) is integrated out.  Its k columns are iid N(0, D), D =
diag(d_i), so given the m = n - k other columns O, det is a Gaussian
multilinear form and (Edelman & Kostlan 1995; the projection argument of
``expectation.abs_det_p1``)

    E[|det| | O] = c_k * sqrt(sum_{|S| = k} prod_{i in S} d_i * det(O_{S^c})**2),

with c_k = ``abs_det_closed_standard(k)``.  A sample draws the entries of O
with positive variance only, row by row; the others are exact zeros, and
no normal is drawn for them.  With p rows where d_i = 0, O_Z those rows of
O and W = D_+**(-1/2) O_+ the others, the sum is prod_{d_i > 0} d_i *
det(O_Z O_Z^T) * det(W_2^T W_2), W_2 = W Q_2 where O_Z^T = [Q_1 Q_2] R.
Householder reflections, vectorised over the samples, give both
determinants as products of the norms they remove, the rows of W sorted by
their expected norm, largest first.  So no Gram matrix is formed, and rows
of W that differ in scale by 2**60 keep their digits.  The sum is 0 when
p > m or when a column of O has variance 0, and when k = n it is prod d_i:
these are exact, with stderr 0, and draw nothing.
So every n = 1 profile and every profile with one distinct column is exact.

Each piece of samples carries moments (shift, e1, e2), the sums of |v| and
v**2 scaled by exp(-shift) and exp(-2 * shift), and ``_merge`` folds every
piece's moments once, in stream order, into the estimate's.  A piece's
shift is its largest log value, so every scaled value is at most 1 and no
sum overflows; the mean and the stderr are scaled by exp(shift) in the log
domain at the end, so they overflow only when they are past float range
themselves.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import rng
from .permanent import _check_finite_nonnegative, permanent_float
from .shape import ShapeSpec, expand_delta
from .specialfn import LOG_SQRT_PI, SQRT_PI, gamma_half, log_gamma_half

# Samples per piece at most; a piece of many normals per sample has fewer.
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


@dataclass(frozen=True)
class _ColumnBlock:
    """The block of identical columns that a sample integrates out, and how
    its value is computed from the other columns O.

    A sample's normals are the entries of O with positive variance,
    row-major, over ``others`` (the m columns of O in order) and every row
    in order; the other entries of O are exact zeros.  ``order`` puts the p
    rows where d_i = 0 first, then the others by the expected norm of their
    row of W, largest first.  Normal t goes to entry ``dest[t]`` of the
    row-major (n, m) working copy, rows in that order, times ``scale[t]``,
    which turns the normals into O_Z and W; ``holes`` are the entries of the
    working copy that stay 0.  ``log_const`` is log c_k + (1/2) sum_{d_i > 0}
    log d_i.
    """

    others: np.ndarray
    order: np.ndarray
    p: int
    dest: np.ndarray
    scale: np.ndarray
    holes: np.ndarray
    log_const: float

    @property
    def width(self) -> int:
        """Normals per sample: the entries of O with positive variance, or
        none where the value is exact."""
        return 0 if self.exact is not None else self.dest.size

    @property
    def work_size(self) -> int:
        """Floats per sample of the working copy: n * m."""
        return self.order.size * self.others.size

    @property
    def exact(self) -> float | None:
        """The conditional mean where it does not depend on O: 0 when p > m
        (the p rows live on m columns) or when a column of O has variance 0,
        exp(log_const) when k = n.  So a sampled profile draws at least one
        normal in each column of O, and a sample's normals hold a row of O."""
        m = self.others.size
        if self.p > m:
            return 0.0
        if m == 0:
            return math.exp(self.log_const)
        return None if np.bincount(self.dest % m, minlength=m).all() else 0.0

    @property
    def piece_rows(self) -> int:
        """Samples per piece: the piece's normals and its working copy fit
        rng.PIECE_ELEMENTS together."""
        return max(1, min(DET_CHUNK, rng.PIECE_ELEMENTS // (self.dest.size + self.work_size)))

    @property
    def task_rows(self) -> int:
        """Samples per pool task: one piece of whole blocks, or one block of
        several pieces where a piece is smaller than a block."""
        rows = self.piece_rows
        return max(rng.SAMPLE_BLOCK, rows - rows % rng.SAMPLE_BLOCK)


def _column_block(arr: np.ndarray) -> _ColumnBlock:
    """The largest group of identical columns of ``arr``, ties to the first."""
    n = arr.shape[0]
    groups: dict[tuple, list[int]] = {}
    for j, col in enumerate(map(tuple, arr.T)):
        groups.setdefault(col, []).append(j)
    block = max(groups.values(), key=len)  # dicts keep first-seen order
    d = arr[:, block[0]]
    others = np.delete(np.arange(n), block)
    live = d > 0
    # the variances of W = D_+**(-1/2) O_+, and of O_Z unscaled
    var = arr[:, others] / np.where(live, d, 1.0)[:, None]
    order = np.argsort(np.where(live, -var.sum(axis=1), -np.inf), kind="stable")
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n)  # row i is row place[i] of the working copy
    entry = place[:, None] * others.size + np.arange(others.size)
    drawn = arr[:, others] > 0
    k = len(block)
    log_ck = 0.5 * k * math.log(2.0) + log_gamma_half(k + 1) - LOG_SQRT_PI
    log_const = log_ck + 0.5 * float(np.log(d[live]).sum())
    p = n - int(live.sum())
    return _ColumnBlock(
        others, order, p, entry[drawn], np.sqrt(var[drawn]), entry[~drawn], log_const
    )


def sample_matrix(variances, seed: int, index: int = 0) -> np.ndarray:
    """One draw of the structured matrix for stream position ``index``: the
    entries that sample ``index`` of ``mc_abs_det`` draws, the others zero.

    Zero-variance entries are exact structural zeros.  The estimator
    integrates the largest group of identical columns out (ties to the
    first), so those columns are zero, and the normals fill the
    positive-variance entries of the other columns row by row.  Where the
    value needs no draw (see ``mc_abs_det``) the matrix is zero.
    """
    arr = _check_profile(variances)
    n = arr.shape[0]
    mat = np.zeros((n, n))
    block = _column_block(arr) if n else None
    if block is not None and block.width:
        o = np.zeros((n, block.others.size))
        o[arr[:, block.others] > 0] = rng.normals(seed, index, 1, block.width)[0]
        mat[:, block.others] = o
    return mat * np.sqrt(arr)


def _merge(acc: tuple, part: tuple) -> tuple:
    """Fold the moments ``part`` into ``acc``.

    Moments are (shift, e1, e2): the sums of |v| and v**2 over a run of
    samples, scaled by exp(-shift) and exp(-2 * shift).  The result carries
    the larger shift.
    """
    shift = max(acc[0], part[0])
    a = math.exp(acc[0] - shift)
    b = math.exp(part[0] - shift)
    return shift, acc[1] * a + part[1] * b, acc[2] * (a * a) + part[2] * (b * b)


def _reflect(
    x: np.ndarray, rest: np.ndarray, scratch: np.ndarray, acc: np.ndarray, columns: bool = False
) -> None:
    """One Householder step on every sample at once, the last axis running
    over the samples: add log |x| to ``acc`` and reflect each vector of
    ``rest`` by the reflection that takes x (i, samples) to a multiple of
    e_0.  The vectors run along the second axis of ``rest`` (r, i, samples),
    as the rows of a matrix do, or with ``columns`` along its first (i, r,
    samples), as its columns do.  Overwrites x; ``scratch`` holds at least
    ``rest[0].size`` floats, and ``rest`` is stepped in runs along its first
    axis that fit there."""
    norm = np.sqrt(np.einsum("is,is->s", x, x))
    with np.errstate(divide="ignore"):
        acc += np.log(norm)
    if rest.size == 0:
        return
    # x becomes v = x + sign(x_0) |x| e_0, and each r of rest loses (2 / |v|**2) (r . v) v
    x[0] += np.copysign(norm, x[0])
    tau = norm * np.abs(x[0])
    np.divide(1.0, tau, out=tau, where=tau > 0)  # a zero norm: nothing to reflect
    dots = np.einsum("irs,is->rs" if columns else "ris,is->rs", rest, x)
    dots *= tau
    run = scratch.size // rest[0].size
    for first in range(0, len(rest), run):
        part = rest[first : first + run]
        step = scratch[: part.size].reshape(part.shape)
        if columns:
            step[...] = dots
            step *= x[first : first + run, None]
        else:
            step[...] = x
            step *= dots[first : first + run, None]
        part -= step


def _block_values(z: np.ndarray, block: _ColumnBlock, work: np.ndarray) -> tuple:
    """(shift, v * exp(-shift)) of the samples whose normals are the rows of
    ``z``, v = E[|det| | O] = exp(log_const) * sqrt(det(O_Z O_Z^T) *
    det(W_2^T W_2)).  The shift is the largest log v, or log_const when
    every value is 0.

    ``work`` holds ``work_size`` floats for each of at least as many
    samples as ``z``.  It takes O, each entry a vector over the samples,
    rows O_Z then W: the normals are scaled in place in ``z`` and copied to
    their entries, and the other entries are set to 0.  Then ``z`` is the
    reflections' scratch.  Steps j < p reflect columns j.. so that row j of
    O_Z ends in column j, which applies Q to W; then steps on the columns
    of W_2, the columns p.. of W Q, reflect rows so that each column ends on
    the diagonal.  Each step removes one norm, whose log it adds up.
    """
    n, m = block.order.size, block.others.size
    p, samples = block.p, z.shape[0]
    a = work[: n * m * samples].reshape(n, m, samples)
    entries = a.reshape(n * m, samples)
    z *= block.scale
    entries[block.dest] = z.T
    entries[block.holes] = 0.0
    scratch = z.reshape(-1)  # the normals are copied into a
    logv = np.zeros(samples)
    for j in range(p):
        _reflect(a[j, j:], a[j + 1 :, j:], scratch, logv)
    for j in range(p, m):
        _reflect(a[j:, j], a[j:, j + 1 :], scratch, logv, columns=True)
    top = float(logv.max())
    if top == -math.inf:
        top = 0.0
    logv -= top
    return block.log_const + top, np.exp(logv, out=logv)


def _unshift(shift: float, x: float) -> float:
    """x * exp(shift), taken in the log domain: OverflowError only when the
    product itself is past float range."""
    return math.exp(shift + math.log(x)) if x > 0 else 0.0


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_abs_det(variances, samples: int, seed: int, workers: int = 1) -> MCEstimate:
    """Monte Carlo mean of |det| of the structured Gaussian matrix.

    The estimate depends only on (seed, samples): the sample range is cut
    into pieces whose size depends only on the profile, and their moments
    are folded once, in stream order, so any worker count gives bitwise
    identical results.  Each sample draws the positive-variance entries of
    the columns outside the largest group of identical columns and its value
    is E[|det| | O], its log from Householder reflections of O, vectorised
    over the samples (see the module docstring).  When that mean does not
    depend on O (p > m or a zero column gives 0, k = n gives c_n *
    sqrt(prod d_i), every n = 1 profile among them), nothing is drawn and
    the estimate is exact, with stderr 0.

    Samples are drawn in pieces of at most DET_CHUNK samples whose normals
    and working copy fit PIECE_ELEMENTS together (``rng.normal_pieces``).
    A pool task is one piece of whole blocks, or one block where pieces are
    smaller (``_ColumnBlock.task_rows``), and returns its pieces' moments
    (shift, e1, e2); one ``_merge`` fold takes them all.  The mean and the
    stderr come from the scaled sums and are scaled by exp(shift) at the
    end: OverflowError only when they are past float range themselves.
    """
    arr = _check_profile(variances)
    check_samples(samples)
    t0 = time.perf_counter()
    block = _column_block(arr) if arr.shape[0] else None
    exact = 1.0 if block is None else block.exact  # the empty determinant is 1
    if exact is not None:
        return MCEstimate(exact, 0.0, samples, seed, time.perf_counter() - t0)
    step = block.task_rows
    tasks = [(start, min(step, samples - start)) for start in range(0, samples, step)]
    # one working copy per thread, for all its tasks: a new one per task
    # faults its pages in again, up to 25% of the time at 65,536 samples
    held = threading.local()

    def task_moments(task: tuple[int, int]) -> list[tuple]:
        """Moments (shift, e1, e2) of each piece of one task, in stream order."""
        if not hasattr(held, "work"):
            held.work = np.empty(min(block.piece_rows, samples) * block.work_size)
        moments = []
        for z in rng.normal_pieces(seed, *task, block.width, block.piece_rows):
            shift, v = _block_values(z, block, held.work)
            moments.append((shift, float(v.sum()), float((v * v).sum())))
        return moments

    # a thread per task up to max_workers, each with its own working copy:
    # threads beyond the CPUs add memory, not speed
    threads = min(workers, len(tasks), _available_cpus())
    if threads > 1:
        # imported here: it adds about 7 ms to every start-up that needs no pool
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(task_moments, tasks))
    else:
        results = [task_moments(t) for t in tasks]
    shift, e1, e2 = functools.reduce(_merge, itertools.chain.from_iterable(results))
    mean = e1 / samples
    var = max(0.0, (e2 - samples * mean * mean) / (samples - 1))
    return MCEstimate(
        _unshift(shift, mean),
        _unshift(shift, math.sqrt(var / samples)),
        samples,
        seed,
        time.perf_counter() - t0,
    )


def abs_det_closed_standard(n: int) -> float:
    """Exact mean |det| of an n x n standard Gaussian matrix:
    2**(n/2) * Gamma((n+1)/2) / Gamma(1/2)."""
    if n < 0:
        raise ValueError(f"dimension must be nonnegative, got {n}")
    if n == 0:
        return 1.0
    g = gamma_half(n + 1)
    return 2.0 ** (n / 2.0) * float(g.rational) * SQRT_PI ** (g.sqrt_pi - 1)


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
