"""Expected number of real projective roots of a random system.

The central identity expresses the expectation as

    2**(-n/2) * prod_j [Gamma(1/2) / Gamma((n_j + 1)/2)] * E|det Z|

where Z is the shape's structured Gaussian matrix.  The dispatcher resolves
each shape through, in order (the result's ``kind`` in brackets):

1. a product decomposition into independent sub-shapes ("product");
2. the exact closed form available when the degree matrix factors as
   d_i * e_j over nonnegative integers ("closed_form");
3. an exact zero when the generic complex-root count vanishes ("zero");
4. the peel ("peel"): an equation whose support is one block of positive
   size makes the paper's row inequalities an equality, E = sqrt(d_ij) *
   E(sub-shape), so every such equation is dropped and its block shrunk,
   to a fixed point, and the residual goes through the dispatcher again;
5. for two blocks of positive size, one of size 1 (P^1 x P^m, every n = 2
   shape left over among them), the exact mean |det|, a 1-D integral taken
   by the trapezoid rule ("exact_p1", see ``abs_det_p1``), unless the
   rule's two levels disagree;
6. for n = 3, the exact mean |det| of a 3 x 3 matrix, a 2-D integral over
   the sphere taken by tanh-sinh quadrature ("exact_3x3", see
   ``abs_det_3x3``), unless the rule's two levels disagree: in practice
   only P^1 x P^1 x P^1 is left for it;
7. otherwise Monte Carlo estimation of the determinant factor
   ("monte_carlo").

Every result is a pure function of (seed, canonical shape, samples): the
dispatcher first maps a shape to its canonical representative under row
permutations and block relabellings (``bkk._canonical``), which leave the
expectation unchanged, and a Monte Carlo estimate draws its streams from
``derive_seed(seed, canonical shape)``.  So an estimate's ``mc.seed`` is
that derived seed, and ``sample_matrix`` replays it on the canonical
shape's variance profile: the entries each sample draws.  They leave the
largest group of identical columns zero, since the estimator integrates
that block out (see ``gaussian``).  The form is canonical under row
permutations; two labellings that swap blocks of equal size can still give
two representatives, and so two derived seeds.
Results are memoized in _EXPECTATION_MEMO, at most EXPECTATION_MEMO_SIZE
of them, so a run that asks for one shape again under the same seed and
sample count, as ``bounds`` and each ``row_recursion_check`` of a shape
do, estimates it once.  A shape that
step 4 resolves also has a Monte Carlo estimate of its own, under its own
memo key, for the checks that must compare independent values
(``expectation(..., reduce=False)``); steps 5 and 6 have none, as their
values are computed independently of the values at n - 1 they are compared
with.  The memo holds only what recomputing would give;
``_EXPECTATION_MEMO.clear()`` empties it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress

import numpy as np

from .bkk import _canonical, _perfect_matching, bkk_count, is_simply_reducible, product_split
from .gaussian import MCEstimate, mc_abs_det, variance_profile
from .permanent import permanent_float
from .shape import ShapeSpec, _factorial_product, expand_delta, validate
from .specialfn import SQRT_PI, ellipe, gamma_half, log_gamma_half

DEFAULT_SAMPLES = 100_000
LOG_PREFACTOR_DIM = 60
# Standard errors a Monte Carlo comparison may miss by before it is flagged.
STDERR_MULT = 4.0
# Results kept by the dispatcher; the least recently used goes first.  The
# README's verify run (100 shapes) stores 343, for 341 distinct shapes.
EXPECTATION_MEMO_SIZE = 4096
# Kinds of the exact reductions that ``reduce=False`` replaces by Monte Carlo.
# A row check on a peeled shape would compare a value with itself.  The exact
# values "exact_p1" and "exact_3x3" are not among them: each is computed
# independently of the values of its sub-shapes, which have one block (closed
# form), are P^1 x P^(m-1) (another integral) or are P^1 x P^1, so a row check
# on such a shape compares independent exact values and is a FAIL-level check.
REDUCED_KINDS = ("peel",)
# Tanh-sinh level of the 3 x 3 rule, the relative gap to the half level that
# it and the P^1 x P^m rule accept, and the theta rows evaluated at once.
EXACT_3X3_LEVEL = 64
EXACT_3X3_RTOL = 1e-8
EXACT_3X3_CHUNK = 32

_EXPECTATION_MEMO: dict = {}


def mc_slack(stderr: float, scale: float, multiplier: float) -> float:
    """How far a comparison with a Monte Carlo value may miss: ``multiplier``
    standard errors plus a float allowance of 1e-9 relative to ``scale``."""
    return multiplier * stderr + 1e-9 * max(1.0, scale)


@dataclass(frozen=True)
class ClosedFormValue:
    """Exact value rational * pi**(pi_sqrt_power / 2) * sqrt(radicand)."""

    rational: Fraction
    pi_sqrt_power: int
    radicand: int

    @property
    def value(self) -> float:
        return (
            float(self.rational)
            * math.pi ** (self.pi_sqrt_power / 2.0)
            * _sqrt_int(self.radicand)
        )


@dataclass(frozen=True)
class ExpectationResult:
    """Expected real-root count with provenance.

    ``kind`` is one of "closed_form", "product", "zero", "peel",
    "exact_p1", "exact_3x3", "monte_carlo"; ``closed`` carries
    the exact symbolic value on the closed-form path and ``mc`` the raw |det| estimate
    on the Monte Carlo path.  A product's ``parts`` are its two factors; a peel's
    ``parts`` hold its residual (none when nothing is left) and ``peeled``
    the exact product P of the peeled degrees, the value being sqrt(P) times
    the residual's (times 1 without one).  ``prefactor`` is the gamma-ratio
    factor multiplying the determinant mean.
    """

    value: float
    kind: str
    prefactor: float
    stderr: float = 0.0
    mc: MCEstimate | None = None
    closed: ClosedFormValue | None = None
    parts: tuple["ExpectationResult", ...] | None = None
    peeled: int | None = None


@dataclass(frozen=True)
class BoundsReport:
    """Two-sided bounds with the point estimate and tightness flag.

    ``upper`` is the scaled permanent of the square-rooted expanded degree
    matrix, ``lower`` the square root of the generic complex-root count;
    ``equality`` marks the simply reducible shapes, for which both bounds are
    attained.
    """

    upper: float
    lower: float
    bkk: int
    estimate: ExpectationResult
    equality: bool
    margin_upper: float
    margin_lower: float


@dataclass(frozen=True)
class RowRecursionReport:
    """One row's recursive inequalities around the expectation.

    upper = sum_j sqrt(delta_ij) * E(sub_j) and
    lower = sqrt(sum_j delta_ij * E(sub_j)**2) must bracket the full
    expectation; equality holds exactly when at most one block contributes.
    """

    row: int
    upper: float
    lower: float
    middle: ExpectationResult
    upper_stderr: float
    lower_stderr: float
    equality_expected: bool
    subs: tuple[tuple[int, float, ExpectationResult], ...]  # (block, degree, sub-result)

    @property
    def holds(self) -> bool:
        """``holds_within`` at the default STDERR_MULT."""
        return self.holds_within(STDERR_MULT)

    def holds_within(self, multiplier: float) -> bool:
        """Both inequalities hold up to ``mc_slack`` at ``multiplier``."""
        slack_u = mc_slack(self.upper_stderr + self.middle.stderr, self.upper, multiplier)
        slack_l = mc_slack(self.lower_stderr + self.middle.stderr, self.upper, multiplier)
        return (
            self.upper + slack_u >= self.middle.value
            and self.middle.value >= self.lower - slack_l
        )


def derive_seed(seed: int, spec: ShapeSpec) -> int:
    """Stable sub-stream seed from a parent seed and a shape."""
    payload = json.dumps({"shape": spec.to_json()}, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).digest()
    h = int.from_bytes(digest[:8], "big")
    return (seed * 0x9E3779B97F4A7C15 + h) % (1 << 64)


def prefactor(spec: ShapeSpec) -> float:
    """Gamma-ratio factor 2**(-n/2) * prod_j Gamma(1/2)/Gamma((n_j + 1)/2)."""
    n = spec.n
    if n > LOG_PREFACTOR_DIM:
        log = -0.5 * n * math.log(2.0)
        for nj in spec.block_sizes:
            g = gamma_half(nj + 1)
            log += (1 - g.sqrt_pi) * math.log(SQRT_PI) - g.log
        return math.exp(log)
    out = 2.0 ** (-n / 2.0)
    for nj in spec.block_sizes:
        g = gamma_half(nj + 1)
        out *= SQRT_PI ** (1 - g.sqrt_pi) / float(g.rational)
    return out


def rank_one_factors(spec: ShapeSpec) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Nonnegative integer vectors (d, e) with degrees = d_i * e_j, if any.

    The column vector e is taken primitive (gcd 1 over its nonzero entries),
    which makes the factorization canonical; rows of zeros get d_i = 0.
    """
    rows = spec.degrees
    nonzero = [r for r in rows if any(r)]
    if not nonzero:
        return tuple([0] * spec.n), tuple([0] * spec.k)
    base = nonzero[0]
    pattern = tuple(v > 0 for v in base)
    for r in nonzero:
        if tuple(v > 0 for v in r) != pattern:
            return None
    g = math.gcd(*base)
    e = tuple(v // g for v in base)
    d = []
    for r in rows:
        if not any(r):
            d.append(0)
            continue
        j0 = next(j for j in range(spec.k) if e[j] > 0)
        t, rem = divmod(r[j0], e[j0])
        if rem != 0:
            return None
        if any(r[j] != t * e[j] for j in range(spec.k)):
            return None
        d.append(t)
    return tuple(d), e


def closed_form(spec: ShapeSpec) -> ClosedFormValue | None:
    """Exact expectation when the degree matrix is rank one over nonnegative
    integers; None otherwise.

    Value: Gamma((n+1)/2)/Gamma(1/2) * prod_j Gamma(1/2)/Gamma((n_j+1)/2)
    * sqrt(prod_i d_i * prod_{j: n_j > 0} e_j ** n_j).
    """
    factors = rank_one_factors(spec)
    if factors is None:
        return None
    d, e = factors
    n = spec.n
    top = gamma_half(n + 1)
    rational = top.rational
    pi_pow = top.sqrt_pi - 1
    for nj in spec.block_sizes:
        g = gamma_half(nj + 1)
        rational /= g.rational
        pi_pow += 1 - g.sqrt_pi
    radicand = 1
    for di in d:
        radicand *= di
    for ej, nj in zip(e, spec.block_sizes):
        if nj > 0:
            radicand *= ej**nj
    return ClosedFormValue(rational, pi_pow, radicand)


def _generic_count_is_zero(spec: ShapeSpec) -> bool:
    """Whether the generic complex-root count vanishes.

    It is the permanent of the nonnegative expanded degree matrix over
    prod_j n_j!, so it vanishes exactly when the matrix's support has no
    perfect matching, which the block matcher decides without expanding it.
    """
    return _perfect_matching(spec.block_sizes, spec.degrees) is None


def _zero_result(spec: ShapeSpec) -> ExpectationResult:
    return ExpectationResult(0.0, "zero", prefactor(spec))


def _error_terms(res: ExpectationResult) -> dict:
    """First-order standard error of ``res``, one term per Monte Carlo
    estimate it rests on, keyed by the estimate's (seed, samples, mean).

    Equal canonical sub-shapes share one estimate, so a sum over results
    must add their terms before squaring, as ``_combine`` does.
    """
    if res.mc is not None:
        return {(res.mc.seed, res.mc.samples, res.mc.mean): res.stderr}
    if res.parts is None:
        return {}
    if res.peeled is not None:
        (rest,) = res.parts
        return _combine(((_sqrt_int(res.peeled), _error_terms(rest)),))
    left, right = res.parts
    return _combine(((right.value, _error_terms(left)), (left.value, _error_terms(right))))


def _combine(weighted) -> dict:
    """Error terms of sum_i w_i * x_i from (w_i, error terms of x_i) pairs."""
    out: dict = {}
    for weight, terms in weighted:
        for key, term in terms.items():
            out[key] = out.get(key, 0.0) + weight * term
    return out


def split_expectation(
    spec: ShapeSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0, workers: int = 1
) -> ExpectationResult | None:
    """Product of sub-expectations over a product decomposition, if one exists.

    The coupling degrees of the lower group within the upper blocks are
    irrelevant to the expectation and are dropped by the split.
    """
    sp = product_split(spec)
    if sp is None:
        return None
    left = expectation(sp.first, samples, seed, workers)
    right = expectation(sp.second, samples, seed, workers)
    res = ExpectationResult(
        left.value * right.value, "product", prefactor(spec), parts=(left, right)
    )
    return replace(res, stderr=math.hypot(*_error_terms(res).values()))


def expectation(
    spec: ShapeSpec,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    workers: int = 1,
    reduce: bool = True,
) -> ExpectationResult:
    """Expected number of real projective roots under the invariant ensemble.

    Dispatch order: product decomposition, rank-one closed form, exact zero
    when the generic complex-root count vanishes, the peel, the exact
    P^1 x P^m value, the exact 3 x 3 value, Monte Carlo otherwise.  With
    ``reduce=False`` a shape that the peel would resolve gets its own Monte
    Carlo estimate instead, memoized under its own key; the P^1 x P^m and
    3 x 3 values are kept (see REDUCED_KINDS).  The shape is resolved as its
    canonical representative, through the memo; ``workers`` never changes a
    result, so it is not part of the key.
    """
    blocks, rows = _canonical(spec.block_sizes, spec.degrees)
    canonical = ShapeSpec(blocks, rows)
    key = (blocks, rows, samples, seed)
    res = _memoized(key, lambda: _dispatch(canonical, samples, seed, workers))
    if not reduce and res.kind in REDUCED_KINDS:
        res = _memoized(
            key + ("monte_carlo",), lambda: _monte_carlo(canonical, samples, seed, workers)
        )
    return res


def _memoized(key, compute) -> ExpectationResult:
    """The memo's entry for ``key``, computed on a miss; the least recently
    used entry goes first once the memo holds EXPECTATION_MEMO_SIZE."""
    res = _EXPECTATION_MEMO.pop(key, None)
    if res is None:
        res = compute()
        if len(_EXPECTATION_MEMO) >= EXPECTATION_MEMO_SIZE:
            del _EXPECTATION_MEMO[next(iter(_EXPECTATION_MEMO))]
    _EXPECTATION_MEMO[key] = res
    return res


def _dispatch(spec: ShapeSpec, samples: int, seed: int, workers: int) -> ExpectationResult:
    prod = split_expectation(spec, samples, seed, workers)
    if prod is not None:
        return prod
    cf = closed_form(spec)
    if cf is not None:
        return ExpectationResult(cf.value, "closed_form", prefactor(spec), closed=cf)
    if _generic_count_is_zero(spec):
        return _zero_result(spec)
    peel = _peel(spec)
    if peel is not None:
        peeled, residual = peel
        factor = _sqrt_int(peeled)
        if residual is None:
            return ExpectationResult(factor, "peel", prefactor(spec), peeled=peeled)
        rest = expectation(residual, samples, seed, workers)
        return ExpectationResult(
            factor * rest.value,
            "peel",
            prefactor(spec),
            stderr=factor * rest.stderr,
            parts=(rest,),
            peeled=peeled,
        )
    value, kind = abs_det_p1(spec), "exact_p1"
    if value is None and spec.n == 3:
        value, kind = abs_det_3x3(variance_profile(spec)), "exact_3x3"
    if value is not None:
        pf = prefactor(spec)
        return ExpectationResult(pf * value, kind, pf)
    return _monte_carlo(spec, samples, seed, workers)


def _monte_carlo(spec: ShapeSpec, samples: int, seed: int, workers: int) -> ExpectationResult:
    pf = prefactor(spec)
    mc = mc_abs_det(variance_profile(spec), samples, derive_seed(seed, spec), workers)
    return ExpectationResult(pf * mc.mean, "monte_carlo", pf, stderr=pf * mc.stderr, mc=mc)


def _peel(spec: ShapeSpec) -> tuple[int, ShapeSpec | None] | None:
    """Drop every equation whose support is exactly one block of positive
    size, shrinking that block by one, until none is left; None when no
    equation qualifies.

    Returns (P, residual): P is the product of the dropped equations'
    degrees in their blocks, and the residual keeps the remaining equations
    on the blocks of positive size (None when no equation remains).  When
    the generic root count is nonzero, E(spec) = sqrt(P) * E(residual), and
    any order of drops gives the same residual.  One pass over per-row
    counts of live blocks: a block's holders (rows of positive degree) are
    visited once, when its size reaches zero, so the work is O(n * k).
    """
    sizes = list(spec.block_sizes)
    rows = spec.degrees
    # the rows where each block has positive degree
    holders = [list(compress(range(len(rows)), col)) for col in zip(*rows)]
    live = [0] * len(rows)
    for nj, held in zip(sizes, holders):
        if nj:
            for r in held:
                live[r] += 1
    ready = [i for i, count in enumerate(live) if count == 1]
    if not ready:
        return None
    dropped = [False] * len(rows)
    peeled = 1
    while ready:
        i = ready.pop()
        if live[i] != 1:  # its one block ran out under earlier drops
            continue
        row = rows[i]
        j = next(j for j, (d, nj) in enumerate(zip(row, sizes)) if d and nj)
        dropped[i] = True
        peeled *= row[j]
        sizes[j] -= 1
        if sizes[j] == 0:
            for r in holders[j]:
                if not dropped[r]:
                    live[r] -= 1
                    if live[r] == 1:
                        ready.append(r)
    keep = [j for j, nj in enumerate(sizes) if nj > 0]
    if not keep:
        return peeled, None
    residual = ShapeSpec(
        tuple(sizes[j] for j in keep),
        tuple(tuple(row[j] for j in keep) for row, gone in zip(rows, dropped) if not gone),
    )
    return peeled, residual


def _sqrt_int(value: int) -> float:
    """sqrt of a nonnegative integer, through its logarithm past float range."""
    try:
        return math.sqrt(value)
    except OverflowError:
        return math.exp(0.5 * math.log(value))


@functools.lru_cache(maxsize=1)
def _tanh_sinh_nodes(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh rule (Takahasi & Mori 1974) on [0, pi/2]: step 6/k and the
    2k + 1 nodes x_j = (pi/2) / (1 + exp(-pi sinh(j h))), j = -k..k.

    Returns (sin x_j, cos x_j, w_j), the weights including the step h.  The
    cosine is taken as the sine of pi/2 - x_j, formed the same way, so both
    keep their relative accuracy at the ends, where the nodes crowd.
    """
    t = np.arange(-k, k + 1) * (6.0 / k)
    s = np.pi * np.sinh(t)
    x = 0.5 * np.pi / (1.0 + np.exp(-s))
    x_rest = 0.5 * np.pi / (1.0 + np.exp(s))
    w = (6.0 / k) * (np.pi**2 / 8.0) * np.cosh(t) / np.cosh(0.5 * s) ** 2
    return np.sin(x), np.sin(x_rest), w


def abs_det_3x3(variances) -> float | None:
    """Exact E|det Z| of a 3 x 3 matrix of independent centred normal
    entries with variances ``variances``, by quadrature; None when the
    rule's two levels differ by more than EXACT_3X3_RTOL.

    Given row 2 = g, det Z = r0 . (r1 x g), and integrating rows 0 and 1
    out gives (2/pi) sqrt(l1) E(1 - l2/l1), with E the complete elliptic
    integral of the second kind and l1 >= l2 the roots of t**2 - S t + P.
    For each column e, with {p, q} the other two, w_e = g_e**2 and
    a_e = v_2e (v_0p v_1q + v_0q v_1p), b_e = v_0p v_0q v_2e,
    c_e = v_1p v_1q v_2e: S = sum_e a_e w_e and
    P = (sum_e b_e w_e) (sum_e c_e w_e).  That value is homogeneous of degree
    1 and even in each g_e, so E|det Z| = E|g| times its mean over the unit
    sphere's positive octant, E|g| = 2 sqrt(2/pi).  The mean is a smooth 2-D
    integral in the polar angles (theta, phi) on [0, pi/2]**2, with
    log-type singularities only on the octant's edges; the tanh-sinh rule
    of level EXACT_3X3_LEVEL puts those at its end points.  The rule of half
    the level uses every other node of the same grid, so the error check
    costs no evaluation.  The grid is evaluated in chunks of
    EXACT_3X3_CHUNK theta rows, which keeps the temporaries small.
    """
    v = np.asarray(variances, dtype=np.float64)
    cols = ((1, 2), (0, 2), (0, 1))
    a = [v[2, e] * (v[0, p] * v[1, q] + v[0, q] * v[1, p]) for e, (p, q) in enumerate(cols)]
    b = [v[2, e] * v[0, p] * v[0, q] for e, (p, q) in enumerate(cols)]
    c = [v[2, e] * v[1, p] * v[1, q] for e, (p, q) in enumerate(cols)]
    sin, cos, w = _tanh_sinh_nodes(EXACT_3X3_LEVEL)
    sin2, cos2 = sin * sin, cos * cos
    # the sums over the two equatorial columns, as functions of phi alone
    a01, b01, c01 = (x[0] * cos2 + x[1] * sin2 for x in (a, b, c))
    fine = coarse = 0.0
    for lo in range(0, w.size, EXACT_3X3_CHUNK):
        rows = slice(lo, lo + EXACT_3X3_CHUNK)
        s2, c2 = sin2[rows, None], cos2[rows, None]
        big_s = s2 * a01 + c2 * a[2]
        big_p = (s2 * b01 + c2 * b[2]) * (s2 * c01 + c2 * c[2])
        l1 = 0.5 * (big_s + np.sqrt(np.maximum(big_s * big_s - 4.0 * big_p, 0.0)))
        # l2 / l1 = P / l1**2; where l1 is 0 (an edge node whose S vanishes)
        # P is 0 too, and so is the value
        safe = np.where(l1 > 0.0, l1, 1.0)
        f = np.sqrt(l1) * ellipe(np.clip(1.0 - big_p / safe / safe, 0.0, 1.0))
        w_theta = w[rows] * sin[rows]
        fine += w_theta @ f @ w
        # lo is even, so the even local rows are the grid's even nodes
        coarse += w_theta[::2] @ f[::2, ::2] @ w[::2]
    coarse *= 4.0  # the half-level weights are twice these, on each axis
    if abs(fine - coarse) > EXACT_3X3_RTOL * fine:
        return None
    # (2/pi) for the value, 2/pi for the octant's area, 2 sqrt(2/pi) for E|g|
    return (2.0 / math.pi) ** 2 * 2.0 * math.sqrt(2.0 / math.pi) * float(fine)


def abs_det_p1(spec: ShapeSpec) -> float | None:
    """Exact E|det Z| of a shape with two blocks of positive size, one of
    size 1 (P^1 x P^m), by a 1-D integral; None for any other shape, when a
    row has degree 0 on the other block (the peel drops such rows first), or
    when the rule's two levels differ by more than EXACT_3X3_RTOL.  Blocks
    of size 0 carry no variable and are passed over.

    Row i has degree a_i on the size-1 block and b_i on the other, whose n - 1
    columns are G = D_b**(1/2) H, with H standard Gaussian.  Given G, det Z
    is normal with variance sum_i a_i M_i**2 over the maximal minors M_i of
    G, and M_i = sqrt(prod_k b_k / b_i) times the minor m_i of H.  The
    vector of the m_i is sqrt(det H^T H) u, with u uniform on the sphere and
    independent of its length (rotation invariance, as in Edelman & Kostlan
    1995), and E sqrt(det H^T H) = 2**((n-1)/2) Gamma((n+1)/2) by the
    Bartlett decomposition.  With u = g / |g| for g standard in R^n and
    w_i = a_i / b_i:

        E|det Z| = sqrt(2/pi) 2**((n-2)/2) Gamma(n/2) sqrt(prod_i b_i)
                   * E sqrt(sum_i w_i g_i**2),

    and E sqrt(X) = (1 / (2 sqrt(pi))) int_0^inf (1 - E exp(-t X)) t**(-3/2) dt
    with E exp(-t X) = prod_i (1 + 2 w_i t)**(-1/2).  The w are scaled by
    their largest entry, so that one is 1 and the integral is at least
    2 sqrt(2); the integrand in x = log t is then at most
    min(n exp(x/2), exp(-x/2)), and the rule's range [-100, 80] leaves out
    less than 1e-16 of it below n = 10**5.  The integrand is analytic in
    the strip |Im x| < pi, so the trapezoid rule's error falls as
    exp(-2 pi**2 / h): at the step h = 1/4, 721 nodes, it is far below the
    float error, and the rule on every other node, with no further
    evaluation, is the check.  The factor before the mean is formed in the
    log domain, so degrees past float range give OverflowError only when
    E|det Z| itself is past it.
    """
    live = [j for j, nj in enumerate(spec.block_sizes) if nj]
    if len(live) != 2 or min(spec.block_sizes[j] for j in live) != 1:
        return None
    single, other = live if spec.block_sizes[live[0]] == 1 else live[::-1]
    a = [row[single] for row in spec.degrees]
    b = [row[other] for row in spec.degrees]
    if 0 in b:
        return None
    w = np.array([ai / bi for ai, bi in zip(a, b)])
    w_max = float(w.max())
    if w_max == 0.0:  # the size-1 block's column is zero
        return 0.0
    x = np.arange(-400, 321) / 4.0
    # 1 - prod_i (1 + 2 w_i t)**(-1/2), without cancellation at small t
    f = -np.expm1(-0.5 * np.log1p(np.outer(np.exp(x), (2.0 / w_max) * w)).sum(axis=1))
    f *= 0.25 * np.exp(-0.5 * x)  # the step times t**(-1/2)
    fine = float(f.sum())
    coarse = 2.0 * float(f[::2].sum())
    if abs(fine - coarse) > EXACT_3X3_RTOL * fine:
        return None
    n = spec.n
    log_value = (
        0.5 * (n - 2) * math.log(2.0)
        + log_gamma_half(n)
        + 0.5 * (math.log(math.prod(b)) + math.log(w_max))
        # sqrt(2/pi) / (2 sqrt(pi)) = 1 / (sqrt(2) pi)
        + math.log(fine / (math.sqrt(2.0) * math.pi))
    )
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OverflowError(f"E|det Z| at n={n} is past float range") from None


def bounds(
    spec: ShapeSpec, samples: int = DEFAULT_SAMPLES, seed: int = 0, workers: int = 1
) -> BoundsReport:
    """Upper/lower bounds and point estimate for the expected root count."""
    upper = permanent_float(expand_delta(spec, sqrt=True)) / _factorial_product(
        spec.block_sizes
    )
    count = bkk_count(spec)
    lower = _sqrt_int(count)
    est = expectation(spec, samples, seed, workers)
    equality = is_simply_reducible(spec).reducible
    return BoundsReport(
        upper=upper,
        lower=lower,
        bkk=count,
        estimate=est,
        equality=equality,
        margin_upper=upper - est.value,
        margin_lower=est.value - lower,
    )


def _remove_row_shape(spec: ShapeSpec, row: int, block: int) -> ShapeSpec:
    """Sub-shape dropping equation ``row`` and one variable of ``block`` (1-based)."""
    sizes = list(spec.block_sizes)
    sizes[block - 1] -= 1
    rows = [r for idx, r in enumerate(spec.degrees, start=1) if idx != row]
    return validate(sizes, rows)


def row_recursion_check(
    spec: ShapeSpec,
    row: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    workers: int = 1,
) -> RowRecursionReport:
    """Evaluate the recursive inequalities obtained by removing one equation.

    For each positive-size block j the sub-expectation E_j of the shape with
    ``row`` deleted and block j shrunk by one is computed through the
    dispatcher; the report carries both bound values, the direct expectation
    of the full shape, propagated standard errors, and whether the exact
    equality condition (at most one contributing block) holds.  The direct
    expectation is taken with ``reduce=False``, so a shape that the peel
    resolves is compared with its own Monte Carlo estimate: the peel is the
    very equality these rows test.  A P^1 x P^m or P^1 x P^1 x P^1 shape
    keeps its exact value, which is computed independently of the values of
    its sub-shapes, so its rows compare exact values.
    """
    if not 1 <= row <= spec.n:
        raise ValueError(f"row index {row} outside 1..{spec.n}")
    degrees = spec.degrees[row - 1]
    subs = []
    upper = 0.0
    lower_sq = 0.0
    contributing = 0
    for j, nj in enumerate(spec.block_sizes, start=1):
        if nj <= 0 or degrees[j - 1] <= 0:
            continue
        dij = degrees[j - 1]
        sub = _remove_row_shape(spec, row, j)
        res = expectation(sub, samples, seed, workers)
        subs.append((j, float(dij), res))
        upper += math.sqrt(dij) * res.value
        lower_sq += dij * res.value**2
        if not _generic_count_is_zero(sub):
            contributing += 1
    lower = math.sqrt(lower_sq)
    upper_terms = _combine((math.sqrt(d), _error_terms(res)) for _, d, res in subs)
    lower_terms = _combine((d * res.value, _error_terms(res)) for _, d, res in subs)
    lower_stderr = math.hypot(*lower_terms.values()) / lower if lower > 0 else 0.0
    middle = expectation(spec, samples, seed, workers, reduce=False)
    return RowRecursionReport(
        row=row,
        upper=upper,
        lower=lower,
        middle=middle,
        upper_stderr=math.hypot(*upper_terms.values()),
        lower_stderr=lower_stderr,
        equality_expected=contributing <= 1,
        subs=tuple(subs),
    )
