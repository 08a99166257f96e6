"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line; statistical criteria use the stated
4-standard-error windows on seeded, replayable streams.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from mhroots.bkk import bkk_count, bkk_permanent, bkk_recursive, is_simply_reducible
from mhroots.corpus import random_rank_one_shape, random_shape
from mhroots.empirical import empirical_expectation, sample_counts, uniformity_check
from mhroots.expectation import (
    _generic_count_is_zero,
    bounds,
    closed_form,
    expectation,
    prefactor,
    row_recursion_check,
)
from mhroots.gaussian import abs_det_closed_standard, mc_abs_det, variance_profile
from mhroots.permanent import permanent_bruteforce, permanent_exact
from mhroots.shape import enumerate_support, expand_delta, game_shape, monomial_weight, validate


# one line per criterion, echoed by conftest in the terminal summary
RESULT_LINES: list[str] = []


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f"  [{detail}]"
    RESULT_LINES.append(line)
    print(line)


def test_criterion_01_univariate_sqrt_d_reproduction():
    """Mean real-root count of random degree-d binary forms equals sqrt(d)."""
    failures = []
    details = []
    for d in (2, 3, 4, 6):
        est = empirical_expectation(validate((1,), [[d]]), samples=100_000, seed=100 + d)
        target = math.sqrt(d)
        details.append(f"d={d}: {est.mean:.4f} vs {target:.4f} (se {est.stderr:.4f})")
        if abs(est.mean - target) > 4 * est.stderr:
            failures.append(details[-1])
    _report("1 univariate sqrt(d) reproduction", not failures, "; ".join(details))
    assert not failures, failures


# Rank-one shapes with two blocks of positive size whose factors e_j differ,
# (block sizes, d, e): their columns form two groups, so E|det Z| is sampled.
TWO_FACTOR_RANK_ONE = (
    ((1, 1), (1, 2), (1, 2)),
    ((1, 2), (1, 2, 1), (2, 1)),
    ((2, 2), (1, 2, 1, 2), (2, 1)),
    ((2, 3), (1, 1, 2, 1, 2), (1, 2)),
)


def test_criterion_02_central_formula_self_consistency():
    """prefactor * E|det Z| (Monte Carlo, 1e6) matches the closed form on
    rank-one shapes: to 1e-12 where E|det Z| is exact (all columns equal),
    within 4 standard errors where it is sampled."""
    shapes = [random_rank_one_shape(777, t, max_n=5) for t in range(20)] + [
        validate(sizes, [[di * ej for ej in e] for di in d]) for sizes, d, e in TWO_FACTOR_RANK_ONE
    ]
    failures = []
    sampled = 0
    for t, spec in enumerate(shapes):
        cf = closed_form(spec)
        assert cf is not None
        pf = prefactor(spec)
        est = mc_abs_det(variance_profile(spec), 1_000_000, seed=3000 + t)
        sampled += est.stderr > 0
        if est.stderr == 0:
            ok = pf * est.mean == pytest.approx(cf.value, rel=1e-12)
        else:
            ok = abs(cf.value - pf * est.mean) <= 4 * pf * est.stderr
        if not ok:
            failures.append(
                f"shape {spec.to_json()}: closed {cf.value:.5f} vs mc {pf * est.mean:.5f}"
            )
    assert sampled >= len(TWO_FACTOR_RANK_ONE)
    _report(
        f"2 central formula self-consistency ({len(shapes)} rank-one shapes, {sampled} sampled)",
        not failures,
    )
    assert not failures, failures


def test_criterion_03_bilinear_ground_truth():
    """Bilinear ensemble: mean count pi/2; discriminant positive with
    frequency pi/4."""
    spec = validate((1, 1), [[1, 1], [1, 1]])
    est = empirical_expectation(spec, samples=100_000, seed=42)
    ok_mean = abs(est.mean - math.pi / 2) <= 4 * est.stderr
    counts, _ = sample_counts(spec, 100_000, seed=42)
    ind = (counts == 2).astype(float)
    freq = ind.mean()
    freq_se = ind.std(ddof=1) / math.sqrt(ind.size)
    ok_freq = abs(freq - math.pi / 4) <= 4 * freq_se
    _report(
        "3 bilinear ground truth",
        ok_mean and ok_freq,
        f"mean {est.mean:.4f} vs {math.pi / 2:.4f}; P(disc>0) {freq:.4f} vs {math.pi / 4:.4f}",
    )
    assert ok_mean and ok_freq


def test_criterion_04_standard_gaussian_det_mean():
    """|det| means for all-ones profiles match 2**(n/2) Gamma((n+1)/2) /
    Gamma(1/2) for n = 1..6: exactly, since an all-ones profile is one
    column; and by Monte Carlo (1e6) with column j scaled by j + 1, which
    scales the mean by sqrt(n!), for n = 2..6 (at n = 1 it is still one
    column, and exact)."""
    failures = []
    details = []
    for n in range(1, 7):
        target = abs_det_closed_standard(n)
        exact = mc_abs_det(np.ones((n, n)), 1_000_000, seed=500 + n)
        if exact.stderr != 0 or exact.mean != pytest.approx(target, rel=1e-12):
            failures.append(f"n={n}: exact {exact.mean!r} vs {target!r}")
        if n == 1:
            continue
        scales = np.arange(1.0, n + 1)
        est = mc_abs_det(np.tile(scales, (n, 1)), 1_000_000, seed=500 + n)
        scaled_target = math.sqrt(scales.prod()) * target
        details.append(f"n={n}: {est.mean:.4f} vs {scaled_target:.4f}")
        if est.stderr == 0 or abs(est.mean - scaled_target) > 4 * est.stderr:
            failures.append(details[-1])
    _report("4 standard-Gaussian determinant mean", not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_05_permanent_bkk_exactness():
    """Permanent route == recursion route == brute-force-derived value on 200
    random shapes; the 24-equation game shape runs exactly at big-int scale."""
    failures = []
    for t in range(200):
        spec = random_shape(9107, t, max_n=6, max_degree=3)
        perm = bkk_permanent(spec).count
        rec = bkk_recursive(spec).count
        brute = permanent_bruteforce(expand_delta(spec))
        divisor = 1
        for nj in spec.block_sizes:
            divisor *= math.factorial(nj)
        assert brute % divisor == 0
        brute //= divisor
        if not perm == rec == brute:
            failures.append(f"shape {spec.to_json()}: {perm} {rec} {brute}")
    big = game_shape((3,) * 8)
    big_row = bkk_recursive(big).count
    big_col = bkk_recursive(big, ("column", 1)).count
    big_ok = big_row == big_col and big_row > 2**53 and isinstance(big_row, int)
    _report(
        "5 permanent/BKK exactness",
        not failures and big_ok,
        f"200 shapes exact; game k=8 n_j=3 count {big_row}",
    )
    assert not failures and big_ok


def test_criterion_06_bound_sandwich():
    """Scaled permanent upper bound and sqrt(BKK) lower bound hold with
    Monte Carlo slack on 100 random shapes; tightness flags match simple
    reducibility."""
    failures = []
    for t in range(100):
        spec = random_shape(9205, t, max_n=5, max_degree=3)
        rep = bounds(spec, samples=100_000, seed=4000 + t)
        slack = 4 * rep.estimate.stderr + 1e-9 * max(1.0, rep.upper)
        if rep.margin_upper < -slack or rep.margin_lower < -slack:
            failures.append(f"sandwich violated on {spec.to_json()}")
        if rep.equality != is_simply_reducible(spec).reducible:
            failures.append(f"flag mismatch on {spec.to_json()}")
        if rep.equality and (abs(rep.margin_upper) > slack or abs(rep.margin_lower) > slack):
            failures.append(f"tightness violated on {spec.to_json()}")
    # strictness where the analytic gap is macroscopic: the bilinear case at 1e6
    bil = validate((1, 1), [[1, 1], [1, 1]])
    pf = prefactor(bil)
    est = mc_abs_det(variance_profile(bil), 1_000_000, seed=4999)
    value, se = pf * est.mean, pf * est.stderr
    if not (2.0 - value > 4 * se and value - math.sqrt(2) > 4 * se):
        failures.append("bilinear strict gaps not resolved at 1e6 samples")
    _report("6 two-sided bound sandwich (100 shapes)", not failures)
    assert not failures, failures


def test_criterion_07_row_recursion_inequalities():
    """Recursive inequalities hold for every row of 50 random shapes within
    joint Monte Carlo error; equality cases match the single-contributor
    condition."""
    failures = []
    for t in range(50):
        spec = random_shape(9303, t, max_n=4, max_degree=3)
        for i in range(1, spec.n + 1):
            rep = row_recursion_check(spec, i, samples=100_000, seed=5000 + 7 * t + i)
            if not rep.holds:
                failures.append(f"row {i} of {spec.to_json()}")
                continue
            if rep.equality_expected:
                slack_u = 4 * (rep.upper_stderr + rep.middle.stderr) + 1e-9 * max(1.0, rep.upper)
                slack_l = 4 * (rep.lower_stderr + rep.middle.stderr) + 1e-9 * max(1.0, rep.upper)
                if (
                    abs(rep.upper - rep.middle.value) > slack_u
                    or abs(rep.middle.value - rep.lower) > slack_l
                ):
                    failures.append(f"equality case loose at row {i} of {spec.to_json()}")
    _report("7 row-recursive inequalities (50 shapes, all rows)", not failures)
    assert not failures, failures


def test_criterion_08_game_shapes():
    """Two-block game systems: exactly one expected root for equal blocks,
    exactly zero otherwise; Monte Carlo concurs."""
    failures = []
    for m in (1, 2, 3):
        res = expectation(game_shape((m, m)), seed=6000 + m)
        if not (res.value == 1.0 and res.stderr == 0.0):
            failures.append(f"game ({m},{m}) gave {res.value}")
        pf = prefactor(game_shape((m, m)))
        est = mc_abs_det(variance_profile(game_shape((m, m))), 100_000, seed=6100 + m)
        if abs(pf * est.mean - 1.0) > 4 * pf * est.stderr:
            failures.append(f"game ({m},{m}) MC inconsistent: {pf * est.mean:.4f}")
    for sizes in ((1, 2), (2, 3)):
        res = expectation(game_shape(sizes), seed=6200)
        if not (res.value == 0.0 and res.stderr == 0.0):
            failures.append(f"game {sizes} gave {res.value}")
        est = mc_abs_det(variance_profile(game_shape(sizes)), 10_000, seed=6300)
        if est.mean != 0.0:
            failures.append(f"game {sizes} determinant not structurally zero")
    _report("8 game-system closed values", not failures)
    assert not failures, failures


def test_criterion_09_root_position_uniformity():
    """Chi-square over 10 arc bins stays below the 99.9% quantile for
    degrees 1 and 4 at 1e5 samples."""
    threshold = chi2.ppf(0.999, 9)
    failures = []
    details = []
    for d in (1, 4):
        rep = uniformity_check(validate((1,), [[d]]), samples=100_000, bins=10, seed=70 + d)
        details.append(f"d={d}: chi2 {rep.chi_square:.2f} (dof 9, cut {threshold:.2f})")
        if rep.chi_square >= threshold:
            failures.append(details[-1])
    _report("9 root position uniformity", not failures, "; ".join(details))
    assert not failures, failures


def test_criterion_10_property_suites():
    """Weight-variance identity, permanent row expansion, the generic zero
    test (exhaustive n <= 3), Monte Carlo worker determinism."""
    failures = []

    # (a) weight identity: sum of variance * zeta^(2a) = 1 on unit blocks
    gen = np.random.default_rng(81)
    for sizes, degrees in [((1,), [[6]]), ((2,), [[3], [4]]), ((1, 1), [[2, 3], [1, 2]])]:
        spec = validate(sizes, degrees)
        for i in range(1, spec.n + 1):
            support = enumerate_support(spec, i)
            for _ in range(10):
                blocks = []
                for nj in spec.block_sizes:
                    v = gen.standard_normal(nj + 1)
                    blocks.append(v / np.linalg.norm(v))
                total = 0.0
                for a in support:
                    mono = 1.0
                    for bex, bvec in zip(a.blocks, blocks):
                        for e, z in zip(bex, bvec):
                            mono *= z**e
                    total += float(1 / monomial_weight(a)) * mono * mono
                if abs(total - 1.0) > 1e-10:
                    failures.append(f"weight identity off by {total - 1.0:.2e}")

    # (b) permanent row-expansion identity, exact
    for _ in range(60):
        n = int(gen.integers(1, 7))
        mat = gen.integers(0, 4, size=(n, n))
        total = permanent_exact(mat)
        for i in range(n):
            acc = sum(
                int(mat[i, j])
                * permanent_exact(np.delete(np.delete(mat, i, axis=0), j, axis=1))
                for j in range(n)
            )
            if acc != total:
                failures.append("row expansion identity failed")

    # (c) the generic zero test iff a zero permanent of the expanded
    # degrees, exhaustive over every shape with at most 3 blocks, n <= 3 and
    # degrees 0 or 1, blocks of size 0 among them
    for k in range(1, 4):
        for sizes in itertools.product(range(4), repeat=k):
            n = sum(sizes)
            if n > 3:
                continue
            for bits in itertools.product((0, 1), repeat=n * k):
                spec = validate(sizes, np.array(bits).reshape(n, k).tolist())
                if _generic_count_is_zero(spec) != (permanent_bruteforce(expand_delta(spec)) == 0):
                    failures.append(f"generic zero test wrong on {spec.to_json()}")

    # (d) Monte Carlo determinism across worker counts
    var = variance_profile(validate((1, 1), [[1, 2], [2, 1]]))
    runs = [mc_abs_det(var, 200_000, seed=82, workers=w) for w in (1, 2, 8)]
    if not (runs[0].mean == runs[1].mean == runs[2].mean):
        failures.append("worker count changed the Monte Carlo mean")
    if not (runs[0].stderr == runs[1].stderr == runs[2].stderr):
        failures.append("worker count changed the Monte Carlo stderr")

    _report("10 property suites", not failures)
    assert not failures, failures
