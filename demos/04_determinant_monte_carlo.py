"""Reproducible Monte Carlo for structured random determinants.

The expectation formula reduces every shape to the mean absolute
determinant of a Gaussian matrix whose entry variances are the
column-expanded degrees.  The estimator runs on block-keyed streams:
the result is a pure function of (seed, samples) and is bitwise identical
for any worker count, so closed-form comparisons replay exactly.
"""

import math

import numpy as np

from mhroots import (
    abs_det_closed_standard,
    closed_form,
    mc_abs_det,
    permanent_sandwich,
    prefactor,
    row_recursion_check,
    validate,
    variance_profile,
)

print("standard Gaussian matrices: the estimator vs the closed form")
# Each sample draws only the columns outside the largest group of identical
# columns and takes the exact mean of |det| over that group: the same mean as
# |det| with less variance.  An all-ones profile is one group, so its
# estimate is the closed form itself, with stderr 0.  Scaling column j by
# j + 1 makes the columns distinct, so a sample draws all but the first (at
# n = 1 there is none to draw), and the mean scales by sqrt(n!).
for n in range(1, 6):
    target = abs_det_closed_standard(n)
    exact = mc_abs_det(np.ones((n, n)), 200_000, seed=11 * n)
    scales = np.arange(1.0, n + 1)
    est = mc_abs_det(np.tile(scales, (n, 1)), 200_000, seed=11 * n)
    scaled = math.sqrt(scales.prod()) * target
    away = f"{abs(est.mean - scaled) / est.stderr:.2f} stderr away" if est.stderr else "exact"
    print(
        f"  n={n}: all ones {exact.mean:8.4f} (closed {target:8.4f}, stderr {exact.stderr:g});"
        f"  columns scaled: mc {est.mean:9.4f}  closed {scaled:9.4f}  ({away})"
    )

print()
print("worker count never changes the estimate:")
var = variance_profile(validate((1, 1), [[1, 2], [2, 1]]))
for w in (1, 2, 8):
    est = mc_abs_det(var, 200_000, seed=7, workers=w)
    print(f"  workers={w}: mean = {est.mean!r}")

print()
print("central formula: prefactor * E|det| reproduces the closed form")
spec = validate((1, 1), [[2, 4], [3, 6]])
pf = prefactor(spec)
est = mc_abs_det(variance_profile(spec), 500_000, seed=3)
cf = closed_form(spec)
print(f"  Monte Carlo: {pf * est.mean:.5f} +- {pf * est.stderr:.5f}")
print(f"  closed form: {cf.value:.5f}")

print()
print("permanent sandwich around E|det| for an arbitrary variance profile")
profile = np.array([[1.0, 2.0, 0.0], [1.0, 1.0, 3.0], [0.0, 2.0, 1.0]])
upper, lower = permanent_sandwich(profile)
est = mc_abs_det(profile, 200_000, seed=5)
print(f"  {upper:.4f} >= {est.mean:.4f} >= {lower:.4f}")

print()
print("one-row expansion: removing equation 1 brackets the expectation")
rep = row_recursion_check(validate((1, 1), [[1, 2], [2, 1]]), 1)
print(f"  {rep.upper:.4f} >= {rep.middle.value:.4f} >= {rep.lower:.4f}  ({rep.middle.kind})")
