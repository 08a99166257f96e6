"""Reproducible Monte Carlo for structured random determinants.

The expectation formula reduces every shape to the mean absolute
determinant of a Gaussian matrix whose entry variances are the
column-expanded degrees.  The estimator runs on block-keyed streams:
the result is a pure function of (seed, samples) and is bitwise identical
for any worker count, so closed-form comparisons replay exactly.
"""

import numpy as np

from mhroots import (
    abs_det_closed_standard,
    closed_form,
    mc_abs_det,
    minor_expansion_bounds,
    permanent_sandwich,
    prefactor,
    validate,
    variance_profile,
)

print("standard Gaussian matrices: Monte Carlo vs closed form")
# For 2 <= n <= SMALL_DET_DIM (7) each sample draws rows 2..n only and takes
# the exact mean of |det| over the top row, sqrt(2/pi) * sqrt(sum_c M_c**2)
# with M_c its cofactors: the same mean as |det| with less variance.  At
# n = 1 a sample is |z|.
for n in range(1, 6):
    est = mc_abs_det(np.ones((n, n)), 200_000, seed=11 * n)
    target = abs_det_closed_standard(n)
    sigmas = abs(est.mean - target) / est.stderr
    print(f"  n={n}: mc {est.mean:8.4f}  closed {target:8.4f}  ({sigmas:.2f} stderr away)")

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
print("one-row minor expansion bounds (exact sub-means for 1x1 minors):")
import math

minor = math.sqrt(2 / math.pi)
upper, lower = minor_expansion_bounds(np.ones((2, 2)), 1, [minor, minor])
print(f"  {upper:.4f} >= 1.0 >= {lower:.4f}")
