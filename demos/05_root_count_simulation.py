"""Ground truth: sample actual random systems and count their real roots.

The invariant coefficient ensemble (variance = inverse multinomial weight)
is the unique one whose root distribution is rotation invariant.  Counting
real roots directly -- Sturm chains of binary forms, a bilinear system
first eliminated to a binary quadratic -- reproduces the closed forms
and shows the uniform root distribution, which breaks for any other choice
of coefficient weights.
"""

import math

from mhroots import empirical_expectation, uniformity_check, validate

print("mean real-root counts over 100k sampled systems:")
for d in (1, 2, 4, 9):
    est = empirical_expectation(validate((1,), [[d]]), samples=100_000, seed=d)
    print(f"  degree {d}: {est.mean:.4f} +- {est.stderr:.4f}   (sqrt(d) = {math.sqrt(d):.4f})")

bil = validate((1, 1), [[1, 1], [1, 1]])
est = empirical_expectation(bil, samples=100_000, seed=99)
print(f"  bilinear: {est.mean:.4f} +- {est.stderr:.4f}   (pi/2   = {math.pi / 2:.4f})")

print()
print("root positions on the projective line are uniform (quartic, 100k samples):")
rep = uniformity_check(validate((1,), [[4]]), samples=100_000, bins=12, seed=5)
peak = max(rep.bin_counts)
for lo, count in enumerate(rep.bin_counts):
    bar = "#" * round(48 * count / peak)
    print(f"  [{lo * 15:>3d},{(lo + 1) * 15:>3d}) deg  {count:>6d} {bar}")
print(f"  chi-square {rep.chi_square:.2f} on {rep.dof} dof")

print()
print("the same check with all coefficient variances forced to 1 (wrong weights):")
rep = uniformity_check(validate((1,), [[4]]), samples=100_000, bins=12, seed=5,
                       invariant_weights=False)
peak = max(rep.bin_counts)
for lo, count in enumerate(rep.bin_counts):
    bar = "#" * round(48 * count / peak)
    print(f"  [{lo * 15:>3d},{(lo + 1) * 15:>3d}) deg  {count:>6d} {bar}")
print(f"  chi-square {rep.chi_square:.2f} on {rep.dof} dof -- wildly non-uniform:")
print("  roots pile up near 45 and 135 degrees, so the invariant weights matter.")
