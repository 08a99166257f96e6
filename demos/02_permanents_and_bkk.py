"""Generic complex-root counts through matrix permanents.

The generic number of complex roots of a multihomogeneous system equals the
permanent of the column-expanded degree matrix divided by the block-size
factorials.  Expanding the permanent along rows or columns gives exact
recursions that reach sizes far beyond the 2^n permanent algorithms.
"""

import time

from mhroots import (
    bkk_permanent,
    bkk_recursive,
    expand_delta,
    expectation,
    game_shape,
    is_simply_reducible,
    permanent_bruteforce,
    permanent_exact,
    product_split,
    validate,
)

spec = validate((1, 1), [[1, 1], [1, 1]])
print("bilinear shape: expanded degree matrix and its permanent")
print(" ", expand_delta(spec).tolist())
print("  permanent =", permanent_exact(expand_delta(spec)))
print("  generic complex-root count =", bkk_permanent(spec).count)

print()
print("three routes agree (permanent, recursion, literal injection sum):")
spec = validate((2, 1), [[2, 1], [1, 0], [0, 3]])
per = bkk_permanent(spec).count
rec = bkk_recursive(spec).count
brute = permanent_bruteforce(expand_delta(spec)) // 2  # block sizes (2,1): 2! * 1!
print(f"  {per} == {rec} == {brute}")

print()
print("zero counts are structural: the degree pattern has no perfect matching")
g = game_shape((1, 2))
print("  game blocks (1,2): pattern", (expand_delta(g) > 0).astype(int).tolist(),
      " count =", bkk_recursive(g).count)
spec = validate((2, 2), [[0, 0], [1, 1], [1, 1], [1, 2]])
res = expectation(spec)
print("  a constant equation among four: count =", bkk_recursive(spec).count,
      f" expectation = {res.value} (kind {res.kind!r}, nothing sampled)")

print()
print("independent subsystems multiply:")
spec = validate((1, 1), [[2, 0], [7, 3]])
split = product_split(spec)
print("  split of [[2,0],[7,3]]:", split.first.to_json(), "x", split.second.to_json())
print("  counts:", bkk_recursive(split.first).count, "*", bkk_recursive(split.second).count,
      "=", bkk_recursive(spec).count)

print()
print("simple reducibility (single-branch expansion all the way down)")
for sizes, degrees in [((2,), [[2], [5]]), ((1, 1), [[1, 1], [1, 1]]), ((1, 1), [[2, 0], [0, 3]])]:
    spec = validate(sizes, degrees)
    red = is_simply_reducible(spec)
    print(f"  {degrees} on blocks {sizes}: {red.reducible}")

print()
print("the recursion scales to shapes whose counts overflow doubles:")
t0 = time.perf_counter()
big = game_shape((3,) * 8)
value = bkk_recursive(big).count
print(f"  8-player game, 3 strategies each (24 equations): {value}")
print(f"  ({value:.3e}, computed exactly in {time.perf_counter() - t0:.2f}s)")
