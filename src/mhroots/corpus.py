"""Deterministic random shape corpora for batch verification.

Every shape is a pure function of (seed, index), built on the
counter-hashed uniform stream of ``rng``, so verification runs replay
exactly.
"""

from __future__ import annotations

from . import rng
from .shape import ShapeSpec, validate


class _IntStream:
    """Lazy stream of small uniform integers for one (seed, index) pair."""

    def __init__(self, seed: int, index: int, width: int = 64):
        self.seed = seed
        self.index = index
        self.width = width
        self.pos = 0
        self.buf = rng.uniforms(seed, index, 1, width)[0]

    def next(self, bound: int) -> int:
        if self.pos >= self.buf.shape[0]:
            self.index += 1
            self.buf = rng.uniforms(self.seed, self.index, 1, self.width)[0]
            self.pos = 0
        u = self.buf[self.pos]
        self.pos += 1
        return min(int(u * bound), bound - 1)


def _check_max_n(max_n: int) -> None:
    # the draw loops below look for 1 <= n <= max_n and would never end
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")


def random_shape(
    seed: int,
    index: int,
    max_n: int = 5,
    max_degree: int = 3,
    max_blocks: int = 3,
    allow_zero_blocks: bool = True,
) -> ShapeSpec:
    """A random shape with at most ``max_n`` equations and degrees <= max_degree."""
    _check_max_n(max_n)
    stream = _IntStream(seed, index * 257 + 11)
    while True:
        k = 1 + stream.next(max_blocks)
        low = 0 if allow_zero_blocks else 1
        sizes = [low + stream.next(max_n - low + 1) for _ in range(k)]
        n = sum(sizes)
        if 1 <= n <= max_n:
            break
    rows = [
        tuple(stream.next(max_degree + 1) for _ in range(k)) for _ in range(n)
    ]
    return validate(sizes, rows)


def random_rank_one_shape(
    seed: int, index: int, max_n: int = 5, max_blocks: int = 3, max_factor: int = 2
) -> ShapeSpec:
    """A random shape whose degree matrix factors as d_i * e_j with d, e >= 1."""
    _check_max_n(max_n)
    stream = _IntStream(seed, index * 521 + 29)
    while True:
        k = 1 + stream.next(max_blocks)
        sizes = [stream.next(max_n + 1) for _ in range(k)]
        n = sum(sizes)
        if 1 <= n <= max_n:
            break
    d = [1 + stream.next(max_factor) for _ in range(n)]
    e = [1 + stream.next(max_factor) for _ in range(k)]
    rows = [tuple(d[i] * e[j] for j in range(k)) for i in range(n)]
    return validate(sizes, rows)


def random_variance_profile(seed: int, index: int, max_n: int = 5, max_var: int = 3):
    """A random nonnegative integer variance profile (square matrix)."""
    import numpy as np

    stream = _IntStream(seed, index * 613 + 41)
    n = 1 + stream.next(max_n)
    out = np.array(
        [[float(stream.next(max_var + 1)) for _ in range(n)] for _ in range(n)]
    )
    return out
