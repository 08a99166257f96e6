"""Gamma at half-integer arguments and the complete elliptic integral of the
second kind.

Every value of Gamma(m/2) is held exactly as ``rational * sqrt(pi)**p`` with
p in {0, 1}, built from the closed recurrences Gamma(1/2) = sqrt(pi),
Gamma(1) = 1, Gamma(s + 1) = s * Gamma(s).  No general-purpose gamma routine
is used anywhere; ratios of half-integer gamma values therefore stay exact
until the final float conversion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SQRT_PI = math.sqrt(math.pi)
LOG_SQRT_PI = 0.5 * math.log(math.pi)
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class GammaHalf:
    """Gamma(twice_argument / 2) as an exact rational times an optional sqrt(pi).

    ``sqrt_pi`` is 1 when twice_argument is odd and 0 when it is even.
    """

    twice_argument: int
    rational: Fraction
    sqrt_pi: int

    @property
    def log(self) -> float:
        """log Gamma(twice_argument / 2); never overflows."""
        r = self.rational
        return math.log(r.numerator) - math.log(r.denominator) + self.sqrt_pi * LOG_SQRT_PI

    @property
    def value(self) -> float:
        """Float value; raises OverflowError above float range (use .log then)."""
        if self.log > _LOG_FLOAT_MAX:
            raise OverflowError(
                f"Gamma({self.twice_argument}/2) exceeds float range; use .log"
            )
        return float(self.rational) * (SQRT_PI if self.sqrt_pi else 1.0)


_GAMMA_CACHE: dict[int, GammaHalf] = {}


def gamma_half(twice_argument: int) -> GammaHalf:
    """Gamma(twice_argument / 2) for a positive integer twice_argument.

    Built by the recurrence Gamma(s + 1) = s * Gamma(s) from Gamma(1/2) and
    Gamma(1); exact for any argument size.
    """
    m = int(twice_argument)
    if m < 1:
        raise ValueError(f"argument m/2 must have m >= 1, got m={twice_argument}")
    cached = _GAMMA_CACHE.get(m)
    if cached is not None:
        return cached
    rational = Fraction(1)
    # multiply (m/2 - 1)(m/2 - 2)...(down to 1/2 or 1)
    for t in range(m - 2, 0, -2):
        rational *= Fraction(t, 2)
    result = GammaHalf(m, rational, m % 2)
    _GAMMA_CACHE[m] = result
    return result


def log_gamma_half(twice_argument: int) -> float:
    """log Gamma(twice_argument / 2), always finite."""
    return gamma_half(twice_argument).log


def ellipe(m):
    """Complete elliptic integral of the second kind,
    E(m) = integral over [0, pi/2] of sqrt(1 - m sin(t)**2), for m in [0, 1].

    ``m`` is an array, and the result an array of its shape.  By the
    arithmetic-geometric mean: a, b = 1,
    sqrt(1 - m) and c**2 = a**2 - b**2 with c_{n+1} = c_n**2 / (4 a_{n+1}),
    which has no cancellation; then E = pi / (2 a_inf) * (1 - sum_n
    2**(n - 1) c_n**2).  Each entry steps until its c underflows to zero,
    after about ten steps, and then stays as it is, so an entry of an array
    is bitwise the float it would give alone; m = 1 (the mean converges to 0
    there) is E = 1 exactly.  References: Abramowitz & Stegun, Handbook of
    Mathematical Functions (1964), 17.6; Borwein & Borwein, Pi and the AGM
    (1987), ch. 1.
    """
    m_arr = np.asarray(m, dtype=np.float64)
    inside = (m_arr >= 0.0) & (m_arr <= 1.0)
    if not inside.all():
        raise ValueError(f"parameter m must be in [0, 1], got {m_arr[~inside].flat[0]}")
    one = m_arr == 1.0
    a, b = np.ones_like(m_arr), np.sqrt(1.0 - m_arr)
    c = np.where(one, 0.0, np.sqrt(m_arr))
    weight, total = 0.5, 0.5 * m_arr
    live = c != 0.0
    while live.any():
        # once c is 0 it stays 0 and adds nothing to the total; only a must
        # be held, as further steps would move it by an ulp
        a, b, c = np.where(live, 0.5 * (a + b), a), np.sqrt(a * b), c * c / (2.0 * (a + b))
        weight *= 2.0
        total = total + weight * c * c
        live = c != 0.0
    return np.where(one, 1.0, math.pi / (2.0 * a) * (1.0 - total))
