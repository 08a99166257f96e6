"""Half-integer gamma and the elliptic integral E(m): exact values and oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mhroots.specialfn import ellipe, gamma_half, log_gamma_half

SQRT_PI = math.sqrt(math.pi)


def test_gamma_base_values():
    assert gamma_half(1).value == pytest.approx(SQRT_PI, rel=1e-15)
    assert gamma_half(2).value == 1.0


def test_gamma_seven_halves():
    # three recurrence steps: (5/2)(3/2)(1/2) sqrt(pi)
    assert gamma_half(7).value == pytest.approx(15 * SQRT_PI / 8, rel=1e-15)
    assert gamma_half(7).rational == Fraction(15, 8)
    assert gamma_half(7).sqrt_pi == 1


def test_gamma_recurrence_exact_in_rational_form():
    # Gamma(x + 1) = x Gamma(x) exactly for x = m/2 up to 100
    for m in range(1, 201):
        lhs = gamma_half(m + 2)
        rhs = gamma_half(m)
        assert lhs.rational == rhs.rational * Fraction(m, 2)
        assert lhs.sqrt_pi == rhs.sqrt_pi


def test_log_gamma_against_lgamma_oracle():
    for m in range(1, 401):
        ours = log_gamma_half(m)
        oracle = math.lgamma(m / 2.0)
        assert ours == pytest.approx(oracle, rel=1e-14, abs=1e-14)


def test_gamma_overflow_signalling():
    big = gamma_half(800)
    with pytest.raises(OverflowError):
        _ = big.value
    assert math.isfinite(big.log)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma_half(0)


def test_ellipe_against_scipy():
    special = pytest.importorskip("scipy.special")
    grid = np.concatenate([np.linspace(0.0, 1.0, 201), [1e-300, 1e-16, 0.5, 1 - 1e-12, 1 - 2**-53]])
    np.testing.assert_allclose(ellipe(grid), special.ellipe(grid), rtol=1e-13, atol=0)


def _ellipe_scalar_loop(m: float) -> float:
    """The float AGM loop, one entry at a time."""
    if m == 1.0:
        return 1.0
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    weight, total = 0.5, 0.5 * m
    while c:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), c * c / (2.0 * (a + b))
        weight *= 2.0
        total += weight * c * c
    return math.pi / (2.0 * a) * (1.0 - total)


def test_ellipe_on_arrays_is_the_scalar_loop_bitwise():
    special = pytest.importorskip("scipy.special")
    grid = np.concatenate([np.linspace(0.0, 1.0, 1001), [1e-300, 1e-16, 1 - 1e-12, 1 - 2**-53]])
    values = ellipe(grid)
    assert values.shape == grid.shape
    assert values.tolist() == [_ellipe_scalar_loop(m) for m in grid.tolist()]
    assert values.tolist() == [ellipe(np.array([m]))[0] for m in grid.tolist()]
    assert np.abs(values / special.ellipe(grid) - 1.0).max() <= 1e-14
    square = ellipe(grid[:4].reshape(2, 2))
    assert square.shape == (2, 2) and square.ravel().tolist() == values[:4].tolist()


def test_ellipe_end_points_exact():
    assert ellipe(np.array([0.0, 1.0])).tolist() == [math.pi / 2, 1.0]


@pytest.mark.parametrize("m", [-0.1, 1.5, math.nan, np.array([0.5, 1.5])])
def test_ellipe_outside_unit_interval(m):
    with pytest.raises(ValueError, match="parameter m must be in"):
        ellipe(np.asarray(m))
