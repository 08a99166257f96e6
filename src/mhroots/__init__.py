"""Expected real-root counts of random multihomogeneous polynomial systems.

Exact closed forms where the degree matrix factors, permanent-based generic
complex-root counts with two-sided bounds, and seeded Monte Carlo estimators
plus direct root-counting simulations that cross-check every formula.
"""

from .bkk import (
    BkkValue,
    ProductSplit,
    SimpleReducibility,
    bkk_count,
    bkk_permanent,
    bkk_recursive,
    is_simply_reducible,
    product_split,
    scale_shape,
)
from .empirical import (
    SystemSample,
    UnsupportedFamilyError,
    UniformityReport,
    ZeroPolynomialError,
    count_real_roots,
    empirical_expectation,
    evaluate,
    rotate_sample,
    sample_counts,
    sample_system,
    theta_norm_sq,
    transform_coefficients,
    uniformity_check,
)
from .expectation import (
    BoundsReport,
    ClosedFormValue,
    ExpectationResult,
    RowRecursionReport,
    bounds,
    closed_form,
    expectation,
    prefactor,
    rank_one_factors,
    row_recursion_check,
    scaling_factor,
    split_expectation,
)
from .gaussian import (
    MCEstimate,
    abs_det_closed_standard,
    mc_abs_det,
    minor_expansion_bounds,
    permanent_sandwich,
    sample_matrix,
    variance_profile,
)
from .permanent import (
    MatrixTooLargeError,
    has_zero_block,
    permanent_bruteforce,
    permanent_exact,
    permanent_float,
)
from .shape import (
    DimensionMismatchError,
    EmptyShapeError,
    ExponentVector,
    IndexOutOfRangeError,
    NegativeDegreeError,
    ShapeError,
    ShapeSpec,
    SupportTooLargeError,
    block_of,
    enumerate_support,
    expand_delta,
    from_json,
    game_shape,
    monomial_weight,
    support_size,
    support_variances,
    validate,
)
from .specialfn import GammaHalf, chi_mean, gamma_half, log_gamma_half, sphere_volume

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
