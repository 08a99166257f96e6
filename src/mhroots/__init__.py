"""Expected real-root counts of random multihomogeneous polynomial systems.

Exact closed forms where the degree matrix factors, permanent-based generic
complex-root counts with two-sided bounds, and seeded Monte Carlo estimators
plus direct root-counting simulations that cross-check every formula.

Importing the package turns numpy's transparent-huge-page advice off,
unless the environment sets NUMPY_MADVISE_HUGEPAGE.  numpy advises every
array of 4 MB or more (a per-sample count vector, for one) for
2 MB pages.  Where such an array lands in the malloc heap, the advice
outlives it, and the heap's resident size then depends on its layout and on
when the kernel's khugepaged scans the process: peak memory of the same run
moved by 5 MB (9%) from one run to the next.  Without the advice it counts
the pages the program touches.
"""

import os as _os

try:
    from numpy._core.multiarray import _set_madvise_hugepage
except ImportError:  # numpy < 2
    from numpy.core.multiarray import _set_madvise_hugepage

if "NUMPY_MADVISE_HUGEPAGE" not in _os.environ:
    _set_madvise_hugepage(False)

from .bkk import (
    BkkValue,
    ProductSplit,
    SimpleReducibility,
    bkk_count,
    bkk_permanent,
    bkk_recursive,
    is_simply_reducible,
    product_split,
)
from .empirical import (
    SystemSample,
    UnsupportedFamilyError,
    UniformityReport,
    ZeroPolynomialError,
    count_real_roots,
    empirical_expectation,
    sample_counts,
    sample_system,
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
    split_expectation,
)
from .gaussian import (
    MCEstimate,
    abs_det_closed_standard,
    mc_abs_det,
    permanent_sandwich,
    sample_matrix,
    variance_profile,
)
from .permanent import (
    MatrixTooLargeError,
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
    enumerate_support,
    expand_delta,
    from_json,
    game_shape,
    monomial_weight,
    support_size,
    support_variances,
    validate,
)
from .specialfn import GammaHalf, gamma_half, log_gamma_half

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
