"""Elliptic-curve point counts, product-equation search, and omega statistics."""

from .arith import FactorSieve, is_prime, loglog, omega, primes_up_to
from .counting import count_bsgs, count_charsum, count_naive, count_points, hasse_bounds
from .curves import (
    CurveModel,
    ReducedCurve,
    is_good_prime,
    legendre,
    parse_curve,
    point_add,
    point_neg,
    scalar_mul,
)
from .errors import (
    BadReductionError,
    CurveSpecError,
    EllnumError,
    SingularCurveError,
    TableError,
)
from .search import (
    BkReport,
    CensusResult,
    GkSolution,
    ProgressionRecord,
    bk_count,
    dense_product_count,
    find_progressions,
    g1,
    gk_census,
    gk_solutions,
    hasse_prime_window,
)
from .stats import (
    AdmissibilityProfile,
    DistributionReport,
    MomentReport,
    RecipSumReport,
    admissibility_profile,
    admissible_recip_sum,
    moments,
    pi_e,
    standardized_distribution,
)
from .table import NpTable, build_table, covering_table, load_table, save_table

__version__ = "0.1.0"
