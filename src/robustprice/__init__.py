"""Robust posted pricing under mean / dispersion / maximum-valuation knowledge.

Computes tight worst-case tail bounds, worst-case competitive ratios and
revenues, the extremal distributions attaining them, and the optimal
robust prices, for ambiguity sets pinned down by a mean, a convex
dispersion statistic, and a maximum valuation.  A brute-force enumeration
oracle and dual certificates independently verify every closed form.
"""

from .ambiguity import (MODE_EXACT, MODE_UPPER, FeasibilityReport, MarketInfo,
                        check_feasible, companion_point, left_threshold,
                        power_market, require_feasible, right_threshold,
                        variance_market)
from .bounds import (TailBounds, best_case_revenue, cond_exp_max, tail_bounds,
                     tail_prob_max, tail_prob_min, tail_prob_min_dispersion_ub)
from .dispersion import (DispersionMeasure, custom_measure, power_moment,
                         variance_measure)
from .errors import (InfeasibleMarketError, InternalConsistencyError,
                     ModeError, RobustPriceError, RootFindingError,
                     UnboundedSupportError)
from .extremal import (DiscreteDistribution, point_mass, three_point,
                       three_point_masses, two_point, worst_case_distribution)
from .optimizer import (OrderingReport, PriceSolution, compare_prices,
                        delta_star, optimal_price_general, optimal_price_power,
                        optimal_price_revenue_variance, optimal_price_variance,
                        sigma_star)
from .oracle import (CertificateReport, DualCertificate, oracle_worst_case,
                     oracle_worst_case_cr, oracle_worst_case_rev,
                     random_feasible_instance, random_four_point,
                     verify_dual_certificate)
from .ratio import (RatioBreakdown, worst_case_cr, worst_case_cr_dispersion_ub,
                    worst_case_cr_mean_range, worst_case_cr_variance,
                    worst_case_revenue)

__version__ = "0.1.0"

__all__ = [
    "MODE_EXACT", "MODE_UPPER", "MarketInfo",
    "FeasibilityReport", "variance_market", "power_market",
    "right_threshold", "left_threshold",
    "check_feasible", "require_feasible", "companion_point",
    "DispersionMeasure", "power_moment", "variance_measure", "custom_measure",
    "DiscreteDistribution", "point_mass", "two_point", "three_point",
    "three_point_masses", "worst_case_distribution",
    "TailBounds", "tail_prob_max", "tail_prob_min", "cond_exp_max",
    "best_case_revenue", "tail_bounds", "tail_prob_min_dispersion_ub",
    "RatioBreakdown", "worst_case_cr", "worst_case_cr_variance",
    "worst_case_cr_mean_range",
    "worst_case_cr_dispersion_ub", "worst_case_revenue",
    "PriceSolution", "OrderingReport", "optimal_price_variance", "sigma_star",
    "optimal_price_power", "optimal_price_revenue_variance", "delta_star",
    "optimal_price_general", "compare_prices",
    "DualCertificate", "CertificateReport", "oracle_worst_case",
    "oracle_worst_case_cr",
    "oracle_worst_case_rev", "verify_dual_certificate",
    "random_feasible_instance", "random_four_point",
    "RobustPriceError", "InfeasibleMarketError", "UnboundedSupportError",
    "ModeError", "RootFindingError", "InternalConsistencyError",
]
