"""Sample-based learning of near-optimal single-parameter auctions.

Learn ironing intervals and a reserve price from samples of an unknown
bounded value distribution, execute the learned auction in single-item,
multi-unit, position, and matroid environments, and verify revenue
guarantees against exact oracles.
"""

from .curves import (
    PiecewiseLinearCurve,
    QuantileIntervalSet,
    argmax_quantile,
    concave_envelope,
    difference_intervals,
    induced_curve,
    pointwise_gap,
)
from .distributions import (
    ValueDistribution,
    exact_cdf,
    exact_quantile,
    exact_revenue_curve,
    sample,
)
from .empirical import EmpiricalQuantile, dkw_epsilon, r_max_curve, r_min_curve
from .engine import AuctionOutcome, allocate, ironed_key, run_auction
from .environments import Environment, is_independent
from .learner import IroningPlan, compute_auction, loss_bound, optimal_induced, required_samples_iid
from .online import RegretTrace, regret_bound, run_no_regret
from .oracle import (
    GuardError,
    RevenueReport,
    additive_loss,
    expected_revenue_enum,
    expected_revenue_mc,
    expected_revenue_quadrature,
    optimal_plan,
    virtual_welfare_bound,
)

__version__ = "0.1.0"
