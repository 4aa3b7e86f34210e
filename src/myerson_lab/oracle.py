"""Ground-truth computations against known discrete distributions.

Three independent revenue oracles back every experiment: exhaustive
enumeration of each rank block's member multisets through the engine,
closed-form quadrature of the induced revenue curve against each rank
block's k-unit interim allocations, and seeded Monte Carlo.  Enumeration
and quadrature must agree to float precision; that cross-check is the
main correctness tripwire of the whole artifact.  A fourth figure, the
discrete virtual-welfare bound, caps the revenue of every auction and is
met by the optimal plan, which checks ``optimal_plan`` itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .curves import PiecewiseLinearCurve, concave_envelope, induce_curve
from .distributions import (
    ValueDistribution,
    _discrete_price_runs,
    exact_revenue_curve,
    sample,
    tail_probability,
)
from .engine import interim_payments
from .environments import (
    Environment,
    interim_allocation_integral_kunit,
    interim_allocation_kunit,
)
from .learner import IroningPlan, plan_from_price_runs

__all__ = [
    "GuardError",
    "RevenueReport",
    "optimal_plan",
    "induced_true_curve",
    "expected_revenue_enum",
    "expected_revenue_quadrature",
    "expected_revenue_mc",
    "virtual_welfare_bound",
    "additive_loss",
]

_ENUM_GUARD = 10_000_000


class GuardError(RuntimeError):
    """An instance exceeds a desk-scale resource guard."""


@dataclass(frozen=True)
class RevenueReport:
    expected_revenue: float
    method: str
    stderr: float = 0.0
    trials: int = 0


def _require_discrete(dist: ValueDistribution, what: str) -> None:
    if not dist.is_discrete:
        raise ValueError(f"{what} requires a discrete distribution")


@lru_cache(maxsize=256)
def optimal_plan(dist: ValueDistribution) -> IroningPlan:
    """Exact revenue-optimal plan: iron the envelope gaps of the true
    revenue curve, reserve at its argmax quantile."""
    _require_discrete(dist, "optimal_plan")
    return plan_from_price_runs(_discrete_price_runs(dist), dist.h_max)


def induced_true_curve(dist: ValueDistribution, plan: IroningPlan) -> PiecewiseLinearCurve:
    """True revenue curve after applying a plan's ironing and reserve.

    Value intervals map to quantile intervals through the sale
    probability; the curve is constant above the reserve's sale
    probability.
    """
    _require_discrete(dist, "induced_true_curve")
    curve = exact_revenue_curve(dist)
    q_ints = []
    for lo, hi in plan.intervals:
        a = tail_probability(dist, hi)
        b = tail_probability(dist, lo)
        if a < b:
            q_ints.append((a, b))
    q_ints.sort()
    reserve_q = tail_probability(dist, plan.reserve)
    return induce_curve(curve, q_ints, reserve_q)


def _profile_payment(env: Environment, plan: IroningPlan, bids: list[float]) -> float:
    return math.fsum(interim_payments(env, plan, bids))


@lru_cache(maxsize=65536)
def expected_revenue_enum(dist: ValueDistribution, env: Environment, plan: IroningPlan) -> RevenueReport:
    """Exact expected revenue, summed over the environment's rank blocks.

    A block's payments depend only on its own exchangeable members, so it
    is enumerated alone, as the position auction of its slots, over the
    C(s+n_b-1, n_b) multisets of its n_b members; the guard counts those
    multisets over all blocks."""
    _require_discrete(dist, "expected_revenue_enum")
    s = len(dist.atoms)
    # with s >= 2 a block has at least n_b + 1 multisets: refuse huge n before building blocks
    if s > 1 and env.n >= _ENUM_GUARD:
        raise GuardError(f"more than {env.n} profiles exceed the enumeration guard")
    visits = sum(math.comb(s + len(members) - 1, len(members)) for members, _ in env.blocks)
    if visits > _ENUM_GUARD:
        raise GuardError(f"{visits} profiles exceed the enumeration guard")
    vals = [v for v, _ in dist.atoms]
    probs = [p for _, p in dist.atoms]
    totals = []
    for _, slots in env.blocks:
        n = len(slots)
        block = Environment.position(slots, n)
        fact_n = math.factorial(n)
        terms = []
        for combo in itertools.combinations_with_replacement(range(s), n):
            counts: dict[int, int] = {}
            for i in combo:
                counts[i] = counts.get(i, 0) + 1
            weight = fact_n
            for i, c in counts.items():
                weight = weight // math.factorial(c)
            weight *= math.prod(probs[i] ** c for i, c in counts.items())
            if weight == 0.0:
                continue
            terms.append(weight * _profile_payment(block, plan, [vals[i] for i in combo]))
        totals.append(math.fsum(terms))
    return RevenueReport(expected_revenue=math.fsum(totals), method="enumeration")


def _per_bidder_quadrature(curve: PiecewiseLinearCurve, k: int, n: int, reserve: float, v_min: float) -> float:
    """Exact integral of the induced curve against -y' for one k-unit bidder.

    Integration by parts per linear segment; the boundary term and the
    below-support floor only matter when the worst-ranked bidder is
    still served (k = n).
    """
    terms = []
    for q0, v0, q1, v1 in curve.segments():
        slope = (v1 - v0) / (q1 - q0)
        y0 = interim_allocation_kunit(q0, k, n)
        y1 = interim_allocation_kunit(q1, k, n)
        big_y0 = interim_allocation_integral_kunit(q0, k, n)
        big_y1 = interim_allocation_integral_kunit(q1, k, n)
        terms.append(v0 * y0 - v1 * y1 + slope * (big_y1 - big_y0))
    total = math.fsum(terms)
    if k == n:
        total += curve.evaluate(1.0)
        total -= max(0.0, v_min - max(reserve, 0.0))
    return total


def _check_plan_alignment(dist: ValueDistribution, plan: IroningPlan) -> None:
    """Quadrature reads plans through the revenue curve, which only sees
    sale probabilities; endpoints strictly between atoms change engine
    thresholds invisibly to the curve, so such plans are refused."""
    vals = [v for v, _ in dist.atoms]
    v_min, v_max = vals[0], vals[-1]
    r = plan.reserve
    if v_min < r <= v_max and r not in vals:
        raise ValueError(f"reserve {r} lies strictly between support atoms")
    for lo, hi in plan.intervals:
        atoms_in = [a for a in vals if lo <= a < hi]
        if not atoms_in:
            continue
        if lo != atoms_in[0]:
            raise ValueError(f"interval [{lo}, {hi}) starts below the atoms it irons")
        if hi <= v_max and hi not in vals:
            raise ValueError(f"interval [{lo}, {hi}) ends strictly between support atoms")


def expected_revenue_quadrature(
    dist: ValueDistribution, env: Environment, plan: IroningPlan
) -> RevenueReport:
    """Expected revenue as a revenue-curve integral (no profile sums).

    Revenue is the sum over the environment's independent rank blocks;
    a block of n_b bidders decomposes into the marginal-weight mixture
    of k-unit auctions among n_b bidders.  Exact for plans whose
    interval endpoints and reserve lie on the support (or at/below its
    minimum, or above its maximum), which holds for every plan produced
    by the learner or the exact-plan oracle; other plans are refused.
    """
    _require_discrete(dist, "expected_revenue_quadrature")
    _check_plan_alignment(dist, plan)
    curve = induced_true_curve(dist, plan)
    v_min = dist.support_min()
    terms = []
    for members, weights in env.blocks:
        n, slots = len(members), weights + (0.0,)
        terms += [
            (slots[j - 1] - slots[j]) * n * _per_bidder_quadrature(curve, j, n, plan.reserve, v_min)
            for j in range(1, n + 1)
            if slots[j - 1] != slots[j]
        ]
    total = math.fsum(terms)
    return RevenueReport(expected_revenue=total, method="quadrature")


def expected_revenue_mc(
    dist: ValueDistribution, env: Environment, plan: IroningPlan, trials: int, seed
) -> RevenueReport:
    """Monte Carlo expected revenue over seeded i.i.d. profiles."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    draws = sample(dist, trials * env.n, seed).reshape(trials, env.n)
    totals = [_profile_payment(env, plan, list(row)) for row in draws]
    mean = math.fsum(totals) / trials
    if trials > 1:
        var = math.fsum((t - mean) ** 2 for t in totals) / (trials - 1)
        stderr = math.sqrt(var / trials)
    else:
        stderr = 0.0
    return RevenueReport(expected_revenue=mean, method="monte_carlo", stderr=stderr, trials=trials)


def virtual_welfare_bound(dist: ValueDistribution, env: Environment) -> float:
    """Expected ironed virtual welfare: no auction earns more, and the
    optimal plan earns exactly this (Elkind, SODA 2007).

    An atom's ironed virtual value is the slope of the concave hull of
    the revenue curve over the atom's quantile run, clipped at 0.  Each
    block serves its members' virtual values in sorted order, the r-th
    highest weighted by the r-th slot.  The slopes fall as the quantile
    grows, so the r-th highest value is at least a run's slope exactly
    when r or more members draw quantiles at most the run's end.
    """
    _require_discrete(dist, "virtual_welfare_bound")
    hull = concave_envelope(exact_revenue_curve(dist))
    edges = _discrete_price_runs(dist).edges.tolist()
    levels = [
        (q1, max(0.0, (hull.evaluate(q1) - hull.evaluate(q0)) / (q1 - q0)))
        for q0, q1 in zip(edges, edges[1:])
        if q1 > q0
    ]
    terms = []
    for (q, phi), (_, phi_next) in zip(levels, levels[1:] + [(1.0, 0.0)]):
        for members, slots in env.blocks:
            n = len(members)
            for r, w in enumerate(slots, 1):
                at_least_r = math.fsum(math.comb(n, c) * q**c * (1.0 - q) ** (n - c) for c in range(r, n + 1))
                terms.append(w * (phi - phi_next) * at_least_r)
    return math.fsum(terms)


def additive_loss(dist: ValueDistribution, env: Environment, learned_plan: IroningPlan) -> float:
    """Optimal expected revenue minus the plan's, by enumeration.

    Tiny negatives from tie-convention float noise clamp to zero;
    anything below -1e-9 means an oracle bug and raises.
    """
    _require_discrete(dist, "additive_loss")
    opt = expected_revenue_enum(dist, env, optimal_plan(dist)).expected_revenue
    alg = expected_revenue_enum(dist, env, learned_plan).expected_revenue
    loss = opt - alg
    if loss < -1e-9:
        raise RuntimeError(f"learned plan beats the optimal oracle by {-loss}; oracle bug")
    return max(loss, 0.0)
