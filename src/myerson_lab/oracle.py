"""Ground-truth computations against known discrete distributions.

Three independent revenue oracles: closed-form quadrature of the plan's
induced revenue curve against each rank block's interim allocation,
exhaustive enumeration of each rank block's member multisets through the
engine, and seeded Monte Carlo.  Quadrature values every plan exactly
and costs one vectorised pass per block, so the additive loss (and the
no-regret loop's per-round loss) is priced by it; enumeration stays the
independent check it must agree with to float precision.  A fourth
figure, the discrete virtual-welfare bound, caps the revenue of every
auction and is met by the optimal plan, which checks ``optimal_plan``
itself.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import PiecewiseLinearCurve, concave_envelope
from .distributions import (
    ValueDistribution,
    _discrete_price_runs,
    _discrete_tails,
    exact_revenue_curve,
    sample,
)
from .engine import interim_payments
from .environments import Environment
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
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    """True revenue curve of the auction a plan induces.

    A bid's rank key changes only at the reserve, at interval endpoints
    and at unironed atoms at or above the reserve; each such price x sits
    at its posted-price point (P(V >= x), x * P(V >= x)).  Walking down
    in price from (0, 0): an unironed atom v adds its exact run, from
    P(V > v) to P(V >= v); an interval [lo, hi) the chord from hi's point
    to lo's; the reserve r its point and then (1, r * P(V >= r)).  Of
    three or more vertices at one q only the first (the left limit) and
    the last (the value) enter the integral, so only they are kept.  The
    tails are the exact revenue curve's, so points land on its floats.
    """
    _require_discrete(dist, "induced_true_curve")
    vals = [v for v, _ in dist.atoms]
    tails = _discrete_tails(dist) + [0.0]

    def point(x: float) -> tuple[float, float]:
        t = tails[bisect_left(vals, x)]
        return t, x * t

    regions = [(lo, point(hi), point(lo)) for lo, hi in plan.intervals]
    regions += [
        (v, (tails[j + 1], v * tails[j + 1]), (tails[j], v * tails[j]))
        for j, v in enumerate(vals)
        if v >= plan.reserve and not any(lo <= v < hi for lo, hi in plan.intervals)
    ]
    regions.sort(reverse=True)  # the lowest prices v and lo are distinct
    tail_r, rev_r = point(plan.reserve)
    verts = [(0.0, 0.0), *(p for _, upper, lower in regions for p in (upper, lower)), (tail_r, rev_r), (1.0, rev_r)]
    inner = zip(verts, verts[1:], verts[2:])
    keep = [verts[0], *(b for a, b, c in inner if not a[0] == b[0] == c[0]), verts[-1]]
    return PiecewiseLinearCurve.from_vertices(keep)


def _profile_payment(env: Environment, plan: IroningPlan, bids: list[float]) -> float:
    return math.fsum(interim_payments(env, plan, bids))


def _refuse_float_overflow(n: int, parts: int) -> None:
    """Refuse a block of n members whose largest coefficient n! / prod(c!),
    over counts c splitting n into ``parts``, does not fit a float.

    The largest coefficient is at the most even split.  lgamma is off by
    about 1e-13 here, far inside the smallest margin that can occur: a
    binomial row crosses the float range between n = 1029 (0.23 below it
    in log) and n = 1030 (0.46 above)."""
    q, r = divmod(n, parts)
    log_coeff = math.lgamma(n + 1) - r * math.lgamma(q + 2) - (parts - r) * math.lgamma(q + 1)
    if log_coeff > _LOG_FLOAT_MAX:
        raise GuardError(f"a block of {n} bidders has coefficients beyond the float range")


@lru_cache(maxsize=65536)
def expected_revenue_enum(dist: ValueDistribution, env: Environment, plan: IroningPlan) -> RevenueReport:
    """Exact expected revenue, summed over the environment's rank blocks.

    A block's payments depend only on its own exchangeable members, so it
    is enumerated alone, as the position auction of its slots, over the
    C(s+n_b-1, n_b) multisets of its n_b members; the guard counts the
    bids those multisets price, n_b per multiset, over all blocks, and a
    block whose multinomial weights overflow a float is refused."""
    _require_discrete(dist, "expected_revenue_enum")
    # every bidder is priced at least once: refuse huge n before building blocks
    if env.n > _ENUM_GUARD:
        raise GuardError(f"{env.n} bidders exceed the enumeration guard")
    s = len(dist.atoms)
    visits = sum(len(members) * math.comb(s + len(members) - 1, len(members)) for members, _ in env.blocks)
    if visits > _ENUM_GUARD:
        raise GuardError(f"{visits} bid prices exceed the enumeration guard")
    for members, _ in env.blocks:
        _refuse_float_overflow(len(members), s)
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


def _bernstein(x: np.ndarray, n: int) -> np.ndarray:
    """Rows of the degree-n Bernstein basis C(n, j) x^j (1 - x)^(n - j),
    j = 0..n, one row per entry of x."""
    j = np.arange(n + 1)
    coeffs = np.array([float(math.comb(n, i)) for i in range(n + 1)])
    return coeffs * x[:, None] ** j * (1.0 - x[:, None]) ** (n - j)


def expected_revenue_quadrature(
    dist: ValueDistribution, env: Environment, plan: IroningPlan
) -> RevenueReport:
    """Expected revenue as a revenue-curve integral (no profile sums).

    Revenue is the sum over the environment's independent rank blocks.
    In a block of n bidders with slot weights w, a member at quantile q
    takes slot r when exactly r - 1 of the other n - 1 draw lower
    quantiles, so its interim allocation is the Bernstein sum
    y(q) = sum_r w_r C(n-1, r-1) q^(r-1) (1-q)^(n-r), with integral
    Y(x) = (1/n) sum_j C(n, j) x^j (1-x)^(n-j) (w_1 + ... + w_j).  Each
    member earns the integral of the plan's induced curve R against -y',
    by parts on every linear piece, plus R(1) y(1); y and Y are evaluated
    once at all vertices.  Exact for every plan over a discrete law.  A
    block of 1030 or more members, whose binomial row overflows a float,
    is refused.
    """
    _require_discrete(dist, "expected_revenue_quadrature")
    # refuse huge n before building blocks, as enumeration does
    if env.n > _ENUM_GUARD:
        raise GuardError(f"{env.n} bidders exceed the quadrature guard")
    for members, _ in env.blocks:
        _refuse_float_overflow(len(members), 2)
    curve = induced_true_curve(dist, plan)
    qs, vs = curve.qs, curve.values
    lo = np.flatnonzero(qs[1:] > qs[:-1])  # the nondegenerate pieces, from vertex lo to hi
    hi = lo + 1
    slope = (vs[hi] - vs[lo]) / (qs[hi] - qs[lo])
    totals = []
    for members, weights in env.blocks:
        n, w = len(members), np.array(weights)
        y = _bernstein(qs, n - 1) @ w
        big_y = _bernstein(qs, n) @ np.concatenate(([0.0], np.cumsum(w))) / n
        terms = np.append(vs[lo] * y[lo] - vs[hi] * y[hi] + slope * (big_y[hi] - big_y[lo]), vs[-1] * y[-1])
        totals.append(math.fsum((n * terms).tolist()))
    return RevenueReport(expected_revenue=math.fsum(totals), method="quadrature")


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
    """Optimal expected revenue minus the plan's, both by quadrature.

    Tiny negatives from float noise clamp to zero; anything below -1e-9
    means an oracle bug and raises.
    """
    _require_discrete(dist, "additive_loss")
    opt = expected_revenue_quadrature(dist, env, optimal_plan(dist)).expected_revenue
    alg = expected_revenue_quadrature(dist, env, learned_plan).expected_revenue
    loss = opt - alg
    if loss < -1e-9:
        raise RuntimeError(f"learned plan beats the optimal oracle by {-loss}; oracle bug")
    return max(loss, 0.0)
