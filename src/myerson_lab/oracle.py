"""Ground-truth computations against known discrete distributions.

Three independent revenue oracles: closed-form quadrature of the plan's
induced revenue curve against each rank block's interim allocation,
exhaustive enumeration of each rank block's member multisets through the
engine, and seeded Monte Carlo.  A bid below the reserve gets no key,
pays nothing and moves no breakpoint, so a block's payments depend only
on its own sorted bids at or above the reserve: enumeration prices each
block's multiset of accepted bids once, and Monte Carlo sorts each
block's draws in one array pass, groups equal rows and prices each
distinct row once.  Quadrature, exact in one vectorised pass per block,
prices the additive and no-regret losses; enumeration is the
independent check it must agree with to float precision.  Both are
cached per (law, environment, plan); Monte Carlo draws on every call.
The discrete virtual-welfare bound, read from the concave hull of the
curve of the law's own price runs, caps every auction's revenue, and
``optimal_plan``'s plan must meet it.
"""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import concave_envelope, curve_from_price_runs, induced_curve
from .distributions import ValueDistribution, sample
# interim_payments is unused here but stays bound: perfbench's traced pass patches it by name
from .engine import _block_payments, interim_payments  # noqa: F401
from .environments import Environment
from .learner import IroningPlan, plan_from_price_runs

__all__ = [
    "GuardError",
    "RevenueReport",
    "optimal_plan",
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
    return plan_from_price_runs(dist.price_runs, dist.h_max)


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


def _splits(pows: list, atoms: range, total: int, coeff: int = 1):
    """Each split of ``total`` bids over ``atoms`` in ``combinations_with_replacement`` order, as its (atom, count)
    pairs, ``coeff`` * total!/prod(c!) and each pair's p**c = ``pows[a][c]``; a 0.0 p**c prunes its subtree."""
    stack = [((), total, coeff, ())]
    while stack:
        split, rem, k, factors = stack.pop()
        if rem == 0:
            yield split, k, factors
            continue
        start = split[-1][0] + 1 if split else atoms.start  # children go on in reverse, so they pop in order
        stack.extend((split + ((a, c),), rem - c, k * math.comb(rem, c), factors + (pows[a][c],))
                     for a in reversed(range(start, atoms.stop)) for c in range(1, rem + 1)
                     if pows[a][c] != 0.0 and (c == rem or a + 1 < atoms.stop))  # the last atom takes the rest


@lru_cache(maxsize=65536)
def expected_revenue_enum(dist: ValueDistribution, env: Environment, plan: IroningPlan) -> RevenueReport:
    """Exact expected revenue, summed over the environment's rank blocks.

    A block's payments depend only on its own exchangeable members, so it
    is enumerated alone, as the position auction of its slots, over the
    C(s+n_b-1, n_b) multisets of its n_b members; the guard counts n_b
    bids per multiset over all blocks, and a block whose multinomial
    weights overflow a float is refused.  Multisets that differ only
    below the reserve share one priced total."""
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
    first = bisect_left(vals, plan.reserve)  # atoms from here up are accepted
    totals = []
    for _, slots in env.blocks:
        n = len(slots)
        pows = [[p**c for c in range(n + 1)] for _, p in dist.atoms]
        terms = []
        # each multiset once, as its j bids on the accepted atoms (high; j = n if none is rejected, 0 if
        # all are) and the rest (low, listed once per j), whose product the high part's factors fold on
        for j in range(n if first == 0 else 0, (0 if first == s else n) + 1):
            lows = [(k, math.prod(f)) for _, k, f in _splits(pows, range(first), n - j)]
            if not lows:
                continue  # the rejected atoms have no mass for n - j bids
            for high, coeff, factors in _splits(pows, range(first, s), j, math.comb(n, j)):
                accepted = [vals[a] for a, c in high for _ in range(c)]  # ascending, one bid per count
                total = math.fsum(_block_payments(slots, plan, accepted))
                for low_coeff, prod in lows:  # a weight that underflows to 0 adds a 0 term, which fsum ignores
                    terms.append(coeff * low_coeff * math.prod(factors, start=prod) * total)
        totals.append(math.fsum(terms))
    return RevenueReport(expected_revenue=math.fsum(totals), method="enumeration")


def _bernstein(x: np.ndarray, n: int) -> np.ndarray:
    """Rows of the degree-n Bernstein basis C(n, j) x^j (1 - x)^(n - j),
    j = 0..n, one row per entry of x."""
    j = np.arange(n + 1)
    coeffs = np.array([float(math.comb(n, i)) for i in range(n + 1)])
    return coeffs * x[:, None] ** j * (1.0 - x[:, None]) ** (n - j)


@lru_cache(maxsize=4096)
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
    member earns the integral of R against -y', by parts on every linear
    piece, plus R(1) y(1), where R is ``induced_curve`` of the law's price
    runs under the plan: the one chord/plateau construction, whose
    posted-price points make it exact for every plan over a discrete law.
    y and Y are evaluated once at all of R's vertices.  A block of 1030+
    members overflows a float and is refused; 4096 reports are cached.
    """
    _require_discrete(dist, "expected_revenue_quadrature")
    # refuse huge n before building blocks, as enumeration does
    if env.n > _ENUM_GUARD:
        raise GuardError(f"{env.n} bidders exceed the quadrature guard")
    for members, _ in env.blocks:
        _refuse_float_overflow(len(members), 2)
    curve = induced_curve(dist.price_runs, plan)
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


def _row_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group of equal rows, numbered in sorted row order, and
    the first row of each group: one lexicographic sort (any column order
    brings equal rows together) and a row diff."""
    order = np.lexsort(rows.T)
    new = np.append(True, np.any(rows[order[1:]] != rows[order[:-1]], axis=1))
    groups = np.empty_like(order)
    groups[order] = np.cumsum(new) - 1
    return groups, order[new]


def expected_revenue_mc(
    dist: ValueDistribution, env: Environment, plan: IroningPlan, trials: int, seed
) -> RevenueReport:
    """Monte Carlo expected revenue over seeded i.i.d. profiles.

    A payment depends only on the bidder's own bid and its block's
    accepted bids.  So each block's draws, rejected ones keyed -1, are
    sorted along the row and grouped by one lexicographic sort, and each
    distinct row is priced once.  A profile's total is the correctly
    rounded ``fsum`` of its blocks' payments, which is the same to the
    bit however they are grouped: each distinct profile is summed once,
    and the totals keep the draw order.  The guard refuses more than 1e7
    drawn bids before any is drawn."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials * env.n > _ENUM_GUARD:
        raise GuardError(f"{trials * env.n} Monte Carlo bids exceed the sampling guard")
    draws = sample(dist, trials * env.n, seed).reshape(trials, env.n)
    draws[draws < plan.reserve] = -1.0  # rejected bids key alike, below every accepted one
    ids = np.empty((trials, len(env.blocks)), dtype=np.intp)  # each draw's distinct row in each block
    payments = []  # each block's payments of its distinct rows
    for b, (members, slots) in enumerate(env.blocks):
        rows = draws[:, members]
        rows.sort(kind="stable")  # lexsort's merge sort: no second sort routine to load
        ids[:, b], firsts = _row_groups(rows)
        payments.append([_block_payments(slots, plan, [x for x in rows[d].tolist() if x >= 0.0]) for d in firsts])
    del draws, rows
    profiles, firsts = _row_groups(ids)
    priced = [math.fsum(p for pays, g in zip(payments, ids[d].tolist()) for p in pays[g]) for d in firsts]
    del ids, payments
    totals = [priced[p] for p in profiles.tolist()]
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
    the law's revenue curve, built from its price runs, over the atom's
    quantile run, clipped at 0.  Each block serves its members' virtual
    values in sorted order, the r-th highest weighted by the r-th slot.
    The slopes fall as the quantile grows, so the r-th highest value is
    at least a run's slope exactly when r or more members draw quantiles
    at most the run's end.  Summed over the slots, that is the chance
    that exactly c members do, times the weight w_1 + ... + w_c of the
    first c slots, over c: one binomial row per block and level.  A block
    of 1030 or more members, whose binomial row overflows a float, is
    refused.
    """
    _require_discrete(dist, "virtual_welfare_bound")
    # refuse huge n before building blocks, as quadrature does
    if env.n > _ENUM_GUARD:
        raise GuardError(f"{env.n} bidders exceed the virtual-welfare guard")
    for members, _ in env.blocks:
        _refuse_float_overflow(len(members), 2)
    hull = concave_envelope(curve_from_price_runs(dist.price_runs))
    edges = dist.price_runs.edges.tolist()
    levels = [
        (q1, max(0.0, (hull.evaluate(q1) - hull.evaluate(q0)) / (q1 - q0)))
        for q0, q1 in zip(edges, edges[1:])
        if q1 > q0
    ]
    terms = []
    for members, slots in env.blocks:
        n = len(members)
        filled = [0.0, *itertools.accumulate(slots)]  # filled[c]: weight of the first c slots
        for (q, phi), (_, phi_next) in zip(levels, levels[1:] + [(1.0, 0.0)]):
            served = math.fsum(math.comb(n, c) * q**c * (1.0 - q) ** (n - c) * filled[c] for c in range(1, n + 1))
            terms.append((phi - phi_next) * served)
    return math.fsum(terms)


def additive_loss(dist: ValueDistribution, env: Environment, learned_plan: IroningPlan) -> float:
    """Optimal expected revenue minus the plan's, both by cached quadrature.

    A sweep prices the optimum and each distinct learned plan once.  Tiny
    negatives from float noise clamp to zero; below -1e-9, an oracle bug raises.
    """
    _require_discrete(dist, "additive_loss")
    opt = expected_revenue_quadrature(dist, env, optimal_plan(dist)).expected_revenue
    alg = expected_revenue_quadrature(dist, env, learned_plan).expected_revenue
    loss = opt - alg
    if loss < -1e-9:
        raise RuntimeError(f"learned plan beats the optimal oracle by {-loss}; oracle bug")
    return max(loss, 0.0)
