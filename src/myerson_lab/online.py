"""Repeated auctions that learn from accumulated bids.

Round zero deploys the plain welfare auction (empty plan); every later
round relearns a plan from all bids seen so far at per-round confidence
delta/T and deploys it.  Each round draws fresh bids, which join the
samples, and is charged the oracle's expected loss of the deployed plan
(not the noisy realized revenue of those bids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ValueDistribution, sample
# run_auction is unused here but stays bound: perfbench's traced pass patches it by name
from .engine import run_auction  # noqa: F401
from .environments import Environment
from .learner import IroningPlan, compute_auction
from .empirical import dkw_epsilon
from .oracle import expected_revenue_enum, optimal_plan

__all__ = ["RoundRecord", "RegretTrace", "run_no_regret", "regret_bound"]

TRACE_FIELDS = (
    "t",
    "m_t",
    "epsilon_t",
    "plan_hash",
    "expected_round_revenue",
    "round_loss",
    "cumulative_loss",
    "bound_t",
)


@dataclass(frozen=True)
class RoundRecord:
    """One round of a no-regret trace.

    Round 0 has ``m_t = 0`` samples, so its DKW radius is unbounded and
    ``epsilon_t`` is ``inf`` (never nan, which would keep two equal traces
    from comparing ``==``).
    """

    t: int
    m_t: int
    epsilon_t: float
    plan_hash: str
    expected_round_revenue: float
    round_loss: float
    cumulative_loss: float
    bound_t: float


@dataclass(frozen=True)
class RegretTrace:
    rows: tuple[RoundRecord, ...]

    def cumulative_loss(self) -> float:
        return self.rows[-1].cumulative_loss

    def csv_lines(self, seed=None) -> list[str]:
        header = ",".join(TRACE_FIELDS)
        prefix = ""
        if seed is not None:
            header = "seed," + header
            prefix = f"{seed},"
        lines = [header]
        for r in self.rows:
            lines.append(
                prefix
                + f"{r.t},{r.m_t},{r.epsilon_t:.17g},{r.plan_hash},"
                + f"{r.expected_round_revenue:.17g},{r.round_loss:.17g},"
                + f"{r.cumulative_loss:.17g},{r.bound_t:.17g}"
            )
        return lines


def run_no_regret(
    dist: ValueDistribution,
    env: Environment,
    T: int,
    delta: float,
    seed,
) -> RegretTrace:
    """Simulate T learning rounds; deterministic given the seed.

    Round 0 records ``epsilon_t = inf`` (m_t = 0). Every round is charged
    the oracle's expected revenue of its plan, not the realized bids, so
    the trace depends on the seed only through the plans it learns: while
    epsilon_t is too wide to reveal any atom, all seeds give ``==`` traces.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not dist.is_discrete:
        raise ValueError("loss accounting needs a discrete distribution")
    n, h = env.n, dist.h_max
    rng_seq = np.random.SeedSequence([int(seed), 0])
    children = rng_seq.spawn(2 * (T + 1))
    bid_seeds = children[0::2]
    opt_rev = expected_revenue_enum(dist, env, optimal_plan(dist)).expected_revenue
    rev_cache: dict[IroningPlan, float] = {}

    def plan_revenue(plan: IroningPlan) -> float:
        if plan not in rev_cache:
            rev_cache[plan] = expected_revenue_enum(dist, env, plan).expected_revenue
        return rev_cache[plan]

    rows: list[RoundRecord] = []
    empty = IroningPlan.empty()
    bids0 = sample(dist, n, bid_seeds[0])
    rev0 = plan_revenue(empty)
    loss0 = max(0.0, opt_rev - rev0)
    cumulative = loss0
    rows.append(
        RoundRecord(
            t=0,
            m_t=0,
            epsilon_t=math.inf,
            plan_hash=empty.short_hash(),
            expected_round_revenue=rev0,
            round_loss=loss0,
            cumulative_loss=cumulative,
            bound_t=n * h,
        )
    )
    samples_so_far = np.asarray(bids0, dtype=float)
    for t in range(1, T + 1):
        plan = compute_auction(samples_so_far, delta / T, h)
        bids = sample(dist, n, bid_seeds[t])
        rev_t = plan_revenue(plan)
        loss_t = max(0.0, opt_rev - rev_t)
        if opt_rev - rev_t < -1e-9:
            raise RuntimeError("deployed plan beats the oracle optimum; oracle bug")
        cumulative += loss_t
        rows.append(
            RoundRecord(
                t=t,
                m_t=n * t,
                epsilon_t=dkw_epsilon(n * t, delta / T),
                plan_hash=plan.short_hash(),
                expected_round_revenue=rev_t,
                round_loss=loss_t,
                cumulative_loss=cumulative,
                bound_t=3.0 * math.sqrt(math.log(2.0 * T / delta) / (2.0 * n * t)) * n * h,
            )
        )
        samples_so_far = np.concatenate([samples_so_far, bids])
    return RegretTrace(rows=tuple(rows))


def regret_bound(T: int, delta: float, n: int, h_max: float, gamma: float = 1.0) -> float:
    """Closed-form cumulative loss bound (n*H)(1 + 3*gamma*sqrt(2T ln(4T/delta)/n))."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return (n * h_max) * (1.0 + 3.0 * gamma * math.sqrt(2.0 * T * math.log(4.0 * T / delta) / n))
