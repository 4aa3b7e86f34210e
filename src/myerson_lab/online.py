"""Repeated auctions that learn from accumulated bids.

Round zero deploys the plain welfare auction (empty plan); every later
round learns a plan at per-round confidence delta/T from the empirical
quantile of all bids seen so far, and deploys it.  That quantile is kept
as distinct values and counts, and each round's fresh bids are merged
into it, so a round costs the same at every t on a law with few atoms.
Each round is charged the expected loss of the deployed plan against the
optimal plan (not the noisy realized revenue of its bids).  Both
revenues come from the quadrature oracle's cache, once per process.
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
from .empirical import EmpiricalQuantile, dkw_epsilon
# expected_revenue_enum is unused here but stays bound: perfbench's traced pass patches it by name
from .oracle import expected_revenue_enum, expected_revenue_quadrature, optimal_plan  # noqa: F401

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
    Plans are priced by the shared quadrature cache, once per process.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not dist.is_discrete:
        raise ValueError("loss accounting needs a discrete distribution")
    n, h = env.n, dist.h_max

    def bids(t: int) -> np.ndarray:
        """Round t's bids, seeded by spawn child 2t of SeedSequence([seed, 0])
        (odd children go unused), built alone instead of spawning all
        2(T + 1) children up front."""
        return sample(dist, n, np.random.SeedSequence([int(seed), 0], spawn_key=(2 * t,)))

    opt_rev = expected_revenue_quadrature(dist, env, optimal_plan(dist)).expected_revenue
    plan_cache: dict[IroningPlan, tuple[float, str]] = {}

    def plan_value(plan: IroningPlan) -> tuple[float, str]:
        """The plan's expected revenue and short hash, computed once per trace."""
        if plan not in plan_cache:
            rev = expected_revenue_quadrature(dist, env, plan).expected_revenue
            plan_cache[plan] = rev, plan.short_hash()
        return plan_cache[plan]

    rows: list[RoundRecord] = []
    rev0, hash0 = plan_value(IroningPlan.empty())
    loss0 = max(0.0, opt_rev - rev0)
    cumulative = loss0
    rows.append(
        RoundRecord(
            t=0,
            m_t=0,
            epsilon_t=math.inf,
            plan_hash=hash0,
            expected_round_revenue=rev0,
            round_loss=loss0,
            cumulative_loss=cumulative,
            bound_t=n * h,
        )
    )
    seen = EmpiricalQuantile.from_samples(bids(0), h)
    for t in range(1, T + 1):
        rev_t, hash_t = plan_value(compute_auction(seen, delta / T, h))
        loss_t = max(0.0, opt_rev - rev_t)
        if opt_rev - rev_t < -1e-9:
            raise RuntimeError("deployed plan beats the oracle optimum; oracle bug")
        cumulative += loss_t
        rows.append(
            RoundRecord(
                t=t,
                m_t=n * t,
                epsilon_t=dkw_epsilon(n * t, delta / T),
                plan_hash=hash_t,
                expected_round_revenue=rev_t,
                round_loss=loss_t,
                cumulative_loss=cumulative,
                bound_t=3.0 * math.sqrt(math.log(2.0 * T / delta) / (2.0 * n * t)) * n * h,
            )
        )
        if t < T:  # no round learns from the last round's bids
            seen = seen.merged(bids(t))
    return RegretTrace(rows=tuple(rows))


def regret_bound(T: int, delta: float, n: int, h_max: float, gamma: float = 1.0) -> float:
    """Closed-form cumulative loss bound (n*H)(1 + 3*gamma*sqrt(2T ln(4T/delta)/n))."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return (n * h_max) * (1.0 + 3.0 * gamma * math.sqrt(2.0 * T * math.log(4.0 * T / delta) / n))
