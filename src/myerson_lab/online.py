"""Repeated auctions that learn from accumulated bids.

Round zero deploys the plain welfare auction (empty plan); every later
round learns a plan at per-round confidence delta/T from the empirical
quantile of all bids seen so far, and deploys it.  Round t's bids are
the first n uniforms of the child ``SeedSequence([seed, 0],
spawn_key=(2t,))`` (odd children go unused), mapped through the law's
cdf as ``sample`` maps them.  Bids come from a discrete law, so all
bids so far are a vector of counts over its atoms: each round adds its
bids' counts to the last round's, and one vectorised pass draws a block
of rounds' bids, which the learner takes as count vectors in one call,
building each distinct plan once.  Each round is charged the expected
loss of the deployed plan against the optimal plan (not the noisy
realized revenue of its bids).  Both revenues come from the quadrature
oracle's cache, once per process.  Each round's ``bound_t`` is
``loss_bound`` of the n*t bids it learned from at confidence delta/T, so
it is 3 * epsilon_t * n * H of its own row to the bit; round 0's is
n * H.  A trace's CSV columns are ``RoundRecord``'s fields, each cell
formatted by ``_fmt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .distributions import ValueDistribution, _cdf_index, _spawned_uniforms
# sample is unused here but stays bound: perfbench's traced pass patches it by name
from .distributions import sample  # noqa: F401
# run_auction and compute_auction are unused here but stay bound: perfbench's traced pass
# patches them by name, and its Tracer.patch raises KeyError on a name the module lacks
from .engine import run_auction  # noqa: F401
from .environments import Environment
from .learner import compute_auction  # noqa: F401
from .learner import IroningPlan, _check_gamma, _check_n_h, _count_plans, loss_bound
from .empirical import dkw_epsilon
# expected_revenue_enum is unused here but stays bound: perfbench's traced pass patches it by name
from .oracle import expected_revenue_enum, expected_revenue_quadrature, optimal_plan  # noqa: F401

__all__ = ["RoundRecord", "RegretTrace", "run_no_regret", "regret_bound"]

_BLOCK_CELLS = 1024  # count cells (rounds x atoms) the learner takes in one call


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


TRACE_FIELDS = tuple(f.name for f in fields(RoundRecord))


def _fmt(x) -> str:
    """One CSV cell: a float to 17 significant digits, which round-trips it."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


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
        return [header] + [prefix + ",".join(_fmt(getattr(r, f)) for f in TRACE_FIELDS) for r in self.rows]


def run_no_regret(
    dist: ValueDistribution,
    env: Environment,
    T: int,
    delta: float,
    seed,
) -> RegretTrace:
    """Simulate T learning rounds; deterministic given the seed.

    Round t's bids are the n values that
    ``sample(dist, n, SeedSequence([int(seed), 0], spawn_key=(2 * t,)))``
    draws: the first n uniforms of that child, mapped through the law's
    cdf.  So T is at most 2**31, and every spawn key is one uint32 word.
    Round 0 records ``epsilon_t = inf`` (m_t = 0). Every round is charged
    the oracle's expected revenue of its plan, not the realized bids, so
    the trace depends on the seed only through the plans it learns: while
    epsilon_t is too wide to reveal any atom, all seeds give ``==`` traces.
    Rounds learn in blocks of ``_BLOCK_CELLS // atoms`` count vectors, so
    the learner's memory does not grow with T.  Plans are priced by the
    shared quadrature cache, once per process.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if T > 2**31:
        raise ValueError(f"T must be <= 2**31, so that every spawn key is one uint32 word; got {T}")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not dist.is_discrete:
        raise ValueError("loss accounting needs a discrete distribution")
    n, h = env.n, dist.h_max
    support, probs = dist._atom_arrays
    s = len(support)
    opt_rev = expected_revenue_quadrature(dist, env, optimal_plan(dist)).expected_revenue
    plan_cache: dict[IroningPlan, tuple[float, str]] = {}
    rows: list[RoundRecord] = []

    def record(t: int, epsilon_t: float, plan: IroningPlan, bound_t: float) -> None:
        """Charge round t the loss of ``plan``, priced once per trace."""
        if plan not in plan_cache:
            plan_cache[plan] = expected_revenue_quadrature(dist, env, plan).expected_revenue, plan.short_hash()
        rev, plan_hash = plan_cache[plan]
        if opt_rev - rev < -1e-9:
            raise RuntimeError("deployed plan beats the oracle optimum; oracle bug")
        loss = max(0.0, opt_rev - rev)
        cumulative = loss + (rows[-1].cumulative_loss if rows else 0.0)
        rows.append(RoundRecord(t, n * t, epsilon_t, plan_hash, rev, loss, cumulative, bound_t))

    record(0, math.inf, IroningPlan.empty(), n * h)
    seen = np.zeros(s, dtype=np.int64)  # bids of the rounds before the block, per atom
    block = max(1, _BLOCK_CELLS // s)
    for first in range(1, T + 1, block):
        ts = range(first, min(first + block, T + 1))
        # round t learns from the bids of rounds 0 to t - 1 (no round learns from the last round's bids)
        atoms = _cdf_index(probs, _spawned_uniforms(seed, 2 * np.arange(first - 1, ts.stop - 1), n))
        drawn = np.bincount((np.arange(len(ts))[:, None] * s + atoms).ravel(), minlength=len(ts) * s)
        counts = seen + drawn.reshape(len(ts), s).cumsum(axis=0)
        seen = counts[-1]
        epsilons = [dkw_epsilon(n * t, delta / T) for t in ts]
        for t, eps_t, plan in zip(ts, epsilons, _count_plans(support, counts, np.array(epsilons), h)):
            record(t, eps_t, plan, loss_bound(n * t, delta / T, n, h))
    return RegretTrace(rows=tuple(rows))


def regret_bound(T: int, delta: float, n: int, h_max: float, gamma: float = 1.0) -> float:
    """Closed-form cumulative loss bound (n*H)(1 + 3*gamma*sqrt(2T ln(4T/delta)/n))."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _check_n_h(n, h_max)
    _check_gamma(gamma)
    return (n * h_max) * (1.0 + 3.0 * gamma * math.sqrt(2.0 * T * math.log(4.0 * T / delta) / n))
