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
building each distinct plan once and naming each round's by an index.
Each round is charged the expected loss of its plan against the optimal
plan (not the noisy realized revenue of its bids), read off by that
index from the quadrature revenues of the block's distinct plans.  Each
round's ``bound_t`` is ``loss_bound`` of the n*t bids it learned from
at confidence delta/T, so it is 3 * epsilon_t * n * H of its own row to
the bit; round 0's is n * H.  A trace is its columns, ``TRACE_FIELDS``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .distributions import ValueDistribution, _cdf_index, _spawned_uniforms
from .environments import Environment
from .learner import IroningPlan, _check_gamma, _check_n_h, _count_plans, loss_bound
from .empirical import dkw_epsilon
from .oracle import expected_revenue_quadrature, optimal_plan

# unused here but bound: perfbench's traced pass patches these names, and its Tracer.patch
# raises KeyError on a name the module lacks
from .distributions import sample  # noqa: F401
from .engine import run_auction  # noqa: F401
from .learner import compute_auction  # noqa: F401
from .oracle import expected_revenue_enum  # noqa: F401

__all__ = ["RoundRecord", "RegretTrace", "run_no_regret", "regret_bound"]

_BLOCK_CELLS = 1024  # count cells (rounds x atoms) the learner takes in one call


def _fmt(x) -> str:
    """One CSV cell: a float to 17 significant digits, which round-trips it."""
    return f"{x:.17g}" if isinstance(x, float) else str(x)


@dataclass(frozen=True)
class RegretTrace:
    """A no-regret trace as its columns, each a tuple of Python scalars whose
    entry t is round t's; ``cumulative_loss[-1]`` is the trace's total loss.

    Round 0 has ``m_t = 0`` samples, so its DKW radius is unbounded and
    ``epsilon_t`` is ``inf`` (never nan, which would keep two equal traces
    from comparing ``==``).
    """

    t: tuple[int, ...]
    m_t: tuple[int, ...]
    epsilon_t: tuple[float, ...]
    plan_hash: tuple[str, ...]
    expected_round_revenue: tuple[float, ...]
    round_loss: tuple[float, ...]
    cumulative_loss: tuple[float, ...]
    bound_t: tuple[float, ...]

    @property
    def rows(self) -> tuple:
        """The rounds as ``RoundRecord`` tuples, built on each access."""
        return tuple(map(RoundRecord, *vars(self).values()))

    def csv_lines(self, seed=None) -> list[str]:
        header = ("" if seed is None else "seed,") + ",".join(TRACE_FIELDS)
        prefix = "" if seed is None else f"{seed},"
        return [header] + [prefix + ",".join(map(_fmt, row)) for row in zip(*vars(self).values())]


TRACE_FIELDS = tuple(f.name for f in fields(RegretTrace))
RoundRecord = namedtuple("RoundRecord", TRACE_FIELDS)  # one round of a trace


def _check_T(T) -> None:
    """Refuse a round count that is not finite or is below 1."""
    if not T < math.inf:  # NaN fails too
        raise ValueError(f"T must be finite, got {T}")
    if T < 1:
        raise ValueError("T must be >= 1")


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
    Every round is charged the oracle's expected revenue of its plan, not
    the realized bids, so the trace depends on the seed only through the
    plans it learns: while epsilon_t is too wide to reveal any atom, all
    seeds give ``==`` traces.  Rounds learn in blocks of
    ``_BLOCK_CELLS // atoms`` count vectors, so the learner's memory does
    not grow with T.  Each plan it builds is priced once, by the shared
    quadrature cache.
    """
    _check_T(T)
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
    ms = n * np.arange(1, T + 1)
    epsilons, bounds = dkw_epsilon(ms, delta / T), loss_bound(ms, delta / T, n, h)
    plans, ids = [IroningPlan.empty()], [np.zeros(1, dtype=np.intp)]  # each block's distinct plans, rounds' ids
    seen = np.zeros(s, dtype=np.int64)  # bids of the rounds before the block, per atom
    block = max(1, _BLOCK_CELLS // s)
    for first in range(1, T + 1, block):
        ts = range(first, min(first + block, T + 1))
        # round t learns from the bids of rounds 0 to t - 1 (no round learns from the last round's bids)
        atoms = _cdf_index(probs, _spawned_uniforms(seed, 2 * np.arange(first - 1, ts.stop - 1), n))
        drawn = np.bincount((np.arange(len(ts))[:, None] * s + atoms).ravel(), minlength=len(ts) * s)
        counts = seen + drawn.reshape(len(ts), s).cumsum(axis=0)
        seen = counts[-1]
        block_plans, block_ids = _count_plans(support, counts, epsilons[first - 1 : ts.stop - 1], h)
        ids.append(len(plans) + block_ids)
        plans += block_plans
    revenue = np.array([expected_revenue_quadrature(dist, env, plan).expected_revenue for plan in plans])
    if (opt_rev - revenue < -1e-9).any():
        raise RuntimeError("a deployed plan beats the oracle optimum; oracle bug")
    hashes, ids = [plan.short_hash() for plan in plans], np.concatenate(ids)
    loss = np.maximum(0.0, opt_rev - revenue)[ids]
    return RegretTrace(*map(tuple, (
        range(T + 1), range(0, n * T + 1, n), [math.inf, *epsilons.tolist()], map(hashes.__getitem__, ids.tolist()),
        revenue[ids].tolist(), loss.tolist(), loss.cumsum().tolist(), [n * h, *bounds.tolist()],
    )))


def regret_bound(T: int, delta: float, n: int, h_max: float, gamma: float = 1.0) -> float:
    """Closed-form cumulative loss bound (n*H)(1 + 3*gamma*sqrt(2T ln(4T/delta)/n))."""
    _check_T(T)
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _check_n_h(n, h_max)
    _check_gamma(gamma)
    return (n * h_max) * (1.0 + 3.0 * gamma * math.sqrt(2.0 * T * math.log(4.0 * T / delta) / n))
