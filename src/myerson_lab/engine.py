"""Executing an ironing-plan auction on a bid profile.

Bids below the reserve are rejected; bids inside one ironing interval
share a rank key.  An environment is its list of independent rank
auctions (``Environment.blocks``: one block of all bidders, or one per
nonempty part of a partition matroid), and the engine reads nothing
else of it but the bidder count.  Inside each block, allocation maximizes
welfare over the keys, splitting exact ties symmetrically (fractional
shares of the contested slots); this is exact for every environment,
matroids included, with no sampling.
Payments follow the standard threshold integral of the bidder's
single-bid allocation curve, which is piecewise constant with
breakpoints only at the reserve, interval endpoints, and the other
bidders' keys, so the integral is computed exactly piece by piece.
All bidders share one sorted breakpoint list per profile.  Below a
member's own key, its share on a piece depends only on the piece's key
and the block's keys, not on which member it is, so each block keeps
one running sum of those pieces, and a member's integral is the sum up
to its own key plus, if ironed, its own share up to its bid: one walk
of the breakpoints per block, not one per member.  The tests check this
to the bit against a reference that re-runs ``allocate`` at every piece.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# is_independent is unused here but stays bound: perfbench's traced pass patches it by name
from .environments import Environment, is_independent  # noqa: F401
from .learner import IroningPlan

__all__ = ["AuctionOutcome", "ironed_key", "allocate", "run_auction"]


@dataclass(frozen=True)
class AuctionOutcome:
    """Interim (expected) and realized results of one auction run."""

    interim_alloc: tuple[float, ...]
    interim_payment: tuple[float, ...]
    realized_alloc: tuple[float, ...]
    realized_payment: tuple[float, ...]


def validate_bids(bids: Sequence[float]) -> None:
    for b in bids:
        if not math.isfinite(b) or b < 0.0:
            raise ValueError(f"bid {b} must be finite and nonnegative")


def ironed_key(bid: float, plan: IroningPlan) -> float | None:
    """Rank key of a bid: None if rejected, the interval's lower
    endpoint if ironed, the bid itself otherwise."""
    if bid < plan.reserve:
        return None
    # the intervals are sorted and disjoint: only the last one starting at or below the bid can hold it
    i = bisect_right(plan.starts, bid)
    if i and bid < plan.intervals[i - 1][1]:
        return plan.starts[i - 1]
    return bid


def _tie_groups(keys: Sequence[float | None], members: Sequence[int]) -> list[list[int]]:
    """Accepted members grouped by equal key, highest key first."""
    by_key: dict[float, list[int]] = {}
    for i in members:
        k = keys[i]
        if k is not None:
            by_key.setdefault(k, []).append(i)
    return [by_key[k] for k in sorted(by_key, reverse=True)]


def allocate(env: Environment, plan: IroningPlan, bids: Sequence[float]) -> list[float]:
    """Per-bidder expected allocation: in each block, slots go down the
    members' keys and an exact tie shares its slots' weight equally."""
    if len(bids) != env.n:
        raise ValueError(f"expected {env.n} bids, got {len(bids)}")
    keys = [ironed_key(b, plan) for b in bids]
    alloc = [0.0] * env.n
    for members, slots in env.blocks:
        pos = 0
        for group in _tie_groups(keys, members):
            t = len(group)
            share = sum(slots[pos : pos + t]) / t
            for i in group:
                alloc[i] = share
            pos += t
    return alloc


def _threshold_payments(
    env: Environment, plan: IroningPlan, bids: Sequence[float], keys: list[float | None], alloc: list[float]
) -> list[float]:
    """Every bidder's threshold-integral payment from one key pass.

    The breakpoint list {0, reserve, interval endpoints, accepted keys}
    is shared: a bidder's own key is its bid or an interval's lower
    endpoint, so cutting the list at the bid gives exactly the bidder's
    own breakpoints.  Keys rise with the bid, so the pieces below a
    member's own key k0 are a prefix of the list.  On such a piece with
    key k the member ranks below the block rivals with keys above k and
    ties with those at k, which is what ``allocate`` would compute: the
    share ``sum(slots[pos:pos+t]) / t``, with pos = #(keys > k) - 1 and
    t = #(keys = k) + 1, is the same for every member.  So ``below[j]``,
    one running sum per block up to its top key, is every member's
    integral over the first j pieces.  No breakpoint lies inside an
    interval, so an ironed member's only other piece runs from k0 to its
    bid at its own tied share, which is its allocation.  Each ``below``
    adds the same terms in the same order as a per-member loop would, so
    the payments keep every bit.
    """
    pts = {0.0, plan.reserve}
    for lo, hi in plan.intervals:
        pts.update((lo, hi))
    pts.update(k for k in keys if k is not None)
    pts = sorted(pts)
    mid_keys = [ironed_key(0.5 * (z0 + z1), plan) for z0, z1 in zip(pts, pts[1:])]
    payments = [0.0] * env.n
    for members, slots in env.blocks:
        block_keys = sorted(keys[i] for i in members if keys[i] is not None)
        if not block_keys:
            continue
        top = bisect_left(pts, block_keys[-1])
        below = [0.0]
        for z0, z1, k in zip(pts[:top], pts[1 : top + 1], mid_keys):
            integral = below[-1]
            if k is not None:
                at_most = bisect_right(block_keys, k)
                pos = len(block_keys) - at_most - 1
                t = at_most - bisect_left(block_keys, k) + 1
                integral += sum(slots[pos : pos + t]) / t * (z1 - z0)
            below.append(integral)
        for i in members:
            if alloc[i] == 0.0:
                continue
            b, own = bids[i], keys[i]
            payments[i] = b * alloc[i] - (below[bisect_left(pts, own)] + alloc[i] * (b - own))
    return payments


def interim_payments(env: Environment, plan: IroningPlan, bids: Sequence[float]) -> list[float]:
    """All bidders' threshold payments from one allocation and one key pass."""
    alloc = allocate(env, plan, bids)
    keys = [ironed_key(b, plan) for b in bids]
    return _threshold_payments(env, plan, bids, keys, alloc)


def _realize(env: Environment, groups: list[list[int]], rng) -> list[float]:
    """One seeded outcome: each tie group in uniform random order, every
    bidder taking its own block's next slot."""
    slots_of = [None] * env.n
    for members, slots in env.blocks:
        remaining = iter(slots)  # shared by the block's members
        for i in members:
            slots_of[i] = remaining
    realized = [0.0] * env.n
    for group in groups:
        for j in rng.permutation(len(group)):
            realized[group[j]] = next(slots_of[group[j]])
    return realized


def run_auction(env: Environment, plan: IroningPlan, bids: Sequence[float], seed) -> AuctionOutcome:
    """Interim allocations and payments plus a seeded realized outcome.

    The realized winner pays its interim per-unit price times the
    realized quantity, so payments average back to the interim ones.
    """
    validate_bids(bids)
    interim = allocate(env, plan, bids)
    keys = [ironed_key(b, plan) for b in bids]
    payments = _threshold_payments(env, plan, bids, keys, interim)
    rng = np.random.default_rng(seed)
    realized = _realize(env, _tie_groups(keys, range(env.n)), rng)
    realized_pay = [
        (payments[i] / interim[i]) * realized[i] if interim[i] > 0.0 else 0.0
        for i in range(env.n)
    ]
    return AuctionOutcome(
        interim_alloc=tuple(interim),
        interim_payment=tuple(payments),
        realized_alloc=tuple(realized),
        realized_payment=tuple(realized_pay),
    )
