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
single-bid allocation curve.  Only the bidder's own block competes with
it, so the curve is piecewise constant with breakpoints only at the
reserve, interval endpoints and the other members' keys, and the
integral is computed exactly piece by piece.  Each block is priced alone
(``_block_payments``), from its accepted bids in ascending order, each
keyed once, by one walk of the block's own breakpoints that all its
members share; another block's keys never split it.  The tests check
this to the bit against a reference that re-runs ``allocate`` on the
block alone at every piece.
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


def _block_payments(slots: Sequence[float], plan: IroningPlan, accepted: Sequence[float]) -> tuple[float, ...]:
    """Threshold payments of one block's accepted bids, given in ascending order.

    Each bid is keyed once.  Keys rise with the bid, so they come out
    sorted, and the pieces below a member's own key k0 are a prefix of
    the breakpoints {0, reserve, interval endpoints, the block's keys}.
    On such a piece with key k the member ranks below the rivals with
    keys above k and ties with those at k, which is what ``allocate``
    would compute: the share ``sum(slots[pos:pos+t]) / t``, with
    pos = #(keys > k) - 1 and t = #(keys = k) + 1, is the same for every
    member.  So ``below[j]``, one running sum up to the top key, is every
    member's integral over the first j pieces.  No breakpoint lies inside
    an interval, so an ironed member's only other piece runs from k0 to
    its bid at its own tied share, which is its allocation.  Each
    ``below`` adds the same terms in the same order as a per-member loop
    would, so the payments keep every bit.  Members are paid one tie
    group at a time from the top key down, and the walk stops at the
    first group that no slot weight reaches.
    """
    if not accepted:
        return ()
    keys = [ironed_key(b, plan) for b in accepted]
    pts = sorted(z for z in {0.0, plan.reserve, *keys, *sum(plan.intervals, ())} if z <= keys[-1])
    below = [0.0]
    for z0, z1 in zip(pts, pts[1:]):
        integral = below[-1]
        k = ironed_key(0.5 * (z0 + z1), plan)
        if k is not None:
            at_most = bisect_right(keys, k)
            pos = len(keys) - at_most - 1
            t = at_most - bisect_left(keys, k) + 1
            integral += sum(slots[pos : pos + t]) / t * (z1 - z0)
        below.append(integral)
    payments = [0.0] * len(keys)
    hi = len(keys)
    while hi:  # each tie group of equal keys, from the top, until the slots run out
        own = keys[hi - 1]
        lo = bisect_left(keys, own, 0, hi)
        alloc = sum(slots[len(keys) - hi : len(keys) - lo]) / (hi - lo)
        if not alloc:
            break  # slots are nonincreasing, so no lower group is served either
        integral = below[bisect_left(pts, own)]
        for j in range(lo, hi):
            payments[j] = accepted[j] * alloc - (integral + alloc * (accepted[j] - own))
        hi = lo
    return tuple(payments)


def interim_payments(env: Environment, plan: IroningPlan, bids: Sequence[float]) -> list[float]:
    """All bidders' threshold payments, one block at a time; equal bids
    in a block pay the same, so payments map back to bidders by bid."""
    payments = [0.0] * env.n
    for members, slots in env.blocks:
        accepted = sorted(bids[i] for i in members if bids[i] >= plan.reserve)
        paid = dict(zip(accepted, _block_payments(slots, plan, accepted)))
        for i in members:
            payments[i] = paid.get(bids[i], 0.0)
    return payments


def run_auction(env: Environment, plan: IroningPlan, bids: Sequence[float], seed) -> AuctionOutcome:
    """Interim allocations and payments plus a seeded realized outcome.

    The realized winner pays its interim per-unit price times the
    realized quantity, so payments average back to the interim ones.
    """
    for b in bids:
        if not math.isfinite(b) or b < 0.0:
            raise ValueError(f"bid {b} must be finite and nonnegative")
    interim = allocate(env, plan, bids)
    payments = interim_payments(env, plan, bids)
    keys = [ironed_key(b, plan) for b in bids]
    # one seeded outcome: each tie group in uniform random order, every bidder taking its own block's next slot
    slots_of = [None] * env.n
    for members, slots in env.blocks:
        remaining = iter(slots)  # shared by the block's members
        for i in members:
            slots_of[i] = remaining
    realized = [0.0] * env.n
    rng = np.random.default_rng(seed)
    for group in _tie_groups(keys, range(env.n)):
        for j in rng.permutation(len(group)):
            realized[group[j]] = next(slots_of[group[j]])
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
