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
members share; another block's keys never split it.  The same walk gives
each tie group its share of the slots, so it is the one place the
allocation rule is computed: ``allocate``, ``interim_payments`` and
``run_auction`` all read it.  The tests check allocations and payments
to the bit against the tie-group rule restated bidder by bidder, which
the payment reference re-runs on the block alone at every piece.
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


def allocate(env: Environment, plan: IroningPlan, bids: Sequence[float]) -> list[float]:
    """Per-bidder expected allocation: in each block, slots go down the
    members' keys and an exact tie shares its slots' weight equally."""
    return _interim(env, plan, bids)[0]


def _block_payments(
    slots: Sequence[float], plan: IroningPlan, accepted: Sequence[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Allocations and threshold payments of one block's accepted bids,
    given in ascending order.

    Each bid is keyed once.  Keys rise with the bid, so they come out
    sorted, and the pieces below a member's own key k0 are a prefix of
    the breakpoints {0, reserve, interval endpoints, the block's keys}.
    On such a piece with key k the member ranks below the rivals with
    keys above k and ties with those at k, so its allocation there is
    the tie group's share ``sum(slots[pos:pos+t]) / t``, with
    pos = #(keys > k) - 1 and t = #(keys = k) + 1, the same for every
    member.  So ``below[j]``, one running sum up to the top key, is every
    member's integral over the first j pieces.  No breakpoint lies inside
    an interval, so an ironed member's only other piece runs from k0 to
    its bid at its own tied share, which is its allocation.  Each
    ``below`` adds the same terms in the same order as a per-member loop
    would, so the payments keep every bit.  Members are served and paid
    one tie group at a time from the top key down, and the walk stops at
    the first group that no slot weight reaches: it and every group below
    get 0.
    """
    if not accepted:
        return (), ()
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
    allocs = [0.0] * len(keys)
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
            allocs[j] = alloc
            payments[j] = accepted[j] * alloc - (integral + alloc * (accepted[j] - own))
        hi = lo
    return tuple(allocs), tuple(payments)


def _interim(env: Environment, plan: IroningPlan, bids: Sequence[float]) -> tuple[list[float], list[float]]:
    """All bidders' allocations and threshold payments, one block at a
    time; equal bids in a block get the same, so they map back to
    bidders by bid."""
    if len(bids) != env.n:
        raise ValueError(f"expected {env.n} bids, got {len(bids)}")
    alloc, payments = [0.0] * env.n, [0.0] * env.n
    for members, slots in env.blocks:
        accepted = sorted(bids[i] for i in members if bids[i] >= plan.reserve)
        by_bid = dict(zip(accepted, zip(*_block_payments(slots, plan, accepted))))
        for i in members:
            alloc[i], payments[i] = by_bid.get(bids[i], (0.0, 0.0))
    return alloc, payments


def interim_payments(env: Environment, plan: IroningPlan, bids: Sequence[float]) -> list[float]:
    """All bidders' threshold payments."""
    return _interim(env, plan, bids)[1]


def run_auction(env: Environment, plan: IroningPlan, bids: Sequence[float], seed) -> AuctionOutcome:
    """Interim allocations and payments plus a seeded realized outcome.

    The realized winner pays its interim per-unit price times the
    realized quantity, so payments average back to the interim ones.
    """
    for b in bids:
        if not math.isfinite(b) or b < 0.0:
            raise ValueError(f"bid {b} must be finite and nonnegative")
    interim, payments = _interim(env, plan, bids)
    # one seeded outcome: each tie group in uniform random order, every bidder taking its own block's next slot
    slots_of = [None] * env.n
    for members, slots in env.blocks:
        remaining = iter(slots)  # shared by the block's members
        for i in members:
            slots_of[i] = remaining
    by_key: dict[float, list[int]] = {}  # accepted bidders by key, in bidder order
    for i, b in enumerate(bids):
        k = ironed_key(b, plan)
        if k is not None:
            by_key.setdefault(k, []).append(i)
    realized = [0.0] * env.n
    rng = np.random.default_rng(seed)
    for group in (by_key[k] for k in sorted(by_key, reverse=True)):
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
