"""Executing an ironing-plan auction on a bid profile.

Bids below the reserve are rejected; bids inside one ironing interval
share a rank key.  Every environment is a list of independent rank
auctions (``Environment.blocks``: one block of all bidders, or one per
part of a partition matroid).  Inside each block, allocation maximizes
welfare over the keys, splitting exact ties symmetrically (fractional
shares of the contested slots); this is exact for every environment,
matroids included, with no sampling.
Payments follow the standard threshold integral of the bidder's
single-bid allocation curve, which is piecewise constant with
breakpoints only at the reserve, interval endpoints, and the other
bidders' keys, so the integral is computed exactly piece by piece.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# is_independent is unused here but stays bound: perfbench's traced pass patches it by name
from .environments import Environment, is_independent  # noqa: F401
from .learner import IroningPlan

__all__ = ["AuctionOutcome", "ironed_key", "allocate", "myerson_payment", "run_auction"]


@dataclass(frozen=True)
class AuctionOutcome:
    """Interim (expected) and realized results of one auction run."""

    interim_alloc: tuple[float, ...]
    interim_payment: tuple[float, ...]
    realized_alloc: tuple[float, ...]
    realized_payment: tuple[float, ...]

    def total_interim_payment(self) -> float:
        return math.fsum(self.interim_payment)


def validate_bids(bids: Sequence[float], h_max: float | None = None) -> None:
    for b in bids:
        if not math.isfinite(b) or b < 0.0:
            raise ValueError(f"bid {b} must be finite and nonnegative")
        if h_max is not None and b > h_max:
            raise ValueError(f"bid {b} exceeds h_max {h_max}")


def ironed_key(bid: float, plan: IroningPlan) -> float | None:
    """Rank key of a bid: None if rejected, the interval's lower
    endpoint if ironed, the bid itself otherwise."""
    if bid < plan.reserve:
        return None
    for lo, hi in plan.intervals:
        if lo <= bid < hi:
            return lo
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


def _payment_breakpoints(plan: IroningPlan, other_keys: list[float], up_to: float) -> list[float]:
    pts = {0.0, up_to, plan.reserve}
    for lo, hi in plan.intervals:
        pts.add(lo)
        pts.add(hi)
    pts.update(other_keys)
    return sorted(p for p in pts if 0.0 <= p <= up_to)


def _payment_given_alloc(
    env: Environment, plan: IroningPlan, bids: Sequence[float], bidder: int, alloc_at_bid: float
) -> float:
    if alloc_at_bid == 0.0:
        return 0.0
    b_i = bids[bidder]
    others = [ironed_key(b, plan) for j, b in enumerate(bids) if j != bidder]
    pts = _payment_breakpoints(plan, [k for k in others if k is not None], b_i)
    probe = list(bids)
    integral = 0.0
    for z0, z1 in zip(pts, pts[1:]):
        if z1 <= z0:
            continue
        probe[bidder] = 0.5 * (z0 + z1)
        x_mid = allocate(env, plan, probe)[bidder]
        integral += x_mid * (z1 - z0)
    return b_i * alloc_at_bid - integral


def myerson_payment(env: Environment, plan: IroningPlan, bids: Sequence[float], bidder: int) -> float:
    """Threshold-integral payment for one bidder, computed exactly.

    p = b * x(b) - integral of x(z) dz over [0, b], where x(z) is the
    bidder's allocation when bidding z against the fixed others; x is
    piecewise constant, so each piece is evaluated at its midpoint.
    """
    alloc_at_bid = allocate(env, plan, bids)[bidder]
    return _payment_given_alloc(env, plan, bids, bidder, alloc_at_bid)


def interim_payments(env: Environment, plan: IroningPlan, bids: Sequence[float]) -> list[float]:
    """All bidders' payments, sharing one allocation pass."""
    alloc = allocate(env, plan, bids)
    return [_payment_given_alloc(env, plan, bids, i, alloc[i]) for i in range(env.n)]


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
    payments = [_payment_given_alloc(env, plan, bids, i, interim[i]) for i in range(env.n)]
    rng = np.random.default_rng(seed)
    keys = [ironed_key(b, plan) for b in bids]
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
