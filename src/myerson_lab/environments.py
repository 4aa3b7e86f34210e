"""Feasibility environments as lists of independent rank auctions.

An environment is its ``blocks``: the bidders of a block compete only
with each other for the block's slots, taken in rank order, and every
block shares the plan's one reserve and one set of ironing intervals.
Single-item, k-unit and position environments are one block of all
bidders.  Under a uniform or partition matroid, greedy selection in
rank order (ties in uniform random order) admits a bidder exactly when
its block still has spare capacity, and other blocks never affect that,
so each block is a cap-unit auction of its own members: one block of
min(rank, n) unit slots for a uniform matroid, one block per nonempty
part with min(cap, size) unit slots for a partition matroid.

Each constructor validates its input and keeps it as the JSON text that
``to_json`` returns; ``blocks`` is built from that text on first use, so
an environment of 10**9 bidders costs nothing until a block is needed.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

__all__ = ["Environment", "is_independent"]


def _json_int(value, what: str) -> int:
    """An integer read from JSON; floats, strings and booleans are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_number(value, what: str) -> float:
    """A finite number read from JSON; strings, booleans, null, NaN,
    infinities and integers beyond the float range are refused."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN fails too
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


def _json_list(value, what: str, item) -> list:
    """A JSON array, each entry read by ``item(entry, what)``."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be an array, got {value!r}")
    return [item(v, f"{what} entry") for v in value]


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {value!r}")
    return value


def _count(value, what: str) -> int:
    """An integer argument as an int: ``operator.index`` refuses floats,
    and booleans, which it would read as 0 and 1, are refused too."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _block(members: Iterable[int], top: Sequence[float]) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """A rank auction of ``members`` whose slots weigh ``top``, zero-padded to the member count."""
    members = tuple(members)
    return members, tuple(top) + (0.0,) * (len(members) - len(top))


@dataclass(frozen=True)
class Environment:
    """Who can win together: ``kind`` (``single_item``, ``k_unit``,
    ``position`` or ``matroid``), ``n`` bidders and their rank blocks."""

    kind: str
    n: int
    spec: str = field(repr=False)

    @staticmethod
    def _of(kind: str, n: int, /, **fields) -> "Environment":
        n = _count(n, "n")
        if n < 1:
            raise ValueError("need at least one bidder")
        return Environment(kind, n, json.dumps({"type": kind, **fields, "n": n}))

    @staticmethod
    def single_item(n: int) -> "Environment":
        return Environment._of("single_item", n)

    @staticmethod
    def k_unit(k: int, n: int) -> "Environment":
        k, n = _count(k, "k"), _count(n, "n")
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        return Environment._of("k_unit", n, k=k)

    @staticmethod
    def position(weights: Sequence[float], n: int) -> "Environment":
        weights = [float(w) for w in weights]
        if not weights or len(weights) > n:
            raise ValueError("need 1..n slot weights")
        if not all(0.0 <= w <= sys.float_info.max for w in weights):
            raise ValueError("slot weights must be finite and nonnegative")
        if any(a < b for a, b in zip(weights, weights[1:])):
            raise ValueError("slot weights must be nonincreasing")
        return Environment._of("position", n, weights=weights)

    @staticmethod
    def uniform_matroid(rank: int, n: int) -> "Environment":
        """Any ``rank`` of the n bidders may win together."""
        rank = _count(rank, "rank")
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        return Environment._of("matroid", n, kind="uniform", rank=rank)

    @staticmethod
    def partition_matroid(parts: Sequence[int], capacities: Sequence[int]) -> "Environment":
        """Bidder i is in part ``parts[i]``, of which at most
        ``capacities[parts[i]]`` members may win together."""
        parts, capacities = [_count(p, "part") for p in parts], [_count(c, "capacity") for c in capacities]
        if any(not 0 <= p < len(capacities) for p in parts):
            raise ValueError("block id out of range")
        if any(c < 0 for c in capacities):
            raise ValueError("capacities must be nonnegative")
        return Environment._of("matroid", len(parts), kind="partition", blocks=parts, capacities=capacities)

    @cached_property
    def blocks(self) -> tuple[tuple[tuple[int, ...], tuple[float, ...]], ...]:
        """(member indices, per-rank slot weights zero-padded to the member
        count) for each independent rank auction; see the module docstring."""
        spec = json.loads(self.spec)
        if spec.get("kind") == "partition":
            parts = [[] for _ in spec["capacities"]]
            for i, part in enumerate(spec["blocks"]):  # one pass, not one per part
                parts[part].append(i)
            return tuple(_block(m, [1.0] * min(cap, len(m))) for m, cap in zip(parts, spec["capacities"]) if m)
        # a position's weights, else unit slots: 1 for a single item, k for k units, rank for a uniform matroid
        top = spec.get("weights") or [1.0] * min(spec.get("k", spec.get("rank", 1)), self.n)
        return (_block(range(self.n), top),)

    @staticmethod
    def from_json(text: str) -> "Environment":
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError("environment JSON must be an object")
        t = spec["type"]
        n = _json_int(spec["n"], "n")
        if t == "single_item":
            return Environment.single_item(n)
        if t == "k_unit":
            return Environment.k_unit(_json_int(spec["k"], "k"), n)
        if t == "position":
            return Environment.position(_json_list(spec["weights"], "weights", _json_number), n)
        if t != "matroid":
            raise ValueError(f"unknown environment type {t!r}")
        if spec["kind"] == "uniform":
            return Environment.uniform_matroid(_json_int(spec["rank"], "rank"), n)
        if spec["kind"] != "partition":
            raise ValueError(f"unknown matroid kind {spec['kind']!r}")
        env = Environment.partition_matroid(
            _json_list(spec["blocks"], "blocks", _json_int),
            _json_list(spec["capacities"], "capacities", _json_int),
        )
        if env.n != n:
            raise ValueError("matroid ground set must match bidder count")
        return env

    def to_json(self) -> str:
        return self.spec


def is_independent(env: Environment, s: Iterable[int]) -> bool:
    """Whether the bidders in ``s`` can all win at once: no block holds
    more of them than it has positive slots."""
    chosen = set(s)
    if any(not 0 <= e < env.n for e in chosen):
        raise ValueError("element outside the ground set")
    return all(sum(i in chosen for i in members) <= sum(w > 0.0 for w in slots) for members, slots in env.blocks)
