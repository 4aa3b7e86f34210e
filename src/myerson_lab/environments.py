"""Feasibility environments: single item, k units, positions, matroids.

Also holds the closed-form interim allocation of k-unit auctions (the
probability that a bidder at quantile q is among the k highest of n),
its derivative, and its antiderivative; the revenue quadrature
integrates against these.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

__all__ = [
    "MatroidSpec",
    "Environment",
    "is_independent",
    "greedy_max_weight",
    "interim_allocation_kunit",
    "interim_allocation_derivative_kunit",
    "interim_allocation_integral_kunit",
]


@dataclass(frozen=True)
class MatroidSpec:
    """Uniform or partition matroid over bidder indices 0..n-1."""

    kind: str
    n_elements: int
    rank: int = 0
    blocks: tuple[int, ...] = ()
    capacities: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("matroid needs a nonempty ground set")
        if self.kind == "uniform":
            if self.rank < 0:
                raise ValueError("rank must be nonnegative")
        elif self.kind == "partition":
            if len(self.blocks) != self.n_elements:
                raise ValueError("blocks must map every element")
            if any(b < 0 or b >= len(self.capacities) for b in self.blocks):
                raise ValueError("block id out of range")
            if any(c < 0 for c in self.capacities):
                raise ValueError("capacities must be nonnegative")
        else:
            raise ValueError(f"unknown matroid kind {self.kind!r}")

    @staticmethod
    def uniform(rank: int, n_elements: int) -> "MatroidSpec":
        return MatroidSpec(kind="uniform", n_elements=n_elements, rank=rank)

    @staticmethod
    def partition(blocks: Sequence[int], capacities: Sequence[int]) -> "MatroidSpec":
        return MatroidSpec(
            kind="partition",
            n_elements=len(blocks),
            blocks=tuple(blocks),
            capacities=tuple(capacities),
        )


def is_independent(spec: MatroidSpec, s: Iterable[int]) -> bool:
    """Exact independence oracle."""
    members = set(s)
    if any(e < 0 or e >= spec.n_elements for e in members):
        raise ValueError("element outside the ground set")
    if spec.kind == "uniform":
        return len(members) <= spec.rank
    counts = [0] * len(spec.capacities)
    for e in members:
        counts[spec.blocks[e]] += 1
    return all(c <= cap for c, cap in zip(counts, spec.capacities))


def greedy_max_weight(
    spec: MatroidSpec, weights: Sequence[float], priority: Sequence[int]
) -> set[int]:
    """Greedy independent set, scanning by (weight desc, priority).

    Only positive-weight elements are considered; for matroids the
    result is a maximum-weight independent set.
    """
    if sorted(priority) != list(range(spec.n_elements)):
        raise ValueError("priority must be a permutation of the bidders")
    rank_of = {e: r for r, e in enumerate(priority)}
    order = sorted(range(spec.n_elements), key=lambda e: (-weights[e], rank_of[e]))
    chosen: set[int] = set()
    for e in order:
        if weights[e] > 0.0 and is_independent(spec, chosen | {e}):
            chosen.add(e)
    return chosen


def _json_int(value, what: str) -> int:
    """An integer read from JSON; floats, strings and booleans are refused."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_number(value, what: str) -> float:
    """A number read from JSON; strings, booleans and null are refused."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
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


@dataclass(frozen=True)
class Environment:
    """What sets of bidders can win simultaneously.

    Every environment is a list of independent rank auctions, its
    ``blocks``: the bidders of a block compete only with each other for
    the block's slots, taken in rank order.  Ranked environments are one
    block of all bidders.  Under a uniform or partition matroid, greedy
    selection in rank order (ties in uniform random order) admits a
    bidder exactly when its block still has spare capacity, and other
    blocks never affect that, so each block is a cap-unit auction of its
    own members: one block of min(rank, n) unit slots for a uniform
    matroid, one block per nonempty part with min(cap, size) unit slots
    for a partition matroid.
    """

    kind: str
    n: int
    k: int = 0
    weights: tuple[float, ...] = ()
    matroid: MatroidSpec | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one bidder")
        if self.kind == "single_item":
            pass
        elif self.kind == "k_unit":
            if not 1 <= self.k <= self.n:
                raise ValueError("need 1 <= k <= n")
        elif self.kind == "position":
            if not self.weights or len(self.weights) > self.n:
                raise ValueError("need 1..n slot weights")
            if any(w < 0 for w in self.weights):
                raise ValueError("slot weights must be nonnegative")
            if any(a < b for a, b in zip(self.weights, self.weights[1:])):
                raise ValueError("slot weights must be nonincreasing")
        elif self.kind == "matroid":
            if self.matroid is None or self.matroid.n_elements != self.n:
                raise ValueError("matroid ground set must match bidder count")
        else:
            raise ValueError(f"unknown environment kind {self.kind!r}")

    @staticmethod
    def single_item(n: int) -> "Environment":
        return Environment(kind="single_item", n=n)

    @staticmethod
    def k_unit(k: int, n: int) -> "Environment":
        return Environment(kind="k_unit", n=n, k=k)

    @staticmethod
    def position(weights: Sequence[float], n: int) -> "Environment":
        return Environment(kind="position", n=n, weights=tuple(float(w) for w in weights))

    @staticmethod
    def with_matroid(spec: MatroidSpec, n: int) -> "Environment":
        return Environment(kind="matroid", n=n, matroid=spec)

    def slot_weights(self) -> tuple[float, ...]:
        """Per-rank quantities, zero-padded to n (ranking environments only)."""
        if self.kind == "single_item":
            base: tuple[float, ...] = (1.0,)
        elif self.kind == "k_unit":
            base = (1.0,) * self.k
        elif self.kind == "position":
            base = self.weights
        else:
            raise ValueError("matroid environments have no slot weights")
        return base + (0.0,) * (self.n - len(base))

    @cached_property
    def blocks(self) -> tuple[tuple[tuple[int, ...], tuple[float, ...]], ...]:
        """(member indices, per-rank slot weights zero-padded to the member
        count) for each independent rank auction; see the class docstring."""
        if self.kind != "matroid":
            return ((tuple(range(self.n)), self.slot_weights()),)
        m = self.matroid
        if m.kind == "uniform":
            parts = [(tuple(range(self.n)), m.rank)]
        else:
            parts = [
                (tuple(i for i, b in enumerate(m.blocks) if b == part), cap)
                for part, cap in enumerate(m.capacities)
            ]
        return tuple(
            (members, (1.0,) * min(cap, len(members)) + (0.0,) * max(len(members) - cap, 0))
            for members, cap in parts
            if members
        )

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
        if t == "matroid":
            if spec["kind"] == "uniform":
                m = MatroidSpec.uniform(_json_int(spec["rank"], "rank"), n)
            else:
                m = MatroidSpec.partition(
                    _json_list(spec["blocks"], "blocks", _json_int),
                    _json_list(spec["capacities"], "capacities", _json_int),
                )
            return Environment.with_matroid(m, n)
        raise ValueError(f"unknown environment type {t!r}")

    def to_json(self) -> str:
        if self.kind == "single_item":
            return json.dumps({"type": "single_item", "n": self.n})
        if self.kind == "k_unit":
            return json.dumps({"type": "k_unit", "k": self.k, "n": self.n})
        if self.kind == "position":
            return json.dumps({"type": "position", "weights": list(self.weights), "n": self.n})
        m = self.matroid
        if m.kind == "uniform":
            return json.dumps({"type": "matroid", "kind": "uniform", "rank": m.rank, "n": self.n})
        return json.dumps(
            {
                "type": "matroid",
                "kind": "partition",
                "blocks": list(m.blocks),
                "capacities": list(m.capacities),
                "n": self.n,
            }
        )


@lru_cache(maxsize=4096)
def _binom(n: int, k: int) -> int:
    return math.comb(n, k)


def interim_allocation_kunit(q: float, k: int, n: int) -> float:
    """P(a bidder at quantile q is served in a k-unit auction of n).

    Bernstein-basis sum; every term is nonnegative, so evaluation is
    stable for all q in [0, 1].
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q outside [0, 1]")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    total = 0.0
    for i in range(1, k + 1):
        total += _binom(n - 1, i - 1) * q ** (i - 1) * (1.0 - q) ** (n - i)
    return min(1.0, total)


def interim_allocation_derivative_kunit(q: float, k: int, n: int) -> float:
    """Closed-form derivative of the k-unit interim allocation; <= 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q outside [0, 1]")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        return 0.0
    return -(n - k) * _binom(n - 1, k - 1) * q ** (k - 1) * (1.0 - q) ** (n - k - 1)


def interim_allocation_integral_kunit(x: float, k: int, n: int) -> float:
    """Antiderivative: integral from 0 to x of the k-unit allocation.

    Uses the Bernstein integral identity, keeping all summands
    nonnegative.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError("x outside [0, 1]")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    total = 0.0
    for i in range(1, k + 1):
        for j in range(i, n + 1):
            total += _binom(n, j) * x**j * (1.0 - x) ** (n - j)
    return total / n
