"""Exact, sampleable bounded value distributions.

Two families are supported: finite discrete laws (the ground truth for
every exact oracle) and mixtures of uniform components (sampling and
Monte Carlo only; their revenue curves are grid approximations).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .curves import PiecewiseLinearCurve, PriceRuns, curve_from_price_runs
from .environments import _json_list, _json_number, _json_object

__all__ = ["ValueDistribution", "sample", "exact_cdf", "exact_quantile", "tail_probability", "exact_revenue_curve"]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class ValueDistribution:
    """A bounded value law: discrete atoms or a uniform mixture.

    ``h_max`` is the known support bound H; all values live in [0, h_max].
    """

    kind: str
    h_max: float
    atoms: tuple[tuple[float, float], ...] = ()
    components: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if self.h_max <= 0 or not math.isfinite(self.h_max):
            raise ValueError("h_max must be positive and finite")
        if self.kind == "discrete":
            if not self.atoms:
                raise ValueError("discrete distribution needs atoms")
            total = math.fsum(p for _, p in self.atoms)
            if abs(total - 1.0) > _PROB_TOL:
                raise ValueError(f"atom probabilities sum to {total}, not 1")
            prev = -math.inf
            for v, p in self.atoms:
                if not 0.0 <= v <= self.h_max:
                    raise ValueError(f"atom value {v} outside [0, {self.h_max}]")
                if p < 0.0:
                    raise ValueError("negative atom probability")
                if v <= prev:
                    raise ValueError("atom values must be strictly increasing")
                prev = v
        elif self.kind == "uniform_mixture":
            if not self.components:
                raise ValueError("mixture needs components")
            total = math.fsum(w for _, _, w in self.components)
            if abs(total - 1.0) > _PROB_TOL:
                raise ValueError(f"component weights sum to {total}, not 1")
            for lo, hi, w in self.components:
                if not (0.0 <= lo < hi <= self.h_max):
                    raise ValueError(f"component ({lo}, {hi}) invalid for h_max {self.h_max}")
                if w < 0.0:
                    raise ValueError("negative component weight")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    # -- constructors ------------------------------------------------

    @staticmethod
    def discrete(atoms, h_max: float) -> "ValueDistribution":
        atoms = tuple(sorted((float(v), float(p)) for v, p in atoms))
        return ValueDistribution(kind="discrete", h_max=float(h_max), atoms=atoms)

    @staticmethod
    def uniform_mixture(components, h_max: float) -> "ValueDistribution":
        comps = tuple((float(a), float(b), float(w)) for a, b, w in components)
        return ValueDistribution(kind="uniform_mixture", h_max=float(h_max), components=comps)

    @staticmethod
    def from_json(text: str) -> "ValueDistribution":
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError("distribution JSON must be an object")
        if spec["type"] == "discrete":
            atoms = _json_list(spec["atoms"], "atoms", _json_object)
            return ValueDistribution.discrete(
                [(_json_number(a["value"], "value"), _json_number(a["prob"], "prob")) for a in atoms],
                _json_number(spec["h_max"], "h_max"),
            )
        if spec["type"] == "uniform_mixture":
            comps = _json_list(spec["components"], "components", _json_object)
            return ValueDistribution.uniform_mixture(
                [tuple(_json_number(c[k], k) for k in ("lo", "hi", "weight")) for c in comps],
                _json_number(spec["h_max"], "h_max"),
            )
        raise ValueError(f"unknown distribution type {spec['type']!r}")

    def to_json(self) -> str:
        if self.kind == "discrete":
            spec = {
                "type": "discrete",
                "h_max": self.h_max,
                "atoms": [{"value": v, "prob": p} for v, p in self.atoms],
            }
        else:
            spec = {
                "type": "uniform_mixture",
                "h_max": self.h_max,
                "components": [{"lo": a, "hi": b, "weight": w} for a, b, w in self.components],
            }
        return json.dumps(spec)

    # -- cached arrays ----------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.kind == "discrete"

    def _atom_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        vals = np.array([v for v, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        return vals, probs, np.cumsum(probs)

    def support_min(self) -> float:
        if self.is_discrete:
            return self.atoms[0][0]
        return min(lo for lo, _, _ in self.components)

    def support_max(self) -> float:
        if self.is_discrete:
            return self.atoms[-1][0]
        return max(hi for _, hi, _ in self.components)


def sample(dist: ValueDistribution, count: int, seed) -> np.ndarray:
    """Draw ``count`` i.i.d. values, deterministically for a given seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    if dist.is_discrete:
        vals, probs, _ = dist._atom_arrays()
        return rng.choice(vals, size=count, p=probs)
    los = np.array([lo for lo, _, _ in dist.components])
    his = np.array([hi for _, hi, _ in dist.components])
    ws = np.array([w for _, _, w in dist.components])
    idx = rng.choice(len(ws), size=count, p=ws)
    u = rng.uniform(size=count)
    return los[idx] + u * (his[idx] - los[idx])


def exact_cdf(dist: ValueDistribution, v: float) -> float:
    """Right-continuous CDF: P(V <= v)."""
    if dist.is_discrete:
        return math.fsum(p for a, p in dist.atoms if a <= v)
    total = 0.0
    for lo, hi, w in dist.components:
        if v >= hi:
            total += w
        elif v > lo:
            total += w * (v - lo) / (hi - lo)
    return total


def _discrete_tails(dist: ValueDistribution) -> list[float]:
    """T[j] = P(V >= v_j) by reverse accumulation, with T[0] pinned to 1.

    The same floats serve as run boundaries in the exact revenue curve,
    so quantile images of atom values land exactly on curve breakpoints;
    the clamp at 1 keeps them in order when the sum rounds above 1.
    """
    probs = [p for _, p in dist.atoms]
    tails = [0.0] * len(probs)
    acc = 0.0
    for j in range(len(probs) - 1, -1, -1):
        acc += probs[j]
        tails[j] = min(acc, 1.0)
    tails[0] = 1.0
    return tails


def tail_probability(dist: ValueDistribution, v: float) -> float:
    """P(V >= v); the sale probability at posted price v."""
    if dist.is_discrete:
        vals = [a for a, _ in dist.atoms]
        j = bisect_left(vals, v)
        if j == len(vals):
            return 0.0
        return _discrete_tails(dist)[j]
    return 1.0 - exact_cdf(dist, v)


def exact_quantile(dist: ValueDistribution, p: float) -> float:
    """Generalized inverse: the smallest v with exact_cdf(v) >= p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if dist.is_discrete:
        _, _, cum = dist._atom_arrays()
        idx = int(np.searchsorted(cum, p, side="left"))
        idx = min(idx, len(dist.atoms) - 1)
        return dist.atoms[idx][0]
    # piecewise-linear CDF over merged component breakpoints
    edges = sorted({x for lo, hi, _ in dist.components for x in (lo, hi)})
    if p <= 0.0:
        return edges[0]
    prev_x, prev_f = edges[0], 0.0
    for x in edges[1:]:
        f = exact_cdf(dist, x)
        if f >= p:
            if f == prev_f:
                return x
            t = (p - prev_f) / (f - prev_f)
            return prev_x + t * (x - prev_x)
        prev_x, prev_f = x, f
    return edges[-1]


def _discrete_price_runs(dist: ValueDistribution) -> PriceRuns:
    """Constant-price runs of q -> F_inverse(1 - q) in quantile space.

    Posting atom v_j sells with probability tail(v_j); the run for v_j
    covers quantiles (tail(v_{j+1}), tail(v_j)], high values first.  A
    zero-probability atom keeps its empty run.
    """
    tails = _discrete_tails(dist)
    return PriceRuns(np.array([0.0, *tails[::-1]]), np.array([v for v, _ in reversed(dist.atoms)]))


def exact_revenue_curve(dist: ValueDistribution, grid_points: int = 10_000) -> PiecewiseLinearCurve:
    """Revenue-vs-quantile curve q * F_inverse(1 - q).

    Exact (with jump pairs at atom quantiles) for discrete laws; a
    uniform quantile-grid approximation for mixtures.
    """
    if dist.is_discrete:
        return curve_from_price_runs(_discrete_price_runs(dist))
    qs = np.linspace(0.0, 1.0, grid_points + 1)
    values = [0.0] + [q * exact_quantile(dist, 1.0 - q) for q in qs[1:].tolist()]
    return PiecewiseLinearCurve(qs, np.array(values))
