"""Learning an ironing plan from samples, plus sample-size calculators.

The pipeline: build the pessimistic revenue curve from the empirical
quantile function shifted down by the deviation radius, take its concave
envelope, read the envelope-vs-curve gaps as quantile ironing intervals,
map those (and the curve's argmax, the reserve quantile) back to value
space, and canonicalize.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import (
    PiecewiseLinearCurve,
    PriceRuns,
    argmax_quantile,
    concave_envelope,
    curve_from_price_runs,
    difference_intervals,
    induced_curve,
    price_left_of_runs,
)
from .empirical import EmpiricalQuantile, dkw_epsilon, min_price_runs
from .environments import _json_list, _json_number, _json_object

__all__ = [
    "IroningPlan",
    "compute_auction",
    "plan_from_price_runs",
    "optimal_induced",
    "required_samples_iid",
    "loss_bound",
]


@dataclass(frozen=True)
class IroningPlan:
    """Disjoint half-open value intervals [lo, hi) plus a reserve price.

    Bids below the reserve are rejected; bids inside one interval are
    ranked as identical.  Canonical plans never keep an interval that
    lies entirely below the reserve, and the reserve never falls
    strictly inside an interval.
    """

    intervals: tuple[tuple[float, float], ...]
    reserve: float

    def __post_init__(self):
        if self.reserve < 0.0 or not math.isfinite(self.reserve):
            raise ValueError("reserve must be finite and nonnegative")
        prev_hi = -math.inf
        for lo, hi in self.intervals:
            if not (0.0 <= lo < hi) or not math.isfinite(hi):
                raise ValueError(f"bad value interval [{lo}, {hi})")
            if lo < prev_hi:
                raise ValueError("intervals must be sorted and disjoint")
            if hi <= self.reserve:
                raise ValueError("interval entirely below the reserve must be pruned")
            if lo < self.reserve < hi:
                raise ValueError("reserve must not fall strictly inside an interval")
            prev_hi = hi

    @staticmethod
    def empty() -> "IroningPlan":
        return IroningPlan(intervals=(), reserve=0.0)

    @staticmethod
    def canonical(intervals: Sequence[tuple[float, float]], reserve: float) -> "IroningPlan":
        """Sort, merge overlapping intervals, clip at the reserve, prune.

        Touching intervals such as [2, 3) and [3, 5) stay apart: merged,
        they would pool bids that the two separate intervals rank apart.
        """
        reserve = max(0.0, float(reserve))
        cleaned: list[tuple[float, float]] = []
        for lo, hi in sorted((float(lo), float(hi)) for lo, hi in intervals):
            lo = max(lo, reserve)  # below-reserve bids are rejected anyway
            if hi <= lo:
                continue
            if cleaned and lo < cleaned[-1][1]:
                cleaned[-1] = (cleaned[-1][0], max(cleaned[-1][1], hi))
            else:
                cleaned.append((lo, hi))
        return IroningPlan(intervals=tuple(cleaned), reserve=reserve)

    @staticmethod
    def from_json(text: str) -> "IroningPlan":
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError("plan JSON must be an object")
        intervals = _json_list(spec.get("intervals", []), "intervals", _json_object)
        return IroningPlan.canonical(
            [(_json_number(iv["lo"], "lo"), _json_number(iv["hi"], "hi")) for iv in intervals],
            _json_number(spec["reserve"], "reserve"),
        )

    def to_json(self) -> str:
        return json.dumps(
            {"reserve": self.reserve, "intervals": [{"lo": lo, "hi": hi} for lo, hi in self.intervals]}
        )

    def short_hash(self) -> str:
        return hashlib.sha1(self.to_json().encode()).hexdigest()[:12]


def plan_from_price_runs(runs: PriceRuns, h_max: float) -> IroningPlan:
    """Ironing plan read off a price-run curve q -> q * price(q).

    Quantile ironing intervals are the gaps between the curve and its
    concave envelope; endpoints (and the argmax reserve quantile) map to
    value space through the price level just below each quantile, all
    found in one search of the run edges.
    """
    curve = curve_from_price_runs(runs)
    hull = concave_envelope(curve)
    gaps = difference_intervals(curve, hull, tol=1e-9 * h_max)
    ends = np.array(gaps.intervals, dtype=float).reshape(-1)
    prices = price_left_of_runs(runs, np.concatenate(([argmax_quantile(curve)], ends))).tolist()
    reserve, his, los = prices[0], prices[1::2], prices[2::2]
    return IroningPlan.canonical([(lo, hi) for lo, hi in zip(los, his) if lo < hi], reserve)


def optimal_induced(runs: PriceRuns, h_max: float) -> PiecewiseLinearCurve:
    """The curve of ``runs`` as its own optimal plan induces it: the
    concave envelope up to the argmax quantile, then a plateau."""
    return induced_curve(runs, plan_from_price_runs(runs, h_max))


def compute_auction(samples, delta: float, h_max: float) -> IroningPlan:
    """Learn ironing intervals and a reserve price from samples.

    Builds the pessimistic revenue curve from the deviation-shifted
    empirical quantile function and irons where it fails to be concave.
    ``samples`` is an array of values or an ``EmpiricalQuantile`` with
    bound ``h_max`` already built from them.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not math.isfinite(h_max):
        raise ValueError(f"h_max must be finite, got {h_max}")
    if isinstance(samples, EmpiricalQuantile):
        if samples.h_max != h_max:
            raise ValueError(f"quantile bound {samples.h_max} is not h_max {h_max}")
        eq = samples
    else:
        eq = EmpiricalQuantile.from_samples(samples, h_max)
    eps = dkw_epsilon(eq.m, delta)
    if eps >= 1.0:
        # the shifted estimator clamps to price 0 everywhere: no usable
        # confidence yet, so run the plain welfare auction
        return IroningPlan.empty()
    return plan_from_price_runs(min_price_runs(eq, eps), h_max)


def required_samples_iid(eps_target: float, delta: float, n: int, gamma: float, h_max: float) -> int:
    """Samples needed for a (1 - eps_target) multiplicative guarantee.

    Solves eps = delta + 3 * sqrt(ln(2/delta) / (2m)) * n * gamma * H
    for m and rounds up.
    """
    if not 0.0 < delta < eps_target < 1.0:
        raise ValueError("need 0 < delta < eps_target < 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if gamma < 1.0:
        raise ValueError("gamma must be >= 1")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if not math.isfinite(h_max):
        raise ValueError(f"h_max must be finite, got {h_max}")
    raw = (math.log(2.0 / delta) / 2.0) * (3.0 * n * gamma * h_max / (eps_target - delta)) ** 2
    return math.ceil(raw)


def loss_bound(m: int, delta: float, n: int, h_max: float) -> float:
    """High-probability additive revenue-loss bound 3 * n * H * epsilon."""
    if not math.isfinite(h_max):
        raise ValueError(f"h_max must be finite, got {h_max}")
    return 3.0 * n * h_max * dkw_epsilon(m, delta)
