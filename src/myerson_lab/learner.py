"""Learning an ironing plan from samples, plus sample-size calculators.

The pipeline: the empirical quantile function, shifted down by the
deviation radius, gives the price runs of the pessimistic revenue curve;
the plan is read off the runs' arrays in one pass up to the curve's
argmax, the reserve quantile: the gaps between the curve and its concave
envelope are the quantile ironing intervals, and indexing the run prices
maps them and the reserve quantile to value space.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

from .curves import PiecewiseLinearCurve, PriceRuns, _gap_ends, _hull_indices, _run_grid, induced_curve

# unused here but bound: perfbench's traced pass patches these names
from .curves import argmax_quantile, concave_envelope, difference_intervals, price_left_of_runs  # noqa: F401
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

    Run prices fall, so the curve's upper limit at each grid point is the
    quantile times the price just below it, and the first maximum of
    those is the reserve quantile q*.  Only the points up to q* are kept:
    the hull left of q* depends on them alone and touches the curve at
    q*, and a gap beyond q* maps to an interval at or below the reserve,
    which ``canonical`` prunes.  The gaps between the curve and its hull,
    and q*, map to value space as the price just below each grid point.
    Runs whose prices rise are refused.
    """
    qs, left, right = _run_grid(runs)
    if (left[2:] > left[1:-1]).any():
        raise ValueError("run prices must be nonincreasing")
    upper = qs * left
    k = int(upper.argmax())  # the reserve quantile's grid position
    intervals = []
    if k > 1:  # a hull of two points leaves no gap
        qs, upper = qs[: k + 1], upper[: k + 1]
        hull = _hull_indices(qs, upper)
        starts, ends = _gap_ends(qs, upper, qs * right[: k + 1], hull, upper[hull], 1e-9 * h_max)
        intervals = [(lo, hi) for lo, hi in zip(left[ends].tolist(), left[starts].tolist()) if lo < hi]
    return IroningPlan.canonical(intervals, left[k])


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
    if h_max < 0.0:
        raise ValueError(f"h_max must be >= 0, got {h_max}")
    raw = (math.log(2.0 / delta) / 2.0) * (3.0 * n * gamma * h_max / (eps_target - delta)) ** 2
    return math.ceil(raw)


def loss_bound(m: int, delta: float, n: int, h_max: float) -> float:
    """High-probability additive revenue-loss bound 3 * n * H * epsilon."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not math.isfinite(h_max):
        raise ValueError(f"h_max must be finite, got {h_max}")
    if h_max < 0.0:
        raise ValueError(f"h_max must be >= 0, got {h_max}")
    return 3.0 * n * h_max * dkw_epsilon(m, delta)
