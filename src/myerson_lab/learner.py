"""Learning an ironing plan from samples, plus sample-size calculators.

The pipeline: the empirical quantile function, shifted down by the
deviation radius, gives the price runs of the pessimistic revenue curve;
the plan is read off the runs' arrays in one pass up to the curve's
argmax, the reserve quantile: the gaps between the curve and its concave
envelope are the quantile ironing intervals, and indexing the run prices
maps them and the reserve quantile to value space.  The learner takes a
matrix of sample counts over one support, one radius per row, and learns
every row in one call; ``compute_auction`` is its one-row call.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .curves import PiecewiseLinearCurve, PriceRuns, _gap_ends, _price_run_grid, _prune_below_chords, _run_grid
from .curves import induced_curve

# unused here but bound: perfbench's traced pass patches these names
from .curves import argmax_quantile, concave_envelope, difference_intervals, price_left_of_runs  # noqa: F401
from .empirical import min_price_runs  # noqa: F401
from .empirical import EmpiricalQuantile, _min_edges, dkw_epsilon
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

    @cached_property
    def starts(self) -> tuple[float, ...]:
        """The intervals' lower endpoints, ascending, for bisection."""
        return tuple(lo for lo, _ in self.intervals)

    def to_json(self) -> str:
        return json.dumps(
            {"reserve": self.reserve, "intervals": [{"lo": lo, "hi": hi} for lo, hi in self.intervals]}
        )

    def short_hash(self) -> str:
        return hashlib.sha1(self.to_json().encode()).hexdigest()[:12]


_RESERVE, _START, _STOP = 1, 2, 4  # marks of the grid points that hold q* and open and close gaps


def _plan(left: np.ndarray, top, starts: np.ndarray, stops: np.ndarray) -> IroningPlan:
    """The plan with q* at grid position ``top`` and gaps from each start to each stop."""
    intervals = zip(left[stops].tolist(), left[starts].tolist())
    return IroningPlan.canonical([(lo, hi) for lo, hi in intervals if lo < hi], left[top])


def _grid_plans(qs: np.ndarray, left: np.ndarray, right: np.ndarray, h_max: float) -> tuple[list, np.ndarray]:
    """The distinct ironing plans read off the curves q * price(q) on the
    rows of a grid ``qs``, whose prices just below and above each point,
    ``left`` and ``right``, the rows share and do not rise.

    So a curve's upper limit at each grid point is the quantile times the
    price just below it, and the first maximum of those is the reserve
    quantile q*.  Only the points up to q* are kept: the hull left of q*
    depends on them alone and touches the curve at q*, and a gap beyond q*
    maps to an interval at or below the reserve, which ``canonical``
    prunes.  The gaps between the curve and its hull, and q*, map to value
    space as the price just below each grid point.  The rows' hulls are
    found in shared pruning passes over all rows (``_prune_below_chords``),
    and one scan finds the gaps of all rows laid end to end.
    A row's plan is fixed by which grid points hold q* and open and close
    gaps, so each distinct row of such marks is built once, and each row
    is given the index of its plan.
    """
    upper = qs * left
    k = upper.argmax(axis=1)  # each row's reserve quantile's grid position
    ironed = (k > 1).nonzero()[0]  # a hull of two points leaves no gap
    starts = stops = np.zeros(0, dtype=np.intp)  # gap ends in the ironed rows laid end to end
    g = qs.shape[1]
    if len(ironed):
        tops = k[ironed]
        iq, iu = (qs, upper) if len(ironed) == len(qs) else (qs[ironed], upper[ironed])
        hull = _prune_below_chords(iq, iu, tops)
        end = hull[-1] + 1  # the last row's q*
        live = (np.arange(g) < tops[:, None]).ravel()[: end - 1] if len(ironed) > 1 else None
        lined_q, lined_u, lined_right = iq.ravel()[:end], iu.ravel()[:end], (iq * right).ravel()[:end]
        starts, stops = _gap_ends(lined_q, lined_u, lined_right, hull, lined_u[hull], 1e-9 * h_max, live)
    if len(qs) == 1:  # a lone row's plan needs no marks
        return [_plan(left, k[0], starts, stops)], np.zeros(1, dtype=np.intp)
    marks = np.zeros(qs.shape, dtype=np.uint8)
    marks[np.arange(len(qs)), k] = _RESERVE
    for mark, at in ((_START, starts), (_STOP, stops)):
        marks[ironed[at // g], at % g] |= mark
    rows, ids = np.unique(marks, axis=0, return_inverse=True)
    plans = [_plan(left, (r & _RESERVE).argmax(), (r & _START).nonzero()[0], (r & _STOP).nonzero()[0]) for r in rows]
    return plans, ids


def plan_from_price_runs(runs: PriceRuns, h_max: float) -> IroningPlan:
    """Ironing plan read off a price-run curve q -> q * price(q) (see
    ``_grid_plans``)."""
    return _grid_plans(*_price_run_grid(runs), h_max)[0][0]


def _count_grids(values: np.ndarray, counts: np.ndarray, eps: np.ndarray) -> list:
    """The grids of the pessimistic curves of rows of ``counts``, the
    samples at each of the ascending ``values`` (a row may lack some, not
    all), each at its radius in ``eps``: (rows, grid) for each group of
    rows whose runs are nonempty alike, so that they share one grid shape.

    A row's runs are those of ``min_price_runs``, plus an empty run for
    each value it lacks and a price-0 run from 1 - epsilon to 1, which is
    all that a radius of 1 or more leaves.
    """
    r = len(counts)
    edges = _min_edges(counts, eps)
    prices = np.concatenate((values[::-1], [0.0]))
    nonempty = edges[:, 1:] > edges[:, :-1]
    groups = [np.zeros(1, dtype=np.intp)]
    if r > 1:  # an integer key per row of the nonempty-run mask
        packed = np.packbits(nonempty, axis=1)
        key = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_inverse=True)[1]
        groups = [(key == group).nonzero()[0] for group in range(key.max() + 1)]
    grids = []
    for rows in groups:
        keep = nonempty[rows[0]]
        grids.append((rows, _run_grid(edges[rows] if len(rows) < r else edges, keep, prices, prices[keep][0])))
    return grids


def _count_plans(values: np.ndarray, counts: np.ndarray, eps: np.ndarray, h_max: float) -> tuple[list, np.ndarray]:
    """The plans ``compute_auction`` learns from the rows of ``counts``
    (see ``_count_grids``) at their radii, each built once, and each row's
    index among them; a radius of 1 or more gives the empty plan."""
    plans, ids = [], np.zeros(len(counts), dtype=np.intp)
    for rows, grid in _count_grids(values, counts, eps):
        group, group_ids = _grid_plans(*grid, h_max)
        ids[rows] = len(plans) + group_ids
        plans += group
    return plans, ids


def optimal_induced(runs: PriceRuns, h_max: float) -> PiecewiseLinearCurve:
    """The curve of ``runs`` as its own optimal plan induces it: the
    concave envelope up to the argmax quantile, then a plateau."""
    return induced_curve(runs, plan_from_price_runs(runs, h_max))


def compute_auction(samples, delta: float, h_max: float) -> IroningPlan:
    """Learn ironing intervals and a reserve price from an array of
    samples, each in [0, h_max].

    Builds the pessimistic revenue curve from the deviation-shifted
    empirical quantile function and irons where it fails to be concave.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not math.isfinite(h_max):
        raise ValueError(f"h_max must be finite, got {h_max}")
    eq = EmpiricalQuantile.from_samples(samples, h_max)
    return _count_plans(eq.values, eq.counts[None], np.array([dkw_epsilon(eq.m, delta)]), h_max)[0][0]


def _check_n_h(n: int, h_max: float) -> None:
    """Refuse n below 1 or beyond a float, and a value bound that is not finite and nonnegative."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > sys.float_info.max:
        raise ValueError(f"n must be finite, got {n!r}")
    if not math.isfinite(h_max):
        raise ValueError(f"h_max must be finite, got {h_max}")
    if h_max < 0.0:
        raise ValueError(f"h_max must be >= 0, got {h_max}")


def _check_gamma(gamma: float) -> None:
    """Refuse a gamma that is below 1 or not finite."""
    if gamma < 1.0:
        raise ValueError("gamma must be >= 1")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")


def required_samples_iid(eps_target: float, delta: float, n: int, gamma: float, h_max: float) -> int:
    """Samples needed for a (1 - eps_target) multiplicative guarantee.

    Solves eps = delta + 3 * sqrt(ln(2/delta) / (2m)) * n * gamma * H
    for m and rounds up.
    """
    if not 0.0 < delta < eps_target < 1.0:
        raise ValueError("need 0 < delta < eps_target < 1")
    _check_n_h(n, h_max)
    _check_gamma(gamma)
    try:
        return math.ceil((math.log(2.0 / delta) / 2.0) * (3.0 * n * gamma * h_max / (eps_target - delta)) ** 2)
    except (OverflowError, ValueError):  # from the square, or from the ceiling of inf or of inf * 0
        raise ValueError(f"the sample count overflows a float at n={n}, gamma={gamma}, h_max={h_max}") from None


def loss_bound(m, delta: float, n: int, h_max: float):
    """High-probability additive revenue-loss bound 3 * epsilon * n * H for
    m samples, or for each of an integer array of m: the one place it is
    computed, in this float order, so each element of the array form is
    ``==`` the call on that element alone.  A bound beyond a float is refused."""
    _check_n_h(n, h_max)
    with np.errstate(over="ignore"):
        bound = 3.0 * dkw_epsilon(m, delta) * n * h_max
    if not np.isfinite(bound).all():
        raise ValueError(f"the loss bound overflows a float at n={n}, h_max={h_max}")
    return bound
