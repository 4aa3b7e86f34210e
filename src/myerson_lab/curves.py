"""Piecewise-linear curve arithmetic in quantile space.

A curve lives on the quantile domain [0, 1] and is stored as two float
arrays, the vertex quantiles ``qs`` and their ``values``.  It may carry
jump discontinuities, stored as two vertices sharing one q: first the
left limit, then the value taken at the point (which equals the right
limit; evaluation is right-continuous at jumps).  Every evaluation takes
one quantile or an array of them.  Revenue curves q * price(q) are built
from ``PriceRuns``, two arrays of run edges and run prices.  The concave
envelope prunes, in whole-array passes, the points that lie on or below
the chord of their neighbours, then runs a monotone chain over the rest;
its vertices are vertices of the curve, so the intervals where the curve
differs from it are read off the curve's own vertices and piece
midpoints, in linear passes.  One construction,
``induced_curve``, applies an ironing plan to price runs: every ironing
chord and reserve plateau, for the true law and for the confidence
curves alike, comes from it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .learner import IroningPlan

__all__ = [
    "PiecewiseLinearCurve",
    "PriceRuns",
    "QuantileIntervalSet",
    "concave_envelope",
    "difference_intervals",
    "argmax_quantile",
    "induced_curve",
    "pointwise_gap",
    "curve_from_price_runs",
    "price_left_of_runs",
]


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True, eq=False)
class PiecewiseLinearCurve:
    """A piecewise-linear function on [0, 1] with optional jumps.

    ``qs`` and ``values`` are read-only float arrays of one length: the
    vertices, with nondecreasing q, first q equal to 0 and last equal to
    1.  At most two vertices may share one q; the pair represents a jump
    as (left limit, right limit).  The evaluation methods take one
    quantile or an array of them and answer in kind.
    """

    qs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        qs, vs = np.array(self.qs, dtype=float), np.array(self.values, dtype=float)
        qs.flags.writeable = vs.flags.writeable = False
        object.__setattr__(self, "qs", qs)
        object.__setattr__(self, "values", vs)
        if qs.ndim != 1 or qs.shape != vs.shape or len(qs) < 2:
            raise ValueError("curve needs at least two vertices, as two 1-D arrays of one length")
        if qs[0] != 0.0 or qs[-1] != 1.0:
            raise ValueError("curve must span q in [0, 1]")
        if not (qs[1:] - qs[:-1]).min() >= 0.0:  # NaN fails too
            raise ValueError("vertex q coordinates must be nondecreasing")
        if not (qs[2:] > qs[:-2]).all():  # q rises over every two steps
            raise ValueError("at most two vertices may share a q")
        if not (vs.min() >= -1e-12 and vs.max() < np.inf):  # NaN fails both
            raise ValueError("curve values must be finite and nonnegative")

    @staticmethod
    def from_vertices(vertices) -> "PiecewiseLinearCurve":
        """Curve through a sequence of (q, value) pairs."""
        arr = np.array(vertices, dtype=float).reshape(-1, 2)
        return PiecewiseLinearCurve(arr[:, 0], arr[:, 1])

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """The (q, value) pairs as floats, built on each access."""
        return tuple(zip(self.qs.tolist(), self.values.tolist()))

    def _limits(self, q):
        """Left and right limits at q, as arrays: where vertices sit at q,
        the first one's value from the left and the last one's from the
        right, else the interpolation on the piece that holds q."""
        q = np.asarray(q, dtype=float)
        qs, vs = self.qs, self.values
        lo = qs.searchsorted(q, side="left")  # first vertex at or above q
        hi = qs.searchsorted(q, side="right") - 1  # last vertex at or below q
        # no vertex lies at or below q < 0, nor at or above q > 1 (or NaN)
        if not (hi.min(initial=0) >= 0 and lo.max(initial=0) < len(qs)):
            raise ValueError(f"q={q} outside [0, 1]")
        j = np.maximum(lo, 1)  # the piece from vertex j - 1 to j holds q where no vertex sits
        k = j - 1
        qk = qs[k]
        dq = qs[j] - qk
        t = (q - qk) / (dq + (dq == 0.0))  # dq is zero only where a vertex sits at q
        inside = vs[k] + t * (vs[j] - vs[k])
        at = lo <= hi  # a vertex sits at q
        return np.where(at, vs[lo], inside), np.where(at, vs[hi], inside)

    def evaluate(self, q):
        """Value at q; at a jump, the right limit."""
        return _float_or_array(self._limits(q)[1])

    def left_value(self, q):
        """Limit from the left at q (the value itself at q=0)."""
        return _float_or_array(self._limits(q)[0])


@dataclass(frozen=True)
class QuantileIntervalSet:
    """Disjoint open quantile intervals, sorted ascending."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev = -1.0
        for a, b in self.intervals:
            if not (0.0 <= a < b <= 1.0):
                raise ValueError(f"bad quantile interval ({a}, {b})")
            if a < prev:
                raise ValueError("quantile intervals must be sorted and disjoint")
            prev = b

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)


@dataclass(frozen=True, eq=False)
class PriceRuns:
    """Contiguous constant-price runs covering the quantiles [0, 1].

    Run i prices the quantiles from ``edges[i]`` to ``edges[i + 1]`` at
    ``prices[i]``; ``edges`` rises from 0 to 1 and has one more entry
    than ``prices``.  A run of zero width still names the price at
    q = 0 when it comes first.
    """

    edges: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        edges, prices = np.asarray(self.edges, dtype=float), np.asarray(self.prices, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "prices", prices)
        if prices.ndim != 1 or edges.shape != (len(prices) + 1,):
            raise ValueError("price runs need one more edge than prices")
        if edges[0] != 0.0 or edges[-1] != 1.0 or (edges[1:] < edges[:-1]).any():
            raise ValueError("price runs must cover [0, 1] in order")

    @staticmethod
    def nonempty(edges: np.ndarray, prices: np.ndarray) -> "PriceRuns":
        """The runs of positive width among contiguous ones."""
        keep = edges[1:] > edges[:-1]
        return PriceRuns(np.concatenate((edges[:-1][keep], edges[-1:])), prices[keep])

    def __len__(self) -> int:
        return len(self.prices)


def curve_from_price_runs(runs: PriceRuns) -> PiecewiseLinearCurve:
    """Build q * price(q) from contiguous constant-price runs on [0, 1].

    Empty runs are dropped and runs with equal prices merged; each price
    change at a boundary q becomes a jump pair (q, q*price_left),
    (q, q*price_right).
    """
    q0, q1, p = runs.edges[:-1], runs.edges[1:], runs.prices
    keep = q1 > q0
    q0, p = q0[keep], p[keep]
    change = (p[1:] != p[:-1]).nonzero()[0] + 1  # runs that open a new price
    b, price = q0[change], p[np.concatenate(([0], change))]  # the merged runs' inner edges and prices
    qs = np.concatenate(([0.0], np.repeat(b, 2), [1.0]))
    values = np.empty_like(qs)
    values[0], values[-1] = 0.0, price[-1]
    values[1:-1:2], values[2:-1:2] = b * price[:-1], b * price[1:]
    return PiecewiseLinearCurve(qs, values)


def price_left_of_runs(runs: PriceRuns, q):
    """Price just below quantile q (or each of an array of them); the
    first run's price at q=0."""
    q = np.asarray(q, dtype=float)
    if (q > runs.edges[-1]).any():
        raise ValueError(f"quantile {q} not covered by runs")
    i = np.searchsorted(runs.edges, q, side="left") - 1  # last run starting below q
    return runs.prices[np.maximum(i, 0)]


def _prune_below_chords(qs: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop, in whole-array passes, every point on or below the chord of
    its two neighbours, by the monotone chain's own test and operand
    order; no such point is a hull vertex.  Passes stop once one removes
    less than a fifth of the points or at most 64 remain."""
    while len(qs) > 64:
        n = len(qs)
        oq, ov, aq, av, q, v = qs[:-2], vs[:-2], qs[1:-1], vs[1:-1], qs[2:], vs[2:]
        below = (aq - oq) * (v - ov) - (av - ov) * (q - oq) >= 0.0
        keep = np.concatenate(([True], ~below, [True]))
        qs, vs = qs[keep], vs[keep]
        if 5 * (n - len(qs)) < n:
            break
    return qs, vs


def concave_envelope(curve: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    """Least concave majorant: the upper hull of the vertex set.

    Jump curves contribute both one-sided limit vertices, so the hull
    majorizes the curve everywhere, including at discontinuities.  On
    large curves, whole-array passes first drop the points on or below
    their neighbours' chord (about half per pass on a sampled revenue
    curve); a monotone chain picks the hull from the rest, so every hull
    vertex is a curve vertex.
    """
    # Collapse each jump pair to its higher vertex (the first one on a
    # tie); the lower one is never on the upper hull.
    qs, vs = curve.qs, curve.values
    pair = qs[1:] == qs[:-1]  # vertex i + 1 sits at vertex i's q
    top = np.concatenate((np.where(pair & (vs[1:] > vs[:-1]), vs[1:], vs[:-1]), vs[-1:]))
    first = np.concatenate(([True], ~pair))
    qs, vs = _prune_below_chords(qs[first], top[first])
    # Monotone chain: pop the last hull point a while it lies on or below
    # the chord from the one before it, o, to the new point.  The hull is
    # the lists sq, sv followed by o and a, which live in locals.
    points = zip(qs.tolist(), vs.tolist())
    (oq, ov), (aq, av) = next(points), next(points)
    sq, sv = [], []
    for q, v in points:
        while (aq - oq) * (v - ov) - (av - ov) * (q - oq) >= 0.0:
            if not sq:
                break  # a is popped and o alone remains
            aq, av, oq, ov = oq, ov, sq.pop(), sv.pop()
        else:
            sq.append(oq)
            sv.append(ov)
            oq, ov = aq, av
        aq, av = q, v
    return PiecewiseLinearCurve(np.array(sq + [oq, aq]), np.array(sv + [ov, av]))


def difference_intervals(curve: PiecewiseLinearCurve, hull: PiecewiseLinearCurve, tol: float) -> QuantileIntervalSet:
    """Maximal open intervals where hull - curve exceeds tol.

    ``hull`` must be ``concave_envelope(curve)``, so that its vertices
    are vertices of the curve.  The grid is then the curve's distinct
    quantiles: the curve's one-sided limits there are its vertex values,
    and at each piece's midpoint its value is interpolated as
    ``evaluate`` does, from the last vertex at the piece's left end to
    the first at its right end.  A breakpoint where the hull touches
    either one-sided limit of the curve splits adjacent gap regions: the
    hull is linear across each returned interval, so ironing by chords
    reproduces it exactly.
    """
    qs, vs = curve.qs, curve.values
    step = qs[1:] != qs[:-1]
    firsts = np.flatnonzero(np.concatenate(([True], step)))  # first vertex at each distinct q
    lasts = np.flatnonzero(np.concatenate((step, [True])))  # last vertex at each distinct q
    grid = qs[firsts]
    left, right = grid[:-1], grid[1:]  # the pieces' ends
    n = len(left)
    # the curve at every piece midpoint: a midpoint that rounds onto the
    # piece's right end takes the value there, its right limit
    mid = 0.5 * (left + right)
    k, j = lasts[:-1], firsts[1:]
    t = (mid - left) / (right - left)
    curve_mid = np.where(mid == right, vs[lasts[1:]], vs[k] + t * (vs[j] - vs[k]))
    # the hull at every piece midpoint, then at every inner grid point
    hull_at = hull._limits(np.concatenate((mid, grid[1:-1])))[1]
    differs = hull_at[:n] - curve_mid > tol
    # a differing piece extends the interval of the one before it unless
    # the hull touches a one-sided limit of the curve where they meet
    hull_inner = hull_at[n:]
    joins = (
        differs[:-1]
        & differs[1:]
        & (hull_inner - vs[lasts[1:-1]] > tol)
        & (hull_inner - vs[firsts[1:-1]] > tol)
    )
    apart = ~np.concatenate(([False], joins, [False]))  # piece boundaries no interval spans
    lo = left[differs & apart[:-1]]
    hi = right[differs & apart[1:]]
    return QuantileIntervalSet(tuple(zip(lo.tolist(), hi.tolist())))


def argmax_quantile(curve: PiecewiseLinearCurve) -> float:
    """Smallest q whose vertex attains the maximum value."""
    return float(curve.qs[np.argmax(curve.values)])


def induced_curve(runs: PriceRuns, plan: IroningPlan) -> PiecewiseLinearCurve:
    """The revenue curve of ``runs`` as the auction of ``plan`` induces it.

    Adjacent runs of one price are merged first; an empty run is kept,
    since it still names its point.  A bid's rank key changes only at the
    reserve, at interval endpoints and at unironed prices at or above the
    reserve; each such price x sits at its posted-price point (q, x * q),
    where q is the right edge of the last run priced at least x.  Walking
    down in price from (0, 0): an unironed price adds its exact run; an
    interval [lo, hi) the chord from hi's point to lo's; the reserve r its
    point and then (1, r * q).  Of three or more vertices at one q only
    the first (the left limit) and the last (the value) enter any
    integral, so only they are kept.  Runs whose prices rise are refused.
    """
    # the merged runs, lowest price first: vals[j] prices the run from tails[j + 1] to tails[j]
    vals, tails = [], []
    for p, q in zip(runs.prices[::-1].tolist(), runs.edges[:0:-1].tolist()):
        if vals and p <= vals[-1]:
            if p < vals[-1]:
                raise ValueError("run prices must be nonincreasing")
            continue
        vals.append(p)
        tails.append(q)
    tails.append(0.0)

    def point(x: float) -> tuple[float, float]:
        t = tails[bisect_left(vals, x)]
        return t, x * t

    # v is unironed when it lies at or above the end of the last interval
    # that starts at or below it; a sentinel interval lies below every price
    starts = [-np.inf, *(lo for lo, _ in plan.intervals)]
    ends = [-np.inf, *(hi for _, hi in plan.intervals)]
    regions = [(lo, point(hi), point(lo)) for lo, hi in plan.intervals]
    regions += [
        (v, (tails[j + 1], v * tails[j + 1]), (tails[j], v * tails[j]))
        for j, v in enumerate(vals)
        if v >= plan.reserve and v >= ends[bisect_right(starts, v) - 1]
    ]
    regions.sort(reverse=True)  # the lowest prices v and lo are distinct
    tail_r, rev_r = point(plan.reserve)
    verts = [(0.0, 0.0), *(p for _, upper, lower in regions for p in (upper, lower)), (tail_r, rev_r), (1.0, rev_r)]
    inner = zip(verts, verts[1:], verts[2:])
    keep = [verts[0], *(b for a, b, c in inner if not a[0] == b[0] == c[0]), verts[-1]]
    return PiecewiseLinearCurve.from_vertices(keep)


def pointwise_gap(a: PiecewiseLinearCurve, b: PiecewiseLinearCurve) -> float:
    """sup of a - b over [0, 1], probing both one-sided limits."""
    grid = np.union1d(a.qs, b.qs)
    return float(max(np.max(a.evaluate(grid) - b.evaluate(grid)), np.max(a.left_value(grid) - b.left_value(grid))))
