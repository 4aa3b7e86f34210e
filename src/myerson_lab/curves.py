"""Piecewise-linear curve arithmetic in quantile space.

A curve lives on the quantile domain [0, 1] and is stored as two float
arrays, the vertex quantiles ``qs`` and their ``values``.  It may carry
jump discontinuities, stored as two vertices sharing one q: first the
left limit, then the value taken at the point (which equals the right
limit; evaluation is right-continuous at jumps).  Every evaluation takes
one quantile or an array of them.  Revenue curves q * price(q) come from
``PriceRuns``, two arrays of run edges and run prices; on the merged
runs' edges the curve's one-sided limits are the edge times the prices
either side, and it is linear in between.  The concave envelope prunes,
in whole-array passes, the points on or below the chord of their
neighbours, then runs a monotone chain over the rest; the gap scan reads
each grid piece's hull segment off a count of hull vertices.  The
learner runs the same passes over all rows of a price-run grid at once,
the chain only on the rows they leave unsettled, and the same scan once
over all rows' grids laid end to end.  One
construction, ``induced_curve``, applies an ironing plan to price runs:
every ironing chord and reserve plateau comes from it.
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


def _run_grid(edges: np.ndarray, keep: np.ndarray, prices: np.ndarray, first) -> tuple[np.ndarray, ...]:
    """The grid of q * price(q) on rows of contiguous runs on [0, 1] that
    share their prices and which of them are empty.

    Each row of ``edges`` holds the runs' edges; ``keep`` marks the runs
    of positive width.  Runs of one price are merged once empty ones are
    dropped, and each row's grid is 0, its inner edges and 1.  The prices
    just below each grid point (``first`` at q = 0) and just above it (the
    last run's at q = 1) are shared by the rows."""
    price = prices[keep]
    opens = keep.nonzero()[0][np.concatenate(([True], price[1:] != price[:-1]))]  # runs that open a new price
    price = prices[opens]
    qs = np.concatenate((edges[:, opens], np.ones((len(edges), 1))), axis=1)
    return qs, np.concatenate(([first], price)), np.concatenate((price, price[-1:]))


def _price_run_grid(runs: PriceRuns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one-row ``_run_grid`` of ``runs``; the price at q = 0 is the
    first run's, which a first run of zero width still names."""
    return _run_grid(runs.edges[None], runs.edges[1:] > runs.edges[:-1], runs.prices, runs.prices[0])


def curve_from_price_runs(runs: PriceRuns) -> PiecewiseLinearCurve:
    """Build q * price(q) from contiguous constant-price runs on [0, 1].

    Empty runs are dropped and runs with equal prices merged; each price
    change at a boundary q becomes a jump pair (q, q*price_left),
    (q, q*price_right).
    """
    (qs,), left, right = _price_run_grid(runs)
    return PiecewiseLinearCurve(np.repeat(qs, 2)[1:-1], np.stack((qs * left, qs * right), 1).reshape(-1)[1:-1])


def price_left_of_runs(runs: PriceRuns, q):
    """Price just below quantile q (or each of an array of them); the
    first run's price at q=0."""
    q = np.asarray(q, dtype=float)
    if (q > runs.edges[-1]).any():
        raise ValueError(f"quantile {q} not covered by runs")
    i = np.searchsorted(runs.edges, q, side="left") - 1  # last run starting below q
    return runs.prices[np.maximum(i, 0)]


def _hull_indices(qs: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Positions of the upper hull's vertices among two or more points
    whose qs rise strictly, by a monotone chain.

    The chain pops the last hull point a while it lies on or below the
    chord from the one before it, o, to the new point.  The hull is the
    list sq followed by o and a.  ``_prune_below_chords`` runs it only on
    the rows its passes leave unsettled.
    """
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
    return qs.searchsorted(sq + [oq, aq])


def _prune_below_chords(qs: np.ndarray, vs: np.ndarray, tops=None) -> np.ndarray:
    """Positions of the upper hulls' vertices of the rows of ``qs`` and
    ``vs``, each row being its points from position 0 up to its entry in
    ``tops`` (or all of a 1-D lone row), with qs that rise strictly.  The
    positions count along the rows laid end to end, and ascend.

    Each whole-array pass covers every row at once and drops each point on
    or below the chord of its two live neighbours in its row, by the
    monotone chain's own test and operand order; no such point is a hull
    vertex, and a row's ends are never tested.  A row is settled once a
    pass drops none of its points: its live points are then its hull, and
    later passes skip it.  Passes run while the unsettled rows hold more
    than 64 points, and stop after one that drops under a fifth of them;
    then the chain, ``_hull_indices``, finishes each row still unsettled.
    """
    if tops is None or len(tops) == 1:  # a lone row needs no row labels: positions are its qs' ranks
        qs, vs = (qs, vs) if tops is None else (qs[0, : tops[0] + 1], vs[0, : tops[0] + 1])
        q, v, at, row = qs, vs, None, None
    else:
        g = qs.shape[1]
        at = (np.arange(g) <= tops[:, None]).ravel().nonzero()[0]  # the unsettled rows' live points
        q, v, row = qs.ravel()[at], vs.ravel()[at], at // g
    settled = []  # the live points of each row as it settles
    while len(q) > 64:
        n = len(q)
        oq, ov, aq, av, nq, nv = q[:-2], v[:-2], q[1:-1], v[1:-1], q[2:], v[2:]
        below = (aq - oq) * (nv - ov) - (av - ov) * (nq - oq) >= 0.0
        if row is not None:
            below &= row[:-2] == row[2:]  # test only the triples inside one row
        drops = np.count_nonzero(below)
        if row is None and not drops:
            return qs.searchsorted(q)  # the lone row is settled
        keep = np.concatenate(([True], ~below, [True]))
        if row is not None:
            hit = np.zeros(row[-1] + 1, dtype=bool)
            hit[row[1:-1][below]] = True
            unsettled = hit[row]  # the points of the rows this pass dropped from
            settled.append(at[~unsettled])
            keep &= unsettled
            at, row = at[keep], row[keep]
        q, v = q[keep], v[keep]
        if 5 * drops < n:
            break
    if row is None:
        return qs.searchsorted(q[_hull_indices(q, v)])
    cuts = np.concatenate(([0], (row[1:] != row[:-1]).nonzero()[0] + 1, [len(row)])).tolist()
    settled += [at[a:b][_hull_indices(q[a:b], v[a:b])] for a, b in zip(cuts[:-1], cuts[1:]) if a < b]
    return np.sort(np.concatenate(settled))


def _curve_grid(curve: PiecewiseLinearCurve) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The curve's distinct quantiles, with its left and right limits there."""
    qs, vs = curve.qs, curve.values
    step = qs[1:] != qs[:-1]
    firsts = np.flatnonzero(np.concatenate(([True], step)))  # first vertex at each distinct q
    lasts = np.flatnonzero(np.concatenate((step, [True])))  # last vertex at each distinct q
    return qs[firsts], vs[firsts], vs[lasts]


def concave_envelope(curve: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    """Least concave majorant: the upper hull of the vertex set.

    Jump curves contribute the higher of their one-sided limits, so the
    hull majorizes the curve everywhere, including at discontinuities;
    the learner's chain picks it, so every hull vertex is a curve vertex.
    """
    qs, left, right = _curve_grid(curve)
    top = np.maximum(left, right)
    hull = _prune_below_chords(qs, top)
    return PiecewiseLinearCurve(qs[hull], top[hull])


def _gap_ends(qs, left, right, hull, hv, tol: float, live=None) -> tuple[np.ndarray, np.ndarray]:
    """Grid positions where the maximal open intervals with hull - curve
    above tol start and end.

    The curve's left and right limits at grid point i are ``left[i]``
    and ``right[i]``, and it is linear between grid points.  The hull has
    its vertices at the grid positions ``hull``, with values ``hv``, so
    the pieces under each hull segment are counted off, with no search.
    Both are compared at every piece's midpoint, the curve interpolated
    as ``evaluate`` does; a midpoint that rounds onto the piece's right
    end takes the right limit there.  A breakpoint where the hull touches
    either one-sided limit of the curve splits adjacent gap pieces: the
    hull is linear across each interval, so ironing by chords reproduces
    it exactly.

    The arrays may also hold several rows' grids one after another, each
    starting at q = 0, with the arrays ending at the last row's last hull
    vertex.  ``live`` then marks the pieces up to each row's last hull
    vertex; no interval holds any other piece.  Those lie under one
    segment from that vertex, above q = 0, to the next row's first point,
    so no piece divides by zero.
    """
    width = hull[1:] - hull[:-1]  # the grid pieces under each hull segment
    hq = qs[hull]
    q0, v0 = hq[:-1].repeat(width), hv[:-1].repeat(width)
    dq, dv = (hq[1:] - hq[:-1]).repeat(width), (hv[1:] - hv[:-1]).repeat(width)
    lo, hi = qs[:-1], qs[1:]  # the pieces' ends
    hull_at = np.concatenate((v0 + (lo - q0) / dq * dv, hv[-1:]))  # at every grid point, exact at hull vertices
    mid = 0.5 * (lo + hi)
    onto = mid == hi
    curve_mid = np.where(onto, right[1:], right[:-1] + (mid - lo) / (hi - lo) * (left[1:] - right[:-1]))
    differs = np.where(onto, hull_at[1:], v0 + (mid - q0) / dq * dv) - curve_mid > tol
    if live is not None:
        differs &= live
    # a differing piece extends the interval of the one before it unless
    # the hull touches a one-sided limit of the curve where they meet
    inner = hull_at[1:-1]
    joins = differs[:-1] & differs[1:] & (inner - right[1:-1] > tol) & (inner - left[1:-1] > tol)
    apart = ~np.concatenate(([False], joins, [False]))  # piece boundaries no interval spans
    return (differs & apart[:-1]).nonzero()[0], (differs & apart[1:]).nonzero()[0] + 1


def difference_intervals(curve: PiecewiseLinearCurve, hull: PiecewiseLinearCurve, tol: float) -> tuple:
    """Maximal open intervals, as sorted (a, b) pairs, where hull - curve
    exceeds tol; ``hull`` must be ``concave_envelope(curve)``, so that
    its vertices sit on the curve's grid."""
    qs, left, right = _curve_grid(curve)
    starts, ends = _gap_ends(qs, left, right, qs.searchsorted(hull.qs), hull.values, tol)
    return tuple(zip(qs[starts].tolist(), qs[ends].tolist()))


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
