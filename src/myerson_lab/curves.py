"""Piecewise-linear curve arithmetic in quantile space.

A curve lives on the quantile domain [0, 1] and is stored as two float
arrays, the vertex quantiles ``qs`` and their ``values``.  It may carry
jump discontinuities, stored as two vertices sharing one q: first the
left limit, then the value taken at the point (which equals the right
limit; evaluation is right-continuous at jumps).  Every evaluation takes
one quantile or an array of them.  Revenue curves q * price(q) are built
from ``PriceRuns``, two arrays of run edges and run prices.  The concave
envelope, the intervals where a curve differs from its envelope, and the
chord/plateau construction used for ironing and reserve prices all
operate on this representation, in a sort plus linear passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "PiecewiseLinearCurve",
    "PriceRuns",
    "QuantileIntervalSet",
    "concave_envelope",
    "difference_intervals",
    "argmax_quantile",
    "induce_curve",
    "optimal_induced",
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
        dq = qs[1:] - qs[:-1]
        if (dq < 0.0).any():
            raise ValueError("vertex q coordinates must be nondecreasing")
        if ((dq[1:] == 0.0) & (dq[:-1] == 0.0)).any():
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

    def _at(self, q, side: str):
        """Vertex i's value where it sits at q, else the interpolation on
        the piece from vertex k to k + 1 that holds q."""
        q = np.asarray(q, dtype=float)
        if not ((q >= 0.0) & (q <= 1.0)).all():
            raise ValueError(f"q={q} outside [0, 1]")
        qs, vs = self.qs, self.values
        if side == "right":
            i = k = np.searchsorted(qs, q, side="right") - 1  # last vertex with q_v <= q
        else:
            i = np.searchsorted(qs, q, side="left")  # first vertex with q_v >= q
            k = np.maximum(i - 1, 0)
        k = np.minimum(k, len(qs) - 2)
        dq = qs[k + 1] - qs[k]  # zero only where vertex i sits at q
        t = (q - qs[k]) / np.where(dq > 0.0, dq, 1.0)
        return _float_or_array(np.where(qs[i] == q, vs[i], vs[k] + t * (vs[k + 1] - vs[k])))

    def evaluate(self, q):
        """Value at q; at a jump, the right limit."""
        return self._at(q, "right")

    def left_value(self, q):
        """Limit from the left at q (the value itself at q=0)."""
        return self._at(q, "left")

    def upper_value(self, q):
        """max of the one-sided limits at q (the attained sup there)."""
        left, right = self.left_value(q), self.evaluate(q)
        return _float_or_array(np.where(right > left, right, left))


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
    change = np.flatnonzero(p[1:] != p[:-1]) + 1  # runs that open a new price
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


def concave_envelope(curve: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    """Least concave majorant: the upper hull of the vertex set.

    Jump curves contribute both one-sided limit vertices, so the hull
    majorizes the curve everywhere, including at discontinuities.
    """
    # Collapse each jump pair to its higher vertex (the first one on a
    # tie); the lower one is never on the upper hull.
    qs, vs = curve.qs, curve.values.copy()
    dup = np.flatnonzero(qs[1:] == qs[:-1])
    vs[dup] = np.where(vs[dup + 1] > vs[dup], vs[dup + 1], vs[dup])
    keep = np.ones(len(qs), dtype=bool)
    keep[dup + 1] = False
    # Monotone chain: pop the last hull point a while it lies on or below
    # the chord from the one before it, o, to the new point.  The hull is
    # the lists sq, sv followed by o and a, which live in locals.
    points = zip(qs[keep].tolist(), vs[keep].tolist())
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


def _default_tol(hull: PiecewiseLinearCurve) -> float:
    scale = float(hull.values.max())
    return 1e-9 * (scale if scale > 0.0 else 1.0)


def difference_intervals(
    curve: PiecewiseLinearCurve,
    hull: PiecewiseLinearCurve,
    tol: float | None = None,
) -> QuantileIntervalSet:
    """Maximal open intervals where hull - curve exceeds tol.

    A breakpoint where the hull touches either one-sided limit of the
    curve splits adjacent gap regions: the hull is linear across each
    returned interval, so ironing by chords reproduces it exactly.
    """
    if tol is None:
        tol = _default_tol(hull)
    grid = np.unique(np.concatenate((curve.qs, hull.qs)))
    inner = grid[1:-1]
    n = len(grid) - 1
    # hull and curve at every piece midpoint, then at every inner grid point
    probe = np.concatenate((0.5 * (grid[:-1] + grid[1:]), inner))
    hull_at = hull.evaluate(probe)
    above = hull_at - curve.evaluate(probe) > tol
    differs = above[:n]
    # a differing piece extends the interval of the one before it unless
    # the hull touches a one-sided limit of the curve where they meet
    joins = differs[:-1] & differs[1:] & above[n:] & (hull_at[n:] - curve.left_value(inner) > tol)
    lo = grid[:-1][differs & ~np.concatenate(([False], joins))]
    hi = grid[1:][differs & ~np.concatenate((joins, [False]))]
    return QuantileIntervalSet(tuple(zip(lo.tolist(), hi.tolist())))


def argmax_quantile(curve: PiecewiseLinearCurve) -> float:
    """Smallest q whose vertex attains the maximum value."""
    return float(curve.qs[np.argmax(curve.values)])


def induce_curve(
    curve: PiecewiseLinearCurve,
    quantile_ironing: QuantileIntervalSet | Sequence[tuple[float, float]],
    reserve_q: float,
) -> PiecewiseLinearCurve:
    """Apply ironing chords and a reserve plateau to a curve.

    Inside each ironing interval (a, b) the curve is replaced by the
    chord between its attained sups at a and b; above ``reserve_q`` it is
    constant at the attained sup there.
    """
    if not 0.0 <= reserve_q <= 1.0:
        raise ValueError("reserve_q outside [0, 1]")
    intervals = list(quantile_ironing)
    verts: list[tuple[float, float]] = []

    def emit(q: float, v: float) -> None:
        if verts and verts[-1] == (q, v):
            return
        if len(verts) >= 2 and verts[-1][0] == q and verts[-2][0] == q:
            verts[-1] = (q, v)
            return
        verts.append((q, v))

    pos = 0.0
    src = list(curve.vertices)
    i = 0
    for a, b in intervals:
        # copy source vertices strictly before a
        while i < len(src) and src[i][0] < a:
            if src[i][0] >= pos:
                emit(*src[i])
            i += 1
        emit(a, curve.upper_value(a))
        emit(b, curve.upper_value(b))
        right = curve.evaluate(b)
        if right != curve.upper_value(b):
            emit(b, right)
        while i < len(src) and src[i][0] <= b:
            i += 1
        pos = b
    while i < len(src):
        if src[i][0] >= pos:
            emit(*src[i])
        i += 1
    ironed = PiecewiseLinearCurve.from_vertices(verts)
    if reserve_q >= 1.0:
        return ironed
    plateau = ironed.upper_value(reserve_q)
    out: list[tuple[float, float]] = [v for v in ironed.vertices if v[0] < reserve_q]
    out.append((reserve_q, plateau))
    out.append((1.0, plateau))
    if out[0][0] != 0.0:
        out.insert(0, (0.0, ironed.evaluate(0.0)))
    return PiecewiseLinearCurve.from_vertices(out)


def optimal_induced(curve: PiecewiseLinearCurve, tol: float | None = None) -> PiecewiseLinearCurve:
    """Optimally ironed and reserved version of a curve.

    Equals the concave envelope up to its argmax, then a plateau.
    """
    hull = concave_envelope(curve)
    gaps = difference_intervals(curve, hull, tol)
    return induce_curve(curve, gaps, argmax_quantile(curve))


def pointwise_gap(a: PiecewiseLinearCurve, b: PiecewiseLinearCurve) -> float:
    """sup of a - b over [0, 1], probing both one-sided limits."""
    grid = np.union1d(a.qs, b.qs)
    return float(max(np.max(a.evaluate(grid) - b.evaluate(grid)), np.max(a.left_value(grid) - b.left_value(grid))))
