"""Piecewise-linear curve arithmetic in quantile space.

Curves live on the quantile domain [0, 1] and may carry jump
discontinuities, stored as two vertices sharing one q: first the left
limit, then the value taken at the point (which equals the right limit;
evaluation is right-continuous at jumps).  The concave envelope, the
intervals where a curve differs from its envelope, and the chord/plateau
construction used for ironing and reserve prices all operate on this
representation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PiecewiseLinearCurve",
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


@dataclass(frozen=True)
class PiecewiseLinearCurve:
    """A piecewise-linear function on [0, 1] with optional jumps.

    ``vertices`` is a sequence of (q, value) pairs with nondecreasing q,
    first q equal to 0 and last equal to 1.  At most two vertices may
    share one q; the pair represents a jump as (left limit, right limit).
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        vs = self.vertices
        if len(vs) < 2:
            raise ValueError("curve needs at least two vertices")
        if vs[0][0] != 0.0 or vs[-1][0] != 1.0:
            raise ValueError("curve must span q in [0, 1]")
        run = 1
        for (q0, _), (q1, _) in zip(vs, vs[1:]):
            if q1 < q0:
                raise ValueError("vertex q coordinates must be nondecreasing")
            run = run + 1 if q1 == q0 else 1
            if run > 2:
                raise ValueError("at most two vertices may share a q")
        for _, v in vs:
            if not math.isfinite(v) or v < -1e-12:
                raise ValueError("curve values must be finite and nonnegative")

    @property
    def qs(self) -> tuple[float, ...]:
        return tuple(q for q, _ in self.vertices)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.vertices)

    def evaluate(self, q: float) -> float:
        """Value at q; at a jump, the right limit."""
        if q < 0.0 or q > 1.0:
            raise ValueError(f"q={q} outside [0, 1]")
        qs = self.qs
        i = bisect_right(qs, q) - 1  # last vertex with q_v <= q
        qi, vi = self.vertices[i]
        if qi == q or i == len(qs) - 1:
            return vi
        qj, vj = self.vertices[i + 1]
        t = (q - qi) / (qj - qi)
        return vi + t * (vj - vi)

    def evaluate_many(self, qs: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`evaluate` over an array of quantiles."""
        q = np.asarray(qs, dtype=float)
        if np.any(q < 0.0) or np.any(q > 1.0):
            raise ValueError("quantiles outside [0, 1]")
        vq = np.array(self.qs)
        vv = np.array(self.values)
        idx = np.searchsorted(vq, q, side="right") - 1
        idx = np.clip(idx, 0, len(vq) - 1)
        out = np.empty_like(q)
        exact = (vq[idx] == q) | (idx == len(vq) - 1)
        out[exact] = vv[idx[exact]]
        rest = ~exact
        if np.any(rest):
            i = idx[rest]
            t = (q[rest] - vq[i]) / (vq[i + 1] - vq[i])
            out[rest] = vv[i] + t * (vv[i + 1] - vv[i])
        return out

    def left_value(self, q: float) -> float:
        """Limit from the left at q (the value itself at q=0)."""
        if q < 0.0 or q > 1.0:
            raise ValueError(f"q={q} outside [0, 1]")
        qs = self.qs
        i = bisect_left(qs, q)  # first vertex with q_v >= q
        if i < len(qs) and qs[i] == q:
            return self.vertices[i][1]
        qi, vi = self.vertices[i - 1]
        qj, vj = self.vertices[i]
        t = (q - qi) / (qj - qi)
        return vi + t * (vj - vi)

    def upper_value(self, q: float) -> float:
        """max of the one-sided limits at q (the attained sup there)."""
        return max(self.left_value(q), self.evaluate(q))

    def max_value(self) -> float:
        return max(self.values)

    def segments(self) -> Iterable[tuple[float, float, float, float]]:
        """Yield (q0, v0, q1, v1) for each nondegenerate linear piece."""
        for (q0, v0), (q1, v1) in zip(self.vertices, self.vertices[1:]):
            if q1 > q0:
                yield q0, v0, q1, v1

    def breakpoints(self) -> list[float]:
        out: list[float] = []
        for q in self.qs:
            if not out or q != out[-1]:
                out.append(q)
        return out

    def almost_equal(self, other: "PiecewiseLinearCurve", tol: float = 1e-12) -> bool:
        grid = sorted(set(self.breakpoints()) | set(other.breakpoints()))
        for q in grid:
            if abs(self.evaluate(q) - other.evaluate(q)) > tol:
                return False
            if abs(self.left_value(q) - other.left_value(q)) > tol:
                return False
        return True


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


def curve_from_price_runs(runs: Sequence[tuple[float, float, float]]) -> PiecewiseLinearCurve:
    """Build q * price(q) from contiguous constant-price runs on [0, 1].

    ``runs`` is a list of (q_start, q_end, price) covering [0, 1] in
    order.   Runs with equal prices are merged; each price change at a
    shared boundary q becomes a jump pair (q, q*price_left), (q, q*price_right).
    """
    merged: list[list[float]] = []
    for q0, q1, p in runs:
        if q1 <= q0:
            continue
        if merged and merged[-1][2] == p:
            merged[-1][1] = q1
        else:
            merged.append([q0, q1, p])
    if not merged or merged[0][0] != 0.0 or merged[-1][1] != 1.0:
        raise ValueError("price runs must cover [0, 1]")
    verts: list[tuple[float, float]] = [(0.0, 0.0)]
    for i, (q0, q1, p) in enumerate(merged):
        if q0 > 0.0:
            verts.append((q0, q0 * p))
        if i + 1 < len(merged):
            verts.append((q1, q1 * p))  # left limit; next run opens the jump
        else:
            verts.append((1.0, p))
    return PiecewiseLinearCurve(tuple(verts))


def price_left_of_runs(runs: Sequence[tuple[float, float, float]], q: float) -> float:
    """Price just below quantile q in a run list (run price at q=0)."""
    if q <= runs[0][0]:
        return runs[0][2]
    for q0, q1, p in runs:
        if q0 < q <= q1:
            return p
    raise ValueError(f"quantile {q} not covered by runs")


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def concave_envelope(curve: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    """Least concave majorant: the upper hull of the vertex set.

    Jump curves contribute both one-sided limit vertices, so the hull
    majorizes the curve everywhere, including at discontinuities.
    """
    # Collapse duplicate-q vertices to their max; the lower one is never
    # on the upper hull.
    pts: list[tuple[float, float]] = []
    for q, v in curve.vertices:
        if pts and pts[-1][0] == q:
            if v > pts[-1][1]:
                pts[-1] = (q, v)
        else:
            pts.append((q, v))
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0.0:
            hull.pop()
        hull.append(p)
    return PiecewiseLinearCurve(tuple(hull))


def _default_tol(hull: PiecewiseLinearCurve) -> float:
    scale = hull.max_value()
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
    grid = sorted(set(curve.breakpoints()) | set(hull.breakpoints()))
    pieces: list[tuple[float, float]] = []  # differing elementary pieces
    for q0, q1 in zip(grid, grid[1:]):
        mid = 0.5 * (q0 + q1)
        if hull.evaluate(mid) - curve.evaluate(mid) > tol:
            pieces.append((q0, q1))
    out: list[tuple[float, float]] = []
    for a, b in pieces:
        if out and out[-1][1] == a and hull.evaluate(a) - curve.upper_value(a) > tol:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return QuantileIntervalSet(tuple(out))


def argmax_quantile(curve: PiecewiseLinearCurve) -> float:
    """Smallest q whose vertex attains the maximum value."""
    best_q, best_v = curve.vertices[0]
    for q, v in curve.vertices[1:]:
        if v > best_v:
            best_q, best_v = q, v
    return best_q


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
    ironed = PiecewiseLinearCurve(tuple(verts))
    if reserve_q >= 1.0:
        return ironed
    plateau = ironed.upper_value(reserve_q)
    out: list[tuple[float, float]] = [v for v in ironed.vertices if v[0] < reserve_q]
    if not out:
        out = []
    out.append((reserve_q, plateau))
    out.append((1.0, plateau))
    if out[0][0] != 0.0:
        out.insert(0, (0.0, ironed.evaluate(0.0)))
    return PiecewiseLinearCurve(tuple(out))


def optimal_induced(curve: PiecewiseLinearCurve, tol: float | None = None) -> PiecewiseLinearCurve:
    """Optimally ironed and reserved version of a curve.

    Equals the concave envelope up to its argmax, then a plateau.
    """
    hull = concave_envelope(curve)
    gaps = difference_intervals(curve, hull, tol)
    return induce_curve(curve, gaps, argmax_quantile(curve))


def pointwise_gap(a: PiecewiseLinearCurve, b: PiecewiseLinearCurve) -> float:
    """sup of a - b over [0, 1], probing both one-sided limits."""
    grid = sorted(set(a.breakpoints()) | set(b.breakpoints()))
    gap = -math.inf
    for q in grid:
        gap = max(gap, a.evaluate(q) - b.evaluate(q), a.left_value(q) - b.left_value(q))
    return gap
