"""Reference helpers the tests check the package against.

They are plain, slow, scalar restatements of what the package computes
with arrays, plus greedy selection on a matroid, the brute force that
``Environment.blocks`` is checked against, and the k-unit interim
allocation with its integral and derivative, the k-by-k form of the
Bernstein mixture that revenue quadrature evaluates per block.  They live here because
nothing in the package calls them.
"""

import math
from bisect import bisect_left, bisect_right
from functools import lru_cache

import numpy as np

from myerson_lab.curves import PiecewiseLinearCurve, PriceRuns
from myerson_lab.environments import is_independent


def eval_quantile(eq, x: float) -> float:
    """Order-statistic quantile estimate at x, with boundary clamps."""
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return eq.h_max
    k = max(1, math.ceil(x * eq.m))
    return float(eq.sorted_samples[k - 1])


def scalar_evaluate(curve: PiecewiseLinearCurve, q: float) -> float:
    """Value at q by bisection over the vertex list; the right limit at a jump."""
    verts = curve.vertices
    qs = [qv for qv, _ in verts]
    i = bisect_right(qs, q) - 1
    qi, vi = verts[i]
    if qi == q or i == len(qs) - 1:
        return vi
    qj, vj = verts[i + 1]
    return vi + (q - qi) / (qj - qi) * (vj - vi)


def scalar_left_value(curve: PiecewiseLinearCurve, q: float) -> float:
    """Limit from the left at q by bisection over the vertex list."""
    verts = curve.vertices
    qs = [qv for qv, _ in verts]
    i = bisect_left(qs, q)
    if i < len(qs) and qs[i] == q:
        return verts[i][1]
    qi, vi = verts[i - 1]
    qj, vj = verts[i]
    return vi + (q - qi) / (qj - qi) * (vj - vi)


def almost_equal(a: PiecewiseLinearCurve, b: PiecewiseLinearCurve, tol: float = 1e-12) -> bool:
    """Both one-sided limits agree within tol at every breakpoint of either curve."""
    grid = sorted(set(a.qs.tolist()) | set(b.qs.tolist()))
    for q in grid:
        if abs(a.evaluate(q) - b.evaluate(q)) > tol:
            return False
        if abs(a.left_value(q) - b.left_value(q)) > tol:
            return False
    return True


def runs_from_tuples(runs) -> PriceRuns:
    """PriceRuns from contiguous (q_start, q_end, price) triples."""
    return PriceRuns(np.array([q0 for q0, _, _ in runs] + [runs[-1][1]]), np.array([p for _, _, p in runs]))


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_vertices(curve: PiecewiseLinearCurve) -> tuple:
    """Upper hull by a monotone chain over the vertex list, after
    collapsing each jump pair to its higher vertex (the first on a tie)."""
    pts = []
    for q, v in curve.vertices:
        if pts and pts[-1][0] == q:
            if v > pts[-1][1]:
                pts[-1] = (q, v)
        else:
            pts.append((q, v))
    hull = []
    for p in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0.0:
            hull.pop()
        hull.append(p)
    return tuple(hull)


def gap_intervals(curve: PiecewiseLinearCurve, hull: PiecewiseLinearCurve, tol: float) -> tuple:
    """Where hull - curve exceeds tol, found one grid piece at a time:
    pieces that meet where the hull stays above both one-sided limits of
    the curve join into one interval."""
    grid = sorted(set(curve.qs.tolist()) | set(hull.qs.tolist()))
    pieces = []
    for q0, q1 in zip(grid, grid[1:]):
        mid = 0.5 * (q0 + q1)
        if scalar_evaluate(hull, mid) - scalar_evaluate(curve, mid) > tol:
            pieces.append((q0, q1))
    out = []
    for a, b in pieces:
        upper = max(scalar_left_value(curve, a), scalar_evaluate(curve, a))
        if out and out[-1][1] == a and scalar_evaluate(hull, a) - upper > tol:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return tuple(out)


def _order_stat_blocks(sorted_samples) -> list:
    """(i_lo, i_hi, value) blocks of equal consecutive order statistics, 1-based."""
    xs = [float(x) for x in sorted_samples]
    blocks, start = [], 0
    for i in range(1, len(xs) + 1):
        if i == len(xs) or xs[i] != xs[start]:
            blocks.append((start + 1, i, xs[start]))
            start = i
    return blocks


def min_price_triples(eq, epsilon: float) -> list:
    """(q0, q1, price) runs of q -> quantile_estimate(1 - q - epsilon), one block at a time."""
    m, runs = eq.m, []
    for i_lo, i_hi, value in reversed(_order_stat_blocks(eq.sorted_samples)):
        q0 = max(0.0, 1.0 - epsilon - i_hi / m)
        q1 = min(1.0, max(0.0, 1.0 - epsilon - (i_lo - 1) / m))
        if q1 > q0:
            runs.append((q0, q1, value))
    if 1.0 - epsilon < 1.0:
        runs.append((max(0.0, 1.0 - epsilon), 1.0, 0.0))
    return runs


def max_price_triples(eq, epsilon: float) -> list:
    """(q0, q1, price) runs of q -> quantile_estimate(1 - q + epsilon + 1/m), one block at a time."""
    m = eq.m
    c = epsilon + 1.0 / m
    runs = [(0.0, min(1.0, c), eq.h_max)]
    for i_lo, i_hi, value in reversed(_order_stat_blocks(eq.sorted_samples)):
        q0 = max(0.0, min(1.0, c + (m - i_hi) / m))
        q1 = min(1.0, c + (m - (i_lo - 1)) / m)
        if q1 > q0:
            runs.append((q0, q1, value))
    return runs


def curve_vertices_from_triples(runs) -> tuple:
    """Vertices of q * price(q): empty runs dropped, equal prices merged,
    a jump pair at each price change."""
    merged = []
    for q0, q1, p in runs:
        if q1 <= q0:
            continue
        if merged and merged[-1][2] == p:
            merged[-1][1] = q1
        else:
            merged.append([q0, q1, p])
    verts = [(0.0, 0.0)]
    for i, (q0, q1, p) in enumerate(merged):
        if q0 > 0.0:
            verts.append((q0, q0 * p))
        verts.append((q1, q1 * p) if i + 1 < len(merged) else (1.0, p))
    return tuple(verts)


def price_left_of_triples(runs, q: float) -> float:
    """Price just below quantile q, by a scan of the runs (the first run's price at q=0)."""
    if q <= runs[0][0]:
        return runs[0][2]
    for q0, q1, p in runs:
        if q0 < q <= q1:
            return p
    raise ValueError(f"quantile {q} not covered by runs")


def triples(runs: PriceRuns) -> list:
    edges, prices = runs.edges.tolist(), runs.prices.tolist()
    return list(zip(edges, edges[1:], prices))


def discrete_price_triples(dist) -> list:
    """(q0, q1, price) runs of a discrete law, highest value first; a
    zero-probability atom keeps its empty run."""
    from myerson_lab.distributions import _discrete_tails

    tails, vals = _discrete_tails(dist), [v for v, _ in dist.atoms]
    runs, prev = [], 0.0
    for j in range(len(vals) - 1, -1, -1):
        runs.append((prev, tails[j], vals[j]))
        prev = tails[j]
    return runs


def plan_from_triples(runs, h_max: float):
    """The learner's plan, computed with the loops above at every stage."""
    from myerson_lab.learner import IroningPlan

    curve = PiecewiseLinearCurve.from_vertices(curve_vertices_from_triples(runs))
    hull = PiecewiseLinearCurve.from_vertices(hull_vertices(curve))
    best = 0
    for i, v in enumerate(curve.values.tolist()):
        if v > curve.values[best]:
            best = i
    r_q = float(curve.qs[best])
    reserve = runs[0][2] if r_q == 0.0 else price_left_of_triples(runs, r_q)
    intervals = []
    for a, b in gap_intervals(curve, hull, 1e-9 * h_max):
        hi = runs[0][2] if a == 0.0 else price_left_of_triples(runs, a)
        lo = price_left_of_triples(runs, b)
        if lo < hi:
            intervals.append((lo, hi))
    return IroningPlan.canonical(intervals, reserve)


def greedy_max_weight(spec, weights, priority) -> set:
    """Greedy independent set, scanning by (weight desc, priority).

    Only positive-weight elements are considered; for matroids the
    result is a maximum-weight independent set.
    """
    if sorted(priority) != list(range(spec.n_elements)):
        raise ValueError("priority must be a permutation of the bidders")
    rank_of = {e: r for r, e in enumerate(priority)}
    order = sorted(range(spec.n_elements), key=lambda e: (-weights[e], rank_of[e]))
    chosen: set = set()
    for e in order:
        if weights[e] > 0.0 and is_independent(spec, chosen | {e}):
            chosen.add(e)
    return chosen


def interim_allocation_derivative_kunit(q: float, k: int, n: int) -> float:
    """Closed-form derivative of the k-unit interim allocation; <= 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q outside [0, 1]")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if k == n:
        return 0.0
    return -(n - k) * math.comb(n - 1, k - 1) * q ** (k - 1) * (1.0 - q) ** (n - k - 1)


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
