"""Reference helpers the tests check the package against.

They are plain, slow, scalar restatements of what the package computes
with arrays, plus a discrete law's CDF and generalized inverse, a
matroid's independence oracle read from its JSON and greedy selection
with it, the brute force that ``Environment.blocks`` is checked against,
the rank key by a scan of every interval, the rank-block allocation rule
(slots go down each block's tie groups of equal keys, a group sharing
its slots equally) restated bidder by bidder, the threshold payment that
re-runs that rule on every piece of the bid line (on the bidder's block
alone, or split at every key of the profile), enumeration and
Monte Carlo revenue that price every multiset and every draw, and the
k-unit interim allocation with its integral and derivative, the k-by-k
form of the Bernstein mixture that revenue quadrature evaluates per
block, the no-regret loop that relearns from one growing array of every
bid, and the vertex-by-vertex ironing walk in quantile space that the
package's ``induced_curve`` is checked against.  They live here because
nothing in the package calls them.
"""

import itertools
import json
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache

import numpy as np

from myerson_lab.curves import PiecewiseLinearCurve, PriceRuns
from myerson_lab.distributions import sample
from myerson_lab.empirical import dkw_epsilon
from myerson_lab.engine import interim_payments, ironed_key
from myerson_lab.environments import Environment
from myerson_lab.learner import IroningPlan, compute_auction
from myerson_lab.online import RegretTrace, RoundRecord
from myerson_lab.oracle import RevenueReport, expected_revenue_quadrature, optimal_plan


def eval_quantile(eq, x: float) -> float:
    """Order-statistic quantile estimate at x, with boundary clamps."""
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return eq.h_max
    k = max(1, math.ceil(x * eq.m))
    return float(np.repeat(eq.values, eq.counts)[k - 1])


def _vertex_list(curve: PiecewiseLinearCurve) -> tuple:
    """The vertices and their q's, as lists for bisection."""
    verts = curve.vertices
    return verts, [qv for qv, _ in verts]


def scalar_evaluate(curve: PiecewiseLinearCurve, q: float, vertex_list=None) -> float:
    """Value at q by bisection over the vertex list; the right limit at a
    jump.  ``vertex_list`` is ``_vertex_list(curve)``, read once by callers
    that probe one curve many times."""
    verts, qs = vertex_list or _vertex_list(curve)
    i = bisect_right(qs, q) - 1
    qi, vi = verts[i]
    if qi == q or i == len(qs) - 1:
        return vi
    qj, vj = verts[i + 1]
    return vi + (q - qi) / (qj - qi) * (vj - vi)


def scalar_left_value(curve: PiecewiseLinearCurve, q: float, vertex_list=None) -> float:
    """Limit from the left at q by bisection over the vertex list."""
    verts, qs = vertex_list or _vertex_list(curve)
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
    cv, hv = _vertex_list(curve), _vertex_list(hull)
    pieces = []
    for q0, q1 in zip(grid, grid[1:]):
        mid = 0.5 * (q0 + q1)
        if scalar_evaluate(hull, mid, hv) - scalar_evaluate(curve, mid, cv) > tol:
            pieces.append((q0, q1))
    out = []
    for a, b in pieces:
        upper = max(scalar_left_value(curve, a, cv), scalar_evaluate(curve, a, cv))
        if out and out[-1][1] == a and scalar_evaluate(hull, a, hv) - upper > tol:
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
    for i_lo, i_hi, value in reversed(_order_stat_blocks(np.repeat(eq.values, eq.counts))):
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
    for i_lo, i_hi, value in reversed(_order_stat_blocks(np.repeat(eq.values, eq.counts))):
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


def discrete_tails(dist) -> list:
    """T[j] = P(V >= v_j) by reverse accumulation, with T[0] pinned to 1
    and every sum clamped at 1."""
    probs = [p for _, p in dist.atoms]
    tails = [0.0] * len(probs)
    acc = 0.0
    for j in range(len(probs) - 1, -1, -1):
        acc += probs[j]
        tails[j] = min(acc, 1.0)
    tails[0] = 1.0
    return tails


def tail_probability(dist, v: float) -> float:
    """P(V >= v) of a discrete law: the sale probability at posted price v."""
    j = bisect_left([a for a, _ in dist.atoms], v)
    return discrete_tails(dist)[j] if j < len(dist.atoms) else 0.0


def discrete_cdf(dist, v: float) -> float:
    """P(V <= v) of a discrete law, right-continuous."""
    return math.fsum(p for a, p in dist.atoms if a <= v)


def discrete_quantile(dist, p: float) -> float:
    """Generalized inverse of a discrete law: the smallest atom v with
    P(V <= v) >= p, the cumulative sum accumulated from the lowest atom."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    cum = np.cumsum([q for _, q in dist.atoms])
    idx = min(int(np.searchsorted(cum, p, side="left")), len(dist.atoms) - 1)
    return dist.atoms[idx][0]


def upper_value(curve: PiecewiseLinearCurve, q: float) -> float:
    """The larger one-sided limit of a curve at q: the sup attained there."""
    return max(curve.left_value(q), curve.evaluate(q))


def induce_curve(curve: PiecewiseLinearCurve, quantile_ironing, reserve_q: float) -> PiecewiseLinearCurve:
    """Ironing chords and a reserve plateau applied to a curve in quantile
    space, one vertex at a time.

    Inside each ironing interval (a, b) the curve is replaced by the
    chord between its attained sups at a and b; above ``reserve_q`` it is
    constant at the attained sup there.
    """
    if not 0.0 <= reserve_q <= 1.0:
        raise ValueError("reserve_q outside [0, 1]")
    verts: list = []

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
    for a, b in quantile_ironing:
        # copy source vertices strictly before a
        while i < len(src) and src[i][0] < a:
            if src[i][0] >= pos:
                emit(*src[i])
            i += 1
        emit(a, upper_value(curve, a))
        emit(b, upper_value(curve, b))
        right = curve.evaluate(b)
        if right != upper_value(curve, b):
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
    plateau = upper_value(ironed, reserve_q)
    out = [v for v in ironed.vertices if v[0] < reserve_q]
    out.append((reserve_q, plateau))
    out.append((1.0, plateau))
    if out[0][0] != 0.0:
        out.insert(0, (0.0, ironed.evaluate(0.0)))
    return PiecewiseLinearCurve.from_vertices(out)


def total_interim_payment(outcome) -> float:
    """Sum of an auction outcome's interim payments."""
    return math.fsum(outcome.interim_payment)


def discrete_price_triples(dist) -> list:
    """(q0, q1, price) runs of a discrete law, highest value first; a
    zero-probability atom keeps its empty run."""
    tails, vals = discrete_tails(dist), [v for v, _ in dist.atoms]
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
    verts = curve.vertices
    best = 0
    for i, (_, v) in enumerate(verts):
        if v > verts[best][1]:
            best = i
    r_q = verts[best][0]
    reserve = runs[0][2] if r_q == 0.0 else price_left_of_triples(runs, r_q)
    intervals = []
    for a, b in gap_intervals(curve, hull, 1e-9 * h_max):
        hi = runs[0][2] if a == 0.0 else price_left_of_triples(runs, a)
        lo = price_left_of_triples(runs, b)
        if lo < hi:
            intervals.append((lo, hi))
    return IroningPlan.canonical(intervals, reserve)


def matroid_oracle(env):
    """Independence test of a uniform or partition matroid environment,
    read from its JSON (the rank, or the parts and their capacities),
    not from ``env.blocks``."""
    spec = json.loads(env.to_json())
    if spec["kind"] == "uniform":
        return lambda s: len(set(s)) <= spec["rank"]

    def independent(s) -> bool:
        counts = [0] * len(spec["capacities"])
        for e in set(s):
            counts[spec["blocks"][e]] += 1
        return all(c <= cap for c, cap in zip(counts, spec["capacities"]))

    return independent


def greedy_max_weight(env, weights, priority) -> set:
    """Greedy independent set of a matroid environment, scanning by
    (weight desc, priority).

    Only positive-weight elements are considered; for matroids the
    result is a maximum-weight independent set.
    """
    if sorted(priority) != list(range(env.n)):
        raise ValueError("priority must be a permutation of the bidders")
    independent = matroid_oracle(env)
    rank_of = {e: r for r, e in enumerate(priority)}
    order = sorted(range(env.n), key=lambda e: (-weights[e], rank_of[e]))
    chosen: set = set()
    for e in order:
        if weights[e] > 0.0 and independent(chosen | {e}):
            chosen.add(e)
    return chosen


def ironed_key_scan(bid: float, plan: IroningPlan) -> float | None:
    """``ironed_key`` by testing the bid against every interval in turn."""
    if bid < plan.reserve:
        return None
    for lo, hi in plan.intervals:
        if lo <= bid < hi:
            return lo
    return bid


def tie_group_allocation(env, plan: IroningPlan, bids) -> list[float]:
    """Per-bidder expected allocation: in each block, the accepted
    members are grouped by equal key, highest key first, and a group of
    t members takes the next t slots, sharing their weight equally.  This
    is the rule ``allocate`` must match to the bit."""
    keys = [ironed_key_scan(b, plan) for b in bids]
    alloc = [0.0] * env.n
    for members, slots in env.blocks:
        by_key: dict[float, list[int]] = {}
        for i in members:
            if keys[i] is not None:
                by_key.setdefault(keys[i], []).append(i)
        pos = 0
        for k in sorted(by_key, reverse=True):
            group = by_key[k]
            share = sum(slots[pos : pos + len(group)]) / len(group)
            for i in group:
                alloc[i] = share
            pos += len(group)
    return alloc


def myerson_payment(env, plan: IroningPlan, bids, bidder: int) -> float:
    """Threshold-integral payment for one bidder, computed exactly on its
    rank block alone.

    Only the bidder's block competes with it, so the block is rerun as
    the position auction of its slots, and the integral splits only at
    that block's keys.  This is the reference that the faster
    ``interim_payments`` must match to the bit.
    """
    members, slots = next(block for block in env.blocks if bidder in block[0])
    block_env = Environment.position(slots, len(members))
    return whole_profile_payment(block_env, plan, [bids[i] for i in members], members.index(bidder))


def whole_profile_payment(env, plan: IroningPlan, bids, bidder: int) -> float:
    """Threshold-integral payment for one bidder, split at every bidder's key.

    p = b * x(b) - integral of x(z) dz over [0, b], where x(z) is the
    bidder's allocation when bidding z against the fixed others; x is
    piecewise constant, so each piece is evaluated at its midpoint by
    re-running ``tie_group_allocation``.  On a one-block environment this is the
    block's payment.  On a partition matroid it also splits at other
    blocks' keys, which moves no allocation but can round the integral
    differently: the engine priced every profile this way before it
    priced each block on its own keys.
    """
    alloc_at_bid = tie_group_allocation(env, plan, bids)[bidder]
    if alloc_at_bid == 0.0:
        return 0.0
    b_i = bids[bidder]
    others = [ironed_key(b, plan) for j, b in enumerate(bids) if j != bidder]
    pts = {0.0, b_i, plan.reserve}
    for lo, hi in plan.intervals:
        pts.update((lo, hi))
    pts.update(k for k in others if k is not None)
    pts = sorted(p for p in pts if p <= b_i)
    probe = list(bids)
    integral = 0.0
    for z0, z1 in zip(pts, pts[1:]):
        probe[bidder] = 0.5 * (z0 + z1)
        integral += tie_group_allocation(env, plan, probe)[bidder] * (z1 - z0)
    return b_i * alloc_at_bid - integral


def enum_revenue_uncached(dist, env, plan: IroningPlan) -> float:
    """``expected_revenue_enum``'s sum, pricing every multiset of every
    block and building each multinomial weight from scratch, which the
    oracle's walk over atom counts must match to the bit."""
    vals, probs = [v for v, _ in dist.atoms], [p for _, p in dist.atoms]
    totals = []
    for _, slots in env.blocks:
        n = len(slots)
        block = Environment.position(slots, n)
        terms = []
        for combo in itertools.combinations_with_replacement(range(len(vals)), n):
            counts = Counter(combo)  # first-seen order, as the oracle's dict
            weight = math.factorial(n)
            for c in counts.values():
                weight = weight // math.factorial(c)
            weight *= math.prod(probs[i] ** c for i, c in counts.items())
            if weight != 0.0:
                terms.append(weight * math.fsum(interim_payments(block, plan, [vals[i] for i in combo])))
        totals.append(math.fsum(terms))
    return math.fsum(totals)


def mc_revenue_uncached(dist, env, plan: IroningPlan, trials: int, seed) -> RevenueReport:
    """``expected_revenue_mc`` pricing every draw, repeated profiles
    included, from the same seeded draws."""
    draws = sample(dist, trials * env.n, seed).reshape(trials, env.n)
    totals = [math.fsum(interim_payments(env, plan, list(row))) for row in draws]
    mean = math.fsum(totals) / trials
    stderr = math.sqrt(math.fsum((t - mean) ** 2 for t in totals) / (trials - 1) / trials) if trials > 1 else 0.0
    return RevenueReport(expected_revenue=mean, method="monte_carlo", stderr=stderr, trials=trials)


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


def run_no_regret_concatenating(dist, env, T: int, delta: float, seed):
    """``run_no_regret`` as a loop that keeps every bid: each round joins
    its bids onto one growing array, and the learner sorts and reduces
    all of them again the next round."""
    n, h = env.n, dist.h_max
    bid_seeds = np.random.SeedSequence([int(seed), 0]).spawn(2 * (T + 1))[0::2]
    opt_rev = expected_revenue_quadrature(dist, env, optimal_plan(dist)).expected_revenue

    def record(t, m_t, epsilon_t, plan, cumulative, bound_t):
        rev = expected_revenue_quadrature(dist, env, plan).expected_revenue
        loss = max(0.0, opt_rev - rev)
        return RoundRecord(t, m_t, epsilon_t, plan.short_hash(), rev, loss, cumulative + loss, bound_t)

    rows = [record(0, 0, math.inf, IroningPlan.empty(), 0.0, n * h)]
    samples_so_far = np.asarray(sample(dist, n, bid_seeds[0]), dtype=float)
    for t in range(1, T + 1):
        plan = compute_auction(samples_so_far, delta / T, h)
        epsilon_t = dkw_epsilon(n * t, delta / T)
        rows.append(record(t, n * t, epsilon_t, plan, rows[-1].cumulative_loss, 3.0 * epsilon_t * n * h))
        samples_so_far = np.concatenate([samples_so_far, sample(dist, n, bid_seeds[t])])
    return RegretTrace(rows=tuple(rows))
