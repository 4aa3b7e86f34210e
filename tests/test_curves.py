import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myerson_lab.curves import (
    PiecewiseLinearCurve,
    PriceRuns,
    argmax_quantile,
    concave_envelope,
    curve_from_price_runs,
    difference_intervals,
    induced_curve,
    pointwise_gap,
    price_left_of_runs,
)
from myerson_lab.distributions import ValueDistribution
from myerson_lab.empirical import EmpiricalQuantile, max_price_runs, min_price_runs
from myerson_lab.environments import Environment
from myerson_lab.learner import IroningPlan, optimal_induced, plan_from_price_runs
from myerson_lab.oracle import expected_revenue_enum, expected_revenue_quadrature
from reference import (
    almost_equal,
    induce_curve,
    runs_from_tuples,
    scalar_evaluate,
    scalar_left_value,
    upper_value,
)

# Exact revenue curve of the {1: 0.9, 5: 0.1} distribution, and its price runs.
EX2_CURVE = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.1, 0.5), (0.1, 0.1), (1.0, 1.0)))
EX2_RUNS = runs_from_tuples([(0.0, 0.1, 5.0), (0.1, 1.0, 1.0)])


def _tol(hull):
    """The gap tolerance relative to a hull's height."""
    scale = float(hull.values.max())
    return 1e-9 * (scale if scale > 0.0 else 1.0)


def value_plan(runs, quantile_ironing, reserve_q) -> IroningPlan:
    """A plan from quantile intervals and a reserve quantile on run edges:
    each quantile becomes the price just below it, and reserve quantile 0
    a reserve above every price."""

    def price(q):
        return float(price_left_of_runs(runs, q))

    reserve = price(reserve_q) if reserve_q > 0.0 else float(runs.prices[0]) + 1.0
    return IroningPlan.canonical([(price(b), price(a)) for a, b in quantile_ironing], reserve)


def quantile_plan(runs, plan):
    """A plan's intervals and reserve as quantiles, for ``induce_curve``:
    price x sits at the right edge of the last run priced at least x."""
    prices, ends = runs.prices.tolist(), runs.edges.tolist()[1:]

    def q(x):
        return max([e for p, e in zip(prices, ends) if p >= x], default=0.0)

    intervals = [(q(hi), q(lo)) for lo, hi in plan.intervals if q(hi) < q(lo)]
    return intervals, q(plan.reserve)


def induced_matches_reference(runs, plan) -> PiecewiseLinearCurve:
    """``induced_curve`` of runs and a plan whose prices are run prices,
    checked against the quantile-space walk of ``reference.induce_curve``."""
    got = induced_curve(runs, plan)
    assert almost_equal(got, induce_curve(curve_from_price_runs(runs), *quantile_plan(runs, plan)))
    return got


def test_evaluate_line():
    line = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (1.0, 1.0)))
    assert line.evaluate(0.3) == pytest.approx(0.3, abs=0)
    assert line.evaluate(0.0) == 0.0
    assert line.evaluate(1.0) == 1.0


def test_evaluate_jump_right_limit():
    jump = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.5, 2.0), (0.5, 1.0), (1.0, 1.0)))
    assert jump.evaluate(0.5) == 1.0
    assert jump.left_value(0.5) == 2.0
    assert upper_value(jump, 0.5) == 2.0


def test_evaluate_example2_exact_curve():
    # right-limit convention at the atom quantile; the upper vertex holds
    # the attained sale value 0.5
    assert EX2_CURVE.evaluate(0.1) == 0.1
    assert upper_value(EX2_CURVE, 0.1) == 0.5
    assert EX2_CURVE.evaluate(0.55) == pytest.approx(0.55, abs=1e-15)


def test_evaluate_rejects_out_of_domain():
    line = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        line.evaluate(-0.1)
    with pytest.raises(ValueError):
        line.evaluate(1.1)


def test_evaluate_many_matches_scalar():
    qs = np.linspace(0, 1, 101)
    got = EX2_CURVE.evaluate(qs)
    want = [scalar_evaluate(EX2_CURVE, float(q)) for q in qs]
    assert got.tolist() == want
    assert EX2_CURVE.left_value(qs).tolist() == [scalar_left_value(EX2_CURVE, float(q)) for q in qs]


def test_vertex_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.5, 1.0)))  # does not reach q=1
    with pytest.raises(ValueError):
        PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.5, 1.0), (0.5, 2.0), (0.5, 3.0), (1.0, 0.0)))


def test_concave_envelope_identity_on_concave_input():
    tent = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.4, 1.0), (1.0, 0.2)))
    assert concave_envelope(tent).vertices == tent.vertices


def test_concave_envelope_example2():
    hull = concave_envelope(EX2_CURVE)
    assert hull.vertices == ((0.0, 0.0), (0.1, 0.5), (1.0, 1.0))


def test_concave_envelope_example1():
    h = 10.0
    curve = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (1 / h, 1.0), (1 / h, 1 / h), (1.0, 1.0)))
    hull = concave_envelope(curve)
    assert hull.vertices == ((0.0, 0.0), (1 / h, 1.0), (1.0, 1.0))


def test_concave_envelope_idempotent_and_majorizes():
    rng = np.random.default_rng(5)
    for _ in range(50):
        qs = np.sort(rng.uniform(0, 1, size=6))
        verts = [(0.0, 0.0)] + [(float(q), float(v)) for q, v in zip(qs, rng.uniform(0, 3, 6))]
        verts.append((1.0, float(rng.uniform(0, 3))))
        curve = PiecewiseLinearCurve.from_vertices(tuple(verts))
        hull = concave_envelope(curve)
        assert concave_envelope(hull).vertices == hull.vertices
        slopes = [
            (v1 - v0) / (q1 - q0) for (q0, v0), (q1, v1) in zip(hull.vertices, hull.vertices[1:])
        ]
        for s0, s1 in zip(slopes, slopes[1:]):
            assert s1 <= s0 + 1e-12 * max(1.0, abs(s0))
        for q, v in curve.vertices:
            assert upper_value(hull, q) >= v - 1e-12


def test_difference_intervals_concave_input_empty():
    tent = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.4, 1.0), (1.0, 0.2)))
    hull = concave_envelope(tent)
    assert len(difference_intervals(tent, hull, _tol(hull))) == 0


def test_difference_intervals_example2():
    hull = concave_envelope(EX2_CURVE)
    gaps = difference_intervals(EX2_CURVE, hull, _tol(hull))
    assert gaps == ((0.1, 1.0),)


def test_difference_intervals_example1():
    h = 10.0
    curve = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (1 / h, 1.0), (1 / h, 1 / h), (1.0, 1.0)))
    hull = concave_envelope(curve)
    gaps = difference_intervals(curve, hull, _tol(hull))
    assert gaps == ((1 / h, 1.0),)


def test_hull_equals_curve_outside_difference_intervals():
    rng = np.random.default_rng(11)
    for _ in range(30):
        runs = []
        q = 0.0
        for price in sorted(rng.uniform(0.5, 10, size=4), reverse=True):
            q_next = min(1.0, q + float(rng.uniform(0.1, 0.4)))
            runs.append((q, q_next, float(price)))
            q = q_next
            if q >= 1.0:
                break
        if q < 1.0:
            runs.append((q, 1.0, runs[-1][2] * 0.5))
        curve = curve_from_price_runs(runs_from_tuples(runs))
        hull = concave_envelope(curve)
        gaps = difference_intervals(curve, hull, _tol(hull))
        jumps = {qv for qv in curve.qs.tolist() if curve.qs.tolist().count(qv) == 2}
        for q_test in np.linspace(0.001, 0.999, 229):
            inside = any(a <= q_test <= b for a, b in gaps)
            near_jump = any(abs(q_test - j) < 1e-9 for j in jumps)
            if not inside and not near_jump:
                assert hull.evaluate(q_test) - curve.evaluate(q_test) <= 1e-9 * 10


def test_argmax_quantile_cases():
    line = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (1.0, 1.0)))
    assert argmax_quantile(line) == 1.0
    tent = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.4, 1.0), (1.0, 0.2)))
    assert argmax_quantile(tent) == 0.4
    const = PiecewiseLinearCurve.from_vertices(((0.0, 0.5), (1.0, 0.5)))
    assert argmax_quantile(const) == 0.0


def test_induce_curve_identity():
    got = induced_matches_reference(EX2_RUNS, value_plan(EX2_RUNS, (), 1.0))
    assert almost_equal(got, induce_curve(EX2_CURVE, (), 1.0))
    assert almost_equal(got, EX2_CURVE)


def test_induce_curve_example2_chord():
    got = induced_matches_reference(EX2_RUNS, value_plan(EX2_RUNS, [(0.1, 1.0)], 1.0))
    assert almost_equal(got, induce_curve(EX2_CURVE, [(0.1, 1.0)], 1.0))
    assert got.evaluate(0.55) == pytest.approx(0.75, abs=1e-12)
    assert got.evaluate(0.1) == pytest.approx(0.5, abs=1e-12)
    assert almost_equal(got, concave_envelope(EX2_CURVE), tol=1e-12)


def test_induce_curve_zero_reserve():
    got = induced_matches_reference(EX2_RUNS, value_plan(EX2_RUNS, [], 0.0))
    assert almost_equal(got, induce_curve(EX2_CURVE, [], 0.0))
    for q in np.linspace(0, 1, 11):
        assert got.evaluate(float(q)) == 0.0


def test_optimal_induced_equals_hull_then_plateau():
    rng = np.random.default_rng(3)
    for _ in range(40):
        prices = sorted(rng.uniform(0.2, 8, size=5), reverse=True)
        qs = np.sort(rng.uniform(0.05, 0.95, size=4))
        bounds = [0.0, *map(float, qs), 1.0]
        runs = runs_from_tuples([(bounds[i], bounds[i + 1], float(prices[i])) for i in range(5)])
        curve = curve_from_price_runs(runs)
        hull = concave_envelope(curve)
        star = optimal_induced(runs, 8.0)
        r_q = argmax_quantile(curve)
        assert almost_equal(star, induce_curve(curve, difference_intervals(curve, hull, 1e-9 * 8.0), r_q))
        peak = upper_value(hull, r_q)
        for q in np.linspace(0, 1, 101):
            q = float(q)
            want = hull.evaluate(q) if q < r_q else peak
            assert star.evaluate(q) == pytest.approx(want, abs=1e-9)


def test_monotone_curve_dominance_is_preserved():
    # pointwise-higher prices keep pointwise-higher revenue curves,
    # envelopes and optimally induced versions
    rng = np.random.default_rng(17)
    for _ in range(30):
        edges = np.array([0.0, *sorted(float(q) for q in rng.uniform(0, 1, size=5)), 1.0])
        base = np.sort(rng.uniform(0, 4, size=6))[::-1]
        lift = np.sort(rng.uniform(0, 1.5, size=6))[::-1]
        lo_runs, hi_runs = PriceRuns(edges, base), PriceRuns(edges, base + lift)
        hull_lo = concave_envelope(curve_from_price_runs(lo_runs))
        hull_hi = concave_envelope(curve_from_price_runs(hi_runs))
        star_lo, star_hi = optimal_induced(lo_runs, 5.5), optimal_induced(hi_runs, 5.5)
        for q in np.linspace(0, 1, 101):
            q = float(q)
            assert hull_hi.evaluate(q) >= hull_lo.evaluate(q) - 1e-12
            assert star_hi.evaluate(q) >= star_lo.evaluate(q) - 1e-12
            assert star_hi.left_value(q) >= star_lo.left_value(q) - 1e-12


def test_induced_curve_merges_a_trailing_zero_run():
    # r_min's clamp run prices 0 after a sample at 0, so two runs share price 0
    eq = EmpiricalQuantile.from_samples([0.0, 0.0, 1.0, 3.0, 3.0, 4.0], h_max=4.0)
    runs = min_price_runs(eq, 0.1)
    assert runs.prices.tolist()[-2:] == [0.0, 0.0]
    curve = curve_from_price_runs(runs)
    hull = concave_envelope(curve)
    want = induce_curve(curve, difference_intervals(curve, hull, 4e-9), argmax_quantile(curve))
    assert almost_equal(optimal_induced(runs, 4.0), want)
    induced_matches_reference(runs, plan_from_price_runs(runs, 4.0))
    induced_matches_reference(runs, IroningPlan.empty())


def test_induced_curve_merges_a_leading_h_max_run():
    # r_max's leading run prices h_max before a sample at h_max
    eq = EmpiricalQuantile.from_samples([1.0, 2.0, 2.0, 4.0, 4.0], h_max=4.0)
    runs = max_price_runs(eq, 0.1)
    assert runs.prices.tolist()[:2] == [4.0, 4.0]
    curve = curve_from_price_runs(runs)
    hull = concave_envelope(curve)
    want = induce_curve(curve, difference_intervals(curve, hull, 4e-9), argmax_quantile(curve))
    assert almost_equal(optimal_induced(runs, 4.0), want)
    induced_matches_reference(runs, plan_from_price_runs(runs, 4.0))
    induced_matches_reference(runs, IroningPlan.canonical([(2.0, 4.0)], 2.0))


def test_induced_curve_prices_a_zero_mass_atom_at_its_point():
    # posting 2 sells with P(V >= 2) = 0.5 whether or not 2 itself has mass
    d = ValueDistribution.discrete([(1.0, 0.5), (2.0, 0.0), (3.0, 0.3), (5.0, 0.2)], h_max=5.0)
    env = Environment.single_item(3)
    for plan, point in (
        (IroningPlan.canonical([], 2.0), (0.5, 1.0)),
        (IroningPlan.canonical([(2.0, 5.0)], 1.0), (0.5, 1.0)),
        (IroningPlan.canonical([(1.0, 2.0)], 1.0), (0.5, 1.0)),
    ):
        got = induced_curve(d.price_runs, plan)
        assert point in got.vertices
        quad = expected_revenue_quadrature(d, env, plan).expected_revenue
        assert quad == pytest.approx(expected_revenue_enum(d, env, plan).expected_revenue, abs=1e-12)


def test_induced_curve_refuses_rising_prices():
    rising = runs_from_tuples([(0.0, 0.5, 1.0), (0.5, 1.0, 2.0)])
    with pytest.raises(ValueError):
        induced_curve(rising, IroningPlan.empty())
    with pytest.raises(ValueError):
        optimal_induced(rising, 2.0)
    with pytest.raises(ValueError):
        plan_from_price_runs(rising, 2.0)


def test_pointwise_gap_basic():
    a = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (1.0, 1.0)))
    assert pointwise_gap(a, a) == 0.0
    b = PiecewiseLinearCurve.from_vertices(((0.0, 0.5), (1.0, 1.5)))
    assert pointwise_gap(b, a) == pytest.approx(0.5, abs=0)


def test_price_runs_round_trip():
    runs = runs_from_tuples([(0.0, 0.25, 4.0), (0.25, 1.0, 1.0)])
    curve = curve_from_price_runs(runs)
    assert curve.vertices == ((0.0, 0.0), (0.25, 1.0), (0.25, 0.25), (1.0, 1.0))
    assert price_left_of_runs(runs, 0.25) == 4.0
    assert price_left_of_runs(runs, 0.7) == 1.0
    assert price_left_of_runs(runs, 1.0) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=8),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_induce_curve_is_valid_curve(values, reserve_q):
    runs = PriceRuns(np.linspace(0, 1, len(values) + 1), np.array(sorted(values, reverse=True)))
    out = induced_matches_reference(runs, value_plan(runs, [(0.2, 0.5)], reserve_q))
    assert out.vertices[0][0] == 0.0 and out.vertices[-1][0] == 1.0
    assert all(q1 >= q0 for (q0, _), (q1, _) in zip(out.vertices, out.vertices[1:]))
