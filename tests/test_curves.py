import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myerson_lab.curves import (
    PiecewiseLinearCurve,
    QuantileIntervalSet,
    argmax_quantile,
    concave_envelope,
    curve_from_price_runs,
    difference_intervals,
    induce_curve,
    optimal_induced,
    pointwise_gap,
    price_left_of_runs,
)
from reference import almost_equal, runs_from_tuples, scalar_evaluate, scalar_left_value

# Exact revenue curve of the {1: 0.9, 5: 0.1} distribution.
EX2_CURVE = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.1, 0.5), (0.1, 0.1), (1.0, 1.0)))


def test_evaluate_line():
    line = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (1.0, 1.0)))
    assert line.evaluate(0.3) == pytest.approx(0.3, abs=0)
    assert line.evaluate(0.0) == 0.0
    assert line.evaluate(1.0) == 1.0


def test_evaluate_jump_right_limit():
    jump = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.5, 2.0), (0.5, 1.0), (1.0, 1.0)))
    assert jump.evaluate(0.5) == 1.0
    assert jump.left_value(0.5) == 2.0
    assert jump.upper_value(0.5) == 2.0


def test_evaluate_example2_exact_curve():
    # right-limit convention at the atom quantile; the upper vertex holds
    # the attained sale value 0.5
    assert EX2_CURVE.evaluate(0.1) == 0.1
    assert EX2_CURVE.upper_value(0.1) == 0.5
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
            assert hull.upper_value(q) >= v - 1e-12


def test_difference_intervals_concave_input_empty():
    tent = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (0.4, 1.0), (1.0, 0.2)))
    assert len(difference_intervals(tent, concave_envelope(tent))) == 0


def test_difference_intervals_example2():
    hull = concave_envelope(EX2_CURVE)
    gaps = difference_intervals(EX2_CURVE, hull)
    assert gaps.intervals == ((0.1, 1.0),)


def test_difference_intervals_example1():
    h = 10.0
    curve = PiecewiseLinearCurve.from_vertices(((0.0, 0.0), (1 / h, 1.0), (1 / h, 1 / h), (1.0, 1.0)))
    gaps = difference_intervals(curve, concave_envelope(curve))
    assert gaps.intervals == ((1 / h, 1.0),)


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
        gaps = difference_intervals(curve, hull)
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
    got = induce_curve(EX2_CURVE, QuantileIntervalSet(()), 1.0)
    assert almost_equal(got, EX2_CURVE)


def test_induce_curve_example2_chord():
    got = induce_curve(EX2_CURVE, [(0.1, 1.0)], 1.0)
    assert got.evaluate(0.55) == pytest.approx(0.75, abs=1e-12)
    assert got.evaluate(0.1) == pytest.approx(0.5, abs=1e-12)
    assert almost_equal(got, concave_envelope(EX2_CURVE), tol=1e-12)


def test_induce_curve_zero_reserve():
    got = induce_curve(EX2_CURVE, [], 0.0)
    for q in np.linspace(0, 1, 11):
        assert got.evaluate(float(q)) == 0.0


def test_optimal_induced_equals_hull_then_plateau():
    rng = np.random.default_rng(3)
    for _ in range(40):
        prices = sorted(rng.uniform(0.2, 8, size=5), reverse=True)
        qs = np.sort(rng.uniform(0.05, 0.95, size=4))
        bounds = [0.0, *map(float, qs), 1.0]
        runs = [(bounds[i], bounds[i + 1], float(prices[i])) for i in range(5)]
        curve = curve_from_price_runs(runs_from_tuples(runs))
        hull = concave_envelope(curve)
        star = optimal_induced(curve)
        r_q = argmax_quantile(curve)
        peak = hull.upper_value(r_q)
        for q in np.linspace(0, 1, 101):
            q = float(q)
            want = hull.evaluate(q) if q < r_q else peak
            assert star.evaluate(q) == pytest.approx(want, abs=1e-9)


def test_monotone_curve_dominance_is_preserved():
    # pointwise-higher curves keep pointwise-higher envelopes and
    # optimally induced versions
    rng = np.random.default_rng(17)
    for _ in range(30):
        qs = [0.0, *sorted(float(q) for q in rng.uniform(0, 1, size=5)), 1.0]
        base_vals = [0.0, *[float(v) for v in rng.uniform(0, 4, size=5)], float(rng.uniform(0, 4))]
        lift = [0.0, *[float(v) for v in rng.uniform(0, 1.5, size=5)], float(rng.uniform(0, 1.5))]
        lo = PiecewiseLinearCurve.from_vertices(tuple(zip(qs, base_vals)))
        hi = PiecewiseLinearCurve.from_vertices(tuple(zip(qs, [b + u for b, u in zip(base_vals, lift)])))
        hull_lo, hull_hi = concave_envelope(lo), concave_envelope(hi)
        star_lo, star_hi = optimal_induced(lo), optimal_induced(hi)
        for q in np.linspace(0, 1, 101):
            q = float(q)
            assert hull_hi.evaluate(q) >= hull_lo.evaluate(q) - 1e-12
            assert star_hi.evaluate(q) >= star_lo.evaluate(q) - 1e-12


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
    qs = np.linspace(0, 1, len(values))
    values[0] = 0.0
    curve = PiecewiseLinearCurve.from_vertices(tuple((float(q), float(v)) for q, v in zip(qs, values)))
    out = induce_curve(curve, [(0.2, 0.5)], reserve_q)
    assert out.vertices[0][0] == 0.0 and out.vertices[-1][0] == 1.0
    assert all(q1 >= q0 for (q0, _), (q1, _) in zip(out.vertices, out.vertices[1:]))
