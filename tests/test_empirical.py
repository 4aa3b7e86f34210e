import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myerson_lab.curves import curve_from_price_runs, pointwise_gap
from myerson_lab.distributions import ValueDistribution, sample
from myerson_lab.empirical import (
    EmpiricalQuantile,
    dkw_epsilon,
    max_price_runs,
    min_price_runs,
    r_max_curve,
    r_min_curve,
)
from myerson_lab.learner import optimal_induced
from reference import eval_quantile, upper_value


def test_eval_quantile_basic():
    eq = EmpiricalQuantile.from_samples([1.0, 2.0, 3.0, 4.0], h_max=5.0)
    assert eval_quantile(eq, 0.5) == 2.0
    assert eval_quantile(eq, -0.1) == 0.0
    assert eval_quantile(eq, 1.2) == 5.0
    assert eval_quantile(eq, 1.0) == 4.0


def test_eval_quantile_at_zero_uses_first_order_stat():
    eq = EmpiricalQuantile.from_samples([7.0], h_max=10.0)
    assert eval_quantile(eq, 0.0) == 7.0


def test_eval_quantile_monotone():
    rng = np.random.default_rng(2)
    for _ in range(20):
        xs = rng.uniform(0, 9, size=int(rng.integers(1, 40)))
        eq = EmpiricalQuantile.from_samples(xs, h_max=10.0)
        grid = np.linspace(-0.2, 1.2, 1001)
        vals = [eval_quantile(eq, float(x)) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_order_statistic_bracketing():
    # for every sample v: estimate(F_hat(v)) <= v <= estimate(F_hat(v) + 1/m)
    rng = np.random.default_rng(3)
    for _ in range(30):
        xs = np.round(rng.uniform(0, 9, size=int(rng.integers(2, 30))), 2)
        eq = EmpiricalQuantile.from_samples(xs, h_max=10.0)
        m, sorted_samples = eq.m, np.repeat(eq.values, eq.counts)
        for v in sorted_samples:
            fhat = sum(1 for x in sorted_samples if x <= v) / m
            assert eval_quantile(eq, fhat) <= v <= eval_quantile(eq, fhat + 1.0 / m)


def test_dkw_epsilon_values():
    assert dkw_epsilon(50, 2 / math.e) == pytest.approx(0.1, abs=1e-12)
    assert dkw_epsilon(200, 0.05) == pytest.approx(math.sqrt(math.log(40) / 400), abs=0)
    assert dkw_epsilon(200, 0.05) == pytest.approx(0.09603, abs=5e-6)
    assert dkw_epsilon(400, 0.3) == pytest.approx(dkw_epsilon(100, 0.3) / 2, rel=1e-12)


def test_dkw_epsilon_preconditions():
    with pytest.raises(ValueError):
        dkw_epsilon(0, 0.1)
    with pytest.raises(ValueError):
        dkw_epsilon(10, 0.0)
    with pytest.raises(ValueError):
        dkw_epsilon(10, 1.0)


@pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_dkw_epsilon_refuses_an_m_that_is_not_finite(m):
    with pytest.raises(ValueError, match="m must be finite"):
        dkw_epsilon(m, 0.1)
    with pytest.raises(ValueError, match="m must be finite"):
        dkw_epsilon(np.array([3.0, m]), 0.1)


@pytest.mark.parametrize("ms", [[0], [5, 0, 7], [3, -2], [6, 12, 1, 0]])
def test_dkw_epsilon_array_refuses_any_m_below_one(ms):
    with pytest.raises(ValueError, match="m must be >= 1"):
        dkw_epsilon(np.array(ms), 0.1)


def test_r_min_constant_samples_clamp():
    eq = EmpiricalQuantile.from_samples([2.0] * 5, h_max=4.0)
    cmin = r_min_curve(eq, 0.1)
    for q in (0.1, 0.5, 0.89, 0.899999):
        assert cmin.evaluate(q) == pytest.approx(q * 2.0, abs=1e-12)
    # value at the clamp point itself follows the right-limit convention;
    # the attained sup is held by the upper vertex
    assert upper_value(cmin, 0.9) == pytest.approx(1.8, abs=1e-12)
    for q in (0.90001, 0.95, 1.0):
        assert cmin.evaluate(q) == 0.0


def test_r_min_r_max_zero_at_origin():
    eq = EmpiricalQuantile.from_samples([1.0, 3.0, 3.0, 4.0], h_max=5.0)
    for eps in (0.0, 0.1, 0.35):
        assert r_min_curve(eq, eps).evaluate(0.0) == 0.0
        assert r_max_curve(eq, eps).evaluate(0.0) == 0.0


def test_r_min_half_sample_value():
    eq = EmpiricalQuantile.from_samples([1.0, 1.0, 5.0, 5.0], h_max=5.0)
    cmin = r_min_curve(eq, 0.0)
    assert cmin.evaluate(0.5) == pytest.approx(0.5 * 1.0, abs=0)  # X^(2) = 1


def test_r_max_clamps_to_h_near_zero():
    eq = EmpiricalQuantile.from_samples([1.0, 2.0, 3.0, 4.0], h_max=9.0)
    eps = 0.1
    cmax = r_max_curve(eq, eps)
    c = eps + 1.0 / eq.m
    for q in (0.01, c / 2, c * 0.999):
        assert cmax.evaluate(q) == pytest.approx(q * 9.0, abs=1e-12)
    assert cmax.evaluate(c) == pytest.approx(c * 4.0, abs=1e-12)  # X^(m) at the boundary


def test_curves_match_pointwise_formula():
    rng = np.random.default_rng(8)
    for trial in range(20):
        xs = rng.uniform(0, 9.5, size=int(rng.integers(1, 25)))
        eq = EmpiricalQuantile.from_samples(xs, h_max=10.0)
        eps = float(rng.uniform(0, 0.4))
        cmin, cmax = r_min_curve(eq, eps), r_max_curve(eq, eps)
        for q in rng.uniform(0, 1, size=200):
            q = float(q)
            assert cmin.evaluate(q) == pytest.approx(
                q * eval_quantile(eq, 1.0 - q - eps), abs=1e-12
            )
            assert cmax.evaluate(q) == pytest.approx(
                q * eval_quantile(eq, 1.0 - q + eps + 1.0 / eq.m), abs=1e-12
            )


def test_sandwich_rate_and_gap_bound(bimodal_small):
    m, delta = 200, 0.1
    eps = dkw_epsilon(m, delta)
    truth = curve_from_price_runs(bimodal_small.price_runs)
    grid = np.linspace(0, 1, 1001)
    truth_g = truth.evaluate(grid)
    hits = 0
    trials = 400
    for t in range(trials):
        xs = sample(bimodal_small, m, np.random.SeedSequence([21, t]))
        eq = EmpiricalQuantile.from_samples(xs, h_max=5.0)
        lo_c, hi_c = r_min_curve(eq, eps), r_max_curve(eq, eps)
        sandwich = bool(
            np.all(lo_c.evaluate(grid) <= truth_g + 1e-12)
            and np.all(truth_g <= hi_c.evaluate(grid) + 1e-12)
        )
        if sandwich:
            hits += 1
            star_hi, star_lo = optimal_induced(max_price_runs(eq, eps), 5.0), optimal_induced(min_price_runs(eq, eps), 5.0)
            gap = pointwise_gap(star_hi, star_lo)
            assert gap <= (2 * eps + 1.0 / m) * 5.0 + 1e-9
    # 1 - delta minus 3 binomial sigmas
    assert hits / trials >= 0.9 - 3 * math.sqrt(0.9 * 0.1 / trials)


def test_sample_validation():
    with pytest.raises(ValueError):
        EmpiricalQuantile.from_samples([], h_max=1.0)
    with pytest.raises(ValueError):
        EmpiricalQuantile.from_samples([2.0], h_max=1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30),
    st.floats(min_value=0.0, max_value=0.9),
)
def test_curve_construction_total(xs, eps):
    eq = EmpiricalQuantile.from_samples(xs, h_max=10.0)
    for curve in (r_min_curve(eq, eps), r_max_curve(eq, eps)):
        assert curve.vertices[0] == (0.0, 0.0)
        assert curve.vertices[-1][0] == 1.0


def test_from_samples_checks_bids():
    for bad in ([], [[1.0, 2.0]], [6.0], [-0.5], [1.0, float("nan")], [float("inf")]):
        with pytest.raises(ValueError):
            EmpiricalQuantile.from_samples(bad, h_max=5.0)
    eq = EmpiricalQuantile.from_samples([1.0, 2.0, 2.0], h_max=5.0)
    assert (eq.values.tolist(), eq.counts.tolist(), eq.m) == ([1.0, 2.0], [1, 2], 3)
    with pytest.raises(ValueError):
        eq.values[0] = 0.0
