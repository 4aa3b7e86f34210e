import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myerson_lab.curves import induced_curve
from myerson_lab.distributions import exact_revenue_curve, sample
from myerson_lab.empirical import EmpiricalQuantile, dkw_epsilon, min_price_runs, r_min_curve
from myerson_lab.learner import (
    IroningPlan,
    compute_auction,
    loss_bound,
    optimal_induced,
    required_samples_iid,
)


def test_plan_validation():
    with pytest.raises(ValueError):
        IroningPlan(intervals=((2.0, 1.0),), reserve=0.0)  # lo >= hi
    with pytest.raises(ValueError):
        IroningPlan(intervals=((1.0, 2.0), (1.5, 3.0)), reserve=0.0)  # overlap
    with pytest.raises(ValueError):
        IroningPlan(intervals=((1.0, 2.0),), reserve=3.0)  # below reserve
    with pytest.raises(ValueError):
        IroningPlan(intervals=((1.0, 4.0),), reserve=2.0)  # reserve inside


def test_plan_canonicalization():
    plan = IroningPlan.canonical([(3.0, 4.0), (1.0, 2.0), (2.0, 3.0)], reserve=0.5)
    assert plan.intervals == ((1.0, 2.0), (2.0, 3.0), (3.0, 4.0))
    plan = IroningPlan.canonical([(1.0, 2.0)], reserve=2.5)
    assert plan.intervals == ()
    plan = IroningPlan.canonical([(1.0, 4.0)], reserve=2.0)
    assert plan.intervals == ((2.0, 4.0),)


def test_plan_json_round_trip():
    plan = IroningPlan(intervals=((1.0, 5.0),), reserve=1.0)
    assert IroningPlan.from_json(plan.to_json()) == plan
    assert IroningPlan.from_json('{"reserve": 0.5, "intervals": []}') == IroningPlan.canonical([], 0.5)


def test_constant_samples_reserve():
    plan = compute_auction([2.0] * 7, delta=0.5, h_max=4.0)
    assert plan.reserve == 2.0
    assert all(lo >= 2.0 for lo, _ in plan.intervals)


def test_single_sample_plan():
    plan = compute_auction([3.0], delta=0.5, h_max=5.0)
    assert plan.reserve in (0.0, 3.0)


def test_learner_preconditions():
    with pytest.raises(ValueError):
        compute_auction([], 0.1, 1.0)
    with pytest.raises(ValueError):
        compute_auction([1.0], 0.0, 2.0)
    with pytest.raises(ValueError):
        compute_auction([1.0], 1.0, 2.0)


def test_learner_recovers_bimodal_plan(bimodal_small):
    hits = 0
    trials = 100
    for t in range(trials):
        xs = sample(bimodal_small, 10_000, np.random.SeedSequence([31, t]))
        plan = compute_auction(xs, delta=0.05, h_max=5.0)
        good = plan.reserve == 1.0 and len(plan.intervals) == 1
        if good:
            lo, hi = plan.intervals[0]
            good = lo == 1.0 and 1.0 < hi <= 5.0
        hits += good
    assert hits >= 95


def test_learner_deterministic(bimodal_small):
    xs = sample(bimodal_small, 500, 3)
    a = compute_auction(xs, 0.1, 5.0)
    b = compute_auction(list(xs), 0.1, 5.0)
    assert a == b and a.to_json() == b.to_json()


def test_plan_invariants_random_sample_sets():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        m = int(rng.integers(1, 12))
        xs = np.round(rng.uniform(0, 8, size=m), 1)
        plan = compute_auction(xs, delta=float(rng.uniform(0.01, 0.9)), h_max=8.0)
        prev_hi = -math.inf
        for lo, hi in plan.intervals:
            assert 0.0 <= lo < hi <= 8.0
            assert lo >= prev_hi
            assert hi > plan.reserve
            assert not (lo < plan.reserve < hi)
            prev_hi = hi
        assert 0.0 <= plan.reserve <= 8.0


def test_learned_plan_dominates_pessimistic_optimum(bimodal_small):
    # whenever the pessimistic curve really lies below the truth, the
    # learned plan's true induced curve majorizes the pessimistic optimum
    truth = exact_revenue_curve(bimodal_small)
    grid = np.linspace(0, 1, 501)
    truth_g = truth.evaluate(grid)
    m, delta = 200, 0.1
    eps = dkw_epsilon(m, delta)
    checked = 0
    for t in range(200):
        xs = sample(bimodal_small, m, np.random.SeedSequence([77, t]))
        eq = EmpiricalQuantile.from_samples(xs, h_max=5.0)
        lo_c = r_min_curve(eq, eps)
        if not np.all(lo_c.evaluate(grid) <= truth_g + 1e-12):
            continue
        checked += 1
        star = optimal_induced(min_price_runs(eq, eps), 5.0)
        plan = compute_auction(xs, delta, 5.0)
        alg = induced_curve(bimodal_small.price_runs, plan)
        probe = np.unique(np.concatenate([grid, [q for q, _ in star.vertices]]))
        assert np.all(alg.evaluate(probe) >= star.evaluate(probe) - 1e-9)
    assert checked > 150


def test_required_samples_values():
    assert required_samples_iid(0.2, 0.1, 1, 1.0, 1.0) == 1349
    assert required_samples_iid(0.2, 0.1, 1, 1.0, 2.0) == 5393  # ~4x for 2x H
    assert required_samples_iid(0.2, 0.1, 2, 1.0, 1.0) == 5393  # ~4x for 2x n
    with pytest.raises(ValueError):
        required_samples_iid(0.1, 0.2, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        required_samples_iid(0.2, 0.1, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        required_samples_iid(0.2, 0.1, 1, 0.5, 1.0)


def test_loss_bound_values():
    assert loss_bound(50, 2 / math.e, 1, 1.0) == pytest.approx(0.3, abs=1e-12)
    assert loss_bound(200, 0.05, 3, 10.0) == pytest.approx(8.6429, abs=5e-4)
    assert loss_bound(2_000_000, 0.1, 1, 1.0) < 3e-3


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=1, max_size=25),
    st.floats(min_value=0.01, max_value=0.95),
)
def test_compute_auction_total_function(xs, delta):
    plan = compute_auction(xs, delta, h_max=6.0)
    assert isinstance(plan, IroningPlan)
