import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myerson_lab.curves import curve_from_price_runs, induced_curve
from myerson_lab.distributions import sample
from myerson_lab.empirical import EmpiricalQuantile, dkw_epsilon, min_price_runs, r_min_curve
from myerson_lab.learner import (
    IroningPlan,
    _count_plans,
    _row_groups,
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
    truth = curve_from_price_runs(bimodal_small.price_runs)
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
    with pytest.raises(ValueError, match="h_max must be >= 0"):
        required_samples_iid(0.2, 0.1, 1, 1.0, -1.0)


def test_loss_bound_values():
    assert loss_bound(50, 2 / math.e, 1, 1.0) == pytest.approx(0.3, abs=1e-12)
    assert loss_bound(200, 0.05, 3, 10.0) == pytest.approx(8.6429, abs=5e-4)
    assert loss_bound(2_000_000, 0.1, 1, 1.0) < 3e-3
    with pytest.raises(ValueError, match="n must be >= 1"):
        loss_bound(100, 0.1, 0, 1.0)
    with pytest.raises(ValueError, match="h_max must be >= 0"):
        loss_bound(100, 0.1, 1, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=1, max_size=25),
    st.floats(min_value=0.01, max_value=0.95),
)
def test_compute_auction_total_function(xs, delta):
    plan = compute_auction(xs, delta, h_max=6.0)
    assert isinstance(plan, IroningPlan)


def _count_vectors(s: int, m: int) -> np.ndarray:
    """Every vector of s nonnegative counts summing to m, as rows."""
    heads = [c for c in itertools.product(range(m + 1), repeat=s - 1) if sum(c) <= m]
    return np.array([(*c, m - sum(c)) for c in heads])


def _learns_as_compute_auction(values, counts, deltas, h_max: float) -> list:
    """Plans of the count rows in one call, each checked ``==`` to
    ``compute_auction`` on the row's samples; the radii used."""
    values = np.asarray(values, dtype=float)
    epsilons = [dkw_epsilon(int(c.sum()), d) for c, d in zip(counts, deltas)]
    plans, ids = _count_plans(values, counts, np.array(epsilons), h_max)
    assert len(ids) == len(counts)
    for row, delta, plan in zip(counts, deltas, (plans[i] for i in ids)):
        assert plan == compute_auction(values.repeat(row), delta, h_max), (row.tolist(), delta)
    return epsilons


@pytest.mark.parametrize(
    "support, m, rows", [((1, 4, 10), 60, 1891), ((1, 2, 3, 7), 20, 1771)], ids=["1-4-10-m60", "1-2-3-7-m20"]
)
def test_every_count_vector_learns_what_compute_auction_learns(support, m, rows):
    counts = _count_vectors(len(support), m)
    assert len(counts) == rows
    # radii differ from row to row, so rows of one nonempty-run pattern mix radii
    deltas = np.array([0.01, 0.1, 0.5])[np.arange(rows) % 3]
    _learns_as_compute_auction(support, counts, deltas, 10.0)


def test_count_rows_of_random_laws_learn_what_compute_auction_learns():
    # atoms at 0, zero-count atoms, a radius per row, rows with radius >= 1,
    # and one law of 200 atoms in [9, 10), whose rows keep more than 64
    # grid points up to q* and so pass the hull's pruning passes
    rng = np.random.default_rng(36)
    seen = {"zero atom": 0, "zero count": 0, "no confidence": 0}
    for law in range(300):
        s = 200 if law == 0 else int(rng.integers(1, 7))
        grid = np.arange(9.0, 10.0, 0.004) if law == 0 else np.arange(0.0, 10.0625, 0.125)
        values = np.sort(rng.choice(grid, size=s, replace=False))
        if rng.random() < 0.3:
            values[0] = 0.0
        r = int(rng.integers(1, 30))
        counts = rng.integers(0, 40 if law == 0 else 5, size=(r, s)) * (rng.random((r, s)) < 0.7)
        counts[counts.sum(axis=1) == 0, -1] = 1
        epsilons = _learns_as_compute_auction(values, counts, rng.uniform(0.01, 0.9, r), 10.0)
        seen["zero atom"] += values[0] == 0.0
        seen["zero count"] += int((counts == 0).sum())
        seen["no confidence"] += sum(e >= 1.0 for e in epsilons)
    assert min(seen.values()) > 0, seen


def test_count_rows_without_confidence_learn_the_empty_plan():
    epsilons = np.array([1.0, 4.5, dkw_epsilon(3, 0.5)])
    plans, ids = _count_plans(np.array([0.0, 2.0, 5.0]), np.array([[0, 3, 1], [2, 0, 0], [1, 1, 1]]), epsilons, 5.0)
    plans = [plans[i] for i in ids]
    assert plans[:2] == [IroningPlan.empty()] * 2
    assert plans[2] == compute_auction([0.0, 2.0, 5.0], 0.5, 5.0) != IroningPlan.empty()


def test_row_groups_partition_rows_as_unique_does():
    # the learner's plan marks are uint8, its nonempty-run masks bool, Monte Carlo's sorted draws float
    rng = np.random.default_rng(45)
    for kind in (lambda a: a.astype(np.uint8), lambda a: a > 0, lambda a: a / 2.0 - 0.5):
        for _ in range(60):
            r, c = int(rng.choice([1, 2, int(rng.integers(3, 200))])), int(rng.integers(1, 11))
            ints = rng.integers(0, int(rng.integers(1, 4)), size=(r, c))
            if rng.random() < 0.1:
                ints[:] = ints[0]  # all rows equal
            rows = kind(ints)
            groups, firsts = _row_groups(rows)
            unique, inverse = np.unique(rows, axis=0, return_inverse=True)
            assert len(firsts) == len(unique)
            assert (inverse[firsts][groups] == inverse).all()  # the same partition, numbered apart
            assert [int(np.flatnonzero(groups == g)[0]) for g in range(len(firsts))] == firsts.tolist()
