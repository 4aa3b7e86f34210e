import itertools
import math

import numpy as np
import pytest

from myerson_lab.engine import allocate, ironed_key
from myerson_lab.environments import Environment, MatroidSpec, is_independent
from myerson_lab.learner import IroningPlan

from conftest import random_matroid_env
from reference import (
    greedy_max_weight,
    interim_allocation_derivative_kunit,
    interim_allocation_integral_kunit,
    interim_allocation_kunit,
)


def brute_force_max_weight(spec, weights):
    best = 0.0
    n = spec.n_elements
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            if is_independent(spec, combo):
                value = sum(weights[e] for e in combo if weights[e] > 0)
                best = max(best, value)
    return best


def matroid_axioms_hold(spec):
    n = spec.n_elements
    sets = []
    for r in range(n + 1):
        sets.extend(itertools.combinations(range(n), r))
    indep = {s for s in sets if is_independent(spec, s)}
    if () not in indep:
        return False
    for s in indep:  # downward closure
        for e in s:
            if tuple(x for x in s if x != e) not in indep:
                return False
    for s in indep:  # exchange
        for t in indep:
            if len(t) < len(s):
                if not any(tuple(sorted(set(t) | {e})) in indep for e in set(s) - set(t)):
                    return False
    return True


def test_uniform_matroid_independence():
    spec = MatroidSpec.uniform(2, 3)
    assert not is_independent(spec, {0, 1, 2})
    assert is_independent(spec, {0, 2})
    assert is_independent(spec, set())


def test_partition_matroid_independence():
    spec = MatroidSpec.partition([0, 0, 1], [1, 1])
    assert is_independent(spec, {0, 2})
    assert not is_independent(spec, {0, 1})
    assert is_independent(spec, set())


def test_matroid_axioms_exhaustive():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        if rng.random() < 0.5:
            spec = MatroidSpec.uniform(int(rng.integers(0, n + 1)), n)
        else:
            n_blocks = int(rng.integers(1, n + 1))
            blocks = [int(rng.integers(0, n_blocks)) for _ in range(n)]
            caps = [int(rng.integers(0, 3)) for _ in range(n_blocks)]
            spec = MatroidSpec.partition(blocks, caps)
        assert matroid_axioms_hold(spec)


def test_greedy_simple():
    spec = MatroidSpec.uniform(2, 3)
    assert greedy_max_weight(spec, [3.0, 1.0, 2.0], [0, 1, 2]) == {0, 2}


def test_greedy_tie_break_follows_priority():
    spec = MatroidSpec.uniform(1, 3)
    assert greedy_max_weight(spec, [1.0, 1.0, 1.0], [2, 0, 1]) == {2}
    assert greedy_max_weight(spec, [1.0, 1.0, 1.0], [1, 2, 0]) == {1}


def test_greedy_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        if rng.random() < 0.5:
            spec = MatroidSpec.uniform(int(rng.integers(0, n + 1)), n)
        else:
            n_blocks = int(rng.integers(1, n + 1))
            spec = MatroidSpec.partition(
                [int(rng.integers(0, n_blocks)) for _ in range(n)],
                [int(rng.integers(0, 3)) for _ in range(n_blocks)],
            )
        weights = [float(w) for w in rng.uniform(-1, 5, size=n)]
        priority = list(rng.permutation(n))
        got = greedy_max_weight(spec, weights, priority)
        value = sum(weights[e] for e in got)
        assert value == pytest.approx(brute_force_max_weight(spec, weights), abs=1e-9)


def test_kunit_allocation_closed_forms():
    assert interim_allocation_kunit(0.5, 1, 2) == pytest.approx(0.5, abs=0)
    for q in np.linspace(0, 1, 21):
        assert interim_allocation_kunit(float(q), 1, 4) == pytest.approx(
            (1 - float(q)) ** 3, abs=1e-15
        )
        assert interim_allocation_kunit(float(q), 5, 5) == pytest.approx(1.0, abs=1e-12)
    assert interim_allocation_kunit(0.0, 3, 7) == 1.0


def test_kunit_derivative_special_cases():
    for q in np.linspace(0, 1, 11):
        assert interim_allocation_derivative_kunit(float(q), 1, 2) == -1.0
        assert interim_allocation_derivative_kunit(float(q), 4, 4) == 0.0
        assert interim_allocation_derivative_kunit(float(q), 2, 6) <= 0.0


def test_kunit_derivative_matches_finite_differences():
    h = 1e-5
    for n in range(2, 12):
        for k in range(1, n + 1):
            for q in np.linspace(0.05, 0.95, 19):
                q = float(q)
                fd = (
                    interim_allocation_kunit(q + h, k, n)
                    - interim_allocation_kunit(q - h, k, n)
                ) / (2 * h)
                assert fd == pytest.approx(
                    interim_allocation_derivative_kunit(q, k, n), abs=1e-6
                )


def test_kunit_derivative_peak_location():
    # |y'| peaks at q = (k-1)/(n-2) for 1 < k < n-1
    for n, k in ((6, 3), (9, 4), (12, 5)):
        q_star = (k - 1) / (n - 2)
        grid = np.linspace(0, 1, 10_001)
        vals = [abs(interim_allocation_derivative_kunit(float(q), k, n)) for q in grid]
        q_best = float(grid[int(np.argmax(vals))])
        assert q_best == pytest.approx(q_star, abs=2e-4)


def test_kunit_derivative_bound():
    grid = np.linspace(0, 1, 10_001)
    for n in range(1, 21):
        for k in range(1, n + 1):
            worst = max(abs(interim_allocation_derivative_kunit(float(q), k, n)) for q in grid)
            assert worst <= (n - 1) + 1e-9


def test_kunit_integral_matches_quadrature():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(40)
    for n, k in ((2, 1), (5, 2), (7, 7), (9, 4)):
        for x in (0.2, 0.55, 1.0):
            t = 0.5 * x * (nodes + 1.0)
            approx = 0.5 * x * float(
                np.sum(weights * [interim_allocation_kunit(float(tt), k, n) for tt in t])
            )
            assert interim_allocation_integral_kunit(x, k, n) == pytest.approx(approx, abs=1e-12)


def test_kunit_win_probability_monte_carlo():
    # rank simulation: bidder at quantile q wins a unit iff fewer than k
    # opponents have lower quantile
    rng = np.random.default_rng(14)
    trials = 100_000
    for n, k, q in ((3, 1, 0.3), (5, 2, 0.5), (4, 4, 0.9), (5, 3, 0.2)):
        opp = rng.uniform(size=(trials, n - 1))
        wins = (opp < q).sum(axis=1) < k
        p_hat = float(wins.mean())
        p_true = interim_allocation_kunit(q, k, n)
        sigma = math.sqrt(max(p_true * (1 - p_true), 1e-12) / trials)
        assert abs(p_hat - p_true) <= max(3 * sigma, 1e-4)


def test_matroid_interim_slope_bounded():
    # numerical slope of the Monte Carlo interim allocation stays within
    # n - 1 (plus statistical tolerance) for random small matroids
    rng = np.random.default_rng(15)
    for _ in range(4):
        n = int(rng.integers(3, 5))
        n_blocks = int(rng.integers(1, n))
        spec = MatroidSpec.partition(
            [int(rng.integers(0, n_blocks)) for _ in range(n)],
            [int(rng.integers(1, 3)) for _ in range(n_blocks)],
        )
        env = Environment.with_matroid(spec, n)
        plan = IroningPlan.empty()
        grid = np.linspace(0.05, 0.95, 7)
        trials = 4000
        y = []
        for q in grid:
            wins = 0.0
            for t in range(trials):
                opp_q = rng.uniform(size=n - 1)
                bids = [0.0] * n
                bids[0] = 1.0 - float(q)
                for j, oq in enumerate(opp_q, start=1):
                    bids[j] = 1.0 - float(oq)
                wins += allocate(env, plan, bids)[0]
            y.append(wins / trials)
        sigma = 1.0 / math.sqrt(trials)
        for (q0, y0), (q1, y1) in zip(zip(grid, y), zip(grid[1:], y[1:])):
            slope = abs(y1 - y0) / (q1 - q0)
            assert slope <= (n - 1) + 3 * sigma / (q1 - q0)


def test_environment_json_round_trip():
    for env in (
        Environment.single_item(3),
        Environment.k_unit(2, 5),
        Environment.position([1.0, 0.6, 0.3], 5),
        Environment.with_matroid(MatroidSpec.partition([0, 0, 1, 1], [1, 1]), 4),
        Environment.with_matroid(MatroidSpec.uniform(2, 4), 4),
    ):
        assert Environment.from_json(env.to_json()) == env


def test_environment_validation():
    with pytest.raises(ValueError):
        Environment.k_unit(0, 3)
    with pytest.raises(ValueError):
        Environment.k_unit(4, 3)
    with pytest.raises(ValueError):
        Environment.position([0.5, 1.0], 3)  # increasing
    with pytest.raises(ValueError):
        Environment.position([1.0] * 4, 3)  # too many slots


def test_slot_weights_padding():
    assert Environment.single_item(3).slot_weights() == (1.0, 0.0, 0.0)
    assert Environment.k_unit(2, 4).slot_weights() == (1.0, 1.0, 0.0, 0.0)
    assert Environment.position([1.0, 0.4], 3).slot_weights() == (1.0, 0.4, 0.0)


def test_blocks_decomposition():
    assert Environment.position([1.0, 0.4], 3).blocks == (((0, 1, 2), (1.0, 0.4, 0.0)),)
    assert Environment.with_matroid(MatroidSpec.uniform(2, 3), 3).blocks == (
        ((0, 1, 2), (1.0, 1.0, 0.0)),
    )
    assert Environment.with_matroid(MatroidSpec.uniform(5, 2), 2).blocks == (((0, 1), (1.0, 1.0)),)
    # part 1 is empty and dropped; part 2's capacity exceeds its size
    env = Environment.with_matroid(MatroidSpec.partition([0, 2, 0, 2, 0], [1, 3, 4]), 5)
    assert env.blocks == (((0, 2, 4), (1.0, 0.0, 0.0)), ((1, 3), (1.0, 1.0)))
    assert env.blocks is env.blocks


def test_blocks_allocate_as_greedy_selection_over_every_tie_order():
    # allocate serves each block as its own rank auction; greedy selection
    # on the whole matroid, averaged over all n! priority orders, must give
    # the same expected allocation.  A rejected bid weighs 0, which greedy
    # skips; an accepted one weighs its key + 1, since a bid of 0 at
    # reserve 0 is accepted with key 0.
    rng = np.random.default_rng(71)
    grid = [0.0, 1.0, 2.0, 3.0]
    tied = ironed = 0
    for _ in range(300):
        env = random_matroid_env(rng)
        bids = [float(b) for b in rng.choice(grid, size=env.n)]
        reserve = float(rng.choice(grid[:3]))
        intervals = []
        if rng.random() < 0.6:
            lo = float(rng.choice(grid[:3]))
            intervals.append((lo, float(rng.choice([h for h in grid + [4.0] if h > lo]))))
        plan = IroningPlan.canonical(intervals, reserve)
        keys = [ironed_key(b, plan) for b in bids]
        weights = [0.0 if k is None else k + 1.0 for k in keys]
        orders = list(itertools.permutations(range(env.n)))
        served = [0] * env.n
        for order in orders:
            for e in greedy_max_weight(env.matroid, weights, order):
                served[e] += 1
        want = [c / len(orders) for c in served]
        assert allocate(env, plan, bids) == pytest.approx(want, abs=1e-12)
        accepted = [k for k in keys if k is not None]
        tied += len(set(accepted)) < len(accepted)
        ironed += bool(plan.intervals)
    assert tied > 50 and ironed > 50
