import math

import numpy as np
import pytest

from myerson_lab.engine import (
    allocate,
    interim_payments,
    ironed_key,
    myerson_payment,
    run_auction,
)
from myerson_lab.environments import Environment, MatroidSpec
from myerson_lab.learner import IroningPlan

from conftest import random_aligned_plan, random_discrete, random_slot_env

EX2_PLAN = IroningPlan(intervals=((1.0, 5.0),), reserve=1.0)
SINGLE10 = Environment.single_item(10)


def test_ironed_key():
    assert ironed_key(3.0, EX2_PLAN) == 1.0
    assert ironed_key(5.0, EX2_PLAN) == 5.0
    assert ironed_key(0.5, EX2_PLAN) is None
    assert ironed_key(2.0, IroningPlan.empty()) == 2.0


def test_allocate_example2_lone_high_bidder():
    bids = [5.0] + [1.0] * 9
    alloc = allocate(SINGLE10, EX2_PLAN, bids)
    assert alloc[0] == 1.0
    assert all(a == 0.0 for a in alloc[1:])


def test_allocate_example2_all_ones():
    alloc = allocate(SINGLE10, EX2_PLAN, [1.0] * 10)
    assert all(a == pytest.approx(0.1, abs=0) for a in alloc)


def test_allocate_position_tied_pair():
    env = Environment.position([1.0, 0.4], 3)
    alloc = allocate(env, IroningPlan.empty(), [9.0, 7.0, 7.0])
    assert alloc == [1.0, pytest.approx(0.2), pytest.approx(0.2)]


def test_allocate_rejects_wrong_bid_count():
    with pytest.raises(ValueError):
        allocate(SINGLE10, EX2_PLAN, [1.0] * 3)


def test_payment_example2_lone_high_bidder():
    bids = [5.0] + [1.0] * 9
    assert myerson_payment(SINGLE10, EX2_PLAN, bids, 0) == 46 / 10
    for i in range(1, 10):
        assert myerson_payment(SINGLE10, EX2_PLAN, bids, i) == 0.0


def test_payment_example2_two_high_bidders():
    bids = [5.0, 5.0] + [1.0] * 8
    assert myerson_payment(SINGLE10, EX2_PLAN, bids, 0) == 2.5
    out = run_auction(SINGLE10, EX2_PLAN, bids, seed=5)
    winners = [i for i, a in enumerate(out.realized_alloc) if a > 0]
    assert len(winners) == 1 and winners[0] in (0, 1)
    assert out.realized_payment[winners[0]] == 5.0


def test_payment_vickrey_reduction():
    env = Environment.single_item(2)
    assert myerson_payment(env, IroningPlan.empty(), [3.0, 7.0], 1) == 3.0
    assert myerson_payment(env, IroningPlan.empty(), [3.0, 7.0], 0) == 0.0


def test_run_auction_all_rejected():
    out = run_auction(SINGLE10, IroningPlan.canonical([], 6.0), [5.0] * 10, seed=0)
    assert all(a == 0.0 for a in out.interim_alloc)
    assert all(p == 0.0 for p in out.interim_payment)
    assert all(p == 0.0 for p in out.realized_payment)


def test_run_auction_all_ones_realized_price():
    out = run_auction(SINGLE10, EX2_PLAN, [1.0] * 10, seed=9)
    winners = [i for i, a in enumerate(out.realized_alloc) if a > 0]
    assert len(winners) == 1
    assert out.realized_payment[winners[0]] == 1.0
    assert out.total_interim_payment() == pytest.approx(1.0, abs=1e-12)


def test_run_auction_k_equals_n_no_competition():
    env = Environment.k_unit(4, 4)
    out = run_auction(env, IroningPlan.empty(), [2.0, 3.0, 1.0, 5.0], seed=1)
    assert out.interim_alloc == (1.0, 1.0, 1.0, 1.0)
    assert out.interim_payment == (0.0, 0.0, 0.0, 0.0)


def test_run_auction_deterministic_given_seed():
    bids = [1.0] * 10
    a = run_auction(SINGLE10, EX2_PLAN, bids, seed=123)
    b = run_auction(SINGLE10, EX2_PLAN, bids, seed=123)
    assert a == b


def test_matroid_allocation_expectation_matches_uniform_split():
    # a rank-k uniform matroid must reproduce the k-unit fractional split
    # exactly, also for a tie of more than eight bidders
    for k, bids in ((2, [3.0, 3.0, 3.0, 1.0]), (3, [2.0] * 10)):
        n = len(bids)
        env_m = Environment.with_matroid(MatroidSpec.uniform(k, n), n)
        env_k = Environment.k_unit(k, n)
        alloc = allocate(env_m, IroningPlan.empty(), bids)
        assert alloc == allocate(env_k, IroningPlan.empty(), bids)
    assert alloc == [0.3] * 10  # the last case: three units over ten tied bidders


def test_matroid_partition_tie_expectation():
    # two tied bidders share one block; a third has its own block
    spec = MatroidSpec.partition([0, 0, 1], [1, 1])
    env = Environment.with_matroid(spec, 3)
    alloc = allocate(env, IroningPlan.empty(), [2.0, 2.0, 2.0])
    assert alloc == [0.5, 0.5, 1.0]
    # a nine-way tie in a capacity-2 part and a two-way tie in a
    # capacity-1 part: each part is its own k-unit auction
    spec = MatroidSpec.partition([0, 1] + [0] * 7 + [1, 0], [2, 1])
    env = Environment.with_matroid(spec, 11)
    alloc = allocate(env, IroningPlan.empty(), [2.0] * 11)
    part0 = allocate(Environment.k_unit(2, 9), IroningPlan.empty(), [2.0] * 9)
    part1 = allocate(Environment.k_unit(1, 2), IroningPlan.empty(), [2.0] * 2)
    assert [alloc[i] for i in (0, 2, 3, 4, 5, 6, 7, 8, 10)] == part0
    assert [alloc[i] for i in (1, 9)] == part1


def test_matroid_realized_alloc_pinned():
    # bidder 0 takes one of part 0's two units; the other five tie on the
    # ironed key 1.0, and the literals pin which of them each seed's
    # uniformly random tie order admits
    env = Environment.with_matroid(MatroidSpec.partition([0, 1, 0, 1, 0, 1], [2, 1]), 6)
    plan = IroningPlan.canonical([(1.0, 3.0)], 0.5)
    bids = [4.0, 2.0, 2.0, 1.0, 1.0, 2.5]
    expected = {
        0: (1.0, 0.0, 0.0, 1.0, 1.0, 0.0),
        1: (1.0, 0.0, 1.0, 0.0, 0.0, 1.0),
        4: (1.0, 0.0, 1.0, 1.0, 0.0, 0.0),
        5: (1.0, 0.0, 0.0, 0.0, 1.0, 1.0),
    }
    for seed, realized in expected.items():
        assert run_auction(env, plan, bids, seed).realized_alloc == realized


def test_matroid_payments_threshold():
    spec = MatroidSpec.partition([0, 0, 1], [1, 1])
    env = Environment.with_matroid(spec, 3)
    pays = interim_payments(env, IroningPlan.empty(), [4.0, 2.0, 3.0])
    assert pays[0] == pytest.approx(2.0)  # beats block-mate at 2
    assert pays[1] == 0.0
    assert pays[2] == 0.0  # alone in its block


def test_individual_rationality_and_monotonicity_random():
    rng = np.random.default_rng(20)
    values = [0.5, 1.0, 2.0, 3.0, 5.0]
    for _ in range(300):
        env = random_slot_env(rng, n_max=4)
        plan = IroningPlan.canonical(
            [(1.0, 3.0)] if rng.random() < 0.5 else [], float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        )
        bids = [float(rng.choice(values)) for _ in range(env.n)]
        alloc = allocate(env, plan, bids)
        pays = interim_payments(env, plan, bids)
        for i in range(env.n):
            assert pays[i] <= bids[i] * alloc[i] + 1e-12
            assert pays[i] >= -1e-12
            if alloc[i] == 0.0:
                assert pays[i] == 0.0
        i = int(rng.integers(0, env.n))
        grid = np.linspace(0, 5.0, 21)
        prev = -1.0
        for z in grid:
            bb = list(bids)
            bb[i] = float(z)
            x = allocate(env, plan, bb)[i]
            assert x >= prev - 1e-12
            prev = x


def test_truthfulness_random_instances():
    rng = np.random.default_rng(21)
    values = [0.5, 1.0, 2.0, 3.0, 5.0]
    for _ in range(120):
        if rng.random() < 0.25:
            n = int(rng.integers(2, 5))
            n_blocks = int(rng.integers(1, n + 1))
            spec = MatroidSpec.partition(
                [int(rng.integers(0, n_blocks)) for _ in range(n)],
                [int(rng.integers(0, 3)) for _ in range(n_blocks)],
            )
            env = Environment.with_matroid(spec, n)
        else:
            env = random_slot_env(rng, n_max=4)
        plan = IroningPlan.canonical(
            [(1.0, 3.0)] if rng.random() < 0.5 else [], float(rng.choice([0.0, 1.0, 2.0]))
        )
        bids = [float(rng.choice(values)) for _ in range(env.n)]
        for i in range(env.n):
            v = bids[i]
            u_true = v * allocate(env, plan, bids)[i] - myerson_payment(env, plan, bids, i)
            for dev in np.linspace(0, 5.0, 11):
                bb = list(bids)
                bb[i] = float(dev)
                u_dev = v * allocate(env, plan, bb)[i] - myerson_payment(env, plan, bb, i)
                assert u_dev <= u_true + 1e-9


def test_realized_payments_average_to_interim():
    env = Environment.single_item(3)
    plan = EX2_PLAN
    bids = [5.0, 1.0, 1.0]
    interim = interim_payments(env, plan, bids)
    total = np.zeros(3)
    trials = 20_000
    for s in range(trials):
        out = run_auction(env, plan, bids, seed=s)
        total += out.realized_payment
    avg = total / trials
    for i in range(3):
        assert avg[i] == pytest.approx(interim[i], abs=3 * 2.0 / math.sqrt(trials) + 1e-9)


def test_second_price_with_reserve_reduction():
    rng = np.random.default_rng(22)
    env = Environment.single_item(4)
    for _ in range(200):
        reserve = float(rng.choice([0.0, 1.0, 2.5]))
        plan = IroningPlan.canonical([], reserve)
        bids = [float(b) for b in rng.uniform(0, 5, size=4)]
        alloc = allocate(env, plan, bids)
        pays = interim_payments(env, plan, bids)
        top = max(bids)
        if top < reserve:
            assert all(a == 0.0 for a in alloc)
            continue
        winner = bids.index(top)
        if bids.count(top) == 1:
            assert alloc[winner] == 1.0
            second = max([b for j, b in enumerate(bids) if j != winner], default=0.0)
            assert pays[winner] == pytest.approx(max(second, reserve), abs=1e-12)
