import math

import numpy as np
import pytest

from myerson_lab.engine import allocate, interim_payments, ironed_key, run_auction
from myerson_lab.environments import Environment
from myerson_lab.learner import IroningPlan

from conftest import random_aligned_plan, random_discrete, random_slot_env
from reference import ironed_key_scan, myerson_payment, total_interim_payment, whole_profile_payment

EX2_PLAN = IroningPlan(intervals=((1.0, 5.0),), reserve=1.0)
SINGLE10 = Environment.single_item(10)


def test_ironed_key():
    assert ironed_key(3.0, EX2_PLAN) == 1.0
    assert ironed_key(5.0, EX2_PLAN) == 5.0
    assert ironed_key(0.5, EX2_PLAN) is None
    assert ironed_key(2.0, IroningPlan.empty()) == 2.0


def test_ironed_key_bisects_as_a_scan_does():
    # bids at every lo and hi (touching intervals share one), at the
    # reserve, between intervals, just either side of each endpoint and
    # beyond the last interval, on plans of 0 to 120 intervals
    rng = np.random.default_rng(31)
    for count in (0, 1, 2, 3, 7, 30, 120):
        for _ in range(4):
            points = np.unique(rng.uniform(0.0, 100.0, size=2 * count + 1)).tolist()
            # a third of the intervals reach the next one's lo
            intervals = tuple(
                (lo, nxt if rng.random() < 0.3 and nxt < math.inf else hi)
                for lo, hi, nxt in zip(points[1::2], points[2::2], points[3::2] + [math.inf])
            )
            plan = IroningPlan(intervals, float(rng.choice([0.0, *points[:2]])))
            ends = [e for iv in plan.intervals for e in iv]
            bids = [0.0, plan.reserve, *points, *ends, *rng.uniform(0.0, 110.0, size=20).tolist()]
            bids += [math.nextafter(e, d) for e in ends for d in (-math.inf, math.inf)]
            for b in bids:
                assert ironed_key(b, plan) == ironed_key_scan(b, plan), (b, plan)


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
    assert total_interim_payment(out) == pytest.approx(1.0, abs=1e-12)


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
        env_m = Environment.uniform_matroid(k, n)
        env_k = Environment.k_unit(k, n)
        alloc = allocate(env_m, IroningPlan.empty(), bids)
        assert alloc == allocate(env_k, IroningPlan.empty(), bids)
    assert alloc == [0.3] * 10  # the last case: three units over ten tied bidders


def test_matroid_partition_tie_expectation():
    # two tied bidders share one block; a third has its own block
    env = Environment.partition_matroid([0, 0, 1], [1, 1])
    alloc = allocate(env, IroningPlan.empty(), [2.0, 2.0, 2.0])
    assert alloc == [0.5, 0.5, 1.0]
    # a nine-way tie in a capacity-2 part and a two-way tie in a
    # capacity-1 part: each part is its own k-unit auction
    env = Environment.partition_matroid([0, 1] + [0] * 7 + [1, 0], [2, 1])
    alloc = allocate(env, IroningPlan.empty(), [2.0] * 11)
    part0 = allocate(Environment.k_unit(2, 9), IroningPlan.empty(), [2.0] * 9)
    part1 = allocate(Environment.k_unit(1, 2), IroningPlan.empty(), [2.0] * 2)
    assert [alloc[i] for i in (0, 2, 3, 4, 5, 6, 7, 8, 10)] == part0
    assert [alloc[i] for i in (1, 9)] == part1


def test_matroid_realized_alloc_pinned():
    # bidder 0 takes one of part 0's two units; the other five tie on the
    # ironed key 1.0, and the literals pin which of them each seed's
    # uniformly random tie order admits
    env = Environment.partition_matroid([0, 1, 0, 1, 0, 1], [2, 1])
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
    env = Environment.partition_matroid([0, 0, 1], [1, 1])
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
            env = Environment.partition_matroid(
                [int(rng.integers(0, n_blocks)) for _ in range(n)],
                [int(rng.integers(0, 3)) for _ in range(n_blocks)],
            )
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


def _constructor_plan(rng, grid) -> IroningPlan:
    """Separate or touching intervals on grid points, built by the
    constructor so that canonicalization cannot move them."""
    ends = sorted(set(rng.choice(grid, size=int(rng.integers(0, 6))).tolist()))
    reserve = float(rng.choice([0.0, *grid]))
    intervals = []
    for lo, hi in zip(ends, ends[1:]):
        free = not intervals or lo >= intervals[-1][1]
        if free and hi > reserve and not lo < reserve < hi and rng.random() < 0.7:
            intervals.append((lo, hi))
    return IroningPlan(tuple(intervals), reserve)


def _corpus_env(rng, case: int) -> Environment:
    """Cycles through single item, k units, positions, a uniform matroid and
    a partition matroid of 2-3 parts, one of them of capacity 0."""
    n = int(rng.integers(1, 6))
    kind = case % 5
    if kind == 0:
        return Environment.single_item(n)
    if kind == 1:
        return Environment.k_unit(int(rng.integers(1, n + 1)), n)
    if kind == 2:
        weights = sorted(rng.choice([0.0, 0.3, 0.6, 1.0, float(rng.uniform())], size=int(rng.integers(1, n + 1))))
        return Environment.position(weights[::-1], n)
    if kind == 3:
        return Environment.uniform_matroid(int(rng.integers(0, n + 2)), n)
    parts = int(rng.integers(2, 4))
    caps = [0] + [int(rng.integers(1, 3)) for _ in range(parts - 1)]
    rng.shuffle(caps)
    n = max(n, 2)
    return Environment.partition_matroid([int(rng.integers(0, parts)) for _ in range(n)], caps)


def test_interim_payments_equal_reference_on_corpus():
    # interim_payments reads every piece off the block's sorted keys,
    # myerson_payment re-runs allocate on it; both do the same float
    # arithmetic, so they must agree to the bit
    rng = np.random.default_rng(23)
    grid = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.5]
    for case in range(2500):
        env = _corpus_env(rng, case)
        plan = _constructor_plan(rng, grid)
        endpoints = [e for iv in plan.intervals for e in iv]
        special = [0.0, plan.reserve, *endpoints, *grid, float(rng.uniform(0.0, 8.0))]
        bids = [float(rng.choice(special)) for _ in range(env.n)]
        pays = interim_payments(env, plan, bids)
        assert pays == [myerson_payment(env, plan, bids, i) for i in range(env.n)]
        assert run_auction(env, plan, bids, case).interim_payment == tuple(pays)


def _large_block_env(rng, case: int) -> Environment:
    """k_unit(n/2, n), positions with many slots, or a partition matroid of
    1-3 parts of up to 64 bidders."""
    n = int(rng.integers(8, 65))
    if case % 3 == 0:
        return Environment.k_unit(n // 2, n)
    if case % 3 == 1:
        weights = np.sort(rng.uniform(size=int(rng.integers(n // 2, n + 1))))[::-1]
        return Environment.position(weights.tolist(), n)
    parts = int(rng.integers(1, 4))
    return Environment.partition_matroid(
        [int(rng.integers(0, parts)) for _ in range(n)], [int(rng.integers(1, n)) for _ in range(parts)]
    )


def test_interim_payments_equal_reference_on_large_blocks():
    # the running sum per block must match the per-bidder reference to the
    # bit on long piece lists: continuous bids, and bids tied on a grid,
    # at the reserve and at the endpoints of plans with two or more intervals
    rng = np.random.default_rng(29)
    grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.5]
    for case in range(24):
        env = _large_block_env(rng, case)
        plan = _constructor_plan(rng, grid)
        while len(plan.intervals) < 2:
            plan = _constructor_plan(rng, grid)
        if case % 2:
            bids = rng.uniform(0.0, 8.0, size=env.n).tolist()
        else:
            special = [plan.reserve, *(e for iv in plan.intervals for e in iv), *grid]
            bids = [float(rng.choice(special)) for _ in range(env.n)]
        pays = interim_payments(env, plan, bids)
        assert pays == [myerson_payment(env, plan, bids, i) for i in range(env.n)]
        assert run_auction(env, plan, bids, case).interim_payment == tuple(pays)


def _partition_case(rng, grid):
    """A partition matroid of 6-12 bidders in 2-3 parts of capacity 1-3,
    a plan with at least one interval, and continuous bids."""
    n, parts = int(rng.integers(6, 13)), int(rng.integers(2, 4))
    env = Environment.partition_matroid(
        [int(rng.integers(0, parts)) for _ in range(n)], [int(rng.integers(1, 4)) for _ in range(parts)]
    )
    plan = _constructor_plan(rng, grid)
    while not plan.intervals:
        plan = _constructor_plan(rng, grid)
    return env, plan, rng.uniform(0.0, 8.0, size=n).tolist()


def test_partition_payments_split_only_at_their_own_block_keys():
    # each block is priced on its own breakpoints, as the block-alone
    # reference is; splitting also at other parts' keys moves no share but
    # can round the integral differently, and this corpus holds such profiles
    rng = np.random.default_rng(37)
    grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.5]
    split_differently = 0
    for _ in range(600):
        env, plan, bids = _partition_case(rng, grid)
        pays = interim_payments(env, plan, bids)
        assert pays == [myerson_payment(env, plan, bids, i) for i in range(env.n)]
        whole = [whole_profile_payment(env, plan, bids, i) for i in range(env.n)]
        assert pays == pytest.approx(whole, rel=1e-14, abs=1e-14)
        split_differently += pays != whole
    assert split_differently >= 1


def test_block_payments_ignore_other_blocks_bids():
    # redrawing every bid outside one block, four times per block, leaves
    # that block's payments unchanged to the bit
    rng = np.random.default_rng(41)
    grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.5]
    for _ in range(300):
        env, plan, bids = _partition_case(rng, grid)
        pays = interim_payments(env, plan, bids)
        for members, _ in env.blocks:
            for _ in range(4):
                redrawn = rng.uniform(0.0, 8.0, size=env.n).tolist()
                for i in members:
                    redrawn[i] = bids[i]
                again = interim_payments(env, plan, redrawn)
                assert [again[i] for i in members] == [pays[i] for i in members]


def test_realized_payments_pinned():
    # recorded before payments were read off the sorted keys; touching
    # intervals [1,3) and [3,5) split the bidders into two tie groups
    plan = IroningPlan(((1.0, 3.0), (3.0, 5.0)), reserve=1.0)
    bids = [4.0, 2.0, 3.0, 1.0, 3.5]
    position = Environment.position([1.0, 0.6, 0.3], 5)
    partition = Environment.partition_matroid([0, 1, 0, 1, 0], [2, 1])
    expected = {
        (position, 0): (1.6105263157894736, 0.0, 0.8052631578947369, 0.0, 2.6842105263157894),
        (position, 1): (2.6842105263157894, 0.0, 1.6105263157894738, 0.0, 0.8052631578947368),
        (position, 3): (0.8052631578947368, 0.0, 1.6105263157894738, 0.0, 2.6842105263157894),
        (partition, 0): (3.0, 0.0, 0.0, 1.0, 3.0),
        (partition, 1): (3.0, 1.0, 3.0, 0.0, 0.0),
        (partition, 3): (0.0, 1.0, 3.0, 0.0, 3.0),
    }
    for (env, seed), realized in expected.items():
        assert run_auction(env, plan, bids, seed).realized_payment == realized
    assert run_auction(position, plan, bids, 0).interim_payment == (
        1.7000000000000002, 0.0, 1.7000000000000004, 0.0, 1.7000000000000002
    )
    assert run_auction(partition, plan, bids, 0).interim_payment == (2.0, 0.5, 2.0, 0.5, 1.9999999999999998)
