import itertools
import math
import time

import numpy as np
import pytest

from myerson_lab import oracle as oracle_module
from myerson_lab.curves import concave_envelope, curve_from_price_runs, induced_curve, pointwise_gap
from myerson_lab.distributions import ValueDistribution, sample
from myerson_lab.engine import _block_payments
from myerson_lab.environments import Environment
from myerson_lab.learner import IroningPlan, compute_auction
from myerson_lab.oracle import (
    GuardError,
    additive_loss,
    expected_revenue_enum,
    expected_revenue_mc,
    expected_revenue_quadrature,
    optimal_plan,
    virtual_welfare_bound,
)

from conftest import (
    env_kind,
    random_aligned_plan,
    random_discrete,
    random_grid_law,
    random_grid_plan,
    random_matroid_env,
    random_slot_env,
    rare_high_dist,
)
from reference import (
    almost_equal,
    enum_revenue_uncached,
    interim_allocation_integral_kunit,
    interim_allocation_kunit,
    mc_revenue_uncached,
    tail_probability,
    upper_value,
)


def test_optimal_plan_example2(bimodal_small):
    plan = optimal_plan(bimodal_small)
    assert plan == IroningPlan(intervals=((1.0, 5.0),), reserve=1.0)


def test_optimal_plan_point_mass():
    d = ValueDistribution.discrete([(2.5, 1.0)], h_max=3.0)
    plan = optimal_plan(d)
    assert plan.intervals == () and plan.reserve == 2.5


def test_optimal_plan_example1_revenue_equivalent():
    # the flat-topped curve admits several optimal plans; the canonical
    # argmax tie-break (smallest quantile, highest reserve) picks the
    # posted-price form, revenue-equal to ironing [1, H) with reserve 1
    d = rare_high_dist(10.0)
    plan = optimal_plan(d)
    env = Environment.single_item(2)
    iron_form = IroningPlan(intervals=((1.0, 10.0),), reserve=1.0)
    r_canonical = expected_revenue_enum(d, env, plan).expected_revenue
    r_iron = expected_revenue_enum(d, env, iron_form).expected_revenue
    assert r_canonical == pytest.approx(r_iron, abs=1e-12)
    assert r_canonical == pytest.approx(2.0 - 1.0 / 10.0, abs=1e-12)


def test_optimal_plan_refuses_continuous():
    d = ValueDistribution.uniform_mixture([(0.0, 1.0, 1.0)], h_max=1.0)
    with pytest.raises(ValueError):
        optimal_plan(d)


@pytest.mark.parametrize(
    "price",
    [
        lambda d, env: expected_revenue_enum(d, env, IroningPlan.empty()),
        virtual_welfare_bound,
        lambda d, env: additive_loss(d, env, IroningPlan.empty()),
    ],
    ids=["enum", "virtual_welfare_bound", "additive_loss"],
)
def test_exact_oracles_refuse_a_law_that_is_not_discrete(price):
    d = ValueDistribution.uniform_mixture([(0.0, 1.0, 1.0)], h_max=1.0)
    with pytest.raises(ValueError, match="requires a discrete distribution"):
        price(d, Environment.single_item(3))


def test_enum_example2_value(bimodal_small):
    env = Environment.single_item(10)
    rep = expected_revenue_enum(bimodal_small, env, optimal_plan(bimodal_small))
    by_hand = 0.9**10 * 1 + 10 * 0.1 * 0.9**9 * 4.6 + (1 - 0.9**10 - 10 * 0.1 * 0.9**9) * 5
    assert rep.expected_revenue == pytest.approx(by_hand, abs=1e-12)
    assert rep.method == "enumeration" and rep.stderr == 0.0


def test_enum_point_mass_reserve():
    d = ValueDistribution.discrete([(2.0, 1.0)], h_max=2.0)
    env = Environment.single_item(3)
    rep = expected_revenue_enum(d, env, IroningPlan.canonical([], 2.0))
    assert rep.expected_revenue == pytest.approx(2.0, abs=1e-12)


def test_enum_reserve_above_support_is_zero(bimodal_small):
    env = Environment.single_item(3)
    plan = IroningPlan.canonical([], 5.5)
    assert expected_revenue_enum(bimodal_small, env, plan).expected_revenue == 0.0


LAW8 = ValueDistribution.discrete(
    [(1, 0.30), (2, 0.20), (3, 0.12), (4, 0.08), (6, 0.05), (8, 0.10), (9, 0.10), (10, 0.05)], h_max=10.0
)


def test_enum_guard():
    # each block is enumerated over the C(s+n_b-1, n_b) multisets of its
    # members: C(47, 40) = 62,891,499 at n = 40, as one matroid block or
    # ranked; n = 1e9 is refused before a block of 1e9 members is built
    for n in (40, 10**9):
        for env in (Environment.uniform_matroid(1, n), Environment.single_item(n)):
            with pytest.raises(GuardError):
                expected_revenue_enum(LAW8, env, IroningPlan.empty())
    # the guard counts the n_b bids each multiset prices: 200,001 multisets
    # of 200,000 bids on two atoms, and one of 1e9 bids on one atom
    two = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    one = ValueDistribution.discrete([(2.0, 1.0)], h_max=2.0)
    for d, n in ((two, 200_000), (one, 10**9)):
        with pytest.raises(GuardError):
            expected_revenue_enum(d, Environment.single_item(n), IroningPlan.empty())
    # 200,000 bidders also overflow a float, but the count of bid prices is refused first
    with pytest.raises(GuardError, match="^40000200000 bid prices exceed the enumeration guard$"):
        expected_revenue_enum(two, Environment.single_item(200_000), IroningPlan.empty())


def test_oracles_refuse_blocks_whose_coefficients_overflow_a_float():
    # C(1030, 515) > 1.8e308 > C(1029, 514): both oracles refuse a block of
    # 1030 before computing on it, and quadrature still values 1029, where
    # some bidder bids 5 and pays 5 except with probability below 1e-40
    two = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    plan = optimal_plan(two)
    for n in (1030, 3000):
        for oracle in (expected_revenue_enum, expected_revenue_quadrature):
            with pytest.raises(GuardError, match="beyond the float range"):
                oracle(two, Environment.single_item(n), plan)
    quad = expected_revenue_quadrature(two, Environment.single_item(1029), plan).expected_revenue
    assert quad == pytest.approx(5.0, abs=1e-12)
    # as in enumeration, a block of 1e9 members is refused before it is built
    with pytest.raises(GuardError, match="exceed the quadrature guard"):
        expected_revenue_quadrature(two, Environment.single_item(10**9), plan)


def test_virtual_welfare_bound_at_the_largest_block_a_float_holds():
    # one binomial row per level: 1029 bidders take well under a second
    # (summing a fresh tail per zero-padded slot took about 14 s), the
    # bound is the optimal plan's quadrature, and 1030 bidders are refused
    two = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    env = Environment.single_item(1029)
    start = time.perf_counter()
    bound = virtual_welfare_bound(two, env)
    assert time.perf_counter() - start < 2.0
    assert bound == pytest.approx(expected_revenue_quadrature(two, env, optimal_plan(two)).expected_revenue, abs=1e-12)
    for n in (1030, 3000):
        with pytest.raises(GuardError, match="beyond the float range"):
            virtual_welfare_bound(two, Environment.single_item(n))
    with pytest.raises(GuardError, match="exceed the virtual-welfare guard"):
        virtual_welfare_bound(two, Environment.single_item(10**9))


def test_enum_guard_counts_the_multisets_it_visits():
    # 8**8 = 16.8M ordered profiles, but only C(15, 8) = 6435 multisets
    env = Environment.position([1, 0.6, 0.3], 8)
    plan = optimal_plan(LAW8)
    enum = expected_revenue_enum(LAW8, env, plan).expected_revenue
    quad = expected_revenue_quadrature(LAW8, env, plan).expected_revenue
    assert quad == pytest.approx(11.433013553726562, rel=1e-12)
    assert enum == pytest.approx(quad, rel=1e-9)


def test_enum_quadrature_agreement_random():
    for random_env in (random_slot_env, random_matroid_env):
        rng = np.random.default_rng(33)
        for _ in range(100):
            d = random_discrete(rng)
            env = random_env(rng)
            plan = random_aligned_plan(rng, d)
            e = expected_revenue_enum(d, env, plan).expected_revenue
            q = expected_revenue_quadrature(d, env, plan).expected_revenue
            assert abs(e - q) <= 1e-9
    # any plan: endpoints between atoms, on zero-probability atoms or off
    # the support, in all five environment kinds
    rng = np.random.default_rng(35)
    kinds = set()
    for i in range(400):
        d = random_grid_law(rng)
        env = (random_slot_env, random_matroid_env)[i % 2](rng)
        kinds.add(env_kind(env))
        for plan in (random_grid_plan(rng), optimal_plan(d)):
            e = expected_revenue_enum(d, env, plan).expected_revenue
            q = expected_revenue_quadrature(d, env, plan).expected_revenue
            assert q == pytest.approx(e, rel=1e-12, abs=1e-14)
    assert kinds == {"single_item", "k_unit", "position", "uniform", "partition"}


def test_quadrature_prices_every_endpoint_at_its_posted_price():
    # an endpoint on a zero-probability atom, or a reserve below the
    # support with every bidder served, is priced where it is posted
    zero_atoms = ValueDistribution.discrete([(1, 0.459), (4, 0.336), (6, 0), (7, 0), (9, 0.205)], h_max=10.0)
    cases = [
        (zero_atoms, Environment.single_item(6), IroningPlan.canonical([], 6.0), 5.5559836889213905),
        (
            ValueDistribution.discrete([(1, 0), (6, 0), (7, 1)], h_max=10.0),
            Environment.uniform_matroid(3, 3),
            IroningPlan.empty(),
            0.0,
        ),
        (
            ValueDistribution.discrete([(1, 0), (5, 1)], h_max=5.0),
            Environment.single_item(1),
            IroningPlan.canonical([(1.0, 5.0)], 0.0),
            0.0,
        ),
    ]
    for d, env, plan, revenue in cases:
        assert expected_revenue_enum(d, env, plan).expected_revenue == pytest.approx(revenue, rel=1e-12)
        assert expected_revenue_quadrature(d, env, plan).expected_revenue == pytest.approx(revenue, rel=1e-12)


def test_enum_quadrature_agreement_matroid():
    # enumeration prices each rank block's multisets through the engine,
    # while quadrature sums closed-form k-unit integrals over the blocks
    rng = np.random.default_rng(34)
    envs = [random_matroid_env(rng) for _ in range(40)] + [
        Environment.uniform_matroid(0, 3),
        Environment.uniform_matroid(5, 3),
        Environment.partition_matroid([0, 2, 0, 2], [1, 4, 0]),
    ]
    kinds = {env_kind(env) for env in envs}
    assert kinds == {"uniform", "partition"}
    for env in envs:
        d = random_discrete(rng)
        for plan in (optimal_plan(d), IroningPlan.empty()):
            e = expected_revenue_enum(d, env, plan).expected_revenue
            q = expected_revenue_quadrature(d, env, plan).expected_revenue
            assert abs(e - q) <= 1e-9


ITEM1_LAW = ValueDistribution.discrete([(1.0, 0.5), (2.0, 0.2), (3.0, 0.15), (5.0, 0.1), (10.0, 0.05)], h_max=10.0)


def test_optimal_plan_keeps_touching_intervals_apart():
    # the hull touches the revenue curve at atoms 3 and 5, so the optimal
    # plan irons [2,3), [3,5) and [5,10) separately; pooling them into
    # [2,10) earned 3.91914 on position([1, .6, .3], 5)
    plan = optimal_plan(ITEM1_LAW)
    assert plan == IroningPlan(((2.0, 3.0), (3.0, 5.0), (5.0, 10.0)), reserve=2.0)
    for env, bound in (
        (Environment.single_item(5), 3.431425),
        (Environment.k_unit(2, 5), 4.49019375),
        (Environment.position([1.0, 0.6, 0.3], 5), 4.180729375),
    ):
        assert virtual_welfare_bound(ITEM1_LAW, env) == pytest.approx(bound, abs=1e-12)
        assert expected_revenue_enum(ITEM1_LAW, env, plan).expected_revenue == pytest.approx(bound, abs=1e-12)


def test_optimal_plan_meets_virtual_welfare_bound():
    # no auction beats the expected ironed virtual welfare, and the
    # optimal plan earns it exactly, in every environment
    rng = np.random.default_rng(66)
    kinds = set()
    for _ in range(150):
        d = random_discrete(rng, max_atoms=5)
        env = (random_slot_env if rng.random() < 0.6 else random_matroid_env)(rng, n_max=4)
        kinds.add(env_kind(env))
        bound = virtual_welfare_bound(d, env)
        assert expected_revenue_enum(d, env, optimal_plan(d)).expected_revenue == pytest.approx(bound, abs=1e-12)
        for m in (5, 50):
            plan = compute_auction(sample(d, m, rng), 0.2, d.h_max)
            assert expected_revenue_enum(d, env, plan).expected_revenue <= bound + 1e-12
    assert kinds == {"single_item", "k_unit", "position", "uniform", "partition"}


def test_quadrature_example1_closed_form():
    # independent closed form for the flat-hull law: 2 - 1/H at n=2
    for h in (10.0, 100.0):
        d = rare_high_dist(h)
        env = Environment.single_item(2)
        plan = IroningPlan(intervals=((1.0, h),), reserve=1.0)
        q = expected_revenue_quadrature(d, env, plan).expected_revenue
        assert q == pytest.approx(2.0 - 1.0 / h, abs=1e-9)


def test_mc_agrees_with_enum(bimodal_small):
    env = Environment.single_item(5)
    plan = optimal_plan(bimodal_small)
    exact = expected_revenue_enum(bimodal_small, env, plan).expected_revenue
    rep = expected_revenue_mc(bimodal_small, env, plan, trials=4000, seed=3)
    assert abs(rep.expected_revenue - exact) <= 3 * rep.stderr + 1e-9
    assert rep.trials == 4000


def test_mc_point_mass_zero_variance():
    d = ValueDistribution.discrete([(2.0, 1.0)], h_max=2.0)
    env = Environment.single_item(2)
    rep = expected_revenue_mc(d, env, IroningPlan.empty(), trials=100, seed=0)
    assert rep.stderr == 0.0
    assert rep.expected_revenue == pytest.approx(2.0, abs=1e-12)


def test_mc_reproducible():
    d = ValueDistribution.discrete([(1.0, 0.5), (2.0, 0.5)], h_max=2.0)
    env = Environment.single_item(2)
    a = expected_revenue_mc(d, env, IroningPlan.empty(), trials=1, seed=9)
    b = expected_revenue_mc(d, env, IroningPlan.empty(), trials=1, seed=9)
    assert a == b


def test_mc_works_for_matroid_and_continuous():
    env = Environment.partition_matroid([0, 0, 1], [1, 1])
    d = ValueDistribution.uniform_mixture([(0.0, 1.0, 1.0)], h_max=1.0)
    rep = expected_revenue_mc(d, env, IroningPlan.empty(), trials=500, seed=1)
    assert rep.expected_revenue >= 0.0


LAW = ValueDistribution.discrete([(1.0, 0.3), (2.0, 0.25), (4.0, 0.25), (6.0, 0.2)], h_max=6.0)
MIXTURE = ValueDistribution.uniform_mixture([(0.0, 2.0, 0.7), (6.0, 10.0, 0.3)], h_max=10.0)
CACHE_CASES = [
    (LAW, Environment.position([1.0, 0.6, 0.3], 6), IroningPlan(((4.0, 6.0),), 4.0)),
    (LAW, Environment.partition_matroid([0, 1, 0, 2, 1, 0], [1, 2, 1]), IroningPlan(((1.0, 4.0),), 1.0)),
    (LAW, Environment.uniform_matroid(2, 5), IroningPlan((), 2.0)),
    (MIXTURE, Environment.k_unit(2, 4), IroningPlan(((1.0, 7.0),), 0.5)),
]


def _accepted_blocks(env, plan, bids) -> set:
    """Each block's (index, sorted bids at or above the reserve)."""
    return {(b, tuple(sorted(bids[i] for i in members if bids[i] >= plan.reserve))) for b, (members, _) in enumerate(env.blocks)}


def _counting_block_payments(patch, calls):
    patch.setattr(oracle_module, "_block_payments", lambda *args: calls.append(args) or _block_payments(*args))


def test_mc_prices_each_distinct_profile_once_to_the_bit(monkeypatch):
    # one _block_payments call per distinct (block, accepted multiset), and
    # the same mean and stderr as pricing every draw
    trials = 500
    for seed, (dist, env, plan) in enumerate(CACHE_CASES):
        draws = sample(dist, trials * env.n, seed).reshape(trials, env.n).tolist()
        distinct = set().union(*(_accepted_blocks(env, plan, row) for row in draws))
        calls = []
        with monkeypatch.context() as patch:
            _counting_block_payments(patch, calls)
            rep = expected_revenue_mc(dist, env, plan, trials, seed)
        assert len(calls) == len(distinct)
        assert all(list(accepted) == sorted(accepted) for _, _, accepted in calls)
        assert (len(distinct) == trials) == (dist is MIXTURE)  # only the continuous law repeats no block row
        assert rep == mc_revenue_uncached(dist, env, plan, trials, seed)


def test_enum_prices_multisets_that_differ_below_the_reserve_once_to_the_bit(monkeypatch):
    # one _block_payments call per block and multiset of its accepted
    # bids, and the same sum as pricing every multiset
    for dist, env, plan in CACHE_CASES[:3]:
        vals = [v for v, _ in dist.atoms]
        priced = sum(
            len({tuple(v for v in combo if v >= plan.reserve) for combo in itertools.combinations_with_replacement(vals, len(m))})
            for m, _ in env.blocks
        )
        multisets = sum(math.comb(len(vals) + len(m) - 1, len(m)) for m, _ in env.blocks)
        calls = []
        with monkeypatch.context() as patch:
            _counting_block_payments(patch, calls)
            rep = expected_revenue_enum.__wrapped__(dist, env, plan)  # past the lru_cache
        assert len(calls) == priced
        # a saving needs two atoms below the reserve, as in the position case
        assert (priced < multisets) == (plan.reserve > vals[1])
        assert rep.expected_revenue == enum_revenue_uncached(dist, env, plan)


def test_enum_walk_is_the_per_multiset_sum_to_the_bit():
    # the walk carries each weight's coefficient and probability fold down
    # the atom counts; its sum must keep every bit of the per-multiset
    # arithmetic, on laws with zero-mass atoms, in all five kinds
    rng = np.random.default_rng(29)
    kinds = set()
    for i in range(300):
        d = random_grid_law(rng)
        env = (random_slot_env, random_matroid_env)[i % 2](rng, n_max=6)
        kinds.add(env_kind(env))
        for plan in (optimal_plan(d), random_grid_plan(rng), IroningPlan.empty()):
            assert expected_revenue_enum.__wrapped__(d, env, plan).expected_revenue == enum_revenue_uncached(d, env, plan)
    assert kinds == {"single_item", "k_unit", "position", "uniform", "partition"}


def test_enum_walks_1500_atoms_on_one_side_of_the_reserve():
    # the walk over atom counts keeps its own stack, so a law whose atoms all
    # lie above the reserve (the empty plan) or all below it stays in bounds
    rng = np.random.default_rng(31)
    atoms = list(zip((np.arange(1, 1501) / 160.0).tolist(), rng.dirichlet(np.ones(1500)).tolist()))
    d = ValueDistribution.discrete(atoms, h_max=10.0)
    env = Environment.single_item(1)
    for plan in (IroningPlan.empty(), IroningPlan.canonical([], 9.5), optimal_plan(d)):
        assert expected_revenue_enum.__wrapped__(d, env, plan).expected_revenue == enum_revenue_uncached(d, env, plan)


def test_induced_true_curve_identity(bimodal_small):
    # the empty plan keeps every left limit of the law's revenue curve,
    # but its reserve 0 posts price 0 at q = 1, where the law reads v_min
    truth = curve_from_price_runs(bimodal_small.price_runs)
    got = induced_curve(bimodal_small.price_runs, IroningPlan.empty())
    grid = np.union1d(got.qs, truth.qs)
    assert np.array_equal(got.left_value(grid), truth.left_value(grid))
    assert np.array_equal(got.evaluate(grid[:-1]), truth.evaluate(grid[:-1]))
    assert (got.evaluate(1.0), truth.evaluate(1.0)) == (0.0, 1.0)
    # a reserve at v_min posts the law's own price there
    assert almost_equal(induced_curve(bimodal_small.price_runs, IroningPlan.canonical([], 1.0)), truth, tol=0.0)


def test_induced_true_curve_example2_hull(bimodal_small):
    got = induced_curve(bimodal_small.price_runs, optimal_plan(bimodal_small))
    assert almost_equal(got, concave_envelope(curve_from_price_runs(bimodal_small.price_runs)), tol=1e-12)


def test_induced_true_curve_posted_price(bimodal_small):
    got = induced_curve(bimodal_small.price_runs, IroningPlan.canonical([], 5.0))
    assert got.evaluate(0.05) == pytest.approx(0.25, abs=1e-12)
    for q in (0.1, 0.5, 1.0):
        assert got.evaluate(q) == pytest.approx(0.5, abs=1e-12)


def _unswitched_revenue(d, n, plan):
    """-n * Stieltjes integral of R against the induced interim allocation.

    The induced allocation is the raw single-item curve outside ironed
    quantile intervals, the interval average inside them, and zero above
    the reserve quantile; jumps weigh the curve's attained sup, and the
    terminal drop at q=1 nets against the below-support payment floor.
    """
    big_y = interim_allocation_integral_kunit

    curve = curve_from_price_runs(d.price_runs)
    reserve_q = tail_probability(d, plan.reserve)
    q_ints = sorted(
        (tail_probability(d, hi), tail_probability(d, lo))
        for lo, hi in plan.intervals
        if tail_probability(d, hi) < tail_probability(d, lo)
    )

    def avg(a, b):
        return (big_y(b, 1, n) - big_y(a, 1, n)) / (b - a)

    def side_value(q, side):
        # side=-1: limit from below; side=+1: limit from above (0 past q=1)
        if side > 0 and q >= 1.0:
            return 0.0
        above = q > reserve_q if side < 0 else q >= reserve_q
        if above:
            return 0.0
        for a, b in q_ints:
            if (a < q <= b) if side < 0 else (a <= q < b):
                return avg(a, b)
        return interim_allocation_kunit(q, 1, n)

    bps = sorted(
        {0.0, 1.0}
        | ({reserve_q} if reserve_q < 1.0 else set())
        | {x for ab in q_ints for x in ab}
        | set(curve.qs.tolist())
    )
    total = 0.0
    for p0, p1 in zip(bps, bps[1:]):
        if p1 <= p0:
            continue
        mid = 0.5 * (p0 + p1)
        raw = mid <= reserve_q and not any(a <= mid < b for a, b in q_ints)
        if not raw:
            continue  # constant piece: no absolutely continuous part
        v0, v1 = curve.evaluate(p0), curve.left_value(p1)
        slope = (v1 - v0) / (p1 - p0)
        total += (
            v0 * interim_allocation_kunit(p0, 1, n)
            - v1 * interim_allocation_kunit(p1, 1, n)
            + slope * (big_y(p1, 1, n) - big_y(p0, 1, n))
        )
    for q in bps:
        if q <= 0.0:
            continue
        jump = side_value(q, +1) - side_value(q, -1)
        if jump != 0.0:
            total += -upper_value(curve, q) * jump
    floor = interim_allocation_kunit(1.0, 1, n) * max(0.0, d.atoms[0][0] - max(plan.reserve, 0.0))
    return n * (total - floor)


def test_switching_identity_three_routes():
    # averaged-allocation Stieltjes route == induced-curve quadrature ==
    # enumeration, instance by instance
    rng = np.random.default_rng(44)
    checked = 0
    for _ in range(100):
        d = random_discrete(rng, max_atoms=3)
        n = int(rng.integers(1, 6))
        env = Environment.single_item(n)
        plan = random_aligned_plan(rng, d)
        enum = expected_revenue_enum(d, env, plan).expected_revenue
        quad = expected_revenue_quadrature(d, env, plan).expected_revenue
        unswitched = _unswitched_revenue(d, n, plan)
        assert abs(enum - quad) <= 1e-9
        assert abs(unswitched - enum) <= 1e-6
        checked += 1
    assert checked == 100


def test_additive_loss_zero_for_optimal(bimodal_small):
    env = Environment.single_item(3)
    assert additive_loss(bimodal_small, env, optimal_plan(bimodal_small)) == 0.0


def test_additive_loss_positive_without_ironing(bimodal_small):
    env = Environment.single_item(3)
    loss = additive_loss(bimodal_small, env, IroningPlan.canonical([], 1.0))
    assert loss > 0.0


def test_additive_loss_bounded_by_pointwise_gap(bimodal_small):
    env = Environment.single_item(3)
    opt_curve = induced_curve(bimodal_small.price_runs, optimal_plan(bimodal_small))
    rng = np.random.default_rng(50)
    for _ in range(30):
        plan = random_aligned_plan(rng, bimodal_small)
        loss = additive_loss(bimodal_small, env, plan)
        alg_curve = induced_curve(bimodal_small.price_runs, plan)
        assert loss <= env.n * pointwise_gap(opt_curve, alg_curve) + 1e-9


def test_additive_loss_is_the_enumerated_revenue_difference():
    # learned plans over all five environment kinds: quadrature's loss is
    # enumeration's, and the tripwire never fires
    rng = np.random.default_rng(61)
    kinds = set()
    for i in range(150):
        d = random_discrete(rng, max_atoms=5)
        env = (random_slot_env if i % 2 else random_matroid_env)(rng)
        kinds.add(env_kind(env))
        plan = compute_auction(sample(d, int(rng.integers(5, 500)), np.random.SeedSequence([61, i])), 0.1, d.h_max)
        opt = expected_revenue_enum(d, env, optimal_plan(d)).expected_revenue
        alg = expected_revenue_enum(d, env, plan).expected_revenue
        assert additive_loss(d, env, plan) == pytest.approx(opt - alg, abs=1e-12)
    assert kinds == {"single_item", "k_unit", "position", "uniform", "partition"}


def test_loss_at_fifty_bidders_beyond_enumeration():
    env = Environment.position([1, 0.6, 0.3], 50)
    plan = optimal_plan(LAW8)
    assert additive_loss(LAW8, env, plan) == 0.0
    quad = expected_revenue_quadrature(LAW8, env, plan).expected_revenue
    assert quad == pytest.approx(virtual_welfare_bound(LAW8, env), abs=1e-12)
    with pytest.raises(GuardError):
        expected_revenue_enum(LAW8, env, plan)


def test_position_decomposition_random():
    # a block's Bernstein mixture of slot weights equals its j-by-j form,
    # the marginal-weight sum of k-unit quadratures
    rng = np.random.default_rng(55)
    for _ in range(50):
        d = random_discrete(rng, max_atoms=3)
        n = int(rng.integers(2, 6))
        length = int(rng.integers(1, n + 1))
        weights = np.sort(rng.uniform(0, 1, size=length))[::-1].tolist()
        env = Environment.position(weights, n)
        plan = random_aligned_plan(rng, d)
        pos = expected_revenue_quadrature(d, env, plan).expected_revenue
        slots = weights + [0.0] * (n + 1 - len(weights))
        mix = math.fsum(
            (slots[j - 1] - slots[j])
            * expected_revenue_quadrature(d, Environment.k_unit(j, n), plan).expected_revenue
            for j in range(1, n + 1)
            if slots[j - 1] != slots[j]
        )
        assert abs(pos - mix) <= 1e-9


def test_position_loss_is_the_slot_weighted_k_unit_losses():
    # the paper's lemma: the reserve and ironing intervals are tailored to
    # the revenue curve, not the auction, so a position auction's loss is
    # the marginal-weight combination of k-unit losses, on learned plans
    rng = np.random.default_rng(57)
    positive = 0
    for t in range(300):
        d = random_discrete(rng, max_atoms=4)
        n = int(rng.integers(2, 6))
        weights = np.sort(rng.uniform(0, 1, size=int(rng.integers(1, n + 1))))[::-1].tolist()
        plan = compute_auction(sample(d, int(rng.integers(5, 60)), np.random.SeedSequence([57, t])), 0.1, d.h_max)
        loss = additive_loss(d, Environment.position(weights, n), plan)
        slots = weights + [0.0] * (n + 1 - len(weights))
        mix = math.fsum(
            (slots[j - 1] - slots[j]) * additive_loss(d, Environment.k_unit(j, n), plan)
            for j in range(1, n + 1)
            if slots[j - 1] != slots[j]
        )
        assert abs(loss - mix) <= 1e-9
        positive += loss > 0.0
    assert positive >= 100


def test_quadrature_cache_returns_the_uncached_reports():
    # in all five kinds, on optimal, random aligned and empty plans; a
    # repeat call returns the cached object itself
    expected_revenue_quadrature.cache_clear()
    rng = np.random.default_rng(71)
    kinds = set()
    for i in range(60):
        d = random_discrete(rng, max_atoms=5)
        env = (random_slot_env, random_matroid_env)[i % 2](rng)
        kinds.add(env_kind(env))
        for plan in (optimal_plan(d), random_aligned_plan(rng, d), IroningPlan.empty()):
            rep = expected_revenue_quadrature(d, env, plan)
            assert rep == expected_revenue_quadrature.__wrapped__(d, env, plan)
            assert expected_revenue_quadrature(d, env, plan) is rep
    assert kinds == {"single_item", "k_unit", "position", "uniform", "partition"}


def test_additive_loss_prices_the_optimum_and_each_distinct_learned_plan_once():
    expected_revenue_quadrature.cache_clear()
    env = Environment.position([1, 0.6, 0.3], 6)
    plans = [
        compute_auction(sample(LAW8, m, np.random.SeedSequence([73, i])), 0.1, LAW8.h_max)
        for i, m in enumerate([100, 1000, 10000] * 10)
    ]
    for plan in plans:
        additive_loss(LAW8, env, plan)
    distinct = set(plans) | {optimal_plan(LAW8)}
    info = expected_revenue_quadrature.cache_info()
    assert info.misses == len(distinct) < len(plans)
    assert info.hits == 2 * len(plans) - len(distinct)


def test_quadrature_refusals_are_raised_on_every_call():
    expected_revenue_quadrature.cache_clear()
    two = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    for _ in range(3):
        with pytest.raises(GuardError, match="exceed the quadrature guard"):
            expected_revenue_quadrature(two, Environment.single_item(10**9), IroningPlan.empty())
        with pytest.raises(ValueError, match="requires a discrete distribution"):
            expected_revenue_quadrature(MIXTURE, Environment.single_item(3), IroningPlan.empty())
    assert expected_revenue_quadrature.cache_info().currsize == 0


def test_quadrature_cache_hits_a_law_and_environment_rebuilt_from_json():
    # as each experiment loss trial rebuilds them from the JSON it is sent
    expected_revenue_quadrature.cache_clear()
    env = Environment.position([1, 0.6, 0.3], 6)
    plan = optimal_plan(LAW8)
    rep = expected_revenue_quadrature(LAW8, env, plan)
    rebuilt = ValueDistribution.from_json(LAW8.to_json()), Environment.from_json(env.to_json())
    assert rebuilt[0] is not LAW8 and rebuilt[1] is not env
    assert expected_revenue_quadrature(*rebuilt, IroningPlan.from_json(plan.to_json())) is rep
    info = expected_revenue_quadrature.cache_info()
    assert (info.hits, info.misses) == (1, 1)
