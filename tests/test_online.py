import math
import pickle
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest

from myerson_lab.distributions import ValueDistribution
from myerson_lab.empirical import dkw_epsilon
from myerson_lab.environments import Environment
from myerson_lab.learner import IroningPlan, loss_bound, required_samples_iid
from myerson_lab import online
from myerson_lab.online import TRACE_FIELDS, RegretTrace, regret_bound, run_no_regret
from reference import run_no_regret_concatenating

LAW8 = ValueDistribution.discrete(
    [(1, 0.30), (2, 0.20), (3, 0.12), (4, 0.08), (6, 0.05), (8, 0.10), (9, 0.10), (10, 0.05)], h_max=10.0
)
TWO_ATOM = ValueDistribution.discrete([(1, 0.9), (10, 0.1)], h_max=10.0)
# the examples' over-ironing law: its optimal plan irons [1, 5) and [5, 5.5), but the 5.5 atom's
# 1% run stays hidden while epsilon_t >= 0.01, so a trace of T = 1,300 learns one interval at most
OVER_IRONING = ValueDistribution.discrete([(1, 0.89), (5, 0.1), (5.5, 0.01)], h_max=6.0)
TWO_INTERVALS = ValueDistribution.discrete([(2, 0.51), (4, 0.3), (6, 0.19)], h_max=10.0)  # learns two intervals
# name -> (law, environment, T); the cases named "-blocks" span at least three learner blocks
INCREMENTAL_CASES = {
    "two-atom-single3": (TWO_ATOM, Environment.single_item(3), 120),
    "law8-position6": (LAW8, Environment.position([1, 0.6, 0.3], 6), 120),
    "zero-mass-atom-kunit": (
        ValueDistribution.discrete([(0, 0.2), (2, 0.0), (3, 0.5), (7, 0.3)], h_max=8.0),
        Environment.k_unit(2, 4),
        120,
    ),
    "law8-partition": (LAW8, Environment.partition_matroid([0, 0, 1, 1, 1], [1, 2]), 120),
    "two-atom-single3-T1": (TWO_ATOM, Environment.single_item(3), 1),
    "two-atom-single3-T2": (TWO_ATOM, Environment.single_item(3), 2),
    "law8-single2-blocks": (LAW8, Environment.single_item(2), 1300),
    "two-atom-single3-blocks": (TWO_ATOM, Environment.single_item(3), 1300),
    "over-ironing-single3-blocks": (OVER_IRONING, Environment.single_item(3), 1300),
    "two-intervals-single3-blocks": (TWO_INTERVALS, Environment.single_item(3), 1300),
}


def test_point_mass_learns_immediately():
    d = ValueDistribution.discrete([(2.0, 1.0)], h_max=2.0)
    env = Environment.single_item(1)
    trace = run_no_regret(d, env, T=30, delta=0.5, seed=1)
    # round 0 runs the plain welfare auction to a lone bidder, who pays
    # nothing, so it loses the full reserve
    assert trace.rows[0].round_loss == pytest.approx(2.0, abs=1e-12)
    learned = [row for row in trace.rows[1:] if row.epsilon_t < 1.0]
    assert learned
    for row in learned:
        assert row.round_loss == 0.0
    # with two bidders the welfare auction loses nothing: the tie at 2 is
    # split, each bidder pays 1 in expectation, and enumeration equals
    # quadrature at revenue 2.0 = OPT
    pair = run_no_regret(d, Environment.single_item(2), T=1, delta=0.5, seed=1)
    assert pair.rows[0].expected_round_revenue == pytest.approx(2.0, abs=1e-12)
    assert pair.rows[0].round_loss == 0.0


def test_round0_loss_bounded_by_nh(bimodal_small):
    env = Environment.single_item(3)
    trace = run_no_regret(bimodal_small, env, T=3, delta=0.1, seed=5)
    assert trace.rows[0].round_loss <= 3 * 5.0
    assert trace.rows[0].bound_t == 3 * 5.0


@pytest.mark.parametrize("T", [25, 11])
def test_trace_bookkeeping(bimodal_small, T):
    env = Environment.single_item(3)
    delta = 0.1
    trace = run_no_regret(bimodal_small, env, T=T, delta=delta, seed=7)
    assert len(trace.rows) == T + 1
    prev = 0.0
    for t, row in enumerate(trace.rows):
        assert row.t == t
        assert row.m_t == 3 * t
        assert row.cumulative_loss >= prev - 1e-12
        prev = row.cumulative_loss
        if t >= 1:
            assert row.epsilon_t == dkw_epsilon(3 * t, delta / T)
            # the one 3nH epsilon rule, to the bit, and of the row's own radius
            assert row.bound_t == loss_bound(3 * t, delta / T, 3, 5.0) == 3.0 * row.epsilon_t * 3 * 5.0


def test_a_trace_is_its_columns_of_python_scalars():
    dist, env, T = INCREMENTAL_CASES["law8-single2-blocks"]
    trace = run_no_regret(dist, env, T=T, delta=0.1, seed=3)
    assert RegretTrace(*zip(*trace.rows)) == trace
    assert pickle.loads(pickle.dumps(trace)) == trace
    assert hash(pickle.loads(pickle.dumps(trace))) == hash(trace)
    for name in TRACE_FIELDS:
        column = getattr(trace, name)
        assert len(column) == T + 1
        assert {type(x) for x in column} <= {int, float, str}, name
    assert trace.rows[-1] == tuple(getattr(trace, name)[-1] for name in TRACE_FIELDS)


def test_each_learned_plan_is_priced_once(monkeypatch):
    count_plans, quadrature = online._count_plans, online.expected_revenue_quadrature
    built, priced = [], []  # the distinct plans of each learner block; the plans priced, in order

    def counting(*args):
        plans, ids = count_plans(*args)
        built.append(plans)
        return plans, ids

    def pricing(dist, env, plan):
        priced.append(plan)
        return quadrature(dist, env, plan)

    monkeypatch.setattr(online, "_count_plans", counting)
    monkeypatch.setattr(online, "expected_revenue_quadrature", pricing)
    dist, env, T = INCREMENTAL_CASES["two-intervals-single3-blocks"]
    run_no_regret(dist, env, T=T, delta=0.1, seed=0)
    assert len(built) >= 3
    assert priced == [online.optimal_plan(dist), IroningPlan.empty(), *chain(*built)]
    assert len(priced) < T / 10


def test_a_learned_plan_that_beats_the_optimum_trips_the_trace(monkeypatch):
    # the over-ironing law's learned plans iron one interval at most, so none is its optimal plan
    dist, env, T = INCREMENTAL_CASES["over-ironing-single3-blocks"]
    quadrature = online.expected_revenue_quadrature
    honest = (online.optimal_plan(dist), IroningPlan.empty())
    opt = quadrature(dist, env, honest[0]).expected_revenue
    excess = [1e-10]

    def inflated(dist, env, plan):
        return quadrature(dist, env, plan) if plan in honest else SimpleNamespace(expected_revenue=opt + excess[0])

    monkeypatch.setattr(online, "expected_revenue_quadrature", inflated)
    # within the tolerance, a learned plan is charged no loss
    trace = run_no_regret(dist, env, T=T, delta=0.1, seed=0)
    learned = [row.round_loss for row in trace.rows if row.expected_round_revenue == opt + excess[0]]
    assert learned and set(learned) == {0.0}
    excess[0] = 1e-6
    with pytest.raises(RuntimeError, match="beats the oracle optimum"):
        run_no_regret(dist, env, T=T, delta=0.1, seed=0)


def test_deterministic_given_seed(bimodal_small):
    env = Environment.single_item(3)
    a = run_no_regret(bimodal_small, env, T=200, delta=0.1, seed=3)
    b = run_no_regret(bimodal_small, env, T=200, delta=0.1, seed=3)
    assert a == b
    # Rounds are charged expected revenue, so the seed reaches the trace
    # only through the learned plans. While epsilon_t exceeds P(v = 5) = 0.1
    # the pessimistic curve never sees the high atom and every seed learns
    # the same plan; the horizon must let epsilon_t fall below that mass.
    assert min(row.epsilon_t for row in a.rows) < 0.1
    c = run_no_regret(bimodal_small, env, T=200, delta=0.1, seed=4)
    assert c != a
    # a seed is read as its int(), as SeedSequence([int(seed), 0]) reads it
    for same in (np.uint32(3), 3.5, "3"):
        assert run_no_regret(bimodal_small, env, T=200, delta=0.1, seed=same) == a
    assert run_no_regret(bimodal_small, env, T=200, delta=0.1, seed=True) == run_no_regret(
        bimodal_small, env, T=200, delta=0.1, seed=1
    )


def test_fifty_bidders_beyond_enumeration_reproduce():
    # enumeration refuses position([1, .6, .3], 50) on this law (2.6e8
    # multisets); quadrature prices every round
    law = ValueDistribution.discrete(
        [(1, 0.30), (2, 0.20), (3, 0.12), (4, 0.08), (6, 0.05), (8, 0.10), (9, 0.10), (10, 0.05)], h_max=10.0
    )
    env = Environment.position([1, 0.6, 0.3], 50)
    a = run_no_regret(law, env, T=30, delta=0.1, seed=5)
    assert len(a.rows) == 31
    assert all(row.round_loss >= 0.0 for row in a.rows)
    assert a == run_no_regret(law, env, T=30, delta=0.1, seed=5)


def test_cumulative_loss_within_regret_bound(bimodal_small):
    env = Environment.single_item(3)
    T, delta = 200, 0.1
    hits = 0
    for seed in range(10):
        trace = run_no_regret(bimodal_small, env, T=T, delta=delta, seed=seed)
        hits += trace.cumulative_loss[-1] <= regret_bound(T, delta, 3, 5.0)
    assert hits >= 9


def test_regret_bound_values():
    got = regret_bound(1, 0.1, 1, 1.0)
    want = 1.0 + 3.0 * math.sqrt(2.0 * math.log(40.0))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(9.149, abs=5e-3)
    # sqrt(T log T)-ish growth and monotonicity
    for T in (100, 400, 1600):
        assert regret_bound(4 * T, 0.1, 3, 10.0) / regret_bound(T, 0.1, 3, 10.0) <= 2.2
    bounds = [regret_bound(T, 0.1, 2, 5.0) for T in (1, 10, 100, 1000)]
    assert all(b1 > b0 for b0, b1 in zip(bounds, bounds[1:]))
    assert regret_bound(100, 0.1, 2, 5.0, gamma=2.0) > regret_bound(100, 0.1, 2, 5.0)


def test_csv_lines_schema(bimodal_small):
    env = Environment.single_item(3)
    trace = run_no_regret(bimodal_small, env, T=2, delta=0.1, seed=0)
    lines = trace.csv_lines(seed=0)
    assert lines[0] == (
        "seed,t,m_t,epsilon_t,plan_hash,expected_round_revenue,"
        "round_loss,cumulative_loss,bound_t"
    )
    assert len(lines) == 4
    # round 0 has no samples, so its DKW radius is unbounded
    assert lines[1].split(",")[3] == "inf"


def test_rejects_bad_inputs(bimodal_small):
    env = Environment.single_item(3)
    with pytest.raises(ValueError):
        run_no_regret(bimodal_small, env, T=0, delta=0.1, seed=0)
    with pytest.raises(ValueError):
        run_no_regret(bimodal_small, env, T=5, delta=1.5, seed=0)
    cont = ValueDistribution.uniform_mixture([(0.0, 1.0, 1.0)], h_max=1.0)
    with pytest.raises(ValueError):
        run_no_regret(cont, env, T=5, delta=0.1, seed=0)
    # numpy's own refusal of a negative seed, which a split into uint32 words would loop on
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_no_regret(bimodal_small, env, T=5, delta=0.1, seed=-1)
    # round t's spawn key 2t must be one uint32 word
    with pytest.raises(ValueError, match=r"T must be <= 2\*\*31"):
        run_no_regret(bimodal_small, env, T=2**31 + 1, delta=0.1, seed=0)
    # regret_bound checks gamma as required_samples_iid does
    for gamma, message in ((-5.0, "gamma must be >= 1"), (0.5, "gamma must be >= 1"),
                           (math.nan, "gamma must be finite"), (math.inf, "gamma must be finite")):
        with pytest.raises(ValueError, match=message):
            regret_bound(10, 0.1, 3, 1.0, gamma=gamma)
        with pytest.raises(ValueError, match=message):
            required_samples_iid(0.2, 0.1, 3, gamma, 1.0)
    # a round count or a sample count that is not finite is refused, not turned into nan or 0
    for T in (math.nan, math.inf):
        with pytest.raises(ValueError, match="T must be finite"):
            regret_bound(T, 0.1, 3, 10.0)
        with pytest.raises(ValueError, match="T must be finite"):
            run_no_regret(bimodal_small, env, T=T, delta=0.1, seed=0)
    for m in (math.nan, math.inf, np.array([3, 0])):
        with pytest.raises(ValueError, match="m must be"):
            loss_bound(m, 0.1, 3, 10.0)
    # a bound beyond a float is refused in both forms, and so is a trace whose rounds it bounds
    for m in (1, np.array([1, 2])):
        with pytest.raises(ValueError, match=f"the loss bound overflows a float at n={10**308}, h_max=10.0"):
            loss_bound(m, 0.1, 10**308, 10.0)
    huge = ValueDistribution.discrete([(1.0, 0.5), (1e308, 0.5)], h_max=1e308)
    with pytest.raises(ValueError, match="the loss bound overflows a float at n=3, h_max=1e"):
        run_no_regret(huge, env, T=5, delta=0.1, seed=0)
    # round 0's bound n * H overflows here, while every later round's 3 * epsilon_t * n * H stays finite
    wide = ValueDistribution.discrete([(1.0, 0.5), (3e306, 0.5)], h_max=3e306)
    assert np.isfinite(loss_bound(100 * np.arange(1, 4), 0.1 / 3, 100, 3e306)).all()
    with pytest.raises(ValueError, match=r"the loss bound overflows a float at n=100, h_max=3e\+306"):
        run_no_regret(wide, Environment.single_item(100), T=3, delta=0.1, seed=0)
    # regret_bound checks n and H as loss_bound does
    for n, h, message in ((0, 1.0, "n must be >= 1"), (-1, 1.0, "n must be >= 1"),
                          (3, math.nan, "h_max must be finite"), (3, -1.0, "h_max must be >= 0")):
        with pytest.raises(ValueError, match=message):
            regret_bound(10, 0.1, n, h)
        with pytest.raises(ValueError, match=message):
            loss_bound(10, 0.1, n, h)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", sorted(INCREMENTAL_CASES))
def test_merging_bids_gives_the_trace_of_relearning_from_all_bids(case, seed):
    dist, env, T = INCREMENTAL_CASES[case]
    trace = run_no_regret(dist, env, T=T, delta=0.1, seed=seed)
    assert trace == run_no_regret_concatenating(dist, env, T=T, delta=0.1, seed=seed)
    # the learner replaces the empty plan of round 0, so the comparison reaches it
    assert len({row.plan_hash for row in trace.rows}) >= 2


@pytest.mark.parametrize("seed", [2**32 + 5, 2**100 + 7], ids=["two-word-seed", "four-word-seed"])
@pytest.mark.parametrize("case", ["law8-single2-blocks", "two-atom-single3-blocks"])
def test_wide_seeds_give_the_trace_of_relearning_from_all_bids(case, seed):
    dist, env, T = INCREMENTAL_CASES[case]
    assert run_no_regret(dist, env, T=T, delta=0.1, seed=seed) == run_no_regret_concatenating(
        dist, env, T=T, delta=0.1, seed=seed
    )


def test_a_trace_case_spans_learner_blocks():
    for case in INCREMENTAL_CASES:
        if case.endswith("-blocks"):
            dist, _, T = INCREMENTAL_CASES[case]
            assert T > 2 * (online._BLOCK_CELLS // len(dist.atoms))


def test_a_trace_case_learns_plans_of_two_intervals_over_several_blocks(monkeypatch):
    count_plans = online._count_plans
    intervals = []  # per learner block, the most intervals of any plan it learned

    def counting(*args):
        plans, ids = count_plans(*args)
        intervals.append(max(len(p.intervals) for p in plans))
        return plans, ids

    monkeypatch.setattr(online, "_count_plans", counting)
    dist, env, T = INCREMENTAL_CASES["two-intervals-single3-blocks"]
    run_no_regret(dist, env, T=T, delta=0.1, seed=0)
    assert intervals.count(2) >= 3


@pytest.mark.parametrize("T", [1, 2000, 2**31])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_array_bounds_are_the_scalar_calls(n, T):
    # run_no_regret takes a block's epsilon_t and bound_t as arrays over m = n*t
    ts = range(1, 100_001)
    ms = n * np.arange(1, 100_001)
    delta = 0.1 / T
    assert dkw_epsilon(ms, delta).tolist() == [dkw_epsilon(n * t, delta) for t in ts]
    assert loss_bound(ms, delta, n, 10.0).tolist() == [loss_bound(n * t, delta, n, 10.0) for t in ts]
