import math

import numpy as np
import pytest

from myerson_lab.distributions import ValueDistribution
from myerson_lab.empirical import dkw_epsilon
from myerson_lab.environments import Environment
from myerson_lab.learner import loss_bound
from myerson_lab import online
from myerson_lab.online import regret_bound, run_no_regret
from reference import run_no_regret_concatenating

LAW8 = ValueDistribution.discrete(
    [(1, 0.30), (2, 0.20), (3, 0.12), (4, 0.08), (6, 0.05), (8, 0.10), (9, 0.10), (10, 0.05)], h_max=10.0
)
TWO_ATOM = ValueDistribution.discrete([(1, 0.9), (10, 0.1)], h_max=10.0)
# name -> (law, environment, T); the last case's T spans more than one learner block
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
        hits += trace.cumulative_loss() <= regret_bound(T, delta, 3, 5.0)
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


def test_a_trace_case_spans_learner_blocks():
    dist, _, T = INCREMENTAL_CASES["law8-single2-blocks"]
    assert T > 2 * (online._BLOCK_CELLS // len(dist.atoms))
