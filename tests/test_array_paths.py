"""The learner's array code against the loop references in ``reference.py``.

Every stage from samples to plan must give the same floats as the loop
it replaced: price runs, curve vertices, hull vertices, gap intervals,
the prices read back at quantiles, and the plan itself.
"""

import math

import numpy as np
import pytest

from myerson_lab.curves import (
    PiecewiseLinearCurve,
    concave_envelope,
    curve_from_price_runs,
    difference_intervals,
    price_left_of_runs,
)
from myerson_lab.distributions import ValueDistribution, _discrete_price_runs
from myerson_lab.empirical import EmpiricalQuantile, dkw_epsilon, max_price_runs, min_price_runs
from myerson_lab.environments import Environment
from myerson_lab.learner import compute_auction
from myerson_lab.oracle import expected_revenue_enum, optimal_plan, virtual_welfare_bound

from conftest import seeded_rng
from reference import (
    curve_vertices_from_triples,
    discrete_price_triples,
    gap_intervals,
    hull_vertices,
    max_price_triples,
    min_price_triples,
    plan_from_triples,
    price_left_of_triples,
    triples,
)

H = 10.0


def _samples(rng) -> np.ndarray:
    m = int(rng.choice([1, 2, 3, 7, 30, 200]))
    kind = int(rng.integers(4))
    if kind == 0:
        return rng.uniform(0.0, H, m)
    if kind == 1:
        return np.round(rng.uniform(0.0, H, m))  # heavy ties
    if kind == 2:
        return rng.choice([0.0, 4.5, H], m)  # the support ends and one inner value
    return np.where(rng.random(m) < 0.5, rng.uniform(0.0, 2.0, m), rng.uniform(6.0, H, m))


def _check_stages(rng, runs, want, tol):
    assert triples(runs) == want
    curve = curve_from_price_runs(runs)
    assert curve.vertices == curve_vertices_from_triples(want)
    hull = concave_envelope(curve)
    assert hull.vertices == hull_vertices(curve)
    gaps = difference_intervals(curve, hull, tol)
    assert gaps.intervals == gap_intervals(curve, hull, tol)
    probes = [q for gap in gaps for q in gap] + [0.0, 1.0] + rng.uniform(0.0, 1.0, 5).tolist()
    assert price_left_of_runs(runs, probes).tolist() == [price_left_of_triples(want, q) for q in probes]


@pytest.mark.parametrize("seed", range(5))
def test_empirical_stages_match_the_loops(seed):
    rng = seeded_rng(61, seed)
    for _ in range(40):
        eq = EmpiricalQuantile.from_samples(_samples(rng), H)
        eps = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 0.999))
        _check_stages(rng, min_price_runs(eq, eps), min_price_triples(eq, eps), 1e-9 * H)
        _check_stages(rng, max_price_runs(eq, eps), max_price_triples(eq, eps), 1e-9 * H)


@pytest.mark.parametrize("seed", range(5))
def test_learned_plans_match_the_loops(seed):
    rng = seeded_rng(62, seed)
    for _ in range(40):
        xs = _samples(rng)
        delta = float(rng.choice([0.01, 0.1, 0.5, 0.9]))
        eps = dkw_epsilon(len(xs), delta)
        if eps >= 1.0:
            continue
        want = plan_from_triples(min_price_triples(EmpiricalQuantile.from_samples(xs, H), eps), H)
        assert compute_auction(xs, delta, H) == want


def _law_with_zero_atoms(rng) -> ValueDistribution:
    s = int(rng.integers(1, 7))
    vals = np.sort(rng.choice(np.arange(0, 11), size=s, replace=False)).astype(float)
    probs = rng.dirichlet(np.ones(s))
    if s > 1:
        zero = rng.random(s) < 0.3  # the top atom, too, may have probability 0
        zero[rng.integers(s)] = False
        probs = np.where(zero, 0.0, probs)
        probs /= probs.sum()
    atoms = list(zip(vals.tolist(), probs.tolist()))
    atoms[-1] = (atoms[-1][0], max(0.0, atoms[-1][1] + 1.0 - math.fsum(probs.tolist())))
    return ValueDistribution.discrete(atoms, H)


def _tail_sum_exceeds_one(dist: ValueDistribution) -> bool:
    """Whether the float sum of P(V >= v_j), j >= 1, rounds above 1."""
    acc = 0.0
    for _, p in reversed(dist.atoms[1:]):
        acc += p
        if acc > 1.0:
            return True
    return False


def test_discrete_stages_and_optimal_plans_match_the_loops():
    rng = seeded_rng(63)
    env = Environment.single_item(3)
    rounded_above_one = 0
    for _ in range(300):
        dist = _law_with_zero_atoms(rng)
        want = discrete_price_triples(dist)
        _check_stages(rng, _discrete_price_runs(dist), want, 1e-9 * H)
        plan = optimal_plan(dist)
        assert plan == plan_from_triples(want, H)
        if _tail_sum_exceeds_one(dist):
            # the tails are clamped below the pinned P(V >= v_min) = 1, so
            # the runs still end at q = 1 and the plan is still optimal
            rounded_above_one += 1
            revenue = expected_revenue_enum(dist, env, plan).expected_revenue
            assert revenue == pytest.approx(virtual_welfare_bound(dist, env), rel=1e-12)
    assert rounded_above_one > 0


@pytest.mark.parametrize(
    "vertices, hull",
    [
        ([(0.0, 0.0), (0.25, 0.25), (0.5, 0.5), (1.0, 0.5)], ((0.0, 0.0), (0.5, 0.5), (1.0, 0.5))),
        ([(0.0, 0.5), (0.5, 0.5), (1.0, 0.5)], ((0.0, 0.5), (1.0, 0.5))),
        ([(0.0, 0.0), (0.5, 1.0), (0.5, 0.5), (0.75, 0.75), (1.0, 1.0)], ((0.0, 0.0), (0.5, 1.0), (1.0, 1.0))),
    ],
    ids=["collinear_rise", "flat", "jump_then_line"],
)
def test_hull_drops_collinear_vertices(vertices, hull):
    curve = PiecewiseLinearCurve.from_vertices(vertices)
    got = concave_envelope(curve)
    assert got.vertices == hull == hull_vertices(curve)
    assert difference_intervals(curve, got, 1e-9).intervals == gap_intervals(curve, got, 1e-9)
