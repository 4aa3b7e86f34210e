import math

import numpy as np
import pytest

from myerson_lab.distributions import (
    ValueDistribution,
    exact_cdf,
    exact_quantile,
    exact_revenue_curve,
    sample,
)
from myerson_lab.empirical import dkw_epsilon

from conftest import rare_high_dist
from reference import tail_probability


def test_point_mass_sampling():
    d = ValueDistribution.discrete([(1.0, 1.0)], h_max=1.0)
    assert list(sample(d, 3, 123)) == [1.0, 1.0, 1.0]


def test_discrete_sampling_frequencies():
    d = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    n = 100_000
    xs = sample(d, n, 7)
    frac5 = float(np.mean(xs == 5.0))
    # binomial 3-sigma: 3 * sqrt(0.1 * 0.9 / 1e5) ~ 0.0028
    assert abs(frac5 - 0.1) < 0.01
    assert xs.min() >= 0.0 and xs.max() <= 5.0


def test_uniform_sampling_mean():
    d = ValueDistribution.uniform_mixture([(0.0, 1.0, 1.0)], h_max=1.0)
    xs = sample(d, 100_000, 11)
    # CLT 3-sigma: 3 * sqrt(1/12/1e5) ~ 0.0027
    assert abs(float(xs.mean()) - 0.5) < 0.01


def test_sampling_deterministic_given_seed():
    d = ValueDistribution.discrete([(1.0, 0.5), (2.0, 0.5)], h_max=2.0)
    assert list(sample(d, 50, 42)) == list(sample(d, 50, 42))


def test_atom_arrays_are_built_once_and_draws_keep_their_bits():
    d = ValueDistribution.discrete([(1.0, 0.5), (2.5, 0.0), (4.0, 0.3), (9.0, 0.2)], h_max=10.0)
    vals, probs, cum = d._atom_arrays
    assert d._atom_arrays[0] is vals
    assert not (vals.flags.writeable or probs.flags.writeable or cum.flags.writeable)
    # the draws recorded before the arrays were cached
    want = [4.0, 1.0, 1.0, 4.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0, 4.0]
    assert sample(d, 12, 2024).tolist() == want
    assert sample(d, 12, 2024).tolist() == want


def test_sample_count_precondition():
    d = ValueDistribution.discrete([(1.0, 1.0)], h_max=1.0)
    with pytest.raises(ValueError):
        sample(d, 0, 1)


def test_cdf_quantile_discrete():
    d = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    assert exact_cdf(d, 1.0) == pytest.approx(0.9, abs=0)
    assert exact_cdf(d, 0.5) == 0.0
    assert exact_cdf(d, 5.0) == pytest.approx(1.0, abs=0)
    assert exact_quantile(d, 0.95) == 5.0
    assert exact_quantile(d, 0.0) == 1.0
    assert exact_quantile(d, 0.9) == 1.0


def test_quantile_uniform():
    d = ValueDistribution.uniform_mixture([(0.0, 2.0, 1.0)], h_max=2.0)
    assert exact_quantile(d, 0.25) == pytest.approx(0.5, abs=1e-12)
    assert exact_quantile(d, 0.0) == 0.0
    assert exact_quantile(d, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_quantile_disjoint_mixture_gap():
    d = ValueDistribution.uniform_mixture([(0.0, 1.0, 0.5), (3.0, 4.0, 0.5)], h_max=4.0)
    assert exact_quantile(d, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert exact_quantile(d, 0.75) == pytest.approx(3.5, abs=1e-12)


def test_quantile_precondition():
    d = ValueDistribution.discrete([(1.0, 1.0)], h_max=1.0)
    with pytest.raises(ValueError):
        exact_quantile(d, 1.5)


def test_cdf_quantile_consistency_grid():
    d = ValueDistribution.discrete([(0.5, 0.3), (1.5, 0.2), (2.0, 0.5)], h_max=2.0)
    for p in np.linspace(0, 1, 1001):
        assert exact_cdf(d, exact_quantile(d, float(p))) >= float(p) - 1e-12
    dm = ValueDistribution.uniform_mixture([(0.0, 1.0, 0.4), (2.0, 3.0, 0.6)], h_max=3.0)
    for p in np.linspace(0, 1, 1001):
        assert exact_cdf(dm, exact_quantile(dm, float(p))) >= float(p) - 1e-9


def test_tail_probability():
    d = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    assert tail_probability(d, 0.0) == 1.0
    assert tail_probability(d, 1.0) == 1.0
    assert tail_probability(d, 3.0) == pytest.approx(0.1, abs=0)
    assert tail_probability(d, 5.0) == pytest.approx(0.1, abs=0)
    assert tail_probability(d, 5.5) == 0.0
    # each atom's run ends at its sale probability
    assert d.price_runs.edges.tolist()[1:] == [tail_probability(d, 5.0), tail_probability(d, 1.0)]


def test_price_runs_are_built_once_and_read_only():
    d = ValueDistribution.discrete([(1.0, 0.5), (2.0, 0.0), (5.0, 0.5)], h_max=5.0)
    runs = d.price_runs
    assert runs is d.price_runs
    assert runs.prices.tolist() == [5.0, 2.0, 1.0]
    assert runs.edges.tolist() == [0.0, 0.5, 0.5, 1.0]  # the zero-mass atom keeps its empty run
    assert not runs.edges.flags.writeable and not runs.prices.flags.writeable
    with pytest.raises(ValueError):
        ValueDistribution.uniform_mixture([(0.0, 1.0, 1.0)], h_max=1.0).price_runs


def test_revenue_curve_example2_vertices():
    d = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    curve = exact_revenue_curve(d)
    assert (0.1, 0.5) in curve.vertices
    assert curve.vertices[-1] == (1.0, 1.0)
    assert curve.vertices[0] == (0.0, 0.0)


def test_revenue_curve_point_mass_is_line():
    d = ValueDistribution.discrete([(3.0, 1.0)], h_max=3.0)
    curve = exact_revenue_curve(d)
    assert curve.vertices == ((0.0, 0.0), (1.0, 3.0))


def test_revenue_curve_example1_vertices():
    d = rare_high_dist(10.0)
    curve = exact_revenue_curve(d)
    assert (0.1, 1.0) in curve.vertices
    assert curve.vertices[-1] == (1.0, 1.0)


def test_revenue_curve_matches_quantile_formula_at_breakpoints():
    d = ValueDistribution.discrete([(0.5, 0.25), (1.0, 0.25), (4.0, 0.5)], h_max=4.0)
    curve = exact_revenue_curve(d)
    for q in set(curve.qs):
        assert curve.evaluate(q) == q * exact_quantile(d, 1.0 - q)


def test_revenue_curve_mixture_grid():
    d = ValueDistribution.uniform_mixture([(0.0, 2.0, 1.0)], h_max=2.0)
    curve = exact_revenue_curve(d, grid_points=1000)
    # R(q) = q * 2(1-q), maximum 0.5 at q = 0.5
    assert curve.evaluate(0.5) == pytest.approx(0.5, abs=1e-3)
    assert curve.evaluate(0.0) == 0.0


def test_empirical_cdf_within_dkw_radius():
    d = ValueDistribution.discrete([(1.0, 0.6), (2.0, 0.3), (4.0, 0.1)], h_max=4.0)
    m, delta = 100_000, 0.05
    eps = dkw_epsilon(m, delta)
    atom_vals = np.array([v for v, _ in d.atoms])
    cdf_true = np.array([exact_cdf(d, float(v)) for v in atom_vals])
    hits = 0
    trials = 100
    for t in range(trials):
        xs = np.sort(sample(d, m, np.random.SeedSequence([55, t])))
        emp = np.searchsorted(xs, atom_vals, side="right") / m
        if np.max(np.abs(emp - cdf_true)) <= eps:
            hits += 1
    assert hits >= 95


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ValueDistribution.discrete([(1.0, 0.5), (2.0, 0.4)], h_max=2.0)  # probs != 1
    with pytest.raises(ValueError):
        ValueDistribution.discrete([(1.0, 0.5), (1.0, 0.5)], h_max=2.0)  # duplicate atom
    with pytest.raises(ValueError):
        ValueDistribution.discrete([(3.0, 1.0)], h_max=2.0)  # above bound
    with pytest.raises(ValueError):
        ValueDistribution.uniform_mixture([(1.0, 1.0, 1.0)], h_max=2.0)  # lo == hi


def test_validation_rejects_nan_masses():
    # NaN compares false both ways, so the sum check must fail it
    with pytest.raises(ValueError):
        ValueDistribution.discrete([(1.0, math.nan)], h_max=2.0)
    with pytest.raises(ValueError):
        ValueDistribution.discrete([(1.0, 0.5), (2.0, math.nan)], h_max=2.0)
    with pytest.raises(ValueError):
        ValueDistribution.uniform_mixture([(0.0, 1.0, math.nan)], h_max=2.0)


def test_json_round_trip():
    d = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    assert ValueDistribution.from_json(d.to_json()) == d
    dm = ValueDistribution.uniform_mixture([(0.0, 2.0, 1.0)], h_max=2.0)
    assert ValueDistribution.from_json(dm.to_json()) == dm
    spec = '{"type":"discrete","h_max":5,"atoms":[{"value":1,"prob":0.9},{"value":5,"prob":0.1}]}'
    assert ValueDistribution.from_json(spec).atoms == ((1.0, 0.9), (5.0, 0.1))
