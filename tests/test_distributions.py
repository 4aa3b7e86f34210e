import math
import pickle

import numpy as np
import pytest

from myerson_lab.curves import curve_from_price_runs
from myerson_lab.distributions import ValueDistribution, _spawned_uniforms, sample
from myerson_lab.empirical import dkw_epsilon

from conftest import rare_high_dist
from reference import discrete_cdf, discrete_quantile, tail_probability, triples


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
    vals, probs = d._atom_arrays
    assert d._atom_arrays[0] is vals
    assert not (vals.flags.writeable or probs.flags.writeable)
    # the draws recorded before the arrays were cached
    want = [4.0, 1.0, 1.0, 4.0, 9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0, 4.0]
    assert sample(d, 12, 2024).tolist() == want
    assert sample(d, 12, 2024).tolist() == want


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7])
def test_spawned_uniforms_are_numpys_bits(seed, n):
    # even keys on both sides of a learner block edge at 512 rounds, and the largest key
    keys = np.array([0, 2, 1020, 1022, 1024, 1026, 2**32 - 2, 2**32 - 1], dtype=np.uint32)
    got = _spawned_uniforms(seed, keys, n)
    want = [np.random.default_rng(np.random.SeedSequence([seed, 0], spawn_key=(int(k),))).random(n) for k in keys]
    assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def test_sample_count_precondition():
    d = ValueDistribution.discrete([(1.0, 1.0)], h_max=1.0)
    with pytest.raises(ValueError):
        sample(d, 0, 1)


def test_cdf_quantile_discrete():
    d = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    assert discrete_cdf(d, 1.0) == pytest.approx(0.9, abs=0)
    assert discrete_cdf(d, 0.5) == 0.0
    assert discrete_cdf(d, 5.0) == pytest.approx(1.0, abs=0)
    assert discrete_quantile(d, 0.95) == 5.0
    assert discrete_quantile(d, 0.0) == 1.0
    assert discrete_quantile(d, 0.9) == 1.0


def test_quantile_precondition():
    d = ValueDistribution.discrete([(1.0, 1.0)], h_max=1.0)
    with pytest.raises(ValueError):
        discrete_quantile(d, 1.5)


def test_cdf_quantile_consistency_grid():
    d = ValueDistribution.discrete([(0.5, 0.3), (1.5, 0.2), (2.0, 0.5)], h_max=2.0)
    for p in np.linspace(0, 1, 1001):
        assert discrete_cdf(d, discrete_quantile(d, float(p))) >= float(p) - 1e-12
    # each price run posts the generalized inverse over its quantiles
    for q0, q1, price in triples(d.price_runs):
        assert discrete_quantile(d, 1.0 - (q0 + q1) / 2) == price


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
    # a copy, as a worker process receives it, rebuilds them read-only
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and copy.price_runs.edges.tolist() == runs.edges.tolist()
    assert not copy.price_runs.edges.flags.writeable and not copy.price_runs.prices.flags.writeable
    with pytest.raises(ValueError):
        ValueDistribution.uniform_mixture([(0.0, 1.0, 1.0)], h_max=1.0).price_runs


def test_revenue_curve_example2_vertices():
    d = ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)
    curve = curve_from_price_runs(d.price_runs)
    assert (0.1, 0.5) in curve.vertices
    assert curve.vertices[-1] == (1.0, 1.0)
    assert curve.vertices[0] == (0.0, 0.0)


def test_revenue_curve_point_mass_is_line():
    d = ValueDistribution.discrete([(3.0, 1.0)], h_max=3.0)
    curve = curve_from_price_runs(d.price_runs)
    assert curve.vertices == ((0.0, 0.0), (1.0, 3.0))


def test_revenue_curve_example1_vertices():
    d = rare_high_dist(10.0)
    curve = curve_from_price_runs(d.price_runs)
    assert (0.1, 1.0) in curve.vertices
    assert curve.vertices[-1] == (1.0, 1.0)


def test_revenue_curve_matches_quantile_formula_at_breakpoints():
    d = ValueDistribution.discrete([(0.5, 0.25), (1.0, 0.25), (4.0, 0.5)], h_max=4.0)
    curve = curve_from_price_runs(d.price_runs)
    for q in set(curve.qs):
        assert curve.evaluate(q) == q * discrete_quantile(d, 1.0 - q)


def test_empirical_cdf_within_dkw_radius():
    d = ValueDistribution.discrete([(1.0, 0.6), (2.0, 0.3), (4.0, 0.1)], h_max=4.0)
    m, delta = 100_000, 0.05
    eps = dkw_epsilon(m, delta)
    atom_vals = np.array([v for v, _ in d.atoms])
    cdf_true = np.array([discrete_cdf(d, float(v)) for v in atom_vals])
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
