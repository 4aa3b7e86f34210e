import math

import numpy as np
import pytest

from myerson_lab import Environment, MatroidSpec, ValueDistribution
from myerson_lab.learner import IroningPlan


@pytest.fixture
def bimodal_small():
    """Value 5 with probability 1/10, else 1 (the mis-ironing showcase)."""
    return ValueDistribution.discrete([(1.0, 0.9), (5.0, 0.1)], h_max=5.0)


@pytest.fixture
def rare_high():
    """Value H=10 with probability 1/H, else 1."""
    return ValueDistribution.discrete([(1.0, 0.9), (10.0, 0.1)], h_max=10.0)


def rare_high_dist(h: float) -> ValueDistribution:
    return ValueDistribution.discrete([(1.0, 1.0 - 1.0 / h), (h, 1.0 / h)], h_max=h)


def seeded_rng(*path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(path)))


def random_discrete(rng, max_atoms=4, h=10.0) -> ValueDistribution:
    s = int(rng.integers(2, max_atoms + 1))
    vals = np.sort(rng.uniform(0.2, h, size=s))
    while len(np.unique(vals)) < s:
        vals = np.sort(rng.uniform(0.2, h, size=s))
    pr = rng.dirichlet(np.ones(s))
    atoms = list(zip(vals.tolist(), pr.tolist()))
    total = math.fsum(p for _, p in atoms)
    atoms[-1] = (atoms[-1][0], atoms[-1][1] + (1.0 - total))
    return ValueDistribution.discrete(atoms, h_max=h)


def random_aligned_plan(rng, dist: ValueDistribution) -> IroningPlan:
    """Random plan with endpoints on the support, as the learner emits."""
    vals = [v for v, _ in dist.atoms]
    reserve = float(rng.choice([0.0] + vals))
    intervals = []
    if rng.random() < 0.85:
        lo = float(rng.choice(vals))
        his = [e for e in vals + [dist.h_max] if e > lo]
        if his:
            intervals.append((lo, float(rng.choice(his))))
    return IroningPlan.canonical(intervals, reserve)


def random_slot_env(rng, n_max=5) -> Environment:
    n = int(rng.integers(1, n_max + 1))
    kind = rng.choice(["single", "kunit", "pos"])
    if kind == "single" or n == 1:
        return Environment.single_item(n)
    if kind == "kunit":
        return Environment.k_unit(int(rng.integers(1, n + 1)), n)
    length = int(rng.integers(1, n + 1))
    w = np.sort(rng.uniform(0.0, 1.0, size=length))[::-1]
    return Environment.position(w.tolist(), n)


def random_matroid_env(rng, n_max=5) -> Environment:
    """Uniform or partition matroid; ranks and capacities may be 0 or
    exceed the number of elements they govern."""
    n = int(rng.integers(1, n_max + 1))
    if rng.random() < 0.5:
        spec = MatroidSpec.uniform(int(rng.integers(0, n + 2)), n)
    else:
        parts = int(rng.integers(1, n + 1))
        spec = MatroidSpec.partition(
            [int(rng.integers(0, parts)) for _ in range(n)],
            [int(rng.integers(0, 4)) for _ in range(parts)],
        )
    return Environment.with_matroid(spec, n)
