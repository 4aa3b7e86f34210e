"""Draws of ``distributions.sample`` pinned to recorded sha256 digests.

``data/pinned_samples.json`` holds, for every case built by
``pinned_cases``, the sha256 of the little-endian float64 bytes that
``sample`` returns for it.  Discrete laws of 1, 2, 3 and 8 atoms (some
with zero-probability atoms) and one uniform mixture are drawn at
counts 1, 3 and 1000, from int seeds and from ``SeedSequence`` seeds.
Any change to how draws are made must reproduce these bits exactly.
``record`` writes an entry in that format for each case.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from myerson_lab.distributions import ValueDistribution, sample

DATA = Path(__file__).parent / "data" / "pinned_samples.json"

LAWS = {
    "point": ValueDistribution.discrete([(3.0, 1.0)], h_max=10.0),
    "two-atom": ValueDistribution.discrete([(1.0, 0.9), (10.0, 0.1)], h_max=10.0),
    "three-atom-zero-mid": ValueDistribution.discrete([(0.0, 0.5), (4.0, 0.0), (7.0, 0.5)], h_max=10.0),
    "eight-atom-zero-ends": ValueDistribution.discrete(
        [(0, 0.0), (1, 0.30), (2, 0.20), (3, 0.17), (4, 0.08), (6, 0.0), (8, 0.15), (10, 0.10)], h_max=10.0
    ),
    "mixture": ValueDistribution.uniform_mixture([(0.0, 2.0, 0.7), (6.0, 10.0, 0.3)], h_max=10.0),
}
SEEDS = {"int0": 0, "int12345": 12345, "seq6-1": np.random.SeedSequence([6, 1])}


def pinned_cases():
    """name -> (dist, count, seed name)."""
    return {
        f"{law}-n{count}-{seed}": (dist, count, seed)
        for law, dist in LAWS.items()
        for count in (1, 3, 1000)
        for seed in SEEDS
    }


def draw_digest(case) -> str:
    dist, count, seed = case
    draws = sample(dist, count, SEEDS[seed])
    assert draws.shape == (count,) and draws.dtype == np.float64
    return hashlib.sha256(draws.astype("<f8").tobytes()).hexdigest()


def record(cases):
    return {name: draw_digest(case) for name, case in cases.items()}


PINNED = json.loads(DATA.read_text())
CASES = pinned_cases()


def test_corpus_is_complete():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_sample_draws_are_pinned(name):
    assert draw_digest(CASES[name]) == PINNED[name]
