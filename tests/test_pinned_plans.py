"""Learned plans and confidence curves pinned to recorded literals.

``data/pinned_plans.json`` holds, for every input built by
``pinned_inputs``, the JSON of the plan ``compute_auction`` learns and,
for the small inputs, the vertices of ``r_min_curve`` and
``r_max_curve`` at the input's DKW radius.  The learner must reproduce
them exactly: the same floats, not merely close ones.  ``record`` writes
an entry in that format for each input.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from myerson_lab.empirical import EmpiricalQuantile, dkw_epsilon, r_max_curve, r_min_curve
from myerson_lab.learner import compute_auction

H = 10.0
MIXTURE = ((0.0, 2.0, 0.7), (6.0, 10.0, 0.3))
LAW8 = ((1, 0.30), (2, 0.20), (3, 0.12), (4, 0.08), (6, 0.05), (8, 0.10), (9, 0.10), (10, 0.05))
CURVE_MAX_M = 64  # curves are pinned for inputs with at most this many samples
DATA = Path(__file__).parent / "data" / "pinned_plans.json"


def _mixture(m, seed):
    rng = np.random.default_rng(np.random.SeedSequence([6, seed]))
    lo, hi, w = (np.array(c) for c in zip(*MIXTURE))
    comp = rng.choice(len(w), size=m, p=w)
    return lo[comp] + rng.uniform(size=m) * (hi - lo)[comp]


def _discrete(m, seed, atoms=LAW8):
    rng = np.random.default_rng(np.random.SeedSequence([7, seed]))
    vals, probs = (np.array(c, dtype=float) for c in zip(*atoms))
    return rng.choice(vals, size=m, p=probs)


def pinned_inputs():
    """name -> (samples, delta, h_max)."""
    cases = {}
    for m in (1, 2, 64, 2048):
        for seed in (0, 1, 2):
            cases[f"mixture-m{m}-s{seed}"] = (_mixture(m, seed), 0.1, H)
    for m, seed in ((20, 0), (64, 1), (500, 2), (5000, 3)):
        cases[f"law8-m{m}-s{seed}"] = (_discrete(m, seed), 0.1, H)
    cases["two-atom-m300"] = (_discrete(300, 4, ((1, 0.9), (10, 0.1))), 0.05, H)
    cases["ties-rounded-m400"] = (np.round(_mixture(400, 5), 1), 0.1, H)
    cases["all-equal-m50"] = (np.full(50, 3.0), 0.1, H)
    cases["all-zero-m30"] = (np.zeros(30), 0.1, H)
    cases["all-hmax-m30"] = (np.full(30, H), 0.1, H)
    ends = np.concatenate([np.zeros(7), np.full(5, H), _mixture(40, 6)])
    cases["zero-and-hmax-m52"] = (ends, 0.1, H)
    cases["zero-and-hmax-m300"] = (np.concatenate([np.zeros(60), np.full(40, H), _discrete(200, 7)]), 0.2, H)
    # m=3 and delta=0.005 give epsilon = 0.99929..., just under 1
    cases["eps-just-under-1"] = (np.array([2.0, 7.5, 9.0]), 0.005, H)
    cases["eps-just-under-1-m8"] = (_mixture(8, 8), 2.0 * math.exp(-16.0) * 1.001, H)
    cases["delta-0.9-m64"] = (_mixture(64, 9), 0.9, H)
    return cases


def record(cases):
    out = {}
    for name, (xs, delta, h_max) in cases.items():
        entry = {"plan": compute_auction(xs, delta, h_max).to_json()}
        eps = dkw_epsilon(len(xs), delta)
        if len(xs) <= CURVE_MAX_M and eps < 1.0:
            eq = EmpiricalQuantile.from_samples(xs, h_max)
            entry["epsilon"] = eps
            entry["r_min"] = [list(v) for v in r_min_curve(eq, eps).vertices]
            entry["r_max"] = [list(v) for v in r_max_curve(eq, eps).vertices]
        out[name] = entry
    return out


PINNED = json.loads(DATA.read_text())
CASES = pinned_inputs()


def test_corpus_is_complete():
    assert set(PINNED) == set(CASES)
    assert sum("r_min" in entry for entry in PINNED.values()) >= 10
    eps = [dkw_epsilon(len(xs), delta) for xs, delta, _ in CASES.values()]
    assert max(e for e in eps if e < 1.0) > 0.999


@pytest.mark.parametrize("name", sorted(CASES))
def test_plan_is_pinned(name):
    xs, delta, h_max = CASES[name]
    assert compute_auction(xs, delta, h_max).to_json() == PINNED[name]["plan"]


@pytest.mark.parametrize("name", sorted(n for n in CASES if "r_min" in PINNED[n]))
def test_confidence_curves_are_pinned(name):
    xs, delta, h_max = CASES[name]
    entry = PINNED[name]
    eps = dkw_epsilon(len(xs), delta)
    assert eps == entry["epsilon"]
    eq = EmpiricalQuantile.from_samples(xs, h_max)
    assert [list(v) for v in r_min_curve(eq, eps).vertices] == entry["r_min"]
    assert [list(v) for v in r_max_curve(eq, eps).vertices] == entry["r_max"]
