"""Experiment CSVs pinned to recorded sha256 digests.

``data/pinned_traces.json`` holds, for every case built by
``pinned_cases``, the sha256 of the CSV that ``experiment regret`` (or
``experiment loss``) writes for it.  The pipeline must reproduce those
files byte for byte: every plan hash, revenue and loss cell printed to
17 significant digits.  ``record`` writes an entry in that format for
each case.
"""

import hashlib
import json
from pathlib import Path

import pytest

from myerson_lab.cli import experiment_loss, experiment_regret
from myerson_lab.distributions import ValueDistribution
from myerson_lab.environments import Environment

LAW2 = ValueDistribution.discrete([(1, 0.9), (10, 0.1)], h_max=10.0)
LAW8 = ValueDistribution.discrete(
    [(1, 0.30), (2, 0.20), (3, 0.12), (4, 0.08), (6, 0.05), (8, 0.10), (9, 0.10), (10, 0.05)], h_max=10.0
)
DATA = Path(__file__).parent / "data" / "pinned_traces.json"


def pinned_cases():
    """name -> (experiment, dist, env, keyword arguments)."""
    single3, pos6 = Environment.single_item(3), Environment.position([1, 0.6, 0.3], 6)
    regret = dict(T=300, delta=0.1, seeds=10, master_seed=0)
    loss = dict(m_list=[30, 100, 1000], trials=20, delta=0.1, seed=0)
    return {
        "regret-law2-single3": ("regret", LAW2, single3, regret),
        "regret-law8-position6": ("regret", LAW8, pos6, regret),
        "loss-law2-single3": ("loss", LAW2, single3, loss),
        "loss-law8-position6": ("loss", LAW8, pos6, loss),
    }


def csv_digest(case, out_path: Path) -> str:
    experiment, dist, env, kwargs = case
    if experiment == "regret":
        experiment_regret(dist, env, out_path=out_path, **kwargs)
    else:
        experiment_loss(dist, env, out_path=out_path, **kwargs)
    return hashlib.sha256(out_path.read_bytes()).hexdigest()


def record(cases, tmp_dir: Path):
    return {name: csv_digest(case, tmp_dir / f"{name}.csv") for name, case in cases.items()}


PINNED = json.loads(DATA.read_text())
CASES = pinned_cases()


def test_corpus_is_complete():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_experiment_csv_is_pinned(name, tmp_path, monkeypatch):
    monkeypatch.setenv("MYERSON_LAB_THREADS", "1")  # serial: same bytes, no process pool
    assert csv_digest(CASES[name], tmp_path / "out.csv") == PINNED[name]
