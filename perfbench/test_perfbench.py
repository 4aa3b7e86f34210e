"""Self-tests of the benchmark at toy sizes."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import LAW4, LAW8, WORKLOADS, EvalOracles, LearnMixture, LossSweep, RegretOnline, Sizes

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TOY = Sizes(
    learn_m=64,
    loss_m=(20, 50),
    loss_trials=2,
    loss_env='{"type": "position", "weights": [1, 0.6], "n": 3}',
    regret_T=15,
    eval_mc=50,
    eval_cases=(
        (LAW8, '{"type": "position", "weights": [1, 0.6], "n": 3}'),
        (LAW8, '{"type": "k_unit", "k": 2, "n": 3}'),
        (LAW4, '{"type": "matroid", "kind": "partition", "blocks": [0, 0, 1], "capacities": [1, 1], "n": 3}'),
        (LAW4, '{"type": "matroid", "kind": "uniform", "rank": 2, "n": 3}'),
    ),
)


def toy_run(name, trace=False, seed=3):
    return run.run_benchmark(name, seed=seed, seconds=0.0, trace=trace, sizes=TOY)


def first_pass(report):
    return sum(rep["pass"] == 1 for rep in report["reps"])


def test_spec_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_exactly_the_declared_metrics(name, trace):
    result, report = toy_run(name, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert report["repeat_mismatches"] == []


def test_raising_operation_is_counted_and_the_run_goes_on(monkeypatch):
    class Flaky(LossSweep):
        def _trial(self, m, seed):
            if m == TOY.loss_m[0]:
                raise ValueError("injected")
            return super()._trial(m, seed)

    monkeypatch.setitem(WORKLOADS, "loss-sweep", Flaky)
    result, report = toy_run("loss-sweep")
    injected = report["failures_by_kind"]["ValueError"]
    assert injected == TOY.loss_trials * first_pass(report)
    assert result["correct"] is True  # raised, so no wrong output was produced
    assert report["metrics"]["failed_frac"]["value"] >= injected / result["attempted"] > 0
    assert all(rep["ops"] == len(TOY.loss_m) * TOY.loss_trials for rep in report["reps"])


def test_one_seed_attempts_and_fails_the_same_operations(monkeypatch):
    monkeypatch.setattr(LossSweep, "rep_s", 0.01)
    runs = [run.run_benchmark("loss-sweep", seed=5, seconds=0.1, trace=False, sizes=TOY) for _ in range(2)]
    (a, report), (b, _) = runs
    assert first_pass(report) >= 2
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert [rep["digest"] for rep in report["reps"]] == [rep["digest"] for rep in runs[1][1]["reps"]]


def test_eval_cross_check_flags_a_perturbed_revenue(monkeypatch):
    class Perturbed(EvalOracles):
        def _case(self, dist, env, mc_seed):
            out = super()._case(dist, env, mc_seed)
            if out["quad"] is not None:
                quad = out["quad"]
                out["quad"] = dataclasses.replace(quad, expected_revenue=quad.expected_revenue * (1 + 1e-6))
            return out

    monkeypatch.setitem(WORKLOADS, "eval-oracles", Perturbed)
    result, report = toy_run("eval-oracles")
    assert result["correct"] is False
    assert report["failures_by_kind"] == {"check": 2 * first_pass(report)}


def test_regret_check_flags_a_perturbed_optimum(monkeypatch):
    class Perturbed(RegretOnline):
        def optimum(self):
            return super().optimum() * (1 + 1e-6)

    monkeypatch.setitem(WORKLOADS, "regret-online", Perturbed)
    result, report = toy_run("regret-online")
    assert result["correct"] is False
    assert report["failures_by_kind"] == {"check": first_pass(report)}


def test_traced_pass_must_reproduce_the_untraced_plan(monkeypatch):
    class Drifting(LearnMixture):
        def run(self, xs, tracer=None):
            if tracer is not None:
                xs = xs[: len(xs) // 2]
            return super().run(xs, tracer)

    monkeypatch.setitem(WORKLOADS, "learn-mixture", Drifting)
    result, report = toy_run("learn-mixture", trace=True)
    assert result["correct"] is False
    assert report["repeat_mismatches"] == [0]


def test_no_result_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "learn-mixture", "--seed", "1", "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
