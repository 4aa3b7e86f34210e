import json
import subprocess
import sys
from pathlib import Path

import pytest

from myerson_lab.cli import (
    EXAMPLES_IRONING_HEADER,
    LOSS_HEADER,
    REGRET_HEADER,
    experiment_examples,
    experiment_loss,
    experiment_regret,
    main,
)
from myerson_lab.distributions import ValueDistribution
from myerson_lab.environments import Environment

DIST_JSON = '{"type":"discrete","h_max":5,"atoms":[{"value":1,"prob":0.9},{"value":5,"prob":0.1}]}'
ENV_JSON = '{"type":"single_item","n":3}'


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "d.json").write_text(DIST_JSON)
    (tmp_path / "e.json").write_text(ENV_JSON)
    (tmp_path / "bids.csv").write_text("5\n1\n1\n")
    return tmp_path


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "myerson_lab.cli", *args],
        capture_output=True,
        text=True,
    )


def test_learn_run_eval_pipeline(workdir, capsys):
    plan_path = workdir / "plan.json"
    rc = main(
        [
            "learn",
            "--samples", str(workdir / "bids.csv"),
            "--delta", "0.3",
            "--h-max", "5",
            "--out", str(plan_path),
        ]
    )
    assert rc == 0
    plan = json.loads(plan_path.read_text())
    assert "reserve" in plan and "intervals" in plan
    capsys.readouterr()

    rc = main(
        [
            "run",
            "--env", str(workdir / "e.json"),
            "--plan", str(plan_path),
            "--bids", str(workdir / "bids.csv"),
            "--seed", "1",
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["interim_alloc"]) == 3

    rc = main(
        [
            "eval",
            "--dist", str(workdir / "d.json"),
            "--env", str(workdir / "e.json"),
            "--plan", str(plan_path),
            "--method", "quad",
        ]
    )
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["method"] == "quadrature"


def test_eval_quad_matches_enum_on_matroids(workdir, capsys):
    plan = workdir / "p.json"
    plan.write_text('{"reserve": 1.0, "intervals": [{"lo": 1.0, "hi": 5.0}]}')
    for spec in (
        '{"type": "matroid", "kind": "uniform", "rank": 2, "n": 4}',
        '{"type": "matroid", "kind": "partition", "blocks": [0, 1, 0, 1], "capacities": [1, 2], "n": 4}',
    ):
        env = workdir / "m.json"
        env.write_text(spec)
        revenue = {}
        for method in ("enum", "quad"):
            args = ["eval", "--dist", str(workdir / "d.json"), "--env", str(env), "--plan", str(plan)]
            assert main([*args, "--method", method]) == 0
            revenue[method] = json.loads(capsys.readouterr().out)["expected_revenue"]
        assert revenue["quad"] == pytest.approx(revenue["enum"], abs=1e-12)


def test_oracle_command(workdir, capsys):
    rc = main(["oracle", "--dist", str(workdir / "d.json"), "--env", str(workdir / "e.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["plan"]["reserve"] == 1.0
    assert out["plan"]["intervals"] == [{"lo": 1.0, "hi": 5.0}]


def test_calc_commands(capsys):
    assert main(["calc", "samples", "--eps", "0.2", "--delta", "0.1", "--n", "1", "--h-max", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1349"
    assert main(["calc", "bound", "--m", "50", "--delta", "0.7357588823428847", "--n", "1", "--h-max", "1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.3, abs=1e-12)


def test_exit_codes(workdir):
    res = run_cli(["eval", "--dist", str(workdir / "d.json"), "--env", str(workdir / "e.json"),
                   "--plan", "missing.json", "--method", "enum"])
    assert res.returncode == 2
    big_env = workdir / "big.json"
    big_env.write_text('{"type":"single_item","n":40}')
    plan = workdir / "p.json"
    plan.write_text('{"reserve": 0.0, "intervals": []}')
    res = run_cli(["eval", "--dist", str(workdir / "d.json"), "--env", str(big_env),
                   "--plan", str(plan), "--method", "enum"])
    assert res.returncode == 3
    res = run_cli(["learn", "--samples", "nope.csv"])
    assert res.returncode == 2  # argparse: missing required args


def test_experiment_loss_schema_and_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("MYERSON_LAB_THREADS", "1")
    dist = ValueDistribution.from_json(DIST_JSON)
    env = Environment.from_json(ENV_JSON)
    out1 = tmp_path / "loss1.csv"
    out2 = tmp_path / "loss2.csv"
    lines = experiment_loss(dist, env, [20, 40], trials=5, delta=0.2, seed=3, out_path=out1)
    assert lines[0] == LOSS_HEADER == "m,trial,epsilon,loss,bound,within_bound"
    assert len(lines) == 1 + 10 + 2  # header, rows, two summary rows
    experiment_loss(dist, env, [20, 40], trials=5, delta=0.2, seed=3, out_path=out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_experiment_loss_parallel_matches_serial(tmp_path, monkeypatch):
    dist = ValueDistribution.from_json(DIST_JSON)
    env = Environment.from_json(ENV_JSON)
    monkeypatch.setenv("MYERSON_LAB_THREADS", "1")
    serial = experiment_loss(dist, env, [15], trials=6, delta=0.2, seed=1, out_path=None)
    monkeypatch.setenv("MYERSON_LAB_THREADS", "3")
    parallel = experiment_loss(dist, env, [15], trials=6, delta=0.2, seed=1, out_path=None)
    assert serial == parallel


def test_experiment_regret_schema(tmp_path, monkeypatch):
    monkeypatch.setenv("MYERSON_LAB_THREADS", "1")
    dist = ValueDistribution.from_json(DIST_JSON)
    env = Environment.from_json(ENV_JSON)
    out = tmp_path / "trace.csv"
    lines = experiment_regret(dist, env, T=3, delta=0.1, seeds=2, master_seed=0, out_path=out)
    assert lines[0] == REGRET_HEADER
    assert len(lines) == 1 + 2 * 4  # header + (T+1) rows per seed
    assert out.read_text().startswith("seed,t,m_t,epsilon_t,plan_hash")


def test_experiment_examples_report(tmp_path):
    report = experiment_examples(tmp_path / "report.json")
    rows = report["ironing_value"]
    assert {(r["n"], r["h"]) for r in rows} == {(n, h) for n in (2, 5, 10) for h in (10.0, 100.0, 1000.0)}
    for r in rows:
        assert r["revenue_ironed"] > r["revenue_second_price"]
    n2 = {r["h"]: r for r in rows if r["n"] == 2}
    # ironed revenue follows 2 - 1/H; plain second price approaches 1
    for h in (10.0, 100.0, 1000.0):
        assert n2[h]["revenue_ironed"] == pytest.approx(2 - 1 / h, abs=1e-9)
    assert n2[1000.0]["revenue_second_price"] == pytest.approx(1.0, abs=5e-3)
    over = report["over_ironing"]
    assert over["over_ironing_hurts"] is True
    assert over["revenue_over_ironed"] < over["revenue_second_price"]
    assert json.loads((tmp_path / "report.json").read_text()) == report
    assert EXAMPLES_IRONING_HEADER == "n,h,revenue_ironed,revenue_second_price"


def test_cli_entry_point_runs(workdir):
    res = run_cli(["oracle", "--dist", str(workdir / "d.json"), "--env", str(workdir / "e.json")])
    assert res.returncode == 0
    assert json.loads(res.stdout)["plan"]["reserve"] == 1.0
