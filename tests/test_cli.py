import json
import subprocess
import sys
from pathlib import Path

import pytest

from myerson_lab import oracle
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
from myerson_lab.learner import loss_bound

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


def test_eval_quad_matches_enum_between_atoms(workdir, capsys):
    # the interval starts below the support and ends between atoms, and
    # two atoms have probability 0
    atoms = [(1, 0.459), (4, 0.336), (6, 0), (7, 0), (9, 0.205)]
    dist = workdir / "z.json"
    dist.write_text(json.dumps({"type": "discrete", "h_max": 10, "atoms": [{"value": v, "prob": p} for v, p in atoms]}))
    env = workdir / "six.json"
    env.write_text('{"type": "single_item", "n": 6}')
    plan = workdir / "p.json"
    plan.write_text('{"reserve": 0, "intervals": [{"lo": 0.5, "hi": 4.5}]}')
    revenue = {}
    for method in ("enum", "quad"):
        assert main(["eval", "--dist", str(dist), "--env", str(env), "--plan", str(plan), "--method", method]) == 0
        revenue[method] = json.loads(capsys.readouterr().out)["expected_revenue"]
    assert revenue["quad"] == pytest.approx(revenue["enum"], abs=1e-12)


def test_oracle_command(workdir, capsys):
    rc = main(["oracle", "--dist", str(workdir / "d.json"), "--env", str(workdir / "e.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["plan"]["reserve"] == 1.0
    assert out["plan"]["intervals"] == [{"lo": 1.0, "hi": 5.0}]


def test_oracle_on_a_law_whose_tails_round_above_one(workdir, capsys):
    # the probabilities above the lowest atom sum to 1 + 2e-16 in floats
    atoms = [(1, 0.0), (4, 0.020813622669301035), (5, 0.0), (8, 0.35030200722788296),
             (9, 0.30052148070527895), (10, 0.3283628893975372)]
    dist = workdir / "hair.json"
    dist.write_text(json.dumps({"type": "discrete", "h_max": 10, "atoms": [{"value": v, "prob": p} for v, p in atoms]}))
    rc = main(["oracle", "--dist", str(dist), "--env", str(workdir / "e.json")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["plan"] == {"reserve": 8.0, "intervals": [{"lo": 8.0, "hi": 9.0}, {"lo": 9.0, "hi": 10.0}]}
    assert out["expected_revenue"] == pytest.approx(9.278904069046327, rel=1e-12)


def test_calc_commands(capsys):
    assert main(["calc", "samples", "--eps", "0.2", "--delta", "0.1", "--n", "1", "--h-max", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1349"
    assert main(["calc", "bound", "--m", "50", "--delta", "0.7357588823428847", "--n", "1", "--h-max", "1"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.3, abs=1e-12)


def test_exit_codes(workdir):
    res = run_cli(["eval", "--dist", str(workdir / "d.json"), "--env", str(workdir / "e.json"),
                   "--plan", "missing.json", "--method", "enum"])
    assert res.returncode == 2
    plan = workdir / "p.json"
    plan.write_text('{"reserve": 0.0, "intervals": []}')
    big_env = workdir / "big.json"
    # more than 1e9 multisets; the guard refuses before building a block of 1e9 bidders.
    # 200,000 bidders make only 200,001 multisets, but of 200,000 bids each
    for big in (
        '{"type":"single_item","n":1000000000}',
        '{"type":"matroid","kind":"uniform","rank":1,"n":1000000000}',
        '{"type":"single_item","n":200000}',
    ):
        big_env.write_text(big)
        res = run_cli(["eval", "--dist", str(workdir / "d.json"), "--env", str(big_env),
                       "--plan", str(plan), "--method", "enum"])
        assert res.returncode == 3
        assert "exceed the enumeration guard" in res.stderr
    res = run_cli(["learn", "--samples", "nope.csv"])
    assert res.returncode == 2  # argparse: missing required args


def test_eval_exits_3_when_a_block_overflows_a_float(workdir, capsys):
    # 3000 bidders pass the enumeration guard (9.0e6 priced bids), but
    # C(3000, 1500) does not fit a float; 1029 bidders still do
    big_env = workdir / "big.json"
    big_env.write_text('{"type":"single_item","n":3000}')
    plan = workdir / "p.json"
    plan.write_text('{"reserve": 1.0, "intervals": [{"lo": 1.0, "hi": 5.0}]}')
    for method in ("enum", "quad"):
        res = run_cli(["eval", "--dist", str(workdir / "d.json"), "--env", str(big_env),
                       "--plan", str(plan), "--method", method])
        assert res.returncode == 3
        assert res.stderr == "guard violation: a block of 3000 bidders has coefficients beyond the float range\n"
    big_env.write_text('{"type":"single_item","n":1029}')
    assert main(["eval", "--dist", str(workdir / "d.json"), "--env", str(big_env), "--plan", str(plan), "--method", "quad"]) == 0
    assert json.loads(capsys.readouterr().out)["expected_revenue"] == pytest.approx(5.0, abs=1e-12)


def test_eval_mc_refuses_huge_trials_before_drawing(workdir, capsys, monkeypatch):
    # 3 bidders times 1e12 trials; the guard refuses before any bid is drawn
    monkeypatch.setattr(oracle, "sample", lambda *args: pytest.fail("drew bids past the guard"))
    (workdir / "p.json").write_text('{"reserve": 1.0, "intervals": []}')
    args = ["eval", "--dist", str(workdir / "d.json"), "--env", str(workdir / "e.json"), "--plan", str(workdir / "p.json")]
    assert main([*args, "--method", "mc", "--trials", str(10**12)]) == 3
    assert capsys.readouterr().err == "guard violation: 3000000000000 Monte Carlo bids exceed the sampling guard\n"


ARRAY = "[1, 2]"


@pytest.mark.parametrize(
    "bad_json, args, message",
    [
        (ARRAY, ["eval", "--dist", "bad.json", "--env", "e.json", "--plan", "p.json"], "distribution JSON must be an object"),
        (ARRAY, ["eval", "--dist", "d.json", "--env", "bad.json", "--plan", "p.json"], "environment JSON must be an object"),
        (ARRAY, ["eval", "--dist", "d.json", "--env", "e.json", "--plan", "bad.json"], "plan JSON must be an object"),
        ('{"type": "single_item", "n": "2"}', ["oracle", "--dist", "d.json", "--env", "bad.json"],
         "n must be an integer, got '2'"),
        ('{"type": "single_item", "n": 2.5}', ["oracle", "--dist", "d.json", "--env", "bad.json"],
         "n must be an integer, got 2.5"),
        (ARRAY, ["experiment", "loss", "--dist", "d.json", "--env", "e.json", "--m-list", "10", "--trials", "0"],
         "trials must be >= 1, got 0"),
        (ARRAY, ["experiment", "regret", "--dist", "d.json", "--env", "e.json", "--T", "3", "--seeds", "0"],
         "seeds must be >= 1, got 0"),
        (ARRAY, ["experiment", "regret", "--dist", "d.json", "--env", "e.json", "--T", "3", "--seeds", "-3"],
         "seeds must be >= 1, got -3"),
        (ARRAY, ["experiment", "loss", "--dist", "d.json", "--env", "e.json", "--m-list", "10,10", "--trials", "2"],
         "sample counts must be distinct, got [10, 10]"),
        ('{"type": "discrete", "h_max": 10, "atoms": [[1, 0.9], [5, 0.1]]}', ["oracle", "--dist", "bad.json", "--env", "e.json"],
         "atoms entry must be an object, got [1, 0.9]"),
        ('{"type": "discrete", "h_max": 10, "atoms": {"value": 1, "prob": 1}}', ["oracle", "--dist", "bad.json", "--env", "e.json"],
         "atoms must be an array, got {'value': 1, 'prob': 1}"),
        ('{"type": "discrete", "h_max": 10, "atoms": [{"value": "1", "prob": 1}]}', ["oracle", "--dist", "bad.json", "--env", "e.json"],
         "value must be a number, got '1'"),
        ('{"type": "uniform_mixture", "h_max": 10, "components": [[0, 10, 1]]}', ["eval", "--dist", "bad.json", "--env", "e.json", "--plan", "p.json", "--method", "mc"],
         "components entry must be an object, got [0, 10, 1]"),
        ('{"type": "position", "weights": 0.5, "n": 3}', ["oracle", "--dist", "d.json", "--env", "bad.json"],
         "weights must be an array, got 0.5"),
        ('{"type": "position", "weights": [1, null], "n": 3}', ["oracle", "--dist", "d.json", "--env", "bad.json"],
         "weights entry must be a number, got None"),
        ('{"type": "matroid", "kind": "partition", "blocks": 5, "capacities": [1], "n": 5}', ["oracle", "--dist", "d.json", "--env", "bad.json"],
         "blocks must be an array, got 5"),
        ('{"type": "matroid", "kind": "partition", "blocks": [0, 0], "capacities": 1, "n": 2}', ["oracle", "--dist", "d.json", "--env", "bad.json"],
         "capacities must be an array, got 1"),
        ('{"type": "matroid", "kind": "partition", "blocks": [0, "0"], "capacities": [1], "n": 2}', ["oracle", "--dist", "d.json", "--env", "bad.json"],
         "blocks entry must be an integer, got '0'"),
        ('{"reserve": 0.5, "intervals": [[1, 2]]}', ["eval", "--dist", "d.json", "--env", "e.json", "--plan", "bad.json"],
         "intervals entry must be an object, got [1, 2]"),
        ('{"reserve": 0.5, "intervals": {"lo": 1, "hi": 2}}', ["eval", "--dist", "d.json", "--env", "e.json", "--plan", "bad.json"],
         "intervals must be an array, got {'lo': 1, 'hi': 2}"),
        ('{"reserve": [0.5], "intervals": []}', ["eval", "--dist", "d.json", "--env", "e.json", "--plan", "bad.json"],
         "reserve must be a number, got [0.5]"),
        ('{"type": "matroid", "kind": "graphic", "blocks": [0, 0, 1], "capacities": [1, 1], "n": 3}',
         ["oracle", "--dist", "d.json", "--env", "bad.json"], "unknown matroid kind 'graphic'"),
        ('{"type": "position", "weights": [NaN, 0.5], "n": 3}', ["oracle", "--dist", "d.json", "--env", "bad.json"],
         "weights entry must be finite, got nan"),
        ('{"type": "position", "weights": [Infinity, 0.5], "n": 3}',
         ["eval", "--dist", "d.json", "--env", "bad.json", "--plan", "p.json", "--method", "quad"],
         "weights entry must be finite, got inf"),
        ('{"type": "position", "weights": [1' + "0" * 400 + '], "n": 3}', ["oracle", "--dist", "d.json", "--env", "bad.json"],
         "weights entry must be finite, got 1" + "0" * 400),
        ('{"type": "discrete", "h_max": 10, "atoms": [{"value": 1, "prob": NaN}]}', ["oracle", "--dist", "bad.json", "--env", "e.json"],
         "prob must be finite, got nan"),
        ('{"type": "uniform_mixture", "h_max": 10, "components": [{"lo": 0, "hi": 10, "weight": NaN}]}',
         ["eval", "--dist", "bad.json", "--env", "e.json", "--plan", "p.json", "--method", "mc"],
         "weight must be finite, got nan"),
        (ARRAY, ["calc", "samples", "--eps", "0.5", "--delta", "0.1", "--n", "2", "--gamma", "inf", "--h-max", "10"],
         "gamma must be finite, got inf"),
        (ARRAY, ["calc", "samples", "--eps", "0.5", "--delta", "0.1", "--n", "2", "--gamma", "nan", "--h-max", "10"],
         "gamma must be finite, got nan"),
        (ARRAY, ["calc", "samples", "--eps", "0.5", "--delta", "0.1", "--n", "2", "--h-max", "inf"],
         "h_max must be finite, got inf"),
        (ARRAY, ["calc", "bound", "--m", "100", "--delta", "0.1", "--n", "2", "--h-max", "nan"],
         "h_max must be finite, got nan"),
        (ARRAY, ["calc", "bound", "--m", "100", "--delta", "0.1", "--n", "-3", "--h-max", "10"], "n must be >= 1"),
        (ARRAY, ["calc", "bound", "--m", "100", "--delta", "0.1", "--n", "2", "--h-max", "-1"],
         "h_max must be >= 0, got -1.0"),
        (ARRAY, ["calc", "samples", "--eps", "0.5", "--delta", "0.1", "--n", "2", "--h-max", "-1"],
         "h_max must be >= 0, got -1.0"),
        ("1.0\n2.5\n", ["learn", "--samples", "bad.json", "--delta", "0.1", "--h-max", "inf", "--out", "plan.json"],
         "h_max must be finite, got inf"),
        ("1.0\n11\n", ["learn", "--samples", "bad.json", "--delta", "0.1", "--h-max", "10", "--out", "plan.json"],
         "sample 11.0 outside [0, 10.0]"),
        ("\n  \n", ["learn", "--samples", "bad.json", "--delta", "0.1", "--h-max", "10", "--out", "plan.json"],
         "need a 1-D array of at least one sample"),
        (ARRAY, ["run", "--env", "e.json", "--plan", "p.json", "--bids", "bids.csv", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (ARRAY, ["eval", "--dist", "d.json", "--env", "e.json", "--plan", "p.json", "--method", "mc", "--trials", "10",
                 "--seed", "-1"], "--seed must be >= 0, got -1"),
        (ARRAY, ["experiment", "loss", "--dist", "d.json", "--env", "e.json", "--m-list", "10", "--trials", "1",
                 "--seed", "-2"], "--seed must be >= 0, got -2"),
        (ARRAY, ["experiment", "regret", "--dist", "d.json", "--env", "e.json", "--T", "3", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (ARRAY, ["experiment", "regret", "--dist", "d.json", "--env", "e.json", "--T", str(2**31 + 1), "--seeds", "1"],
         f"T must be <= 2**31, so that every spawn key is one uint32 word; got {2**31 + 1}"),
        (ARRAY, ["calc", "bound", "--m", str(10**400), "--delta", "0.1", "--n", "3", "--h-max", "10"], "m must be finite"),
        (ARRAY, ["calc", "bound", "--m", "100", "--delta", "0.1", "--n", str(10**400), "--h-max", "10"],
         f"n must be finite, got {10**400}"),
        (ARRAY, ["calc", "samples", "--eps", "0.5", "--delta", "0.1", "--n", str(10**400), "--h-max", "10"],
         f"n must be finite, got {10**400}"),
        (ARRAY, ["calc", "samples", "--eps", "0.5", "--delta", "0.1", "--n", "3", "--gamma", "1e300", "--h-max", "10"],
         "the sample count overflows a float at n=3, gamma=1e+300, h_max=10.0"),
        (ARRAY, ["calc", "samples", "--eps", "0.5", "--delta", "0.1", "--n", "3", "--h-max", "1e308"],
         "the sample count overflows a float at n=3, gamma=1.0, h_max=1e+308"),
        (ARRAY, ["calc", "samples", "--eps", "0.5", "--delta", "0.1", "--n", str(10**300), "--gamma", "1e300",
                 "--h-max", "0"], f"the sample count overflows a float at n={10**300}, gamma=1e+300, h_max=0.0"),
        (ARRAY, ["calc", "bound", "--m", "100", "--delta", "0.1", "--n", str(10**308), "--h-max", "10"],
         f"the loss bound overflows a float at n={10**308}, h_max=10.0"),
    ],
    ids=[
        "dist_array", "env_array", "plan_array", "n_string", "n_float", "zero_trials",
        "regret_zero_seeds", "regret_negative_seeds", "loss_repeated_m",
        "atoms_arrays", "atoms_object", "atom_value_string", "components_arrays", "weights_scalar",
        "weights_null_entry", "blocks_scalar", "capacities_scalar", "block_id_string", "intervals_arrays",
        "intervals_object", "reserve_array", "matroid_kind_unknown", "weights_nan", "weights_infinity",
        "weights_beyond_float", "atom_prob_nan", "component_weight_nan", "gamma_inf", "gamma_nan",
        "samples_h_max_inf", "bound_h_max_nan", "bound_n_negative", "bound_h_max_negative",
        "samples_h_max_negative", "learn_h_max_inf", "learn_sample_above_h_max", "learn_no_samples",
        "run_negative_seed", "eval_negative_seed", "loss_negative_seed", "regret_negative_seed",
        "regret_T_beyond_one_word_spawn_keys", "bound_m_beyond_float", "bound_n_beyond_float",
        "samples_n_beyond_float", "samples_gamma_count_overflows", "samples_h_max_count_infinite",
        "samples_infinite_times_zero_h_max", "bound_beyond_float",
    ],
)
def test_bad_input_exits_2_with_a_message(workdir, capsys, monkeypatch, bad_json, args, message):
    (workdir / "bad.json").write_text(bad_json)
    (workdir / "p.json").write_text('{"reserve": 0.0, "intervals": []}')
    monkeypatch.chdir(workdir)
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_experiment_loss_on_a_five_atom_law(workdir, monkeypatch):
    # merging the touching intervals [2,3), [3,5), [5,10) made optimal_plan
    # earn less than a learned plan here, tripping the additive_loss check
    monkeypatch.setenv("MYERSON_LAB_THREADS", "1")
    atoms = [{"value": v, "prob": p} for v, p in ((1, 0.5), (2, 0.2), (3, 0.15), (5, 0.1), (10, 0.05))]
    dist = workdir / "law.json"
    dist.write_text(json.dumps({"type": "discrete", "h_max": 10, "atoms": atoms}))
    env = workdir / "single5.json"
    env.write_text('{"type": "single_item", "n": 5}')
    args = ["--dist", str(dist), "--env", str(env), "--m-list", "100", "--trials", "20", "--seed", "0"]
    assert main(["experiment", "loss", *args]) == 0


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


def test_experiment_loss_bound_cells_are_loss_bound_and_calc_bound(monkeypatch, capsys):
    monkeypatch.setenv("MYERSON_LAB_THREADS", "1")
    dist = ValueDistribution.discrete([(1.0, 0.9), (10.0, 0.1)], h_max=10.0)
    lines = experiment_loss(dist, Environment.single_item(3), [15, 100], trials=2, delta=0.1, seed=0, out_path=None)
    for m in (15, 100):
        assert main(["calc", "bound", "--m", str(m), "--delta", "0.1", "--n", "3", "--h-max", "10"]) == 0
        printed = capsys.readouterr().out.strip()
        cells = {line.split(",")[4] for line in lines[1:] if line.startswith(f"{m},")}
        assert cells == {printed}
        assert float(printed) == loss_bound(m, 0.1, 3, 10.0)


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
