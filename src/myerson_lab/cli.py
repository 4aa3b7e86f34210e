"""Command-line experiment harness.

Subcommands: ``learn``, ``run``, ``oracle``, ``eval``, ``experiment
loss|regret|examples``, ``calc samples|bound``.  Every command is
deterministic given ``--seed``; trial-level randomness comes from
numpy SeedSequence streams keyed by (master seed, indices), so reruns
are byte-identical.  ``MYERSON_LAB_THREADS`` caps the worker pool used
for independent trials.

Exit codes: 0 on success, 2 on argument errors, 3 on resource-guard
violations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .distributions import ValueDistribution, sample
from .empirical import dkw_epsilon
from .engine import run_auction
from .environments import Environment
from .learner import IroningPlan, compute_auction, loss_bound, required_samples_iid
from .online import TRACE_FIELDS, _fmt, run_no_regret
from .oracle import (
    GuardError,
    additive_loss,
    expected_revenue_enum,
    expected_revenue_mc,
    expected_revenue_quadrature,
    optimal_plan,
)

LOSS_HEADER = "m,trial,epsilon,loss,bound,within_bound"
REGRET_HEADER = "seed," + ",".join(TRACE_FIELDS)
EXAMPLES_IRONING_HEADER = "n,h,revenue_ironed,revenue_second_price"


def _workers() -> int:
    env = os.environ.get("MYERSON_LAB_THREADS")
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


def _pool_map(fn, items):
    """Order-preserving map over a process pool (serial when 1 worker)."""
    items = list(items)
    w = min(_workers(), len(items)) if items else 1
    if w <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, items))


def _trial_seed(master: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(master), *map(int, path)])


def _read_dist(path: str) -> ValueDistribution:
    return ValueDistribution.from_json(Path(path).read_text())


def _read_env(path: str) -> Environment:
    return Environment.from_json(Path(path).read_text())


def _read_plan(path: str) -> IroningPlan:
    return IroningPlan.from_json(Path(path).read_text())


def _read_samples(path: str) -> list[float]:
    """The non-blank lines as floats; ``compute_auction`` checks them."""
    return [float(line) for line in Path(path).read_text().splitlines() if line.strip()]


# -- subcommands ------------------------------------------------------


def _cmd_learn(args) -> int:
    values = _read_samples(args.samples)
    plan = compute_auction(values, args.delta, args.h_max)
    Path(args.out).write_text(plan.to_json() + "\n")
    print(plan.to_json())
    return 0


def _cmd_run(args) -> int:
    env = _read_env(args.env)
    plan = _read_plan(args.plan)
    bids = [float(x) for x in Path(args.bids).read_text().replace(",", "\n").split()]
    print(json.dumps(dataclasses.asdict(run_auction(env, plan, bids, args.seed))))
    return 0


def _cmd_oracle(args) -> int:
    dist = _read_dist(args.dist)
    env = _read_env(args.env)
    plan = optimal_plan(dist)
    rev = expected_revenue_enum(dist, env, plan)
    print(json.dumps({"plan": json.loads(plan.to_json()), "expected_revenue": rev.expected_revenue}))
    return 0


def _cmd_eval(args) -> int:
    dist = _read_dist(args.dist)
    env = _read_env(args.env)
    plan = _read_plan(args.plan)
    if args.method == "enum":
        rep = expected_revenue_enum(dist, env, plan)
    elif args.method == "quad":
        rep = expected_revenue_quadrature(dist, env, plan)
    else:
        rep = expected_revenue_mc(dist, env, plan, args.trials, args.seed)
    print(json.dumps(dataclasses.asdict(rep)))
    return 0


def _loss_trial(payload):
    dist, env, m, delta, master, m_index, trial = payload
    xs = sample(dist, m, _trial_seed(master, m_index, trial))
    plan = compute_auction(xs, delta, dist.h_max)
    eps = dkw_epsilon(m, delta)
    loss = additive_loss(dist, env, plan)
    bound = loss_bound(m, delta, env.n, dist.h_max)
    return m, trial, eps, loss, bound, loss <= bound


def experiment_loss(dist, env, m_list, trials, delta, seed, out_path) -> list[str]:
    """Learn-from-samples loss sweep; one CSV row per (m, trial)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if len(set(m_list)) < len(m_list):
        raise ValueError(f"sample counts must be distinct, got {list(m_list)}")
    jobs = [(dist, env, m, delta, seed, mi, t) for mi, m in enumerate(m_list) for t in range(trials)]
    rows = _pool_map(_loss_trial, jobs)
    lines = [LOSS_HEADER]
    by_m: dict[int, list] = {}
    for m, trial, eps, loss, bound, ok in rows:
        lines.append(",".join(map(_fmt, (m, trial, eps, loss, bound, int(ok)))))
        by_m.setdefault(m, []).append((eps, loss, bound, ok))
    for m in m_list:
        recs = by_m[m]
        frac = sum(1 for *_, ok in recs if ok) / len(recs)
        med = float(np.median([loss for _, loss, _, _ in recs]))
        lines.append(",".join(map(_fmt, (m, -1, recs[0][0], med, recs[0][2], frac))))
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    return lines


def _cmd_experiment_loss(args) -> int:
    dist = _read_dist(args.dist)
    env = _read_env(args.env)
    m_list = sorted(int(m) for m in args.m_list.split(","))
    lines = experiment_loss(dist, env, m_list, args.trials, args.delta, args.seed, args.out)
    print("\n".join(lines[-len(m_list):]))
    return 0


def _regret_seed_trace(payload):
    dist, env, T, delta, master, idx = payload
    trace = run_no_regret(dist, env, T, delta, seed=master + idx)
    return master + idx, trace


def experiment_regret(dist, env, T, delta, seeds, master_seed, out_path) -> list[str]:
    """Independent no-regret runs, one trace block per seed."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    jobs = [(dist, env, T, delta, master_seed, i) for i in range(seeds)]
    results = _pool_map(_regret_seed_trace, jobs)
    lines = [REGRET_HEADER]
    for seed, trace in results:
        lines.extend(trace.csv_lines(seed=seed)[1:])
    text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    return lines


def _cmd_experiment_regret(args) -> int:
    dist = _read_dist(args.dist)
    env = _read_env(args.env)
    lines = experiment_regret(dist, env, args.T, args.delta, args.seeds, args.seed, args.out)
    print(f"wrote {len(lines) - 1} trace rows")
    return 0


def experiment_examples(out_path=None) -> dict:
    """Desk-scale demos: the value of ironing, and of not over-ironing.

    (a) Bimodal law with a rare high value: the ironed auction's revenue
    against plain second price, across n and H.
    (b) A slightly over-wide ironing interval on a perturbed law loses
    to second price.
    """
    ironing_rows = []
    for n in (2, 5, 10):
        for h in (10.0, 100.0, 1000.0):
            dist = ValueDistribution.discrete([(1.0, 1 - 1 / h), (h, 1 / h)], h_max=h)
            env = Environment.single_item(n)
            plan = IroningPlan(intervals=((1.0, h),), reserve=1.0)
            ironed = expected_revenue_enum(dist, env, plan).expected_revenue
            second = expected_revenue_enum(dist, env, IroningPlan.empty()).expected_revenue
            ironing_rows.append({"n": n, "h": h, "revenue_ironed": ironed, "revenue_second_price": second})
    dist2 = ValueDistribution.discrete([(1.0, 0.89), (5.0, 0.1), (5.5, 0.01)], h_max=6.0)
    env10 = Environment.single_item(10)
    over = IroningPlan(intervals=((1.0, 5.75),), reserve=1.0)
    over_rev = expected_revenue_enum(dist2, env10, over).expected_revenue
    second_rev = expected_revenue_enum(dist2, env10, IroningPlan.empty()).expected_revenue
    report = {
        "ironing_value": ironing_rows,
        "over_ironing": {
            "revenue_over_ironed": over_rev,
            "revenue_second_price": second_rev,
            "over_ironing_hurts": over_rev < second_rev,
        },
    }
    if out_path:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def _cmd_experiment_examples(args) -> int:
    report = experiment_examples(args.out)
    print(EXAMPLES_IRONING_HEADER)
    for row in report["ironing_value"]:
        print(",".join(_fmt(row[key]) for key in EXAMPLES_IRONING_HEADER.split(",")))
    o = report["over_ironing"]
    print(
        f"over-ironing: {_fmt(o['revenue_over_ironed'])} vs second price "
        f"{_fmt(o['revenue_second_price'])} -> hurts: {o['over_ironing_hurts']}"
    )
    return 0


def _cmd_calc_samples(args) -> int:
    print(required_samples_iid(args.eps, args.delta, args.n, args.gamma, args.h_max))
    return 0


def _cmd_calc_bound(args) -> int:
    print(_fmt(loss_bound(args.m, args.delta, args.n, args.h_max)))
    return 0


# -- parser -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="myerson-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="learn a plan from a samples file")
    learn.add_argument("--samples", required=True)
    learn.add_argument("--delta", type=float, required=True)
    learn.add_argument("--h-max", dest="h_max", type=float, required=True)
    learn.add_argument("--out", required=True)
    learn.set_defaults(fn=_cmd_learn)

    run = sub.add_parser("run", help="run one auction on a bid file")
    run.add_argument("--env", required=True)
    run.add_argument("--plan", required=True)
    run.add_argument("--bids", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.set_defaults(fn=_cmd_run)

    orc = sub.add_parser("oracle", help="optimal plan and revenue for a known law")
    orc.add_argument("--dist", required=True)
    orc.add_argument("--env", required=True)
    orc.set_defaults(fn=_cmd_oracle)

    ev = sub.add_parser("eval", help="expected revenue of a plan")
    ev.add_argument("--dist", required=True)
    ev.add_argument("--env", required=True)
    ev.add_argument("--plan", required=True)
    ev.add_argument("--method", choices=["enum", "quad", "mc"], default="enum")
    ev.add_argument("--trials", type=int, default=10_000)
    ev.add_argument("--seed", type=int, default=0)
    ev.set_defaults(fn=_cmd_eval)

    exp = sub.add_parser("experiment", help="experiment harnesses")
    esub = exp.add_subparsers(dest="experiment", required=True)

    loss = esub.add_parser("loss", help="additive-loss sweep over sample sizes")
    loss.add_argument("--dist", required=True)
    loss.add_argument("--env", required=True)
    loss.add_argument("--m-list", dest="m_list", required=True, help="comma-separated sample counts")
    loss.add_argument("--trials", type=int, default=200)
    loss.add_argument("--delta", type=float, default=0.1)
    loss.add_argument("--seed", type=int, default=0)
    loss.add_argument("--out", default=None)
    loss.set_defaults(fn=_cmd_experiment_loss)

    reg = esub.add_parser("regret", help="repeated-auction regret traces")
    reg.add_argument("--dist", required=True)
    reg.add_argument("--env", required=True)
    reg.add_argument("--T", type=int, required=True)
    reg.add_argument("--delta", type=float, default=0.1)
    reg.add_argument("--seeds", type=int, default=1)
    reg.add_argument("--seed", type=int, default=0)
    reg.add_argument("--out", default=None)
    reg.set_defaults(fn=_cmd_experiment_regret)

    ex = esub.add_parser("examples", help="ironing-value demo tables")
    ex.add_argument("--out", default=None)
    ex.set_defaults(fn=_cmd_experiment_examples)

    calc = sub.add_parser("calc", help="closed-form calculators")
    csub = calc.add_subparsers(dest="calc", required=True)

    cs = csub.add_parser("samples", help="sample count for a multiplicative target")
    cs.add_argument("--eps", type=float, required=True)
    cs.add_argument("--delta", type=float, required=True)
    cs.add_argument("--n", type=int, required=True)
    cs.add_argument("--gamma", type=float, default=1.0)
    cs.add_argument("--h-max", dest="h_max", type=float, required=True)
    cs.set_defaults(fn=_cmd_calc_samples)

    cb = csub.add_parser("bound", help="additive loss bound for m samples")
    cb.add_argument("--m", type=int, required=True)
    cb.add_argument("--delta", type=float, required=True)
    cb.add_argument("--n", type=int, required=True)
    cb.add_argument("--h-max", dest="h_max", type=float, required=True)
    cb.set_defaults(fn=_cmd_calc_bound)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # numpy's own refusal does not name the flag
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
