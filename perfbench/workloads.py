"""The four benchmark workloads.

Each workload builds its laws and environments from the package's public
constructors, derives every input from the benchmark seed, and splits one
repetition into three steps: ``inputs(r)`` (untimed), ``run(inputs,
tracer)`` (timed; an operation that raises is recorded, never re-raised)
and ``judge(inputs, outcomes)`` (untimed output checks).  A failed
operation is counted and the run goes on.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

H = 10.0
DELTA = 0.1
LAW8 = ((1, 0.30), (2, 0.20), (3, 0.12), (4, 0.08), (6, 0.05), (8, 0.10), (9, 0.10), (10, 0.05))
LAW4 = ((1, 0.4), (3, 0.3), (4, 0.2), (10, 0.1))
LAW2 = ((1, 0.9), (10, 0.1))
MIXTURE = ((0.0, 2.0, 0.7), (6.0, 10.0, 0.3))
WARM_UP_SEED = 0  # warm-up inputs do not depend on --seed, so every run sets up the same work


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one repetition of each workload."""

    learn_m: int = 2048
    loss_m: tuple[int, ...] = (100, 1000, 10000)
    loss_trials: int = 20
    loss_env: str = '{"type": "position", "weights": [1, 0.6, 0.3], "n": 6}'
    regret_T: int = 2000
    regret_env: str = '{"type": "single_item", "n": 3}'
    eval_mc: int = 1000
    eval_cases: tuple[tuple[tuple, str], ...] = (
        (LAW8, '{"type": "position", "weights": [1, 0.6, 0.3], "n": 6}'),
        (LAW8, '{"type": "k_unit", "k": 3, "n": 7}'),
        (LAW4, '{"type": "matroid", "kind": "partition", "blocks": [0, 0, 1, 1, 1], "capacities": [1, 2], "n": 5}'),
        (LAW4, '{"type": "matroid", "kind": "uniform", "rank": 2, "n": 5}'),
    )


FULL = Sizes()


@dataclass
class RepResult:
    """Judged outcome of one repetition."""

    ops: int  # work units behind ops_per_s
    attempted: int
    failed: int = 0
    wrong: int = 0  # failed because an output check failed, not because a call raised
    outputs: list[str] = field(default_factory=list)  # digest material
    errors: list[tuple[str, str]] = field(default_factory=list)  # (kind, message)
    stats: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: Exception | str, where: str = "") -> None:
        """Count a failed operation: ``problem`` is the exception it raised
        (which then stands in for its output in the digest), or the text of
        the output check it failed."""
        wrong = isinstance(problem, str)
        text = problem if wrong else f"{type(problem).__name__}: {problem}"
        if not wrong:
            self.outputs.append(text)
        self.failed += 1
        self.wrong += wrong
        self.errors.append(("check" if wrong else type(problem).__name__, where + text))


def attempt(fn, *args, **kwargs):
    """Call fn; return its result, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, the run goes on
        return exc


def timed(fn, *args, **kwargs) -> tuple:
    """Call fn; return (its result or the exception it raised, seconds)."""
    t0 = perf_counter()
    out = attempt(fn, *args, **kwargs)
    return out, perf_counter() - t0


def _plan_off_support(plan, support) -> list[float]:
    """Plan endpoints that are neither 0 nor a sample value (the learner
    only ever prices at order statistics)."""
    points = [plan.reserve] + [x for iv in plan.intervals for x in iv]
    return [x for x in points if x != 0.0 and x not in support]


def _seq(*path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(list(path))


class Workload:
    """Shared construction: the package handle, the seed and the sizes."""

    name = ""
    op_unit = ""  # the work unit counted by ops_per_s
    rate_name = ""  # the workload's own name for ops_per_s
    rep_s = 1.0  # wall seconds of one full-size repetition, judging included, on a slow spell of a shared 2-CPU Xeon; sizes a run
    # Runs of every repetition (the last one traced with --trace 1).  More
    # passes over fewer repetitions give each operation more chances at a
    # quiet spell of the host; fewer passes give more distinct inputs.  Each
    # workload's count makes a pass a few seconds long and fills a run with
    # whole repetitions.
    passes = 6

    def extra_metrics(self, reps: list[RepResult]) -> dict:
        """Workload-specific report metrics: name -> (value, unit)."""
        return {}

    def __init__(self, ml, seed: int, sizes: Sizes):
        self.ml = ml
        self.seed = seed
        self.sizes = sizes

    def law(self, atoms):
        return self.ml.distributions.ValueDistribution.discrete(atoms, H)

    def env(self, spec: str):
        return self.ml.environments.Environment.from_json(spec)


class LearnMixture(Workload):
    """compute_auction on fresh continuous samples: empirical, curves, learner."""

    name = "learn-mixture"
    op_unit = "samples"
    rate_name = "learn.samples_per_s"
    rep_s = 1.25
    passes = 5

    def inputs(self, r: int) -> np.ndarray:
        rng = np.random.default_rng(_seq(self.seed, r))
        lo, hi, w = (np.array(c) for c in zip(*MIXTURE))
        comp = rng.choice(len(w), size=self.sizes.learn_m, p=w)
        return lo[comp] + rng.uniform(size=self.sizes.learn_m) * (hi - lo)[comp]

    def warm_up(self) -> None:
        self.ml.learner.compute_auction(np.random.default_rng(WARM_UP_SEED).uniform(0.0, H, 64), DELTA, H)

    def run(self, xs, tracer=None) -> list:
        return [timed(self.ml.learner.compute_auction, xs, DELTA, H)]

    def judge(self, xs, outcomes) -> RepResult:
        (plan,) = outcomes
        res = RepResult(ops=len(xs), attempted=1)
        if isinstance(plan, Exception):
            res.fail(plan)
            return res
        res.outputs.append(plan.to_json())
        off = _plan_off_support(plan, set(xs.tolist()))
        if off:
            res.fail(f"plan endpoints {off[:3]} are not sample values")
        return res


class LossSweep(Workload):
    """The per-trial body of ``experiment loss``: sample, learn, additive_loss."""

    name = "loss-sweep"
    op_unit = "trials"
    rate_name = "loss.trials_per_s"
    rep_s = 1.2
    passes = 4  # more distinct sweeps: a sweep's cost follows how many distinct plans it learns

    def __init__(self, ml, seed, sizes):
        super().__init__(ml, seed, sizes)
        self.dist = self.law(LAW8)
        self.environment = self.env(sizes.loss_env)

    def inputs(self, r: int) -> list:
        return [
            (m, _seq(self.seed, r, mi, t))
            for mi, m in enumerate(self.sizes.loss_m)
            for t in range(self.sizes.loss_trials)
        ]

    def warm_up(self) -> None:
        self._trial(min(self.sizes.loss_m), _seq(WARM_UP_SEED))

    def _trial(self, m, seed):
        ml = self.ml
        xs = ml.distributions.sample(self.dist, m, seed)
        plan = ml.learner.compute_auction(xs, DELTA, H)
        return xs, plan, ml.oracle.additive_loss(self.dist, self.environment, plan)

    def run(self, trials, tracer=None) -> list:
        return [timed(self._trial, m, seed) for m, seed in trials]

    def judge(self, trials, outcomes) -> RepResult:
        n = self.environment.n
        res = RepResult(ops=len(trials), attempted=len(trials))
        within = 0
        for (m, _), out in zip(trials, outcomes):
            if isinstance(out, Exception):
                res.fail(out, f"m={m}: ")
                continue
            xs, plan, loss = out
            res.outputs.append(f"{plan.to_json()} {loss!r}")
            off = _plan_off_support(plan, set(np.unique(xs).tolist()))
            if not (math.isfinite(loss) and 0.0 <= loss <= n * H) or off:
                res.fail(f"loss {loss!r} or plan endpoints {off[:3]} out of range", f"m={m}: ")
                continue
            within += loss <= self.ml.learner.loss_bound(m, DELTA, n, H)
        res.stats["within_bound"] = within
        return res

    def extra_metrics(self, reps) -> dict:
        within = sum(r.stats["within_bound"] for r in reps) / sum(r.attempted for r in reps)
        return {"loss.within_bound_frac": (within, "ratio")}


class RegretOnline(Workload):
    """One ``run_no_regret`` trace on the paper's two-atom ironing example."""

    name = "regret-online"
    op_unit = "rounds"
    rate_name = "regret.rounds_per_s"
    rep_s = 2.3

    def __init__(self, ml, seed, sizes):
        super().__init__(ml, seed, sizes)
        self.dist = self.law(LAW2)
        self.environment = self.env(sizes.regret_env)

    def inputs(self, r: int) -> int:
        return int(_seq(self.seed, r).generate_state(1)[0])

    def warm_up(self) -> None:
        self.ml.online.run_no_regret(self.dist, self.environment, 10, DELTA, seed=WARM_UP_SEED)

    def run(self, trace_seed: int, tracer=None) -> list:
        T = self.sizes.regret_T
        return [timed(self.ml.online.run_no_regret, self.dist, self.environment, T, DELTA, seed=trace_seed)]

    def judge(self, trace_seed, outcomes) -> RepResult:
        (trace,) = outcomes
        res = RepResult(ops=0, attempted=1)
        if isinstance(trace, Exception):
            res.fail(trace)
            return res
        res.outputs.append("\n".join(trace.csv_lines()))
        res.ops = len(trace.rows)
        opt = self.optimum()
        bad = [
            row.t
            for row in trace.rows
            if abs(row.round_loss - max(0.0, opt - row.expected_round_revenue)) > 1e-9 * max(1.0, opt)
        ]
        if bad:
            res.fail(f"round losses of rounds {bad[:3]} disagree with the quadrature optimum {opt!r}")
        return res

    def optimum(self) -> float:
        """Optimal expected revenue by quadrature (``single_item`` is ranked),
        independent of the enumeration oracle ``run_no_regret`` charges losses
        against."""
        oracle = self.ml.oracle
        plan = oracle.optimal_plan(self.dist)
        return oracle.expected_revenue_quadrature(self.dist, self.environment, plan).expected_revenue


class EvalOracles(Workload):
    """optimal_plan valued by enumeration, quadrature (ranked) and Monte Carlo."""

    name = "eval-oracles"
    op_unit = "profiles"
    rate_name = "eval.profiles_per_s"
    rep_s = 3.2
    passes = 4

    def __init__(self, ml, seed, sizes):
        super().__init__(ml, seed, sizes)
        self.cases = [(self.law(atoms), self.env(spec)) for atoms, spec in sizes.eval_cases]

    @staticmethod
    def enum_profiles(dist, env) -> int:
        """Profiles enumeration visits: multisets for exchangeable (ranked)
        bidders, ordered tuples under a matroid."""
        s, n = len(dist.atoms), env.n
        return s**n if env.kind == "matroid" else math.comb(s + n - 1, n)

    def inputs(self, r: int) -> list:
        return [_seq(self.seed, r, i) for i in range(len(self.cases))]

    def warm_up(self) -> None:
        dist, env = self.cases[0]
        oracle = self.ml.oracle
        plan = oracle.optimal_plan(dist)
        oracle.expected_revenue_quadrature(dist, env, plan)
        oracle.expected_revenue_mc(dist, env, plan, 10, _seq(WARM_UP_SEED))

    def _case(self, dist, env, mc_seed) -> dict:
        oracle = self.ml.oracle
        plan = oracle.optimal_plan(dist)
        t0 = perf_counter()
        enum = oracle.expected_revenue_enum(dist, env, plan)
        t1 = perf_counter()
        quad = None if env.kind == "matroid" else oracle.expected_revenue_quadrature(dist, env, plan)
        t2 = perf_counter()
        mc = oracle.expected_revenue_mc(dist, env, plan, self.sizes.eval_mc, mc_seed)
        t3 = perf_counter()
        return {"plan": plan, "enum": enum, "quad": quad, "mc": mc, "enum_s": t1 - t0, "mc_s": t3 - t2}

    def run(self, mc_seeds, tracer=None) -> list:
        return [timed(self._case, d, e, s) for (d, e), s in zip(self.cases, mc_seeds)]

    def judge(self, mc_seeds, outcomes) -> RepResult:
        res = RepResult(ops=0, attempted=len(outcomes))
        stats = dict.fromkeys(("enum_profiles", "enum_s", "mc_profiles", "mc_s"), 0.0)
        for (dist, env), out in zip(self.cases, outcomes):
            if isinstance(out, Exception):
                res.fail(out, f"{env.kind}: ")
                continue
            enum, mc = out["enum"].expected_revenue, out["mc"]
            quad = None if out["quad"] is None else out["quad"].expected_revenue
            res.outputs.append(f"{out['plan'].to_json()} {enum!r} {quad!r} {mc.expected_revenue!r}")
            problem = check_revenues(enum, quad, mc.expected_revenue, mc.stderr)
            if problem:
                res.fail(problem, f"{env.kind}: ")
            profiles = self.enum_profiles(dist, env)
            res.ops += profiles + mc.trials
            stats["enum_profiles"] += profiles
            stats["mc_profiles"] += mc.trials
            stats["enum_s"] += out["enum_s"]
            stats["mc_s"] += out["mc_s"]
        res.stats = stats
        return res

    def extra_metrics(self, reps) -> dict:
        def ratio(num, den):
            total = sum(r.stats[den] for r in reps)
            return sum(r.stats[num] for r in reps) / total if total > 0 else 0.0

        return {
            "eval.enum_profiles_per_s": (ratio("enum_profiles", "enum_s"), "profiles/s"),
            "eval.mc_profiles_per_s": (ratio("mc_profiles", "mc_s"), "profiles/s"),
        }


def check_revenues(enum: float, quad: float | None, mc: float, mc_stderr: float) -> str | None:
    """Cross-check of one case's three revenue oracles; None when they agree.

    Enumeration and quadrature are both exact, so they must agree to 1e-9
    relative; Monte Carlo must land within 4 standard errors of enumeration.
    """
    if quad is not None and abs(enum - quad) > 1e-9 * max(1.0, abs(enum)):
        return f"enumeration {enum!r} != quadrature {quad!r}"
    if abs(mc - enum) > 4.0 * mc_stderr:
        return f"Monte Carlo {mc!r} is more than 4 stderr ({mc_stderr!r}) from enumeration {enum!r}"
    return None


WORKLOADS = {w.name: w for w in (LearnMixture, LossSweep, RegretOnline, EvalOracles)}
