"""Benchmark of myerson_lab, run from the root of a source checkout.

    python3 -B perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from ./src in this one process (no pool, no extra
threads).  A run is a fixed number of repetitions, sized from --seconds
and the workload's nominal repetition time, so that every run with one
seed does the same operations.  Pass 1 runs them; the workload's later
passes run the same inputs again (the last one traced with --trace 1)
and must reproduce every output digest.  Every repetition runs on a
fresh set-up (import, laws, warm-up).  Every repetition starts with cold
oracle caches and every operation's output is checked; a failed
operation is counted and the run goes on.  The last stdout line is the
result: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  The line before it is a report with the machine, each
repetition's wall and CPU time, the named per-workload metrics and the
output digests.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import numpy as np

from tracing import Tracer, instrument, layer_metrics, layer_unit
from workloads import FULL, WORKLOADS, RepResult, Sizes, attempt

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PKG = "myerson_lab"
FILL = 0.85  # share of --seconds that all passes take at the nominal repetition time
SETUPS = 20  # at least this many fresh set-ups per run: one or more before every repetition


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2, no result line)."""


@dataclass
class Rep:
    result: RepResult
    wall: float
    cpu: float
    digest: str
    enum_hits: int
    enum_misses: int
    op_times: list[float]
    layers: dict | None = None


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == PKG or n.startswith(PKG + ".")}


def import_fresh():
    """Import the package from SRC, re-executing every one of its modules."""
    for name in _package_modules():
        del sys.modules[name]
    ml = importlib.import_module(PKG)
    if not Path(ml.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"{PKG} was imported from {ml.__file__}, not from {SRC}")
    return ml


@contextmanager
def _private_import():
    """Let the benchmark re-import the package, then put back the modules
    any caller in this process had imported."""
    if not (SRC / PKG / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / PKG}")
    saved = _package_modules()
    sys.path.insert(0, str(SRC))
    try:
        yield
    finally:
        sys.path.remove(str(SRC))
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    return {
        "commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def _digest(outputs: list[str]) -> str:
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()[:16]


def set_up(name: str, seed: int, sizes: Sizes, setup_times: list, warm_up_errors: list):
    """One timed set-up: a fresh import, the workload's laws and
    environments, and its warm-up call."""
    t0 = perf_counter()
    workload = WORKLOADS[name](import_fresh(), seed, sizes)
    warm = attempt(workload.warm_up)
    setup_times.append(perf_counter() - t0)
    if isinstance(warm, Exception):
        warm_up_errors.append(repr(warm))
    return workload


def one_rep(workload, r: int, tracer: Tracer | None = None) -> Rep:
    """Run repetition r with cold caches; traced when a tracer is given."""
    inputs = workload.inputs(r)
    caches = (workload.ml.oracle.optimal_plan, workload.ml.oracle.expected_revenue_enum)
    for cached in caches:
        cached.cache_clear()
    if tracer is not None:
        tracer.reset()
        instrument(tracer, workload.ml)
    t0, c0 = perf_counter(), process_time()
    try:
        outcomes, op_times = zip(*workload.run(inputs, tracer))
    finally:
        wall, cpu = perf_counter() - t0, process_time() - c0
        if tracer is not None:
            tracer.restore()
    info = caches[-1].cache_info()
    layers = None if tracer is None else layer_metrics(tracer, info.hits, info.misses)
    result = workload.judge(inputs, outcomes)
    return Rep(result, wall, cpu, _digest(result.outputs), info.hits, info.misses, list(op_times), layers)


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> tuple[dict, dict]:
    """Set up, measure about ``seconds`` of work and return (result, report)."""
    if seed < 0:
        raise BenchError("seed must be nonnegative")
    machine = machine_info()
    n_passes = WORKLOADS[name].passes
    n_reps = max(1, int(FILL * seconds / (n_passes * WORKLOADS[name].rep_s)))
    setups_per_rep = math.ceil(SETUPS / (n_passes * n_reps))
    setup_times, warm_up_errors = [], []
    tracer = Tracer() if trace else None
    passes: list[list[Rep]] = [[] for _ in range(n_passes)]
    with _private_import():
        for i in range(n_passes * n_reps):
            p, r = divmod(i, n_reps)
            for _ in range(setups_per_rep):
                workload = set_up(name, seed, sizes, setup_times, warm_up_errors)
            passes[p].append(one_rep(workload, r, tracer if p == n_passes - 1 else None))
    first, *later = passes
    mismatches = sorted({r for reps in later for r, (a, b) in enumerate(zip(first, reps)) if a.digest != b.digest})

    # Each operation of pass 1 counts once, and so does the digest check of
    # each repetition: the same seed always attempts the same operations.
    attempted = sum(rep.result.attempted for rep in first) + n_reps
    failed = sum(rep.result.failed for rep in first) + len(mismatches)
    wrong = sum(rep.result.wrong for rep in first) + len(mismatches)
    # Host noise only ever adds time, so setup_s is the fastest set-up, and
    # an operation counts the fastest of its untraced runs.
    setup_s = min(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = passes[:-1] if tracer else passes
    best = sum(min(ts) for reps in zip(*timed) for ts in zip(*(rep.op_times for rep in reps)))
    ops_per_s = sum(rep.result.ops for rep in first) / best
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    else:
        metrics = {
            key: {"value": float(median(rep.layers[key] for rep in passes[-1])), "unit": layer_unit(key)}
            for key in passes[-1][0].layers
        }
        untraced = sum(rep.wall for reps in passes[:-1] for rep in reps) / (len(passes) - 1)
        overhead = sum(rep.wall for rep in passes[-1]) / untraced - 1.0
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    kinds = Counter(kind for rep in first for kind, _ in rep.result.errors)
    extra = workload.extra_metrics([rep.result for rep in first])
    report = {
        "workload": name,
        "op_unit": workload.op_unit,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "machine": machine,
        "setup_rounds_s": setup_times,
        "warm_up_errors": warm_up_errors,
        "metrics": {
            workload.rate_name: {"value": ops_per_s, "unit": f"{workload.op_unit}/s"},
            **{k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "failed_frac": {"value": failed / attempted, "unit": "ratio"},
            "oracle.enum_cache_hit_ratio": {
                "value": sum(rep.enum_hits for rep in first)
                / max(1, sum(rep.enum_hits + rep.enum_misses for rep in first)),
                "unit": "ratio",
            },
        },
        "failures_by_kind": dict(kinds),
        "first_failures": [msg for rep in first for _, msg in rep.result.errors][:5],
        "repeat_mismatches": mismatches,
        "reps": [
            {
                "pass": p + 1,
                "traced": rep.layers is not None,
                "wall_s": rep.wall,
                "cpu_s": rep.cpu,
                "ops": rep.result.ops,
                "attempted": rep.result.attempted,
                "failed": rep.result.failed,
                "enum_misses": rep.enum_misses,
                "digest": rep.digest,
            }
            for p, reps in enumerate(passes)
            for rep in reps
        ],
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
