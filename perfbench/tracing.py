"""Per-layer timing of myerson_lab, taken from outside the package.

During a traced repetition only, ``instrument`` swaps public functions
for timing wrappers.  The attribute swapped is the one the caller looks
up: ``learner.concave_envelope`` rather than ``curves.concave_envelope``,
because ``learner`` imported the name.  Every wrapped call is a span
named ``<layer>.<stage>``; spans are aggregated in memory per (name,
parent name) as [calls, seconds, seconds in child spans], because a loss
sweep makes about a million ``allocate`` calls.  A span's self time is
its seconds minus its child seconds.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def timed(self, fn, name, count=None):
        """Wrap fn in a span; ``name`` is a string or a function of the call's
        positional arguments; ``count(counts, args, result)`` records sizes."""
        stack, spans, counts = self._stack, self.spans, self.counts

        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec = spans[(span, parent[0] if parent else None)]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if parent is not None:
                    parent[1] += dt
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, make) -> None:
        """Replace owner.attr (a module function or a staticmethod) by make(fn)."""
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- aggregation -------------------------------------------------

    def total(self, name: str, parent: str | None = "*") -> float:
        return sum(r[1] for (n, p), r in self.spans.items() if n == name and parent in ("*", p))

    def self_time(self, name: str) -> float:
        return sum(r[1] - r[2] for (n, _), r in self.spans.items() if n == name)

    def calls(self, name: str) -> int:
        return sum(r[0] for (n, _), r in self.spans.items() if n == name)


def _add(key, size):
    def count(counts, args, result):
        counts[key] += size(result)

    return count


def _count_canonical(counts, args, result):
    counts["learner.intervals_pre_canonical"] += len(args[0])
    counts["learner.intervals_post_canonical"] += len(result.intervals)


def _count_profile(counts, args, result):
    counts["engine.profiles"] += 1


def _allocate_span(args):
    return "engine.allocate_matroid" if args[0].kind == "matroid" else "engine.allocate_ranked"


def instrument(tracer: Tracer, ml) -> None:
    """Wrap the public functions each layer is entered through."""
    learner, engine, oracle, online = ml.learner, ml.engine, ml.oracle, ml.online
    t = tracer.timed
    for owner in (learner, online):
        tracer.patch(owner, "compute_auction", lambda f: t(f, "learner.compute_auction"))
    tracer.patch(ml.empirical.EmpiricalQuantile, "from_samples", lambda f: t(f, "empirical.from_samples"))
    tracer.patch(learner, "min_price_runs", lambda f: t(f, "empirical.price_runs", _add("empirical.price_runs", len)))
    tracer.patch(
        ml.curves, "curve_from_price_runs", lambda f: t(f, "curves.build", _add("curves.vertices", lambda c: len(c.vertices)))
    )
    tracer.patch(
        learner, "concave_envelope", lambda f: t(f, "curves.hull", _add("curves.hull_vertices", lambda c: len(c.vertices)))
    )
    tracer.patch(learner, "difference_intervals", lambda f: t(f, "curves.gaps", _add("curves.gaps", len)))
    for attr in ("argmax_quantile", "price_left_of_runs"):
        tracer.patch(learner, attr, lambda f: t(f, "learner.map_back"))
    tracer.patch(learner.IroningPlan, "canonical", lambda f: t(f, "learner.map_back", _count_canonical))
    tracer.patch(engine, "allocate", lambda f: t(f, _allocate_span))
    tracer.patch(engine, "is_independent", lambda f: tracer.counted(f, "environments.is_independent_calls"))
    tracer.patch(oracle, "interim_payments", lambda f: t(f, "engine.payments", _count_profile))
    tracer.patch(online, "run_auction", lambda f: t(f, "engine.run_auction", _count_profile))
    for owner in (oracle, online):
        tracer.patch(owner, "expected_revenue_enum", lambda f: t(f, "oracle.enum"))
        tracer.patch(owner, "optimal_plan", lambda f: t(f, "oracle.optimal_plan"))
    tracer.patch(oracle, "expected_revenue_quadrature", lambda f: t(f, "oracle.quad"))
    tracer.patch(oracle, "expected_revenue_mc", lambda f: t(f, "oracle.mc"))
    tracer.patch(online, "run_no_regret", lambda f: t(f, "online.run_no_regret"))
    for owner in (ml.distributions, oracle, online):
        tracer.patch(owner, "sample", lambda f: t(f, "distributions.sample"))


_COUNT_UNITS = {
    "engine.allocate_calls_per_profile": "calls/profile",
    "oracle.enum_cache_hit_ratio": "ratio",
}


def layer_unit(key: str) -> str:
    return "s" if key.endswith("_s") else _COUNT_UNITS.get(key, "count")


def layer_metrics(tracer: Tracer, enum_hits: int, enum_misses: int) -> dict[str, float]:
    """Per-layer figures of one traced repetition (seconds are per repetition)."""
    total, counts = tracer.total, tracer.counts
    allocate_calls = tracer.calls("engine.allocate_ranked") + tracer.calls("engine.allocate_matroid")
    profiles = counts["engine.profiles"]
    round_parent = "online.run_no_regret"
    return {
        "empirical.from_samples_s": total("empirical.from_samples"),
        "empirical.price_runs_s": total("empirical.price_runs"),
        "empirical.price_runs": counts["empirical.price_runs"],
        "curves.build_s": total("curves.build"),
        "curves.hull_s": total("curves.hull"),
        "curves.gaps_s": total("curves.gaps"),
        "curves.vertices": counts["curves.vertices"],
        "curves.hull_vertices": counts["curves.hull_vertices"],
        "curves.gaps": counts["curves.gaps"],
        "learner.compute_auction_s": total("learner.compute_auction"),
        "learner.map_back_s": total("learner.map_back"),
        "learner.intervals_pre_canonical": counts["learner.intervals_pre_canonical"],
        "learner.intervals_post_canonical": counts["learner.intervals_post_canonical"],
        "engine.allocate_calls_per_profile": allocate_calls / profiles if profiles else 0.0,
        "engine.allocate_ranked_s": total("engine.allocate_ranked"),
        "engine.allocate_matroid_s": total("engine.allocate_matroid"),
        "engine.payments_s": tracer.self_time("engine.payments"),
        "engine.run_auction_s": total("engine.run_auction"),
        "environments.is_independent_calls": counts["environments.is_independent_calls"],
        "oracle.enum_s": total("oracle.enum"),
        "oracle.enum_calls": tracer.calls("oracle.enum"),
        "oracle.enum_cache_hit_ratio": enum_hits / (enum_hits + enum_misses) if enum_hits + enum_misses else 0.0,
        "oracle.optimal_plan_s": total("oracle.optimal_plan"),
        "oracle.quad_s": total("oracle.quad"),
        "oracle.mc_s": total("oracle.mc"),
        "online.round_learn_s": total("learner.compute_auction", round_parent),
        "online.round_auction_s": total("engine.run_auction", round_parent),
        "online.round_oracle_s": total("oracle.enum", round_parent) + total("oracle.optimal_plan", round_parent),
        "online.self_s": tracer.self_time(round_parent),
        "distributions.sample_s": total("distributions.sample"),
    }

