"""Empirical quantile function from samples and its confidence curves.

The quantile estimator maps x to the ceil(x*m)-th order statistic
(clamped to the first one near zero, to 0 below the domain and to the
bound H above it).  It is constant on each distinct value's block of
order statistics, so ``EmpiricalQuantile`` keeps only the distinct
values and their counts.  Shifted by the uniform-deviation radius
epsilon, the blocks become the ``PriceRuns`` of a pessimistic and an
optimistic revenue curve that bracket the true one with high
probability.  All of it is linear in the number of distinct values.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .curves import PiecewiseLinearCurve, PriceRuns, curve_from_price_runs

__all__ = ["EmpiricalQuantile", "dkw_epsilon", "r_min_curve", "r_max_curve"]


@dataclass(frozen=True, eq=False)
class EmpiricalQuantile:
    """Samples with a known support bound, as their distinct values.

    ``values`` are the distinct samples, ascending, and ``counts`` their
    positive multiplicities (what ``np.unique`` gives); ``m`` is the
    number of samples.  Build one with ``from_samples``, which checks the
    samples.
    """

    values: np.ndarray
    counts: np.ndarray
    h_max: float
    m: int = field(init=False)

    def __post_init__(self):
        self.values.flags.writeable = self.counts.flags.writeable = False
        object.__setattr__(self, "m", int(self.counts.sum()))

    @staticmethod
    def from_samples(samples, h_max: float) -> "EmpiricalQuantile":
        """The quantile of a 1-D, nonempty array of samples, each in [0, h_max]."""
        h_max = float(h_max)
        xs = np.asarray(samples, dtype=float)
        if xs.ndim != 1 or len(xs) < 1:
            raise ValueError("need a 1-D array of at least one sample")
        if not (xs.min() >= 0.0 and xs.max() <= h_max):  # NaN fails both
            outside = xs[~((0.0 <= xs) & (xs <= h_max))]
            raise ValueError(f"sample {outside[0]} outside [0, {h_max}]")
        # np.unique(xs, return_counts=True), without its dispatch overhead
        xs = np.sort(xs)
        starts = np.concatenate(([True], xs[1:] != xs[:-1])).nonzero()[0]  # each distinct value's first sample
        counts = np.concatenate((starts[1:], [len(xs)])) - starts
        return EmpiricalQuantile(xs[starts], counts, h_max)


def dkw_epsilon(m, delta: float):
    """Uniform CDF deviation radius sqrt(ln(2/delta) / (2m)), for one m or
    for each of an integer array of them.

    ln(2/delta) is taken once, and the division and the square root are
    correctly rounded, so each element of the array form is ``==`` the
    call on that element alone.
    """
    lo, hi = (m.min(), m.max()) if isinstance(m, np.ndarray) else (m, m)
    if not (-math.inf < lo and hi <= sys.float_info.max):  # NaN fails both, an int beyond a float the second
        raise ValueError("m must be finite")
    if lo < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    ratio = math.log(2.0 / delta) / (2.0 * m)
    return np.sqrt(ratio) if isinstance(m, np.ndarray) else math.sqrt(ratio)


def _min_edges(counts: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Run edges of the pessimistic curves of rows of ``counts``, the
    samples at each of some ascending values, each at its radius in
    ``eps``: (1 - eps) minus the share of samples at or below each value,
    highest value first and clamped at 0, then 1 - eps and 1.  The runs
    between them are priced at the values, highest first, and then at 0."""
    r, s = counts.shape
    edges = np.ones((r, s + 2))
    at_or_below = counts.cumsum(axis=1)[:, ::-1] / counts.sum(axis=1, keepdims=True)
    np.maximum((1.0 - eps)[:, None] - at_or_below, 0.0, out=edges[:, :s])
    np.maximum(1.0 - eps, 0.0, out=edges[:, s])
    return edges


def min_price_runs(eq: EmpiricalQuantile, epsilon: float) -> PriceRuns:
    """Constant-price runs of q -> quantile_estimate(1 - q - epsilon).

    The i-th order statistic prices quantiles in
    [1 - eps - i/m, 1 - eps - (i-1)/m); the estimate clamps to 0 once
    1 - q - eps goes negative, on a run from 1 - eps to 1 that is empty
    at eps = 0.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    edges = _min_edges(eq.counts[None], np.array([epsilon]))[0]
    return PriceRuns.nonempty(edges, np.concatenate((eq.values[::-1], [0.0])))


def max_price_runs(eq: EmpiricalQuantile, epsilon: float) -> PriceRuns:
    """Constant-price runs of q -> quantile_estimate(1 - q + epsilon + 1/m).

    For q below epsilon + 1/m the argument exceeds one and the estimate
    clamps to h_max.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    m = eq.m
    c = epsilon + 1.0 / m
    above = np.concatenate(([0], eq.counts[::-1].cumsum()))  # samples above each value, highest first, then m
    # written as c + k/m so the block boundaries share exact floats
    edges = np.concatenate(([0.0], np.minimum(c + above / m, 1.0)))
    return PriceRuns.nonempty(edges, np.concatenate(([eq.h_max], eq.values[::-1])))


def r_min_curve(eq: EmpiricalQuantile, epsilon: float) -> PiecewiseLinearCurve:
    """Pessimistic revenue curve q * quantile_estimate(1 - q - epsilon)."""
    return curve_from_price_runs(min_price_runs(eq, epsilon))


def r_max_curve(eq: EmpiricalQuantile, epsilon: float) -> PiecewiseLinearCurve:
    """Optimistic revenue curve q * quantile_estimate(1 - q + epsilon + 1/m)."""
    return curve_from_price_runs(max_price_runs(eq, epsilon))
