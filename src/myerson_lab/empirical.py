"""Empirical quantile function from samples and its confidence curves.

The quantile estimator maps x to the ceil(x*m)-th order statistic
(clamped to the first one near zero, to 0 below the domain and to the
bound H above it).  ``EmpiricalQuantile`` keeps the sorted samples as an
array, with the distinct values and their counts: the estimator is
constant on each value's block of order statistics.  Shifted by the
uniform-deviation radius epsilon, those blocks become the ``PriceRuns``
of a pessimistic and an optimistic revenue curve that bracket the true
one with high probability.  After the sort, all of it is linear in the
number of distinct values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import PiecewiseLinearCurve, PriceRuns, curve_from_price_runs

__all__ = ["EmpiricalQuantile", "dkw_epsilon", "r_min_curve", "r_max_curve"]


@dataclass(frozen=True, eq=False)
class EmpiricalQuantile:
    """Sorted samples with a known support bound.

    ``values`` are the distinct samples, ascending, and ``counts`` their
    multiplicities (what ``np.unique`` gives, read off the sorted array).
    """

    sorted_samples: np.ndarray
    h_max: float
    values: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        xs = np.array(self.sorted_samples, dtype=float)
        if xs.ndim != 1 or len(xs) < 1:
            raise ValueError("need a 1-D array of at least one sample")
        if not (xs.min() >= 0.0 and xs.max() <= self.h_max):  # NaN fails both
            outside = xs[~((0.0 <= xs) & (xs <= self.h_max))]
            raise ValueError(f"sample {outside[0]} outside [0, {self.h_max}]")
        if (xs[1:] < xs[:-1]).any():
            raise ValueError("samples must be sorted ascending")
        starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
        xs.flags.writeable = False
        object.__setattr__(self, "sorted_samples", xs)
        object.__setattr__(self, "values", xs[starts])
        object.__setattr__(self, "counts", np.concatenate((starts[1:], [len(xs)])) - starts)

    @staticmethod
    def from_samples(values, h_max: float) -> "EmpiricalQuantile":
        return EmpiricalQuantile(np.sort(np.asarray(values, dtype=float)), float(h_max))

    @property
    def m(self) -> int:
        return len(self.sorted_samples)


def dkw_epsilon(m: int, delta: float) -> float:
    """Uniform CDF deviation radius sqrt(ln(2/delta) / (2m))."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * m))


def _order_stats_above(eq: EmpiricalQuantile) -> np.ndarray:
    """Order statistics at or above each distinct value, highest value
    first, then 0: the estimator's block boundaries in index space."""
    return np.concatenate((np.cumsum(eq.counts)[::-1], [0]))


def min_price_runs(eq: EmpiricalQuantile, epsilon: float) -> PriceRuns:
    """Constant-price runs of q -> quantile_estimate(1 - q - epsilon).

    The i-th order statistic prices quantiles in
    [1 - eps - i/m, 1 - eps - (i-1)/m); the estimate clamps to 0 once
    1 - q - eps goes negative.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    edges = np.maximum((1.0 - epsilon) - _order_stats_above(eq) / eq.m, 0.0)
    prices = eq.values[::-1]
    if 1.0 - epsilon < 1.0:
        edges, prices = np.concatenate((edges, [1.0])), np.concatenate((prices, [0.0]))
    return PriceRuns.nonempty(edges, prices)


def max_price_runs(eq: EmpiricalQuantile, epsilon: float) -> PriceRuns:
    """Constant-price runs of q -> quantile_estimate(1 - q + epsilon + 1/m).

    For q below epsilon + 1/m the argument exceeds one and the estimate
    clamps to h_max.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    m = eq.m
    c = epsilon + 1.0 / m
    # written as c + k/m so the block boundaries share exact floats
    edges = np.concatenate(([0.0], np.minimum(c + (m - _order_stats_above(eq)) / m, 1.0)))
    return PriceRuns.nonempty(edges, np.concatenate(([eq.h_max], eq.values[::-1])))


def r_min_curve(eq: EmpiricalQuantile, epsilon: float) -> PiecewiseLinearCurve:
    """Pessimistic revenue curve q * quantile_estimate(1 - q - epsilon)."""
    return curve_from_price_runs(min_price_runs(eq, epsilon))


def r_max_curve(eq: EmpiricalQuantile, epsilon: float) -> PiecewiseLinearCurve:
    """Optimistic revenue curve q * quantile_estimate(1 - q + epsilon + 1/m)."""
    return curve_from_price_runs(max_price_runs(eq, epsilon))
