"""Empirical quantile function from samples and its confidence curves.

The quantile estimator maps x to the ceil(x*m)-th order statistic
(clamped to the first one near zero, to 0 below the domain and to the
bound H above it).  It is constant on each distinct value's block of
order statistics, so ``EmpiricalQuantile`` keeps only the distinct
values and their counts; merging a further batch of samples into them
costs a pass over the distinct values plus a sort of the batch, never a
re-sort of the samples already held.  Shifted by the uniform-deviation
radius epsilon, the blocks become the ``PriceRuns`` of a pessimistic and
an optimistic revenue curve that bracket the true one with high
probability.  All of it is linear in the number of distinct values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curves import PiecewiseLinearCurve, PriceRuns, curve_from_price_runs

__all__ = ["EmpiricalQuantile", "dkw_epsilon", "r_min_curve", "r_max_curve"]


def _checked_samples(samples, h_max: float) -> np.ndarray:
    """The samples as a float array: 1-D, nonempty, each in [0, h_max]."""
    xs = np.asarray(samples, dtype=float)
    if xs.ndim != 1 or len(xs) < 1:
        raise ValueError("need a 1-D array of at least one sample")
    if not (xs.min() >= 0.0 and xs.max() <= h_max):  # NaN fails both
        outside = xs[~((0.0 <= xs) & (xs <= h_max))]
        raise ValueError(f"sample {outside[0]} outside [0, {h_max}]")
    return xs


@dataclass(frozen=True, eq=False)
class EmpiricalQuantile:
    """Samples with a known support bound, as their distinct values.

    ``values`` are the distinct samples, ascending, and ``counts`` their
    positive multiplicities (what ``np.unique`` gives); ``m`` is the
    number of samples.  Build one with ``from_samples`` and grow it with
    ``merged``, which check the samples.
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
        h_max = float(h_max)
        values, counts = np.unique(_checked_samples(samples, h_max), return_counts=True)
        return EmpiricalQuantile(values, counts, h_max)

    def merged(self, samples) -> "EmpiricalQuantile":
        """The quantile of the samples held plus these, checked as
        ``from_samples`` checks them.

        The held values are one ascending run, so a stable sort of them
        followed by the batch costs a pass over the values plus a sort of
        the batch; equal values then pool their counts.
        """
        xs = _checked_samples(samples, self.h_max)
        both = np.concatenate((self.values, xs))
        order = np.argsort(both, kind="stable")
        weights = np.concatenate((self.counts, np.ones(len(xs), dtype=self.counts.dtype)))[order]
        both = both[order]
        starts = np.flatnonzero(np.concatenate(([True], both[1:] != both[:-1])))
        return EmpiricalQuantile(both[starts], np.add.reduceat(weights, starts), self.h_max)


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
