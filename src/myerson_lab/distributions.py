"""Exact, sampleable bounded value distributions.

Two families are supported: finite discrete laws (the ground truth for
every exact oracle) and mixtures of uniform components (sampling and
Monte Carlo only; no revenue curve is built for them).  A discrete law
is also its ``price_runs``, built once: posting atom v sells with
probability P(V >= v), so v prices the quantiles from P(V > v) to
P(V >= v).  The revenue curve, the optimal plan and every plan's
induced curve are all read from those runs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curves import PriceRuns
from .environments import _json_list, _json_number, _json_object

__all__ = ["ValueDistribution", "sample"]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class ValueDistribution:
    """A bounded value law: discrete atoms or a uniform mixture.

    ``h_max`` is the known support bound H; all values live in [0, h_max].
    """

    kind: str
    h_max: float
    atoms: tuple[tuple[float, float], ...] = ()
    components: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        if self.h_max <= 0 or not math.isfinite(self.h_max):
            raise ValueError("h_max must be positive and finite")
        if self.kind == "discrete":
            if not self.atoms:
                raise ValueError("discrete distribution needs atoms")
            total = math.fsum(p for _, p in self.atoms)
            if not abs(total - 1.0) <= _PROB_TOL:  # NaN fails too
                raise ValueError(f"atom probabilities sum to {total}, not 1")
            prev = -math.inf
            for v, p in self.atoms:
                if not 0.0 <= v <= self.h_max:
                    raise ValueError(f"atom value {v} outside [0, {self.h_max}]")
                if p < 0.0:
                    raise ValueError("negative atom probability")
                if v <= prev:
                    raise ValueError("atom values must be strictly increasing")
                prev = v
        elif self.kind == "uniform_mixture":
            if not self.components:
                raise ValueError("mixture needs components")
            total = math.fsum(w for _, _, w in self.components)
            if not abs(total - 1.0) <= _PROB_TOL:  # NaN fails too
                raise ValueError(f"component weights sum to {total}, not 1")
            for lo, hi, w in self.components:
                if not (0.0 <= lo < hi <= self.h_max):
                    raise ValueError(f"component ({lo}, {hi}) invalid for h_max {self.h_max}")
                if w < 0.0:
                    raise ValueError("negative component weight")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    # -- constructors ------------------------------------------------

    @staticmethod
    def discrete(atoms, h_max: float) -> "ValueDistribution":
        atoms = tuple(sorted((float(v), float(p)) for v, p in atoms))
        return ValueDistribution(kind="discrete", h_max=float(h_max), atoms=atoms)

    @staticmethod
    def uniform_mixture(components, h_max: float) -> "ValueDistribution":
        comps = tuple((float(a), float(b), float(w)) for a, b, w in components)
        return ValueDistribution(kind="uniform_mixture", h_max=float(h_max), components=comps)

    @staticmethod
    def from_json(text: str) -> "ValueDistribution":
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ValueError("distribution JSON must be an object")
        if spec["type"] == "discrete":
            atoms = _json_list(spec["atoms"], "atoms", _json_object)
            return ValueDistribution.discrete(
                [(_json_number(a["value"], "value"), _json_number(a["prob"], "prob")) for a in atoms],
                _json_number(spec["h_max"], "h_max"),
            )
        if spec["type"] == "uniform_mixture":
            comps = _json_list(spec["components"], "components", _json_object)
            return ValueDistribution.uniform_mixture(
                [tuple(_json_number(c[k], k) for k in ("lo", "hi", "weight")) for c in comps],
                _json_number(spec["h_max"], "h_max"),
            )
        raise ValueError(f"unknown distribution type {spec['type']!r}")

    def to_json(self) -> str:
        if self.kind == "discrete":
            spec = {
                "type": "discrete",
                "h_max": self.h_max,
                "atoms": [{"value": v, "prob": p} for v, p in self.atoms],
            }
        else:
            spec = {
                "type": "uniform_mixture",
                "h_max": self.h_max,
                "components": [{"lo": a, "hi": b, "weight": w} for a, b, w in self.components],
            }
        return json.dumps(spec)

    # -- cached arrays ----------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.kind == "discrete"

    def __getstate__(self):
        # a copy, say in a worker process, rebuilds its read-only arrays
        return {k: v for k, v in self.__dict__.items() if k not in ("_atom_arrays", "price_runs")}

    @cached_property
    def _atom_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Atom values and probabilities, read-only."""
        arrays = np.array([v for v, _ in self.atoms]), np.array([p for _, p in self.atoms])
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @cached_property
    def price_runs(self) -> PriceRuns:
        """Constant-price runs of q -> F_inverse(1 - q), highest value first.

        The run of atom v_j ends at T[j] = P(V >= v_j), reverse-accumulated
        with T[0] pinned to 1, so quantile images of atom values land on
        the revenue curve's breakpoints; the clamp at 1 keeps the edges in
        order when the sum rounds above 1.  A zero-probability atom keeps
        its empty run.  The arrays are read-only.
        """
        if not self.is_discrete:
            raise ValueError("price runs need a discrete distribution")
        vals, probs = self._atom_arrays
        edges = np.concatenate(([0.0], np.minimum(np.cumsum(probs[::-1]), 1.0)))
        edges[-1] = 1.0
        edges.flags.writeable = False
        return PriceRuns(edges, vals[::-1])


def sample(dist: ValueDistribution, count: int, seed) -> np.ndarray:
    """Draw ``count`` i.i.d. values, deterministically for a given seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    if dist.is_discrete:
        vals, probs = dist._atom_arrays
        return vals[_cdf_index(probs, rng.random(count))]
    los = np.array([lo for lo, _, _ in dist.components])
    his = np.array([hi for _, hi, _ in dist.components])
    idx = _cdf_index(np.array([w for _, _, w in dist.components]), rng.random(count))
    u = rng.uniform(size=count)
    return los[idx] + u * (his[idx] - los[idx])


def _cdf_index(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The indices that Generator.choice(len(probs), p=probs) draws from the
    uniforms u, bit for bit, without its checks of p: the laws are checked
    when built."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


_M32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's multiplier (pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _spawned_uniforms(seed, keys: np.ndarray, n: int) -> np.ndarray:
    """Row i is ``default_rng(SeedSequence([seed, 0], spawn_key=(keys[i],))).random(n)``,
    bit for bit, for keys below 2**32, built for all keys at once.

    Every child shares the pool of ``SeedSequence([seed, 0])`` up to the
    last hashmix, which mixes its spawn word into each pool word; the
    entropy words before it (at least the pool's 4) set that step's hash
    constant.  The child's 8 ``generate_state`` words seed PCG64, a
    128-bit LCG with XSL-RR output, in (hi, lo) uint64 halves.
    """
    seed = int(seed)
    pool = np.random.SeedSequence([seed, 0]).pool.astype(np.uint64)  # refuses a seed as numpy does
    words = max(4, -(-seed.bit_length() // 32) + 1)  # [seed, 0] in uint32 words, padded to the pool
    consts = [_INIT_A * pow(_MULT_A, 4 * words + j, 2**32) & _M32 for j in range(5)]
    # SeedSequence's mix of each pool word with the hashed spawn word
    pool = (_MIX_L * pool - _MIX_R * _hashmix(keys.astype(np.uint64)[:, None], consts)) & _M32
    pool ^= pool >> 16
    state = _hashmix(np.tile(pool, 2), [_INIT_B * pow(_MULT_B, j, 2**32) & _M32 for j in range(9)])
    state = state[:, 0::2] | (state[:, 1::2] << 32)  # four little-endian uint64 words
    init = state[:, :1], state[:, 1:2]
    inc = (state[:, 2:3] << 1) | (state[:, 3:4] >> 63), (state[:, 3:4] << 1) | 1
    # srandom leaves the state a*init + (1 + a)*inc and each draw steps before it
    # reads, so draw j (j = 1..n) reads a^(j+1)*init + (1 + a + ... + a^(j+1))*inc
    powers = [pow(_PCG_MULT, j, 2**128) for j in range(n + 2)]
    sums = [x % 2**128 for x in itertools.accumulate(powers)]
    m_hi, m_lo = _mul128(init, powers[2:])
    s_hi, s_lo = _mul128(inc, sums[2:])
    lo = m_lo + s_lo
    hi = m_hi + s_hi + (lo < s_lo)
    x, rot = hi ^ lo, hi >> 58
    return (((x >> rot) | (x << ((64 - rot) & 63))) >> 11) * 2.0**-53


def _hashmix(x: np.ndarray, consts: list[int]) -> np.ndarray:
    """SeedSequence's hashmix of x[..., j] with the hash constant stepping
    from consts[j] to consts[j + 1]."""
    x = ((x ^ np.array(consts[:-1], dtype=np.uint64)) * np.array(consts[1:], dtype=np.uint64)) & _M32
    return x ^ (x >> 16)


def _mul128(a: tuple[np.ndarray, np.ndarray], consts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 halves of a * consts[j] mod 2**128 in column j; the
    high half of the low halves' product is summed in 32-bit limbs."""
    a1, a0 = a
    b1 = np.array([c >> 64 for c in consts], dtype=np.uint64)
    b0 = np.array([c & (2**64 - 1) for c in consts], dtype=np.uint64)
    x0, x1, y0, y1 = a0 & _M32, a0 >> 32, b0 & _M32, b0 >> 32
    mid = ((x0 * y0) >> 32) + ((x0 * y1) & _M32) + ((x1 * y0) & _M32)
    carry = x1 * y1 + ((x0 * y1) >> 32) + ((x1 * y0) >> 32) + (mid >> 32)
    return carry + a1 * b0 + a0 * b1, a0 * b0
