"""Bounded probability laws for funnel rates and auction values.

Four families are supported: uniform(lo, hi), beta(a, b), point(v) and
finite discrete laws. Each exposes exact analytic moments and seeded
sampling. Rate constraints (support inside [0, 1]) are enforced at game
validation, not here.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Distribution",
    "Uniform",
    "Beta",
    "Point",
    "Discrete",
    "two_point_surrogate",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """Common interface; use the concrete subclasses."""

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def support(self) -> tuple[float, float]:
        """(lo, hi) bounds; samples always land inside."""
        raise NotImplementedError

    def sample(
        self, rng: np.random.Generator, size: int | None = None, out: np.ndarray | None = None
    ):
        """Draw from rng: one float when size is None, else a float64 array
        of size draws. out, a float64 array of shape (size,), receives the
        draws in place and is returned; the draws and the generator's state
        after them are those of the same call without it."""
        raise NotImplementedError

    def is_finite_discrete(self) -> bool:
        return False

    def atoms(self) -> list[tuple[float, float]]:
        """(value, prob) pairs for finite laws; error otherwise."""
        raise TypeError(f"{type(self).__name__} is not a finite discrete law")


@dataclass(frozen=True)
class Uniform(Distribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("uniform bounds must be finite")
        if self.hi < self.lo:
            raise ValueError(f"uniform requires lo <= hi, got ({self.lo}, {self.hi})")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"uniform range hi - lo must be finite, got ({self.lo}, {self.hi})")

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def sample(self, rng, size=None, out=None):
        # numpy's own uniform, lo + (hi - lo) * one double per draw, without
        # its per-call argument handling
        x = rng.random(size) if out is None else rng.random(out=out)
        x *= self.hi - self.lo
        x += self.lo
        return x


@dataclass(frozen=True)
class Beta(Distribution):
    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"beta requires a, b > 0, got ({self.a}, {self.b})")

    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def variance(self) -> float:
        s = self.a + self.b
        return self.a * self.b / (s * s * (s + 1.0))

    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def sample(self, rng, size=None, out=None):
        x = rng.beta(self.a, self.b, size=size)
        if out is None:
            return x
        out[...] = x
        return out


@dataclass(frozen=True)
class Point(Distribution):
    v: float

    def __post_init__(self):
        if not math.isfinite(self.v):
            raise ValueError("point mass must be finite")

    def mean(self) -> float:
        return self.v

    def variance(self) -> float:
        return 0.0

    def support(self) -> tuple[float, float]:
        return (self.v, self.v)

    def sample(self, rng, size=None, out=None):
        if size is None:
            return self.v
        if out is None:
            return np.full(size, self.v, dtype=np.float64)
        out.fill(self.v)
        return out

    def is_finite_discrete(self) -> bool:
        return True

    def atoms(self):
        return [(self.v, 1.0)]


@dataclass(frozen=True)
class Discrete(Distribution):
    values: tuple[float, ...]
    probs: tuple[float, ...]
    _cum: list[float] = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("discrete law needs at least one atom")
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs must have equal length")
        if any(p < 0 for p in self.probs):
            raise ValueError("discrete probabilities must be nonnegative")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"discrete probabilities sum to {total!r}, not 1")
        cum = np.cumsum(np.asarray(self.probs, dtype=np.float64)).tolist()
        object.__setattr__(self, "_cum", cum)
        object.__setattr__(self, "_values", np.asarray(self.values, dtype=np.float64))

    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probs))

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum(p * (v - mu) ** 2 for v, p in zip(self.values, self.probs))

    def support(self) -> tuple[float, float]:
        return (min(self.values), max(self.values))

    def sample(self, rng, size=None, out=None):
        # inverse-CDF on a uniform draw; keeps one rng draw per sample. The
        # atom index is the number of cumulative probabilities at or below
        # u, capped at the last atom. With out, the uniforms land there and
        # the values overwrite them
        cum = self._cum
        if size is None:
            return float(self._values[min(bisect_right(cum, rng.random()), len(cum) - 1)])
        u = rng.random(size=size) if out is None else rng.random(out=out)
        # kept in the smallest dtype that holds the last atom's index
        idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(cum) - 1))
        for c in cum[:-1]:
            idx += u >= c
        return np.take(self._values, idx, out=out)

    def is_finite_discrete(self) -> bool:
        return True

    def atoms(self):
        return list(zip(self.values, self.probs))


def two_point_surrogate(dist: Distribution) -> Distribution:
    """Finite stand-in for a continuous law: two atoms at mean +- sd,
    clipped to the support, weighted to keep the mean exact. Finite laws
    pass through unchanged. Used to build enumerable game variants whose
    exact payoffs cross-check the Monte-Carlo estimators."""
    if dist.is_finite_discrete():
        return dist
    mu = dist.mean()
    sd = math.sqrt(dist.variance())
    lo_s, hi_s = dist.support()
    lo = max(lo_s, mu - sd)
    hi = min(hi_s, mu + sd)
    if hi <= lo:
        return Point(mu)
    p_hi = (mu - lo) / (hi - lo)
    return Discrete((lo, hi), (1.0 - p_hi, p_hi))

