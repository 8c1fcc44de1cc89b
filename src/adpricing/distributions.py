"""Bounded probability laws for funnel rates and auction values.

Four families are supported: uniform(lo, hi), beta(a, b), point(v) and
finite discrete laws. Each exposes exact analytic moments and seeded
sampling. Rate constraints (support inside [0, 1]) are enforced at game
validation, not here.

Frozen, the immutable base of the laws, is also the base of the game's
value types in adpricing.model.
"""

from __future__ import annotations

import math
from bisect import bisect_right

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
_set = object.__setattr__


class Frozen:
    """Immutable value type. A subclass names its fields, the arguments of
    its __init__ in order, in _fields (they are also its __slots__), checks
    them in __init__ and stores them with _init.

    Equality and hash go by class and fields, repr lists the fields,
    assignment and deletion raise AttributeError, and copy, deepcopy,
    pickle and _replace rebuild through __init__, so every copy passes the
    same checks as the original. Defining such a class costs far less at
    import than a frozen dataclass, and a slot reads faster than a
    namedtuple field."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _replace(self, **changes):
        """A copy with the named fields changed, checked by __init__; an
        unknown name raises TypeError."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Distribution(Frozen):
    """Common interface; use the concrete subclasses."""

    __slots__ = ()

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


class Uniform(Distribution):
    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("uniform bounds must be finite")
        if hi < lo:
            raise ValueError(f"uniform requires lo <= hi, got ({lo}, {hi})")
        if not math.isfinite(hi - lo):
            raise ValueError(f"uniform range hi - lo must be finite, got ({lo}, {hi})")
        self._init(lo, hi)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def sample(self, rng, size=None, out=None):
        # numpy's own uniform, lo + (hi - lo) * one double per draw, without
        # its per-call argument handling; the scalar draw does the array
        # draw's two steps on one double
        if size is None:
            return rng.random() * (self.hi - self.lo) + self.lo
        x = rng.random(size) if out is None else rng.random(out=out)
        x *= self.hi - self.lo
        x += self.lo
        return x


class Beta(Distribution):
    __slots__ = _fields = ("a", "b")

    def __init__(self, a: float, b: float):
        if a <= 0 or b <= 0:
            raise ValueError(f"beta requires a, b > 0, got ({a}, {b})")
        # a finite a + b keeps the mean a / (a + b) and the draws meaningful
        if not math.isfinite(a + b):
            raise ValueError(f"beta a + b must be finite, got ({a}, {b})")
        self._init(a, b)

    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def variance(self) -> float:
        # (a/s)(b/s)/(s + 1): neither a*b nor s*s under- or overflows at
        # extreme parameters
        s = self.a + self.b
        return (self.a / s) * (self.b / s) / (s + 1.0)

    def support(self) -> tuple[float, float]:
        return (0.0, 1.0)

    def sample(self, rng, size=None, out=None):
        x = rng.beta(self.a, self.b, size=size)
        if out is None:
            return x
        out[...] = x
        return out


class Point(Distribution):
    __slots__ = _fields = ("v",)

    def __init__(self, v: float):
        if not math.isfinite(v):
            raise ValueError("point mass must be finite")
        self._init(v)

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


class Discrete(Distribution):
    _fields = ("values", "probs")
    # the sampler's cumulative probabilities and float64 values, derived
    # from the fields and left out of equality, hash and repr
    __slots__ = _fields + ("_cum", "_values")

    def __init__(self, values: tuple[float, ...], probs: tuple[float, ...]):
        if len(values) == 0:
            raise ValueError("discrete law needs at least one atom")
        if len(values) != len(probs):
            raise ValueError("values and probs must have equal length")
        if any(p < 0 for p in probs):
            raise ValueError("discrete probabilities must be nonnegative")
        total = math.fsum(probs)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"discrete probabilities sum to {total!r}, not 1")
        self._init(values, probs)
        _set(self, "_cum", np.cumsum(np.asarray(probs, dtype=np.float64)).tolist())
        _set(self, "_values", np.asarray(values, dtype=np.float64))

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

