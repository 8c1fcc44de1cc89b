"""Moment exactness and sampling consistency for the rate laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from adpricing.distributions import (
    Beta,
    Discrete,
    Point,
    Uniform,
    two_point_surrogate,
)

from conftest import rate_laws


def test_uniform_moments():
    d = Uniform(0.2, 0.4)
    assert d.mean() == pytest.approx(0.3, rel=1e-15)
    assert d.variance() == pytest.approx(1.0 / 300.0, rel=1e-12)
    assert d.support() == (0.2, 0.4)
    assert not d.is_finite_discrete()


@pytest.mark.parametrize("lo, hi", [(0.2, 0.4), (0.3, 0.3), (-2.5, 7.0), (0.0, 1e300)])
@pytest.mark.parametrize("size", [None, 7, (3, 4)])
def test_uniform_sample_is_numpy_uniform_bit_for_bit(lo, hi, size):
    law = Uniform(lo, hi)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    x = law.sample(ours, size)
    y = theirs.uniform(lo, hi, size)
    assert type(x) is type(y)
    assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
    assert ours.random() == theirs.random()  # one double consumed per draw


def test_uniform_range_must_be_finite():
    # numpy's uniform raises OverflowError on such a range; the law rejects it first
    with pytest.raises(ValueError, match="finite"):
        Uniform(-1e308, 1e308)
    assert Uniform(-1e307, 1e307).sample(np.random.default_rng(0)) < 1e307


def test_beta_moments_exact():
    d = Beta(2.0, 3.0)
    assert d.mean() == 0.4
    assert d.variance() == 0.04
    assert d.support() == (0.0, 1.0)


def test_point_moments():
    d = Point(0.3)
    assert d.mean() == 0.3
    assert d.variance() == 0.0
    assert d.support() == (0.3, 0.3)
    assert d.atoms() == [(0.3, 1.0)]


def test_discrete_moments():
    d = Discrete((0.1, 0.3), (0.5, 0.5))
    assert d.mean() == 0.2
    assert d.variance() == pytest.approx(0.01, rel=1e-12)
    assert d.support() == (0.1, 0.3)
    assert d.is_finite_discrete()
    assert d.atoms() == [(0.1, 0.5), (0.3, 0.5)]


def test_discrete_validation():
    with pytest.raises(ValueError):
        Discrete((0.1, 0.3), (0.5, 0.6))  # probs sum past 1
    with pytest.raises(ValueError):
        Discrete((0.1, 0.3), (1.5, -0.5))
    with pytest.raises(ValueError):
        Discrete((0.1,), (0.5, 0.5))


FAIR_DIE = Discrete(tuple(float(k) for k in range(1, 7)), (1.0 / 6.0,) * 6)


def test_uniform_die():
    die = FAIR_DIE
    assert die.mean() == 3.5
    assert die.variance() == pytest.approx(35.0 / 12.0, rel=1e-12)
    assert len(die.atoms()) == 6
    assert all(p == pytest.approx(1.0 / 6.0) for _, p in die.atoms())


@pytest.mark.parametrize(
    "dist",
    [
        Uniform(0.2, 0.4),
        Beta(2.0, 5.0),
        Point(0.125),
        Discrete((0.1, 0.4, 0.7), (0.2, 0.3, 0.5)),
        FAIR_DIE,
    ],
)
def test_sample_mean_matches_declared_moments(dist):
    rng = np.random.default_rng(7)
    n = 200_000
    x = dist.sample(rng, n)
    lo, hi = dist.support()
    assert x.min() >= lo and x.max() <= hi
    se = math.sqrt(dist.variance() / n)
    assert abs(x.mean() - dist.mean()) <= max(5.0 * se, 1e-12)


@pytest.mark.parametrize(
    "dist",
    [
        Uniform(0.2, 0.4),
        Uniform(-2.5, 7.0),
        Beta(2.0, 5.0),
        Point(0.125),
        Discrete((0.1, 0.4, 0.7), (0.2, 0.3, 0.5)),
        FAIR_DIE,
    ],
)
def test_sample_into_out_is_the_fresh_draw_bit_for_bit(dist):
    # out is one row of a larger array, as draw_rates passes it; the rows
    # around it must keep their sentinel
    size = 1000
    ours, theirs = np.random.default_rng(13), np.random.default_rng(13)
    buf = np.full((3, size), np.nan)
    row = buf[1]
    assert dist.sample(ours, size, out=row) is row
    assert row.tobytes() == dist.sample(theirs, size).tobytes()
    assert np.isnan(buf[[0, 2]]).all()
    assert ours.random() == theirs.random()  # the same doubles were consumed


class _GivenUniforms:
    """Stand-in rng whose draws are the given uniforms, in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)
        self.i = 0

    def random(self, size=None, out=None):
        k = out.size if out is not None else 1 if size is None else size
        u, self.i = self.u[self.i : self.i + k], self.i + k
        if out is not None:
            out[...] = u
            return out
        return float(u[0]) if size is None else u.copy()


@pytest.mark.parametrize(
    "values, probs",
    [
        ((0.25,), (1.0,)),
        ((0.1, 0.3), (0.5, 0.5)),
        ((0.1, 0.3), (0.0, 1.0)),  # a zero-probability atom first
        ((0.1, 0.4, 0.7), (0.2, 0.0, 0.8)),  # and in the middle
        # the cumulative probabilities end at 0.9999999999999, below 1, so
        # a u above that is capped to the last atom
        ((0.1, 0.4, 0.7, 0.9), (0.1, 0.2, 0.7 - 1e-13, 0.0)),
        ((0.1, 0.4, 0.7, 0.9, 0.95), (0.2, 0.2, 0.2, 0.2, 0.2)),
        (tuple(float(k) for k in range(1, 7)), (1.0 / 6.0,) * 6),
    ],
)
def test_discrete_sample_is_the_searchsorted_draw_bit_for_bit(values, probs):
    d = Discrete(values, probs)
    cum = np.cumsum(np.asarray(probs, dtype=np.float64))
    # u on, just below and just above every cumulative probability, the
    # ends of [0, 1) and some plain draws
    edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0)])
    plain = np.random.default_rng(1).random(50)
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], edges[edges < 1.0], plain])
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(values) - 1)
    want = np.asarray(values, dtype=np.float64)[idx]
    assert d.sample(_GivenUniforms(u), u.size).tobytes() == want.tobytes()
    buf = np.full(u.size, np.nan)
    assert d.sample(_GivenUniforms(u), u.size, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    rng = _GivenUniforms(u)
    scalars = [d.sample(rng) for _ in u]
    assert all(type(x) is float for x in scalars)
    assert np.array(scalars).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(dist=rate_laws())
def test_random_law_samples_stay_in_support(dist):
    rng = np.random.default_rng(3)
    x = dist.sample(rng, 512)
    lo, hi = dist.support()
    assert x.min() >= lo and x.max() <= hi
    se = math.sqrt(dist.variance() / 512)
    assert abs(x.mean() - dist.mean()) <= max(6.0 * se, 1e-9)


def test_two_point_surrogate_preserves_mean():
    for dist in (Uniform(0.2, 0.4), Beta(2.0, 3.0)):
        s = two_point_surrogate(dist)
        assert s.is_finite_discrete()
        assert len(s.atoms()) == 2
        assert s.mean() == pytest.approx(dist.mean(), rel=1e-12)
    # finite laws pass through untouched
    d = Discrete((0.1, 0.3), (0.5, 0.5))
    assert two_point_surrogate(d) is d
    p = Point(0.3)
    assert two_point_surrogate(p) is p
