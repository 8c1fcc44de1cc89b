"""Shared fixtures and hypothesis strategies for small random games."""


import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from adpricing.cli import _unbeaten
from adpricing.distributions import Discrete, Point, Uniform
from adpricing.engine import run_auction
from adpricing.model import (
    AdvertiserSpec,
    CHAIN_3,
    CHAIN_4,
    EventChain,
    Game,
    Strategy,
    in_site,
    out_site,
    pricing_model,
)
from adpricing.strategy import theoretical_play

# every property draws the same examples on every run; each test keeps
# its own max_examples
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def make_game(specs, model="OCPC", scenario="in_site", chain_events=CHAIN_3):
    chain = EventChain(tuple(chain_events))
    sc = in_site() if scenario == "in_site" else out_site()
    return Game(specs, chain, pricing_model(model, chain), sc)


def scans_pass(rep):
    """The dominance study's rule on a scan report: no grid bid beats the
    theoretical bid against any fixture."""
    return all(_unbeaten(scan.gap) for scan in rep.fixtures)


def default_specs():
    return (
        AdvertiserSpec(
            id=1, m=100.0, rates=(Uniform(0.2, 0.4), Uniform(0.05, 0.15))
        ),
        AdvertiserSpec(
            id=2, m=100.0, rates=(Uniform(0.15, 0.45), Uniform(0.05, 0.20)),
            outside_option=1.0,
        ),
    )


def cart_specs():
    return (
        AdvertiserSpec(
            id=1, m=100.0,
            rates=(Uniform(0.2, 0.4), Uniform(0.3, 0.7), Uniform(0.2, 0.6)),
        ),
        AdvertiserSpec(
            id=2, m=100.0,
            rates=(Uniform(0.15, 0.45), Uniform(0.3, 0.7), Uniform(0.2, 0.6)),
            outside_option=1.0,
        ),
    )


def point_specs(c1=0.3, p1=0.2, c2=0.3, p2=0.2, m1=100.0, m2=100.0):
    return (
        AdvertiserSpec(id=1, m=m1, rates=(Point(c1), Point(p1))),
        AdvertiserSpec(id=2, m=m2, rates=(Point(c2), Point(p2))),
    )


def mean_rate_equivalent_bids(game):
    """Every advertiser's equivalent bid under theoretical play with each
    rate at its mean, read off one scalar-engine auction on a copy of the
    game whose laws are point masses at their means."""
    means = game._replace(
        specs=[s._replace(rates=tuple(Point(r.mean()) for r in s.rates)) for s in game.specs]
    )
    return run_auction(means, theoretical_play(means), None, np.random.default_rng(0)).draw.equivalent_bids


@pytest.fixture
def default_game():
    return make_game(default_specs())


@pytest.fixture
def cart_game():
    return make_game(cart_specs(), model="CPSC", chain_events=CHAIN_4)


@pytest.fixture
def point_game():
    return make_game(point_specs())


# --- hypothesis strategies ---------------------------------------------

_PROB_SETS = ((1.0,), (0.5, 0.5), (0.25, 0.75), (0.2, 0.3, 0.5))


def _atoms(k):
    """k distinct ascending atoms in [0.05, 0.95]."""
    return st.lists(st.floats(0.05, 0.95), min_size=k, max_size=k, unique=True).map(
        lambda v: tuple(sorted(v))
    )


# strategies are built once, not per example; a uniform law's bounds are
# one tuple draw
_KINDS = st.sampled_from(("point", "uniform", "discrete"))
_POINT = st.floats(0.05, 0.95)
_UNIFORM = st.tuples(st.floats(0.05, 0.5), st.floats(0.01, 0.4))  # lo, width
_PROBS = st.sampled_from(_PROB_SETS)
_ATOMS = {len(probs): _atoms(len(probs)) for probs in _PROB_SETS}
_ADVERTISERS = st.integers(2, 3)
_M = st.floats(1.0, 500.0)


@st.composite
def rate_laws(draw):
    kind = draw(_KINDS)
    if kind == "point":
        return Point(draw(_POINT))
    if kind == "uniform":
        lo, width = draw(_UNIFORM)
        return Uniform(lo, lo + width)
    probs = draw(_PROBS)
    return Discrete(draw(_ATOMS[len(probs)]), probs)


_RATE_LAW = rate_laws()


@st.composite
def small_games(draw, models=("CPM", "CPC", "CPA", "OCPC"), scenario="in_site", n=None):
    chain = EventChain(CHAIN_3)
    n_adv = n if n is not None else draw(_ADVERTISERS)
    specs = [
        AdvertiserSpec(id=i + 1, m=draw(_M), rates=(draw(_RATE_LAW), draw(_RATE_LAW)))
        for i in range(n_adv)
    ]
    sc = in_site() if scenario == "in_site" else out_site()
    model = pricing_model(draw(st.sampled_from(models)), chain)
    return Game(specs, chain, model, sc)


@st.composite
def games_with_bids(draw, **kwargs):
    game = draw(small_games(**kwargs))
    strategies = tuple(
        Strategy(bid=draw(st.floats(0.01, 2.0 * spec.m))) for spec in game.specs
    )
    return game, strategies


@st.composite
def _finite_laws(draw):
    probs = draw(_PROBS)
    if len(probs) == 1:
        return Point(draw(_POINT))
    return Discrete(draw(_ATOMS[len(probs)]), probs)


_FINITE_LAW = _finite_laws()
_TWIN_MODELS = st.sampled_from(("CPM", "CPC", "CPA", "OCPC"))


@st.composite
def twin_games_with_bids(draw):
    """Two advertisers with the same m, the same point or discrete laws
    and the same bid, so their scores tie exactly, at whatever score the
    rates drawn give, whenever both draw the same atoms."""
    chain = EventChain(CHAIN_3)
    m = draw(_M)
    rates = (draw(_FINITE_LAW), draw(_FINITE_LAW))
    specs = [AdvertiserSpec(id=i + 1, m=m, rates=rates) for i in range(2)]
    model = pricing_model(draw(_TWIN_MODELS), chain)
    game = Game(specs, chain, model, in_site())
    strategy = Strategy(bid=draw(st.floats(0.01, 2.0 * m)))
    return game, (strategy, strategy)
