"""Shared fixtures and hypothesis strategies for small random games."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from adpricing.distributions import Discrete, Point, Uniform
from adpricing.engine import run_auction
from adpricing.model import (
    AdvertiserSpec,
    CHAIN_3,
    CHAIN_4,
    EventChain,
    Strategy,
    in_site,
    out_site,
    pricing_model,
    validate_game,
)
from adpricing.strategy import theoretical_strategy

# every property draws the same examples on every run; each test keeps
# its own max_examples
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def make_game(specs, model="OCPC", scenario="in_site", chain_events=CHAIN_3):
    chain = EventChain(tuple(chain_events))
    sc = in_site() if scenario == "in_site" else out_site()
    return validate_game(list(specs), chain, pricing_model(model, chain), sc)


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
    specs = [replace(s, rates=tuple(Point(r.mean()) for r in s.rates)) for s in game.specs]
    means = validate_game(specs, game.chain, game.model, game.scenario)
    strategies = [
        theoretical_strategy(means.model, means.scenario, s, means.chain) for s in means.specs
    ]
    return run_auction(means, strategies, None, np.random.default_rng(0)).draw.equivalent_bids


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


@st.composite
def rate_laws(draw):
    kind = draw(st.sampled_from(("point", "uniform", "discrete")))
    if kind == "point":
        return Point(draw(st.floats(0.05, 0.95)))
    if kind == "uniform":
        lo = draw(st.floats(0.05, 0.5))
        width = draw(st.floats(0.01, 0.4))
        return Uniform(lo, lo + width)
    probs = draw(st.sampled_from(_PROB_SETS))
    values = draw(
        st.lists(
            st.floats(0.05, 0.95), min_size=len(probs), max_size=len(probs), unique=True
        )
    )
    return Discrete(tuple(sorted(values)), probs)


@st.composite
def small_games(draw, models=("CPM", "CPC", "CPA", "OCPC"), scenario="in_site", n=None):
    chain = EventChain(CHAIN_3)
    n_adv = n if n is not None else draw(st.integers(2, 3))
    specs = [
        AdvertiserSpec(
            id=i + 1,
            m=draw(st.floats(1.0, 500.0)),
            rates=(draw(rate_laws()), draw(rate_laws())),
        )
        for i in range(n_adv)
    ]
    sc = in_site() if scenario == "in_site" else out_site()
    model = pricing_model(draw(st.sampled_from(models)), chain)
    return validate_game(specs, chain, model, sc)


@st.composite
def games_with_bids(draw, **kwargs):
    game = draw(small_games(**kwargs))
    strategies = tuple(
        Strategy(bid=draw(st.floats(0.01, 2.0 * spec.m))) for spec in game.specs
    )
    return game, strategies
