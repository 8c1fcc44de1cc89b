"""Domain-type construction and validation."""

import pytest

from adpricing.distributions import Point, Uniform
from adpricing.model import (
    CHAIN_3,
    CHAIN_4,
    AdvertiserSpec,
    EventChain,
    GameValidationError,
    PlatformBelief,
    PricingModel,
    Strategy,
    in_site,
    out_site,
    pricing_model,
    validate_game,
)

from adpricing.sampling import TIE_ROLE, rate_role

from conftest import default_specs, make_game, point_specs


def test_chain_properties():
    c3 = EventChain(CHAIN_3)
    assert c3.n_rate_depths == 2
    assert c3.conversion_depth == 2
    assert not c3.has_cart
    c4 = EventChain(CHAIN_4)
    assert c4.n_rate_depths == 3
    assert c4.conversion_depth == 3
    assert c4.has_cart


def test_chain_validation():
    with pytest.raises(GameValidationError):
        EventChain(("impression", "conversion"))
    with pytest.raises(GameValidationError):
        EventChain(("click", "cart", "conversion"))
    with pytest.raises(GameValidationError):
        EventChain(("impression", "click", "cart", "upsell", "conversion"))


@pytest.mark.parametrize(
    "name,chain,bid,pay",
    [
        ("CPM", CHAIN_3, 0, 0),
        ("CPC", CHAIN_3, 1, 1),
        ("CPA", CHAIN_3, 2, 2),
        ("OCPC", CHAIN_3, 2, 1),
        ("OCPM", CHAIN_3, 2, 0),
        ("CPA", CHAIN_4, 3, 3),
        ("OCPC", CHAIN_4, 3, 1),
        ("CPSC", CHAIN_4, 2, 1),
    ],
)
def test_model_depth_table(name, chain, bid, pay):
    m = pricing_model(name, EventChain(chain))
    assert (m.bid_depth, m.pay_depth) == (bid, pay)


def test_cpsc_needs_cart():
    with pytest.raises(GameValidationError, match="cart"):
        pricing_model("CPSC", EventChain(CHAIN_3))


def test_unknown_model_name():
    with pytest.raises(GameValidationError, match="unknown"):
        pricing_model("CPX", EventChain(CHAIN_3))


def test_pay_depth_cannot_exceed_bid_depth():
    with pytest.raises(GameValidationError):
        PricingModel("bad", bid_depth=1, pay_depth=2)


def test_strategy_and_belief_bounds():
    assert Strategy(bid=3.0).alpha == 1.0
    with pytest.raises(GameValidationError):
        Strategy(bid=-1.0)
    with pytest.raises(GameValidationError):
        Strategy(bid=1.0, alpha=1.5)
    assert PlatformBelief.truthful(3).alpha_hat == (1.0, 1.0, 1.0)
    with pytest.raises(GameValidationError):
        PlatformBelief((0.5, -0.1))


def test_scenarios():
    assert not in_site().is_out_site
    assert out_site().is_out_site


def test_validate_game_collects_all_violations():
    chain = EventChain(CHAIN_3)
    specs = [
        AdvertiserSpec(id=1, m=-5.0, rates=(Uniform(0.2, 0.4), Point(0.1))),
        AdvertiserSpec(id=2, m=100.0, rates=(Uniform(0.2, 1.2), Point(0.1)),
                       outside_option=-1.0),
        AdvertiserSpec(id=3, m=100.0, rates=(Point(0.3),)),
    ]
    with pytest.raises(GameValidationError) as err:
        validate_game(specs, chain, pricing_model("CPC", chain), in_site())
    msg = str(err.value)
    assert "m must be > 0" in msg
    assert "outside_option must be >= 0" in msg
    assert "exceeds 1 or dips below 0" in msg
    assert "expected 2 rate laws" in msg
    assert len(err.value.violations) == 4


def test_validate_game_keeps_rate_keys_below_the_tie_key():
    # rate draws are keyed 64 x advertiser + depth; the tie-break key is
    # TIE_ROLE, so the advertiser count is capped below TIE_ROLE // 64
    chain = EventChain(CHAIN_3)
    model = pricing_model("CPC", chain)
    spec = default_specs()[0]
    limit = TIE_ROLE // 64
    assert rate_role(limit - 2, chain.n_rate_depths) < TIE_ROLE
    validate_game([spec] * (limit - 1), chain, model, in_site())
    with pytest.raises(GameValidationError) as err:
        validate_game([spec] * limit, chain, model, in_site())
    assert err.value.violations == [
        f"{limit} advertisers: at most {limit - 1}, so rate draw keys stay apart from tie-break keys"
    ]


def test_game_accessors_and_with_model():
    game = make_game(default_specs())
    assert game.n == 2
    assert game.model.name == "OCPC"
    assert game.specs[0].rate(1) == Uniform(0.2, 0.4)
    assert game.specs[0].rate_means() == (
        Uniform(0.2, 0.4).mean(), Uniform(0.05, 0.15).mean()
    )
    flipped = game.with_model("CPC", out_site())
    assert flipped.model.name == "CPC"
    assert flipped.scenario.is_out_site
    assert flipped.specs == game.specs
    # scenario preserved when omitted
    assert game.with_model("CPA").scenario == game.scenario


def test_point_specs_build():
    game = make_game(point_specs(), model="CPM")
    assert game.model.bid_depth == 0
    assert game.specs[1].rate_means() == (0.3, 0.2)
