"""Domain-type construction and validation."""

import copy
import pickle

import pytest

from adpricing.distributions import Beta, Discrete, Distribution, Point, Uniform
from adpricing.model import (
    CHAIN_3,
    CHAIN_4,
    AdvertiserSpec,
    EventChain,
    Game,
    GameValidationError,
    Scenario,
    PlatformBelief,
    PricingModel,
    Strategy,
    in_site,
    out_site,
    pricing_model,
)

from adpricing.sampling import TIE_ROLE, rate_role

from conftest import default_specs, make_game, point_specs


def test_chain_properties():
    c3 = EventChain(CHAIN_3)
    assert c3.conversion_depth == 2
    assert not c3.has_cart
    c4 = EventChain(CHAIN_4)
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
    assert PlatformBelief((1.0,) * 3).alpha_hat == (1.0, 1.0, 1.0)
    with pytest.raises(GameValidationError):
        PlatformBelief((0.5, -0.1))


def test_scenarios():
    assert not in_site().is_out_site
    assert out_site().is_out_site


def test_scenario_rejects_unknown_kinds():
    for kind in ("outsite", "In_site", ""):
        with pytest.raises(GameValidationError, match="in_site or out_site"):
            Scenario(kind)


def test_game_collects_all_violations():
    chain = EventChain(CHAIN_3)
    specs = [
        AdvertiserSpec(id=1, m=-5.0, rates=(Uniform(0.2, 0.4), Point(0.1))),
        AdvertiserSpec(id=2, m=100.0, rates=(Uniform(0.2, 1.2), Point(0.1)),
                       outside_option=-1.0),
        AdvertiserSpec(id=3, m=100.0, rates=(Point(0.3),)),
    ]
    with pytest.raises(GameValidationError) as err:
        Game(specs, chain, pricing_model("CPC", chain), in_site())
    msg = str(err.value)
    assert "m must be > 0" in msg
    assert "outside_option must be >= 0" in msg
    assert "exceeds 1 or dips below 0" in msg
    assert "expected 2 rate laws" in msg
    assert len(err.value.violations) == 4


def test_game_keeps_rate_keys_below_the_tie_key():
    # rate draws are keyed 64 x advertiser + depth; the tie-break key is
    # TIE_ROLE, so the advertiser count is capped below TIE_ROLE // 64
    chain = EventChain(CHAIN_3)
    model = pricing_model("CPC", chain)
    spec = default_specs()[0]
    limit = TIE_ROLE // 64
    assert rate_role(limit - 2, chain.conversion_depth) < TIE_ROLE
    Game([spec] * (limit - 1), chain, model, in_site())
    with pytest.raises(GameValidationError) as err:
        Game([spec] * limit, chain, model, in_site())
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


def _game():
    return Game(
        [AdvertiserSpec(1, 100.0, (Uniform(0.2, 0.4), Point(0.5))),
         AdvertiserSpec(2, 80.0, (Point(0.3), Beta(2.0, 5.0)), 1.5)],
        EventChain(), pricing_model("CPC", EventChain()), in_site(),
    )


# one maker per value class, each with the repr a frozen dataclass gave it
_VALUES = [
    (Distribution, "Distribution()"),
    (lambda: Uniform(0.2, 0.4), "Uniform(lo=0.2, hi=0.4)"),
    (lambda: Beta(2.0, 5.0), "Beta(a=2.0, b=5.0)"),
    (lambda: Point(0.5), "Point(v=0.5)"),
    (lambda: Discrete((0.25, 0.75), (0.5, 0.5)), "Discrete(values=(0.25, 0.75), probs=(0.5, 0.5))"),
    (EventChain, "EventChain(events=('impression', 'click', 'conversion'))"),
    (lambda: AdvertiserSpec(2, 80.0, (Point(0.3), Beta(2.0, 5.0)), 1.5),
     "AdvertiserSpec(id=2, m=80.0, rates=(Point(v=0.3), Beta(a=2.0, b=5.0)), outside_option=1.5)"),
    (lambda: PricingModel("OCPC", 2, 1), "PricingModel(name='OCPC', bid_depth=2, pay_depth=1)"),
    (lambda: Scenario("out_site"), "Scenario(kind='out_site')"),
    (lambda: Strategy(2.5, 0.5), "Strategy(bid=2.5, alpha=0.5)"),
    (lambda: PlatformBelief((1.0, 0.5)), "PlatformBelief(alpha_hat=(1.0, 0.5))"),
    (_game,
     "Game(specs=(AdvertiserSpec(id=1, m=100.0, rates=(Uniform(lo=0.2, hi=0.4), Point(v=0.5)), "
     "outside_option=None), AdvertiserSpec(id=2, m=80.0, rates=(Point(v=0.3), Beta(a=2.0, b=5.0)), "
     "outside_option=1.5)), chain=EventChain(events=('impression', 'click', 'conversion')), "
     "model=PricingModel(name='CPC', bid_depth=1, pay_depth=1), scenario=Scenario(kind='in_site'))"),
]
_IDS = [text.split("(")[0] for _, text in _VALUES]


def test_every_value_class_is_covered():
    assert {type(make()) for make, _ in _VALUES} == {
        Distribution, Uniform, Beta, Point, Discrete, EventChain, AdvertiserSpec,
        PricingModel, Scenario, Strategy, PlatformBelief, Game,
    }


@pytest.mark.parametrize("make, text", _VALUES, ids=_IDS)
def test_value_equality_hash_and_repr(make, text):
    value, twin = make(), make()
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert repr(value) == text
    assert value != tuple(getattr(value, name) for name in value._fields)


def test_values_of_different_classes_differ():
    assert Uniform(0.2, 0.4) != Beta(0.2, 0.4)
    assert Scenario("in_site") != ("in_site",)
    assert Scenario("in_site") != Scenario("out_site")


@pytest.mark.parametrize("make, text", _VALUES, ids=_IDS)
def test_values_refuse_assignment_and_deletion(make, text):
    value = make()
    name = value._fields[0] if value._fields else "mean"
    with pytest.raises(AttributeError):
        setattr(value, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1.0
    assert value == make()


@pytest.mark.parametrize("make, text", _VALUES, ids=_IDS)
@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_value_copies_are_equal(make, text, clone):
    value = make()
    again = clone(value)
    assert type(again) is type(value)
    assert again == value and repr(again) == text


def test_discrete_copy_rebuilds_its_sampler():
    law = Discrete((0.25, 0.75), (0.5, 0.5))
    again = pickle.loads(pickle.dumps(law))
    assert again._cum == law._cum and again._values.tolist() == [0.25, 0.75]


def test_replace_reruns_the_checks():
    assert Strategy(1.0)._replace(alpha=0.5) == Strategy(1.0, 0.5)
    assert Uniform(0.2, 0.4)._replace() == Uniform(0.2, 0.4)
    with pytest.raises(GameValidationError, match="alpha"):
        Strategy(1.0)._replace(alpha=2.0)
    with pytest.raises(ValueError, match="lo <= hi"):
        Uniform(0.2, 0.4)._replace(lo=0.5)
    with pytest.raises(TypeError):
        Strategy(1.0)._replace(beta=0.5)
    with pytest.raises(TypeError):
        Discrete((0.25, 0.75), (0.5, 0.5))._replace(_cum=[1.0])
    game = make_game(default_specs())
    assert game._replace(specs=list(game.specs)) == game
    assert game._replace(model=pricing_model("CPA", game.chain)) == game.with_model("CPA")
    with pytest.raises(GameValidationError, match="advertiser list is empty"):
        game._replace(specs=())
    with pytest.raises(GameValidationError, match="CPSC: missing cart depth"):
        game._replace(model=pricing_model("CPSC", EventChain(CHAIN_4)))
    with pytest.raises(GameValidationError, match="expected 3 rate laws"):
        game._replace(chain=EventChain(CHAIN_4))
