"""Platform model choice, outside-option sweeps, and the four-stage
CPC/CPSC/OCPC comparison."""

import itertools
import random

import pytest

from adpricing import cli
from adpricing.distributions import Point, Uniform, two_point_surrogate
from adpricing.model import CHAIN_4, MODEL_TIE_ORDER
from adpricing.payoffs import PayoffReport, estimate_equilibrium_payoffs, exact_equilibrium_payoffs
from adpricing.sampling import MeanSE
from adpricing.equilibrium import (
    choose_model,
    cpsc_comparison,
    entry_decision,
    sweep_outside_option,
)

from conftest import cart_specs, default_specs, make_game, point_specs

REPS = 40_000


def test_entry_decision_strict():
    assert entry_decision(5.0, 4.0)
    assert not entry_decision(5.0, 5.0)
    assert not entry_decision(0.0, 0.0)
    with pytest.raises(ValueError):
        entry_decision(1.0, -0.1)


def test_optimal_model_prefers_feasible_over_lucrative():
    # CPC pays the platform more but pushes the outside-option holder out
    res = sweep_outside_option([1.1], ["CPC", "OCPC"], make_game(default_specs()), REPS, seed=4)
    row = res.rows[0]
    assert row.feasible == {"CPC": False, "OCPC": True}
    assert row.chosen == "OCPC"
    assert res.table["CPC"].platform.mean > res.table["OCPC"].platform.mean


def test_optimal_model_requires_models():
    with pytest.raises(ValueError):
        sweep_outside_option([0.0, 1.0], [], make_game(default_specs()), 100)


def test_sweep_regions_and_closure():
    game = make_game(default_specs())
    res = sweep_outside_option([0.0, 1.1, 2.0], ["CPC", "OCPC"], game, REPS, seed=4)
    assert len(res.rows) == 3
    assert res.boundaries["CPC"].mean == res.table["CPC"].advertisers[1].mean

    low, mid, high = res.rows
    assert low.chosen == "CPC"
    assert not low.innovation
    assert low.adv1_drop == MeanSE(0.0, 0.0)

    assert mid.chosen == "OCPC"
    assert mid.innovation
    assert mid.platform.mean > 0
    assert mid.adv1_drop.mean < 0  # the free advertiser subsidizes rival entry
    assert mid.adv1_drop.se == mid.advertisers[0].se

    assert high.chosen is None
    assert high.platform.mean == 0.0 and high.platform.se == 0.0
    assert all(ms.mean == 0.0 for ms in high.advertisers)
    assert not high.innovation


def test_sweep_tie_breaks_by_fixed_order():
    # degenerate laws: both models give identical scores, so identical
    # platform payoffs; advertiser 2 wins every draw, keeps 2.0 and enters
    specs = point_specs(c2=0.4)
    specs = (specs[0], specs[1]._replace(outside_option=1.0))
    res = sweep_outside_option([0.0], ["OCPC", "CPC"], make_game(specs), 2000, seed=1)
    assert res.table["CPC"].platform.mean == res.table["OCPC"].platform.mean
    assert res.rows[0].feasible == {"OCPC": True, "CPC": True}
    assert res.rows[0].chosen == "CPC"
    assert MODEL_TIE_ORDER.index("CPC") < MODEL_TIE_ORDER.index("OCPC")


# platform means per model: an exact top tie (+0 against -0 in the first),
# a richer model that is not feasible, and a poorer one that is
@pytest.mark.parametrize("means, infeasible, want", [
    ({"CPM": 0.0, "CPA": -0.0, "OCPC": 0.0, "CPC": 5.0, "OCPM": -1.0}, {"CPC"}, "OCPC"),
    ({"CPSC": 2.5, "OCPM": 2.5, "CPA": 2.5, "CPM": 1.0, "OCPC": 9.0}, {"OCPC"}, "CPA"),
    ({"OCPC": -0.0, "CPC": 0.0}, set(), "CPC"),
])
def test_choose_model_breaks_a_tie_by_the_fixed_order(means, infeasible, want):
    for order in itertools.permutations(means):
        table = {m: PayoffReport((), MeanSE(means[m], 0.1), MeanSE(0.0, 0.0)) for m in order}
        assert choose_model(table, {m: m not in infeasible for m in order}) == want
        assert choose_model(table, {m: False for m in order}) is None


def test_sweep_validations():
    with pytest.raises(ValueError):
        sweep_outside_option([0.0, 1.0], ["CPC"], make_game(point_specs()), 100)


def test_sweep_rows_do_not_depend_on_the_r_order():
    game = make_game(default_specs())
    grid = [0.0, 0.5, 1.05, 1.05, 1.1, 1.3, 2.0]
    shuffled = grid[:]
    random.Random(3).shuffle(shuffled)
    assert shuffled != grid
    ordered = sweep_outside_option(grid, ["CPC", "OCPC"], game, 4000, seed=2)
    res = sweep_outside_option(shuffled, ["CPC", "OCPC"], game, 4000, seed=2)
    assert {row.chosen for row in ordered.rows} == {"CPC", "OCPC", None}
    assert res.boundaries == ordered.boundaries and res.table == ordered.table
    for r, row in zip(shuffled, res.rows, strict=True):
        assert row == ordered.rows[grid.index(r)]


def test_cpsc_orderings_hold():
    game = make_game(cart_specs(), model="CPSC", chain_events=CHAIN_4)
    rep = cpsc_comparison(game, replications=100_000, seed=6)
    assert all(map(cli._ordered, rep.deltas.values()))
    assert rep.advertiser == 1  # the outside-option holder
    assert set(rep.deltas) == {
        "advertiser_payoff_cpsc_minus_cpc",
        "advertiser_payoff_ocpc_minus_cpsc",
        "platform_payoff_cpc_minus_cpsc",
        "platform_payoff_cpsc_minus_ocpc",
    }
    for d in rep.deltas.values():
        assert d.mean > 3.0 * d.se


def test_cpsc_table_is_the_payoff_estimate():
    game = make_game(cart_specs(), model="CPSC", chain_events=CHAIN_4)
    rep = cpsc_comparison(game, replications=40_000, seed=6)
    assert rep.table == estimate_equilibrium_payoffs(
        game, 40_000, seed=6, models=["CPC", "CPSC", "OCPC"]
    )


def test_cpsc_requires_cart_chain_and_duopoly():
    with pytest.raises(ValueError):
        cpsc_comparison(make_game(default_specs()), replications=100)
    third = cart_specs()[0]._replace(id=3, outside_option=None)
    game3 = make_game(cart_specs() + (third,), model="CPSC", chain_events=CHAIN_4)
    with pytest.raises(ValueError):
        cpsc_comparison(game3, replications=100)


def test_cpsc_degenerate_funnel_collapses_deltas():
    specs = tuple(
        s._replace(rates=tuple(Point(law.mean()) for law in s.rates))
        for s in cart_specs()
    )
    game = make_game(specs, model="CPSC", chain_events=CHAIN_4)
    rep = cpsc_comparison(game, replications=5000, seed=2)
    assert all(map(cli._ordered, rep.deltas.values()))
    for d in rep.deltas.values():
        assert d.mean == 0.0
        assert d.se == 0.0


def test_cpsc_orderings_by_exhaustive_enumeration():
    # two-point marginals keep the game enumerable without losing the effect
    specs = tuple(
        s._replace(rates=tuple(two_point_surrogate(law) for law in s.rates))
        for s in cart_specs()
    )
    pi2, plat = {}, {}
    for name in ("CPC", "CPSC", "OCPC"):
        game = make_game(specs, model=name, chain_events=CHAIN_4)
        rep = exact_equilibrium_payoffs(game)
        pi2[name] = rep.advertisers[1].mean
        plat[name] = rep.platform.mean
    assert pi2["CPC"] < pi2["CPSC"] < pi2["OCPC"]
    assert plat["OCPC"] < plat["CPSC"] < plat["CPC"]
