"""End-to-end verification bundle for the shipped configuration.

Twelve checks, in the order: oracle arithmetic, engine unit values,
dominant-strategy scans, out-site underreporting on the scalar engine
(OCPC's outcomes ignore it, CPA's take falls with it), the out-site
reporting collapse, payoff orderings, billing equivalences,
repeated-auction accounting, multi-advertiser reductions, the
outside-option sweep, the cart-granularity comparison, and the engine
invariants as generated property tests. Tolerances are pinned here as
constants so a regression surfaces as a hard failure, not a drift."""

import math
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adpricing.config import load_config
from adpricing import cli
from adpricing.distributions import Point, two_point_surrogate
from adpricing.engine import run_auction, run_repeated
from adpricing.equilibrium import cpsc_comparison, sweep_outside_option
from adpricing.model import PlatformBelief, Strategy, in_site, out_site
from adpricing.payoffs import (
    estimate_equilibrium_payoffs,
    exact_equilibrium_payoffs,
    payoff_ordering_suite,
)
from adpricing.sampling import STREAM_ROUNDS, batch_rng, run_batched
from adpricing.strategy import (
    cpa_collapse,
    equilibrium_fixture_bids,
    theoretical_play,
)

from conftest import (
    games_with_bids,
    make_game,
    mean_rate_equivalent_bids,
    point_specs,
    twin_games_with_bids,
)

ROOT = Path(__file__).resolve().parents[1]

SEED = 42                # master seed of the shipped config
REL_EXACT = 1e-12        # "identical up to float noise"
DICE_MC_ABS = 0.01       # absolute tolerance for the dice MC estimate
SE_MARGIN = 3.0          # standard-error multiplier for MC comparisons
SHARE_TOL = 0.02         # winner-share tolerance in the collapsed regime
DICE_BUDGET_S = 1.0
DOMINANCE_BUDGET_S = 60.0
SWEEP_BUDGET_S = 180.0

# every model/scenario pair with a dominant bid
DOMINANT_COMBOS = (
    ("CPC", "in_site"),
    ("CPC", "out_site"),
    ("CPA", "in_site"),
    ("OCPC", "in_site"),
    ("OCPC", "out_site"),
)


@lru_cache(maxsize=None)
def _cfg():
    return load_config(str(ROOT / "configs" / "default.yaml"))


@lru_cache(maxsize=None)
def _cfg3():
    return load_config(str(ROOT / "configs" / "three_player.yaml"))


def _variant(game, model, scenario):
    sc = in_site() if scenario == "in_site" else out_site()
    return game.with_model(model, sc)


def _scan_passed(game, replications):
    """Per advertiser, the passed cells the dominance study writes for its
    scan on a 101-point grid up to twice the theoretical bid: one per
    fixture, then the localization row's."""
    multipliers = (0.25, 0.5, 1.0, 2.0)
    p = {"grid_max_multiplier": 2.0, "grid_points": 101, "fixtures": multipliers,
         "replications": replications}
    fixture_sets = equilibrium_fixture_bids(game, multipliers)
    return [
        [c[-1] for c in cli._scan_cells(game, i, th.bid, fixtures, p, SEED)]
        for i, (th, fixtures) in enumerate(zip(theoretical_play(game), fixture_sets))
    ]


# --- 1: dice oracle ------------------------------------------------------

def test_dice_minmax_oracle_exact_and_monte_carlo():
    # two dice as a CPC game: social welfare is E[max], the platform's take E[min]
    t0 = time.perf_counter()
    dice = cli._dice_game()
    ex = exact_equilibrium_payoffs(dice)
    assert ex.social.mean == 161.0 / 36.0
    assert ex.platform.mean == 91.0 / 36.0
    assert abs(ex.social.mean - 4.47) < 0.005
    assert abs(ex.platform.mean - 2.53) < 0.005
    mc = estimate_equilibrium_payoffs(dice, replications=1_000_000, seed=SEED)["CPC"]
    assert abs(mc.social.mean - ex.social.mean) < DICE_MC_ABS
    assert abs(mc.platform.mean - ex.platform.mean) < DICE_MC_ABS
    assert time.perf_counter() - t0 < DICE_BUDGET_S


# --- 2: per-impression conversion unit values ----------------------------

def test_equivalent_bid_unit_values_exact():
    def auction(model, bids, **rates):
        game = make_game(point_specs(**rates), model=model, chain_events=_cfg().game.chain.events)
        return run_auction(game, [Strategy(b) for b in bids], None, batch_rng(SEED, 0, 0, 0))

    assert auction("OCPC", (100.0, 10.0)).draw.equivalent_bids == (6.0, 0.6)
    assert auction("CPC", (10.0, 1.0)).draw.equivalent_bids == (3.0, 0.3)
    assert auction("CPM", (7.5, 5.0)).draw.equivalent_bids == (7.5, 5.0)
    # per-click charge is capped by the bidder's own per-click value:
    # against a rival matching its score exactly, the charge is b * p-hat
    assert auction("OCPC", (10.0, 10.0), p1=0.1, p2=0.1).price_per_pay_event == 1.0


# --- 3: dominant-strategy grid scans -------------------------------------

def test_dominant_bids_beat_every_grid_point():
    t0 = time.perf_counter()
    for model, scenario in DOMINANT_COMBOS:
        game = _variant(_cfg().game, model, scenario)
        for i, passed in enumerate(_scan_passed(game, replications=100_000)):
            assert passed == [True] * 5, (model, scenario, i)
    assert time.perf_counter() - t0 < DOMINANCE_BUDGET_S


# --- 4: out-site underreporting -----------------------------------------

REPORTING_ALPHAS = (1.0, 0.5, 0.37)


def _underreported_rounds(model, alpha, mode, T=2000):
    """T rounds out-site with every advertiser bidding m per conversion and
    reporting at rate alpha, against a platform that believes alpha = 1."""
    game = _variant(_cfg().game, model, "out_site")
    strats = [Strategy(bid=spec.m, alpha=alpha) for spec in game.specs]
    return game, list(run_repeated(game, strats, PlatformBelief((1.0,) * game.n), T, seed=3, mode=mode))


def _settlements(rounds):
    return [(o.winner, o.payoffs, o.platform_payoff) for o in rounds]


def test_ocpc_out_site_outcomes_ignore_underreporting():
    # OCPC charges per click and pays out the true conversion: at a fixed
    # platform belief, no round's winner, payoffs or take moves with alpha
    for mode in ("analytic", "realized"):
        game, truthful = _underreported_rounds("OCPC", 1.0, mode)
        for alpha in REPORTING_ALPHAS[1:]:
            _, rounds = _underreported_rounds("OCPC", alpha, mode)
            assert _settlements(rounds) == _settlements(truthful), (mode, alpha)
        if mode == "realized":
            # the realized rounds do leave conversions unreported
            conv = game.chain.conversion_depth
            assert any(o.events[conv - 1] and not o.reported_conversion for o in rounds)


def test_cpa_out_site_take_falls_with_underreporting():
    # CPA charges per reported conversion: the same comparison fails, the
    # platform's take scales with alpha and the advertisers gain
    rounds = [_underreported_rounds("CPA", alpha, "analytic")[1] for alpha in REPORTING_ALPHAS]
    assert all(_settlements(r) != _settlements(rounds[0]) for r in rounds[1:])
    takes = [sum(o.platform_payoff for o in r) for r in rounds]
    gains = [sum(sum(o.payoffs) for o in r) for r in rounds]
    assert takes[0] > takes[1] > takes[2] > 0.0
    for alpha, take in zip(REPORTING_ALPHAS, takes):
        assert take == pytest.approx(alpha * takes[0], rel=REL_EXACT)
    assert gains[0] < gains[1] < gains[2]


# --- 5: out-site attribution collapse ------------------------------------

def test_reporting_spiral_starves_platform_revenue():
    game = _variant(_cfg().game, "CPA", "out_site")
    rounds = cpa_collapse(
        game, rounds=21, decay=0.5, replications=10_000, seed=SEED, threshold=1e-3
    )
    first, last = rounds[0], rounds[20]
    assert last.revenue.mean < 0.01 * first.revenue.mean
    collapsed = [r for r in rounds if r.collapsed]
    assert collapsed
    for rnd in collapsed:
        assert rnd.revenue.mean == 0.0 and rnd.revenue.se == 0.0
        for share in rnd.winner_share:
            assert abs(share - 0.5) <= SHARE_TOL
        for spec, util in zip(game.specs, rnd.utilities):
            target = spec.m * math.prod(spec.rate_means()) / game.n
            assert abs(util.mean - target) <= SE_MARGIN * util.se


# --- 6: payoff orderings with decomposition ------------------------------

def test_bid_granularity_payoff_orderings():
    suite = payoff_ordering_suite(_cfg().game, replications=1_000_000, seed=SEED)
    assert cli._ordered(suite.social) and cli._ordered(suite.platform, positive=False)
    assert all(map(cli._ordered, suite.advertisers))
    assert suite.social.mean > SE_MARGIN * suite.social.se
    assert suite.platform.mean < -SE_MARGIN * suite.platform.se
    for delta in suite.advertisers:
        assert delta.mean > SE_MARGIN * delta.se
    for dec in suite.decomposition:
        assert dec.residual.within()
        recon = dec.gain_term.mean + dec.loss_term.mean
        assert abs(dec.direct.mean - recon) <= SE_MARGIN * max(dec.residual.se, 1e-15)

    # degenerate conversion laws: the orderings flatten to exact zero
    specs = tuple(
        s._replace(rates=(s.rates[0], Point(s.rates[1].mean())))
        for s in _cfg().game.specs
    )
    flat = payoff_ordering_suite(make_game(specs), replications=100_000, seed=SEED)
    for delta in (flat.social, flat.platform, *flat.advertisers):
        assert abs(delta.mean) <= REL_EXACT


# --- 7: equivalent billing models ----------------------------------------

def test_conversion_bidding_reports_identical_in_site():
    reps = estimate_equilibrium_payoffs(
        _cfg().game, replications=200_000, seed=SEED, models=["OCPC", "CPA"]
    )
    a, b = reps["OCPC"], reps["CPA"]
    pairs = [(a.platform, b.platform), (a.social, b.social)]
    pairs += list(zip(a.advertisers, b.advertisers))
    for x, y in pairs:
        assert x.mean == pytest.approx(y.mean, rel=REL_EXACT)
        assert x.se == pytest.approx(y.se, rel=REL_EXACT)


# --- 8: repeated-auction accounting --------------------------------------

def _plain_totals(outcomes, n):
    """Per-advertiser payoffs, platform and social welfare summed in round
    order, as the simulate study's totals.csv adds them."""
    payoffs = [0.0] * n
    platform = social = 0.0
    for o in outcomes:
        platform += o.platform_payoff
        social += o.social_welfare
        for i in range(n):
            payoffs[i] += o.payoffs[i]
    return payoffs, platform, social


def test_repeated_totals_match_per_round_values():
    T = 50
    tol = REL_EXACT * T
    for scenario in ("in_site", "out_site"):
        game = _variant(_cfg().game, "OCPC", scenario)
        strats = theoretical_play(game)
        belief = None
        if scenario == "out_site":
            # underreporting, so realized rounds draw and use the report uniform
            strats = [s._replace(alpha=a) for s, a in zip(strats, (0.6, 0.8))]
            belief = PlatformBelief(tuple(s.alpha for s in strats))
        for mode in ("analytic", "realized"):
            trace = list(run_repeated(game, strats, belief, T, seed=SEED, mode=mode))
            # the rounds are the oracle's, replayed in order on one generator
            rng = batch_rng(SEED, STREAM_ROUNDS, 0)
            singles = [run_auction(game, strats, belief, rng, mode) for _ in range(T)]
            assert trace == singles, (scenario, mode)
            if scenario == "out_site" and mode == "realized":
                assert {o.reported_conversion for o in trace} == {False, True}

            # the in-order plain sums stay within float noise of exact sums
            payoffs, platform, social = _plain_totals(trace, game.n)
            assert platform == pytest.approx(
                math.fsum(o.platform_payoff for o in trace), rel=tol
            )
            assert social == pytest.approx(math.fsum(o.social_welfare for o in trace), rel=tol)
            for i in range(game.n):
                assert payoffs[i] == pytest.approx(
                    math.fsum(o.payoffs[i] for o in trace), rel=tol, abs=tol
                )

    # degenerate laws pin every round to the same value: total is T times it
    pg = make_game(point_specs(c1=0.3, p1=0.2, c2=0.25, p2=0.1))
    pstrats = theoretical_play(pg)
    _, platform, social = _plain_totals(run_repeated(pg, pstrats, None, T, seed=SEED), pg.n)
    one = run_auction(pg, pstrats, None, batch_rng(SEED, STREAM_ROUNDS, 0))
    assert platform == pytest.approx(T * one.platform_payoff, rel=tol)
    assert social == pytest.approx(T * one.social_welfare, rel=tol)


# --- 9: more than two advertisers ----------------------------------------

def test_three_player_dominance_and_two_player_reduction():
    game3 = _cfg3().game
    assert game3.n == 3
    for model, scenario in DOMINANT_COMBOS:
        g = _variant(game3, model, scenario)
        for i, passed in enumerate(_scan_passed(g, replications=100_000)):
            assert passed == [True] * 5, (model, scenario, i)

    # one rival: the fixture closed form reproduces the engine conversion
    game2 = _cfg().game
    engine_es = mean_rate_equivalent_bids(game2)
    fixture_sets = equilibrium_fixture_bids(game2, multipliers=(1.0,))
    for i in range(game2.n):
        assert fixture_sets[i][0] == engine_es[1 - i]


# --- 10: outside-option sweep --------------------------------------------

def test_outside_option_sweep_regions_and_innovation():
    t0 = time.perf_counter()
    res = sweep_outside_option(
        np.linspace(0.0, 2.0, 41), ["CPC", "OCPC"], _cfg().game,
        replications=1_000_000, seed=SEED,
    )
    b_cpc = res.boundaries["CPC"].mean
    b_ocpc = res.boundaries["OCPC"].mean
    assert b_cpc < b_ocpc
    seen = set()
    for row in res.rows:
        expected = "CPC" if row.r < b_cpc else "OCPC" if row.r < b_ocpc else None
        assert row.chosen == expected, row.r
        seen.add(row.chosen)
    assert seen == {"CPC", "OCPC", None}

    innovation = [row for row in res.rows if row.innovation]
    assert innovation
    for row in innovation:
        assert row.chosen == "OCPC"
        assert row.platform.mean > 0.0
        assert row.adv1_drop.mean < -SE_MARGIN * row.adv1_drop.se
    assert time.perf_counter() - t0 < SWEEP_BUDGET_S


# --- 11: cart-event bid granularity --------------------------------------

def test_cart_granularity_sits_between_click_and_conversion():
    cart = _cfg().cart_game
    rep = cpsc_comparison(cart, replications=1_000_000, seed=SEED)
    adv = rep.deltas["advertiser_payoff_cpsc_minus_cpc"]
    plat = rep.deltas["platform_payoff_cpsc_minus_ocpc"]
    assert adv.mean > SE_MARGIN * adv.se
    assert plat.mean > SE_MARGIN * plat.se

    # enumeration oracle on a two-point discretization of the same funnel
    specs = tuple(
        s._replace(rates=tuple(two_point_surrogate(law) for law in s.rates))
        for s in cart.specs
    )
    exact = {
        name: exact_equilibrium_payoffs(
            make_game(specs, model=name, chain_events=cart.chain.events)
        )
        for name in ("CPC", "CPSC", "OCPC")
    }
    assert exact["CPC"].advertisers[1].mean < exact["CPSC"].advertisers[1].mean
    assert exact["OCPC"].platform.mean < exact["CPSC"].platform.mean


# --- 12: engine invariants as generated properties -----------------------

_CASES = 1000


@settings(max_examples=_CASES, deadline=None)
@given(gb=games_with_bids(), seed=st.integers(0, 2**32 - 1))
def _prop_value_splits_and_the_take_is_the_losing_score(gb, seed):
    game, strategies = gb
    out = run_auction(game, strategies, None, np.random.default_rng(seed))
    resid = out.social_welfare - out.platform_payoff - math.fsum(out.payoffs)
    assert resid == 0.0
    assert out.platform_payoff == out.e_loser


@settings(max_examples=_CASES, deadline=None)
@given(
    gb=games_with_bids(),
    seed=st.integers(0, 2**32 - 1),
    factor=st.floats(1.5, 8.0),
)
def _prop_charge_ignores_the_winning_bid(gb, seed, factor):
    game, strategies = gb
    base = run_auction(game, strategies, None, np.random.default_rng(seed))
    w = base.winner
    assume(base.draw.equivalent_bids[w] > base.e_loser)  # skip exact top ties
    bumped = list(strategies)
    bumped[w] = strategies[w]._replace(bid=strategies[w].bid * factor)
    out = run_auction(game, bumped, None, np.random.default_rng(seed))
    assert out.winner == w
    assert out.price_per_pay_event == base.price_per_pay_event
    assert out.platform_payoff == base.platform_payoff


# about half the examples are twin advertisers, whose exact ties fall at
# scores of every size, so a tie rule that depends on the score is caught
@settings(max_examples=_CASES, deadline=None)
@given(
    gb=st.one_of(games_with_bids(), twin_games_with_bids()),
    seed=st.integers(0, 2**32 - 1),
    log2k=st.integers(-3, 6),
)
def _prop_common_bid_scale_preserves_the_winner(gb, seed, log2k):
    game, strategies = gb
    k = 2.0 ** log2k  # power of two: scores scale without rounding
    base = run_auction(game, strategies, None, np.random.default_rng(seed))
    scaled = [s._replace(bid=s.bid * k) for s in strategies]
    out = run_auction(game, scaled, None, np.random.default_rng(seed))
    assert out.winner == base.winner
    assert out.e_loser == base.e_loser * k


@settings(max_examples=_CASES, deadline=None)
@given(n=st.integers(1, 50_000), seed=st.integers(0, 2**32 - 1))
def _prop_worker_count_never_shows_in_results(n, seed):
    def batch_fn(b_idx, size):
        draws = batch_rng(seed, STREAM_ROUNDS, b_idx, 0).random(size)
        return {"total": float(np.sum(draws)), "count": size}

    results = [run_batched(n, batch_fn, threads=t) for t in (1, 2, 8)]
    assert results[0] == results[1] == results[2]


def test_engine_invariant_properties():
    _prop_value_splits_and_the_take_is_the_losing_score()
    _prop_charge_ignores_the_winning_bid()
    _prop_common_bid_scale_preserves_the_winner()
    _prop_worker_count_never_shows_in_results()
