"""End-to-end verification bundle for the shipped configuration.

Twelve checks, one test each, in the order: oracle arithmetic, engine
unit values, dominant-strategy scans, reporting invariance, the
out-site reporting collapse, payoff orderings, billing equivalences,
repeated-auction accounting, multi-advertiser reductions, the
outside-option sweep, the cart-granularity comparison, and the engine
invariants as generated property tests. Tolerances are pinned here as
constants so a regression surfaces as a hard failure, not a drift."""

import math
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adpricing.config import load_config
from adpricing.distributions import Point, two_point_surrogate, uniform_die
from adpricing.engine import run_auction, run_repeated
from adpricing.equilibrium import cpsc_comparison, sweep_outside_option
from adpricing.model import Strategy, in_site, out_site
from adpricing.payoffs import (
    ValueLaw,
    estimate_equilibrium_payoffs,
    exact_equilibrium_payoffs,
    expected_min_max,
    payoff_ordering_suite,
)
from adpricing.sampling import STREAM_ROUNDS, batch_rng, run_batched
from adpricing.strategy import (
    best_response_scan,
    cpa_collapse,
    equilibrium_fixture_bids,
    ocpc_reporting_invariance,
    theoretical_strategy,
)

from conftest import games_with_bids, make_game, mean_rate_equivalent_bids, point_specs

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


def _scan_all_advertisers(game, replications):
    reports = []
    fixture_sets = equilibrium_fixture_bids(game, seed=SEED)
    for i, fixtures in enumerate(fixture_sets):
        th = theoretical_strategy(game.model, game.scenario, game.specs[i], game.chain)
        grid = np.linspace(0.0, 2.0 * th.bid, 101)
        reports.append(
            best_response_scan(
                i, grid, fixtures, game, replications=replications, seed=SEED
            )
        )
    return reports


# --- 1: dice oracle ------------------------------------------------------

def test_dice_minmax_oracle_exact_and_monte_carlo():
    t0 = time.perf_counter()
    die = ValueLaw(1.0, (uniform_die(6),))
    ex = expected_min_max([die, die], exhaustive=True)
    assert ex.e_max.mean == 161.0 / 36.0
    assert ex.e_min.mean == 91.0 / 36.0
    assert abs(ex.e_max.mean - 4.47) < 0.005
    assert abs(ex.e_min.mean - 2.53) < 0.005
    mc = expected_min_max([die, die], replications=1_000_000, seed=SEED)
    assert abs(mc.e_max.mean - ex.e_max.mean) < DICE_MC_ABS
    assert abs(mc.e_min.mean - ex.e_min.mean) < DICE_MC_ABS
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
        for i, rep in enumerate(_scan_all_advertisers(game, replications=100_000)):
            assert rep.passed, (model, scenario, i)
            assert abs(rep.argmax_index - rep.theory_index) <= 1, (model, scenario)
    assert time.perf_counter() - t0 < DOMINANCE_BUDGET_S


# --- 4: out-site reporting invariance ------------------------------------

def test_underreporting_with_learned_belief_matches_scaled_bid():
    game = _variant(_cfg().game, "OCPC", "out_site")
    rng = np.random.default_rng(SEED)
    for trial in range(10):
        alpha = float(rng.uniform(0.05, 1.0))
        bid = float(rng.uniform(1.0, 2.0 * game.specs[0].m))
        rep = ocpc_reporting_invariance(
            trial % game.n, alpha, bid, game, seed=SEED, replications=50_000
        )
        assert rep.passed
        assert rep.max_rel_diff <= REL_EXACT


# --- 5: out-site attribution collapse ------------------------------------

def test_reporting_spiral_starves_platform_revenue():
    game = _variant(_cfg().game, "CPA", "out_site")
    trace = cpa_collapse(
        game, rounds=21, decay=0.5, replications=10_000, seed=SEED, threshold=1e-3
    )
    first, last = trace.rounds[0], trace.rounds[20]
    assert last.revenue.mean < 0.01 * first.revenue.mean
    collapsed = [r for r in trace.rounds if r.collapsed]
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
    assert suite.passed
    assert suite.social.delta.mean > SE_MARGIN * suite.social.delta.se
    assert suite.platform.delta.mean < -SE_MARGIN * suite.platform.delta.se
    for res in suite.advertisers:
        assert res.delta.mean > SE_MARGIN * res.delta.se
    for dec in suite.decomposition:
        assert dec.consistent
        recon = dec.gain_term.mean + dec.loss_term.mean
        assert abs(dec.direct.mean - recon) <= SE_MARGIN * max(dec.residual.se, 1e-15)

    # degenerate conversion laws: the orderings flatten to exact zero
    specs = tuple(
        replace(s, rates=(s.rates[0], Point(s.rates[1].mean())))
        for s in _cfg().game.specs
    )
    flat = payoff_ordering_suite(make_game(specs), replications=100_000, seed=SEED)
    for res in (flat.social, flat.platform, *flat.advertisers):
        assert abs(res.delta.mean) <= REL_EXACT


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

def test_repeated_totals_match_per_round_values():
    T = 50
    game = _cfg().game
    strats = [
        theoretical_strategy(game.model, game.scenario, s, game.chain)
        for s in game.specs
    ]
    rep = run_repeated(game, strats, None, T, seed=SEED)
    singles = [
        run_auction(game, strats, None, batch_rng(SEED, STREAM_ROUNDS, t))
        for t in range(T)
    ]
    tol = REL_EXACT * T
    assert rep.platform_payoff == pytest.approx(
        math.fsum(o.platform_payoff for o in singles), rel=tol
    )
    assert rep.social_welfare == pytest.approx(
        math.fsum(o.social_welfare for o in singles), rel=tol
    )
    for i in range(game.n):
        assert rep.payoffs[i] == pytest.approx(
            math.fsum(o.payoffs[i] for o in singles), rel=tol, abs=tol
        )

    # degenerate laws pin every round to the same value: total is T times it
    pg = make_game(point_specs(c1=0.3, p1=0.2, c2=0.25, p2=0.1))
    pstrats = [
        theoretical_strategy(pg.model, pg.scenario, s, pg.chain) for s in pg.specs
    ]
    prep = run_repeated(pg, pstrats, None, T, seed=SEED)
    one = run_auction(pg, pstrats, None, batch_rng(SEED, STREAM_ROUNDS, 0))
    assert prep.platform_payoff == pytest.approx(T * one.platform_payoff, rel=tol)
    assert prep.social_welfare == pytest.approx(T * one.social_welfare, rel=tol)


# --- 9: more than two advertisers ----------------------------------------

def test_three_player_dominance_and_two_player_reduction():
    game3 = _cfg3().game
    assert game3.n == 3
    for model, scenario in DOMINANT_COMBOS:
        g = _variant(game3, model, scenario)
        for i, rep in enumerate(_scan_all_advertisers(g, replications=100_000)):
            assert rep.passed, (model, scenario, i)
            assert abs(rep.argmax_index - rep.theory_index) <= 1, (model, scenario)

    # one rival: the fixture closed form reproduces the engine conversion
    game2 = _cfg().game
    engine_es = mean_rate_equivalent_bids(game2)
    fixture_sets = equilibrium_fixture_bids(game2, multipliers=(1.0,), seed=SEED)
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
        assert row.adv1_drop < -SE_MARGIN * row.adv1_drop_se
    assert time.perf_counter() - t0 < SWEEP_BUDGET_S


# --- 11: cart-event bid granularity --------------------------------------

def test_cart_granularity_sits_between_click_and_conversion():
    cart = _cfg().cart_game
    rep = cpsc_comparison(cart, replications=1_000_000, seed=SEED)
    deltas = {d.name: d.delta for d in rep.deltas}
    adv = deltas["advertiser_payoff_cpsc_minus_cpc"]
    plat = deltas["platform_payoff_cpsc_minus_ocpc"]
    assert adv.mean > SE_MARGIN * adv.se
    assert plat.mean > SE_MARGIN * plat.se

    # enumeration oracle on a two-point discretization of the same funnel
    specs = tuple(
        replace(s, rates=tuple(two_point_surrogate(law) for law in s.rates))
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
    bumped[w] = replace(strategies[w], bid=strategies[w].bid * factor)
    out = run_auction(game, bumped, None, np.random.default_rng(seed))
    assert out.winner == w
    assert out.price_per_pay_event == base.price_per_pay_event
    assert out.platform_payoff == base.platform_payoff


@settings(max_examples=_CASES, deadline=None)
@given(
    gb=games_with_bids(),
    seed=st.integers(0, 2**32 - 1),
    log2k=st.integers(-3, 6),
)
def _prop_common_bid_scale_preserves_the_winner(gb, seed, log2k):
    game, strategies = gb
    k = 2.0 ** log2k  # power of two: scores scale without rounding
    base = run_auction(game, strategies, None, np.random.default_rng(seed))
    scaled = [replace(s, bid=s.bid * k) for s in strategies]
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
