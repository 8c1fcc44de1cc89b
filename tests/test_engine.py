"""Auction engine: unit conversions, winner selection, pricing, rejected
draws, and the single/repeated auction paths."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from adpricing.distributions import Discrete
from adpricing.engine import run_auction, run_repeated, select_winner
from adpricing.model import PlatformBelief, Strategy
from adpricing.sampling import STREAM_ROUNDS, batch_rng

from conftest import default_specs, make_game, point_specs


def _point_auction(model, bids, **rates):
    """One analytic auction on a point-mass game (c = 0.3, p = 0.2 unless
    overridden), where every rate is known exactly."""
    game = make_game(point_specs(**rates), model=model)
    return run_auction(game, [Strategy(b) for b in bids], None, batch_rng(0, 0, 0, 0))


def test_equivalent_bid_unit_values():
    # bid per conversion at c=0.3, p=0.2 is worth 6 per impression
    assert _point_auction("OCPC", (100.0, 10.0)).draw.equivalent_bids == (6.0, 0.6)
    assert _point_auction("CPA", (100.0, 10.0)).draw.equivalent_bids == (6.0, 0.6)
    assert _point_auction("CPC", (10.0, 1.0)).draw.equivalent_bids == (3.0, 0.3)
    assert _point_auction("CPM", (7.5, 5.0)).draw.equivalent_bids == (7.5, 5.0)


def test_price_per_pay_event_values():
    # the runner-up's e per winner's pay-depth event (click for OCPC and CPC)
    assert _point_auction("OCPC", (100.0, 10.0)).price_per_pay_event == 2.0
    assert _point_auction("CPC", (10.0, 1.0)).price_per_pay_event == 1.0
    assert _point_auction("CPC", (30.0, 20.0)).price_per_pay_event == 20.0
    # second-price cap: against a rival matching its score exactly, the
    # per-click charge is the bidder's own quote times p
    tied = _point_auction("OCPC", (10.0, 10.0), p1=0.1, p2=0.1)
    assert tied.e_loser == tied.draw.equivalent_bids[tied.winner]
    assert tied.price_per_pay_event == 1.0
    # per-impression billing charges e_loser itself
    assert _point_auction("CPM", (7.5, 5.0)).price_per_pay_event == 5.0


def test_price_per_pay_event_zero_rate():
    # a zero click rate leaves no price per click: every draw is rejected
    specs = point_specs(c1=0.0, c2=0.0)
    game = make_game(specs, model="CPC")
    with pytest.raises(RuntimeError, match="rejected"):
        run_auction(game, (Strategy(10.0), Strategy(5.0)), None, batch_rng(0, 0, 0, 0))


def test_run_auction_counts_rejected_draws():
    zero_or_not = Discrete((0.0, 0.3), (0.5, 0.5))
    specs = tuple(replace(s, rates=(zero_or_not, s.rates[1])) for s in point_specs())
    game = make_game(specs, model="CPC")
    # at this seed the first draw gives both advertisers a zero click rate
    out = run_auction(game, (Strategy(10.0), Strategy(5.0)), None, batch_rng(2, 0, 0, 0))
    assert out.rejections >= 1
    assert out.draw.realized[out.winner][0] == 0.3  # the kept draw is priceable


def test_select_winner_and_rival():
    rng = batch_rng(0, 0, 0, 0)
    w, e_l = select_winner([1.0, 5.0, 2.0], rng)
    assert (w, e_l) == (1, 2.0)
    assert select_winner([4.0], rng) == (0, 0.0)


def test_select_winner_tie_frequencies():
    rng = batch_rng(12, 0, 0, 0)
    wins = sum(select_winner([3.0, 3.0], rng)[0] for _ in range(20_000))
    assert abs(wins / 20_000 - 0.5) < 0.01
    # a tie pays the full tied price
    _, e_l = select_winner([3.0, 3.0], rng)
    assert e_l == 3.0


def test_run_auction_symmetric_point_game():
    game = make_game(point_specs(), model="OCPC")
    rng = batch_rng(1, 0, 0, 0)
    out = run_auction(game, (Strategy(100.0), Strategy(100.0)), None, rng)
    # equal scores: winner pays the full tied equivalent bid
    assert out.platform_payoff == 6.0
    assert out.social_welfare == 6.0
    assert out.payoffs[out.winner] == 0.0
    assert out.e_loser == 6.0
    assert out.social_welfare - out.platform_payoff - sum(out.payoffs) == 0.0


def test_run_auction_asymmetric_point_game():
    game = make_game(point_specs(c2=0.2, p2=0.1), model="CPA")
    rng = batch_rng(1, 0, 0, 0)
    out = run_auction(game, (Strategy(100.0), Strategy(100.0)), None, rng)
    assert out.winner == 0
    assert out.e_loser == 100.0 * (0.2 * 0.1)
    assert out.platform_payoff == out.e_loser
    assert out.payoffs[0] == 6.0 - out.e_loser
    assert out.payoffs[1] == 0.0


def test_run_auction_realized_mode_consistency():
    game = make_game(point_specs(), model="CPC")
    strategies = (Strategy(20.0), Strategy(18.0))
    total, m = 0.0, 4000
    for k in range(m):
        out = run_auction(game, strategies, None, batch_rng(7, 9, k, 0), mode="realized")
        assert out.social_welfare - out.platform_payoff - sum(out.payoffs) == 0.0
        assert out.events is not None
        total += out.platform_payoff
    analytic = run_auction(game, strategies, None, batch_rng(7, 9, 0, 0))
    # realized billing averages to the analytic per-impression charge
    target = analytic.platform_payoff
    se = np.sqrt(target * (18.0 * 0.3 / 0.3 - 0.0)) / np.sqrt(m)  # crude bound
    assert abs(total / m - target) < 5.0 * max(se, 0.2)


def test_run_auction_out_site_underreporting():
    game = make_game(point_specs(), model="CPA", scenario="out_site")
    strategies = (Strategy(100.0, alpha=0.0), Strategy(1.0, alpha=1.0))
    belief = PlatformBelief((1.0, 1.0))
    out = run_auction(game, strategies, belief, batch_rng(3, 0, 0, 0), mode="realized")
    if out.winner == 0:
        assert out.reported_conversion is False
        assert out.platform_payoff == 0.0


def test_run_repeated_matches_trace():
    game = make_game(default_specs(), model="CPC")
    strategies = (Strategy(10.0), Strategy(12.0))
    trace = list(run_repeated(game, strategies, None, T=10, seed=5))
    assert len(trace) == 10
    # one generator, consumed round after round
    rng = batch_rng(5, STREAM_ROUNDS, 0)
    for oc in trace:
        assert oc == run_auction(game, strategies, None, rng)
    # rounds draw fresh markets
    assert trace[0].draw.realized != trace[1].draw.realized
    # a shorter run is a prefix of a longer one
    assert list(run_repeated(game, strategies, None, T=4, seed=5)) == trace[:4]


def test_run_repeated_t1_is_a_single_auction():
    game = make_game(default_specs(), model="OCPC")
    strategies = (Strategy(100.0), Strategy(100.0))
    (only,) = run_repeated(game, strategies, None, T=1, seed=9)
    assert only == run_auction(game, strategies, None, batch_rng(9, STREAM_ROUNDS, 0))
    with pytest.raises(ValueError):
        run_repeated(game, strategies, None, T=0, seed=9)  # at the call, not at next()


def test_run_repeated_streams_its_rounds():
    game = make_game(default_specs(), model="OCPC")
    strategies = (Strategy(100.0), Strategy(80.0))
    rounds = 0
    tracemalloc.start()
    try:
        for _ in run_repeated(game, strategies, None, T=20_000, seed=3, mode="realized"):
            rounds += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rounds == 20_000
    assert peak < 1 << 20  # one outcome at a time, not the whole trace


def test_run_auction_rejects_bad_mode():
    game = make_game(point_specs())
    with pytest.raises(ValueError):
        run_auction(game, (Strategy(1.0), Strategy(1.0)), None,
                    batch_rng(0, 0, 0, 0), mode="fancy")
