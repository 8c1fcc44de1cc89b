"""Auction engine: unit conversions, winner selection, pricing, rejected
draws, and the single/repeated auction paths."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from adpricing.distributions import Beta, Discrete
from adpricing.engine import _BLOCK, _BlockDoubles, run_auction, run_repeated, select_winner
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
    specs = tuple(s._replace(rates=(zero_or_not, s.rates[1])) for s in point_specs())
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


def _select_winner_reference(equivalent_bids, rng):
    """select_winner's general rule for any n, as it was before its n = 2
    closed form: the first maximum's ties, one uniform, the rival max."""
    e = list(equivalent_bids)
    if not e:
        raise ValueError("select_winner needs at least one participant")
    u = rng.random()
    top = max(e)
    ties = [j for j, v in enumerate(e) if v == top]
    winner = ties[int(u * len(ties))]
    if len(e) == 1:
        return winner, 0.0
    return winner, max(v for j, v in enumerate(e) if j != winner)


class _CountedUniform:
    """Stand-in rng that returns a given uniform and counts its draws."""

    def __init__(self, u):
        self.u, self.draws = u, 0

    def random(self):
        self.draws += 1
        return self.u


def _outcome(fn, bids, u):
    """(result or exception type, draws taken), the floats as bit patterns
    so that -0.0 and NaN payloads compare exactly."""
    rng = _CountedUniform(u)
    try:
        w, e_loser = fn(bids, rng)
    except Exception as exc:  # the reference raises IndexError on a NaN top
        return type(exc), rng.draws
    return (w, type(w), type(e_loser), np.float64(e_loser).tobytes()), rng.draws


def test_select_winner_pairs_match_the_general_rule():
    nan, inf = float("nan"), float("inf")
    special = [0.0, -0.0, inf, -inf, nan, 1.0, 5e-324, 1.7976931348623157e308]
    uniforms = [0.0, 0.5 - 2**-53, 0.5, 1 - 2**-53]
    rng = np.random.default_rng(20)
    cases = [(a, b) for a in special for b in special]
    for _ in range(3000):
        a, b = (float(rng.choice(special)) if rng.random() < 0.5 else float(rng.integers(-3, 4))
                for _ in range(2))
        cases.append((a, b))
        cases.append((np.float64(a), np.float64(b)))  # a numpy score column's cells
    for a, b in cases:
        for u in uniforms + [rng.random()]:
            got = _outcome(select_winner, [a, b], u)
            assert got == _outcome(_select_winner_reference, [a, b], u), (a, b, u)
            assert got[1] == 1  # one uniform per call, tie or not


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
    rng = batch_rng(0, 0, 0, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="unknown mode"):
        run_auction(game, (Strategy(1.0), Strategy(1.0)), None, rng, mode="fancy")
    assert rng.bit_generator.state == state  # nothing drawn before the check


@pytest.mark.parametrize("scenario", ["in_site", "out_site"])
@pytest.mark.parametrize("strategies, factors, message", [
    (1, 2, "need 2 strategies, got 1"),
    (3, 2, "need 2 strategies, got 3"),
    (2, 1, "need 2 belief factors, got 1"),
    (2, 3, "need 2 belief factors, got 3"),
])
def test_run_auction_rejects_wrong_counts(scenario, strategies, factors, message):
    game = make_game(default_specs(), model="CPC", scenario=scenario)
    rng = batch_rng(0, 0, 0, 0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        run_auction(game, [Strategy(1.0)] * strategies, PlatformBelief((1.0,) * factors), rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("mode", ["analytic", "realized"])
def test_run_auction_takes_any_iterable_of_strategies(mode):
    game = make_game(default_specs(), scenario="out_site")
    posted = (Strategy(10.0, alpha=0.6), Strategy(11.0, alpha=0.8))
    belief = PlatformBelief((0.5, 0.9))
    outcomes = [
        run_auction(game, given, belief, batch_rng(4, STREAM_ROUNDS, 0), mode)
        for given in (list(posted), posted, (s for s in posted))
    ]
    assert outcomes[0] == outcomes[1] == outcomes[2]
    # run_repeated reads a one-shot iterable once, not once per round
    repeated = [
        list(run_repeated(game, given, belief, T=5, seed=4, mode=mode))
        for given in (posted, (s for s in posted))
    ]
    assert repeated[0] == repeated[1]


def _zero_click_specs():
    """The default game with a click law that is 0 half the time, so a
    round whose winner has no click is redrawn."""
    zero_or_not = Discrete((0.0, 0.3), (0.5, 0.5))
    return tuple(s._replace(rates=(zero_or_not, s.rates[1])) for s in default_specs())


def _beta_click_specs():
    """The default game with a Beta(2, 5) click law, whose draw reads a
    variable number of the generator's doubles."""
    return tuple(s._replace(rates=(Beta(2.0, 5.0), s.rates[1])) for s in default_specs())


_PINNED_SPECS = {"default": default_specs, "zero_click": _zero_click_specs, "beta": _beta_click_specs}

# sha256 of the repr of every outcome's field tuple over 200 rounds of
# run_repeated at seed 19, posted bids (10, 11), alphas (0.6, 0.8) and a
# belief (0.5, 0.9) that differs from them; the field tuple, not the
# outcome object, so the outcome's container type does not enter it.
# The default and zero-click digests were recorded before run_auction's
# body was rewritten for speed, the beta ones before run_repeated read
# its doubles a block at a time: every draw and float operation keeps
# its order, so no digest may move
RUN_REPEATED_SHA256 = {
    "default/CPC/in_site/analytic": "0b4e693d3b72a88343bd898d79f00a97c4d431e9b17dc7ad0c5a05c6d49f1f63",
    "default/CPC/in_site/realized": "e127214323a5655e6bf989a68d1d9662a903505f1a3d2f0e2737af9a45753326",
    "default/CPC/out_site/analytic": "0b4e693d3b72a88343bd898d79f00a97c4d431e9b17dc7ad0c5a05c6d49f1f63",
    "default/CPC/out_site/realized": "14a522df6e45a2373390f0bed810f36da991cb9562e66f2c0acfed44ea3c725f",
    "default/OCPC/in_site/analytic": "c74a3fb45bbb9c4e13d9184eb9e1ab5ff12bc92e83adf9942c1b1d063ae33d6c",
    "default/OCPC/in_site/realized": "8c252303ab88233fd70d26f19d8cbd83efbe5f479c501d553e103ad8b13cda82",
    "default/OCPC/out_site/analytic": "55184d67bc09122fe6a28e576446861d2d6f6180bcab7d8607c15949f3f9a782",
    "default/OCPC/out_site/realized": "f18edeb0e1eb3ff6badfd5be8af5e6f7c06b55aea2668b546046463708f0d63e",
    "default/CPA/in_site/analytic": "bb2d6d4a431d67046d1593184ebb4a00f974c97501acb5d3e82bb80231736834",
    "default/CPA/in_site/realized": "a15776dd3151847e39afbb0ce6ec345cf03a574e6ae7bc06609eb94a17bdd8ae",
    "default/CPA/out_site/analytic": "c8d77d0cf6e4fab40c91f483950cbdf59d2ac07534028a551fa9bba022772924",
    "default/CPA/out_site/realized": "ab00059cbbc4e88f1b7cc91f5b2d060cb9a2941b8bc6d41cbe900d35120b767e",
    "default/CPM/in_site/analytic": "4592256721a8c330dffc514b6fc396f314682a8dffa2d600cba395d74212335c",
    "default/CPM/in_site/realized": "b4ad4f0c2d384a8fc4e24625f1d5cbb762c2df5dea2ca25fb7a8ba8a211a125c",
    "default/CPM/out_site/analytic": "4592256721a8c330dffc514b6fc396f314682a8dffa2d600cba395d74212335c",
    "default/CPM/out_site/realized": "0ec8dbe407965b1aee7e9963333b39b0b6c39f8388787f67368b71782a4c7f74",
    "zero_click/CPC/in_site/analytic": "00e7f03111d14a9ad342cfe36602f1324bfdfcc2bc55c5515454490d0f7006f5",
    "zero_click/CPC/in_site/realized": "f8802ca559c66a24bfb272ae40d61c0e9f6f426522c16e98c906247b0fd5067d",
    "zero_click/CPC/out_site/analytic": "00e7f03111d14a9ad342cfe36602f1324bfdfcc2bc55c5515454490d0f7006f5",
    "zero_click/CPC/out_site/realized": "e2d94d70523215c9383de0d1c245e308b7df65e5126c5f4dcc21a6ca100b5032",
    "zero_click/OCPC/in_site/analytic": "1abee4a6f742182c09eb6de0825d64593315bbce3ba4bf588c228771a9976dea",
    "zero_click/OCPC/in_site/realized": "c531ce4cd710f0d8384d5869c1830f5c8c1eb804e10251183be194b52ae2cdc3",
    "zero_click/OCPC/out_site/analytic": "2a1dc045b69bc031daeaa2eb476841ecb7280c18d7b710421e610f5591d0d548",
    "zero_click/OCPC/out_site/realized": "b3657825fd6736a257ba254390d79d299089decd9cc33412de6c1597e4b7b0c9",
    "zero_click/CPA/in_site/analytic": "2e8d7a7304c99db25384ae19150c591ff28b77b9ceeabca94005da9c7287aa2c",
    "zero_click/CPA/in_site/realized": "d7cd981190f9b515c974f93442be3a4087ce0a34894c940b3bf12dcf0b7c4891",
    "zero_click/CPA/out_site/analytic": "45cc64f0dbd4436e638022d1e7542de7d08bd738c73f954114eb22a43fa201b8",
    "zero_click/CPA/out_site/realized": "6a70f9413f4224db924a8b0ed0d6372a905b056a0ea1289b10820ee68db910ae",
    "zero_click/CPM/in_site/analytic": "6286b411ffd3c23d32b5d8a2262e1fc32162a95aeb901923f6f427428350f6df",
    "zero_click/CPM/in_site/realized": "691a21c8b55a091419fee8c7059deb778d028e4c7ffca02049c511e37f9b9dce",
    "zero_click/CPM/out_site/analytic": "6286b411ffd3c23d32b5d8a2262e1fc32162a95aeb901923f6f427428350f6df",
    "zero_click/CPM/out_site/realized": "e7a3acf4be423ea04412d99e10bb5cf95861ee2d0e4f28ebe674d20ae5d02797",
    "beta/CPC/in_site/analytic": "33eda440d11258cc66ed65f380af71d84a3f705824b5d7938bf1d9d18b24256c",
    "beta/CPC/in_site/realized": "5041e3acd944a26c8a75ffdd144a891c562b33334a1aeeea62045ce7507f1c0f",
    "beta/CPC/out_site/analytic": "33eda440d11258cc66ed65f380af71d84a3f705824b5d7938bf1d9d18b24256c",
    "beta/CPC/out_site/realized": "74b108626733360192bb0808af93b3372d0f6133acc7cdb5f2ba8d18e2523bee",
    "beta/OCPC/in_site/analytic": "cd7dc2e06f7cd9c63ffe90dafec198d3da375a24922eec1cb0d889beb2ff9a52",
    "beta/OCPC/in_site/realized": "2b8213f91b727fcd74dd217de949812f7ac1de4477ea18a46c9ffdba60a8636e",
    "beta/OCPC/out_site/analytic": "79249a6a8b13a34b2ee6e64b5bf7943532307d6c45fee83e9117ac55e125d894",
    "beta/OCPC/out_site/realized": "766294c853c7ea22f269d2a475221450c1c60d80b31b427cfb0a2d89aeeeb7b8",
    "beta/CPA/in_site/analytic": "79f561bca9ba786070ac6e3552ffda66b168c6124a6e3482fedccf70a1e252a2",
    "beta/CPA/in_site/realized": "5d70f67d6b59d8dc7083ea27fa698dda48713405ef5bc5e4183982261fdd42f5",
    "beta/CPA/out_site/analytic": "361e00da0e73931264e9cfc8712cce2c85fc399771ceac5d8e359032932c85e6",
    "beta/CPA/out_site/realized": "b1b4cf300dc433c5800c4acb303f1a60b62080af1d7dc11707c4ccf8f25ec4c3",
    "beta/CPM/in_site/analytic": "f6ec9f6f57015b92e7bd1ec3f1ca3afb1c8d34efda8dc5fabfd92ae77afc9092",
    "beta/CPM/in_site/realized": "d76f102d28e8a1f88f041d45ee29c2aba14bd9a9626a1bce5c01119960518696",
    "beta/CPM/out_site/analytic": "f6ec9f6f57015b92e7bd1ec3f1ca3afb1c8d34efda8dc5fabfd92ae77afc9092",
    "beta/CPM/out_site/realized": "933f7d171a50bed8a5525e18c4d65279ba2699e761e416c9819850c96af003d4",
}


@pytest.mark.parametrize("case", sorted(RUN_REPEATED_SHA256))
def test_run_repeated_outcomes_are_pinned(case):
    specs, model, scenario, mode = case.split("/")
    game = make_game(_PINNED_SPECS[specs](), model=model, scenario=scenario)
    strategies = (Strategy(10.0, alpha=0.6), Strategy(11.0, alpha=0.8))
    belief = PlatformBelief((0.5, 0.9))
    digest = hashlib.sha256()
    rejections = 0
    for oc in run_repeated(game, strategies, belief, T=200, seed=19, mode=mode):
        fields = (
            oc.winner, oc.e_loser, oc.price_per_pay_event, oc.payoffs, oc.platform_payoff,
            oc.social_welfare, oc.draw.realized, oc.draw.equivalent_bids, oc.rejections,
            oc.events, oc.reported_conversion,
        )
        digest.update(repr(fields).encode())
        rejections += oc.rejections
    assert digest.hexdigest() == RUN_REPEATED_SHA256[case]
    # the zero-click game pins the redraw path wherever a click is charged
    assert (rejections > 0) == (case.startswith("zero_click") and model != "CPM")


def test_a_block_draw_reads_the_scalar_draws_doubles():
    k = 3 * _BLOCK + 7
    block, scalar = batch_rng(19, STREAM_ROUNDS, 0), batch_rng(19, STREAM_ROUNDS, 0)
    assert block.random(k).tolist() == [scalar.random() for _ in range(k)]
    assert block.bit_generator.state == scalar.bit_generator.state


def test_the_block_source_hands_out_the_generators_doubles_one_at_a_time():
    k = 2 * _BLOCK + 3
    source = _BlockDoubles(batch_rng(19, STREAM_ROUNDS, 0))
    plain = batch_rng(19, STREAM_ROUNDS, 0)
    assert [source.random() for _ in range(k)] == [plain.random() for _ in range(k)]
    # a size would ask for an array the source does not draw
    with pytest.raises(TypeError):
        source.random(3)
    with pytest.raises(TypeError):
        source.random(size=3)
    with pytest.raises(TypeError):
        source.random(None)
    assert source.random() == plain.random()  # a refused call reads nothing


@pytest.mark.parametrize("specs", sorted(_PINNED_SPECS))
@pytest.mark.parametrize("scenario", ["in_site", "out_site"])
@pytest.mark.parametrize("mode", ["analytic", "realized"])
def test_run_repeated_reads_the_plain_generators_doubles(specs, scenario, mode):
    # every round reads at least 5 doubles (4 rates and the tie uniform),
    # so T rounds cross at least 3 of run_repeated's block boundaries
    T = 1000
    assert 5 * T > 3 * _BLOCK
    game = make_game(_PINNED_SPECS[specs](), model="CPA", scenario=scenario)
    strategies = (Strategy(10.0, alpha=0.6), Strategy(11.0, alpha=0.8))
    belief = PlatformBelief((0.5, 0.9))
    rng = batch_rng(23, STREAM_ROUNDS, 0)
    plain = [run_auction(game, strategies, belief, rng, mode) for _ in range(T)]
    assert list(run_repeated(game, strategies, belief, T=T, seed=23, mode=mode)) == plain
