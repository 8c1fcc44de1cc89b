"""Second-price auction engine.

One auction: every advertiser's funnel rates are sampled, the platform
forms predictions (equal to realized rates in-site; conversion
prediction scaled by its learned reporting factor out-site), each bid
is converted to an equivalent per-impression bid e = bid x product of
predicted rates up to the model's bid depth, the highest e wins, and
the winner is charged the runner-up's e converted back to a price per
pay-depth event.

Two execution modes. Analytic mode books per-impression expectations
given the realized rates: the winner's value is m x the full realized
rate product, the platform's take is e_loser adjusted by the ratio of
charged to predicted event probability (exactly e_loser when the
platform's reporting belief matches the true reporting rate). Realized
mode additionally flips Bernoulli coins down the funnel and charges per
realized (reported, when charging on conversions out-site) pay event.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat
from math import prod
from typing import Iterator

import numpy as np

from .distributions import Discrete, Point, Uniform
from .model import Game, PlatformBelief
from .sampling import STREAM_ROUNDS, batch_rng

__all__ = [
    "AuctionDraw",
    "AuctionOutcome",
    "select_winner",
    "run_auction",
    "run_repeated",
]

_MAX_REJECTIONS = 1000
_BLOCK = 1024  # doubles a round generator's block source draws at once
# laws whose scalar draw reads at most one rng.random() and nothing else
_ONE_DOUBLE_LAWS = (Uniform, Point, Discrete)
# builds a namedtuple from a tuple of every field, as its __new__ does,
# without that Python-level call
_pack = tuple.__new__


def select_winner(equivalent_bids, rng: np.random.Generator) -> tuple[int, float]:
    """Argmax of e with uniform tie-breaking from the seeded stream.
    Returns (winner index, highest losing e); a lone participant faces 0.

    One uniform is consumed per call whether or not a tie occurs, so rng
    consumption does not depend on the draw. rng needs only a scalar
    random(): run_repeated passes its block source."""
    e = tuple(equivalent_bids)
    if not e:
        raise ValueError("select_winner needs at least one participant")
    u = rng.random()
    if len(e) == 2:
        # the general rule below for two bids; a tie's rank int(2u) is 0
        # exactly when u < 0.5, and the rival's own value comes back, so a
        # -0.0 against 0.0 keeps its sign. A NaN falls through
        a, b = e
        if a > b or (a == b and u < 0.5):
            return 0, b
        if b >= a:
            return 1, a
    top = max(e)
    ties = [j for j, v in enumerate(e) if v == top]
    winner = ties[int(u * len(ties))]
    if len(e) == 1:
        return winner, 0.0
    return winner, max(v for j, v in enumerate(e) if j != winner)


class AuctionDraw(namedtuple("AuctionDraw", "realized equivalent_bids")):
    """One sampled market: realized rates (tuple[tuple[float, ...], ...])
    and equivalent bids (tuple[float, ...])."""

    __slots__ = ()


class AuctionOutcome(namedtuple(
    "AuctionOutcome",
    "winner e_loser price_per_pay_event payoffs platform_payoff social_welfare draw"
    " rejections events reported_conversion",
)):
    """One auction's result. winner: int; e_loser, price_per_pay_event:
    float; payoffs: tuple[float, ...], per advertiser, losers exactly 0;
    platform_payoff, social_welfare: float; draw: AuctionDraw; rejections:
    int. Realized mode only, else None: events, tuple[bool,
    ...], the winner's funnel with index d-1 for depth d;
    reported_conversion, bool."""

    __slots__ = ()


def run_auction(
    game: Game,
    strategies,
    belief: PlatformBelief | None,
    rng: np.random.Generator,
    mode: str = "analytic",
) -> AuctionOutcome:
    """Execute one auction. strategies: any iterable of one Strategy per
    advertiser; belief: one alpha_hat per advertiser, or None for a
    platform that believes every report. rng is read only through the
    laws' sample(rng) and scalar rng.random() calls, so a game whose laws
    draw scalar doubles only may pass any source of them: run_repeated
    passes its block source."""
    if mode not in ("analytic", "realized"):
        raise ValueError(f"unknown mode {mode!r}")
    strategies = tuple(strategies)
    specs = game.specs
    n = len(specs)
    if len(strategies) != n:
        raise ValueError(f"need {n} strategies, got {len(strategies)}")
    if belief is not None and len(belief.alpha_hat) != n:
        raise ValueError(f"need {n} belief factors, got {len(belief.alpha_hat)}")
    bd, pd = game.model.bid_depth, game.model.pay_depth
    conv = game.chain.conversion_depth
    # out-site, a rate product that reaches the conversion depth carries a
    # reporting factor: the platform's alpha_hat where it predicts, the
    # winner's alpha where it charges; elsewhere the factor is 1.0. The pay
    # depth never exceeds the bid depth, so a scaled pay has scaled bids
    out_site = game.scenario.is_out_site
    scaled_pay = out_site and conv <= pd
    if out_site and conv <= bd and belief is not None:
        factors = belief.alpha_hat
    else:
        factors = (1.0,) * n
    random = rng.random

    for attempt in range(_MAX_REJECTIONS + 1):
        # rates drawn advertiser-major, depth-minor; one tie uniform after.
        # An equivalent bid is (bid x factor) x the rates' product
        realized = tuple([tuple([law.sample(rng) for law in spec.rates]) for spec in specs])
        e = tuple([s.bid * f * prod(r[:bd]) for s, f, r in zip(strategies, factors, realized)])
        winner, e_loser = select_winner(e, rng)

        rates_w = realized[winner]
        pay_rate = prod(rates_w[:pd])
        pred_pay = factors[winner] * pay_rate if scaled_pay else pay_rate
        if pd >= 1 and pred_pay == 0.0:
            continue  # rejected draw: platform would never charge this winner
        ppe = e_loser / pred_pay if pd >= 1 else e_loser

        m = specs[winner].m
        payoffs = [0.0] * n
        if mode == "analytic":
            charged_pay = strategies[winner].alpha * pay_rate if scaled_pay else pay_rate
            payment = e_loser * (charged_pay / pred_pay) if pd >= 1 else e_loser
            value = m * prod(rates_w)
            events = reported = None
        else:
            # one event uniform per depth, drawn whether or not the funnel
            # was already left; then the report uniform out-site
            events = []
            reached = True
            for r in rates_w:
                reached = random() < r and reached
                events.append(reached)
            events = tuple(events)
            reported = None
            if out_site:
                reported = random() < strategies[winner].alpha and reached
            if pd == 0:
                paid = True
            elif scaled_pay:
                paid = reported
            else:
                paid = events[pd - 1]
            payment = ppe if paid else 0.0
            value = m if reached else 0.0
        payoffs[winner] = value - payment
        outcome = (
            winner,
            e_loser,
            ppe,
            tuple(payoffs),
            payment,
            value,
            _pack(AuctionDraw, (realized, e)),
            attempt,
            events,
            reported,
        )
        return _pack(AuctionOutcome, outcome)
    raise RuntimeError(f"rejected {_MAX_REJECTIONS} draws in a row; check the rate laws")


class _BlockDoubles:
    """A generator's doubles drawn _BLOCK at a time and handed out one per
    scalar random() call, in the generator's own order: PCG64's stream is
    sequential, so each equals the double a scalar call would have read,
    without numpy's per-call cost. random is the __next__ of a C-level
    itertools.chain over the blocks' lists, so a draw runs no Python
    code; it takes no argument, so a call with a size raises TypeError."""

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator):
        blocks = map(np.ndarray.tolist, map(rng.random, repeat(_BLOCK)))
        self.random = chain.from_iterable(blocks).__next__


def run_repeated(
    game: Game,
    strategies,
    belief: PlatformBelief | None,
    T: int,
    seed: int,
    mode: str = "analytic",
) -> Iterator[AuctionOutcome]:
    """T independent auctions, yielded lazily one outcome at a time. The
    rounds draw in order from one generator, batch_rng(seed,
    STREAM_ROUNDS, 0), so a shorter run's outcomes are a prefix of a
    longer one's. A T below 1 raises here, at the call.

    strategies is read once, so a one-shot iterable serves every round.
    When every rate law is a Uniform, Point or Discrete, each of the
    round's draws reads one scalar double, and the rounds read the
    generator through a _BlockDoubles source, whose random() is a C-level
    iterator's __next__: the same doubles in the same order. A Beta law
    reads a variable number of doubles through rng.beta, so such a game
    keeps the generator itself. The doubles the source draws ahead of the
    last round are never read, since the generator is private to this
    call, so the prefix property holds. Each round is one run_auction
    call."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    strategies = tuple(strategies)
    rng = batch_rng(seed, STREAM_ROUNDS, 0)
    if all(type(law) in _ONE_DOUBLE_LAWS for spec in game.specs for law in spec.rates):
        rng = _BlockDoubles(rng)
    return (run_auction(game, strategies, belief, rng, mode) for _ in range(T))
