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

import math
from typing import Iterator, NamedTuple

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


def select_winner(equivalent_bids, rng: np.random.Generator) -> tuple[int, float]:
    """Argmax of e with uniform tie-breaking from the seeded stream.
    Returns (winner index, highest losing e); a lone participant faces 0.

    One uniform is consumed per call whether or not a tie occurs, so rng
    consumption does not depend on the draw. rng needs only a scalar
    random(): run_repeated passes its block source."""
    e = list(equivalent_bids)
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


class AuctionDraw(NamedTuple):
    """One sampled market: realized rates and equivalent bids."""

    realized: tuple[tuple[float, ...], ...]
    equivalent_bids: tuple[float, ...]


class AuctionOutcome(NamedTuple):
    winner: int
    e_loser: float
    price_per_pay_event: float
    payoffs: tuple[float, ...]  # per advertiser, losers exactly 0
    platform_payoff: float
    social_welfare: float
    draw: AuctionDraw
    rejections: int = 0
    # realized mode only
    events: tuple[bool, ...] | None = None  # winner's funnel, index d-1 = depth d
    reported_conversion: bool | None = None


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
    strategies = list(strategies)
    n = game.n
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
    bids = [s.bid * factors[i] for i, s in enumerate(strategies)]
    specs = game.specs

    for attempt in range(_MAX_REJECTIONS + 1):
        # rates drawn advertiser-major, depth-minor; one tie uniform after
        realized = [tuple([law.sample(rng) for law in spec.rates]) for spec in specs]
        e = [bid * math.prod(r[:bd]) for bid, r in zip(bids, realized)]
        winner, e_loser = select_winner(e, rng)

        rates_w = realized[winner]
        pay_rate = math.prod(rates_w[:pd])
        pred_pay = factors[winner] * pay_rate if scaled_pay else pay_rate
        if pd >= 1 and pred_pay == 0.0:
            continue  # rejected draw: platform would never charge this winner
        ppe = e_loser / pred_pay if pd >= 1 else e_loser

        m = specs[winner].m
        payoffs = [0.0] * n
        if mode == "analytic":
            charged_pay = strategies[winner].alpha * pay_rate if scaled_pay else pay_rate
            payment = e_loser * (charged_pay / pred_pay) if pd >= 1 else e_loser
            value = m * math.prod(rates_w)
            events = reported = None
        else:
            # one event uniform per depth, drawn whether or not the funnel
            # was already left; then the report uniform out-site
            events = []
            reached = True
            for r in rates_w:
                reached = rng.random() < r and reached
                events.append(reached)
            events = tuple(events)
            reported = None
            if out_site:
                reported = rng.random() < strategies[winner].alpha and reached
            if pd == 0:
                paid = True
            elif scaled_pay:
                paid = reported
            else:
                paid = events[pd - 1]
            payment = ppe if paid else 0.0
            value = m if reached else 0.0
        payoffs[winner] = value - payment

        return AuctionOutcome(
            winner,
            e_loser,
            ppe,
            tuple(payoffs),
            payment,
            value,
            AuctionDraw(tuple(realized), tuple(e)),
            attempt,
            events,
            reported,
        )
    raise RuntimeError(f"rejected {_MAX_REJECTIONS} draws in a row; check the rate laws")


class _BlockDoubles:
    """A generator's doubles drawn _BLOCK at a time and handed out one per
    scalar random() call, in the generator's own order: PCG64's stream is
    sequential, so each equals the double a scalar call would have read,
    without numpy's per-call cost."""

    __slots__ = ("_rng", "_buf")

    def __init__(self, rng: np.random.Generator):
        self._rng, self._buf = rng, []

    def random(self, size=None) -> float:
        if size is not None:
            raise TypeError("a block source draws one double at a time")
        if not self._buf:
            # reversed, so that pop() hands the doubles out as drawn
            self._buf = self._rng.random(_BLOCK)[::-1].tolist()
        return self._buf.pop()


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

    When every rate law is a Uniform, Point or Discrete, each of the
    round's draws reads one scalar double, and the rounds read the
    generator through a _BlockDoubles source: the same doubles in the
    same order. A Beta law reads a variable number of doubles through
    rng.beta, so such a game keeps the generator itself. The doubles the
    source draws ahead of the last round are never read, since the
    generator is private to this call, so the prefix property holds."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    rng = batch_rng(seed, STREAM_ROUNDS, 0)
    if all(type(law) in _ONE_DOUBLE_LAWS for spec in game.specs for law in spec.rates):
        rng = _BlockDoubles(rng)
    return (run_auction(game, strategies, belief, rng, mode) for _ in range(T))
