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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

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


def select_winner(equivalent_bids, rng: np.random.Generator) -> tuple[int, float]:
    """Argmax of e with uniform tie-breaking from the seeded stream.
    Returns (winner index, highest losing e); a lone participant faces 0.

    One uniform is consumed per call whether or not a tie occurs, so rng
    consumption does not depend on the draw."""
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


@dataclass(frozen=True)
class AuctionDraw:
    """One sampled market: realized rates and equivalent bids."""

    realized: tuple[tuple[float, ...], ...]
    equivalent_bids: tuple[float, ...]


@dataclass(frozen=True)
class AuctionOutcome:
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


def _manip_factor(game: Game, belief_or_alpha: float, depth_limit: int) -> float:
    """Scalar the out-site conversion factor contributes to a rate product
    truncated at depth_limit (1.0 in-site or when conversions lie deeper).
    Only the scalar engine reads it: the dominance scan plays truthfully,
    where the factor is 1.0 at every depth."""
    if game.scenario.is_out_site and game.chain.conversion_depth <= depth_limit:
        return belief_or_alpha
    return 1.0


def run_auction(
    game: Game,
    strategies,
    belief: PlatformBelief | None,
    rng: np.random.Generator,
    mode: str = "analytic",
) -> AuctionOutcome:
    """Execute one auction. strategies: one Strategy per advertiser."""
    if mode not in ("analytic", "realized"):
        raise ValueError(f"unknown mode {mode!r}")
    strategies = list(strategies)
    if len(strategies) != game.n:
        raise ValueError(f"need {game.n} strategies, got {len(strategies)}")
    if belief is None:
        belief = PlatformBelief.truthful(game.n)
    L = game.chain.n_rate_depths
    bd, pd = game.model.bid_depth, game.model.pay_depth
    conv = game.chain.conversion_depth

    for attempt in range(_MAX_REJECTIONS + 1):
        # rates drawn advertiser-major, depth-minor; one tie uniform after
        realized = [
            [game.specs[i].rate(d).sample(rng) for d in range(1, L + 1)]
            for i in range(game.n)
        ]
        e = [
            (strategies[i].bid * _manip_factor(game, belief.alpha_hat[i], bd))
            * math.prod(realized[i][:bd])
            for i in range(game.n)
        ]
        winner, e_loser = select_winner(e, rng)

        pred_pay = _manip_factor(game, belief.alpha_hat[winner], pd) * math.prod(
            realized[winner][:pd]
        )
        if pd >= 1 and pred_pay == 0.0:
            continue  # rejected draw: platform would never charge this winner
        ppe = e_loser / pred_pay if pd >= 1 else e_loser
        charged_pay = _manip_factor(game, strategies[winner].alpha, pd) * math.prod(
            realized[winner][:pd]
        )

        spec_w = game.specs[winner]
        payoffs = [0.0] * game.n
        if mode == "analytic":
            expected_payment = e_loser * (charged_pay / pred_pay) if pd >= 1 else e_loser
            value = spec_w.m * math.prod(realized[winner])
            payoffs[winner] = value - expected_payment
            platform = expected_payment
            social = value
            events = reported = None
        else:
            u_ev = [rng.random() for _ in range(L)]
            events = []
            reached = True
            for d in range(1, L + 1):
                reached = reached and (u_ev[d - 1] < realized[winner][d - 1])
                events.append(reached)
            reported = None
            if game.scenario.is_out_site:
                u_rep = rng.random()
                reported = events[conv - 1] and (u_rep < strategies[winner].alpha)
            if pd == 0:
                paid = True
            elif game.scenario.is_out_site and pd == conv:
                paid = bool(reported)
            else:
                paid = events[pd - 1]
            payment = ppe if paid else 0.0
            value = spec_w.m if events[conv - 1] else 0.0
            payoffs[winner] = value - payment
            platform = payment
            social = value
            events = tuple(events)

        draw = AuctionDraw(tuple(tuple(r) for r in realized), tuple(e))
        return AuctionOutcome(
            winner=winner,
            e_loser=e_loser,
            price_per_pay_event=ppe,
            payoffs=tuple(payoffs),
            platform_payoff=platform,
            social_welfare=social,
            draw=draw,
            rejections=attempt,
            events=events,
            reported_conversion=reported,
        )
    raise RuntimeError(f"rejected {_MAX_REJECTIONS} draws in a row; check the rate laws")


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
    longer one's. A T below 1 raises here, at the call."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    rng = batch_rng(seed, STREAM_ROUNDS, 0)
    return (run_auction(game, strategies, belief, rng, mode) for _ in range(T))
