"""Equilibrium payoff estimation and the OCPC/CPC ordering suite.

At theoretical bids every advertiser's equivalent bid equals its
per-impression score: m x realized rates up to the bid depth x mean
rates beyond it. Under second pricing the platform therefore earns the
runner-up score, the winner keeps the gap to the top score, and social
welfare is the top score, so with two advertisers

    platform payoff  = E[min(score_1, score_2)]
    social welfare   = E[max(score_1, score_2)]

The bid depth controls how much realized information enters the score.
Bidding per conversion (OCPC/CPA) scores on C x P x m; bidding per
click (CPC) scores on C x mean(P) x m. Averaging P out of the score
lowers the max and raises the min, which yields the three orderings
whose paired differences payoff_ordering_suite estimates: OCPC gives
higher welfare, lower platform payoff and higher advertiser payoffs
than CPC.

Every Monte-Carlo estimate here has an independent exhaustive
enumeration twin for finite-discrete rate laws, used as the oracle in
tests.

The estimators return estimates, not verdicts: whether a paired
difference is beyond its SE margin is judged by the study that reads it
(see cli).

The result records (PayoffReport, DecompositionCheck, OrderingSuite) are
immutable collections.namedtuple subclasses: besides their named fields
they can be unpacked and indexed, and each compares equal to the plain
tuple of its fields.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .distributions import Distribution
from .model import Game, pricing_model
from .sampling import (
    STREAM_ORDERINGS,
    STREAM_PAYOFFS,
    MeanSE,
    draw_rates,
    estimate,
    settle,
    tie_uniforms,
    winner_tiebreak,
    winner_utilities,
)

__all__ = [
    "PayoffReport",
    "OrderingSuite",
    "enumeration_size",
    "estimate_equilibrium_payoffs",
    "exact_equilibrium_payoffs",
    "expected_value",
    "payoff_ordering_suite",
]


class PayoffReport(namedtuple("PayoffReport", "advertisers platform social")):
    """Per-advertiser payoffs (tuple[MeanSE, ...]), the platform's and
    social welfare (MeanSE each)."""

    __slots__ = ()


def _score_factors(game: Game, model_name: str, i: int):
    """Per-depth factor spec for advertiser i's score under a model:
    'realized' up to the bid depth, the mean beyond it."""
    bd = pricing_model(model_name, game.chain).bid_depth
    spec = game.specs[i]
    return [
        ("realized", d) if d <= bd else ("mean", spec.rate(d).mean())
        for d in range(1, game.chain.conversion_depth + 1)
    ]


def _score_stack(game: Game, model_name: str, rates: np.ndarray) -> np.ndarray:
    """Scores for all advertisers, shape (n, size). Factors multiply in
    depth order for every model, so models that differ only in depths
    with degenerate laws produce bitwise identical scores. Each row
    starts at m and takes every factor in place."""
    n, _, size = rates.shape
    out = np.empty((n, size), dtype=np.float64)
    for i in range(n):
        v = out[i]
        v.fill(game.specs[i].m)
        for kind, x in _score_factors(game, model_name, i):
            v *= rates[i, x - 1] if kind == "realized" else x
    return out


class Settlement(namedtuple("Settlement", "winner utils platform social")):
    """One model's batch under theoretical play, per draw: winner, utils
    (shape (n, size)), platform and social, all np.ndarray."""

    __slots__ = ()


def _settle_models(
    game: Game, names, seed: int, stream: int, b_idx: int, size: int
) -> dict[str, Settlement]:
    """One batch of theoretical play under every named model, all settled
    on the same rate draws and tie uniforms.

    CPA out-site has no equilibrium; it is settled as the collapsed
    regime: nothing is charged, the winner is the tie rule's uniform pick
    among all-zero scores (it moves no payoff), and each of the N
    advertisers keeps value/N."""
    rates = draw_rates(game, seed, stream, b_idx, size)
    u = tie_uniforms(seed, stream, b_idx, size)
    n = game.n
    out = {}
    for name in names:
        if name == "CPA" and game.scenario.is_out_site:
            utils = _score_stack(game, "CPA", rates) / n  # full realized product
            winner = winner_tiebreak(np.zeros_like(utils), u)
            platform = np.zeros(size)
            social = utils.sum(axis=0)
        else:
            winner, social, platform = settle(_score_stack(game, name, rates), u)
            utils = winner_utilities(winner, social - platform, n)
        out[name] = Settlement(winner, utils, platform, social)
    return out


def _payoff_pass(game: Game, names, replications: int, seed: int, paired=None):
    """One estimate pass settling every named model on the payoff
    stream's batches; paired(settled) adds the caller's paired per-draw
    arrays under its own keys. Returns (reports by model, estimates by
    key)."""

    def batch_fn(b_idx: int, size: int) -> dict:
        settled = _settle_models(game, names, seed, STREAM_PAYOFFS, b_idx, size)
        out: dict = {}
        for name, arm in settled.items():
            out[name, "p"] = arm.platform
            out[name, "s"] = arm.social
            for i in range(game.n):
                out[name, i] = arm.utils[i]
        if paired is not None:
            out.update(paired(settled))
        return out

    est = estimate(replications, batch_fn)
    reports = {
        name: PayoffReport(
            advertisers=tuple(est[name, i] for i in range(game.n)),
            platform=est[name, "p"],
            social=est[name, "s"],
        )
        for name in names
    }
    return reports, est


def estimate_equilibrium_payoffs(
    game: Game,
    replications: int = 1_000_000,
    seed: int = 0,
    models=None,
) -> dict[str, PayoffReport]:
    """Monte-Carlo payoffs per impression with every advertiser playing
    its theoretical strategy, one report per model in models (default:
    the game's posted model) under the game's scenario.

    Every model is settled on the same per-batch rate draws and tie
    uniforms, keyed by (seed, stream, batch, advertiser, depth) and never
    by the model, so the reports are exact common-random-number pairs.
    CPA out-site reports the collapsed regime (see _settle_models)."""
    names = [game.model.name] if models is None else models
    return _payoff_pass(game, names, replications, seed)[0]


def _law_atoms(dist: Distribution) -> list[tuple[float, float]]:
    if not dist.is_finite_discrete():
        raise ValueError(f"exhaustive enumeration needs finite-discrete laws, got {dist!r}")
    return dist.atoms()


def expected_value(spec) -> float:
    """An advertiser's expected value per impression: m x the product of
    its mean rates."""
    return spec.m * math.prod(spec.rate_means())


def _enumeration_cells(game: Game) -> list[list[tuple[float, float]]]:
    """The atoms of every (advertiser, depth) factor of the posted model's
    scores, advertiser-major: a realized law's atoms, or its mean as one
    sure atom beyond the bid depth."""
    return [
        _law_atoms(game.specs[i].rate(d)) if kind == "realized" else [(x, 1.0)]
        for i in range(game.n)
        for d, (kind, x) in enumerate(_score_factors(game, game.model.name, i), start=1)
    ]


def enumeration_size(game: Game) -> int:
    """The number of rate combinations exact_equilibrium_payoffs visits."""
    return math.prod(len(atoms) for atoms in _enumeration_cells(game))


def exact_equilibrium_payoffs(game: Game) -> PayoffReport:
    """Exhaustive-enumeration twin of estimate_equilibrium_payoffs for
    finite-discrete rate laws (the brute-force oracle). Ties at the top
    score split the win uniformly, exactly."""
    n = game.n
    if game.model.name == "CPA" and game.scenario.is_out_site:
        # the collapsed regime in closed form: each advertiser keeps value/N
        utils = [expected_value(spec) / n for spec in game.specs]
        return PayoffReport(
            advertisers=tuple(MeanSE(u, 0.0) for u in utils),
            platform=MeanSE(0.0, 0.0),
            social=MeanSE(math.fsum(utils), 0.0),
        )

    util_terms = [[] for _ in range(n)]
    plat_terms, soc_terms = [], []
    for combo in itertools.product(*_enumeration_cells(game)):
        prob = math.prod(p for _, p in combo)
        if prob == 0.0:
            continue
        scores = []
        idx = 0
        for i in range(n):
            v = game.specs[i].m
            for _ in range(game.chain.conversion_depth):
                v *= combo[idx][0]
                idx += 1
            scores.append(v)
        top = max(scores)
        ties = [i for i, s in enumerate(scores) if s == top]
        rest = [s for i, s in enumerate(scores) if i not in ties]
        # highest losing score: the top itself when tied, else the second max
        e_loser = top if len(ties) > 1 else (max(rest) if rest else 0.0)
        plat_terms.append(prob * e_loser)
        soc_terms.append(prob * top)
        share = prob / len(ties)
        for i in ties:
            util_terms[i].append(share * (scores[i] - e_loser))
    return PayoffReport(
        advertisers=tuple(MeanSE(math.fsum(t), 0.0) for t in util_terms),
        platform=MeanSE(math.fsum(plat_terms), 0.0),
        social=MeanSE(math.fsum(soc_terms), 0.0),
    )


class DecompositionCheck(namedtuple(
    "DecompositionCheck", "advertiser direct gain_term loss_term residual"
)):
    """Advertiser payoff gain split into the two win-flip terms: draws
    the advertiser takes under OCPC but not CPC, and vice versa. Their
    sum matches the direct paired difference up to a mean-zero residual.
    advertiser: int; direct, gain_term, loss_term, residual: MeanSE."""

    __slots__ = ()


class OrderingSuite(namedtuple("OrderingSuite", "social platform advertisers decomposition")):
    """The paired OCPC - CPC differences of social welfare and of the
    platform's payoff (MeanSE each), of each advertiser's payoff
    (tuple[MeanSE, ...]), and each advertiser's decomposition
    (tuple[DecompositionCheck, ...])."""

    __slots__ = ()


def payoff_ordering_suite(
    game: Game,
    replications: int = 1_000_000,
    seed: int = 0,
) -> OrderingSuite:
    """Paired OCPC-vs-CPC comparison on one in-site two-advertiser game.

    Both arms see identical rate draws and tie uniforms. Reports the
    per-draw payoff differences (social, platform, per advertiser) with
    their standard errors, plus the win-flip decomposition of each
    advertiser's gain."""
    if game.n != 2:
        raise ValueError("the ordering suite is a two-advertiser comparison")

    def batch_fn(b_idx: int, size: int) -> dict:
        # only the paired differences are reduced: no arm's report is read
        settled = _settle_models(game, ("OCPC", "CPC"), seed, STREAM_ORDERINGS, b_idx, size)
        s, t = settled["OCPC"], settled["CPC"]
        out = {"dS": s.social - t.social, "dP": s.platform - t.platform}
        for i in range(2):
            du = s.utils[i] - t.utils[i]
            # draws i wins only under OCPC, and only under CPC; each term is
            # the OCPC winner's gap on those draws
            gain = np.where(t.winner != i, s.utils[i], 0.0)
            loss = np.where(t.winner == i, s.utils[1 - i], 0.0)
            out["du", i] = du
            out["g", i] = gain
            out["l", i] = loss
            out["r", i] = du - gain - loss
        return out

    est = estimate(replications, batch_fn)
    return OrderingSuite(
        social=est["dS"],
        platform=est["dP"],
        advertisers=tuple(est["du", i] for i in range(2)),
        decomposition=tuple(
            DecompositionCheck(i, *(est[k, i] for k in ("du", "g", "l", "r"))) for i in range(2)
        ),
    )
