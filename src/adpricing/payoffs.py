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
verified by payoff_ordering_suite: OCPC gives higher welfare, lower
platform payoff and higher advertiser payoffs than CPC.

Every Monte-Carlo estimate here has an independent exhaustive
enumeration twin for finite-discrete rate laws, used as the oracle in
tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import Distribution
from .model import Game, pricing_model
from .sampling import (
    SE_FACTOR,
    STREAM_MINMAX,
    STREAM_ORDERINGS,
    STREAM_PAYOFFS,
    MeanSE,
    batch_rng,
    draw_rates,
    estimate,
    settle,
    tie_uniforms,
)

__all__ = [
    "PayoffReport",
    "ValueLaw",
    "MinMaxReport",
    "OrderingResult",
    "OrderingSuite",
    "estimate_equilibrium_payoffs",
    "exact_equilibrium_payoffs",
    "expected_min_max",
    "payoff_ordering_suite",
]


@dataclass(frozen=True)
class PayoffReport:
    advertisers: tuple[MeanSE, ...]
    platform: MeanSE
    social: MeanSE
    method: str = "analytic-mc"
    conservation_residual: float = 0.0  # mean over draws of S - P - sum(utils)


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
    with degenerate laws produce bitwise identical scores."""
    n, _, size = rates.shape
    out = np.empty((n, size), dtype=np.float64)
    for i in range(n):
        v = np.full(size, game.specs[i].m, dtype=np.float64)
        for kind, x in _score_factors(game, model_name, i):
            if kind == "realized":
                v = v * rates[i, x - 1, :]
            else:
                v = v * x
        out[i] = v
    return out


class Settlement(NamedTuple):
    """One model's batch under theoretical play, per draw."""

    winner: np.ndarray | None
    utils: np.ndarray  # shape (n, size)
    platform: np.ndarray
    social: np.ndarray


def _settle_models(
    game: Game, names, seed: int, stream: int, b_idx: int, size: int
) -> dict[str, Settlement]:
    """One batch of theoretical play under every named model, all settled
    on the same rate draws and tie uniforms.

    CPA out-site has no equilibrium; it is settled as the collapsed
    regime: nothing is charged, the winner is uniform (winner None, it
    moves no payoff), and each of the N advertisers keeps value/N."""
    rates = draw_rates(game, seed, stream, b_idx, size)
    u = tie_uniforms(seed, stream, b_idx, size)
    n = game.n
    out = {}
    for name in names:
        if name == "CPA" and game.scenario.is_out_site:
            winner = None
            utils = _score_stack(game, "CPA", rates) / n  # full realized product
            platform = np.zeros(size)
            social = utils.sum(axis=0)
        else:
            winner, social, platform = settle(_score_stack(game, name, rates), u)
            utils = np.where(np.arange(n)[:, None] == winner, social - platform, 0.0)
        out[name] = Settlement(winner, utils, platform, social)
    return out


def _payoff_pass(game: Game, names, replications: int, seed: int, threads: int, paired=None):
    """One estimate pass over STREAM_PAYOFFS settling every named model;
    paired(settled) adds the caller's paired per-draw differences.
    Returns (reports by model, estimates by key)."""

    def batch_fn(b_idx: int, size: int) -> dict:
        settled = _settle_models(game, names, seed, STREAM_PAYOFFS, b_idx, size)
        out: dict = {}
        for name, arm in settled.items():
            out[name, "p"] = arm.platform
            out[name, "s"] = arm.social
            out[name, "resid"] = arm.social - arm.platform - arm.utils.sum(axis=0)
            for i in range(game.n):
                out[name, i] = arm.utils[i]
        if paired is not None:
            out.update(paired(settled))
        return out

    est = estimate(replications, batch_fn, threads=threads)
    reports = {
        name: PayoffReport(
            advertisers=tuple(est[name, i] for i in range(game.n)),
            platform=est[name, "p"],
            social=est[name, "s"],
            conservation_residual=est[name, "resid"].mean,
        )
        for name in names
    }
    return reports, est


def estimate_equilibrium_payoffs(
    game: Game,
    replications: int = 1_000_000,
    seed: int = 0,
    models=None,
    threads: int = 1,
) -> dict[str, PayoffReport]:
    """Monte-Carlo payoffs per impression with every advertiser playing
    its theoretical strategy, one report per model in models (default:
    the game's posted model) under the game's scenario.

    Every model is settled on the same per-batch rate draws and tie
    uniforms, keyed by (seed, stream, batch, advertiser, depth) and never
    by the model, so the reports are exact common-random-number pairs.
    CPA out-site reports the collapsed regime (see _settle_models)."""
    names = [game.model.name] if models is None else models
    return _payoff_pass(game, names, replications, seed, threads)[0]


def _law_atoms(dist: Distribution) -> list[tuple[float, float]]:
    if not dist.is_finite_discrete():
        raise ValueError(f"exhaustive enumeration needs finite-discrete laws, got {dist!r}")
    return dist.atoms()


def exact_equilibrium_payoffs(game: Game) -> PayoffReport:
    """Exhaustive-enumeration twin of estimate_equilibrium_payoffs for
    finite-discrete rate laws (the brute-force oracle). Ties at the top
    score split the win uniformly, exactly."""
    n = game.n
    collapse_regime = game.model.name == "CPA" and game.scenario.is_out_site
    if collapse_regime:
        # closed form: value means need no enumeration
        vals = [spec.m * math.prod(spec.rate_means()) for spec in game.specs]
        utils = [v / n for v in vals]
        return PayoffReport(
            advertisers=tuple(MeanSE(u, 0.0, 0) for u in utils),
            platform=MeanSE(0.0, 0.0, 0),
            social=MeanSE(math.fsum(utils), 0.0, 0),
            method="exhaustive",
        )

    per_cell = []  # one (advertiser, atom list) per (advertiser, depth) cell
    for i in range(n):
        for d, (kind, x) in enumerate(_score_factors(game, game.model.name, i), start=1):
            if kind == "realized":
                per_cell.append((i, _law_atoms(game.specs[i].rate(d))))
            else:
                per_cell.append((i, [(x, 1.0)]))

    util_terms = [[] for _ in range(n)]
    plat_terms, soc_terms = [], []
    for combo in itertools.product(*[atoms for _, atoms in per_cell]):
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
        advertisers=tuple(MeanSE(math.fsum(t), 0.0, 0) for t in util_terms),
        platform=MeanSE(math.fsum(plat_terms), 0.0, 0),
        social=MeanSE(math.fsum(soc_terms), 0.0, 0),
        method="exhaustive",
    )


@dataclass(frozen=True)
class ValueLaw:
    """Law of one advertiser's per-impression value: m x product of
    independent factors."""

    m: float
    factors: tuple[Distribution, ...]

    def atoms(self) -> list[tuple[float, float]]:
        out = [(self.m, 1.0)]
        for f in self.factors:
            out = [(v * av, p * ap) for v, p in out for av, ap in f.atoms()]
        return out

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        v = np.full(size, self.m, dtype=np.float64)
        for f in self.factors:
            v = v * f.sample(rng, size)
        return v


@dataclass(frozen=True)
class MinMaxReport:
    e_min: MeanSE
    e_max: MeanSE
    method: str


def expected_min_max(
    laws,
    replications: int | None = None,
    seed: int = 0,
    exhaustive: bool = False,
) -> MinMaxReport:
    """E[min] and E[max] across independent per-advertiser value laws.
    Exhaustive enumeration when requested (all laws finite-discrete),
    Monte-Carlo otherwise."""
    laws = list(laws)
    if len(laws) < 2:
        raise ValueError("expected_min_max needs at least 2 laws")
    if exhaustive:
        min_terms, max_terms = [], []
        for combo in itertools.product(*[law.atoms() for law in laws]):
            prob = math.prod(p for _, p in combo)
            vals = [v for v, _ in combo]
            min_terms.append(prob * min(vals))
            max_terms.append(prob * max(vals))
        return MinMaxReport(
            MeanSE(math.fsum(min_terms), 0.0, 0),
            MeanSE(math.fsum(max_terms), 0.0, 0),
            "exhaustive",
        )
    if replications is None:
        replications = 1_000_000

    def batch_fn(b_idx: int, size: int) -> dict:
        draws = np.stack(
            [
                law.sample(batch_rng(seed, STREAM_MINMAX, b_idx, j), size)
                for j, law in enumerate(laws)
            ],
            axis=0,
        )
        return {"lo": draws.min(axis=0), "hi": draws.max(axis=0)}

    est = estimate(replications, batch_fn)
    return MinMaxReport(est["lo"], est["hi"], "mc")


@dataclass(frozen=True)
class OrderingResult:
    name: str
    delta: MeanSE  # paired per-draw difference
    holds: bool  # right sign with the SE-factor margin


def _ordering(name: str, delta: MeanSE, positive: bool = True) -> OrderingResult:
    """The ordering verdict: delta lies beyond SE_FACTOR x SE in the wanted
    direction. Degenerate laws make both arms identical, so an exact zero
    counts as held."""
    margin = SE_FACTOR * delta.se
    holds = delta.mean > margin if positive else delta.mean < -margin
    return OrderingResult(name, delta, holds or (delta.mean == 0.0 and delta.se == 0.0))


@dataclass(frozen=True)
class DecompositionCheck:
    """Advertiser payoff gain split into the two win-flip terms: draws
    the advertiser takes under OCPC but not CPC, and vice versa. Their
    sum matches the direct paired difference up to a mean-zero residual."""

    advertiser: int
    direct: MeanSE
    gain_term: MeanSE
    loss_term: MeanSE
    residual: MeanSE
    consistent: bool


@dataclass(frozen=True)
class OrderingSuite:
    social: OrderingResult
    platform: OrderingResult
    advertisers: tuple[OrderingResult, ...]
    decomposition: tuple[DecompositionCheck, ...]
    passed: bool


def payoff_ordering_suite(
    game: Game,
    replications: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
) -> OrderingSuite:
    """Paired OCPC-vs-CPC comparison on one in-site two-advertiser game.

    Both arms see identical rate draws and tie uniforms. Reports the
    per-draw payoff differences (social, platform, per advertiser) with
    their standard errors, plus the win-flip decomposition of each
    advertiser's gain."""
    if game.n != 2:
        raise ValueError("the ordering suite is a two-advertiser comparison")

    def batch_fn(b_idx: int, size: int) -> dict:
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

    est = estimate(replications, batch_fn, threads=threads)

    advs, decomps = [], []
    for i in range(2):
        du, gain, loss, resid = (est[k, i] for k in ("du", "g", "l", "r"))
        advs.append(_ordering(f"advertiser_{i}_payoff_higher", du))
        decomps.append(
            DecompositionCheck(
                advertiser=i,
                direct=du,
                gain_term=gain,
                loss_term=loss,
                residual=resid,
                consistent=abs(resid.mean) <= SE_FACTOR * max(resid.se, 0.0)
                or resid.mean == 0.0,
            )
        )
    social = _ordering("social_welfare_higher", est["dS"])
    platform = _ordering("platform_payoff_lower", est["dP"], positive=False)
    passed = (
        social.holds
        and platform.holds
        and all(a.holds for a in advs)
        and all(d.consistent for d in decomps)
    )
    return OrderingSuite(
        social=social,
        platform=platform,
        advertisers=tuple(advs),
        decomposition=tuple(decomps),
        passed=passed,
    )
