"""Theoretical strategies and their Monte-Carlo verification.

The dominant bid under every pricing model has the same shape: quote
the expected value of one bid-depth event, b* = m x product of the
mean rates deeper than the bid depth. Bidding per conversion (CPA,
OCPC, OCPM) that is b* = m; per click (CPC) it is m x mean conversion
rate; per cart (CPSC) it is m x mean conversion-after-cart rate; per
impression (CPM) it is m x product of all mean rates.

Out-site, conversion reporting changes the picture. Under OCPC the
platform charges per click and the value is the true conversion, so at
a fixed platform belief no auction outcome depends on the reporting
rate alpha, and truth-telling (alpha=1, b=m) is an optimum. Under CPA
every advertiser gains by underreporting a bit more than the
platform's learned reporting factor while inflating the bid to
compensate, so no equilibrium exists; cpa_collapse simulates that
spiral with a one-round belief lag until reporting effectively stops
and the platform's revenue hits zero. The reporting claim is checked
on the scalar engine, not here.

best_response_scan verifies dominance numerically at truthful play: it
sweeps a bid grid against fixed rival equivalent bids with common
random numbers and checks that the theoretical bid is within 3
standard errors of the grid maximum everywhere. Bid b wins a draw when x * b beats the
rival, x being the draw's product of rates up to the bid depth; that is
monotone in x for b >= 0, so every bid wins on an upper tail of a
batch's sorted draws. One sort, one win boundary per bid and suffix sums
of the utility then give every grid bid's moments, at a cost that does
not grow with the product of draws and grid size.

The result records (FixtureScan, DominanceReport, CollapseRound,
CollapseTrace) are immutable typing.NamedTuples: besides their named
fields they can be unpacked and indexed, and each compares equal to the
plain tuple of its fields.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import Game, PricingModel, Scenario, Strategy, EventChain
from .sampling import (
    BATCH_SIZE,
    STREAM_COLLAPSE,
    STREAM_FIXTURES,
    STREAM_UTILITY,
    batch_rng,
    draw_rates,
    estimate,
    MeanSE,
    rate_role,
    run_batched,
    settle,
    tie_uniforms,
    winner_utilities,
)

__all__ = [
    "NoEquilibrium",
    "NO_EQUILIBRIUM",
    "DominanceReport",
    "FixtureScan",
    "CollapseRound",
    "CollapseTrace",
    "theoretical_strategy",
    "equilibrium_fixture_bids",
    "best_response_scan",
    "cpa_collapse",
]


class NoEquilibrium:
    """Marker: the model/scenario pair admits no equilibrium strategy."""

    def __repr__(self):
        return "NoEquilibrium"


NO_EQUILIBRIUM = NoEquilibrium()


def _bid_event_value(spec, bid_depth: int, chain: EventChain) -> float:
    """The expected value of one bid-depth event: m x the mean rates
    deeper than bid_depth, multiplied in depth order."""
    b = spec.m
    means = spec.rate_means()
    for d in range(bid_depth + 1, chain.conversion_depth + 1):
        b *= means[d - 1]
    return b


def theoretical_strategy(
    model: PricingModel, scenario: Scenario, spec, chain: EventChain
) -> Strategy | NoEquilibrium:
    """Equilibrium play for one advertiser, or NO_EQUILIBRIUM (CPA out-site)."""
    if scenario.is_out_site and model.name == "CPA":
        return NO_EQUILIBRIUM
    return Strategy(bid=_bid_event_value(spec, model.bid_depth, chain), alpha=1.0)


def equilibrium_fixture_bids(
    game: Game,
    multipliers=(0.25, 0.5, 1.0, 2.0),
    replications: int = 200_000,
    seed: int = 0,
) -> tuple[list[float], ...]:
    """Rival equivalent-bid fixtures, one list per advertiser i: multiples
    of E[e^{-i}], the mean of the highest rival equivalent bid when
    rivals play theoretically. Closed form from moments for one rival;
    otherwise one Monte-Carlo pass whose draws serve every advertiser."""
    if game.n < 2:
        raise ValueError("fixtures need at least one rival")
    bd = game.model.bid_depth
    strats = [theoretical_strategy(game.model, game.scenario, s, game.chain) for s in game.specs]
    if any(s is NO_EQUILIBRIUM for s in strats):
        raise ValueError(f"{game.model.name}/{game.scenario.kind} has no equilibrium bid")
    bids = [s.bid for s in strats]

    if game.n == 2:
        # same operation order as the engine's per-impression conversion,
        # so the reduction reproduces its output bitwise
        bases = [bids[k] * math.prod(game.specs[k].rate_means()[:bd]) for k in (1, 0)]
    else:
        def batch_fn(b_idx: int, size: int) -> dict:
            rates = draw_rates(game, seed, STREAM_FIXTURES, b_idx, size)
            e = [bids[k] * np.prod(rates[k, :bd, :], axis=0) for k in range(game.n)]
            out = {}
            for i in range(game.n):
                # a running maximum over the rival rows, in row order
                rivals = [row for k, row in enumerate(e) if k != i]
                top = np.maximum(rivals[0], rivals[1])
                for row in rivals[2:]:
                    np.maximum(top, row, out=top)
                out[i] = top
            return out

        est = estimate(replications, batch_fn)
        bases = [est[i].mean for i in range(game.n)]
    return tuple([m * base for m in multipliers] for base in bases)


class FixtureScan(NamedTuple):
    """Grid scan against one fixed rival equivalent bid."""

    rival_e: float
    utility_theory: float
    se_theory: float
    utilities: np.ndarray  # per grid bid
    argmax_index: int
    margin: float  # utility_theory - max grid utility
    se_margin: float  # paired SE of that difference
    passed: bool


class DominanceReport(NamedTuple):
    theory_bid: float
    theory_index: int  # nearest grid index to the theoretical bid
    fixtures: tuple[FixtureScan, ...]
    mean_curve: np.ndarray  # across-fixture average utility per grid bid
    argmax_index: int  # argmax of mean_curve (localization check)
    passed: bool


def _win_starts(x: np.ndarray, bids: np.ndarray, e: float) -> np.ndarray:
    """Per bid b >= 0, the first index k of ascending x with x[k] * b > e,
    so that b wins on exactly x[k:] (len(x) when it never wins).

    x -> x * b is monotone in floats, so the win set is an upper tail.
    searchsorted on e / b guesses its start to within rounding; the guess
    then steps over whole blocks of tied values until the float
    comparison the auction makes holds: x[k - 1] * b <= e < x[k] * b."""
    n = x.size
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.searchsorted(x, e / bids, side="right")
    while True:
        down = k > 0
        down[down] = x[k[down] - 1] * bids[down] > e
        if not down.any():
            break
        k[down] = np.searchsorted(x, x[k[down] - 1], side="left")
    while True:
        up = k < n
        up[up] = ~(x[k[up]] * bids[up] > e)
        if not up.any():
            return k
        k[up] = np.searchsorted(x, x[k[up]], side="right")


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """out[k] = v[k:].sum() for k = 0..len(v); out[len(v)] = 0. The
    running sum of reversed v is written straight into out[:n] read
    backwards."""
    n = v.size
    out = np.empty(n + 1, dtype=np.float64)
    np.cumsum(v[::-1], out=out[:n][::-1])
    out[n] = 0.0
    return out


def best_response_scan(
    i: int,
    grid,
    rival_es,
    game: Game,
    theoretical: float,
    replications: int = 100_000,
    seed: int = 0,
) -> DominanceReport:
    """Sweep candidate bids of advertiser i, played truthfully, against
    each rival fixture with common random numbers and test the
    theoretical bid for dominance.

    Pass rule, per fixture: no grid bid b beats the theoretical bid, that
    is no paired difference utility(theoretical) - utility(b) lies below 0
    by MeanSE's ordering rule (a NaN from overflowed sums fails). The
    localization argmax is reported on the across-fixture mean curve
    (extreme fixtures produce flat always-win or never-win stretches
    where a per-fixture argmax is meaningless).

    Each batch sorts its bid-depth rate products x once. Bid b wins
    against fixture e on an upper tail x[k:] (see _win_starts), so
    suffix sums of the utility w and of w^2 give every bid's sums, and
    the draws on which a grid bid and the theoretical bid disagree form
    the contiguous range between their win starts.

    The game enters only through advertiser i's rate laws and the bid
    depth, so models of equal bid depth give equal reports."""
    grid = np.asarray(list(grid), dtype=np.float64)
    rival_es = [float(x) for x in rival_es]
    if grid.size == 0 or not rival_es:
        raise ValueError("grid and rival_es must be nonempty")
    spec = game.specs[i]
    bd = game.model.bid_depth
    # the win event and the payment depend only on rates up to the bid
    # depth, so the deeper rates enter the value at their means: the
    # expectation is unchanged and their sampling noise is gone
    value = _bid_event_value(spec, bd, game.chain)

    # last evaluation column holds the theoretical bid
    bids = np.append(grid, theoretical)
    if not np.all(bids >= 0.0):
        raise ValueError("bids must be >= 0")
    th = bids.size - 1

    def batch_fn(b_idx: int, size: int) -> dict:
        x = np.ones(size, dtype=np.float64)
        for d in range(1, bd + 1):
            rng = batch_rng(seed, STREAM_UTILITY, b_idx, rate_role(i, d))
            x *= spec.rate(d).sample(rng, size)
        x.sort()
        out: dict = {}
        for f_idx, e_k in enumerate(rival_es):
            k = _win_starts(x, bids, e_k)
            w = value * x - e_k
            s1, s2 = _suffix_sums(w), _suffix_sums(w * w)
            out[f"s{f_idx}"] = s1[k]
            out[f"q{f_idx}"] = s2[k[th]]  # only the theoretical bid's SE is read
            # paired squared differences against the theory column: the
            # draws between the two win starts
            out[f"d{f_idx}"] = np.abs(s2[k] - s2[k[th]])
        return out

    tot = run_batched(replications, batch_fn)

    n = replications
    fixtures = []
    for f_idx, e_k in enumerate(rival_es):
        s, q, dsq = tot[f"s{f_idx}"], tot[f"q{f_idx}"], tot[f"d{f_idx}"]
        means = s / n
        u_th = means[th]
        se_th = np.sqrt(max(q / n - u_th**2, 0.0) / max(n - 1, 1))
        u_grid = means[:-1]
        diff = u_th - u_grid
        var_d = np.maximum(dsq[:-1] / n - diff**2, 0.0)
        se_d = np.sqrt(var_d / max(n - 1, 1))
        # a NaN in the sums makes se_d NaN, which fails the fixture as >= did
        beaten = MeanSE(diff, se_d).beyond(positive=False) | np.isnan(se_d)
        ok = not beaten.any()
        amax = int(np.argmax(u_grid))
        fixtures.append(
            FixtureScan(
                rival_e=e_k,
                utility_theory=float(u_th),
                se_theory=float(se_th),
                utilities=u_grid,
                argmax_index=amax,
                margin=float(u_th - u_grid[amax]),
                se_margin=float(se_d[amax]),
                passed=ok,
            )
        )

    mean_curve = np.mean([f.utilities for f in fixtures], axis=0)
    return DominanceReport(
        theory_bid=float(theoretical),
        theory_index=int(np.argmin(np.abs(grid - theoretical))),
        fixtures=tuple(fixtures),
        mean_curve=mean_curve,
        argmax_index=int(np.argmax(mean_curve)),
        passed=all(f.passed for f in fixtures),
    )


class CollapseRound(NamedTuple):
    round: int
    alpha: float
    alpha_hat: float
    collapsed: bool
    revenue: MeanSE
    utilities: tuple[MeanSE, ...]
    winner_share: tuple[float, ...]


class CollapseTrace(NamedTuple):
    rounds: tuple[CollapseRound, ...]


def cpa_collapse(
    game: Game,
    rounds: int,
    decay: float,
    replications: int = 10_000,
    seed: int = 0,
    threshold: float = 1e-3,
) -> CollapseTrace:
    """Out-site CPA reporting spiral with a one-round belief lag.

    Round t: the platform believes last round's observed reporting rate
    (alpha_hat=1 at t=0); every advertiser underreports to alpha =
    decay x alpha_hat and inflates its bid to m/alpha. Once alpha falls
    below the collapse threshold the platform can no longer attribute
    conversions: the winner is drawn uniformly, nothing is charged, and
    each of the N advertisers captures value/N per impression."""
    if game.model.name != "CPA" or not game.scenario.is_out_site:
        raise ValueError("cpa_collapse requires the CPA model out-site")
    if rounds < 2:
        raise ValueError("rounds must be >= 2")
    if not (0.0 < decay < 1.0):
        raise ValueError(f"decay must lie in (0, 1), got {decay}")
    # a round's draws are keyed t * round_stride + batch, so a round may
    # not use more batches than the stride
    round_stride = 1 << 20
    if -(-replications // BATCH_SIZE) > round_stride:
        raise ValueError(
            f"replications={replications} needs more than {round_stride} batches per round; "
            "the rounds' draw keys would alias"
        )
    ms = [spec.m for spec in game.specs]

    rows = []
    alpha_hat = 1.0
    for t in range(rounds):
        alpha = decay * alpha_hat
        collapsed = alpha < threshold

        def batch_fn(b_idx: int, size: int, _t=t, _ah=alpha_hat, _a=alpha, _c=collapsed):
            # fold the round into the batch index so rounds never share draws
            key = _t * round_stride + b_idx
            rates = draw_rates(game, seed, STREAM_COLLAPSE, key, size)
            values = np.stack(
                [ms[i] * np.prod(rates[i], axis=0) for i in range(game.n)], axis=0
            )
            u = tie_uniforms(seed, STREAM_COLLAPSE, key, size)
            if not _c:
                e = np.stack(
                    [(ms[i] / _a * _ah) * np.prod(rates[i], axis=0) for i in range(game.n)],
                    axis=0,
                )
                winner, _, e_loser = settle(e, u)
                payment = e_loser * (_a / _ah)
                won = values[winner, np.arange(size)]
                util = winner_utilities(winner, won - payment, game.n)
            else:
                # nothing is attributable: all scores tie at 0, so the winner
                # is uniform and the price is 0
                winner, _, payment = settle(np.zeros_like(values), u)
                util = values / game.n
            out = {"rev": payment}
            for i in range(game.n):
                out["u", i] = util[i]
                out["w", i] = winner == i
            return out

        est = estimate(replications, batch_fn)
        utils = tuple(est["u", i] for i in range(game.n))
        shares = tuple(est["w", i].mean for i in range(game.n))
        rows.append(
            CollapseRound(
                round=t,
                alpha=alpha,
                alpha_hat=alpha_hat,
                collapsed=collapsed,
                revenue=est["rev"],
                utilities=utils,
                winner_share=shares,
            )
        )
        alpha_hat = alpha
    return CollapseTrace(tuple(rows))
