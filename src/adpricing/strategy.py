"""Theoretical strategies and their Monte-Carlo verification.

The dominant bid under every pricing model has the same shape: quote
the expected value of one bid-depth event, b* = m x product of the
mean rates deeper than the bid depth. Bidding per conversion (CPA,
OCPC, OCPM) that is b* = m; per click (CPC) it is m x mean conversion
rate; per cart (CPSC) it is m x mean conversion-after-cart rate; per
impression (CPM) it is m x product of all mean rates.

Out-site, conversion reporting changes the picture. Under OCPC the
platform charges per click, so underreporting only rescales the
effective bid: utility depends on alpha x bid alone and truth-telling
(alpha=1, b=m) is the canonical optimum. Under CPA every advertiser
gains by underreporting a bit more than the platform's learned
reporting factor while inflating the bid to compensate, so no
equilibrium exists; cpa_collapse simulates that spiral with a
one-round belief lag until reporting effectively stops and the
platform's revenue hits zero.

best_response_scan verifies dominance numerically: it sweeps a bid
grid against fixed rival equivalent bids with common random numbers
and checks that the theoretical bid is within 3 standard errors of
the grid maximum everywhere. Bid b wins a draw when x * b beats the
rival, x being the draw's product of rates up to the bid depth; that is
monotone in x for b >= 0, so every bid wins on an upper tail of a
batch's sorted draws. One sort, one win boundary per bid and suffix sums
of the utility then give every grid bid's moments, at a cost that does
not grow with the product of draws and grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Game, PlatformBelief, PricingModel, Scenario, Strategy, EventChain
from .engine import _manip_factor
from .sampling import (
    BATCH_SIZE,
    SE_FACTOR,
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
)

__all__ = [
    "NoEquilibrium",
    "NO_EQUILIBRIUM",
    "DominanceReport",
    "FixtureScan",
    "CollapseRound",
    "CollapseTrace",
    "ReportingInvariance",
    "theoretical_strategy",
    "equilibrium_fixture_bids",
    "best_response_scan",
    "cpa_collapse",
    "ocpc_reporting_invariance",
]


class NoEquilibrium:
    """Marker: the model/scenario pair admits no equilibrium strategy."""

    def __repr__(self):
        return "NoEquilibrium"


NO_EQUILIBRIUM = NoEquilibrium()


def theoretical_strategy(
    model: PricingModel, scenario: Scenario, spec, chain: EventChain
) -> Strategy | NoEquilibrium:
    """Equilibrium play for one advertiser, or NO_EQUILIBRIUM (CPA out-site)."""
    if scenario.is_out_site and model.name == "CPA":
        return NO_EQUILIBRIUM
    b = spec.m
    means = spec.rate_means()
    for d in range(model.bid_depth + 1, chain.conversion_depth + 1):
        b *= means[d - 1]
    return Strategy(bid=b, alpha=1.0)


def _utility_coefficients(game: Game, i: int, alpha: float, alpha_hat: float):
    """Scalars of advertiser i's utility in the dominance scan.

    Returns (bid manipulation factor, payment ratio, value multiplier).
    Funnel depths deeper than the bid depth are integrated out
    analytically: the win event and the payment depend only on rates up
    to bid_depth, so replacing deeper realized rates by their means in
    the value term leaves the expectation unchanged and removes their
    sampling noise."""
    spec = game.specs[i]
    bd, pd = game.model.bid_depth, game.model.pay_depth
    bid_manip = _manip_factor(game, alpha_hat, bd)
    pay_predicted = _manip_factor(game, alpha_hat, pd)
    if pay_predicted == 0.0:
        raise ValueError("platform belief alpha_hat=0 at a charged conversion depth")
    pay_ratio = _manip_factor(game, alpha, pd) / pay_predicted
    value_mul = spec.m
    means = spec.rate_means()
    for d in range(bd + 1, game.chain.conversion_depth + 1):
        value_mul *= means[d - 1]
    return bid_manip, pay_ratio, value_mul


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
            e = np.stack([bids[k] * np.prod(rates[k, :bd, :], axis=0) for k in range(game.n)])
            return {i: np.delete(e, i, axis=0).max(axis=0) for i in range(game.n)}

        est = estimate(replications, batch_fn)
        bases = [est[i].mean for i in range(game.n)]
    return tuple([m * base for m in multipliers] for base in bases)


@dataclass(frozen=True)
class FixtureScan:
    """Grid scan against one fixed rival equivalent bid."""

    rival_e: float
    utility_theory: float
    se_theory: float
    utilities: np.ndarray  # per grid bid
    argmax_index: int
    margin: float  # utility_theory - max grid utility
    se_margin: float  # paired SE of that difference
    passed: bool


@dataclass(frozen=True)
class DominanceReport:
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
    """out[k] = v[k:].sum() for k = 0..len(v); out[len(v)] = 0."""
    return np.append(np.cumsum(v[::-1])[::-1], 0.0)


def best_response_scan(
    i: int,
    grid,
    rival_es,
    game: Game,
    belief: PlatformBelief | None = None,
    replications: int = 100_000,
    seed: int = 0,
    threads: int = 1,
    theoretical: float | None = None,
    alpha: float = 1.0,
) -> DominanceReport:
    """Sweep candidate bids against each rival fixture with common random
    numbers and test the theoretical bid for dominance.

    Pass rule, per fixture: utility(theoretical) >= utility(b) minus
    SE_FACTOR x the paired standard error, for every grid bid b. The
    localization argmax is reported on the across-fixture mean curve
    (extreme fixtures produce flat always-win or never-win stretches
    where a per-fixture argmax is meaningless).

    Each batch sorts its bid-depth rate products x once. Bid b wins
    against fixture e on an upper tail x[k:] (see _win_starts), so
    suffix sums of the utility w and of w^2 give every bid's sums, and
    the draws on which a grid bid and the theoretical bid disagree form
    the contiguous range between their win starts.

    theoretical overrides the derived equilibrium bid (negative controls)."""
    grid = np.asarray(list(grid), dtype=np.float64)
    rival_es = [float(x) for x in rival_es]
    if grid.size == 0 or not rival_es:
        raise ValueError("grid and rival_es must be nonempty")
    spec = game.specs[i]
    bd = game.model.bid_depth
    if not game.scenario.is_out_site:
        alpha = 1.0
    alpha_hat = belief.alpha_hat[i] if belief is not None else 1.0
    if theoretical is None:
        strat = theoretical_strategy(game.model, game.scenario, spec, game.chain)
        if isinstance(strat, NoEquilibrium):
            raise ValueError("no theoretical bid exists for this model/scenario")
        theoretical = strat.bid
    bid_manip, pay_ratio, value_mul = _utility_coefficients(game, i, alpha, alpha_hat)

    # last evaluation column holds the theoretical bid
    bids_eval = np.append(grid, theoretical) * bid_manip
    if not np.all(bids_eval >= 0.0):
        raise ValueError("bids must be >= 0")
    th = bids_eval.size - 1

    def batch_fn(b_idx: int, size: int) -> dict:
        x = np.ones(size, dtype=np.float64)
        for d in range(1, bd + 1):
            rng = batch_rng(seed, STREAM_UTILITY, b_idx, rate_role(i, d))
            x *= spec.rate(d).sample(rng, size)
        x.sort()
        out: dict = {}
        for f_idx, e_k in enumerate(rival_es):
            k = _win_starts(x, bids_eval, e_k)
            w = value_mul * x - e_k * pay_ratio
            s1, s2 = _suffix_sums(w), _suffix_sums(w * w)
            out[f"s{f_idx}"] = s1[k]
            out[f"q{f_idx}"] = s2[k[th]]  # only the theoretical bid's SE is read
            # paired squared differences against the theory column: the
            # draws between the two win starts
            out[f"d{f_idx}"] = np.abs(s2[k] - s2[k[th]])
        return out

    tot = run_batched(replications, batch_fn, threads=threads)

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
        ok = bool(np.all(diff >= -SE_FACTOR * se_d))
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


@dataclass(frozen=True)
class CollapseRound:
    round: int
    alpha: float
    alpha_hat: float
    collapsed: bool
    revenue: MeanSE
    utilities: tuple[MeanSE, ...]
    winner_share: tuple[float, ...]


@dataclass(frozen=True)
class CollapseTrace:
    rounds: tuple[CollapseRound, ...]


def cpa_collapse(
    game: Game,
    rounds: int,
    decay: float,
    replications: int = 10_000,
    seed: int = 0,
    threshold: float = 1e-3,
    threads: int = 1,
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
                util = np.where(
                    np.arange(game.n)[:, None] == winner[None, :], values - payment[None, :], 0.0
                )
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

        est = estimate(replications, batch_fn, threads=threads)
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


@dataclass(frozen=True)
class ReportingInvariance:
    max_rel_diff: float
    passed: bool


def ocpc_reporting_invariance(
    i: int,
    alpha: float,
    bid: float,
    game: Game,
    seed: int = 0,
    replications: int = 100_000,
    rel_tol: float = 1e-12,
) -> ReportingInvariance:
    """Out-site OCPC: playing (bid, alpha) against a platform that has
    learned alpha is utility-identical to truthfully playing alpha x bid.
    Checked under common random numbers at several rival fixtures: one
    one-bid scan per arm, compared on the scanned bid's utility."""
    if game.model.name != "OCPC" or not game.scenario.is_out_site:
        raise ValueError("reporting invariance is an out-site OCPC statement")
    fixtures = equilibrium_fixture_bids(game, multipliers=(0.5, 1.0, 2.0), seed=seed)[i]
    belief_scaled = PlatformBelief(
        tuple(alpha if k == i else 1.0 for k in range(game.n))
    )
    scaled = best_response_scan(
        i, [bid], fixtures, game, belief_scaled, replications, seed,
        theoretical=bid, alpha=alpha,
    ).fixtures
    truthful = best_response_scan(
        i, [alpha * bid], fixtures, game, None, replications, seed,
        theoretical=alpha * bid,
    ).fixtures
    worst = 0.0
    for a, b in zip(scaled, truthful):
        scale = max(abs(a.utility_theory), abs(b.utility_theory))
        if scale > 0:
            worst = max(worst, abs(a.utility_theory - b.utility_theory) / scale)
    return ReportingInvariance(
        max_rel_diff=worst,
        passed=worst <= rel_tol,
    )
