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
and the platform's revenue hits zero. Along the spiral every equivalent
bid is the in-site CPA score times one common factor alpha_hat/alpha,
which the charge e_loser x alpha/alpha_hat takes back out, so every
round goes through payoffs._settle_models: as in-site CPA before the
collapse, in its collapsed CPA out-site regime after. The reporting
claim is checked on the scalar engine, not here.

best_response_scan measures dominance numerically at truthful play: it
sweeps a bid grid against fixed rival equivalent bids with common
random numbers and reports, per fixture, the theoretical bid's utility
minus each grid bid's with the paired SE, which the dominance study
judges. Bid b wins a draw when x * b beats the rival, x being the
draw's product of rates up to the bid depth; that is monotone in x for
b >= 0, so every bid wins on an upper tail of a batch's sorted draws.
One sort and one win start per bid, then sums of the utility, shifted
by its value at the mean rates, read only at those few starts give
every grid bid's moments, at a cost that does not grow with the
product of draws and grid size. The rival fixtures the scans run
against are closed form, multiples of the strongest rival's mean
equivalent bid, and draw nothing.

The result records (FixtureScan, DominanceReport, CollapseRound) are
immutable collections.namedtuple subclasses: besides their named fields
they can be unpacked and indexed, and each compares equal to the plain
tuple of its fields.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .model import Game, Strategy, EventChain, in_site
from .payoffs import _settle_models
from .sampling import (
    BATCH_SIZE,
    STREAM_COLLAPSE,
    STREAM_UTILITY,
    batch_rng,
    estimate,
    MeanSE,
    rate_role,
    run_batched,
)

__all__ = [
    "DominanceReport",
    "FixtureScan",
    "CollapseRound",
    "theoretical_play",
    "equilibrium_fixture_bids",
    "best_response_scan",
    "cpa_collapse",
]


def _bid_event_value(spec, bid_depth: int, chain: EventChain) -> float:
    """The expected value of one bid-depth event: m x the mean rates
    deeper than bid_depth, multiplied in depth order."""
    b = spec.m
    means = spec.rate_means()
    for d in range(bid_depth + 1, chain.conversion_depth + 1):
        b *= means[d - 1]
    return b


def theoretical_play(game: Game) -> tuple[Strategy, ...] | None:
    """Every advertiser's equilibrium play under the game's model and
    scenario, truthful reporting at the value of one bid-depth event, or
    None for CPA out-site, which has no equilibrium."""
    if game.scenario.is_out_site and game.model.name == "CPA":
        return None
    bd = game.model.bid_depth
    return tuple(Strategy(bid=_bid_event_value(s, bd, game.chain), alpha=1.0) for s in game.specs)


def equilibrium_fixture_bids(
    game: Game,
    multipliers=(0.25, 0.5, 1.0, 2.0),
    models=None,
) -> dict[str, tuple[list[float], ...]]:
    """Rival equivalent-bid fixtures per model in models (default: the
    game's posted model) under the game's scenario: one list per
    advertiser i of multiples of the strongest rival's mean equivalent
    bid, the maximum over rivals k != i of b_k x the product of k's mean
    rates up to the bid depth, b_k being k's theoretical bid.

    The closed form draws nothing. Against a fixed rival e the
    theoretical bid earns max(0, its draw's value - e) on every draw, so
    it beats every other bid whatever e is, and a fixture only sets the
    level at which the scan probes. Models of equal bid depth share their
    fixtures."""
    if game.n < 2:
        raise ValueError("fixtures need at least one rival")
    out = {}
    for name in [game.model.name] if models is None else models:
        g = game.with_model(name)
        play = theoretical_play(g)
        if play is None:
            raise ValueError(f"{name}/{game.scenario.kind} has no equilibrium bid")
        bd = g.model.bid_depth
        # same operation order as the engine's per-impression conversion,
        # so at multiplier 1 a fixture is its equivalent bid bitwise
        es = [s.bid * math.prod(spec.rate_means()[:bd]) for s, spec in zip(play, game.specs)]
        out[name] = tuple(
            [m * max(e for k, e in enumerate(es) if k != i) for m in multipliers]
            for i in range(game.n)
        )
    return out


class FixtureScan(namedtuple(
    "FixtureScan", "rival_e utility_theory se_theory utilities argmax_index gap"
)):
    """Grid scan against one fixed rival equivalent bid. rival_e,
    utility_theory, se_theory: float; utilities: np.ndarray, per grid bid;
    argmax_index: int, argmax of utilities; gap: MeanSE of arrays, per grid
    bid utility_theory minus its utility and the paired SE of that
    difference (NaN from overflowed sums)."""

    __slots__ = ()


class DominanceReport(namedtuple(
    "DominanceReport", "theory_bid theory_index fixtures mean_curve argmax_index"
)):
    """theory_bid: float; theory_index: int, nearest grid index to the
    theoretical bid; fixtures: tuple[FixtureScan, ...]; mean_curve:
    np.ndarray, across-fixture average utility per grid bid; argmax_index:
    int, argmax of mean_curve (localization check)."""

    __slots__ = ()


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


def _tail_sums(k: np.ndarray, *vs: np.ndarray) -> list[np.ndarray]:
    """Per array v of vs (all of one length n), out[j] = v[k[j]:].sum()
    for descending starts n >= k[0] >= k[1] >= ... >= 0, as ascending
    bids' win starts are; a start at n sums nothing, to 0.

    Comparing neighbours de-duplicates the starts, which read backwards
    ascend, so np.add.reduceat sums each segment between consecutive
    starts once; a running sum over those few segment sums, from the
    top, gives each distinct start its tail. Draws below the lowest start
    are never read."""
    n = vs[0].size
    first = np.empty(k.size, dtype=bool)
    first[:1] = True
    np.not_equal(k[1:], k[:-1], out=first[1:])
    starts = k[first][::-1]
    if starts.size and starts[-1] == n:
        starts = starts[:-1]
    at = np.searchsorted(starts, k)  # each start's segment; n maps past the last
    out = []
    for v in vs:
        tail = np.zeros(starts.size + 1)
        if starts.size:
            np.cumsum(np.add.reduceat(v, starts)[::-1], out=tail[:-1][::-1])
        out.append(tail[at])
    return out


def _set_variance(cnt, s, q, c: float, n: int):
    """Per-draw variance of a utility that is w on a set of cnt of the n
    draws and 0 elsewhere, from the set's sums of the shifted utility,
    s = sum(w - c) and q = sum((w - c)^2): the spread inside the set plus
    the Bernoulli spread of the set's mean. So a set on which w is c
    throughout, and a set that is empty or every draw while w is constant
    on it, give exactly 0."""
    # an empty set's sums are 0, or NaN from overflowed sums, which is kept
    per = np.maximum(cnt, 1)
    mean = c + s / per
    p = cnt / n
    return np.maximum((q - s * s / per) / n, 0.0) + p * (1.0 - p) * (mean * mean)


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
    each rival fixture with common random numbers, and report per fixture
    the gap utility(theoretical) - utility(b) of every grid bid b with its
    paired SE. The localization argmax is reported on the across-fixture
    mean curve (extreme fixtures produce flat always-win or never-win
    stretches where a per-fixture argmax is meaningless).

    A won draw pays w = value x x - e against fixture e, x being the
    draw's product of rates up to the bid depth. Each batch sorts x once;
    bid b wins against e on an upper tail x[k:] (see _win_starts), so the
    grid, which must ascend, and the theoretical bid in its place have
    descending win starts. Every sum is taken of the shifted utility
    w - c, with c = value x mu - e the utility at the mean rates mu, and
    w - c = value x (x - mu) whatever the fixture: so one array and its
    square per batch serve every fixture, whose partial is, per bid, the
    win count and those arrays' tail sums read at the win starts
    (_tail_sums), and c enters only the merge.
    The draws on which a grid bid and the theoretical bid disagree form
    the contiguous band between their win starts, whose sums are the
    differences of the two columns' sums. Each SE is the spread inside
    its set plus the Bernoulli spread of the set's mean (_set_variance):
    a point law or bid depth 0 reports SEs of exactly 0, and a bid that
    always wins the per-draw utility exactly.

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
    # value x the rates' mean product mu, multiplied in the depth order x is
    value_mu = value * math.prod(spec.rate_means()[:bd])

    if not (np.all(grid >= 0.0) and theoretical >= 0.0):
        raise ValueError("bids must be >= 0")
    if np.any(grid[1:] < grid[:-1]):
        raise ValueError("grid must ascend")
    # the theoretical bid takes its place in the ascending grid, so the
    # evaluated bids ascend and every batch's win starts descend
    th = int(np.searchsorted(grid, theoretical))
    bids = np.concatenate((grid[:th], [theoretical], grid[th:]))
    on_grid = np.arange(bids.size) != th
    # a lower bid wins on a subset of the theoretical bid's draws, so its
    # band's sums are the theory column's minus its own: negated together,
    # which leaves every term of the band's variance unchanged
    side = 1.0 - 2.0 * (grid < theoretical)

    def batch_fn(b_idx: int, size: int) -> dict:
        x = np.ones(size, dtype=np.float64)
        for d in range(1, bd + 1):
            rng = batch_rng(seed, STREAM_UTILITY, b_idx, rate_role(i, d))
            x *= spec.rate(d).sample(rng, size)
        x.sort()
        # a won draw's shifted utility, the same against every fixture
        y = value * x
        y -= value_mu
        yy = y * y
        out = {}
        for f_idx, e_k in enumerate(rival_es):
            k = _win_starts(x, bids, e_k)
            out["n", f_idx] = size - k
            out["s", f_idx], out["q", f_idx] = _tail_sums(k, y, yy)
        return out

    tot = run_batched(replications, batch_fn)

    n = replications
    fixtures = []
    for f_idx, e_k in enumerate(rival_es):
        # each fixture's totals are dropped as its report takes their place
        cnt, s, q = tot.pop(("n", f_idx)), tot.pop(("s", f_idx)), tot.pop(("q", f_idx))
        # the fixture's shift, a won draw's utility at the mean rates
        c = value_mu - e_k
        means = c * (cnt / n) + s / n
        u_th = means[th]
        se_th = np.sqrt(_set_variance(cnt[th], s[th], q[th], c, n) / max(n - 1, 1))
        u_grid = means[on_grid]
        band = [side * (a[on_grid] - a[th]) for a in (cnt, s, q)]
        se_d = np.sqrt(_set_variance(*band, c, n) / max(n - 1, 1))
        fixtures.append(
            FixtureScan(
                rival_e=e_k,
                utility_theory=float(u_th),
                se_theory=float(se_th),
                utilities=u_grid,
                argmax_index=int(np.argmax(u_grid)),
                gap=MeanSE(u_th - u_grid, se_d),
            )
        )

    mean_curve = np.mean([f.utilities for f in fixtures], axis=0)
    return DominanceReport(
        theory_bid=float(theoretical),
        theory_index=int(np.argmin(np.abs(grid - theoretical))),
        fixtures=tuple(fixtures),
        mean_curve=mean_curve,
        argmax_index=int(np.argmax(mean_curve)),
    )


class CollapseRound(namedtuple(
    "CollapseRound", "round alpha alpha_hat collapsed revenue utilities winner_share"
)):
    """round: int; alpha, alpha_hat: float; collapsed: bool; revenue:
    MeanSE; utilities: tuple[MeanSE, ...]; winner_share: tuple[float,
    ...]."""

    __slots__ = ()


def cpa_collapse(
    game: Game,
    rounds: int,
    decay: float,
    replications: int = 10_000,
    seed: int = 0,
    threshold: float = 1e-3,
) -> tuple[CollapseRound, ...]:
    """Out-site CPA reporting spiral with a one-round belief lag, one
    CollapseRound per round.

    Round t: the platform believes last round's observed reporting rate
    (alpha_hat=1 at t=0); every advertiser underreports to alpha =
    decay x alpha_hat and inflates its bid to m/alpha. Every equivalent
    bid is then alpha_hat/alpha times the advertiser's in-site CPA score,
    and the charge e_loser x alpha/alpha_hat takes that common factor back
    out, so a round is settled as in-site CPA on its draws. Once alpha
    falls below the collapse threshold the platform can no longer
    attribute conversions: the round is settled in _settle_models'
    collapsed CPA out-site regime, where the winner is drawn uniformly,
    nothing is charged, and each of the N advertisers captures value/N
    per impression."""
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
    in_site_cpa = game.with_model("CPA", in_site())

    rows = []
    alpha_hat = 1.0
    for t in range(rounds):
        alpha = decay * alpha_hat
        collapsed = alpha < threshold
        played = game if collapsed else in_site_cpa

        def batch_fn(b_idx: int, size: int) -> dict:
            # the round is folded into the batch index, so rounds never share draws
            batch = t * round_stride + b_idx
            arm = _settle_models(played, ("CPA",), seed, STREAM_COLLAPSE, batch, size)["CPA"]
            out = {"p": arm.platform}
            for i in range(game.n):
                out["u", i] = arm.utils[i]
                out["w", i] = arm.winner == i
            return out

        est = estimate(replications, batch_fn)
        rows.append(
            CollapseRound(
                round=t,
                alpha=alpha,
                alpha_hat=alpha_hat,
                collapsed=collapsed,
                revenue=est["p"],
                utilities=tuple(est["u", i] for i in range(game.n)),
                winner_share=tuple(est["w", i].mean for i in range(game.n)),
            )
        )
        alpha_hat = alpha
    return tuple(rows)
