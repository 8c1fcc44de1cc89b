"""Entry decisions, the platform's model choice, and the outside-option
sweep.

An advertiser with an outside option r enters the auction iff its
equilibrium payoff under the posted model strictly beats r. The
platform picks the feasible model with the highest platform payoff.
Because bidding on coarser events (CPC) concentrates payoff at the
platform while bidding on finer events (OCPC) concentrates it at the
advertisers, sweeping r produces three regions: CPC while both models
retain the constrained advertiser, OCPC in the band where only OCPC
retains it (the innovation region: platform revenue that plain CPC
would lose entirely), and no market above that.

In the innovation region the unconstrained advertiser is worse off
than in a CPC-only world: there its rival would have exited and left
it winning impressions for free, so the sweep reports that payoff drop
against the lone-bidder counterfactual.

cpsc_comparison does the same payoff accounting on a four-stage funnel
where bidding per add-to-cart (CPSC) sits strictly between CPC and
OCPC for both parties.

The result records (SweepRow, SweepResult, CpscReport) are immutable
collections.namedtuple subclasses: besides their named fields they can
be unpacked and indexed, and each compares equal to the plain tuple of
its fields.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .model import Game, MODEL_TIE_ORDER
from .payoffs import PayoffReport, _payoff_pass, estimate_equilibrium_payoffs, expected_value
from .sampling import MeanSE

__all__ = [
    "entry_decision",
    "SweepRow",
    "SweepResult",
    "sweep_outside_option",
    "CPSC_MODELS",
    "CpscReport",
    "cpsc_comparison",
]


def entry_decision(pi2: float, r: float) -> bool:
    """Enter iff the in-auction payoff strictly beats the outside option."""
    if r < 0:
        raise ValueError(f"outside option must be >= 0, got {r}")
    return pi2 > r


def _outside_indices(game: Game) -> list[int]:
    return [i for i, s in enumerate(game.specs) if s.outside_option is not None]


def _tie_rank(name: str) -> int:
    return MODEL_TIE_ORDER.index(name)


def _choose(table: dict[str, PayoffReport], feasible: dict[str, bool]) -> str | None:
    best = None
    for name, rep in table.items():
        if not feasible[name]:
            continue
        if best is None:
            best = name
            continue
        cur = table[best]
        if rep.platform.mean > cur.platform.mean or (
            rep.platform.mean == cur.platform.mean and _tie_rank(name) < _tie_rank(best)
        ):
            best = name
    return best


class SweepRow(namedtuple(
    "SweepRow", "r feasible chosen platform social advertisers innovation adv1_drop"
)):
    """r: float; feasible: dict[str, bool]; chosen: str or None; platform,
    social: MeanSE; advertisers: tuple[MeanSE, ...]; innovation: bool,
    the platform earns here although CPC alone would not; adv1_drop:
    MeanSE, payoff of the unconstrained advertiser vs the CPC-only world."""

    __slots__ = ()


class SweepResult(namedtuple("SweepResult", "rows boundaries table models")):
    """rows: tuple[SweepRow, ...]; boundaries: dict[str, MeanSE],
    estimated entry thresholds per model; table: dict[str, PayoffReport];
    models: tuple[str, ...]."""

    __slots__ = ()


def sweep_outside_option(
    r_grid,
    models,
    game: Game,
    replications: int = 1_000_000,
    seed: int = 0,
) -> SweepResult:
    """Sweep the outside option over r_grid (ascending). In-auction
    payoffs do not depend on r, so the per-model table is estimated once,
    every model on the same draws, and reused; r only moves the entry
    decisions. The platform picks the feasible model with the highest
    payoff, ties broken by the fixed MODEL_TIE_ORDER.

    Rows where no model is feasible report the market as closed: chosen
    None and every payoff exactly 0."""
    r_grid = [float(r) for r in r_grid]
    if any(b < a for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError("r_grid must be ascending")
    models = list(models)
    if not models:
        raise ValueError("the sweep needs at least one model")
    outside = _outside_indices(game)
    if not outside:
        raise ValueError("sweep needs an advertiser with an outside option")
    free = [i for i in range(game.n) if i not in outside]
    adv1 = free[0] if free else 0
    table = estimate_equilibrium_payoffs(game, replications, seed, models)
    boundaries = {
        name: min((rep.advertisers[i] for i in outside), key=lambda ms: ms.mean)
        for name, rep in table.items()
    }
    # lone-bidder counterfactual: with rivals out, the free advertiser wins
    # every impression at price zero and keeps its full expected value
    monopoly = expected_value(game.specs[adv1])

    zero = MeanSE(0.0, 0.0)
    rows = []
    for r in r_grid:
        feasible = {
            name: all(entry_decision(rep.advertisers[i].mean, r) for i in outside)
            for name, rep in table.items()
        }
        chosen = _choose(table, feasible)
        if chosen is None:
            platform, social = zero, zero
            advs = tuple(zero for _ in range(game.n))
        else:
            rep = table[chosen]
            platform, social, advs = rep.platform, rep.social, rep.advertisers
        pi1 = advs[adv1]
        cpc_feasible = feasible.get("CPC", False)
        innovation = chosen is not None and not cpc_feasible and platform.mean > 0
        if cpc_feasible:
            if chosen == "CPC":
                drop = zero
            else:
                cf = table["CPC"].advertisers[adv1]
                drop = MeanSE(pi1.mean - cf.mean, math.hypot(pi1.se, cf.se))
        else:
            drop = MeanSE(pi1.mean - monopoly, pi1.se)  # exact counterfactual, no estimation error
        rows.append(
            SweepRow(
                r=r,
                feasible=feasible,
                chosen=chosen,
                platform=platform,
                social=social,
                advertisers=advs,
                innovation=innovation,
                adv1_drop=drop,
            )
        )
    return SweepResult(
        rows=tuple(rows),
        boundaries=boundaries,
        table=table,
        models=tuple(models),
    )


# the models cpsc_comparison settles, coarsest bid event first
CPSC_MODELS = ("CPC", "CPSC", "OCPC")

_CPSC_DELTAS = (
    "advertiser_payoff_cpsc_minus_cpc",
    "advertiser_payoff_ocpc_minus_cpsc",
    "platform_payoff_cpc_minus_cpsc",
    "platform_payoff_cpsc_minus_ocpc",
)


class CpscReport(namedtuple("CpscReport", "table deltas advertiser")):
    """table: dict[str, PayoffReport]; deltas: dict[str, MeanSE], each
    paired difference under its _CPSC_DELTAS label; advertiser: int."""

    __slots__ = ()


def cpsc_comparison(
    game: Game,
    replications: int = 1_000_000,
    seed: int = 0,
) -> CpscReport:
    """Estimate whether bidding per cart sits between CPC and OCPC on a
    four-stage funnel: the constrained advertiser's payoff rises with
    bid granularity (CPC < CPSC < OCPC) while the platform's take falls
    (OCPC < CPSC < CPC). Each of the four orderings is a paired per-draw
    difference that is positive when the ordering holds."""
    if not game.chain.has_cart:
        raise ValueError("cpsc_comparison needs the 4-stage chain (cart depth)")
    if game.n != 2:
        raise ValueError("cpsc_comparison compares the two-advertiser game")
    outside = _outside_indices(game)
    advertiser = outside[0] if outside else 1

    def paired(settled) -> dict:
        pi2 = {name: arm.utils[advertiser] for name, arm in settled.items()}
        plat = {name: arm.platform for name, arm in settled.items()}
        diffs = (
            pi2["CPSC"] - pi2["CPC"],
            pi2["OCPC"] - pi2["CPSC"],
            plat["CPC"] - plat["CPSC"],
            plat["CPSC"] - plat["OCPC"],
        )
        return dict(zip(_CPSC_DELTAS, diffs))

    table, est = _payoff_pass(game, CPSC_MODELS, replications, seed, paired)
    return CpscReport(table, {label: est[label] for label in _CPSC_DELTAS}, advertiser)
