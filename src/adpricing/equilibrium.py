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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Game, MODEL_TIE_ORDER
from .payoffs import (
    OrderingResult, PayoffReport, _ordering, _payoff_pass, estimate_equilibrium_payoffs,
)
from .sampling import MeanSE

__all__ = [
    "entry_decision",
    "SweepRow",
    "SweepResult",
    "sweep_outside_option",
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


@dataclass(frozen=True)
class SweepRow:
    r: float
    feasible: dict[str, bool]
    chosen: str | None
    platform: MeanSE
    social: MeanSE
    advertisers: tuple[MeanSE, ...]
    innovation: bool  # platform earns here although CPC alone would not
    adv1_drop: float  # payoff of the unconstrained advertiser vs CPC-only world
    adv1_drop_se: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    boundaries: dict[str, MeanSE]  # estimated entry thresholds per model
    table: dict[str, PayoffReport]
    models: tuple[str, ...]


def sweep_outside_option(
    r_grid,
    models,
    game: Game,
    replications: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
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
    table = estimate_equilibrium_payoffs(game, replications, seed, models, threads)
    boundaries = {
        name: min((rep.advertisers[i] for i in outside), key=lambda ms: ms.mean)
        for name, rep in table.items()
    }
    # lone-bidder counterfactual: with rivals out, the free advertiser wins
    # every impression at price zero and keeps its full expected value
    spec1 = game.specs[adv1]
    monopoly = spec1.m * math.prod(spec1.rate_means())

    zero = MeanSE(0.0, 0.0, replications)
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
            pi1, pi1_se = 0.0, 0.0
        else:
            rep = table[chosen]
            platform, social, advs = rep.platform, rep.social, rep.advertisers
            pi1, pi1_se = advs[adv1].mean, advs[adv1].se
        cpc_feasible = feasible.get("CPC", False)
        innovation = chosen is not None and not cpc_feasible and platform.mean > 0
        if cpc_feasible:
            if chosen == "CPC":
                drop, drop_se = 0.0, 0.0
            else:
                cf = table["CPC"].advertisers[adv1]
                drop = pi1 - cf.mean
                drop_se = math.hypot(pi1_se, cf.se)
        else:
            drop = pi1 - monopoly  # exact counterfactual, no estimation error
            drop_se = pi1_se
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
                adv1_drop_se=drop_se,
            )
        )
    return SweepResult(
        rows=tuple(rows),
        boundaries=boundaries,
        table=table,
        models=tuple(models),
    )


_CPSC_DELTAS = (
    "advertiser_payoff_cpsc_minus_cpc",
    "advertiser_payoff_ocpc_minus_cpsc",
    "platform_payoff_cpc_minus_cpsc",
    "platform_payoff_cpsc_minus_ocpc",
)


@dataclass(frozen=True)
class CpscReport:
    table: dict[str, PayoffReport]
    deltas: tuple[OrderingResult, ...]
    advertiser: int
    passed: bool


def cpsc_comparison(
    game: Game,
    replications: int = 1_000_000,
    seed: int = 0,
    threads: int = 1,
) -> CpscReport:
    """Check that bidding per cart sits between CPC and OCPC on a
    four-stage funnel: the constrained advertiser's payoff rises with
    bid granularity (CPC < CPSC < OCPC) while the platform's take falls
    (OCPC < CPSC < CPC). Paired per-draw differences, SE_FACTOR x SE margins."""
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

    table, est = _payoff_pass(game, ("CPC", "CPSC", "OCPC"), replications, seed, threads, paired)
    deltas = tuple(_ordering(label, est[label]) for label in _CPSC_DELTAS)
    return CpscReport(
        table=table,
        deltas=deltas,
        advertiser=advertiser,
        passed=all(d.holds for d in deltas),
    )
