"""Command-line front door: load a config, run a named study, write
CSV artifacts plus a hashed JSON manifest.

Each study returns its tables and verdicts and writes nothing; run
writes every CSV and then the manifest once the last study has
returned, so a config error or a crash leaves the output directory as
it was.

Studies
    simulate      per-round auction trace under theoretical play
    dominance     grid scans of the theoretical bids against rival fixtures
    lemmas        paired OCPC-vs-CPC payoff orderings, decomposition,
                  degenerate control, dice enumeration oracle
    collapse      CPA out-site underreporting spiral with belief lag
    sweep         outside-option sweep over the platform's model choice
    cpsc          4-stage funnel: per-cart bidding between CPC and OCPC
    reproduce-all every study above plus a pass/fail summary table

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 config or
runtime error. Identical (config, seed) reproduce byte-identical
artifacts regardless of --threads; wall times live only in the
manifest's wall_time_s block.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, STUDIES, load_config
from .distributions import Point, two_point_surrogate, uniform_die
from .engine import run_repeated
from .equilibrium import cpsc_comparison, sweep_outside_option
from .model import PlatformBelief, in_site, out_site, validate_game
from .payoffs import (
    ValueLaw,
    estimate_equilibrium_payoffs,
    exact_equilibrium_payoffs,
    expected_min_max,
    payoff_ordering_suite,
)
from .sampling import SE_FACTOR, MeanSE
from .strategy import (
    NO_EQUILIBRIUM,
    best_response_scan,
    cpa_collapse,
    equilibrium_fixture_bids,
    theoretical_strategy,
)

__all__ = ["main", "run"]

# (model, scenario) pairs with a claimed dominant strategy, plus the
# CPA out-site pair whose absence of one must be flagged
DOMINANCE_COMBOS = (
    ("CPC", "in_site"),
    ("CPC", "out_site"),
    ("CPA", "in_site"),
    ("OCPC", "in_site"),
    ("OCPC", "out_site"),
    ("CPA", "out_site"),
)


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _pair(name: str) -> list[str]:
    """Header of one MeanSE cell, which fills two columns."""
    return [f"{name}_mean", f"{name}_se"]


class Artifacts:
    """Tracks every file a run writes so the manifest stays complete."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.files: list[str] = []

    def write_csv(self, relpath: str, header, rows) -> None:
        """One CSV; a MeanSE cell fills two columns, its mean and its SE."""
        path = self.outdir / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                cells = []
                for v in row:
                    if isinstance(v, MeanSE):
                        cells += (_cell(v.mean), _cell(v.se))
                    else:
                        cells.append(_cell(v))
                writer.writerow(cells)
        self.files.append(relpath)

    def hashes(self) -> dict[str, str]:
        """sha256 of every written file, read in blocks: the tables are
        still in memory when the manifest is made."""
        out = {}
        for rel in sorted(self.files):
            digest = hashlib.sha256()
            with open(self.outdir / rel, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(block)
            out[rel] = digest.hexdigest()
        return out


def _theoretical_profile(game):
    strategies = []
    for spec in game.specs:
        s = theoretical_strategy(game.model, game.scenario, spec, game.chain)
        if s is NO_EQUILIBRIUM:
            raise ConfigError(
                "game.model",
                "CPA out-site has no dominant strategy; run the collapse study instead",
            )
        strategies.append(s)
    return tuple(strategies)


def _study_simulate(cfg: ExperimentConfig):
    # the trace holds one row per round in memory
    rounds = cfg.int_param("simulate", "rounds", 1000, maximum=1_000_000)
    mode = cfg.params("simulate").get("mode", "analytic")
    if mode not in ("analytic", "realized"):
        raise ConfigError("study_params.simulate.mode", f"expected analytic or realized, got {mode!r}")
    game = cfg.game
    # posted play from the config wins; default is equilibrium play
    strategies = cfg.strategies or _theoretical_profile(game)
    belief = PlatformBelief(tuple(s.alpha for s in strategies))
    rep = run_repeated(game, strategies, belief, rounds, seed=cfg.seed, mode=mode)

    ids = [spec.id for spec in game.specs]
    header = (
        ["round", "winner", "e_loser", "price_per_pay_event"]
        + [f"payoff_{a}" for a in ids]
        + ["platform_payoff", "social_welfare", "conservation"]
    )
    rows = []
    all_zero = True
    for t, oc in enumerate(rep.trace):
        resid = oc.social_welfare - oc.platform_payoff - sum(oc.payoffs)
        all_zero &= resid == 0.0
        rows.append(
            [t, ids[oc.winner], oc.e_loser, oc.price_per_pay_event]
            + list(oc.payoffs)
            + [oc.platform_payoff, oc.social_welfare, resid]
        )
    tables = {
        "trace.csv": (header, rows),
        "totals.csv": (
            ["rounds", "mode"] + [f"payoff_{a}" for a in ids] + ["platform_payoff", "social_welfare"],
            [[rounds, mode, *rep.payoffs, rep.platform_payoff, rep.social_welfare]],
        ),
    }
    return tables, {"conservation_zero": bool(all_zero)}


def _study_dominance(cfg: ExperimentConfig):
    reps = cfg.study_replications("dominance", default=100_000)
    # a grid needs both ends: bid 0 and grid_max x the theoretical bid
    grid_points = cfg.int_param("dominance", "grid_points", 101, minimum=2, maximum=100_000)
    grid_max = cfg.number_param("dominance", "grid_max_multiplier", 2.0, above=0.0)
    fixtures = cfg.numbers_param("dominance", "fixtures", [0.25, 0.5, 1.0, 2.0], above=0.0)
    fixture_reps = cfg.int_param("dominance", "fixture_replications", 200_000)

    header = [
        "model", "scenario", "advertiser", "fixture_multiplier", "rival_e",
        "theory_bid", "utility_theory", "se_theory", "grid_best_utility",
        "margin", "se_margin", "argmax_index", "theory_index", "passed",
        "no_equilibrium",
    ]
    rows = []
    all_pass = True
    flagged = False
    for model_name, kind in DOMINANCE_COMBOS:
        scenario = in_site() if kind == "in_site" else out_site()
        game = cfg.game.with_model(model_name, scenario)
        theories = [
            theoretical_strategy(game.model, game.scenario, s, game.chain) for s in game.specs
        ]
        if theories[0] is NO_EQUILIBRIUM:
            flagged = True
            rows.extend([model_name, kind, spec.id] + [None] * 11 + [True] for spec in game.specs)
            continue
        fixture_sets = equilibrium_fixture_bids(
            game, multipliers=fixtures, replications=fixture_reps, seed=cfg.seed
        )
        if not np.all(np.isfinite(fixture_sets)):
            raise ConfigError(
                "study_params.dominance.fixtures",
                f"a fixture multiplier in {fixtures!r} overflows the rival equivalent bid",
            )
        for i, (spec, theory, rival_es) in enumerate(zip(game.specs, theories, fixture_sets)):
            if not np.isfinite(grid_max * theory.bid):
                raise ConfigError(
                    "study_params.dominance.grid_max_multiplier",
                    f"grid_max_multiplier x theoretical bid {theory.bid!r} overflows",
                )
            grid = np.linspace(0.0, grid_max * theory.bid, grid_points)
            rep = best_response_scan(
                i, grid, rival_es, game,
                replications=reps, seed=cfg.seed, threads=cfg.threads, alpha=theory.alpha,
            )
            localized = abs(rep.argmax_index - rep.theory_index) <= 1
            all_pass &= rep.passed and localized
            for mult, scan in zip(fixtures, rep.fixtures):
                best = float(np.max(scan.utilities))
                rows.append([
                    model_name, kind, spec.id, mult, scan.rival_e,
                    rep.theory_bid, scan.utility_theory, scan.se_theory, best,
                    scan.margin, scan.se_margin, scan.argmax_index,
                    rep.theory_index, scan.passed, False,
                ])
            rows.append([
                model_name, kind, spec.id, "mean", None,
                rep.theory_bid, None, None, float(np.max(rep.mean_curve)),
                None, None, rep.argmax_index, rep.theory_index,
                rep.passed and localized, False,
            ])
    return {"dominance.csv": (header, rows)}, {
        "scans_pass": bool(all_pass),
        "cpa_out_flagged": flagged,
    }


def _map_laws(game, fn):
    """The game with every advertiser's rate law at depth index d
    replaced by fn(d, law)."""
    specs = [
        replace(spec, rates=tuple(fn(d, r) for d, r in enumerate(spec.rates)))
        for spec in game.specs
    ]
    return validate_game(specs, game.chain, game.model, game.scenario)


def _study_lemmas(cfg: ExperimentConfig):
    reps = cfg.study_replications("lemmas")
    suite = payoff_ordering_suite(
        cfg.game, replications=reps, seed=cfg.seed, threads=cfg.threads
    )
    ids = [spec.id for spec in cfg.game.specs]
    orderings_header = ["quantity", "comparison", *_pair("delta"), "z", "holds"]

    def _ordering_rows(s):
        named = [("social_welfare", s.social), ("platform_payoff", s.platform)] + [
            (f"advertiser_{a}", res) for a, res in zip(ids, s.advertisers)
        ]
        return [[label, res.name, res.delta, res.delta.z(), res.holds] for label, res in named]

    # point-mass conversion laws at their means; click laws untouched
    conv_idx = cfg.game.chain.n_rate_depths - 1
    degen = payoff_ordering_suite(
        _map_laws(cfg.game, lambda d, r: Point(r.mean()) if d == conv_idx else r),
        replications=min(reps, 100_000),
        seed=cfg.seed,
        threads=cfg.threads,
    )
    degen_results = [degen.social, degen.platform, *degen.advertisers]
    degen_zero = all(r.delta.mean == 0.0 and r.delta.se == 0.0 for r in degen_results)

    die = ValueLaw(1.0, (uniform_die(6),))
    exact = expected_min_max([die, die], exhaustive=True)
    mc = expected_min_max([die, die], replications=1_000_000, seed=cfg.seed)
    dice_rows = [
        ["max_of_two_dice", exact.e_max.mean, mc.e_max.mean, abs(mc.e_max.mean - exact.e_max.mean)],
        ["min_of_two_dice", exact.e_min.mean, mc.e_min.mean, abs(mc.e_min.mean - exact.e_min.mean)],
    ]
    dice_ok = (
        exact.e_max.mean == 161.0 / 36.0
        and exact.e_min.mean == 91.0 / 36.0
        and abs(mc.e_max.mean - exact.e_max.mean) < 0.01
        and abs(mc.e_min.mean - exact.e_min.mean) < 0.01
    )
    tables = {
        "orderings.csv": (orderings_header, _ordering_rows(suite)),
        "decomposition.csv": (
            ["advertiser", *_pair("direct"), *_pair("gain"), *_pair("loss"),
             *_pair("residual"), "consistent"],
            [
                [ids[d.advertiser], d.direct, d.gain_term, d.loss_term, d.residual, d.consistent]
                for d in suite.decomposition
            ],
        ),
        "degenerate_control.csv": (orderings_header, _ordering_rows(degen)),
        "dice_oracle.csv": (["statistic", "exact", "monte_carlo", "abs_error"], dice_rows),
    }
    return tables, {
        "orderings_hold": suite.passed,
        "decomposition_consistent": all(d.consistent for d in suite.decomposition),
        "degenerate_exact_zero": bool(degen_zero),
        "dice_oracle": bool(dice_ok),
    }


def _study_collapse(cfg: ExperimentConfig):
    rounds = cfg.int_param("collapse", "rounds", 21, minimum=2)
    decay = cfg.number_param("collapse", "decay", 0.5, above=0.0, below=1.0)
    threshold = cfg.number_param("collapse", "threshold", 1e-3)
    reps = cfg.study_replications("collapse", default=10_000)
    game = cfg.game.with_model("CPA", out_site())
    trace = cpa_collapse(
        game, rounds=rounds, decay=decay, replications=reps,
        seed=cfg.seed, threshold=threshold, threads=cfg.threads,
    )
    ids = [spec.id for spec in game.specs]
    header = (
        ["round", "alpha", "alpha_hat", "collapsed", *_pair("revenue")]
        + [f"winner_share_{a}" for a in ids]
        + [x for a in ids for x in _pair(f"utility_{a}")]
    )
    rows = [
        [r.round, r.alpha, r.alpha_hat, r.collapsed, r.revenue, *r.winner_share, *r.utilities]
        for r in trace.rounds
    ]

    first, last = trace.rounds[0], trace.rounds[-1]
    post = [r for r in trace.rounds if r.collapsed]
    n = game.n
    targets = [spec.m * float(np.prod(spec.rate_means())) / n for spec in game.specs]
    shares_ok = bool(post) and all(
        abs(s - 1.0 / n) <= 0.02 for r in post for s in r.winner_share
    )
    utils_ok = bool(post) and all(
        abs(u.mean - targets[i]) <= SE_FACTOR * u.se
        for r in post
        for i, u in enumerate(r.utilities)
    )
    return {"collapse.csv": (header, rows)}, {
        "revenue_collapse": last.revenue.mean < 0.01 * first.revenue.mean,
        "collapsed_platform_zero": bool(post) and all(r.revenue.mean == 0.0 for r in post),
        "collapsed_shares": shares_ok,
        "collapsed_utilities": utils_ok,
    }


def _study_sweep(cfg: ExperimentConfig):
    # outside options are nonnegative, and the grid ascends
    r_min = cfg.number_param("sweep", "r_min", 0.0, minimum=0.0)
    r_max = cfg.number_param("sweep", "r_max", 2.0, minimum=r_min)
    r_points = cfg.int_param("sweep", "r_points", 41)
    reps = cfg.study_replications("sweep")
    res = sweep_outside_option(
        np.linspace(r_min, r_max, r_points), cfg.models, cfg.game,
        replications=reps, seed=cfg.seed, threads=cfg.threads,
    )
    ids = [spec.id for spec in cfg.game.specs]
    header = (
        ["r", "chosen"]
        + [f"feasible_{m}" for m in res.models]
        + [*_pair("platform"), *_pair("social")]
        + [x for a in ids for x in _pair(f"payoff_{a}")]
        + ["innovation", "adv1_drop", "adv1_drop_se"]
    )
    rows = [
        [row.r, row.chosen if row.chosen is not None else "none"]
        + [row.feasible[m] for m in res.models]
        + [row.platform, row.social, *row.advertisers]
        + [row.innovation, row.adv1_drop, row.adv1_drop_se]
        for row in res.rows
    ]

    # region pattern implied by the estimated thresholds and payoff table
    def _expected(r: float):
        feas = [m for m in res.models if r < res.boundaries[m].mean]
        if not feas:
            return None
        return max(feas, key=lambda m: res.table[m].platform.mean)

    pattern_ok = all(row.chosen == _expected(row.r) for row in res.rows)
    observed = {row.chosen for row in res.rows}
    regions_ok = observed >= set(res.models) | {None}
    inno = [row for row in res.rows if row.innovation]
    tables = {
        "sweep.csv": (header, rows),
        "boundaries.csv": (
            ["model", *_pair("entry_threshold")], [[m, b] for m, b in res.boundaries.items()]
        ),
    }
    return tables, {
        "region_pattern": bool(pattern_ok),
        "three_regions": bool(regions_ok),
        "innovation_platform_positive": bool(inno)
        and all(row.platform.mean > 0 for row in inno),
        "innovation_drop_negative": bool(inno)
        and all(row.adv1_drop < -SE_FACTOR * row.adv1_drop_se for row in inno),
    }


def _cpsc_game(cfg: ExperimentConfig):
    """The cpsc study's game: the posted game if it has a cart event, else
    cart_game; it must exist and have two advertisers."""
    if cfg.game.chain.has_cart:
        game, field = cfg.game, "game"
    elif cfg.cart_game is not None:
        game, field = cfg.cart_game, "cart_game"
    else:
        raise ConfigError(
            "cart_game", "the cpsc study needs a 4-stage game (game or cart_game with a cart event)"
        )
    if game.n != 2:
        raise ConfigError(
            f"{field}.advertisers", "the cpsc study compares payoffs in the two-advertiser game"
        )
    return game


def _study_cpsc(cfg: ExperimentConfig):
    game = _cpsc_game(cfg)
    reps = cfg.study_replications("cpsc")
    enum_reps = cfg.int_param("cpsc", "enumeration_replications", 100_000)
    rep = cpsc_comparison(game, replications=reps, seed=cfg.seed, threads=cfg.threads)
    ids = [spec.id for spec in game.specs]

    # enumerable two-point variant: exact payoffs vs the MC estimator
    surrogate = _map_laws(game, lambda d, r: two_point_surrogate(r))
    names = ("CPC", "CPSC", "OCPC")
    exact = {n: exact_equilibrium_payoffs(surrogate.with_model(n)) for n in names}
    mc = estimate_equilibrium_payoffs(surrogate, enum_reps, cfg.seed, names, cfg.threads)
    enum_rows = []
    agree = True
    for n in names:
        quantities = [("platform", exact[n].platform, mc[n].platform)] + [
            (f"advertiser_{ids[i]}", exact[n].advertisers[i], mc[n].advertisers[i])
            for i in range(game.n)
        ]
        for label, ex, est in quantities:
            z = est.z(ex.mean)
            ok = abs(z) <= 5.0 if est.se > 0 else est.mean == ex.mean
            agree &= ok
            enum_rows.append([n, label, ex.mean, est, z, ok])
    k = rep.advertiser
    exact_orderings = (
        exact["CPC"].advertisers[k].mean
        < exact["CPSC"].advertisers[k].mean
        < exact["OCPC"].advertisers[k].mean
        and exact["OCPC"].platform.mean
        < exact["CPSC"].platform.mean
        < exact["CPC"].platform.mean
    )
    tables = {
        "orderings.csv": (
            ["comparison", *_pair("delta"), "z", "holds"],
            [[d.name, d.delta, d.delta.z(), d.holds] for d in rep.deltas],
        ),
        "payoffs.csv": (
            ["model"]
            + [x for a in ids for x in _pair(f"payoff_{a}")]
            + [*_pair("platform"), *_pair("social")],
            [[name, *r.advertisers, r.platform, r.social] for name, r in rep.table.items()],
        ),
        "enumeration.csv": (
            ["model", "quantity", "exact", *_pair("mc"), "z", "agree"],
            enum_rows,
        ),
    }
    return tables, {
        "orderings_hold": rep.passed,
        "enumeration_orderings": bool(exact_orderings),
        "enumeration_mc_agree": bool(agree),
    }


STUDY_FUNCS = {
    "simulate": _study_simulate,
    "dominance": _study_dominance,
    "lemmas": _study_lemmas,
    "collapse": _study_collapse,
    "sweep": _study_sweep,
    "cpsc": _study_cpsc,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute the configured study, write artifacts + manifest, return
    the exit code. Nothing is written until every study has returned."""
    if cfg.out is None:
        raise ConfigError("out", "no output directory given (set 'out' in the config or pass --out)")
    outdir = Path(cfg.out)
    if not outdir.is_dir():
        raise ConfigError("out", f"output directory {str(outdir)!r} does not exist")
    times: dict[str, float] = {}
    t_start = time.perf_counter()
    studies = tuple(STUDY_FUNCS) if cfg.study == "reproduce-all" else (cfg.study,)
    # study preconditions, checked before any study runs
    if "sweep" in studies and all(s.outside_option is None for s in cfg.game.specs):
        raise ConfigError(
            "game.advertisers", "the sweep study needs an advertiser with an outside_option"
        )
    if "lemmas" in studies and cfg.game.n != 2:
        raise ConfigError(
            "game.advertisers", "payoff orderings are defined on the two-advertiser game"
        )
    if "cpsc" in studies:
        _cpsc_game(cfg)
    results = {}
    for name in studies:
        t0 = time.perf_counter()
        results[name] = STUDY_FUNCS[name](cfg)
        times[name] = round(time.perf_counter() - t0, 3)

    art = Artifacts(outdir)
    verdicts: dict[str, bool] = {}
    per_study = []
    for name, (tables, study_verdicts) in results.items():
        for csv_name, (header, rows) in tables.items():
            art.write_csv(f"{name}/{csv_name}", header, rows)
        vs = {f"{name}.{key}": bool(ok) for key, ok in study_verdicts.items()}
        per_study.append([name, all(vs.values()), len(vs), sum(vs.values())])
        verdicts.update(vs)
    if cfg.study == "reproduce-all":
        art.write_csv("summary.csv", ["study", "passed", "checks", "checks_passed"], per_study)
    times["total"] = round(time.perf_counter() - t_start, 3)

    manifest = {
        "tool": "adpricing",
        "version": __version__,
        "study": cfg.study,
        "seed": cfg.seed,
        "replications": cfg.replications,
        "threads": cfg.threads,
        "config_sha256": cfg.config_hash(),
        "config": cfg.canonical(),  # feed back through parse_config to rerun
        "files": art.hashes(),
        "verdicts": verdicts,
        "passed": all(verdicts.values()),
        "wall_time_s": times,
    }
    manifest_path = outdir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for key in sorted(verdicts):
        print(f"[{'pass' if verdicts[key] else 'FAIL'}] {key}")
    n_pass = sum(verdicts.values())
    print(f"passed {n_pass}/{len(verdicts)} checks; manifest: {manifest_path}")
    return 0 if all(verdicts.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="adpricing",
        description="Simulation lab for ad-auction pricing models.",
    )
    parser.add_argument("--config", required=True, help="YAML experiment config")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--replications", type=int, default=None,
                        help="replication count (overrides config and per-study knobs)")
    parser.add_argument("--out", default=None, help="output directory; must already exist")
    parser.add_argument("--study", default=None, choices=list(STUDIES),
                        help="study to run (overrides config)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads; affects speed only, never results")
    args = parser.parse_args(argv)
    overrides = {
        "seed": args.seed,
        "replications": args.replications,
        "out": args.out,
        "study": args.study,
        "threads": args.threads,
    }
    try:
        cfg = load_config(args.config, overrides)
        return run(cfg)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        # ValueError covers GameValidationError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
