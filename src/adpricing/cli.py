"""Command-line front door: load a config, run a named study, write
CSV artifacts plus a hashed JSON manifest.

Each study takes the config and run's writer, writes its tables
through write(csv name, header, rows), where rows may be lazy, and
judges the estimators' estimates into its verdicts. Each table goes
into a .partial-* directory inside the output directory, so no study's
rows are held after they are written and memory does not grow with
simulate's rounds. Only once the manifest is written does every file
move into place, the manifest last, so a config error or a crash
leaves the output directory as it was.

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
artifacts; wall times live only in the manifest's wall_time_s block.
--threads is validated and recorded in the manifest but changes
nothing: every estimator runs its batches serially.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from operator import add
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, STUDIES, load_config
from .distributions import Discrete, Point, two_point_surrogate
from .engine import run_repeated
from .equilibrium import CPSC_MODELS, cpsc_comparison, sweep_outside_option
from .model import AdvertiserSpec, EventChain, Game, PlatformBelief, in_site, out_site, pricing_model
from .payoffs import (
    enumeration_size,
    estimate_equilibrium_payoffs,
    exact_equilibrium_payoffs,
    payoff_ordering_suite,
)
from .sampling import MeanSE
from .strategy import best_response_scan, cpa_collapse, equilibrium_fixture_bids, theoretical_play

__all__ = ["main", "run"]

# (model, scenario) pairs with a claimed dominant strategy, plus the
# CPA out-site pair whose absence of one must be flagged. The scan plays
# truthfully, where the out-site reporting factor is 1, so it sees a
# model only through its bid depth: CPC's rows equal in-site and
# out-site, and so do CPA in-site's and OCPC's
DOMINANCE_COMBOS = (
    ("CPC", "in_site"),
    ("CPC", "out_site"),
    ("CPA", "in_site"),
    ("OCPC", "in_site"),
    ("OCPC", "out_site"),
    ("CPA", "out_site"),
)

# the most rate combinations the exact enumeration of the cpsc study's
# surrogate game may visit for one of the models it compares
MAX_ENUMERATION = 10**6


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


# cell types the csv writer spells as _cell does and never quotes (bool,
# an int subclass, is not one of them): a row of only these is written as
# its cells' reprs joined by commas, _LINE_BLOCK lines a write
_NUMERIC = frozenset((float, int))
_LINE_BLOCK = 1024


def _pair(name: str) -> list[str]:
    """Header of one MeanSE cell, which fills two columns."""
    return [f"{name}_mean", f"{name}_se"]


class Artifacts:
    """Tracks every file a run writes so the manifest stays complete."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.files: list[str] = []

    def write_csv(self, relpath: str, header, rows) -> None:
        """One CSV; a MeanSE cell fills two columns, its mean and its SE.

        A row of exact floats and ints only is spelled as the csv writer
        would spell it, its cells' reprs joined by commas, and such lines
        are written _LINE_BLOCK at a time; any other row is spelled cell by
        cell by _cell and goes through the csv writer, after the lines
        before it, so the rows keep their order."""
        path = self.outdir / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            eol = writer.dialect.lineterminator
            writer.writerow(header)
            lines = []

            def flush():
                lines.append("")  # so that the last line is terminated too
                fh.write(eol.join(lines))
                lines.clear()

            for row in rows:
                if _NUMERIC.issuperset(map(type, row)):
                    lines.append(",".join(map(repr, row)))
                    if len(lines) == _LINE_BLOCK:
                        flush()
                    continue
                if lines:
                    flush()
                cells = []
                for v in row:
                    if isinstance(v, MeanSE):
                        cells += (_cell(v.mean), _cell(v.se))
                    else:
                        cells.append(_cell(v))
                writer.writerow(cells)
            if lines:
                flush()
        self.files.append(relpath)

    def hashes(self) -> dict[str, str]:
        """sha256 of every written file, read back in blocks: no table is
        held in memory once it is written."""
        out = {}
        for rel in sorted(self.files):
            digest = hashlib.sha256()
            with open(self.outdir / rel, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 16), b""):
                    digest.update(block)
            out[rel] = digest.hexdigest()
        return out


def _study_simulate(cfg: ExperimentConfig, write) -> dict[str, bool]:
    rounds, mode = cfg.params["simulate"]["rounds"], cfg.params["simulate"]["mode"]
    game = cfg.game
    # posted play from the config wins; default is equilibrium play
    strategies = cfg.strategies or theoretical_play(game)
    if strategies is None:
        raise ConfigError(
            "game.model", "CPA out-site has no dominant strategy; run the collapse study instead"
        )
    belief = PlatformBelief(tuple(s.alpha for s in strategies))

    ids = [spec.id for spec in game.specs]
    header = (
        ["round", "winner", "e_loser", "price_per_pay_event"]
        + [f"payoff_{a}" for a in ids]
        + ["platform_payoff", "social_welfare", "conservation"]
    )
    totals, verdicts = [], {}  # filled once the trace has run out of rounds

    def trace():
        # totals are the plain sums of the rounds, in round order
        payoffs = [0.0] * game.n
        platform = social = 0.0
        all_zero = True
        outcomes = run_repeated(game, strategies, belief, rounds, seed=cfg.seed, mode=mode)
        for t, (winner, e_loser, ppe, pays, paid, welfare, *_) in enumerate(outcomes):
            resid = welfare - paid - sum(pays)
            all_zero &= resid == 0.0
            yield [t, ids[winner], e_loser, ppe, *pays, paid, welfare, resid]
            payoffs = list(map(add, payoffs, pays))
            platform += paid
            social += welfare
        totals.append([rounds, mode, *payoffs, platform, social])
        verdicts["conservation_zero"] = bool(all_zero)

    write("trace.csv", header, trace())
    write(
        "totals.csv",
        ["rounds", "mode"] + [f"payoff_{a}" for a in ids] + ["platform_payoff", "social_welfare"],
        totals,
    )
    return verdicts


def _unbeaten(gap: MeanSE) -> bool:
    """One fixture's dominance verdict: no grid bid's gap lies below 0 by
    the ordering rule, and none has a NaN SE (from overflowed sums)."""
    return not (gap.beyond(positive=False) | np.isnan(gap.se)).any()


def _study_dominance(cfg: ExperimentConfig, write) -> dict[str, bool]:
    p = cfg.params["dominance"]
    grid_max, fixtures = p["grid_max_multiplier"], p["fixtures"]

    header = [
        "model", "scenario", "advertiser", "fixture_multiplier", "rival_e",
        "theory_bid", "utility_theory", "se_theory", "grid_best_utility",
        "margin", "se_margin", "argmax_index", "theory_index", "passed",
        "no_equilibrium",
    ]
    games = {
        (model_name, kind): cfg.game.with_model(
            model_name, in_site() if kind == "in_site" else out_site()
        )
        for model_name, kind in DOMINANCE_COMBOS
    }
    theories = {combo: theoretical_play(g) for combo, g in games.items()}
    # the first combo of each bid depth with an equilibrium is scanned, and
    # one fixture call, in-site where every model has one, serves them all
    scanned = {}  # bid depth -> combo
    for combo, g in games.items():
        if theories[combo] is not None:
            scanned.setdefault(g.model.bid_depth, combo)
    names = [model_name for model_name, _ in scanned.values()]
    fixture_sets = equilibrium_fixture_bids(
        cfg.game.with_model(names[0], in_site()), multipliers=fixtures, models=names
    )
    # bid depth -> per advertiser: its rows' cells after the advertiser id;
    # a report is dropped once its cells are read
    by_depth = {}
    for bd, combo in scanned.items():
        by_depth[bd] = []
        for i, (theory, rival_es) in enumerate(zip(theories[combo], fixture_sets[combo[0]])):
            rep = best_response_scan(
                i, np.linspace(0.0, grid_max * theory.bid, p["grid_points"]), rival_es,
                games[combo], theory.bid, replications=p["replications"], seed=cfg.seed,
            )
            cells = [
                [mult, scan.rival_e, rep.theory_bid, scan.utility_theory, scan.se_theory,
                 float(np.max(scan.utilities)), float(scan.gap.mean[scan.argmax_index]),
                 float(scan.gap.se[scan.argmax_index]), scan.argmax_index, rep.theory_index,
                 _unbeaten(scan.gap), False]
                for mult, scan in zip(fixtures, rep.fixtures)
            ]
            ok = all(c[-2] for c in cells) and abs(rep.argmax_index - rep.theory_index) <= 1
            cells.append([
                "mean", None, rep.theory_bid, None, None, float(np.max(rep.mean_curve)),
                None, None, rep.argmax_index, rep.theory_index, ok, False,
            ])
            by_depth[bd].append(cells)

    rows = []
    for (model_name, kind), game in games.items():
        if theories[model_name, kind] is None:
            rows.extend([model_name, kind, spec.id] + [None] * 11 + [True] for spec in game.specs)
            continue
        for spec, cells in zip(game.specs, by_depth[game.model.bid_depth]):
            rows.extend([model_name, kind, spec.id, *c] for c in cells)
    write("dominance.csv", header, rows)
    # the verdicts read the last two columns, passed and no_equilibrium
    return {"scans_pass": all(row[-2] for row in rows if not row[-1]),
            "cpa_out_flagged": any(row[-1] for row in rows)}


def _map_laws(game, fn):
    """The game with every advertiser's rate law at depth index d
    replaced by fn(d, law)."""
    return game._replace(specs=[
        spec._replace(rates=tuple(fn(d, r) for d, r in enumerate(spec.rates)))
        for spec in game.specs
    ])


def _dice_game():
    """Two fair dice as a CPC game: clicks at k/6 for the faces k, sure
    conversions and m = 6, so each score is a face. The winner pays the
    other face, so social welfare is E[max] = 161/36 and the platform's
    take is E[min] = 91/36."""
    face = Discrete(tuple(k / 6 for k in range(1, 7)), (1 / 6,) * 6)
    specs = [AdvertiserSpec(id=i, m=6.0, rates=(face, Point(1.0))) for i in (1, 2)]
    chain = EventChain()
    return Game(specs, chain, pricing_model("CPC", chain), in_site())


def _ordered(delta: MeanSE, positive: bool = True) -> bool:
    """The ordering verdict: delta's ordering rule in the wanted direction.
    Degenerate laws make both arms identical, so an exact zero holds."""
    return delta.beyond(positive) or delta == (0.0, 0.0)


def _study_lemmas(cfg: ExperimentConfig, write) -> dict[str, bool]:
    reps = cfg.params["lemmas"]["replications"]
    suite = payoff_ordering_suite(cfg.game, replications=reps, seed=cfg.seed)
    ids = [spec.id for spec in cfg.game.specs]
    orderings_header = ["quantity", "comparison", *_pair("delta"), "z", "holds"]

    def _ordering_rows(s):
        named = [("social_welfare", "social_welfare_higher", s.social, True),
                 ("platform_payoff", "platform_payoff_lower", s.platform, False)] + [
            (f"advertiser_{a}", f"advertiser_{i}_payoff_higher", d, True)
            for i, (a, d) in enumerate(zip(ids, s.advertisers))
        ]
        return [[label, name, d, d.z(), _ordered(d, up)] for label, name, d, up in named]

    # point-mass conversion laws at their means; click laws untouched
    conv_idx = cfg.game.chain.conversion_depth - 1
    degen = payoff_ordering_suite(
        _map_laws(cfg.game, lambda d, r: Point(r.mean()) if d == conv_idx else r),
        replications=min(reps, 100_000),
        seed=cfg.seed,
    )
    degen_zero = all(d == (0.0, 0.0) for d in (degen.social, degen.platform, *degen.advertisers))

    dice = _dice_game()
    exact = exact_equilibrium_payoffs(dice)
    mc = estimate_equilibrium_payoffs(dice, 1_000_000, cfg.seed)["CPC"]
    dice_rows = [
        [label, ex.mean, est.mean, abs(est.mean - ex.mean)]
        for label, ex, est in (
            ("max_of_two_dice", exact.social, mc.social),
            ("min_of_two_dice", exact.platform, mc.platform),
        )
    ]
    dice_ok = (
        exact.social.mean == 161.0 / 36.0
        and exact.platform.mean == 91.0 / 36.0
        and all(row[3] < 0.01 for row in dice_rows)
    )
    orderings = _ordering_rows(suite)
    decomposition = [
        [ids[d.advertiser], d.direct, d.gain_term, d.loss_term, d.residual, d.residual.within()]
        for d in suite.decomposition
    ]
    write("orderings.csv", orderings_header, orderings)
    write(
        "decomposition.csv",
        ["advertiser", *_pair("direct"), *_pair("gain"), *_pair("loss"),
         *_pair("residual"), "consistent"],
        decomposition,
    )
    write("degenerate_control.csv", orderings_header, _ordering_rows(degen))
    write("dice_oracle.csv", ["statistic", "exact", "monte_carlo", "abs_error"], dice_rows)
    return {
        "orderings_hold": all(row[-1] for row in orderings),
        "decomposition_consistent": all(row[-1] for row in decomposition),
        "degenerate_exact_zero": bool(degen_zero),
        "dice_oracle": bool(dice_ok),
    }


def _study_collapse(cfg: ExperimentConfig, write) -> dict[str, bool]:
    game = cfg.game.with_model("CPA", out_site())
    rounds = cpa_collapse(game, seed=cfg.seed, **cfg.params["collapse"])
    ids = [spec.id for spec in game.specs]
    header = (
        ["round", "alpha", "alpha_hat", "collapsed", *_pair("revenue")]
        + [f"winner_share_{a}" for a in ids]
        + [x for a in ids for x in _pair(f"utility_{a}")]
    )
    rows = [
        [r.round, r.alpha, r.alpha_hat, r.collapsed, r.revenue, *r.winner_share, *r.utilities]
        for r in rounds
    ]

    first, last = rounds[0], rounds[-1]
    post = [r for r in rounds if r.collapsed]
    targets = [u.mean for u in exact_equilibrium_payoffs(game).advertisers]
    shares_ok = bool(post) and all(
        abs(s - 1.0 / game.n) <= 0.02 for r in post for s in r.winner_share
    )
    utils_ok = bool(post) and all(
        u.within(targets[i]) for r in post for i, u in enumerate(r.utilities)
    )
    write("collapse.csv", header, rows)
    return {
        "revenue_collapse": last.revenue.mean < 0.01 * first.revenue.mean,
        "collapsed_platform_zero": bool(post) and all(r.revenue.mean == 0.0 for r in post),
        "collapsed_shares": shares_ok,
        "collapsed_utilities": utils_ok,
    }


def _study_sweep(cfg: ExperimentConfig, write) -> dict[str, bool]:
    p = cfg.params["sweep"]
    res = sweep_outside_option(
        np.linspace(p["r_min"], p["r_max"], p["r_points"]), cfg.models, cfg.game,
        replications=p["replications"], seed=cfg.seed,
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
        + [row.innovation, row.adv1_drop]
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
    write("sweep.csv", header, rows)
    write(
        "boundaries.csv",
        ["model", *_pair("entry_threshold")],
        [[m, b] for m, b in res.boundaries.items()],
    )
    return {
        "region_pattern": bool(pattern_ok),
        "three_regions": bool(regions_ok),
        "innovation_platform_positive": bool(inno) and all(row.platform.beyond() for row in inno),
        "innovation_drop_negative": bool(inno)
        and all(row.adv1_drop.beyond(positive=False) for row in inno),
    }


def _cpsc_games(cfg: ExperimentConfig):
    """The cpsc study's game, the posted game if it has a cart event, else
    cart_game, and its enumerable two-point surrogate. The game must exist
    and have two advertisers, and the surrogate's exact enumeration may
    visit at most MAX_ENUMERATION rate combinations per model: discrete
    laws pass into it unchanged, so their atom counts multiply."""
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
    surrogate = _map_laws(game, lambda d, r: two_point_surrogate(r))
    size = max(enumeration_size(surrogate.with_model(name)) for name in CPSC_MODELS)
    if size > MAX_ENUMERATION:
        raise ConfigError(
            f"{field}.advertisers",
            f"the exact enumeration of the cpsc study would visit {size} rate combinations,"
            f" above {MAX_ENUMERATION}; give the discrete rate laws fewer atoms",
        )
    return game, surrogate


def _study_cpsc(cfg: ExperimentConfig, write) -> dict[str, bool]:
    game, surrogate = _cpsc_games(cfg)
    p = cfg.params["cpsc"]
    rep = cpsc_comparison(game, replications=p["replications"], seed=cfg.seed)
    ids = [spec.id for spec in game.specs]

    # enumerable two-point variant: exact payoffs vs the MC estimator
    exact = {n: exact_equilibrium_payoffs(surrogate.with_model(n)) for n in CPSC_MODELS}
    mc = estimate_equilibrium_payoffs(surrogate, p["enumeration_replications"], cfg.seed, CPSC_MODELS)
    enum_rows = []
    agree = True
    for n in CPSC_MODELS:
        quantities = [("platform", exact[n].platform, mc[n].platform)] + [
            (f"advertiser_{ids[i]}", exact[n].advertisers[i], mc[n].advertisers[i])
            for i in range(game.n)
        ]
        for label, ex, est in quantities:
            ok = est.within(ex.mean, k=5.0)
            agree &= ok
            enum_rows.append([n, label, ex.mean, est, est.z(ex.mean), ok])
    k = rep.advertiser
    exact_orderings = (
        exact["CPC"].advertisers[k].mean
        < exact["CPSC"].advertisers[k].mean
        < exact["OCPC"].advertisers[k].mean
        and exact["OCPC"].platform.mean
        < exact["CPSC"].platform.mean
        < exact["CPC"].platform.mean
    )
    orderings = [[label, d, d.z(), _ordered(d)] for label, d in rep.deltas.items()]
    write("orderings.csv", ["comparison", *_pair("delta"), "z", "holds"], orderings)
    write(
        "payoffs.csv",
        ["model"]
        + [x for a in ids for x in _pair(f"payoff_{a}")]
        + [*_pair("platform"), *_pair("social")],
        [[name, *r.advertisers, r.platform, r.social] for name, r in rep.table.items()],
    )
    write("enumeration.csv", ["model", "quantity", "exact", *_pair("mc"), "z", "agree"], enum_rows)
    return {
        "orderings_hold": all(row[-1] for row in orderings),
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
    the exit code.

    Each study's tables are written as the study writes them, into a
    .partial-* directory inside the output directory. Once the manifest
    is written there, every file moves into place, the manifest last, by
    a rename on the same filesystem; the .partial-* directory is removed
    however the run ends. So a run that raises leaves the output
    directory as it was, and a manifest there names only files that are
    in place."""
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
        _cpsc_games(cfg)

    staging = Path(tempfile.mkdtemp(dir=outdir, prefix=".partial-"))
    try:
        art = Artifacts(staging)
        verdicts: dict[str, bool] = {}
        per_study = []
        for name in studies:
            t0 = time.perf_counter()
            study_verdicts = STUDY_FUNCS[name](
                cfg, lambda csv_name, *table: art.write_csv(f"{name}/{csv_name}", *table)
            )
            times[name] = round(time.perf_counter() - t0, 3)
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
        with open(staging / "manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

        # an earlier run's manifest goes first: it may name a file about
        # to be replaced
        manifest_path = outdir / "manifest.json"
        manifest_path.unlink(missing_ok=True)
        for rel in art.files:
            (outdir / rel).parent.mkdir(parents=True, exist_ok=True)
            os.replace(staging / rel, outdir / rel)
        os.replace(staging / "manifest.json", manifest_path)
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    for key in sorted(verdicts):
        print(f"[{'pass' if verdicts[key] else 'FAIL'}] {key}")
    n_pass = sum(verdicts.values())
    print(f"passed {n_pass}/{len(verdicts)} checks; manifest: {manifest_path}")
    return 0 if all(verdicts.values()) else 1


# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_batch_memory() -> None:
    """Keep freed batch temporaries in the heap for the next batch.

    Every float64 temporary of a BATCH_SIZE-column batch is 128 KiB or
    more, and glibc returns blocks that large to the kernel on free (by
    its mmap threshold or by trimming the heap), so every batch faulted
    the same pages in again. Both thresholds are set because either call
    turns off glibc's sliding mmap threshold: the trim threshold alone
    would freeze it wherever imports had left it. 4 MiB is well above
    the largest batch temporary. A no-op where the C library has no
    mallopt. Only main calls this: the CLI owns its process, library
    callers of run() own theirs."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


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
                        help="accepted and recorded in the manifest; changes nothing")
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
        _keep_batch_memory()
        return run(cfg)
    except (ConfigError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        # ValueError covers GameValidationError; a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
