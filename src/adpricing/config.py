"""Experiment configuration: YAML schema, validation, canonical hash.

Every input flows through the config file or the CLI flags; nothing is
read from the environment or the clock, so a (config, seed) pair pins
the run. The canonical form hashed into the manifest is the parsed
mapping after CLI overrides are applied, with every knob resolved.

Schema (see configs/default.yaml for a complete example):

    study: sweep            # or via --study
    seed: 42                # master seed, required (here or --seed)
    replications: 1000000   # default draw count for payoff estimates
    threads: 1              # recorded in the manifest; changes nothing
    out: results            # output directory, must already exist
    game:
      chain: [impression, click, conversion]
      scenario: in_site     # or out_site
      model: OCPC           # posted model for simulate/collapse
      models: [CPC, OCPC]   # candidate set for the sweep
      strategies:           # optional posted play for simulate;
        - {bid: 100.0}      # omitted = theoretical equilibrium play
        - {bid: 80.0, alpha: 1.0}
      advertisers:
        - m: 100.0
          rates:
            click: {kind: uniform, lo: 0.2, hi: 0.4}
            conversion: {kind: uniform, lo: 0.05, hi: 0.15}
        - m: 100.0
          outside_option: 1.0
          rates: {...}
    cart_game: {...}        # optional 4-stage game for the cpsc study
    study_params:
      simulate: {rounds: 1000, mode: analytic}
      dominance: {replications: 100000, grid_points: 101}
      collapse: {rounds: 21, decay: 0.5, replications: 10000, threshold: 1.0e-3}
      sweep: {r_min: 0.0, r_max: 2.0, r_points: 41}
      cpsc: {enumeration_replications: 100000}

Law nodes (LAWS): {kind: uniform, lo, hi}, {kind: beta, a, b},
{kind: point, v}, {kind: discrete, atoms: [[value, prob], ...]}.

parse_config parses the whole file before any study runs: every knob
of every study in STUDY_KNOBS, planned or not, gets its declared type,
bounds and default, and lands in ExperimentConfig.params. A key other
than those above (at the root, in a game, an advertiser, a strategy or
a law node), a study_params entry that is not a study, and a knob that
is not in that study's STUDY_KNOBS are rejected, so a misspelled key
cannot silently keep its default. Numbers must be YAML numbers: a
bool or a string is rejected, also where float() would take it, and
so is any YAML type JSON lacks (a date, a set, bytes). load_config
rejects collections nested more than MAX_NESTING deep, a repeated key,
a merge key (<<), an int literal whose value Python cannot read or
print (see _int_fault) and a scalar PyYAML cannot convert (!!bool
maybe), naming the line.

Every replication count, top-level or per study, lies in
[1, MAX_REPLICATIONS]: estimators run their batches serially, so an
unbounded count would mean a run that never ends. A game has at most
MAX_ADVERTISERS advertisers, so one batch's rate draws fit in
BATCH_RATE_BYTES, and a dominance scan has at most MAX_SCAN_COLUMNS
columns (fixtures x (grid_points + 1)), so its sums fit in SCAN_BYTES.
An advertiser's m and a posted bid are below
MAX_VALUE, so no sum of squared payoffs and no simulate total
overflows, and the dominance multipliers (fixtures, grid_max_multiplier)
are below MAX_MULTIPLIER, so neither do the scan's sums.

ExperimentConfig is an immutable collections.namedtuple subclass:
besides its named fields it can be unpacked and indexed, and it
compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
import sys
from collections import namedtuple
from functools import partial
from typing import Any

import yaml

from .distributions import Beta, Discrete, Distribution, Point, Uniform
from .model import (
    CHAIN_4,
    AdvertiserSpec,
    EventChain,
    Game,
    GameValidationError,
    MODEL_NAMES,
    PricingModel,
    Scenario,
    Strategy,
    pricing_model,
)
from .sampling import BATCH_SIZE

__all__ = [
    "STUDIES",
    "STUDY_KNOBS",
    "MAX_REPLICATIONS",
    "MAX_ADVERTISERS",
    "MAX_SCAN_COLUMNS",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "parse_config",
]

# the keys a config may hold at its root
TOP_LEVEL_KEYS = (
    "study", "seed", "replications", "threads", "out", "game", "cart_game", "study_params",
)

MAX_REPLICATIONS = 10**10

# bytes one batch's rate draws may take. They are advertisers x rate depths
# x BATCH_SIZE float64s, and the 4-stage chain has 3 rate depths, so this
# budget admits 64 advertisers to a game
BATCH_RATE_BYTES = 24 << 20
MAX_ADVERTISERS = BATCH_RATE_BYTES // ((len(CHAIN_4) - 1) * BATCH_SIZE * 8)

# bytes the dominance scan's per-column arrays may take. A scan has one
# column per fixture and evaluated bid (the grid plus the theoretical
# bid), and each column holds three 8-byte totals (the win count and the
# two sums), as many in a batch's partial and an int64 win start, so this
# budget admits the default four fixtures at the largest grid; the
# report's three per-bid arrays take the totals' place fixture by fixture
SCAN_BYTES = 24 << 20
MAX_SCAN_COLUMNS = SCAN_BYTES // ((3 + 3 + 1) * 8)

# rates are probabilities, so every per-draw payoff is within a few m of 0;
# below this m the sums of squares of MAX_REPLICATIONS of them stay finite.
# A posted bid is bounded by it too: a round charges at most the winner's
# bid, so the simulate totals of at most 10**6 rounds stay below 1e106
MAX_VALUE = 1e100

# bound of the dominance scan's fixture and grid multipliers. With m below
# MAX_VALUE and rates at most 1, every theoretical bid and rival equivalent
# bid is below MAX_VALUE, so every rival fixture, grid bid and scan utility
# is below (1 + multiplier) x MAX_VALUE in size. MAX_REPLICATIONS squares of
# that sum to below 1e10 x (1 + multiplier)^2 x 1e200, which stays finite
# for multipliers below about 1e49; 1e40 leaves room to spare
MAX_MULTIPLIER = 1e40

# the deepest a config may nest its collections (the shipped ones: 8); libyaml
# composes by recursion on the C stack, which 30 000 levels overflow
MAX_NESTING = 100

_brief = reprlib.Repr()  # values in error messages, cut short however large
_brief.maxlevel = 2


class ConfigError(Exception):
    """Invalid configuration; .field names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"config field '{field}': {message}")


def _require(node: dict, key: str, where: str) -> Any:
    if key not in node:
        raise ConfigError(f"{where}.{key}", "missing required field")
    return node[key]


def _number(
    value: Any,
    where: str,
    minimum: float | None = None,
    above: float | None = None,
    below: float | None = None,
) -> float:
    """A finite number, optionally >= minimum, > above and < below."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        hint = ""
        if isinstance(value, str):
            try:
                float(value)
                hint = "; YAML reads a number without a dot, such as 1e-3, as a string: write 1.0e-3"
            except ValueError:
                pass
        raise ConfigError(where, f"expected a number, got {_brief.repr(value)}{hint}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond float range
        raise ConfigError(where, "expected a finite number, got an int beyond float range") from None
    if not finite:
        raise ConfigError(where, f"expected a finite number, got {_brief.repr(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(where, f"must be >= {minimum}, got {value}")
    if above is not None and value <= above:
        raise ConfigError(where, f"must be > {above}, got {value}")
    if below is not None and value >= below:
        raise ConfigError(where, f"must be < {below}, got {value}")
    return float(value)


def _integer(
    value: Any, where: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(where, f"expected an integer, got {_brief.repr(value)}")
    if minimum is not None and value < minimum:
        raise ConfigError(where, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(where, f"must be <= {maximum}, got {value}")
    return value


def _numbers(value: Any, where: str, **bounds) -> list[float]:
    """A non-empty list of numbers, each within the bounds (_number's)."""
    if not isinstance(value, list) or not value:
        raise ConfigError(where, f"expected a non-empty list of numbers, got {_brief.repr(value)}")
    return [_number(v, f"{where}[{k}]", **bounds) for k, v in enumerate(value)]


def _choice(value: Any, where: str, options: tuple) -> Any:
    if value not in options:
        raise ConfigError(where, f"expected one of {list(options)}, got {_brief.repr(value)}")
    return value


def _mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(where, f"expected a mapping, got {type(value).__name__}")
    return value


def _known(node: dict, keys, where: str, what: str = "key") -> dict:
    """node, checked to hold no key outside keys; where prefixes the field
    an error names ("" at the root)."""
    for key in node:
        if key not in keys:
            field = f"{where}.{key}" if where else str(key)
            raise ConfigError(field, f"unknown {what}; expected one of {list(keys)}")
    return node


_REPLICATIONS = partial(_integer, minimum=1, maximum=MAX_REPLICATIONS)

# study -> knob -> (parse, default): every knob each study reads from
# study_params.<study>, parse(value, field) checking its type and bounds;
# a None default is the top-level replications
STUDY_KNOBS = {
    "simulate": {
        # trace rows stream to disk one round at a time, so memory stays flat;
        # the maximum bounds the run time and the trace file's size
        "rounds": (partial(_integer, minimum=1, maximum=1_000_000), 1000),
        "mode": (partial(_choice, options=("analytic", "realized")), "analytic"),
    },
    "dominance": {
        "replications": (_REPLICATIONS, 100_000),
        # a grid needs both ends: bid 0 and grid_max x the theoretical bid
        "grid_points": (partial(_integer, minimum=2, maximum=100_000), 101),
        "grid_max_multiplier": (partial(_number, above=0.0, below=MAX_MULTIPLIER), 2.0),
        "fixtures": (partial(_numbers, above=0.0, below=MAX_MULTIPLIER), [0.25, 0.5, 1.0, 2.0]),
    },
    "lemmas": {"replications": (_REPLICATIONS, None)},
    "collapse": {
        "rounds": (partial(_integer, minimum=2, maximum=1_000), 21),
        "decay": (partial(_number, above=0.0, below=1.0), 0.5),
        "threshold": (partial(_number, above=0.0), 1e-3),  # and <= decay
        "replications": (_REPLICATIONS, 10_000),
    },
    "sweep": {
        # outside options are nonnegative
        "r_min": (partial(_number, minimum=0.0), 0.0),
        "r_max": (_number, 2.0),  # and >= r_min
        "r_points": (partial(_integer, minimum=1, maximum=100_000), 41),
        "replications": (_REPLICATIONS, None),
    },
    "cpsc": {
        "replications": (_REPLICATIONS, None),
        "enumeration_replications": (_REPLICATIONS, 100_000),
    },
}
# the study names a config may pick: each study, then all of them in turn
STUDIES = (*STUDY_KNOBS, "reproduce-all")

# law kind -> (class, the keys of its parameters)
LAWS = {
    "uniform": (Uniform, ("lo", "hi")),
    "beta": (Beta, ("a", "b")),
    "point": (Point, ("v",)),
    "discrete": (Discrete, ("atoms",)),
}


def _parse_law(node: Any, where: str) -> Distribution:
    node = _mapping(node, where)
    kind = _choice(_require(node, "kind", where), f"{where}.kind", tuple(LAWS))
    cls, keys = LAWS[kind]
    _known(node, ("kind", *keys), where)
    args = [_require(node, key, where) for key in keys]
    if kind == "discrete":
        atoms = args[0]
        if not isinstance(atoms, list) or not all(isinstance(a, list) and len(a) == 2 for a in atoms):
            raise ConfigError(f"{where}.atoms", f"expected a list of [value, prob] pairs, got {_brief.repr(atoms)}")
        args = [
            tuple(_number(a[j], f"{where}.atoms[{k}][{j}]") for k, a in enumerate(atoms))
            for j in (0, 1)
        ]
    else:
        args = [_number(v, f"{where}.{key}") for key, v in zip(keys, args)]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(where, str(exc)) from None


def _model(value: Any, where: str, chain: EventChain) -> PricingModel:
    """A model name, resolved against the game's chain."""
    try:
        return pricing_model(_choice(value, where, MODEL_NAMES), chain)
    except GameValidationError as exc:
        raise ConfigError(where, str(exc)) from None


def _parse_game(
    node: Any, where: str
) -> tuple[Game, tuple[str, ...], tuple[Strategy, ...] | None]:
    node = _mapping(node, where)
    _known(node, ("chain", "scenario", "model", "models", "strategies", "advertisers"), where)
    chain_events = node.get("chain", ["impression", "click", "conversion"])
    if not isinstance(chain_events, list) or not all(
        isinstance(e, str) for e in chain_events
    ):
        raise ConfigError(f"{where}.chain", "expected a list of event names")
    try:
        chain = EventChain(tuple(chain_events))
    except GameValidationError as exc:
        raise ConfigError(f"{where}.chain", str(exc)) from None

    scenario = Scenario(
        _choice(node.get("scenario", "in_site"), f"{where}.scenario", ("in_site", "out_site"))
    )
    model = _model(node.get("model", "OCPC"), f"{where}.model", chain)
    models = node.get("models", ["CPC", "OCPC"])
    if not isinstance(models, list) or not models:
        raise ConfigError(f"{where}.models", "expected a non-empty list of model names")
    models = [_model(name, f"{where}.models[{k}]", chain).name for k, name in enumerate(models)]
    for k, name in enumerate(models):
        if name in models[:k]:
            raise ConfigError(f"{where}.models[{k}]", f"{name} is already listed")

    adv_nodes = _require(node, "advertisers", where)
    if not isinstance(adv_nodes, list) or len(adv_nodes) < 2:
        raise ConfigError(f"{where}.advertisers", "expected a list of at least 2 advertisers")
    if len(adv_nodes) > MAX_ADVERTISERS:
        raise ConfigError(
            f"{where}.advertisers",
            f"{len(adv_nodes)} advertisers: at most {MAX_ADVERTISERS}, so one batch's"
            f" rate draws stay within {BATCH_RATE_BYTES >> 20} MiB",
        )
    specs = []
    first_with_id: dict[int, int] = {}
    for i, adv in enumerate(adv_nodes):
        tag = f"{where}.advertisers[{i}]"
        adv = _known(_mapping(adv, tag), ("id", "m", "outside_option", "rates"), tag)
        m = _number(_require(adv, "m", tag), f"{tag}.m", below=MAX_VALUE)
        adv_id = _integer(adv.get("id", i + 1), f"{tag}.id")
        # ids name the CSV payoff columns and the trace's winner
        if adv_id in first_with_id:
            raise ConfigError(
                f"{tag}.id",
                f"id {adv_id} is already taken by {where}.advertisers[{first_with_id[adv_id]}]"
                " (an omitted id defaults to the 1-based position)",
            )
        first_with_id[adv_id] = i
        outside = adv.get("outside_option")
        if outside is not None:
            outside = _number(outside, f"{tag}.outside_option")
        events = chain.events[1:]
        rates_node = _known(_mapping(_require(adv, "rates", tag), f"{tag}.rates"), events,
                            f"{tag}.rates", "event")
        rates = [_parse_law(_require(rates_node, e, f"{tag}.rates"), f"{tag}.rates.{e}")
                 for e in events]
        specs.append(
            AdvertiserSpec(id=adv_id, m=m, rates=tuple(rates), outside_option=outside)
        )
    try:
        game = Game(specs, chain, model, scenario)
    except GameValidationError as exc:
        raise ConfigError(where, "; ".join(exc.violations)) from None

    strategies = None
    strat_nodes = node.get("strategies")
    if strat_nodes is not None:
        if not isinstance(strat_nodes, list) or len(strat_nodes) != len(specs):
            raise ConfigError(
                f"{where}.strategies",
                f"expected one entry per advertiser ({len(specs)})",
            )
        parsed = []
        for i, sn in enumerate(strat_nodes):
            tag = f"{where}.strategies[{i}]"
            sn = _known(_mapping(sn, tag), ("bid", "alpha"), tag)
            bid = _number(_require(sn, "bid", tag), f"{tag}.bid", below=MAX_VALUE)
            alpha = _number(sn.get("alpha", 1.0), f"{tag}.alpha")
            try:
                parsed.append(Strategy(bid=bid, alpha=alpha))
            except GameValidationError as exc:
                raise ConfigError(tag, "; ".join(exc.violations)) from None
        strategies = tuple(parsed)
    return game, tuple(models), strategies


class ExperimentConfig(namedtuple(
    "ExperimentConfig",
    "study seed replications threads out game models cart_game params effective strategies",
    defaults=(None,),
)):
    """A parsed config. study: str; seed, replications, threads: int; out:
    str or None; game: Game; models: tuple[str, ...]; cart_game: Game or
    None; params: dict, params[study][knob] for every knob of STUDY_KNOBS,
    parsed; effective: dict, the mapping after overrides with knobs
    resolved, the hash input; strategies: tuple[Strategy, ...] of posted
    play, or None (the default) for theoretical play."""

    __slots__ = ()

    def canonical(self) -> dict:
        """Result-determining fields only. The output directory and
        the recorded thread count never change a number, so they stay
        out of the identity. Feeding this mapping back through
        parse_config reproduces the run."""
        return {k: v for k, v in self.effective.items() if k not in ("out", "threads")}

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.canonical(), sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def parse_config(raw: Any, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a loaded mapping, applying CLI overrides first.

    Recognized overrides: study, seed, replications, out, threads. A
    replications override also replaces every study's replications knob,
    once the written one has parsed, so one flag controls every estimate."""
    raw = _known(_mapping(raw, "<root>"), TOP_LEVEL_KEYS, "")
    effective = dict(raw)  # only root keys are written; every leaf is type-checked below
    overrides = overrides or {}
    for key in ("study", "seed", "replications", "out", "threads"):
        if overrides.get(key) is not None:
            effective[key] = overrides[key]

    study = _choice(_require(effective, "study", "<root>"), "study", STUDIES)
    seed = _integer(_require(effective, "seed", "<root>"), "seed", minimum=0)
    replications = _REPLICATIONS(effective.get("replications", 1_000_000), "replications")
    threads = _integer(effective.get("threads", 1), "threads", minimum=1)
    out = effective.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", f"expected a path string, got {_brief.repr(out)}")

    game, models, strategies = _parse_game(_require(effective, "game", "<root>"), "game")
    cart_game = None
    if "cart_game" in effective:
        cart_game, _, _ = _parse_game(effective["cart_game"], "cart_game")
        if not cart_game.chain.has_cart:
            raise ConfigError("cart_game.chain", "cart_game must use the 4-stage chain")

    study_params = _mapping(effective.get("study_params", {}), "study_params")
    _known(study_params, STUDY_KNOBS, "study_params", "study")
    params = {}
    for name, knobs in STUDY_KNOBS.items():
        where = f"study_params.{name}"
        node = _known(_mapping(study_params.get(name, {}), where), knobs, where, "knob")
        params[name] = {
            knob: parse(node.get(knob, replications if default is None else default), f"{where}.{knob}")
            for knob, (parse, default) in knobs.items()
        }
        if overrides.get("replications") is not None and "replications" in knobs:
            params[name]["replications"] = replications
    sweep, collapse, dominance = params["sweep"], params["collapse"], params["dominance"]
    columns = len(dominance["fixtures"]) * (dominance["grid_points"] + 1)
    if columns > MAX_SCAN_COLUMNS:
        raise ConfigError(
            "study_params.dominance.fixtures",
            f"{len(dominance['fixtures'])} fixtures x {dominance['grid_points'] + 1} bids"
            f" (grid_points + 1) is {columns} scan columns: at most {MAX_SCAN_COLUMNS},"
            f" so the scan's sums stay within {SCAN_BYTES >> 20} MiB",
        )
    if sweep["r_max"] < sweep["r_min"]:
        raise ConfigError(
            "study_params.sweep.r_max", f"must be >= r_min {sweep['r_min']}, got {sweep['r_max']}"
        )
    # above decay, round 0 would already be collapsed: there is no spiral
    if collapse["threshold"] > collapse["decay"]:
        raise ConfigError(
            "study_params.collapse.threshold",
            f"must be <= decay {collapse['decay']}, got {collapse['threshold']}",
        )
    effective["study_params"] = params

    return ExperimentConfig(
        study=study,
        seed=seed,
        replications=replications,
        threads=threads,
        out=out,
        game=game,
        models=models,
        cart_game=cart_game,
        params=params,
        effective=effective,
        strategies=strategies,
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read a YAML config file and parse it with parse_config.

    The file is read by libyaml's CSafeLoader where PyYAML was built with
    libyaml, else by the pure-Python SafeLoader. Both resolve scalars with
    the same resolver and build the same mapping, so the config hash does
    not depend on the platform; the C parser is several times faster.
    The nesting is checked on the parser's events before composing."""
    loader_cls = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            _check_nesting(yaml.parse(fh, loader_cls))
            fh.seek(0)
            loader = loader_cls(fh)
            node = loader.get_single_node()
        raw = None if node is None else loader.construct_document(_check_nodes(node))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError("<yaml>", f"parse error{at}: {exc}") from None
    except (ValueError, LookupError, AttributeError) as exc:
        # a scalar PyYAML parsed but could not convert (!!bool maybe): its
        # failed construction leaves the node in recursive_objects. Only a
        # ValueError's message (an invalid date's) speaks of the scalar
        node = next(reversed(loader.recursive_objects))
        at = f"parse error at line {node.start_mark.line + 1}: cannot convert"
        why = f": {exc}" if isinstance(exc, ValueError) else ""
        tag = node.tag.replace("tag:yaml.org,2002:", "!!")
        raise ConfigError("<yaml>", f"{at} {_brief.repr(node.value)} to {tag}{why}") from None
    return parse_config(raw, overrides)


def _check_nesting(events) -> None:
    """Read the parser's events up to the first collection nested more
    than MAX_NESTING deep, an error naming its line."""
    depth = 0
    for event in events:
        depth += isinstance(event, yaml.CollectionStartEvent) - isinstance(event, yaml.CollectionEndEvent)
        if depth > MAX_NESTING:
            at = f"parse error at line {event.start_mark.line + 1}"
            raise ConfigError("<yaml>", f"{at}: collections nested more than {MAX_NESTING} deep")


def _int_fault(text: str, limit: int) -> str | None:
    """Why the int literal text cannot be read, or printed under the
    int-string digit limit (0: none), else None. Follows PyYAML's
    construct_yaml_int: 0b, 0x and a leading 0 read in a power-of-two
    base, which has no digit limit but can give a value of more digits
    than str() prints; a colon reads base 60; anything else reads as
    decimal. A literal none of these reads is left to PyYAML."""
    body = text.replace("_", "").lstrip("+-")
    if not body:
        return "an empty integer"
    if not limit:
        return None
    if body[0] == "0" and len(body) > 1:
        base, digits = {"b": (2, body[2:]), "x": (16, body[2:])}.get(body[1], (8, body))
        try:
            value = int(digits, base)
        except ValueError:
            return None
    else:
        parts = body.split(":")
        longest = max(map(len, parts))
        if longest > limit and all(map(str.isdigit, parts)):
            return f"an integer of {longest} digits, more than the {limit} that can be read"
        if len(parts) == 1:
            return None
        value = 0  # base 60, most significant part first; stop once past
        for part in parts:  # 4 * limit bits, which is more than limit digits
            if value.bit_length() > 4 * limit or not part.isdigit():
                break
            value = value * 60 + int(part)
    if value >= 10**limit:
        return f"an integer of more than {limit} digits, which cannot be printed"
    return None


def _check_nodes(root: yaml.Node) -> yaml.Node:
    """root, once each node under it is visited once and none is a repeated
    mapping key, a merge key (<<) or an int literal that _int_fault names."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    nodes, seen = [root], set()
    while nodes:
        node = nodes.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, yaml.MappingNode):
            keys = set()
            for key, _ in node.value:
                at = f"parse error at line {key.start_mark.line + 1}"
                if key.tag == "tag:yaml.org,2002:merge":
                    raise ConfigError("<yaml>", f"{at}: a merge key (<<); write its keys out")
                if isinstance(key, yaml.ScalarNode):  # any other key is unhashable
                    if (key.tag, key.value) in keys:
                        raise ConfigError("<yaml>", f"{at}: key {_brief.repr(key.value)} repeats")
                    keys.add((key.tag, key.value))
            nodes.extend(x for pair in reversed(node.value) for x in reversed(pair))
        elif isinstance(node, yaml.SequenceNode):
            nodes.extend(reversed(node.value))
        elif node.tag == "tag:yaml.org,2002:int":
            fault = _int_fault(node.value, limit)
            if fault:
                raise ConfigError("<yaml>", f"parse error at line {node.start_mark.line + 1}: {fault}")
    return root
