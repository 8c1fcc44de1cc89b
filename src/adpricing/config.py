"""Experiment configuration: YAML schema, validation, canonical hash.

Every input flows through the config file or the CLI flags; nothing is
read from the environment or the clock, so a (config, seed) pair pins
the run. The canonical form hashed into the manifest is the parsed
mapping after CLI overrides are applied.

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

Distribution nodes: {kind: uniform, lo, hi}, {kind: beta, a, b},
{kind: point, v}, {kind: discrete, atoms: [[value, prob], ...]}.

A key other than those above (at the root, in a game, an advertiser or
a strategy), a study_params entry that is not a study, and a knob that
is not in that study's STUDY_KNOBS are rejected, so a misspelled key
cannot silently keep its default.

Every replication count, top-level or per study, lies in
[1, MAX_REPLICATIONS]: estimators run their batches serially, so an
unbounded count would mean a run that never ends. An advertiser's m is
below MAX_VALUE, so no sum of squared payoffs overflows.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import yaml

from .distributions import distribution_from_dict
from .model import (
    AdvertiserSpec,
    EventChain,
    Game,
    GameValidationError,
    MODEL_NAMES,
    Strategy,
    in_site,
    out_site,
    pricing_model,
    validate_game,
)

__all__ = [
    "STUDIES",
    "STUDY_KNOBS",
    "MAX_REPLICATIONS",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "parse_config",
]

STUDIES = (
    "simulate",
    "dominance",
    "lemmas",
    "collapse",
    "sweep",
    "cpsc",
    "reproduce-all",
)

# the keys a config may hold at its root
TOP_LEVEL_KEYS = (
    "study", "seed", "replications", "threads", "out", "game", "cart_game", "study_params",
)

# every knob each study reads from study_params.<study>; the accessors of
# ExperimentConfig read no other name
STUDY_KNOBS = {
    "simulate": ("rounds", "mode"),
    "dominance": (
        "replications", "grid_points", "grid_max_multiplier", "fixtures", "fixture_replications",
    ),
    "lemmas": ("replications",),
    "collapse": ("rounds", "decay", "threshold", "replications"),
    "sweep": ("r_min", "r_max", "r_points", "replications"),
    "cpsc": ("replications", "enumeration_replications"),
}

MAX_REPLICATIONS = 10**10

# rates are probabilities, so every per-draw payoff is within a few m of 0;
# below this m the sums of squares of MAX_REPLICATIONS of them stay finite
MAX_VALUE = 1e100


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
        raise ConfigError(where, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(where, f"expected a finite number, got {value!r}")
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
        raise ConfigError(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(where, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(where, f"must be <= {maximum}, got {value}")
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

    kind = node.get("scenario", "in_site")
    if kind == "in_site":
        scenario = in_site()
    elif kind == "out_site":
        scenario = out_site()
    else:
        raise ConfigError(f"{where}.scenario", f"expected in_site or out_site, got {kind!r}")

    model_name = node.get("model", "OCPC")
    if model_name not in MODEL_NAMES:
        raise ConfigError(f"{where}.model", f"unknown model {model_name!r}")
    models = node.get("models", ["CPC", "OCPC"])
    if not isinstance(models, list) or not models:
        raise ConfigError(f"{where}.models", "expected a non-empty list of model names")
    for name in models:
        if name not in MODEL_NAMES:
            raise ConfigError(f"{where}.models", f"unknown model {name!r}")

    adv_nodes = _require(node, "advertisers", where)
    if not isinstance(adv_nodes, list) or len(adv_nodes) < 2:
        raise ConfigError(f"{where}.advertisers", "expected a list of at least 2 advertisers")
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
        rates_node = _mapping(_require(adv, "rates", tag), f"{tag}.rates")
        rates = []
        for event in chain.events[1:]:
            if event not in rates_node:
                raise ConfigError(f"{tag}.rates.{event}", "missing rate law for this chain event")
            try:
                rates.append(distribution_from_dict(rates_node[event]))
            except ValueError as exc:
                raise ConfigError(f"{tag}.rates.{event}", str(exc)) from None
        unknown = set(rates_node) - set(chain.events[1:])
        if unknown:
            raise ConfigError(
                f"{tag}.rates", f"events not in the chain: {sorted(unknown)}"
            )
        specs.append(
            AdvertiserSpec(id=adv_id, m=m, rates=tuple(rates), outside_option=outside)
        )
    try:
        game = validate_game(specs, chain, pricing_model(model_name, chain), scenario)
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
            bid = _number(_require(sn, "bid", tag), f"{tag}.bid")
            alpha = _number(sn.get("alpha", 1.0), f"{tag}.alpha")
            try:
                parsed.append(Strategy(bid=bid, alpha=alpha))
            except GameValidationError as exc:
                raise ConfigError(tag, "; ".join(exc.violations)) from None
        strategies = tuple(parsed)
    return game, tuple(models), strategies


@dataclass(frozen=True)
class ExperimentConfig:
    study: str
    seed: int
    replications: int
    threads: int
    out: str | None
    game: Game
    models: tuple[str, ...]
    cart_game: Game | None
    study_params: dict
    effective: dict  # canonical mapping after overrides, the hash input
    strategies: tuple[Strategy, ...] | None = None  # posted play, else theoretical
    replications_forced: bool = False  # --replications given: it wins everywhere

    def param(self, study: str, key: str, default: Any) -> Any:
        """study_params.<study>.<key> as written, or default. The knob must
        be declared in STUDY_KNOBS; any other name raises KeyError."""
        if key not in STUDY_KNOBS.get(study, ()):
            raise KeyError(f"study_params.{study}.{key} is not declared in STUDY_KNOBS")
        return self.study_params.get(study, {}).get(key, default)

    def int_param(
        self, study: str, key: str, default: int, minimum: int = 1, maximum: int | None = None
    ) -> int:
        """study_params.<study>.<key>, or default, as an integer within
        [minimum, maximum]."""
        return _integer(
            self.param(study, key, default), f"study_params.{study}.{key}", minimum, maximum
        )

    def number_param(self, study: str, key: str, default: float, **bounds) -> float:
        """study_params.<study>.<key>, or default, as a number within the
        bounds (_number's minimum, above, below)."""
        return _number(self.param(study, key, default), f"study_params.{study}.{key}", **bounds)

    def numbers_param(self, study: str, key: str, default, **bounds) -> tuple[float, ...]:
        """A non-empty list of numbers, each within the bounds."""
        where = f"study_params.{study}.{key}"
        values = self.param(study, key, default)
        if not isinstance(values, list) or not values:
            raise ConfigError(where, f"expected a non-empty list of numbers, got {values!r}")
        return tuple(_number(v, f"{where}[{k}]", **bounds) for k, v in enumerate(values))

    def study_replications(self, study: str, default: int | None = None) -> int:
        base = self.replications if (default is None or self.replications_forced) else default
        return self.int_param(study, "replications", base, maximum=MAX_REPLICATIONS)

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
    replications override also clears per-study replication knobs so
    one flag controls every estimate."""
    raw = _known(_mapping(raw, "<root>"), TOP_LEVEL_KEYS, "")
    effective = json.loads(json.dumps(raw))  # deep copy, JSON-typed
    overrides = overrides or {}
    for key in ("study", "seed", "replications", "out", "threads"):
        if overrides.get(key) is not None:
            effective[key] = overrides[key]

    study = _require(effective, "study", "<root>")
    if study not in STUDIES:
        raise ConfigError("study", f"unknown study {study!r}; expected one of {list(STUDIES)}")
    seed = _integer(_require(effective, "seed", "<root>"), "seed", minimum=0)
    replications = _integer(
        effective.get("replications", 1_000_000), "replications", minimum=1, maximum=MAX_REPLICATIONS
    )
    threads = _integer(effective.get("threads", 1), "threads", minimum=1)
    out = effective.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out", f"expected a path string, got {out!r}")

    game, models, strategies = _parse_game(_require(effective, "game", "<root>"), "game")
    cart_game = None
    if "cart_game" in effective:
        cart_game, _, _ = _parse_game(effective["cart_game"], "cart_game")
        if not cart_game.chain.has_cart:
            raise ConfigError("cart_game.chain", "cart_game must use the 4-stage chain")

    study_params = _mapping(effective.get("study_params", {}), "study_params")
    for name, params in _known(study_params, STUDY_KNOBS, "study_params", "study").items():
        where = f"study_params.{name}"
        _known(_mapping(params, where), STUDY_KNOBS[name], where, "knob")
        if overrides.get("replications") is not None:
            params.pop("replications", None)

    return ExperimentConfig(
        study=study,
        seed=seed,
        replications=replications,
        threads=threads,
        out=out,
        game=game,
        models=models,
        cart_game=cart_game,
        study_params=study_params,
        effective=effective,
        strategies=strategies,
        replications_forced=overrides.get("replications") is not None,
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: {exc}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        at = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigError("<yaml>", f"parse error{at}: {exc}") from None
    return parse_config(raw, overrides)
