"""Domain types for the ad-auction game.

The funnel is an ordered event chain (impression -> click [-> cart]
-> conversion) with one rate law per advertiser per transition depth.
A pricing model is a (bid_depth, pay_depth) pair over that chain:
advertisers quote a price per bid-depth event and are charged per
pay-depth event. The six named models:

    CPM  = (impression, impression)
    CPC  = (click, click)
    CPA  = (conversion, conversion)
    OCPC = (conversion, click)
    OCPM = (conversion, impression)
    CPSC = (cart, click),  requires the 4-stage chain

Scenarios: in_site means the platform observes conversions itself, so
its predictions equal realized rates; out_site means conversions are
reported by advertisers, who may underreport with probability 1-alpha,
and the platform's conversion prediction carries its learned reporting
factor alpha_hat.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .distributions import Distribution
from .sampling import ADVERTISER_LIMIT

__all__ = [
    "EventChain",
    "AdvertiserSpec",
    "PricingModel",
    "Scenario",
    "Strategy",
    "PlatformBelief",
    "Game",
    "GameValidationError",
    "pricing_model",
    "in_site",
    "out_site",
    "validate_game",
    "MODEL_NAMES",
    "MODEL_TIE_ORDER",
]

CHAIN_3 = ("impression", "click", "conversion")
CHAIN_4 = ("impression", "click", "cart", "conversion")

# (bid, pay) with "last" resolved against the chain's conversion depth
_MODEL_DEPTHS = {
    "CPM": (0, 0),
    "CPC": (1, 1),
    "CPA": ("last", "last"),
    "OCPC": ("last", 1),
    "OCPM": ("last", 0),
    "CPSC": (2, 1),
}
MODEL_NAMES = tuple(_MODEL_DEPTHS)
# documented fixed ordering used to break payoff ties when a platform
# picks among models
MODEL_TIE_ORDER = ("CPC", "OCPC", "CPA", "CPM", "OCPM", "CPSC")


class GameValidationError(ValueError):
    """Carries the structured list of constraint violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class EventChain:
    """Ordered funnel events. Depth 0 (impression) has no rate."""

    events: tuple[str, ...] = CHAIN_3

    def __post_init__(self):
        if len(self.events) not in (3, 4):
            raise GameValidationError(
                [f"chain length must be 3 or 4, got {len(self.events)}"]
            )
        if self.events[0] != "impression" or self.events[-1] != "conversion":
            raise GameValidationError(
                ["chain must start at impression and end at conversion"]
            )

    @property
    def n_rate_depths(self) -> int:
        return len(self.events) - 1

    @property
    def conversion_depth(self) -> int:
        return len(self.events) - 1

    @property
    def has_cart(self) -> bool:
        return "cart" in self.events


@dataclass(frozen=True)
class AdvertiserSpec:
    """One advertiser: marginal gain per conversion, rate laws per depth,
    optional outside option r (absent means the advertiser always enters)."""

    id: int
    m: float
    rates: tuple[Distribution, ...]  # index d-1 holds the depth-d law
    outside_option: float | None = None

    def rate(self, depth: int) -> Distribution:
        return self.rates[depth - 1]

    def rate_means(self) -> tuple[float, ...]:
        return tuple(d.mean() for d in self.rates)


@dataclass(frozen=True)
class PricingModel:
    name: str
    bid_depth: int
    pay_depth: int

    def __post_init__(self):
        if self.pay_depth > self.bid_depth:
            raise GameValidationError(
                [f"{self.name}: pay_depth {self.pay_depth} exceeds bid_depth {self.bid_depth}"]
            )


def pricing_model(name: str, chain: EventChain) -> PricingModel:
    """Resolve a named model's depths against a chain."""
    if name not in _MODEL_DEPTHS:
        raise GameValidationError([f"unknown pricing model {name!r}"])
    bid, pay = _MODEL_DEPTHS[name]
    last = chain.conversion_depth
    bid = last if bid == "last" else bid
    pay = last if pay == "last" else pay
    if name == "CPSC" and not chain.has_cart:
        raise GameValidationError(["CPSC: missing cart depth in the event chain"])
    return PricingModel(name, bid, pay)


@dataclass(frozen=True)
class Scenario:
    """in_site or out_site; out-site, advertisers can manipulate only
    conversion reporting."""

    kind: str

    @property
    def is_out_site(self) -> bool:
        return self.kind == "out_site"


def in_site() -> Scenario:
    return Scenario("in_site")


def out_site() -> Scenario:
    return Scenario("out_site")


@dataclass(frozen=True)
class Strategy:
    """One advertiser's play: bid per bid-depth event, reporting prob alpha.

    alpha is meaningful only out-site; in-site it is fixed at 1."""

    bid: float
    alpha: float = 1.0

    def __post_init__(self):
        if self.bid < 0:
            raise GameValidationError([f"bid must be >= 0, got {self.bid}"])
        if not (0.0 <= self.alpha <= 1.0):
            raise GameValidationError([f"alpha must lie in [0, 1], got {self.alpha}"])


@dataclass(frozen=True)
class PlatformBelief:
    """Per-advertiser learned reporting factors alpha_hat."""

    alpha_hat: tuple[float, ...]

    def __post_init__(self):
        for a in self.alpha_hat:
            if not (0.0 <= a <= 1.0):
                raise GameValidationError([f"alpha_hat must lie in [0, 1], got {a}"])

    @staticmethod
    def truthful(n: int) -> "PlatformBelief":
        return PlatformBelief(tuple(1.0 for _ in range(n)))


@dataclass(frozen=True)
class Game:
    """Validated immutable game description."""

    specs: tuple[AdvertiserSpec, ...]
    chain: EventChain
    model: PricingModel
    scenario: Scenario

    @property
    def n(self) -> int:
        return len(self.specs)

    def with_model(self, name: str, scenario: Scenario | None = None) -> "Game":
        sc = self.scenario if scenario is None else scenario
        return validate_game(list(self.specs), self.chain, pricing_model(name, self.chain), sc)


def validate_game(
    specs: list[AdvertiserSpec] | tuple[AdvertiserSpec, ...],
    chain: EventChain,
    model: PricingModel,
    scenario: Scenario,
) -> Game:
    """Check cross-type constraints and freeze the game. Raises
    GameValidationError with every violation found."""
    violations: list[str] = []
    if len(specs) == 0:
        violations.append("advertiser list is empty")
    if len(specs) >= ADVERTISER_LIMIT:
        violations.append(
            f"{len(specs)} advertisers: at most {ADVERTISER_LIMIT - 1}, "
            "so rate draw keys stay apart from tie-break keys"
        )
    if model.name == "CPSC" and not chain.has_cart:
        violations.append("CPSC: missing cart depth")
    if model.bid_depth > chain.conversion_depth:
        violations.append(
            f"{model.name}: bid_depth {model.bid_depth} exceeds chain depth {chain.conversion_depth}"
        )
    for spec in specs:
        tag = f"advertiser {spec.id}"
        if not spec.m > 0:
            violations.append(f"{tag}: m must be > 0, got {spec.m}")
        if spec.outside_option is not None and spec.outside_option < 0:
            violations.append(f"{tag}: outside_option must be >= 0, got {spec.outside_option}")
        if len(spec.rates) != chain.n_rate_depths:
            violations.append(
                f"{tag}: expected {chain.n_rate_depths} rate laws for this chain, got {len(spec.rates)}"
            )
        for d, dist in enumerate(spec.rates, start=1):
            lo, hi = dist.support()
            if lo < 0.0 or hi > 1.0:
                violations.append(
                    f"{tag}: depth-{d} rate support [{lo}, {hi}] exceeds 1 or dips below 0"
                )
    if violations:
        raise GameValidationError(violations)
    return Game(tuple(specs), chain, model, scenario)
