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

from .distributions import Distribution, Frozen
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


class EventChain(Frozen):
    """Ordered funnel events. Depth 0 (impression) has no rate."""

    __slots__ = _fields = ("events",)

    def __init__(self, events: tuple[str, ...] = CHAIN_3):
        if len(events) not in (3, 4):
            raise GameValidationError(
                [f"chain length must be 3 or 4, got {len(events)}"]
            )
        if events[0] != "impression" or events[-1] != "conversion":
            raise GameValidationError(
                ["chain must start at impression and end at conversion"]
            )
        self._init(events)

    @property
    def conversion_depth(self) -> int:
        """The last event's depth, which is also the count of rate laws."""
        return len(self.events) - 1

    @property
    def has_cart(self) -> bool:
        return "cart" in self.events


class AdvertiserSpec(Frozen):
    """One advertiser: marginal gain per conversion, rate laws per depth
    (rates[d-1] holds the depth-d law), optional outside option r (absent
    means the advertiser always enters)."""

    __slots__ = _fields = ("id", "m", "rates", "outside_option")

    def __init__(
        self,
        id: int,
        m: float,
        rates: tuple[Distribution, ...],
        outside_option: float | None = None,
    ):
        self._init(id, m, rates, outside_option)

    def rate(self, depth: int) -> Distribution:
        return self.rates[depth - 1]

    def rate_means(self) -> tuple[float, ...]:
        return tuple(d.mean() for d in self.rates)


class PricingModel(Frozen):
    __slots__ = _fields = ("name", "bid_depth", "pay_depth")

    def __init__(self, name: str, bid_depth: int, pay_depth: int):
        if pay_depth > bid_depth:
            raise GameValidationError(
                [f"{name}: pay_depth {pay_depth} exceeds bid_depth {bid_depth}"]
            )
        self._init(name, bid_depth, pay_depth)


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


class Scenario(Frozen):
    """in_site or out_site; out-site, advertisers can manipulate only
    conversion reporting."""

    __slots__ = _fields = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("in_site", "out_site"):
            raise GameValidationError([f"scenario must be in_site or out_site, got {kind!r}"])
        self._init(kind)

    @property
    def is_out_site(self) -> bool:
        return self.kind == "out_site"


def in_site() -> Scenario:
    return Scenario("in_site")


def out_site() -> Scenario:
    return Scenario("out_site")


class Strategy(Frozen):
    """One advertiser's play: bid per bid-depth event, reporting prob alpha.

    alpha is meaningful only out-site; in-site it is fixed at 1."""

    __slots__ = _fields = ("bid", "alpha")

    def __init__(self, bid: float, alpha: float = 1.0):
        if bid < 0:
            raise GameValidationError([f"bid must be >= 0, got {bid}"])
        if not (0.0 <= alpha <= 1.0):
            raise GameValidationError([f"alpha must lie in [0, 1], got {alpha}"])
        self._init(bid, alpha)


class PlatformBelief(Frozen):
    """Per-advertiser learned reporting factors alpha_hat."""

    __slots__ = _fields = ("alpha_hat",)

    def __init__(self, alpha_hat: tuple[float, ...]):
        for a in alpha_hat:
            if not (0.0 <= a <= 1.0):
                raise GameValidationError([f"alpha_hat must lie in [0, 1], got {a}"])
        self._init(alpha_hat)


class Game(Frozen):
    """Immutable game description, specs stored as a tuple. __init__ checks
    the cross-type constraints; GameValidationError lists every violation."""

    __slots__ = _fields = ("specs", "chain", "model", "scenario")

    def __init__(
        self,
        specs: tuple[AdvertiserSpec, ...] | list[AdvertiserSpec],
        chain: EventChain,
        model: PricingModel,
        scenario: Scenario,
    ):
        specs = tuple(specs)
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
            if len(spec.rates) != chain.conversion_depth:
                violations.append(
                    f"{tag}: expected {chain.conversion_depth} rate laws for this chain, got {len(spec.rates)}"
                )
            for d, dist in enumerate(spec.rates, start=1):
                lo, hi = dist.support()
                if lo < 0.0 or hi > 1.0:
                    violations.append(
                        f"{tag}: depth-{d} rate support [{lo}, {hi}] exceeds 1 or dips below 0"
                    )
        if violations:
            raise GameValidationError(violations)
        self._init(specs, chain, model, scenario)

    @property
    def n(self) -> int:
        return len(self.specs)

    def with_model(self, name: str, scenario: Scenario | None = None) -> "Game":
        sc = self.scenario if scenario is None else scenario
        return Game(self.specs, self.chain, pricing_model(name, self.chain), sc)
