"""Theoretical strategies, utility estimation, dominance scans and the
underreporting spiral."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from adpricing import sampling, strategy
from adpricing.cli import _unbeaten
from adpricing.config import load_config
from adpricing.distributions import Discrete
from adpricing.engine import run_auction
from adpricing.model import (
    CHAIN_4,
    PlatformBelief,
    Strategy,
    in_site,
    out_site,
)
from adpricing.sampling import (
    BATCH_SIZE,
    STREAM_ROUNDS,
    STREAM_UTILITY,
    batch_rng,
    rate_role,
)
from adpricing.strategy import (
    _tail_sums,
    _win_starts,
    best_response_scan,
    cpa_collapse,
    equilibrium_fixture_bids,
    theoretical_play,
)

from conftest import (
    cart_specs,
    default_specs,
    make_game,
    mean_rate_equivalent_bids,
    point_specs,
    scans_pass,
)


ROOT = Path(__file__).resolve().parents[1]


def _theory(game, i=0):
    return theoretical_play(game)[i]


@pytest.mark.parametrize(
    "model,bid",
    [
        ("CPC", 20.0),   # m x conversion mean
        ("CPA", 100.0),  # bid already at the deepest event
        ("OCPC", 100.0),
        ("OCPM", 100.0),
        ("CPM", 6.0),    # m x click mean x conversion mean
    ],
)
def test_theoretical_bids_point_game(model, bid):
    game = make_game(point_specs(), model=model)
    strat = _theory(game)
    assert strat == Strategy(bid=bid, alpha=1.0)


def test_theoretical_bid_cpsc():
    game = make_game(cart_specs(), model="CPSC", chain_events=CHAIN_4)
    # bid per cart: m x mean conversion rate downstream of the cart
    assert _theory(game).bid == 100.0 * game.specs[0].rate(3).mean()


def test_theoretical_out_site():
    game = make_game(default_specs(), model="OCPC", scenario="out_site")
    assert _theory(game) == Strategy(bid=100.0, alpha=1.0)
    assert theoretical_play(game.with_model("CPA")) is None
    in_variant = make_game(default_specs(), model="CPC")
    assert theoretical_play(game.with_model("CPC")) == theoretical_play(in_variant)


def _one_bid(game, bid, rival_es, replications=500, seed=1):
    """Utility of one bid per rival fixture: a one-point scan at that bid."""
    return best_response_scan(0, [bid], rival_es, game, bid, replications, seed).fixtures


def test_one_bid_scan_exact_point_game():
    game = make_game(point_specs(p1=0.1), model="CPC")
    # value per impression 100 x 0.3 x 0.1 = 3; theoretical bid 10; the
    # last fixture is an exact tie, which loses: winning requires strictly
    # beating the rival
    win, lose, tie = _one_bid(game, 10.0, [2.0, 4.0, 10.0 * 0.3])
    assert (win.utility_theory, win.se_theory) == (1.0, 0.0)
    assert (lose.utility_theory, lose.se_theory) == (0.0, 0.0)
    assert (tie.utility_theory, tie.se_theory) == (0.0, 0.0)


def _exact_scan(game, replications):
    """A scan whose every draw has the same rate product x, over a grid
    around the theoretical bid and fixtures the theoretical bid beats and
    loses to, with each fixture's per-draw utility of a won draw."""
    spec = game.specs[0]
    theory = _theory(game).bid
    grid = np.linspace(0.0, 2.0 * theory, 21)
    bd = game.model.bid_depth
    x = 1.0
    for d in range(1, bd + 1):
        x *= spec.rate(d).mean()
    value = spec.m
    for d in range(bd + 1, game.chain.conversion_depth + 1):
        value *= spec.rate(d).mean()
    rival_es = [0.3 * x * theory, 0.7 * x * theory, 1.3 * x * theory]
    rep = best_response_scan(0, grid, rival_es, game, theory, replications, seed=5)
    return rep, [value * x - e for e in rival_es]


@pytest.mark.parametrize(
    "game_fn",
    [
        # a point law: every rate is sure
        lambda: make_game(point_specs(p1=0.1), model="CPC"),
        # bid depth 0: nothing before the impression is drawn, x = 1
        lambda: make_game(default_specs(), model="CPM"),
    ],
    ids=["point-law", "bid-depth-0"],
)
def test_scan_ses_are_exactly_zero_where_x_is_sure(game_fn):
    # every column wins all draws or none, so no SE has anything to measure;
    # the sums merge over three batches
    rep, utility = _exact_scan(game_fn(), 2 * BATCH_SIZE + 7)
    won, lost = rep.fixtures[:2], rep.fixtures[2:]
    for scan in rep.fixtures:
        assert scan.se_theory == 0.0 and np.all(scan.gap.se == 0.0)
        assert not np.signbit([scan.se_theory, *scan.gap.se]).any()
    # the theoretical bid beats the first two fixtures on every draw and
    # reports the per-draw utility exactly; it loses every draw to the last
    assert [scan.utility_theory for scan in won] == utility[:2]
    assert all(scan.utility_theory == 0.0 for scan in lost)
    for scan, u in zip(rep.fixtures, utility):
        # a grid bid that always wins (the top of the grid does) reports the
        # same exact utility
        assert scan.utilities[-1] == u
    assert scans_pass(rep)


def test_one_bid_scan_is_seed_deterministic():
    game = make_game(default_specs(), model="CPC")
    (a,) = _one_bid(game, 8.0, [2.0], replications=4000, seed=3)
    (b,) = _one_bid(game, 8.0, [2.0], replications=4000, seed=3)
    (c,) = _one_bid(game, 8.0, [2.0], replications=4000, seed=4)
    assert (a.utility_theory, a.se_theory) == (b.utility_theory, b.se_theory)
    assert a.utility_theory != c.utility_theory


def test_fixture_bids_two_player_reduction_exact():
    game = make_game(default_specs(), model="CPC")
    fixtures = equilibrium_fixture_bids(game, multipliers=(0.25, 0.5, 1.0, 2.0))["CPC"][0]
    engine_e = mean_rate_equivalent_bids(game)[1]
    assert fixtures[2] == engine_e
    assert fixtures == [m * engine_e for m in (0.25, 0.5, 1.0, 2.0)]


def test_fixture_bids_three_player_between_rivals():
    third = point_specs()[0]._replace(id=3, m=90.0)
    game = make_game(default_specs() + (third,), model="CPC")
    fixtures = equilibrium_fixture_bids(game, multipliers=(1.0,))["CPC"][0]
    es = mean_rate_equivalent_bids(game)[1:]
    # the strongest rival's mean equivalent bid
    assert fixtures[0] == max(es)


@pytest.mark.parametrize("n_advertisers", [3, 4])
def test_fixture_pass_matches_per_advertiser_rival_max(n_advertisers):
    # oracle: the scalar engine's equivalent bids at the mean rates, the
    # maximum over each advertiser's rivals, times each multiplier
    mults = (0.5, 1.0, 3.0)
    for model in ("CPC", "OCPC"):
        game = make_game(_four_specs()[:n_advertisers], model=model)
        fixture_sets = equilibrium_fixture_bids(game, multipliers=mults)[model]
        assert fixture_sets == _rival_max_oracle(game, mults), model

    with pytest.raises(ValueError, match="at least one rival"):
        equilibrium_fixture_bids(make_game(default_specs()[:1], model="CPC"))


def test_fixture_bids_draw_nothing(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("the fixtures drew random numbers")

    monkeypatch.setattr(sampling, "batch_rng", no_draws)
    monkeypatch.setattr(strategy, "batch_rng", no_draws)
    for n_advertisers in (2, 3, 4):
        game = make_game(_four_specs()[:n_advertisers], model="CPC")
        fixture_sets = equilibrium_fixture_bids(game, models=["CPC", "OCPC", "CPA"])
        assert [len(f) for f in fixture_sets.values()] == [n_advertisers] * 3


@pytest.mark.parametrize("n_advertisers", [2, 3])
def test_one_fixture_pass_serves_every_model_bit_for_bit(n_advertisers):
    # CPC bids at the click, CPA and OCPC at the conversion: one call for
    # every model gives each model the fixtures of its own call
    specs = _four_specs()[:n_advertisers]
    game = make_game(specs, model="CPC")
    shared = equilibrium_fixture_bids(game, models=["OCPC", "CPC", "CPA"])
    assert list(shared) == ["OCPC", "CPC", "CPA"]
    for model in ("CPC", "OCPC"):
        alone = equilibrium_fixture_bids(game.with_model(model))
        assert list(alone) == [model]
        assert repr(shared[model]) == repr(alone[model])
    assert shared["CPA"] == shared["OCPC"]
    out = make_game(specs, model="OCPC", scenario="out_site")
    with pytest.raises(ValueError, match="CPA/out_site has no equilibrium bid"):
        equilibrium_fixture_bids(out, models=["OCPC", "CPA"])


# sha256 of the repr of cpa_collapse (12 rounds, decay 0.5, BATCH_SIZE + 7
# replications, seed 4), pinned when its rounds were first settled by
# payoffs._settle_models
COLLAPSE_SHA256 = {
    2: "a26107b7fcb1346219ad80bde269875b041892f2511f8922a05c2cbbd2b20ab3",
    3: "4450186b5c034c383749bb35aa689504a78bd3582afb109a656a9905a0352753",
}


def _repr_sha256(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


def _rival_max_oracle(game, mults):
    # per advertiser, each multiplier times the largest of its rivals'
    # equivalent bids on the scalar engine at the mean rates
    es = mean_rate_equivalent_bids(game)
    return tuple(
        [m * max(e for k, e in enumerate(es) if k != i) for m in mults] for i in range(game.n)
    )


def _four_specs():
    return default_specs() + (
        point_specs()[0]._replace(id=3, m=90.0),
        default_specs()[1]._replace(id=4, m=95.0),
    )


@pytest.mark.parametrize(
    "case", ["four/CPC", "four/OCPC", "three_player/CPC", "three_player/OCPC"]
)
def test_fixture_bids_are_pinned(case):
    # CPC bids at the click, OCPC at the conversion: each model's fixtures
    # are the engine's rival maximum at its own bid depth
    name, model = case.split("/")
    if name == "three_player":
        game = load_config(str(ROOT / "configs" / "three_player.yaml")).game
    else:
        game = make_game(_four_specs())
    game = game.with_model(model, in_site())
    fixtures = equilibrium_fixture_bids(game)[model]
    assert fixtures == _rival_max_oracle(game, (0.25, 0.5, 1.0, 2.0))


@pytest.mark.parametrize("n_advertisers", sorted(COLLAPSE_SHA256))
def test_cpa_collapse_is_pinned(n_advertisers):
    specs = default_specs() + (point_specs()[0]._replace(id=3, m=90.0),)
    game = make_game(specs[:n_advertisers], model="CPA", scenario="out_site")
    rounds = cpa_collapse(game, rounds=12, decay=0.5, replications=BATCH_SIZE + 7, seed=4)
    assert _repr_sha256(rounds) == COLLAPSE_SHA256[n_advertisers]


def test_best_response_scan_passes_for_theory():
    game = make_game(default_specs(), model="CPC")
    theory = _theory(game)
    grid = np.linspace(0.0, 2.0 * theory.bid, 41)
    fixtures = equilibrium_fixture_bids(game)["CPC"][0]
    rep = best_response_scan(0, grid, fixtures, game, theory.bid, replications=20_000, seed=2)
    assert scans_pass(rep)
    assert abs(rep.argmax_index - rep.theory_index) <= 1
    assert rep.theory_bid == theory.bid


def test_best_response_scan_flags_wrong_bid():
    game = make_game(default_specs(), model="CPC")
    theory = _theory(game)
    grid = np.linspace(0.0, 2.0 * theory.bid, 41)
    fixtures = equilibrium_fixture_bids(game)["CPC"][0]
    rep = best_response_scan(0, grid, fixtures, game, 2.0 * theory.bid, replications=20_000, seed=2)
    assert not scans_pass(rep)


def test_scan_rejects_negative_bids():
    # the sorted-threshold kernel relies on x -> x * b being increasing
    game = make_game(default_specs(), model="CPC")
    with pytest.raises(ValueError, match="bids must be >= 0"):
        best_response_scan(0, [0.0, -1.0], [1.0], game, 1.0, replications=10)
    with pytest.raises(ValueError, match="bids must be >= 0"):
        best_response_scan(0, [1.0], [1.0], game, -1.0, replications=10)


def test_scan_rejects_a_grid_that_does_not_ascend():
    # the tail sums read the win starts of ascending bids, which descend
    game = make_game(default_specs(), model="CPC")
    with pytest.raises(ValueError, match="grid must ascend"):
        best_response_scan(0, [0.0, 2.0, 1.0], [1.0], game, 1.0, replications=10)


def test_cpa_collapse_schedule_and_regimes():
    game = make_game(default_specs(), model="CPA", scenario="out_site")
    rounds = cpa_collapse(game, rounds=12, decay=0.5, replications=2000, seed=4)
    assert len(rounds) == 12
    for t, row in enumerate(rounds):
        assert row.alpha == pytest.approx(0.5 ** (t + 1), rel=1e-12)
        assert row.alpha_hat == pytest.approx(0.5**t, rel=1e-12)
        assert row.collapsed == (row.alpha < 1e-3)
    pre = [r for r in rounds if not r.collapsed]
    post = [r for r in rounds if r.collapsed]
    assert len(pre) == 9 and len(post) == 3
    # bid inflation cancels the underreporting: charged revenue stays flat
    assert pre[-1].revenue.mean == pytest.approx(pre[0].revenue.mean, abs=6.0 * (pre[0].revenue.se + pre[-1].revenue.se))
    assert all(r.revenue.mean == 0.0 and r.revenue.se == 0.0 for r in post)
    assert all(abs(s - 0.5) < 0.05 for r in post for s in r.winner_share)


@pytest.mark.parametrize("config", ["default.yaml", "three_player.yaml"])
@pytest.mark.parametrize("decay", [0.3, 0.5, 0.7, 0.9])
@pytest.mark.parametrize("alpha_hat", [1.0, 0.37, 0.01])
def test_a_collapse_round_is_in_site_cpa_on_the_scalar_engine(config, decay, alpha_hat):
    # the identity cpa_collapse settles its rounds by: with bid m/alpha and
    # report alpha for all under one belief alpha_hat, every equivalent bid
    # is alpha_hat/alpha times the in-site CPA one, and the charged/predicted
    # ratio alpha/alpha_hat takes that factor back out of the take. Payoffs
    # are a difference of the value and the take, so they are compared at
    # the value's scale
    game = load_config(str(ROOT / "configs" / config)).game
    alpha = decay * alpha_hat
    spiral = (
        game.with_model("CPA", out_site()),
        [Strategy(s.m / alpha, alpha) for s in game.specs],
        PlatformBelief((alpha_hat,) * game.n),
    )
    truthful = (game.with_model("CPA", in_site()), [Strategy(s.m, 1.0) for s in game.specs], None)
    rngs = [batch_rng(3, STREAM_ROUNDS, 0) for _ in range(2)]
    for _ in range(1000):
        a, b = (run_auction(*play, rng) for play, rng in zip((spiral, truthful), rngs))
        assert a.draw.realized == b.draw.realized
        assert a.winner == b.winner and a.social_welfare == b.social_welfare
        assert a.platform_payoff == pytest.approx(b.platform_payoff, rel=1e-14, abs=0.0)
        gaps = [abs(x - y) for x, y in zip(a.payoffs, b.payoffs)]
        assert max(gaps) <= 1e-14 * b.social_welfare


def test_cpa_collapse_validation():
    game = make_game(default_specs(), model="CPA", scenario="out_site")
    with pytest.raises(ValueError):
        cpa_collapse(make_game(default_specs(), model="CPA"), 5, 0.5)
    with pytest.raises(ValueError):
        cpa_collapse(game, 1, 0.5)
    with pytest.raises(ValueError):
        cpa_collapse(game, 5, 1.0)


def test_cpa_collapse_rejects_aliasing_round_keys():
    # a round's batch keys are t * 2^20 + batch: one more batch than that
    # would reach the next round's keys (rejected before any draw)
    game = make_game(default_specs(), model="CPA", scenario="out_site")
    with pytest.raises(ValueError, match="batches per round"):
        cpa_collapse(game, 5, 0.5, replications=(1 << 20) * BATCH_SIZE + 1)


@pytest.mark.parametrize("size", [0, 1, 2, 7, 5000])
def test_tail_sums_match_fsum_at_every_start(size):
    rng = np.random.default_rng(size)
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    # descending starts, as ascending bids' win starts are: ties, both ends,
    # and starts at size (never-winning columns, whose tails are empty)
    k = np.concatenate([rng.integers(0, size + 1, 40), [size, 0, size], rng.integers(0, size + 1, 3)])
    k = np.sort(np.concatenate([k, k[::3]]))[::-1]
    got_v, got_sq = _tail_sums(k, v, v * v)
    assert got_v.shape == got_sq.shape == k.shape
    for got, arr in ((got_v, v), (got_sq, v * v)):
        for j, start in enumerate(k):
            tail = arr[start:]
            want = math.fsum(tail)
            # a running sum's error is at most its length x eps x sum |terms|
            bound = tail.size * 2.0**-52 * math.fsum(np.abs(tail))
            assert abs(got[j] - want) <= bound, (start, got[j], want)
    assert np.all(got_v[k == size] == 0.0) and np.all(got_sq[k == size] == 0.0)
    # a start repeated anywhere reads the same tail, bit for bit
    for start in np.unique(k):
        assert len(set(got_v[k == start].tolist())) == 1


def _scan_draws(game, seed, size):
    """Advertiser 0's rate products up to the bid depth in batch 0 of the
    scan, unsorted."""
    spec = game.specs[0]
    x = np.ones(size)
    for d in range(1, game.model.bid_depth + 1):
        x *= spec.rate(d).sample(batch_rng(seed, STREAM_UTILITY, 0, rate_role(0, d)), size)
    return x


def _dense_scan_sums(game, x, bids, rival_es):
    """Per fixture, the scan's sums by the dense rule: every draw's product
    with every bid is compared with the fixture; the last bid is the
    theory column. Besides the win mask, the utility w and each column's
    sum of won utility, it gives every column's per-draw variance from the
    sums of w - c, c the utility at the mean rates, over the win set, and
    every grid column's paired variance from the same sums taken directly
    over the draws where it and the theory column disagree."""
    spec = game.specs[0]
    bd = game.model.bid_depth
    value_mul = spec.m
    for d in range(bd + 1, game.chain.conversion_depth + 1):
        value_mul *= spec.rate_means()[d - 1]
    mu = 1.0
    for d in range(1, bd + 1):
        mu *= spec.rate_means()[d - 1]
    n = x.size
    sums = []
    for e in rival_es:
        win = x[:, None] * bids[None, :] > e
        w = value_mul * x - e
        c = value_mul * mu - e
        y = (w - c)[:, None]
        flip = win != win[:, -1:]
        var, var_d = (
            _shifted_variance(m.sum(axis=0), (m * y).sum(axis=0), (m * y * y).sum(axis=0), c, n)
            for m in (win, flip)
        )
        sums.append((win, w, (win * w[:, None]).sum(axis=0), var, var_d[:-1]))
    return sums


def _shifted_variance(cnt, s, q, c, n):
    """Variance of a draw's w on a set of cnt of n draws (0 off it) from the
    set's sums s and q of w - c and (w - c)^2: the spread inside the set
    plus the Bernoulli spread of its mean."""
    safe = np.maximum(cnt, 1)
    inside = np.where(cnt > 0, q - s * s / safe, 0.0) / n
    mean = c + np.where(cnt > 0, s / safe, 0.0)
    return np.maximum(inside, 0.0) + (cnt / n) * (1.0 - cnt / n) * mean * mean


def _atom_game():
    # click rates on three atoms: many draws tie on every threshold
    (spec, rival) = default_specs()
    spec = spec._replace(rates=(Discrete((0.25, 0.35, 0.45), (0.3, 0.4, 0.3)), spec.rates[1]))
    return make_game((spec, rival), model="CPC")


def _misguessed_fixtures(x, bids):
    """Fixtures on which the quotient guess e / b lands on the wrong side
    of a drawn x, so the win start must be corrected: x * b hit exactly
    with (x * b) / b < x, and the float just below x * b with a quotient
    >= x."""
    found = {}
    for v in np.unique(x)[:200]:
        for b in bids[bids > 0]:
            below = np.nextafter(v * b, 0.0)
            if (v * b) / b < v:
                found.setdefault("up", v * b)
            if below / b >= v:
                found.setdefault("down", below)
    return list(found.values())


@pytest.mark.parametrize(
    "game_fn, n_misguessed",
    [
        (_atom_game, 2),
        (lambda: make_game(default_specs(), model="CPC"), 2),
        # bid depth 0: every x is 1, one block of ties, never misguessed
        (lambda: make_game(default_specs(), model="CPM"), 0),
    ],
    ids=["atoms", "continuous", "bid-depth-0"],
)
def test_scan_matches_dense_oracle(game_fn, n_misguessed):
    game = game_fn()
    theory = _theory(game).bid
    size, seed = 5000, 3
    grid = np.linspace(0.0, 2.0 * theory, 21)  # holds bid 0 and the theoretical bid
    assert grid[10] == theory
    bids = np.append(grid, theory)
    x = _scan_draws(game, seed, size)
    # fixtures hit exactly (a drawn x times a grid bid, the same x times
    # the theoretical bid), fixtures the quotient guess misses, and one
    # between draws
    misguessed = _misguessed_fixtures(x, grid)
    assert len(misguessed) == n_misguessed
    rival_es = [x[0] * grid[7], x[0] * theory, *misguessed, 0.9 * x.mean() * theory]
    dense = _dense_scan_sums(game, x, bids, rival_es)

    xs = np.sort(x)
    for (win, *_), e in zip(dense, rival_es):
        k = _win_starts(xs, bids, e)
        assert np.array_equal(xs[:, None] * bids[None, :] > e, np.arange(size)[:, None] >= k)
        assert np.array_equal(win.sum(axis=0), size - k)

    n = size
    rep = best_response_scan(0, grid, rival_es, game, theory, replications=n, seed=seed)
    # one one-bid scan per grid bid reports that bid's paired gap and SE
    singles = [
        best_response_scan(0, [b], rival_es, game, theory, replications=n, seed=seed).fixtures
        for b in grid
    ]
    for f, (scan, (win, w, s, var, var_d)) in enumerate(zip(rep.fixtures, dense)):
        # a sum's rounding scales with the magnitude of its terms
        u_tol = 1e-12 * np.abs(w).mean()
        means = s / n
        np.testing.assert_allclose(scan.utilities, means[:-1], rtol=1e-12, atol=u_tol)
        np.testing.assert_allclose(scan.utility_theory, means[-1], rtol=1e-12, atol=u_tol)
        se_th = np.sqrt(var[-1] / (n - 1))
        np.testing.assert_allclose(scan.se_theory, se_th, rtol=1e-12)
        diff = means[-1] - means[:-1]
        se_d = np.sqrt(var_d / (n - 1))
        np.testing.assert_allclose(scan.gap.mean, diff, rtol=1e-12, atol=u_tol)
        np.testing.assert_allclose(scan.gap.se, se_d, rtol=1e-12)
        np.testing.assert_allclose([one[f].gap.mean[0] for one in singles], diff,
                                   rtol=1e-12, atol=u_tol)
        np.testing.assert_allclose([one[f].gap.se[0] for one in singles], se_d, rtol=1e-12)
        assert _unbeaten(scan.gap) == bool(np.all(diff >= -3.0 * se_d))
