"""Theoretical strategies, utility estimation, dominance scans and the
underreporting spiral."""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from adpricing.config import load_config
from adpricing.distributions import Discrete
from adpricing.model import (
    CHAIN_4,
    Strategy,
    in_site,
    out_site,
)
from adpricing.sampling import (
    BATCH_SIZE,
    STREAM_FIXTURES,
    STREAM_UTILITY,
    batch_layout,
    batch_rng,
    draw_rates,
    rate_role,
)
from adpricing.strategy import (
    NO_EQUILIBRIUM,
    _suffix_sums,
    _win_starts,
    best_response_scan,
    cpa_collapse,
    equilibrium_fixture_bids,
    theoretical_strategy,
)

from conftest import (
    cart_specs,
    default_specs,
    make_game,
    mean_rate_equivalent_bids,
    point_specs,
)


ROOT = Path(__file__).resolve().parents[1]


def _theory(game, i=0):
    return theoretical_strategy(game.model, game.scenario, game.specs[i], game.chain)


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
    cpa = game.with_model("CPA")
    assert theoretical_strategy(cpa.model, cpa.scenario, cpa.specs[0], cpa.chain) is NO_EQUILIBRIUM
    cpc = game.with_model("CPC")
    in_variant = make_game(default_specs(), model="CPC")
    assert theoretical_strategy(cpc.model, cpc.scenario, cpc.specs[0], cpc.chain) == _theory(in_variant)


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


def test_one_bid_scan_is_seed_deterministic():
    game = make_game(default_specs(), model="CPC")
    (a,) = _one_bid(game, 8.0, [2.0], replications=4000, seed=3)
    (b,) = _one_bid(game, 8.0, [2.0], replications=4000, seed=3)
    (c,) = _one_bid(game, 8.0, [2.0], replications=4000, seed=4)
    assert (a.utility_theory, a.se_theory) == (b.utility_theory, b.se_theory)
    assert a.utility_theory != c.utility_theory


def test_fixture_bids_two_player_reduction_exact():
    game = make_game(default_specs(), model="CPC")
    fixtures = equilibrium_fixture_bids(game, multipliers=(0.25, 0.5, 1.0, 2.0))[0]
    engine_e = mean_rate_equivalent_bids(game)[1]
    assert fixtures[2] == engine_e
    assert fixtures == [m * engine_e for m in (0.25, 0.5, 1.0, 2.0)]


def test_fixture_bids_three_player_between_rivals():
    from dataclasses import replace

    third = replace(point_specs()[0], id=3, m=90.0)
    game = make_game(default_specs() + (third,), model="CPC")
    fixtures = equilibrium_fixture_bids(game, multipliers=(1.0,), replications=50_000)[0]
    es = mean_rate_equivalent_bids(game)[1:]
    # the mean of the max of rival scores sits at or above every single one
    assert fixtures[0] >= max(es) - 0.05
    assert fixtures[0] <= sum(es)


@pytest.mark.parametrize("n_advertisers", [3, 4])
def test_fixture_pass_matches_per_advertiser_rival_max(n_advertisers):
    # oracle: each advertiser's own batch loop over the same draws, the max
    # over its rivals summed per batch, then in batch order
    extra = (
        replace(point_specs()[0], id=3, m=90.0),
        replace(default_specs()[1], id=4, m=95.0),
    )[: n_advertisers - 2]
    n = 2 * BATCH_SIZE + 5
    mults = (0.5, 1.0, 3.0)
    for model in ("CPC", "OCPC"):
        game = make_game(default_specs() + extra, model=model)
        bd = game.model.bid_depth
        bids = [_theory(game, k).bid for k in range(game.n)]
        fixture_sets = equilibrium_fixture_bids(game, multipliers=mults, replications=n, seed=9)
        assert len(fixture_sets) == game.n
        for i in range(game.n):
            total = 0.0
            for b_idx, size in batch_layout(n):
                rates = draw_rates(game, 9, STREAM_FIXTURES, b_idx, size)
                e = np.stack(
                    [bids[k] * np.prod(rates[k, :bd, :], axis=0) for k in range(game.n) if k != i]
                )
                total += float(e.max(axis=0).sum())
            assert fixture_sets[i] == [m * (total / n) for m in mults], (model, i)

    with pytest.raises(ValueError, match="at least one rival"):
        equilibrium_fixture_bids(make_game(default_specs()[:1], model="CPC"))


# sha256 of the repr of equilibrium_fixture_bids (default multipliers,
# 2 * BATCH_SIZE + 5 replications, seed 9) and of cpa_collapse (12 rounds,
# decay 0.5, BATCH_SIZE + 7 replications, seed 4), pinned when the fixture
# pass drew every depth and the collapse took each product twice
FIXTURES_SHA256 = {
    "three_player/CPC": "f94eb841eac4bfbc870953f8a34464b8b23b45104bc50ed870ec316041c01663",
    "three_player/OCPC": "fa7fe448828c3b58fc5166d0ab082060111d9364a02732d02375a76e69df81b7",
    "four/CPC": "6aea14423520e2ddaae222cb6abffcfff4453e89e948cb3f98a8cf0eb9df9e48",
    "four/OCPC": "557f4399e265313aa1e6325a654196067f481169dccfb7acff27a748bb29caf1",
}
COLLAPSE_SHA256 = {
    2: "25ac1f7e59abaee7ce8e86d941118a1ac9f8c458a54acb5946efcf390b43c6bb",
    3: "ca56367fec6f9e00dbd27263c05f4841fb3cb0d9f69d57b1e8b211e13f29d716",
}


def _repr_sha256(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


def _four_specs():
    return default_specs() + (
        replace(point_specs()[0], id=3, m=90.0),
        replace(default_specs()[1], id=4, m=95.0),
    )


@pytest.mark.parametrize("case", sorted(FIXTURES_SHA256))
def test_fixture_bids_are_pinned(case):
    # CPC bids at the click, OCPC at the conversion: the pass draws rates
    # only to the bid depth, and the shallower draw moves no bit
    name, model = case.split("/")
    if name == "three_player":
        game = load_config(str(ROOT / "configs" / "three_player.yaml")).game
    else:
        game = make_game(_four_specs())
    game = game.with_model(model, in_site())
    fixtures = equilibrium_fixture_bids(game, replications=2 * BATCH_SIZE + 5, seed=9)
    assert _repr_sha256(fixtures) == FIXTURES_SHA256[case]


@pytest.mark.parametrize("n_advertisers", sorted(COLLAPSE_SHA256))
def test_cpa_collapse_is_pinned(n_advertisers):
    specs = default_specs() + (replace(point_specs()[0], id=3, m=90.0),)
    game = make_game(specs[:n_advertisers], model="CPA", scenario="out_site")
    trace = cpa_collapse(game, rounds=12, decay=0.5, replications=BATCH_SIZE + 7, seed=4)
    assert _repr_sha256(trace) == COLLAPSE_SHA256[n_advertisers]


def test_best_response_scan_passes_for_theory():
    game = make_game(default_specs(), model="CPC")
    theory = _theory(game)
    grid = np.linspace(0.0, 2.0 * theory.bid, 41)
    fixtures = equilibrium_fixture_bids(game)[0]
    rep = best_response_scan(0, grid, fixtures, game, theory.bid, replications=20_000, seed=2)
    assert rep.passed
    assert abs(rep.argmax_index - rep.theory_index) <= 1
    assert rep.theory_bid == theory.bid


def test_best_response_scan_flags_wrong_bid():
    game = make_game(default_specs(), model="CPC")
    theory = _theory(game)
    grid = np.linspace(0.0, 2.0 * theory.bid, 41)
    fixtures = equilibrium_fixture_bids(game)[0]
    rep = best_response_scan(0, grid, fixtures, game, 2.0 * theory.bid, replications=20_000, seed=2)
    assert not rep.passed


def test_scan_rejects_negative_bids():
    # the sorted-threshold kernel relies on x -> x * b being increasing
    game = make_game(default_specs(), model="CPC")
    with pytest.raises(ValueError, match="bids must be >= 0"):
        best_response_scan(0, [0.0, -1.0], [1.0], game, 1.0, replications=10)
    with pytest.raises(ValueError, match="bids must be >= 0"):
        best_response_scan(0, [1.0], [1.0], game, -1.0, replications=10)


def test_cpa_collapse_schedule_and_regimes():
    game = make_game(default_specs(), model="CPA", scenario="out_site")
    trace = cpa_collapse(game, rounds=12, decay=0.5, replications=2000, seed=4)
    assert len(trace.rounds) == 12
    for t, row in enumerate(trace.rounds):
        assert row.alpha == pytest.approx(0.5 ** (t + 1), rel=1e-12)
        assert row.alpha_hat == pytest.approx(0.5**t, rel=1e-12)
        assert row.collapsed == (row.alpha < 1e-3)
    pre = [r for r in trace.rounds if not r.collapsed]
    post = [r for r in trace.rounds if r.collapsed]
    assert len(pre) == 9 and len(post) == 3
    # bid inflation cancels the underreporting: charged revenue stays flat
    assert pre[-1].revenue.mean == pytest.approx(pre[0].revenue.mean, abs=6.0 * (pre[0].revenue.se + pre[-1].revenue.se))
    assert all(r.revenue.mean == 0.0 and r.revenue.se == 0.0 for r in post)
    assert all(abs(s - 0.5) < 0.05 for r in post for s in r.winner_share)


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
def test_suffix_sums_are_the_appended_form_bit_for_bit(size):
    rng = np.random.default_rng(size)
    v = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    want = np.append(np.cumsum(v[::-1])[::-1], 0.0)
    got = _suffix_sums(v)
    assert got.shape == (size + 1,)
    assert got.tobytes() == want.tobytes()


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
    theory column."""
    spec = game.specs[0]
    value_mul = spec.m
    for d in range(game.model.bid_depth + 1, game.chain.conversion_depth + 1):
        value_mul *= spec.rate_means()[d - 1]
    sums = []
    for e in rival_es:
        win = x[:, None] * bids[None, :] > e
        w = value_mul * x - e
        uw = win * w[:, None]
        flip = win != win[:, -1:]
        sums.append((win, w, uw.sum(axis=0), (uw * w[:, None]).sum(axis=0),
                     (flip * (w * w)[:, None]).sum(axis=0)))
    return sums


def _atom_game():
    # click rates on three atoms: many draws tie on every threshold
    (spec, rival) = default_specs()
    spec = replace(spec, rates=(Discrete((0.25, 0.35, 0.45), (0.3, 0.4, 0.3)), spec.rates[1]))
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
    # one one-bid scan per grid bid reports that bid's paired margin and SE
    singles = [
        best_response_scan(0, [b], rival_es, game, theory, replications=n, seed=seed).fixtures
        for b in grid
    ]
    for f, (scan, (win, w, s, q, dsq)) in enumerate(zip(rep.fixtures, dense)):
        # a sum's rounding scales with the magnitude of its terms
        u_tol = 1e-12 * np.abs(w).mean()
        means = s / n
        np.testing.assert_allclose(scan.utilities, means[:-1], rtol=1e-12, atol=u_tol)
        np.testing.assert_allclose(scan.utility_theory, means[-1], rtol=1e-12, atol=u_tol)
        se_th = np.sqrt(max(q[-1] / n - means[-1] ** 2, 0.0) / (n - 1))
        np.testing.assert_allclose(scan.se_theory, se_th, rtol=1e-12)
        diff = means[-1] - means[:-1]
        se_d = np.sqrt(np.maximum(dsq[:-1] / n - diff**2, 0.0) / (n - 1))
        np.testing.assert_allclose([one[f].margin for one in singles], diff,
                                   rtol=1e-12, atol=u_tol)
        np.testing.assert_allclose([one[f].se_margin for one in singles], se_d, rtol=1e-12)
        assert scan.passed == bool(np.all(diff >= -3.0 * se_d))
