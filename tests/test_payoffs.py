"""Equilibrium payoff estimation: MC estimator vs exhaustive enumeration,
billing-model equivalences, and the paired payoff orderings."""

import math
import platform
import resource

import numpy as np
import pytest
from hypothesis import given, settings

from adpricing import cli
from adpricing.distributions import Discrete, Point
from adpricing.model import AdvertiserSpec
from adpricing.model import CHAIN_4, MODEL_NAMES
from adpricing.payoffs import (
    estimate_equilibrium_payoffs,
    exact_equilibrium_payoffs,
    payoff_ordering_suite,
    _score_factors,
    _score_stack,
    _settle_models,
)
from adpricing.sampling import BATCH_SIZE, STREAM_PAYOFFS, draw_rates, tie_uniforms
from adpricing.strategy import best_response_scan

from conftest import cart_specs, default_specs, make_game, point_specs, rate_laws


def test_dice_enumeration_oracle():
    # each score is a face: the winner keeps the max, the platform the min
    rep = exact_equilibrium_payoffs(cli._dice_game())
    assert rep.social.mean == 161.0 / 36.0
    assert rep.platform.mean == 91.0 / 36.0
    assert math.fsum(a.mean for a in rep.advertisers) == pytest.approx(70.0 / 36.0, rel=1e-12)


def test_dice_monte_carlo_matches():
    rep = estimate_equilibrium_payoffs(cli._dice_game(), replications=200_000, seed=8)["CPC"]
    assert abs(rep.social.mean - 161.0 / 36.0) < 0.02
    assert abs(rep.platform.mean - 91.0 / 36.0) < 0.02


def test_bid_depth_sets_which_laws_enter_the_score():
    # CPC scores on the mean conversion rate, so a point mass at that mean
    # leaves its exact payoffs unchanged; OCPC scores on the realized rate
    conv = Discrete((0.05, 0.15), (0.5, 0.5))
    clicks = (Discrete((0.2, 0.4), (0.5, 0.5)), Discrete((0.15, 0.45), (0.25, 0.75)))
    spread = tuple(
        s._replace(rates=(c, conv)) for s, c in zip(default_specs(), clicks)
    )
    at_mean = tuple(s._replace(rates=(s.rates[0], Point(conv.mean()))) for s in spread)
    for model, same in (("CPC", True), ("OCPC", False)):
        a = exact_equilibrium_payoffs(make_game(spread, model=model))
        b = exact_equilibrium_payoffs(make_game(at_mean, model=model))
        assert ((a.platform, a.social, a.advertisers) == (b.platform, b.social, b.advertisers)) is same


def test_symmetric_point_game_payoffs_exact():
    game = make_game(point_specs(), model="OCPC")
    mc = estimate_equilibrium_payoffs(game, replications=2000, seed=1)["OCPC"]
    ex = exact_equilibrium_payoffs(game)
    for rep in (mc, ex):
        assert rep.platform.mean == 6.0
        assert rep.social.mean == 6.0
        assert rep.advertisers[0].mean == 0.0
        assert rep.advertisers[1].mean == 0.0


def _tied_specs(n):
    # identical two-atom laws: a quarter of the draws tie every score
    laws = (Discrete((0.2, 0.4), (0.5, 0.5)), Discrete((0.1, 0.3), (0.5, 0.5)))
    return tuple(default_specs()[0]._replace(id=k + 1, rates=laws) for k in range(n))


def _score_stack_by_temporaries(game, model_name, rates):
    """_score_stack as it was: a fresh full array of m per advertiser and a
    fresh product per factor, in depth order."""
    n, _, size = rates.shape
    out = np.empty((n, size), dtype=np.float64)
    for i in range(n):
        v = np.full(size, game.specs[i].m, dtype=np.float64)
        for kind, x in _score_factors(game, model_name, i):
            if kind == "realized":
                v = v * rates[i, x - 1, :]
            else:
                v = v * x
        out[i] = v
    return out


@pytest.mark.parametrize(
    "specs, chain",
    [
        pytest.param(default_specs(), None, id="default"),
        pytest.param(point_specs(), None, id="point"),
        pytest.param(
            (default_specs()[0], point_specs()[1]._replace(m=37.0)), None, id="point-and-uniform"
        ),
        pytest.param(cart_specs(), CHAIN_4, id="cart"),
    ],
)
def test_score_stack_is_the_temporaries_form_bit_for_bit(specs, chain):
    game = make_game(specs) if chain is None else make_game(specs, "CPSC", chain_events=chain)
    rates = draw_rates(game, 6, STREAM_PAYOFFS, 0, 4096)
    names = [name for name in MODEL_NAMES if chain is not None or name != "CPSC"]
    assert {"CPM", "CPC", "CPA"} <= set(names)
    for name in names:
        want = _score_stack_by_temporaries(game, name, rates)
        assert _score_stack(game, name, rates).tobytes() == want.tobytes(), name


@pytest.mark.parametrize(
    "specs, scenario, names",
    [
        pytest.param(default_specs(), "in_site", ("CPC", "OCPC", "CPA"), id="in-site"),
        pytest.param(
            default_specs(), "out_site", ("CPC", "OCPC", "CPA"), id="out-site-collapsed-cpa"
        ),
        pytest.param(
            default_specs() + (default_specs()[0]._replace(id=3),), "in_site",
            ("CPC", "OCPC", "CPA"), id="three-advertisers",
        ),
        pytest.param(_tied_specs(2), "in_site", ("CPC", "OCPC", "CPA"), id="tied-discrete"),
        pytest.param(_tied_specs(3), "in_site", ("CPC", "OCPC"), id="tied-discrete-three"),
    ],
)
def test_settlement_conserves_value_on_every_draw(specs, scenario, names):
    # social welfare splits exactly into the platform's take and the
    # advertisers' utilities, draw by draw, in every model settled
    game = make_game(specs, scenario=scenario)
    settled = _settle_models(game, names, 4, STREAM_PAYOFFS, 0, 4096)
    assert list(settled) == list(names)
    for name, arm in settled.items():
        assert arm.utils.shape == (game.n, 4096)
        resid = arm.social - arm.platform - arm.utils.sum(axis=0)
        assert np.all(resid == 0.0), name
    if scenario == "out_site":
        # the collapsed arm charges nothing; its winner is the two-way tie
        # rule's pick on the batch's tie uniforms
        u = tie_uniforms(4, STREAM_PAYOFFS, 0, 4096)
        assert np.array_equal(settled["CPA"].winner, u >= 0.5)
        assert not settled["CPA"].platform.any()
    if specs[0].rates == specs[1].rates:
        # tied top scores price at the top score
        assert np.any(settled["OCPC"].platform == settled["OCPC"].social)


def test_estimator_matches_enumeration_on_discrete_game():
    specs = (
        default_specs()[0].__class__(
            id=1, m=100.0,
            rates=(Discrete((0.2, 0.4), (0.5, 0.5)), Discrete((0.05, 0.15), (0.5, 0.5))),
        ),
        default_specs()[1].__class__(
            id=2, m=100.0,
            rates=(Discrete((0.15, 0.45), (0.5, 0.5)), Discrete((0.05, 0.2), (0.5, 0.5))),
        ),
    )
    game = make_game(specs, model="OCPC")
    ex = exact_equilibrium_payoffs(game)
    mc = estimate_equilibrium_payoffs(game, replications=200_000, seed=3)["OCPC"]
    for ex_ms, mc_ms in [
        (ex.platform, mc.platform),
        (ex.social, mc.social),
        (ex.advertisers[0], mc.advertisers[0]),
        (ex.advertisers[1], mc.advertisers[1]),
    ]:
        assert abs(mc_ms.mean - ex_ms.mean) <= 5.0 * mc_ms.se


def test_ocpc_equals_cpa_in_site():
    game = make_game(default_specs())
    reps = estimate_equilibrium_payoffs(game, replications=100_000, seed=7, models=["OCPC", "CPA"])
    a, b = reps["OCPC"], reps["CPA"]
    assert a.platform.mean == b.platform.mean
    assert a.social.mean == b.social.mean
    assert tuple(ms.mean for ms in a.advertisers) == tuple(ms.mean for ms in b.advertisers)


@pytest.mark.parametrize("scenario", ["in_site", "out_site"])
def test_multi_model_pass_equals_single_model_calls(scenario):
    third = default_specs()[0]._replace(id=3)
    names = ["CPC", "OCPC", "CPA", "CPM"]
    for specs in (default_specs(), default_specs() + (third,)):
        game = make_game(specs, scenario=scenario)
        multi = estimate_equilibrium_payoffs(game, 40_000, seed=5, models=names)
        assert list(multi) == names
        for name in names:
            single = estimate_equilibrium_payoffs(game.with_model(name), 40_000, seed=5)
            assert multi[name] == single[name]


def test_cpa_out_site_collapsed_regime_report():
    game = make_game(default_specs(), model="CPA", scenario="out_site")
    rep = estimate_equilibrium_payoffs(game, replications=50_000, seed=2)["CPA"]
    ex = exact_equilibrium_payoffs(game)  # closed form: the laws are continuous
    assert rep.platform.mean == 0.0 and rep.platform.se == 0.0
    assert ex.platform.mean == 0.0
    for spec, ms, ex_ms in zip(game.specs, rep.advertisers, ex.advertisers):
        target = spec.m * math.prod(spec.rate_means()) / game.n
        assert ex_ms.mean == target
        assert ms.mean == pytest.approx(target, abs=5.0 * ms.se)


def test_ordering_suite_holds_on_default_game():
    suite = payoff_ordering_suite(make_game(default_specs()), replications=100_000, seed=11)
    assert cli._ordered(suite.social) and cli._ordered(suite.platform, positive=False)
    assert all(map(cli._ordered, suite.advertisers))
    assert suite.social.mean > 0
    assert suite.platform.mean < 0
    assert all(r.mean > 0 for r in suite.advertisers)
    for d in suite.decomposition:
        assert d.residual.within()
        # gain and loss terms reassemble the direct paired difference
        recon = d.gain_term.mean + d.loss_term.mean
        assert abs(d.direct.mean - recon) <= 3.0 * max(d.residual.se, 1e-15)


def test_ordering_suite_degenerate_control_exact_zero():
    specs = point_specs(c1=0.3, p1=0.2, c2=0.35, p2=0.1)
    from adpricing.distributions import Uniform

    # stochastic clicks, degenerate conversions: CPC and OCPC scores coincide
    specs = tuple(
        s._replace(rates=(Uniform(0.2, 0.5), s.rates[1])) for s in specs
    )
    suite = payoff_ordering_suite(make_game(specs), replications=50_000, seed=5)
    for delta, positive in ((suite.social, True), (suite.platform, False),
                            *((a, True) for a in suite.advertisers)):
        assert delta.mean == 0.0
        assert delta.se == 0.0
        assert cli._ordered(delta, positive)


def test_ordering_suite_requires_two_advertisers():
    third = point_specs()[0]._replace(id=3)
    with pytest.raises(ValueError):
        payoff_ordering_suite(make_game(default_specs() + (third,)))


@settings(max_examples=60, deadline=None)
@given(law=rate_laws())
def test_max_of_independent_pair_dominates_mean(law):
    # two advertisers with one click law and sure conversions: under CPC
    # each score is 5 x its click rate, social welfare is E[max] and the
    # platform's take E[min]
    specs = [AdvertiserSpec(id=i, m=5.0, rates=(law, Point(1.0))) for i in (1, 2)]
    rep = estimate_equilibrium_payoffs(make_game(specs, model="CPC"), 4000, seed=9)["CPC"]
    mu = 5.0 * law.mean()
    slack = 1e-12 * abs(mu)  # degenerate laws: se is 0 but fsum rounding may differ
    assert rep.social.mean >= mu - 6.0 * rep.social.se - slack
    assert rep.platform.mean <= mu + 6.0 * rep.platform.se + slack


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's mallopt thresholds")
def test_settlement_batches_reuse_freed_memory():
    # without the CLI's allocator setting, every batch after the first
    # faults about 680 pages of its 128 KiB temporaries in again. The rate
    # draws and a dominance scan batch are held to the same rule
    cli._keep_batch_memory()
    game = make_game(default_specs())
    grid = np.linspace(0.0, 200.0, 101)
    batches = {
        "settle": lambda b: _settle_models(
            game, ("CPC", "OCPC", "CPA"), 1, STREAM_PAYOFFS, b, BATCH_SIZE
        ),
        "draw_rates": lambda b: draw_rates(game, 1, STREAM_PAYOFFS, b, BATCH_SIZE),
        "scan": lambda b: best_response_scan(
            0, grid, (2.5, 5.0, 10.0, 20.0), game, 100.0, BATCH_SIZE, seed=b
        ),
    }
    for name, batch in batches.items():
        faults = []
        for b_idx in range(4):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            batch(b_idx)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert max(faults[1:]) < 50, (name, faults)
