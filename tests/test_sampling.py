"""Deterministic seeding, batching, tie-break plumbing, and the SE rules."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from adpricing import sampling
from adpricing.distributions import Beta, Discrete, Point, Uniform
from adpricing.engine import select_winner
from adpricing.model import CHAIN_4, AdvertiserSpec
from adpricing.sampling import (
    BATCH_SIZE,
    SE_FACTOR,
    MeanSE,
    batch_layout,
    batch_rng,
    draw_rates,
    estimate,
    mean_se,
    rate_role,
    run_batched,
    settle,
    tie_uniforms,
    winner_tiebreak,
    winner_utilities,
)

from conftest import cart_specs, default_specs, make_game


def test_batch_layout_partitions():
    layout = list(batch_layout(10 * BATCH_SIZE + 17, BATCH_SIZE))
    assert sum(size for _, size in layout) == 10 * BATCH_SIZE + 17
    assert all(size <= BATCH_SIZE for _, size in layout)
    assert [idx for idx, _ in layout] == list(range(len(layout)))
    assert layout == list(batch_layout(10 * BATCH_SIZE + 17, BATCH_SIZE))
    assert list(batch_layout(5, BATCH_SIZE)) == [(0, 5)]
    assert list(batch_layout(2 * BATCH_SIZE, BATCH_SIZE)) == [(0, BATCH_SIZE), (1, BATCH_SIZE)]
    with pytest.raises(ValueError):
        batch_layout(0)  # raises at the call, before any batch is asked for


def test_batch_rng_keys():
    a = batch_rng(1, 2, 3, 4).random(8)
    b = batch_rng(1, 2, 3, 4).random(8)
    c = batch_rng(1, 2, 3, 5).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert rate_role(2, 1) != rate_role(1, 2)


@pytest.mark.parametrize(
    "key",
    [
        (0, 0, 0, 0),
        (1, 8, 39_999, 0),
        (2**32 - 1, 7, 5, 1_000_000),
        (2**32, 8, 0, 0),  # one part takes two words
        (3, 1, 2**64, 64),
        (2**64 - 1, 2**32, 2**40, 2**33),
    ],
)
def test_batch_rng_is_the_seed_sequence_of_the_key(key):
    ours = batch_rng(*key)
    theirs = np.random.default_rng(np.random.SeedSequence(key))
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.random(4).tobytes() == theirs.random(4).tobytes()


@pytest.mark.parametrize("key", [(-1, 0, 0, 0), (1, 8, -3, 0), (1, 8, 0, -(2**40))])
def test_batch_rng_rejects_a_negative_key_part(key):
    with pytest.raises(ValueError):  # never OverflowError from a uint32 cast
        batch_rng(*key)


def _keyed_sum(n, threads):
    def batch_fn(b_idx, size):
        x = batch_rng(11, 5, b_idx, 0).random(size)
        return {"s": x.sum(), "q": (x * x).sum()}

    return run_batched(n, batch_fn, threads=threads)


@pytest.mark.parametrize("n", [100, BATCH_SIZE, 3 * BATCH_SIZE + 7])
def test_run_batched_worker_count_is_invisible(n):
    base = _keyed_sum(n, 1)
    assert _keyed_sum(n, 2) == base
    assert _keyed_sum(n, 8) == base


def test_run_batched_memory_stays_flat():
    n = 200_000

    def batch_fn(b_idx, size):
        return {"s": float(b_idx), "v": np.array([b_idx, size], dtype=np.float64)}

    tracemalloc.start()
    try:
        got = run_batched(n, batch_fn, batch_size=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one partial at a time, whatever n is
    s, v = 0.0, np.array([0.0, 1.0])
    for i in range(1, n):
        s = s + float(i)
        v = v + np.array([i, 1], dtype=np.float64)
    assert got["s"] == s
    assert np.array_equal(got["v"], v)


def test_draw_rates_shape_and_determinism():
    game = make_game(default_specs())
    r1 = draw_rates(game, seed=3, stream=1, batch=0, size=64)
    r2 = draw_rates(game, seed=3, stream=1, batch=0, size=64)
    assert r1.shape == (2, 2, 64)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1[0, 0], r1[1, 0])  # advertisers get own streams
    assert not np.array_equal(r1, draw_rates(game, seed=4, stream=1, batch=0, size=64))
    assert (r1 >= 0).all() and (r1 <= 1).all()


def _draw_rates_by_copy(game, seed, stream, batch, size):
    """draw_rates as it was: every law draws a fresh array that is then
    copied into its row."""
    L = game.chain.n_rate_depths
    out = np.empty((game.n, L, size), dtype=np.float64)
    for i, spec in enumerate(game.specs):
        for d in range(1, L + 1):
            rng = batch_rng(seed, stream, batch, rate_role(i, d))
            out[i, d - 1, :] = spec.rate(d).sample(rng, size)
    return out


def test_draw_rates_is_the_copied_draws_bit_for_bit():
    laws = (Uniform(0.2, 0.4), Beta(2.0, 5.0), Point(0.5), Discrete((0.1, 0.6), (0.3, 0.7)))
    specs = [
        AdvertiserSpec(id=i + 1, m=10.0, rates=tuple(laws[(i + d) % 4] for d in range(3)))
        for i in range(4)
    ]
    game = make_game(specs, model="CPSC", chain_events=CHAIN_4)
    for batch, size in ((0, BATCH_SIZE), (3, 17)):
        got = draw_rates(game, 5, 1, batch, size)
        assert got.tobytes() == _draw_rates_by_copy(game, 5, 1, batch, size).tobytes()


def test_draw_rates_to_a_depth_is_the_full_draws_leading_rows():
    game = make_game(cart_specs(), chain_events=CHAIN_4, model="CPSC")
    full = draw_rates(game, 5, 1, 2, 300)
    assert draw_rates(game, 5, 1, 2, 300, depths=None).tobytes() == full.tobytes()
    for depths in range(full.shape[1] + 1):
        got = draw_rates(game, 5, 1, 2, 300, depths=depths)
        assert got.shape == (game.n, depths, 300)
        assert got.tobytes() == np.ascontiguousarray(full[:, :depths]).tobytes()


def test_tie_uniforms_deterministic():
    u = tie_uniforms(9, 2, 0, 32)
    assert np.array_equal(u, tie_uniforms(9, 2, 0, 32))
    assert u.shape == (32,)
    assert (u >= 0).all() and (u < 1).all()


def test_winner_tiebreak_unique_max():
    scores = np.array([[1.0, 5.0, 2.0], [3.0, 4.0, 2.5]])
    w = winner_tiebreak(scores, np.array([0.99, 0.0, 0.5]))
    assert w.tolist() == [1, 0, 1]


def test_winner_tiebreak_splits_ties():
    scores = np.tile(np.array([[2.0], [2.0], [1.0]]), (1, 9))
    u = np.array([0.0, 0.1, 0.49, 0.499, 0.5, 0.51, 0.9, 0.999, 1.0 - 1e-16])
    w = winner_tiebreak(scores, u)
    assert set(w.tolist()) <= {0, 1}
    assert w.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 1]


def test_winner_tiebreak_frequencies():
    n = 40_000
    scores = np.ones((2, n))
    u = batch_rng(5, 1, 0, 0).random(n)
    share = np.mean(winner_tiebreak(scores, u) == 0)
    assert abs(share - 0.5) < 0.01


def test_mean_se_matches_numpy():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    ms = mean_se(x.sum(), (x * x).sum(), len(x))
    assert ms.mean == pytest.approx(x.mean(), rel=1e-15)
    assert ms.se == pytest.approx(x.std(ddof=1) / np.sqrt(len(x)), rel=1e-12)
    degenerate = mean_se(4.0, 4.0, 4)  # all-ones sample
    assert degenerate == MeanSE(1.0, 0.0)


def test_ordering_rule_is_strict_beyond_k_se():
    assert SE_FACTOR == 3.0
    assert MeanSE(3.0 + 1e-12, 1.0).beyond()
    assert not MeanSE(3.0, 1.0).beyond()  # exactly 3 SE is not beyond
    assert not MeanSE(-3.5, 1.0).beyond()  # the wrong side
    assert MeanSE(-3.5, 1.0).beyond(positive=False)
    assert not MeanSE(-3.0, 1.0).beyond(positive=False)
    # an SE of 0: any nonzero mean on the wanted side holds, 0 itself does not
    assert MeanSE(1e-300, 0.0).beyond() and MeanSE(-1e-300, 0.0).beyond(positive=False)
    assert not MeanSE(0.0, 0.0).beyond() and not MeanSE(0.0, 0.0).beyond(positive=False)


def test_equality_rule_includes_its_bounds():
    assert MeanSE(13.0, 1.0).within(10.0)  # exactly k SE away
    assert MeanSE(7.0, 1.0).within(10.0)
    assert not MeanSE(13.0 + 1e-12, 1.0).within(10.0)
    assert not MeanSE(7.0 - 1e-12, 1.0).within(10.0)
    assert MeanSE(15.0, 1.0).within(10.0, k=5.0) and not MeanSE(15.0, 1.0).within(10.0, k=4.0)
    assert MeanSE(0.0, 0.0).within()
    # an SE of 0 asks for the target exactly
    assert MeanSE(2.5, 0.0).within(2.5)
    assert not MeanSE(2.5, 0.0).within(np.nextafter(2.5, 3.0))


def test_se_rules_decide_array_fields_cell_by_cell():
    ms = MeanSE(np.array([3.0, 3.5, -3.5, 0.0, 1.0]), np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
    assert ms.beyond().tolist() == [False, True, False, False, True]
    assert ms.beyond(positive=False).tolist() == [False, False, True, False, False]
    assert ms.within().tolist() == [True, False, False, True, False]
    assert ms.within(np.array([0.0, 0.5, -0.5, 0.0, 1.0])).tolist() == [True] * 5


def test_only_sampling_reads_the_se_factor():
    # every verdict's margin goes through MeanSE's rules, so SE_FACTOR has
    # one reader and a change of the margin rule has one home
    src = Path(sampling.__file__).parent
    readers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "sampling.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                [a.name for a in node.names] if isinstance(node, (ast.Import, ast.ImportFrom))
                else [node.id] if isinstance(node, ast.Name)
                else [node.attr] if isinstance(node, ast.Attribute)
                else []
            )
            if "SE_FACTOR" in names:
                readers.append(f"{path.name}:{node.lineno}")
    assert not readers


@pytest.mark.parametrize("n", [1, BATCH_SIZE, 2 * BATCH_SIZE + 5])
def test_estimate_matches_numpy_and_thread_count(n):
    def draws(b_idx, size):
        x = batch_rng(3, 9, b_idx, 0).random(size)
        return {"float": x, "bool": x < 0.3}

    whole = [draws(i, size) for i, size in batch_layout(n)]
    got = estimate(n, draws)
    assert estimate(n, draws) == got
    for key in ("float", "bool"):
        x = np.concatenate([part[key] for part in whole])
        assert got[key].mean == pytest.approx(np.mean(x), rel=1e-15)
        if n == 1:
            assert got[key].se == 0.0
        else:
            assert got[key].se == pytest.approx(np.std(x, ddof=1) / np.sqrt(n), rel=1e-12)


def _settle_by_hand(scores, u):
    """Per-column reference: the tie rule of winner_tiebreak, then the
    highest score among the other rows."""
    n, size = scores.shape
    winner = np.empty(size, dtype=np.int64)
    top = np.empty(size)
    second = np.empty(size)
    for j in range(size):
        col = list(scores[:, j])
        best = max(col)
        tied = [i for i, s in enumerate(col) if s == best]
        w = tied[min(int(u[j] * len(tied)), len(tied) - 1)]
        winner[j], top[j] = w, col[w]
        second[j] = max((s for i, s in enumerate(col) if i != w), default=0.0)
    return winner, top, second


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_settle_matches_brute_force_with_ties(n):
    rng = np.random.default_rng(n)
    blocks = [
        rng.integers(0, 3, size=(n, 500)).astype(np.float64),  # many ties
        rng.random((n, 500)),  # continuous
        np.full((n, 4), -np.inf),  # every row tied at -inf
        np.zeros((n, 4)),  # every row tied at 0
    ]
    if n == 2:
        # +0 against -0 ties: top and price are the rows' own zeros
        blocks.append(np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]]))
    scores = np.concatenate(blocks, axis=1)
    u = rng.random(scores.shape[1])
    u[1000:] = np.resize([0.0, 0.5, 1.0 - 2.0**-53], u.size - 1000)  # rank edges on tied columns
    got = settle(scores, u)
    want = _settle_by_hand(scores, u)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _settle_by_scatter(scores, u):
    """The general path's reference: the tie rule on numpy's column
    maximum (row 0 wins a NaN column, where no row equals it), the
    winner's score taken from its cell, and the price as the maximum over
    a copy of the scores with the winner's cell set to -inf."""
    n, size = scores.shape
    best = scores.max(axis=0)
    winner = np.zeros(size, dtype=np.int64)
    for j in range(size):
        tied = np.flatnonzero(scores[:, j] == best[j])
        if tied.size:
            winner[j] = tied[min(int(u[j] * tied.size), tied.size - 1)]
    top = scores[winner, np.arange(size)]
    if n == 1:
        return winner, top, np.zeros(size)
    rest = scores.copy()
    rest[winner, np.arange(size)] = -np.inf
    return winner, top, rest.max(axis=0)


class _TakeSpy(np.ndarray):
    """Scores that record every take, which only settle's general path
    makes on them."""

    takes = 0

    def take(self, *args, **kwargs):
        _TakeSpy.takes += 1
        return super().take(*args, **kwargs)


def _assert_settles_as(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_settle_tie_free_blocks_take_the_fast_path(n):
    # distinct scores in every column, run alone: the winner needs no rank
    # (a NaN uniform would raise on the cast) and settle makes no take
    rng = np.random.default_rng(300 + n)
    blocks = [
        rng.random((n, 500)),
        -rng.random((n, 500)),
        rng.standard_normal((n, 500)) * 10.0 ** rng.integers(-300, 300, (n, 500)),
        np.array([[5e-324, 1e-320, -5e-324], [1e-320, 5e-324, -1e-320]] + [[-1.0] * 3] * (n - 2)),
    ]
    for scores in blocks:
        u = rng.random(scores.shape[1])
        want = _settle_by_hand(scores, u)
        assert winner_tiebreak(scores, np.full(u.size, np.nan)).tobytes() == want[0].tobytes()
        _TakeSpy.takes = 0
        _assert_settles_as(settle(scores.view(_TakeSpy), u), want)
        assert _TakeSpy.takes == 0


_BOUNDARY_BLOCKS = {
    # +0 and -0 tied at the top, in either order
    "signed-zero-top": [[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [-1.0, -1.0, -0.0]],
    # a unique top over runner-ups +0 and -0, in either row order
    "signed-zero-second": [[5.0, 5.0, 0.0, -0.0], [0.0, -0.0, 5.0, 5.0], [-0.0, 0.0, -0.0, 0.0]],
    "zero-second": [[2.0, -0.0], [0.0, 3.0], [-1.0, -2.0]],
    "minus-inf-second": [
        [1.0, -np.inf, -np.inf], [-np.inf, 2.0, -np.inf], [-np.inf, -np.inf, -0.5]
    ],
    "plus-inf-top": [[np.inf, 1.0, -np.inf], [1.0, np.inf, np.inf], [0.5, -np.inf, 2.0]],
    "nan-below-top": [[3.0, 1.0, np.nan], [np.nan, 2.0, 1.0], [1.0, np.nan, 3.0]],
    "subnormal": [[5e-324, 1e-310, -5e-324], [1e-310, 5e-324, -1e-320], [-1e-320, 2e-310, 4e-324]],
}


@pytest.mark.parametrize("name", sorted(_BOUNDARY_BLOCKS))
@pytest.mark.parametrize("extra_rows", [0, 1])
def test_settle_boundary_blocks_are_the_general_path_bit_for_bit(name, extra_rows):
    scores = np.array(_BOUNDARY_BLOCKS[name])
    # a -inf row appended moves no winner and no price
    scores = np.vstack([scores, np.full((extra_rows, scores.shape[1]), -np.inf)])
    for u in (0.0, 0.5, 1.0 - 2.0**-53):
        u = np.full(scores.shape[1], u)
        _assert_settles_as(settle(scores, u), _settle_by_scatter(scores, u))


def test_settle_all_tied_block_counts_past_a_byte():
    # 257 tied rows: a count kept in 8 bits would wrap to one top row
    n, size = 257, 9
    scores = np.full((n, size), 2.5)
    u = np.linspace(0.0, 1.0 - 2.0**-53, size)
    got = settle(scores, u)
    _assert_settles_as(got, _settle_by_scatter(scores, u))
    assert got[0].tolist() == [min(int(x * n), n - 1) for x in u]


@pytest.mark.parametrize("seed", range(4))
def test_settle_matches_brute_force_on_random_blocks(seed):
    # blocks of mixed columns: distinct, tied and infinite scores, but no
    # zero or NaN, whose signs and order the hand oracle does not pin
    rng = np.random.default_rng(400 + seed)
    pool = np.array([-np.inf, np.inf, -2.0, -1.0, 1.0, 2.0, 5e-324, -5e-324])
    for n in (3, 4, 5, 7):
        size = 300
        scores = rng.random((n, size)) + 0.5
        tied = rng.random(size) < 0.3
        scores[:, tied] = rng.integers(1, 3, (n, tied.sum()))
        special = rng.random((n, size)) < 0.05
        scores[special] = rng.choice(pool, special.sum())
        u = rng.random(size)
        _assert_settles_as(settle(scores, u), _settle_by_hand(scores, u))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_settle_calls_winner_tiebreak_through_the_module(monkeypatch, n):
    # perfbench's per-layer trace wraps sampling.winner_tiebreak, so every
    # settlement must reach it through the module attribute
    calls = []

    def recording(scores, u):
        calls.append(scores.shape)
        return winner_tiebreak(scores, u)

    monkeypatch.setattr(sampling, "winner_tiebreak", recording)
    settle(np.random.default_rng(n).random((n, 16)), np.full(16, 0.5))
    assert calls == [(n, 16)]


class _FixedUniform:
    """Stand-in rng whose one draw is a given uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_settle_matches_scalar_engine_with_ties(n):
    # the vectorized kernel against the scalar engine's selection rule on the
    # same integer score columns and tie uniforms
    rng = np.random.default_rng(100 + n)
    size = 4000
    scores = rng.integers(0, 3, size=(n, size)).astype(np.float64)
    u = rng.random(size)
    winner, _, price = settle(scores, u)
    for j in range(size):
        w, e_loser = select_winner(scores[:, j], _FixedUniform(u[j]))
        assert (w, e_loser) == (winner[j], price[j]), j


def _utilities_by_scatter(winner, gap, n):
    """The winner's utilities as they were built: zeros, then gap scattered
    to each column's winner."""
    utils = np.zeros((n, gap.size))
    utils[winner, np.arange(gap.size)] = gap
    return utils


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_winner_utilities_are_the_scatter_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    size = 3000
    # tie-broken winners of integer scores, so many columns are ties
    scores = rng.integers(0, 3, size=(n, size)).astype(np.float64)
    winner = winner_tiebreak(scores, rng.random(size))
    # every kind of float in the gaps: signed zeros and NaNs, a NaN with a
    # payload, infinities, subnormals and ordinary values of both signs
    payload_nan = np.array([0x7FF8_0000_0000_0123], dtype=np.int64).view(np.float64)[0]
    special = [0.0, -0.0, np.nan, -np.nan, payload_nan, np.inf, -np.inf, 5e-324, -5e-324]
    gap = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    gap[: 10 * len(special)] = np.repeat(special, 10)
    got = winner_utilities(winner, gap, n)
    assert got.dtype == np.float64 and got.shape == (n, size)
    assert got.tobytes() == _utilities_by_scatter(winner, gap, n).tobytes()
