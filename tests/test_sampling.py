"""Deterministic seeding, batching, and tie-break plumbing."""

import os
from concurrent.futures import Future

import numpy as np
import pytest

from adpricing import sampling
from adpricing.engine import select_winner
from adpricing.sampling import (
    BATCH_SIZE,
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
)

from conftest import default_specs, make_game


def test_batch_layout_partitions():
    layout = batch_layout(10 * BATCH_SIZE + 17, BATCH_SIZE)
    assert sum(size for _, size in layout) == 10 * BATCH_SIZE + 17
    assert all(size <= BATCH_SIZE for _, size in layout)
    assert [idx for idx, _ in layout] == list(range(len(layout)))
    assert layout == batch_layout(10 * BATCH_SIZE + 17, BATCH_SIZE)
    assert batch_layout(5, BATCH_SIZE) == [(0, 5)]
    with pytest.raises(ValueError):
        batch_layout(0)


def test_batch_rng_keys():
    a = batch_rng(1, 2, 3, 4).random(8)
    b = batch_rng(1, 2, 3, 4).random(8)
    c = batch_rng(1, 2, 3, 5).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert rate_role(2, 1) != rate_role(1, 2)


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


def test_draw_rates_shape_and_determinism():
    game = make_game(default_specs())
    r1 = draw_rates(game, seed=3, stream=1, batch=0, size=64)
    r2 = draw_rates(game, seed=3, stream=1, batch=0, size=64)
    assert r1.shape == (2, 2, 64)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1[0, 0], r1[1, 0])  # advertisers get own streams
    assert not np.array_equal(r1, draw_rates(game, seed=4, stream=1, batch=0, size=64))
    assert (r1 >= 0).all() and (r1 <= 1).all()


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
    assert ms.n == 4
    degenerate = mean_se(4.0, 4.0, 4)  # all-ones sample
    assert degenerate == MeanSE(1.0, 0.0, 4)


@pytest.mark.parametrize("n", [1, BATCH_SIZE, 2 * BATCH_SIZE + 5])
def test_estimate_matches_numpy_and_thread_count(n):
    def draws(b_idx, size):
        x = batch_rng(3, 9, b_idx, 0).random(size)
        return {"float": x, "bool": x < 0.3}

    whole = [draws(i, size) for i, size in batch_layout(n)]
    got = estimate(n, draws, threads=1)
    assert estimate(n, draws, threads=2) == got
    for key in ("float", "bool"):
        x = np.concatenate([part[key] for part in whole])
        assert got[key].n == n
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_settle_matches_brute_force_with_ties(n):
    rng = np.random.default_rng(n)
    scores = rng.integers(0, 3, size=(n, 500)).astype(np.float64)  # many ties
    u = rng.random(500)
    got = settle(scores, u)
    want = _settle_by_hand(scores, u)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


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


def test_run_batched_pool_is_bounded(monkeypatch):
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", RecordingPool)
    n = 2 * BATCH_SIZE + 1  # 3 batches
    assert _keyed_sum(n, 10**6) == _keyed_sum(n, 1)
    assert sizes == [min(3, os.cpu_count() or 1)]
    monkeypatch.setattr(sampling.os, "cpu_count", lambda: 64)
    _keyed_sum(n, 10**6)
    assert sizes[-1] == 3
