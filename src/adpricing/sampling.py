"""Deterministic Monte-Carlo plumbing.

Replications are split into fixed-size batches. Every batch owns child
generators derived statelessly from (master_seed, stream, batch_index,
role), so a batch's draws never depend on which worker ran it or in
what order. Per-batch partial sums are combined in batch-index order
after all batches complete, which makes every estimate bitwise
identical across worker counts.

Roles separate the random inputs inside one batch (one stream per
advertiser/depth rate law, one for tie-breaking), so changing one
advertiser's law cannot perturb anybody else's draws.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BATCH_SIZE",
    "batch_rng",
    "rate_role",
    "TIE_ROLE",
    "ADVERTISER_LIMIT",
    "batch_layout",
    "run_batched",
    "settle",
    "sum_sq",
    "mean_se",
    "SE_FACTOR",
]

BATCH_SIZE = 16_384

# stream ids; each estimator owns one so studies never share draws (6 is
# retired; ids are never renumbered, since that would change every draw)
STREAM_PAYOFFS = 1
STREAM_UTILITY = 2
STREAM_ORDERINGS = 3
STREAM_COLLAPSE = 4
STREAM_MINMAX = 5
STREAM_FIXTURES = 7
STREAM_ROUNDS = 8

# role ids inside a batch: rate laws take 64 x advertiser + depth, which
# stays below TIE_ROLE for fewer than ADVERTISER_LIMIT advertisers
TIE_ROLE = 1_000_000
ADVERTISER_LIMIT = TIE_ROLE // 64


def rate_role(advertiser: int, depth: int) -> int:
    return advertiser * 64 + depth


def batch_rng(seed: int, stream: int, batch: int, role: int = 0) -> np.random.Generator:
    """Stateless child generator for one (stream, batch, role) cell."""
    return np.random.default_rng(np.random.SeedSequence((seed, stream, batch, role)))


def batch_layout(n: int, batch_size: int = BATCH_SIZE) -> list[tuple[int, int]]:
    """(batch_index, size) pairs covering n replications; the layout is a
    pure function of n so partitioning never depends on worker count."""
    if n < 1:
        raise ValueError(f"replication count must be >= 1, got {n}")
    out = []
    full, rem = divmod(n, batch_size)
    for i in range(full):
        out.append((i, batch_size))
    if rem:
        out.append((full, rem))
    return out


def run_batched(
    n: int,
    batch_fn: Callable[[int, int], dict],
    threads: int = 1,
    batch_size: int = BATCH_SIZE,
) -> dict:
    """Run batch_fn(batch_index, size) over the layout and combine the
    per-batch partial dicts (float or ndarray values) by summation in
    batch-index order. threads affects speed only, never the result; the
    pool never holds more workers than there are batches or CPUs."""
    layout = batch_layout(n, batch_size)
    if threads <= 1 or len(layout) == 1:
        partials = [batch_fn(i, s) for i, s in layout]
    else:
        workers = min(threads, len(layout), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(batch_fn, i, s) for i, s in layout]
            partials = [f.result() for f in futures]  # submission order = batch order
    totals: dict = {}
    for part in partials:
        for key, val in part.items():
            if key in totals:
                totals[key] = totals[key] + val
            else:
                totals[key] = val
    return totals


def draw_rates(game, seed: int, stream: int, batch: int, size: int) -> np.ndarray:
    """Sample realized funnel rates for every advertiser and depth.

    Shape (n_advertisers, n_rate_depths, size). Each (advertiser, depth)
    cell draws from its own child generator, so swapping one law leaves
    every other cell's draws untouched (the basis of the exact
    common-random-number comparisons)."""
    L = game.chain.n_rate_depths
    out = np.empty((game.n, L, size), dtype=np.float64)
    for i, spec in enumerate(game.specs):
        for d in range(1, L + 1):
            rng = batch_rng(seed, stream, batch, rate_role(i, d))
            out[i, d - 1, :] = spec.rate(d).sample(rng, size)
    return out


def tie_uniforms(seed: int, stream: int, batch: int, size: int) -> np.ndarray:
    return batch_rng(seed, stream, batch, TIE_ROLE).random(size)


def winner_tiebreak(scores: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column-wise argmax of scores (shape (n, size)) with ties broken
    uniformly by u in [0,1); mirrors the scalar engine's tie rule."""
    top = scores.max(axis=0)
    is_max = scores == top
    k = is_max.sum(axis=0)
    target = np.minimum((u * k).astype(np.int64), k - 1)
    cum = np.cumsum(is_max, axis=0)
    sel = is_max & (cum == target + 1)
    return sel.argmax(axis=0)


def settle(scores: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-price settlement of every column of scores (shape (n, size)):
    the tie-broken winner, its score, and the highest other score, which
    is the price (0 when n = 1). With a tie at the top the price equals
    the top score."""
    winner = winner_tiebreak(scores, u)
    cols = np.arange(scores.shape[1])
    top = scores[winner, cols]
    if scores.shape[0] == 1:
        return winner, top, np.zeros_like(top)
    rest = scores.copy()
    rest[winner, cols] = -np.inf
    return winner, top, rest.max(axis=0)


def sum_sq(x: np.ndarray) -> np.ndarray:
    """(sum, sum of squares) of one batch's per-draw values: the partial
    that run_batched adds up in batch order and mean_se(*total, n) reads."""
    return np.array([x.sum(), (x * x).sum()])


# the standard-error multiple every Monte-Carlo verdict's margin uses
SE_FACTOR = 3.0


@dataclass(frozen=True)
class MeanSE:
    mean: float
    se: float
    n: int


def mean_se(total: float, total_sq: float, n: int) -> MeanSE:
    """Sample mean and standard error (ddof=1) from raw sums."""
    if n < 1:
        raise ValueError("need at least one replication")
    mean = float(total) / n
    if n == 1:
        return MeanSE(mean, 0.0, n)
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return MeanSE(mean, math.sqrt(var / n), n)
