"""Deterministic Monte-Carlo plumbing.

Replications are split into fixed-size batches. Every batch owns child
generators derived statelessly from (master_seed, stream, batch_index,
role), so a batch's draws depend only on its key. run_batched runs the
batches one after another in batch-index order and adds each partial
into the totals as it arrives, so memory stays flat however many
replications are asked for. estimate is the one place per-draw values
become means with standard errors.

Roles separate the random inputs inside one batch (one stream per
advertiser/depth rate law, one for tie-breaking), so changing one
advertiser's law cannot perturb anybody else's draws.

MeanSE is a collections.namedtuple subclass, which costs less to
define at import than a frozen dataclass or a typing.NamedTuple:
besides its named fields it can be unpacked and indexed, and it
compares equal to the plain tuple (mean, se).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, Iterator

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
    "winner_utilities",
    "estimate",
    "mean_se",
    "SE_FACTOR",
]

BATCH_SIZE = 16_384

# stream ids; each estimator owns one so studies never share draws. 5, 6
# and 7 are retired and never reused, and ids are never renumbered, since
# that would change every draw
STREAM_PAYOFFS = 1
STREAM_UTILITY = 2
STREAM_ORDERINGS = 3
STREAM_COLLAPSE = 4
STREAM_ROUNDS = 8

# role ids inside a batch: rate laws take 64 x advertiser + depth, which
# stays below TIE_ROLE for fewer than ADVERTISER_LIMIT advertisers
TIE_ROLE = 1_000_000
ADVERTISER_LIMIT = TIE_ROLE // 64

_WORD = 1 << 32


def rate_role(advertiser: int, depth: int) -> int:
    return advertiser * 64 + depth


def batch_rng(seed: int, stream: int, batch: int, role: int = 0) -> np.random.Generator:
    """Stateless child generator for one (stream, batch, role) cell.

    SeedSequence turns each key part into its 32-bit words, and a part
    below 2**32 is one word. A key made only of such parts is passed as
    those words already: the same generator, built without numpy's
    per-part Python conversion. Any other key takes the tuple path."""
    key = (seed, stream, batch, role)
    if all(type(k) is int and 0 <= k < _WORD for k in key):
        key = np.array(key, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(key))


def batch_layout(n: int, batch_size: int = BATCH_SIZE) -> Iterator[tuple[int, int]]:
    """(batch_index, size) pairs covering n replications, yielded lazily;
    the layout is a pure function of n. A count below 1 raises here, at
    the call, not at the first batch."""
    if n < 1:
        raise ValueError(f"replication count must be >= 1, got {n}")
    full, rem = divmod(n, batch_size)
    return ((i, batch_size if i < full else rem) for i in range(full + (rem > 0)))


def run_batched(
    n: int,
    batch_fn: Callable[[int, int], dict],
    threads: int = 1,
    batch_size: int = BATCH_SIZE,
) -> dict:
    """Call batch_fn(batch_index, size) over the layout in batch order and
    sum the partial dicts (float or ndarray values) as they arrive.
    threads is ignored; perfbench's tracer binds it and batch_size by name."""
    totals: dict = {}
    for i, size in batch_layout(n, batch_size):
        for key, val in batch_fn(i, size).items():
            if key in totals:
                totals[key] = totals[key] + val
            else:
                totals[key] = val
    return totals


def draw_rates(game, seed: int, stream: int, batch: int, size: int) -> np.ndarray:
    """Sample realized funnel rates for every advertiser and depth.

    Shape (n_advertisers, conversion_depth, size). Each (advertiser, depth)
    cell draws from its own child generator, so swapping one law leaves
    every other cell's draws untouched (the basis of the exact
    common-random-number comparisons). Each law samples straight into its
    own row."""
    out = np.empty((game.n, game.chain.conversion_depth, size), dtype=np.float64)
    for i, spec in enumerate(game.specs):
        for d in range(1, game.chain.conversion_depth + 1):
            rng = batch_rng(seed, stream, batch, rate_role(i, d))
            spec.rate(d).sample(rng, size, out=out[i, d - 1])
    return out


def tie_uniforms(seed: int, stream: int, batch: int, size: int) -> np.ndarray:
    return batch_rng(seed, stream, batch, TIE_ROLE).random(size)


def winner_tiebreak(scores: np.ndarray, u: np.ndarray, top: np.ndarray | None = None) -> np.ndarray:
    """Column-wise argmax of scores (shape (n, size)) with ties broken
    uniformly by u in [0,1): the winner is the tied row of rank
    min(int(u * k), k - 1) among the k tied rows; mirrors the scalar
    engine's tie rule. top, when given, is the running np.maximum over
    the rows in row order that the call would otherwise take itself; it
    is read, not written."""
    n, size = scores.shape
    if n == 2:
        # with k = 2 the rank int(2u) is 1 exactly when u >= 0.5
        a, b = scores
        return ((b > a) | ((b == a) & (u >= 0.5))).astype(np.int64)
    # a running maximum over the rows, then each row's equality with it;
    # the count of top rows per column is kept in a dtype that holds n
    if top is None:
        top = scores[0].copy()
        for row in scores[1:]:
            np.maximum(top, row, out=top)
    is_max = scores == top
    count_type = np.min_scalar_type(n)
    k = is_max.sum(axis=0, dtype=count_type)
    if (k == 1).all():
        # one top row in every column (no tie, no NaN): it wins, and no
        # rank is drawn
        winner = np.zeros(size, dtype=count_type)
        for j in range(1, n):
            winner += is_max[j] * count_type.type(j)
        return winner.astype(np.int64)
    k = k.astype(np.int64)
    rank = np.minimum((u * k).astype(np.int64), k - 1) + 1
    # one pass over the rows counts the tied rows seen so far; exactly one
    # tied row reaches the rank, and row 0 wins when no later row does
    seen = is_max[0].astype(np.int64)
    winner = np.zeros(size, dtype=np.int64)
    for j in range(1, n):
        seen += is_max[j]
        winner += j * (is_max[j] & (seen == rank))
    return winner


def settle(scores: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-price settlement of every column of float64 scores (shape
    (n, size)): the tie-broken winner, its score, and the highest other
    score, which is the price (0 when n = 1). With a tie at the top the
    price equals the top score."""
    n, size = scores.shape
    if n > 2:
        # a running top two, whose top is the running maximum
        # winner_tiebreak would take. Where every column's top lies
        # strictly above its runner-up, the top is the winner's own score
        # and the runner-up the price, bit for bit: equal values have equal
        # bits except +0 and -0, so a zero runner-up takes the general path,
        # as does any tie or NaN
        top = np.maximum(scores[0], scores[1])
        second = np.minimum(scores[0], scores[1])
        for row in scores[2:]:
            np.maximum(second, np.minimum(top, row), out=second)
            np.maximum(top, row, out=top)
        winner = winner_tiebreak(scores, u, top=top)
        if (second < top).all() and second.all():
            return winner, top, second
    else:
        winner = winner_tiebreak(scores, u)
    if n == 2:
        # top and price are the two rows' own values, swapped where row 1
        # won: a branch-free select on the float bits, which keeps the
        # sign of a tied zero and runs several times faster than np.where
        a, b = scores.view(np.int64)
        swap = (a ^ b) & -winner
        return winner, (a ^ swap).view(np.float64), (b ^ swap).view(np.float64)
    cell = winner * size + np.arange(size)  # flat index of each column's winner
    top = scores.take(cell)
    if n == 1:
        return winner, top, np.zeros_like(top)
    rest = scores.copy()
    rest.reshape(-1)[cell] = -np.inf
    return winner, top, rest.max(axis=0)


def winner_utilities(winner: np.ndarray, gap: np.ndarray, n: int) -> np.ndarray:
    """Shape (n, size): column j holds gap[j] in row winner[j] and +0.0 in
    every other row, bit for bit what zeros plus a scatter of gap at the
    winners give. Row i is gap's float64 bits ANDed with a 0/-1 mask of
    winner == i, so every value, NaN, +-inf and -0.0 included, is kept."""
    bits = gap.view(np.int64)
    out = np.empty((n, gap.size), dtype=np.float64)
    rows = out.view(np.int64)
    if n == 2:
        # settle's masks: winner - 1 is -1 where row 0 won, -winner where row 1 did
        np.bitwise_and(bits, winner - 1, out=rows[0])
        np.bitwise_and(bits, -winner, out=rows[1])
        return out
    mask = np.empty(gap.size, dtype=np.int64)
    for i in range(n):
        np.equal(winner, i, out=mask, casting="unsafe")
        np.negative(mask, out=mask)
        np.bitwise_and(bits, mask, out=rows[i])
    return out


# the standard-error multiple every Monte-Carlo verdict's margin uses,
# read only through MeanSE's two rules
SE_FACTOR = 3.0


class MeanSE(namedtuple("MeanSE", "mean se")):
    """A mean and its standard error: floats, or arrays of one per cell,
    which the two rules then decide cell by cell."""

    __slots__ = ()

    def z(self, target: float = 0.0) -> float:
        """Distance of the mean from target in standard errors. With an SE
        of 0 a sure difference is +-inf and an exact match 0."""
        d = self.mean - target
        if self.se == 0:
            return math.copysign(math.inf, d) if d else 0.0
        return d / self.se

    def beyond(self, positive: bool = True):
        """The ordering rule: the mean lies strictly more than SE_FACTOR SE
        from 0 on the wanted side (above when positive, else below)."""
        margin = SE_FACTOR * self.se
        return self.mean > margin if positive else self.mean < -margin

    def within(self, target: float = 0.0, k: float = SE_FACTOR):
        """The equality rule: |mean - target| <= k SE, bounds included, so
        an SE of 0 asks for the target exactly."""
        return abs(self.mean - target) <= k * self.se


def mean_se(total: float, total_sq: float, n: int) -> MeanSE:
    """Sample mean and standard error (ddof=1) from raw sums."""
    if n < 1:
        raise ValueError("need at least one replication")
    mean = float(total) / n
    if n == 1:
        return MeanSE(mean, 0.0)
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return MeanSE(mean, math.sqrt(var / n))


def estimate(n: int, batch_fn: Callable[[int, int], dict]) -> dict:
    """Mean and standard error of every per-draw array batch_fn(batch_index,
    size) returns (float or bool, one entry per draw, under any key).
    Each batch reduces its arrays to (sum, sum of squares); run_batched
    adds those in batch order."""

    def moments(b_idx: int, size: int) -> dict:
        draws = batch_fn(b_idx, size)
        return {key: np.array([x.sum(), (x * x).sum()]) for key, x in draws.items()}

    totals = run_batched(n, moments)
    return {key: mean_se(s, sq, n) for key, (s, sq) in totals.items()}
