"""Offline optima and a greedy baseline for the matching cost model.

For a fixed pairing, the cheapest service time is max of the two arrivals
(waiting cost |t1 - t2|, connection cost d), so the offline problem reduces
to choosing the partition into pairs (plus, in the penalty variant, the set
of cleared requests, each cheapest at its own arrival).  Optima are exact:
a DP over the bitmasks of unserved requests that deciding the lowest-id one
first can reach (1597 masks at 16 requests, 377 at 12 with clears), solved
bottom-up one popcount level at a time with array operations.

Above the oracles' size caps, `greedy_mpmd` gives an upper bound: it pairs
the cheapest remaining pair first, ties going to the lowest (i, j) in
request-id order.  It sorts all pair costs once and takes pairs in that
order, O(n^2 log n) for n requests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CostBreakdown, Request, Schedule, total_cost
from .errors import OddRequestSet, OutOfDomain, TooLarge
from .metric import MetricSpace

MAX_EXACT = 16       # matching-only oracle size cap
MAX_EXACT_FP = 12    # penalty-variant oracle size cap

__all__ = [
    "OfflineSolution",
    "optimal_mpmd",
    "optimal_mpmdfp",
    "greedy_mpmd",
    "MAX_EXACT",
    "MAX_EXACT_FP",
]


@dataclass(frozen=True)
class OfflineSolution:
    schedule: Schedule
    cost: CostBreakdown
    optimal: bool


def _pair_costs(space: MetricSpace, reqs: Sequence[Request]) -> np.ndarray:
    """n x n matrix of d(p_i, p_k) + |t_i - t_k| over `reqs` in order."""
    at = np.array([space.index[r.point] for r in reqs], dtype=np.intp)
    t = np.array([r.t for r in reqs], dtype=float)
    return space.dist[np.ix_(at, at)] + np.abs(t[:, None] - t[None, :])


@functools.lru_cache(maxsize=None)  # the size caps bound the keys
def _plan(n: int, clears: bool) -> tuple:
    """Lowest-first state graph over n requests: (cell, sub, start, levels).

    States are the reachable masks of unserved requests, numbered by popcount
    level from the top: state 0 is the full mask, the last one the empty
    mask.  State s owns moves start[s]:start[s+1].  A move decides the lowest
    unserved request i, clearing it (k == i, first) or pairing it with k > i
    in ascending k; it costs cell[m] = i * n + k of the cost matrix and leads
    to state sub[m].  `levels` lists each level's state range, bottom up,
    leaving out the empty mask.  The arrays are read-only.
    """
    bit = 1 << np.arange(n, dtype=np.int64)
    here, below = bit.sum(keepdims=True), bit[:0]  # the full mask; none below
    index = np.empty(1 << n, dtype=np.intp)
    levels, counts, cells, subs, lo = [], [], [], [], 0
    for _ in range(n + 1):  # popcount levels n, ..., 0
        masks = np.unique(here)
        index[masks] = np.arange(lo, lo + len(masks))
        low = np.searchsorted(bit, masks & -masks)  # lowest unserved request
        k_min = low[:, None] + (not clears)  # k == i is the clear
        has = (masks[:, None] & bit) != 0
        owner, k = np.nonzero(has & (np.arange(n) >= k_min))
        i = low[owner]
        sub = masks[owner] & ~(bit[i] | bit[k])
        here, below = np.concatenate([below, sub[i == k]]), sub[i != k]
        levels.append((lo, lo + len(masks)))
        counts.append(np.bincount(owner, minlength=len(masks)))
        cells.append(i * n + k)
        subs.append(sub)
        lo += len(masks)
    arrays = (np.concatenate(cells), index[np.concatenate(subs)],
              np.concatenate([[0], np.cumsum(np.concatenate(counts))]))
    for a in arrays:
        a.setflags(write=False)
    return *arrays, tuple(levels[-2::-1])


def _solve(
    space: MetricSpace, reqs: Sequence[Request], penalty: float | None
) -> OfflineSolution:
    """Fill every state's best cost bottom-up, then walk the chosen moves.

    Each candidate is the one IEEE addition `cost + best[rest]`, where a
    clear costs `penalty`, and each state takes its first minimal move, so
    ties resolve as in the recursion that tries the clear, then ascending k.
    """
    n = len(reqs)
    cell, sub, start, levels = _plan(n, penalty is not None)
    edge = _pair_costs(space, reqs)
    if penalty is not None:
        np.fill_diagonal(edge, penalty)
    cand = edge.ravel()[cell]
    best = np.zeros(len(start) - 1)
    # a sum that overflows is inf, the minimum only if every candidate is
    with np.errstate(over="ignore"):
        for lo, hi in levels:
            t0, t1 = start[lo], start[hi]
            cand[t0:t1] += best[sub[t0:t1]]
            best[lo:hi] = np.minimum.reduceat(cand[t0:t1], start[lo:hi] - t0)
    if not np.isfinite(best[0]):
        raise OutOfDomain("the offline optimum exceeds the float range")
    pairs, clears, s = [], [], 0
    while s < len(best) - 1:
        m = start[s] + int(np.argmax(cand[start[s]:start[s + 1]] == best[s]))
        i, k = divmod(int(cell[m]), n)
        if i == k:
            clears.append((reqs[i].id, reqs[i].t))
        else:
            pairs.append((reqs[i].id, reqs[k].id, max(reqs[i].t, reqs[k].t)))
        s = int(sub[m])
    schedule = Schedule(pairings=tuple(pairs), clears=tuple(clears))
    cost = total_cost(space, reqs, schedule, penalty_p=penalty)
    return OfflineSolution(schedule=schedule, cost=cost, optimal=True)


def optimal_mpmd(space: MetricSpace, requests: Sequence[Request]) -> OfflineSolution:
    """Exact offline optimum (pairs only); |R| <= 16."""
    reqs = sorted(requests, key=lambda r: r.id)
    n = len(reqs)
    if n % 2 != 0:
        raise OddRequestSet("offline matching needs an even request count")
    if n > MAX_EXACT:
        raise TooLarge(f"{n} requests exceeds exact cap {MAX_EXACT}")
    return _solve(space, reqs, None)


def optimal_mpmdfp(
    space: MetricSpace, requests: Sequence[Request], penalty: float
) -> OfflineSolution:
    """Exact optimum when any request may instead be cleared for `penalty`.

    Clearing is always cheapest at the request's own arrival (zero waiting),
    so the search space is partitions into pairs and cleared singletons;
    |R| <= 12.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    n = len(reqs)
    if n > MAX_EXACT_FP:
        raise TooLarge(f"{n} requests exceeds exact cap {MAX_EXACT_FP}")
    return _solve(space, reqs, penalty)


def greedy_mpmd(space: MetricSpace, requests: Sequence[Request]) -> OfflineSolution:
    """Repeatedly pair the two unserved requests with the smallest d + |dt|.

    Ties go to the first pair (i, j), i < j, in request-id order.  All pair
    costs are computed once, listed in (i, j) order, and sorted once by cost
    alone with a stable sort, which keeps that order among ties; one pass then
    takes each pair whose two requests are both still unserved.  The first
    such pair is always the least of the remaining ones, so this is the
    round-by-round rescan's schedule in O(n^2 log n) time and O(n^2) memory.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    n = len(reqs)
    if n % 2 != 0:
        raise OddRequestSet("greedy matching needs an even request count")
    first, second = np.triu_indices(n, 1)
    edge = _pair_costs(space, reqs)[first, second]
    order = np.argsort(edge, kind="stable")
    free = [True] * n
    pairs = []
    for i, j in zip(first[order].tolist(), second[order].tolist()):
        if free[i] and free[j]:
            free[i] = free[j] = False
            pairs.append((reqs[i].id, reqs[j].id, max(reqs[i].t, reqs[j].t)))
            if 2 * len(pairs) == n:
                break
    schedule = Schedule(pairings=tuple(pairs))
    cost = total_cost(space, reqs, schedule)
    return OfflineSolution(schedule=schedule, cost=cost, optimal=False)
