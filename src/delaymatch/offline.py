"""Offline optima and a greedy baseline for the matching cost model.

For a fixed pairing, the cheapest service time is max of the two arrivals
(waiting cost |t1 - t2|, connection cost d), so the offline problem reduces
to choosing the partition into pairs (plus, in the penalty variant, the set
of cleared requests, each cheapest at its own arrival).  Optima are computed
by exhaustive enumeration over partitions, walking the recursion that always
decides the lowest-id unserved request first; the recursion is memoized on
the bitmask of unserved requests, which collapses repeated subproblems
without changing what is enumerated.

Above the oracles' size caps, `greedy_mpmd` gives an upper bound: it pairs
the cheapest remaining pair first, ties going to the lowest (i, j) in
request-id order.  It sorts all pair costs once and takes pairs in that
order, O(n^2 log n) for n requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CostBreakdown, Request, Schedule, total_cost
from .errors import OddRequestSet, TooLarge
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


def _edge_cost(space: MetricSpace, r1: Request, r2: Request) -> float:
    return space.distance(r1.point, r2.point) + abs(r1.t - r2.t)


def optimal_mpmd(space: MetricSpace, requests: Sequence[Request]) -> OfflineSolution:
    """Exact offline optimum (pairs only); |R| <= 16."""
    reqs = sorted(requests, key=lambda r: r.id)
    n = len(reqs)
    if n % 2 != 0:
        raise OddRequestSet("offline matching needs an even request count")
    if n > MAX_EXACT:
        raise TooLarge(f"{n} requests exceeds exact cap {MAX_EXACT}")
    if n == 0:
        return OfflineSolution(Schedule(()), CostBreakdown(0.0, 0.0, 0.0), True)

    edge = [[_edge_cost(space, a, b) for b in reqs] for a in reqs]
    full = (1 << n) - 1
    best: dict[int, float] = {0: 0.0}
    choice: dict[int, tuple[int, int]] = {}

    def solve(mask: int) -> float:
        if mask in best:
            return best[mask]
        i = (mask & -mask).bit_length() - 1  # lowest unserved id first
        rest = mask & ~(1 << i)
        b, arg = float("inf"), None
        j = rest
        while j:
            k = (j & -j).bit_length() - 1
            c = edge[i][k] + solve(rest & ~(1 << k))
            if c < b:
                b, arg = c, (i, k)
            j &= j - 1
        best[mask] = b
        choice[mask] = arg
        return b

    solve(full)
    pairs = []
    mask = full
    while mask:
        i, k = choice[mask]
        pairs.append((reqs[i].id, reqs[k].id, max(reqs[i].t, reqs[k].t)))
        mask &= ~(1 << i) & ~(1 << k)
    schedule = Schedule(pairings=tuple(pairs))
    cost = total_cost(space, reqs, schedule)
    return OfflineSolution(schedule=schedule, cost=cost, optimal=True)


def optimal_mpmdfp(
    space: MetricSpace, requests: Sequence[Request], penalty: float
) -> OfflineSolution:
    """Exact optimum when any request may instead be cleared for `penalty`.

    Clearing is always cheapest at the request's own arrival (zero waiting),
    so the search space is partitions into pairs and cleared singletons.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    n = len(reqs)
    if n > MAX_EXACT_FP:
        raise TooLarge(f"{n} requests exceeds exact cap {MAX_EXACT_FP}")
    if n == 0:
        return OfflineSolution(Schedule(()), CostBreakdown(0.0, 0.0, 0.0), True)

    edge = [[_edge_cost(space, a, b) for b in reqs] for a in reqs]
    full = (1 << n) - 1
    best: dict[int, float] = {0: 0.0}
    choice: dict[int, int | tuple[int, int]] = {}

    def solve(mask: int) -> float:
        if mask in best:
            return best[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        b: float = penalty + solve(rest)  # clear request i
        arg: int | tuple[int, int] = i
        j = rest
        while j:
            k = (j & -j).bit_length() - 1
            c = edge[i][k] + solve(rest & ~(1 << k))
            if c < b:
                b, arg = c, (i, k)
            j &= j - 1
        best[mask] = b
        choice[mask] = arg
        return b

    solve(full)
    pairs, clears = [], []
    mask = full
    while mask:
        arg = choice[mask]
        if isinstance(arg, tuple):
            i, k = arg
            pairs.append((reqs[i].id, reqs[k].id, max(reqs[i].t, reqs[k].t)))
            mask &= ~(1 << i) & ~(1 << k)
        else:
            clears.append((reqs[arg].id, reqs[arg].t))
            mask &= ~(1 << arg)
    schedule = Schedule(pairings=tuple(pairs), clears=tuple(clears))
    cost = total_cost(space, reqs, schedule, penalty_p=penalty)
    return OfflineSolution(schedule=schedule, cost=cost, optimal=True)


def greedy_mpmd(space: MetricSpace, requests: Sequence[Request]) -> OfflineSolution:
    """Repeatedly pair the two unserved requests with the smallest d + |dt|.

    Ties go to the first pair (i, j), i < j, in request-id order.  All pair
    costs are computed once and sorted once by (cost, i, j); one pass then
    takes each pair whose two requests are both still unserved.  The first
    such pair is always the least of the remaining ones, so this is the
    round-by-round rescan's schedule in O(n^2 log n) time and O(n^2) memory.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    n = len(reqs)
    if n % 2 != 0:
        raise OddRequestSet("greedy matching needs an even request count")
    at = np.array([space.index[r.point] for r in reqs], dtype=np.intp)
    t = np.array([r.t for r in reqs], dtype=float)
    first, second = np.triu_indices(n, 1)
    edge = space.dist[at[first], at[second]] + np.abs(t[first] - t[second])
    order = np.lexsort((second, first, edge))
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
