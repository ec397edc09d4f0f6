"""Requests, schedules, and the cost model.

A request is a (point, arrival-time) pair.  Serving two requests together at
time t >= both arrivals costs their connection distance (space) plus the two
waiting times (t - t1) + (t - t2).  With a penalty parameter p a request may
instead be cleared at time t >= its arrival for p plus its waiting time.

Arrival times must be finite and at least 0, and pairwise distinct within
one request set; generators jitter coincident arrivals by ~1e-9 before
handing sets to the loader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DoubleService,
    InstanceLoadError,
    MatchBeforeArrival,
    OutOfDomain,
    UncoveredRequest,
    UnknownLocation,
)
from .metric import MetricSpace

__all__ = [
    "Request",
    "Schedule",
    "CostBreakdown",
    "make_requests",
    "total_cost",
]


@dataclass(frozen=True)
class Request:
    id: int
    point: str
    t: float


@dataclass(frozen=True)
class Schedule:
    """A complete service plan: matched pairs and (optionally) clears."""

    pairings: tuple[tuple[int, int, float], ...]  # (id1, id2, match_time)
    clears: tuple[tuple[int, float], ...] = ()    # (id, clear_time)


@dataclass(frozen=True)
class CostBreakdown:
    space: float
    time: float
    penalty: float

    @property
    def total(self) -> float:
        return self.space + self.time + self.penalty


def make_requests(
    space: MetricSpace,
    arrivals: Sequence[tuple[str, float]],
) -> tuple[Request, ...]:
    """Validate and freeze a request sequence (sorted by arrival), of any
    count: whatever pairs every request checks the parity itself."""
    reqs = []
    for i, (point, t) in enumerate(arrivals):
        if not isinstance(point, str) or point not in space.index:
            raise UnknownLocation(f"request {i} at unknown point {point!r}")
        t = float(t)
        if not 0.0 <= t < math.inf:
            raise InstanceLoadError(
                f"request {i} arrives at t={t}; times must be finite and >= 0"
            )
        reqs.append(Request(id=i, point=point, t=t))
    times = sorted(r.t for r in reqs)
    for a, b in zip(times, times[1:]):
        if a == b:
            raise InstanceLoadError(f"coincident arrival times t={a}; jitter the input")
    return tuple(sorted(reqs, key=lambda r: (r.t, r.id)))


def total_cost(
    space: MetricSpace,
    requests: Sequence[Request],
    schedule: Schedule,
    penalty_p: float | None = None,
) -> CostBreakdown:
    """Cost of a schedule; every request must be served exactly once.

    A pair served at t costs d(p1, p2) in space and (t - t1) + (t - t2) in
    time; a clear at t costs p and t - t1.  A total past the float range is
    rejected as `OutOfDomain`.
    """
    unserved = {r.id: r for r in requests}
    dist, index = space.dist.item, space.index
    space_cost = 0.0
    time_cost = 0.0
    penalty_cost = 0.0
    for id1, id2, t in schedule.pairings:
        r1 = unserved.pop(id1, None)
        if r1 is None:
            raise _unserved_error(id1, requests)
        r2 = unserved.pop(id2, None)
        if r2 is None:
            raise _unserved_error(id2, requests)
        if t < r1.t or t < r2.t:
            raise MatchBeforeArrival(
                f"match of ({r1.id},{r2.id}) at t={t} precedes an arrival"
            )
        space_cost += dist(index[r1.point], index[r2.point])
        time_cost += float(t - r1.t) + float(t - r2.t)
    for rid, t in schedule.clears:
        if penalty_p is None:
            raise OutOfDomain("schedule contains clears but no penalty was given")
        r = unserved.pop(rid, None)
        if r is None:
            raise _unserved_error(rid, requests)
        if t < r.t:
            raise MatchBeforeArrival(f"clear of {rid} at t={t} precedes its arrival")
        penalty_cost += penalty_p
        time_cost += float(t - r.t)
    if unserved:
        raise UncoveredRequest(f"requests never served: {sorted(unserved)}")
    cost = CostBreakdown(space=space_cost, time=time_cost, penalty=penalty_cost)
    if not math.isfinite(cost.total):
        raise OutOfDomain(f"the schedule's cost {cost.total} exceeds the float range")
    return cost


def _unserved_error(rid: int, requests: Sequence[Request]) -> Exception:
    if any(r.id == rid for r in requests):
        return DoubleService(f"request {rid} served twice")
    return UncoveredRequest(f"schedule references unknown request {rid}")
