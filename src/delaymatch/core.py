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
    "pair_cost",
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


def pair_cost(
    space: MetricSpace, r1: Request, r2: Request, t: float
) -> tuple[float, float]:
    """(space, time) cost of serving r1, r2 together at time t."""
    if t < r1.t or t < r2.t:
        raise MatchBeforeArrival(
            f"match of ({r1.id},{r2.id}) at t={t} precedes an arrival"
        )
    d = space.distance(r1.point, r2.point)
    return d, float(t - r1.t) + float(t - r2.t)


def total_cost(
    space: MetricSpace,
    requests: Sequence[Request],
    schedule: Schedule,
    penalty_p: float | None = None,
) -> CostBreakdown:
    """Cost of a schedule; every request must be served exactly once."""
    by_id = {r.id: r for r in requests}
    seen: set[int] = set()

    def claim(rid: int) -> Request:
        if rid not in by_id:
            raise UncoveredRequest(f"schedule references unknown request {rid}")
        if rid in seen:
            raise DoubleService(f"request {rid} served twice")
        seen.add(rid)
        return by_id[rid]

    space_cost = 0.0
    time_cost = 0.0
    penalty_cost = 0.0
    for id1, id2, t in schedule.pairings:
        r1, r2 = claim(id1), claim(id2)
        d, w = pair_cost(space, r1, r2, t)
        space_cost += d
        time_cost += w
    for rid, t in schedule.clears:
        if penalty_p is None:
            raise OutOfDomain("schedule contains clears but no penalty was given")
        r = claim(rid)
        if t < r.t:
            raise MatchBeforeArrival(f"clear of {rid} at t={t} precedes its arrival")
        penalty_cost += penalty_p
        time_cost += float(t - r.t)
    missing = set(by_id) - seen
    if missing:
        raise UncoveredRequest(f"requests never served: {sorted(missing)}")
    return CostBreakdown(space=space_cost, time=time_cost, penalty=penalty_cost)
