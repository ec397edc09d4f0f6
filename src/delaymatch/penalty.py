"""Matching with a fixed clearing penalty, via the doubled-metric reduction.

With penalty p, any request may be *cleared* unmatched for p plus its waiting
time.  The reduction duplicates the instance: points become (x, side) for
side 1, 2 with

    dist_hat((x,i), (y,j)) = dist(x,y) + p * |i - j|,

and every request rho becomes twins rho_1, rho_2 sharing its arrival.  The
plain matching engine runs on the doubled instance and its schedule projects
back: a side-1/side-1 match is a real pairing, a match that joins sides
clears the side-1 member's original, and side-2-only matches emit nothing.

Three parameter regimes, split by the smallest distance d and diameter D:

* p < d/2        -- clearing beats any cross-point match; each point runs an
                    independent break-even policy (match an available twin
                    on arrival, otherwise clear after waiting exactly p);
* d/2 <= p <= 2D -- the doubled metric is embedded like any other instance;
* p > 2D         -- the doubled metric is two far-apart copies, so the tree
                    is built directly: one sampled tree per side under a
                    fresh root, with mirrored timer streams keyed so both
                    sides evolve in lockstep and a root match always joins a
                    request to its own twin.

Every engine-backed run satisfies cost_fp <= cost of the doubled run exactly
(asserted): pairings project at equal cost and a clear costs at most its
cross-side edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CostBreakdown, Request, Schedule, total_cost
from .embedding import Hsbt, build_hsbt, sample_hsbt
from .errors import InvariantViolation, RegimeMismatch, TooLarge
from .metric import MetricSpace, stats
from .offline import optimal_mpmd, optimal_mpmdfp
from .stiltwalker import Engine, TimerMode, run, stream_words

__all__ = [
    "REGIME_PER_POINT",
    "REGIME_DOUBLED",
    "REGIME_TWO_COPIES",
    "FpRun",
    "classify_regime",
    "run_mpmdfp",
    "verify_benchmark_inequality",
]

REGIME_PER_POINT = "per_point"    # p below d/2
REGIME_DOUBLED = "doubled"        # d/2 <= p <= 2D
REGIME_TWO_COPIES = "two_copies"  # p above 2D

MAX_BENCHMARK = 6


def hat_side(rid: int) -> int:
    """Side (1 or 2) of a doubled request id."""
    return (rid & 1) + 1


def hat_orig(rid: int) -> int:
    """Original request id behind a doubled request id."""
    return rid >> 1


def classify_regime(space: MetricSpace, p: float) -> str:
    """Which penalty regime (p against d/2 and 2D); boundaries go middle."""
    if not 0 < p < math.inf:
        raise RegimeMismatch(f"penalty must be in (0, inf), got {p}")
    if space.n < 2:
        return REGIME_PER_POINT  # no cross-point pair exists at all
    st = stats(space)
    if p < st.d_min / 2:
        return REGIME_PER_POINT
    if p > 2 * st.d_max:
        return REGIME_TWO_COPIES
    return REGIME_DOUBLED


def _hat_point(name: str, side: int) -> str:
    return f"{name}|{side}"


def _doubled_parts(
    space: MetricSpace, requests: tuple[Request, ...], p: float
) -> tuple[MetricSpace, tuple[Request, ...]]:
    """Doubled metric and twin requests, with no regime restriction."""
    names = [_hat_point(x, s) for x in space.points for s in (1, 2)]
    # twin a of point a >> 1 sits on side a & 1; the penalty term is 0.0 or p
    twins = np.arange(2 * space.n)
    x, side = twins >> 1, twins & 1
    dist = space.dist[np.ix_(x, x)] + p * np.abs(side[:, None] - side[None, :])
    metric_hat = MetricSpace(names, dist)

    ordered = sorted(requests, key=lambda r: (r.t, r.id))
    hat = []
    for k, r in enumerate(ordered):
        hat.append(Request(id=2 * k, point=_hat_point(r.point, 1), t=r.t))
        hat.append(Request(id=2 * k + 1, point=_hat_point(r.point, 2), t=r.t))
    return metric_hat, tuple(hat)


@dataclass(frozen=True)
class FpRun:
    """Outcome of a penalty-variant run (unpacks as (schedule, cost))."""

    schedule: Schedule
    cost: CostBreakdown
    regime: str
    hat_cost: CostBreakdown | None = None
    tree: Hsbt | None = field(default=None, repr=False)

    def __iter__(self):
        yield self.schedule
        yield self.cost


def _translate(
    hat_pairings: tuple[tuple[int, int, float], ...],
    twin_cross_only: bool,
) -> tuple[list[tuple[int, int, float]], list[tuple[int, float]]]:
    """Project doubled-run pairings back to pairings and clears."""
    pairings: list[tuple[int, int, float]] = []
    clears: list[tuple[int, float]] = []
    side2_pairs: list[tuple[int, int, float]] = []
    for a, b, t in hat_pairings:
        sa, sb = hat_side(a), hat_side(b)
        oa, ob = hat_orig(a), hat_orig(b)
        if sa == 1 and sb == 1:
            pairings.append((min(oa, ob), max(oa, ob), t))
        elif sa == 2 and sb == 2:
            side2_pairs.append((min(oa, ob), max(oa, ob), t))
        else:
            cleared = oa if sa == 1 else ob
            if twin_cross_only and oa != ob:
                raise InvariantViolation(
                    f"cross-side match joined different originals {oa}, {ob}"
                )
            clears.append((cleared, t))
    if twin_cross_only and sorted(pairings) != sorted(side2_pairs):
        raise InvariantViolation("side-2 matches do not mirror side-1 matches")
    pairings.sort(key=lambda e: (e[2], e[0]))
    clears.sort(key=lambda e: (e[1], e[0]))
    return pairings, clears


def _per_point_run(requests: tuple[Request, ...], p: float) -> Schedule:
    """Independent break-even policy per point (regime p < d/2)."""
    pairings: list[tuple[int, int, float]] = []
    clears: list[tuple[int, float]] = []
    pending: dict[str, Request] = {}
    for r in sorted(requests, key=lambda q: (q.t, q.id)):
        waiting = pending.get(r.point)
        if waiting is not None and r.t >= waiting.t + p:
            clears.append((waiting.id, waiting.t + p))
            waiting = None
        if waiting is None:
            pending[r.point] = r
        else:
            del pending[r.point]
            pairings.append((min(waiting.id, r.id), max(waiting.id, r.id), r.t))
    for r in pending.values():
        clears.append((r.id, r.t + p))
    pairings.sort(key=lambda e: (e[2], e[0]))
    clears.sort(key=lambda e: (e[1], e[0]))
    return Schedule(pairings=tuple(pairings), clears=tuple(clears))


def _two_copies_tree(
    space: MetricSpace, p: float, rng: np.random.Generator
) -> tuple[Hsbt, dict[int, int]]:
    """One sampled tree per side under a fresh root, plus the mirror map."""
    base = sample_hsbt(space, rng)
    nb = len(base)
    root_w = max(p, base.alpha * base.weight[base.root])
    parent = [-1]
    weight = [root_w]
    leaf_points: dict[int, str] = {}
    for side, offset in ((1, 1), (2, 1 + nb)):
        for v in range(nb):
            up = base.parent[v]
            parent.append(0 if up < 0 else offset + up)
            weight.append(base.weight[v])
            if base.is_leaf(v):
                leaf_points[offset + v] = _hat_point(base.leaf_point[v], side)
    tree = build_hsbt(parent, weight, leaf_points, base.alpha)

    mirror = {tree.root: tree.root}
    c1, c2 = tree.children[tree.root]
    stack = [(c1, c2)]
    while stack:
        a, b = stack.pop()
        mirror[a] = b
        mirror[b] = a
        if tree.weight[a] != tree.weight[b]:
            raise InvariantViolation("mirrored vertices carry different weights")
        la, lb = tree.leaf_point.get(a), tree.leaf_point.get(b)
        if (la is None) != (lb is None):
            raise InvariantViolation("mirrored vertices disagree on leafness")
        if la is not None and la[:-2] != lb[:-2]:
            raise InvariantViolation(f"leaves {la}, {lb} are not twins")
        stack.extend(zip(tree.children[a], tree.children[b], strict=True))
    return tree, mirror


def run_mpmdfp(
    space: MetricSpace,
    requests: tuple[Request, ...],
    p: float,
    rng: np.random.Generator,
    mode: TimerMode = TimerMode.EXPONENTIAL,
    flush: bool = True,
) -> FpRun:
    """Serve every request by pairing or clearing, per the active regime.

    Engine-backed regimes hard-assert the per-run reduction inequality
    cost_fp <= cost of the doubled run.
    """
    regime = classify_regime(space, p)
    if not requests:
        zero = CostBreakdown(space=0.0, time=0.0, penalty=0.0)
        return FpRun(schedule=Schedule(pairings=()), cost=zero, regime=regime)

    if regime == REGIME_PER_POINT:
        schedule = _per_point_run(requests, p)
        cost = total_cost(space, requests, schedule, penalty_p=p)
        return FpRun(schedule=schedule, cost=cost, regime=regime)

    metric_hat, requests_hat = _doubled_parts(space, requests, p)
    seed = int(rng.integers(2**62))  # in every mode: the tree is drawn after it
    if regime == REGIME_DOUBLED:
        tree = sample_hsbt(metric_hat, rng)
        hat_run = run(tree, requests_hat, mode, seed, flush)
        twin_cross_only = False
    else:
        tree, mirror = _two_copies_tree(space, p, rng)
        words = None
        if mode is TimerMode.EXPONENTIAL:
            # mirrored vertices share the stream keyed by the lower of their ids
            keys = [min(v, mirror[v]) for v in range(len(tree))]
            words = next(stream_words([seed], keys))
        hat_run = Engine(tree, requests_hat, mode, words).run(flush=flush)
        twin_cross_only = True
    hat_cost = total_cost(metric_hat, requests_hat, hat_run.schedule)

    pairings, clears = _translate(hat_run.schedule.pairings, twin_cross_only)
    ordered = sorted(requests, key=lambda r: (r.t, r.id))
    to_orig = {k: r.id for k, r in enumerate(ordered)}
    schedule = Schedule(
        pairings=tuple((to_orig[a], to_orig[b], t) for a, b, t in pairings),
        clears=tuple((to_orig[a], t) for a, t in clears),
    )
    cost = total_cost(space, requests, schedule, penalty_p=p)
    if cost.total > hat_cost.total * (1 + 1e-9) + 1e-12:
        raise InvariantViolation(
            f"projected cost {cost.total} exceeds doubled-run cost {hat_cost.total}"
        )
    return FpRun(
        schedule=schedule, cost=cost, regime=regime, hat_cost=hat_cost, tree=tree
    )


def verify_benchmark_inequality(
    space: MetricSpace, requests: tuple[Request, ...], p: float
) -> bool:
    """Exact check: optimum of the doubled instance <= 2x the penalty optimum."""
    if len(requests) > MAX_BENCHMARK:
        raise TooLarge(
            f"{len(requests)} requests exceeds benchmark cap {MAX_BENCHMARK}"
        )
    metric_hat, requests_hat = _doubled_parts(space, requests, p)
    opt_hat = optimal_mpmd(metric_hat, requests_hat)
    opt_fp = optimal_mpmdfp(space, requests, p)
    return opt_hat.cost.total <= 2.0 * opt_fp.cost.total * (1 + 1e-9) + 1e-12

