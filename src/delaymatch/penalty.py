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

Only the tree and the timers differ between runs, so `PenaltyReduction`
resolves the regime and the doubled instance once; a batch shares it, and
`run_mpmdfp` makes one run of it.
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
from .stiltwalker import Engine, TimerMode, stream_words

__all__ = [
    "REGIME_PER_POINT",
    "REGIME_DOUBLED",
    "REGIME_TWO_COPIES",
    "FpRun",
    "PenaltyReduction",
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
) -> tuple[MetricSpace, tuple[Request, ...], tuple[int, ...]]:
    """Doubled metric, twin requests and, per twin pair k, the original
    request id (twins 2k, 2k + 1); no regime restriction."""
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
    return metric_hat, tuple(hat), tuple(r.id for r in ordered)


@dataclass(frozen=True)
class FpRun:
    """Outcome of a penalty-variant run."""

    schedule: Schedule
    cost: CostBreakdown
    regime: str
    hat_cost: CostBreakdown | None = None
    tree: Hsbt | None = field(default=None, repr=False)


def _translate(
    hat_pairings: tuple[tuple[int, int, float], ...],
    to_orig: tuple[int, ...],
    twin_cross_only: bool,
) -> Schedule:
    """Project doubled-run pairings back to pairings and clears of the
    original requests (twin pair k is request to_orig[k])."""
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
    return Schedule(
        pairings=tuple((to_orig[a], to_orig[b], t) for a, b, t in pairings),
        clears=tuple((to_orig[a], t) for a, t in clears),
    )


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


class PenaltyReduction:
    """What every run of one penalty instance shares, resolved once: the
    regime and `fixed`, the whole run where the regime draws nothing, or else
    the doubled instance `metric_hat`, `requests_hat` that the engine serves
    (twin pair k projects back to request `to_orig[k]`)."""

    def __init__(self, space: MetricSpace, requests: tuple[Request, ...], p: float):
        self.space, self.requests, self.p = space, requests, p
        self.regime = classify_regime(space, p)
        self.fixed: FpRun | None = None
        if not requests or self.regime == REGIME_PER_POINT:
            schedule = _per_point_run(requests, p)
            cost = total_cost(space, requests, schedule, penalty_p=p)
            self.fixed = FpRun(schedule, cost, self.regime)
        else:
            parts = _doubled_parts(space, requests, p)
            self.metric_hat, self.requests_hat, self.to_orig = parts

    def sample(
        self, rng: np.random.Generator, words: np.ndarray | None
    ) -> tuple[Hsbt, np.ndarray | None]:
        """A run's tree, drawn from `rng`, and the rows of its seed's word
        table (None for deterministic timers) that its engine reads."""
        if self.regime == REGIME_DOUBLED:
            return sample_hsbt(self.metric_hat, rng), words
        tree, mirror = _two_copies_tree(self.space, self.p, rng)
        if words is not None:
            # mirrored vertices share the stream keyed by the lower of their ids
            words = words[[min(v, mirror[v]) for v in range(len(tree))]]
        return tree, words

    def project(self, hat_schedule: Schedule, tree: Hsbt) -> FpRun:
        """Project a doubled run back; asserts cost_fp <= its doubled cost."""
        hat_cost = total_cost(self.metric_hat, self.requests_hat, hat_schedule)
        schedule = _translate(
            hat_schedule.pairings, self.to_orig, self.regime == REGIME_TWO_COPIES
        )
        cost = total_cost(self.space, self.requests, schedule, penalty_p=self.p)
        if cost.total > hat_cost.total * (1 + 1e-9) + 1e-12:
            raise InvariantViolation(
                f"projected cost {cost.total} exceeds doubled-run cost {hat_cost.total}"
            )
        return FpRun(schedule, cost, self.regime, hat_cost, tree)


def run_mpmdfp(
    space: MetricSpace,
    requests: tuple[Request, ...],
    p: float,
    rng: np.random.Generator,
    mode: TimerMode = TimerMode.EXPONENTIAL,
    flush: bool = True,
) -> FpRun:
    """Serve every request by pairing or clearing, per the active regime:
    one run of the instance's `PenaltyReduction`.

    Engine-backed regimes hard-assert the per-run reduction inequality
    cost_fp <= cost of the doubled run.
    """
    reduction = PenaltyReduction(space, requests, p)
    if reduction.fixed is not None:
        return reduction.fixed
    seed = int(rng.integers(2**62))  # in every mode: the tree is drawn after it
    words = None
    if mode is TimerMode.EXPONENTIAL:
        words = next(stream_words([seed], range(2 * reduction.metric_hat.n - 1)))
    tree, words = reduction.sample(rng, words)
    hat_run = Engine(tree, reduction.requests_hat, mode, words).run(flush=flush)
    return reduction.project(hat_run.schedule, tree)


def verify_benchmark_inequality(
    space: MetricSpace, requests: tuple[Request, ...], p: float
) -> bool:
    """Exact check: optimum of the doubled instance <= 2x the penalty optimum."""
    if len(requests) > MAX_BENCHMARK:
        raise TooLarge(
            f"{len(requests)} requests exceeds benchmark cap {MAX_BENCHMARK}"
        )
    metric_hat, requests_hat, _ = _doubled_parts(space, requests, p)
    opt_hat = optimal_mpmd(metric_hat, requests_hat)
    opt_fp = optimal_mpmdfp(space, requests, p)
    return opt_hat.cost.total <= 2.0 * opt_fp.cost.total * (1 + 1e-9) + 1e-12

