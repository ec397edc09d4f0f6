"""Reference implementations that only the tests call.

Each recomputes from scratch something the library keeps incrementally or
builds another way, so the tests can hold the library's result against it:

* `recompute_state`         -- the engine's stilt state, from the active leaves
* `ReferenceEngine`         -- the engine as a chain of methods, one per step
                               of an event: the one stepwise engine
* `build_doubled`           -- the penalty reduction's doubled instance, with
                               its regime and aspect-ratio checks
* `clear_fraction`          -- Monte-Carlo share of requests `run_mpmdfp` clears
* `tree_distance`,
  `point_distance`          -- one LCA walk per pair of leaves or points
* `color_at`                -- a coloring's color at one instant, by a scan
* `alternate`               -- the alternation loop, kept apart from
                               `altpoisson.simulate_app`'s own

and runs the paper's proof checks that no command runs:

* `verify_benchmark_inequality` -- the doubled instance's optimum is at most
                                   twice the penalty optimum, solved exactly
* `monte_carlo_sigma_tau`   -- mean stake <= mean effective time per vertex
                               (E sigma_v <= E tau_v) over seeded runs
* `rate_pieces`,
  `simulate_rate_varying`   -- the alternation process on a clock rate that
                               varies below a cap, the rate-varying form of
                               the waiting-time analysis: pieces built once,
                               then one realization per call

The no-flush budget check lives in `test_experiment.py` and the phase
partition in `test_diagnostics.py`, the one module that calls each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Sequence

import numpy as np

from delaymatch.altpoisson import AppRealization, Coloring
from delaymatch.core import Request, Schedule
from delaymatch.diagnostics import _online_ledgers, _star_ledgers
from delaymatch.embedding import Hsbt
from delaymatch.errors import (
    ConfigInvalid,
    InvariantViolation,
    OddRequestSet,
    RegimeMismatch,
    TooLarge,
    UnknownLocation,
)
from delaymatch.metric import MetricSpace, stats
from delaymatch.offline import optimal_mpmd, optimal_mpmdfp
from delaymatch.penalty import (
    REGIME_DOUBLED,
    _doubled_parts,
    classify_regime,
    run_mpmdfp,
)
from delaymatch.stiltwalker import (
    _BLOCK,
    Engine,
    EngineEvent,
    EngineRun,
    EngineTrace,
    TimerMode,
    _Words,
    stream_words,
)


@dataclass(frozen=True)
class StiltState:
    """Snapshot of the stilt decomposition at one instant."""

    odd: frozenset[int]
    heads: frozenset[int]
    stilts: tuple[tuple[int, int], ...]          # (head, foot), sorted by head
    effective: tuple[tuple[int, int, int], ...]  # (vertex, foot1, foot2), sorted


def recompute_state(tree: Hsbt, active_leaves: Sequence[int]) -> StiltState:
    """Derive odd set, stilts, heads and effective vertices from scratch."""
    parity = [0] * len(tree)
    for leaf in active_leaves:
        v = leaf
        while v >= 0:
            parity[v] ^= 1
            v = tree.parent[v]
    odd = frozenset(v for v in range(len(tree)) if parity[v])

    def foot(v: int) -> int:
        while not tree.is_leaf(v):
            kids = [c for c in tree.children[v] if parity[c]]
            if len(kids) != 1:
                raise InvariantViolation("odd vertex without a unique odd child")
            v = kids[0]
        return v

    heads = frozenset(
        v for v in odd if tree.parent[v] < 0 or tree.parent[v] not in odd
    )
    stilts = tuple(sorted((h, foot(h)) for h in heads))
    effective = []
    for v in range(len(tree)):
        kids = tree.children[v]
        if len(kids) == 2 and parity[kids[0]] and parity[kids[1]]:
            effective.append((v, foot(kids[0]), foot(kids[1])))
    return StiltState(
        odd=odd, heads=heads, stilts=stilts, effective=tuple(sorted(effective))
    )


class ReferenceEngine:
    """The engine as a chain of methods, one per step of an event, and the
    one engine that can be stepped: the reference that `stiltwalker.Engine`
    must match in its trace and in its state after a run."""

    def __init__(
        self,
        tree: Hsbt,
        requests: Sequence[Request],
        mode: TimerMode = TimerMode.EXPONENTIAL,
        words: np.ndarray | None = None,
    ):
        self.tree = tree
        self.mode = mode
        self.requests = sorted(requests, key=lambda r: (r.t, r.id))
        if len(self.requests) % 2 != 0:
            raise OddRequestSet("engine needs an even number of requests")
        for r in self.requests:
            if r.point not in tree.point_leaf:
                raise UnknownLocation(f"request {r.id} at {r.point!r} not a tree leaf")
        self.leaf_of = {r.id: tree.point_leaf[r.point] for r in self.requests}
        # row v of `words` holds the seed words of vertex v's stream
        if mode is TimerMode.EXPONENTIAL and words is None:
            raise ConfigInvalid("exponential timers need a seed-word table")
        self._words = words
        # vertex -> [values of its stream drawn so far, how many are used]
        self._streams: dict[int, list] = {}
        n_v = len(tree)
        self.budget: list[float | None] = [None] * n_v  # None until first effective
        self.deadline = [0.0] * n_v  # read only while the vertex is effective
        self._timers: list[tuple[float, int]] = []  # heap of (deadline, vertex)
        self._sibling = [-1] * n_v
        for c1, c2 in filter(None, tree.children):
            self._sibling[c1], self._sibling[c2] = c2, c1
        self.parity = [0] * n_v
        self.active_at: dict[int, int] = {}  # leaf -> request id
        self.effective: set[int] = set()
        self.now = 0.0
        self.arrival_index = 0
        self.trace = EngineTrace()
        self.trace.t_end = self.requests[-1].t if self.requests else 0.0

    def _draw(self, v: int) -> float:
        w = self.tree.weight[v]
        if self.mode is TimerMode.DETERMINISTIC:
            return w
        stream = self._streams.setdefault(v, [[], 0])
        values, used = stream
        if used == len(values):
            values = stream[0] = self._prefix(v, w, 2 * used or _BLOCK)
        stream[1] = used + 1
        return values[used]

    def _prefix(self, v: int, scale: float, k: int) -> list[float]:
        """The first k values of vertex v's stream."""
        bits = np.random.PCG64(_Words(self._words[v]))
        return np.random.Generator(bits).exponential(scale, k).tolist()

    # -- state maintenance ----------------------------------------------------

    def _flip_path(self, leaf: int, top: int = -1) -> None:
        """Flip parity from `leaf` up to, not including, `top` (-1: the root too).

        A flip of v toggles the effectiveness of its parent u exactly when
        v's sibling is odd, so only then is u touched: entering, u draws its
        first budget if it has none and pushes its deadline; leaving, u keeps
        what is left of its budget.  `top` must be -1 or an ancestor of `leaf`.
        """
        parent, sibling, parity = self.tree.parent, self._sibling, self.parity
        effective, budget, deadline = self.effective, self.budget, self.deadline
        v = leaf
        while v != top:
            parity[v] ^= 1
            u = parent[v]
            if u < 0:
                if top >= 0:
                    raise InvariantViolation(f"vertex {top} is not above leaf {leaf}")
                return
            if parity[sibling[v]]:
                if parity[v]:
                    if budget[u] is None:
                        budget[u] = self._draw(u)
                    deadline[u] = self.now + budget[u]
                    effective.add(u)
                    heappush(self._timers, (deadline[u], u))
                    if len(self._timers) > 2 * len(effective) + 16:
                        # mostly stale entries: keep one per effective vertex
                        self._timers = [(deadline[w], w) for w in effective]
                        heapify(self._timers)
                else:
                    budget[u] = deadline[u] - self.now
                    effective.discard(u)
            v = u

    def _foot(self, v: int) -> int:
        children, parity = self.tree.children, self.parity
        while children[v]:
            c1, c2 = children[v]
            if parity[c1] == parity[c2]:
                raise InvariantViolation("odd vertex without a unique odd child")
            v = c1 if parity[c1] else c2
        return v

    def _supporting(self, v: int) -> tuple[int, int]:
        c1, c2 = self.tree.children[v]
        return self._foot(c1), self._foot(c2)

    def _advance(self, t: float) -> None:
        t = float(t)
        if t < self.now:
            raise InvariantViolation("time went backwards")
        self.now = t

    def _next_timer(self) -> tuple[float, int] | None:
        """The earliest (deadline, vertex) of an effective vertex, or None;
        drops stale tops (left the effective set, or re-entered it since)."""
        timers, effective, deadline = self._timers, self.effective, self.deadline
        while timers:
            d, v = timers[0]
            if v in effective and deadline[v] == d:
                return d, v
            heappop(timers)
        return None

    def _record(self, kind: str, vertex, requests) -> EngineEvent:
        ev = EngineEvent(self.now, kind, vertex, requests)
        self.trace.events.append(ev)
        return ev

    # -- event handlers ---------------------------------------------------------

    def _handle_arrival(self, req: Request) -> EngineEvent:
        leaf = self.leaf_of[req.id]
        partner = self.active_at.pop(leaf, None)
        if partner is not None:
            # zero-distance match; the standing active vanishes, so the
            # leaf's path parity flips exactly once
            self._flip_path(leaf)
            return self._record("same_leaf", leaf, (partner, req.id))
        self.active_at[leaf] = req.id
        self._flip_path(leaf)
        return self._record("arrival", leaf, (req.id,))

    def match_across(self, v: int, kind: str = "match") -> EngineEvent:
        """Match the two supporting requests of effective vertex v at `now`."""
        if v not in self.effective:
            raise InvariantViolation(f"vertex {v} is not effective at t={self.now}")
        f1, f2 = self._supporting(v)
        r1 = self.active_at.pop(f1)
        r2 = self.active_at.pop(f2)
        # above v the two flips cancel: parities there stay as they are
        self._flip_path(f1, v)
        self._flip_path(f2, v)
        self.budget[v] = self._draw(v)
        return self._record(kind, v, (r1, r2))

    # -- stepping -----------------------------------------------------------------

    def advance_to_next_event(self) -> EngineEvent | None:
        """Advance to and process the next event; None when nothing remains.

        The next event is the earlier of the next arrival and the earliest
        effective-vertex expiry; at equal times the arrival wins, and tied
        timers fire shallowest-lowest-id first.
        """
        timer = self._next_timer()
        if self.arrival_index < len(self.requests):
            req = self.requests[self.arrival_index]
            if timer is None or req.t <= timer[0]:
                self._advance(req.t)
                self.arrival_index += 1
                return self._handle_arrival(req)
        if timer is None:
            if self.active_at:
                raise InvariantViolation(
                    "stuck: active requests but no effective vertex"
                )
            return None
        heappop(self._timers)
        self._advance(timer[0])
        return self.match_across(timer[1])

    def flush_now(self) -> None:
        """Match across every effective vertex at the current instant.

        Supporting pairs of distinct effective vertices are disjoint and
        matching across one leaves the others effective, so a single pass by
        increasing depth clears every remaining active request.
        """
        self.trace.flushed = True
        c_end = 0.0
        for v in sorted(self.effective):
            if v in self.effective:
                self.match_across(v, kind="flush")
                c_end += self.tree.weight[v]
        if self.active_at:
            raise InvariantViolation("flush left active requests behind")
        n_pts = len(self.tree.leaf_point)
        ceiling = (n_pts / 2.0) * self.tree.weight[self.tree.root]
        if c_end > ceiling * (1 + 1e-12):
            raise InvariantViolation(f"flush space {c_end} exceeds ceiling {ceiling}")
        self.trace.c_end_space = c_end

    def run(self, flush: bool = True) -> EngineRun:
        while True:
            if (
                flush
                and self.arrival_index == len(self.requests)
                and not self.trace.flushed
            ):
                self.flush_now()
                break
            ev = self.advance_to_next_event()
            if ev is None:
                break
        # every event but an arrival pairs its two requests at its time
        pairings = tuple(
            (*e.requests, e.t) for e in self.trace.events if e.kind != "arrival"
        )
        return EngineRun(schedule=Schedule(pairings=pairings), trace=self.trace)


@dataclass(frozen=True)
class DoubledInstance:
    metric_hat: MetricSpace
    requests_hat: tuple[Request, ...]
    p: float


def build_doubled(
    space: MetricSpace, requests: tuple[Request, ...], p: float
) -> DoubledInstance:
    """Doubled instance for the middle regime (d/2 <= p <= 2D)."""
    regime = classify_regime(space, p)
    if regime != REGIME_DOUBLED:
        st = stats(space)
        raise RegimeMismatch(
            f"p={p} outside [{st.d_min / 2}, {2 * st.d_max}]; regime is {regime}"
        )
    metric_hat, requests_hat, _ = _doubled_parts(space, requests, p)
    st = stats(space)
    st_hat = stats(metric_hat)
    if st_hat.aspect_ratio > 6.0 * st.aspect_ratio * (1 + 1e-9):
        raise InvariantViolation(
            f"doubled aspect ratio {st_hat.aspect_ratio} blew past 6x original"
        )
    return DoubledInstance(metric_hat=metric_hat, requests_hat=requests_hat, p=p)


def clear_fraction(
    space: MetricSpace,
    requests: tuple[Request, ...],
    p: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo fraction of requests cleared by run_mpmdfp."""
    if not requests:
        return 0.0
    cleared = 0
    for _ in range(trials):
        out = run_mpmdfp(space, requests, p, rng)
        cleared += len(out.schedule.clears)
    return cleared / (trials * len(requests))


MAX_BENCHMARK = 6


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


@dataclass(frozen=True)
class SigmaTauReport:
    trials: int
    mean_tau: np.ndarray
    mean_sigma: np.ndarray
    violations: tuple[int, ...]   # vertices with mean sigma > mean tau + 3 SE
    tau_ratio_max: float          # max_v mean tau / (tau* + sigma* + w)
    tau_ratio_ok: bool


def monte_carlo_sigma_tau(
    tree: Hsbt,
    requests: tuple[Request, ...],
    trials: int,
    rng: np.random.Generator,
    flush: bool = True,
    offline: Schedule | None = None,
) -> SigmaTauReport:
    """Check mean sigma_v <= mean tau_v + 3 SE per vertex over seeded runs.

    The stake deposited at a vertex is budget actually consumed there, and
    budgets burn only while the vertex is effective, so each vertex's mean
    stake cannot exceed its mean effective time.  With an offline schedule
    the report also carries the largest ratio of mean effective time to the
    offline ledger total tau*_v + sigma*_v + w(v), gated at 10.
    """
    n_v = len(tree)
    taus = np.zeros((trials, n_v))
    sigmas = np.zeros((trials, n_v))
    seeds = [int(rng.integers(2**62)) for _ in range(trials)]
    for i, words in enumerate(stream_words(seeds, range(n_v))):
        run = Engine(tree, requests, TimerMode.EXPONENTIAL, words).run(flush=flush)
        taus[i], sigmas[i], _, _ = _online_ledgers(tree, run.trace)
    mean_tau = taus.mean(axis=0)
    mean_sigma = sigmas.mean(axis=0)
    diff = sigmas - taus
    se = diff.std(axis=0, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros(n_v)
    violations = tuple(
        int(v)
        for v in range(n_v)
        if mean_sigma[v] > mean_tau[v] + 3.0 * se[v] + 1e-12
    )

    ratio_max = 0.0
    if offline is not None:
        arrivals = {r.id: (r.t, tree.point_leaf[r.point]) for r in requests}
        tau_star, sigma_star = _star_ledgers(tree, arrivals, offline)
        for v in range(n_v):
            if tree.is_leaf(v):
                continue
            denom = tau_star[v] + sigma_star[v] + tree.weight[v]
            ratio_max = max(ratio_max, mean_tau[v] / denom)
    return SigmaTauReport(
        trials=trials,
        mean_tau=mean_tau,
        mean_sigma=mean_sigma,
        violations=violations,
        tau_ratio_max=ratio_max,
        tau_ratio_ok=ratio_max <= 10.0,
    )


def tree_distance(tree, x: int, y: int) -> float:
    """Distance of vertices x and y: the weight of their LCA (0 if equal)."""
    if x == y:
        return 0.0
    return tree.weight[tree.lca(x, y)]


def point_distance(tree, a: str, b: str) -> float:
    return tree_distance(tree, tree.point_leaf[a], tree.point_leaf[b])


def color_at(coloring: Coloring, t: float) -> int | None:
    """The color of instant t: that of the segment holding it."""
    for s, e, c in coloring.segments:
        if s <= t < e:
            return c
    raise ConfigInvalid(f"t={t} outside the colored window")


def alternate(coloring: Coloring, draw_threshold, advance) -> AppRealization:
    """The alternation loop, apart from `altpoisson.simulate_app`'s: iteration
    j draws its threshold z, then `advance(T_{j-1}, color, z)` returns
    (T_j, G_j), color 1 for odd j and 2 for even j, until T_j is the window end."""
    boundaries, digests = [], []
    t, j = coloring.t0, 0
    while t < coloring.t1:
        j += 1
        color = 1 if j % 2 == 1 else 2
        z = draw_threshold()
        t, digested = advance(t, color, z)
        boundaries.append(t)
        digests.append(digested)
    return AppRealization(tuple(boundaries), tuple(digests), len(boundaries) - 1)


def rate_pieces(
    coloring: Coloring, profile: Sequence[tuple[float, float, float]], cap: float
) -> tuple[tuple[float, float, int | None, float], ...]:
    """Check a (start, end, rate) profile, rates in [0, cap], covering the
    window, and refine it and the coloring to (start, end, color, rate) pieces."""
    if cap <= 0:
        raise ConfigInvalid("rate cap must be positive")
    for s, e, r in profile:
        if r < 0:
            raise ConfigInvalid(f"negative rate on [{s},{e})")
        if r > cap * (1 + 1e-12):
            raise ConfigInvalid(f"rate {r} on [{s},{e}) exceeds cap {cap}")
    cuts = sorted(
        {x for s, e, _ in coloring.segments for x in (s, e)}
        | {x for s, e, _ in profile for x in (s, e)}
    )
    cuts = [c for c in cuts if coloring.t0 <= c <= coloring.t1]

    def rate_at(t: float) -> float:
        for s, e, r in profile:
            if s <= t < e:
                return r
        raise ConfigInvalid(f"rate profile does not cover t={t}")

    return tuple(
        (a, b, color_at(coloring, a), rate_at(a)) for a, b in zip(cuts, cuts[1:])
    )


def simulate_rate_varying(coloring: Coloring, pieces, rng) -> AppRealization:
    """One realization of the alternation process on the `rate_pieces` clock.

    Iteration j ends when the rate-weighted color volume since T_{j-1}
    reaches an Exp(1) threshold; G_j is still the unweighted volume digested.
    """

    def advance(t_prev: float, color: int, z: float) -> tuple[float, float]:
        weighted = 0.0
        digested = 0.0
        t = t_prev
        for s, e, c, r in pieces:
            if e <= t_prev:
                continue
            s = max(s, t_prev)
            if c == color:
                if r > 0 and (e - s) * r > z - weighted:
                    dt = (z - weighted) / r
                    return s + dt, digested + dt
                weighted += (e - s) * r
                digested += e - s
            t = e
        return t, digested

    return alternate(coloring, lambda: float(rng.exponential(1.0)), advance)
