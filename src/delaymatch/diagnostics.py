"""Potential ledgers and exact cost identities.

Everything here is pure analysis over an engine trace, an offline schedule
and the tree; nothing re-runs the engine, which keeps no ledgers, so tau_v
and sigma_v below are computed only here.  The ledgers read both runs'
states from one parity replay, `_replay`, fed with steps from the trace or
from the offline schedule.  It keeps each
vertex's count of odd children under path flips, so an event costs
O(height) and a stretch between event times O(number of vertices with an
odd child), not O(|V|).
The central quantities, per internal vertex v with children u1, u2 (D(t) is
the set of odd-count vertices under the online evolution, D*(t) under the
offline schedule):

    tau_v        time v spends effective (both children odd) online
    sigma_v      w(v) x number of non-flush online matches across v
    tau_star_v   integral of 1(u1 in D*) + 1(u2 in D*)
    sigma_star_v w(v) x number of offline matches across or on top of v
    zeta         integral of 1(root in D) -- equal for both evolutions,
                 since both serve requests in pairs after arrival

Two exact accounting identities tie them to the tree-metric cost of the
online run (space = sum of lca weights, time = total waiting):

    (a)  space cost  = c_end + sum_v sigma_v
    (b)  time  cost  = zeta + 2 sum_v tau_v

(a) holds because every match across v connects its feet at tree distance
w(v) and c_end collects exactly the flush matches.  (b) holds because the
number of waiting requests always equals 1(root odd) + 2 |effective set|:
odd vertices form disjoint root-free downward paths (stilts), one per
waiting request, and each stilt head is either the root or one of the two
odd children of an effective vertex.

The offline run obeys one-sided counterparts:

    (c)  time  cost >= (zeta + sum_v tau_star_v) / (height + 1)
    (d)  space cost >= (alpha - 1) / alpha x sum_v sigma_star_v

(c): every odd vertex lies on a stilt with at most height+1 vertices, one
stilt per waiting request.  (d): a match with lca u deposits w(u) plus two
downward weight chains, each geometrically dominated by w(u) / (alpha - 1);
the gate uses the single-chain constant (alpha-1)/alpha, and the report also
carries the margin for the two-chain constant (alpha-1)/(alpha+1), which is
the one the deposit structure actually guarantees.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

import numpy as np

from .core import CostBreakdown, Schedule
from .embedding import Hsbt
from .errors import IdentityViolation, OutOfDomain, TraceMismatch
from .stiltwalker import EngineTrace

__all__ = [
    "PotentialLedger",
    "IdentityReport",
    "track_potentials",
    "verify_cost_identities",
]


# ---------------------------------------------------------------------------
# trace utilities and the parity replay
# ---------------------------------------------------------------------------

_State = tuple[float, object, list[int], dict[int, int]]  # what `_replay` yields


def _trace_arrivals(trace: EngineTrace) -> dict[int, tuple[float, int]]:
    """request id -> (arrival time, leaf), pulled from arrival-kind events."""
    arrivals: dict[int, tuple[float, int]] = {}
    for e in trace.events:
        if e.kind == "arrival":
            arrivals[e.requests[0]] = (e.t, e.vertex)
        elif e.kind == "same_leaf":
            # the newcomer was matched on the spot and never held the leaf
            first, second = e.requests
            arrivals.setdefault(first, (e.t, e.vertex))
            arrivals[second] = (e.t, e.vertex)
    return arrivals


def _replay(tree: Hsbt, steps: Iterable[tuple]) -> Iterator[_State]:
    """Evolve the odd-vertex set under path flips; the one parity replay.

    A step (t, item, leaves, top) flips the path from each leaf up to, not
    including, `top` (-1: through the root).  Yields (t, item, parity,
    odd_kids) just before each step, both updated in place: the parity list,
    and each vertex with an odd child mapped to its number of odd children,
    so v is effective iff `odd_kids.get(v) == 2`.  A step costs O(height).
    """
    parent = tree.parent
    parity = [0] * len(tree)
    odd_kids: dict[int, int] = {}
    for t, item, leaves, top in steps:
        yield t, item, parity, odd_kids
        for leaf in leaves:
            v = leaf
            while v != top:
                if v < 0:
                    raise TraceMismatch(f"vertex {top} is not above leaf {leaf}")
                parity[v] ^= 1
                v_odd = parity[v]
                v = parent[v]
                if v >= 0:
                    c = odd_kids.get(v, 0) + (1 if v_odd else -1)
                    if c:
                        odd_kids[v] = c
                    else:
                        del odd_kids[v]
    if any(parity):
        raise TraceMismatch("parity replay ended with odd vertices left over")


def _replay_trace(tree: Hsbt, trace: EngineTrace) -> Iterator[_State]:
    """`_replay` of an engine trace; each item is the trace event.

    An arrival or same-leaf event flips its leaf-to-root path.  A match or
    flush flips its two requests' leaf paths up to its vertex, which the
    replayed state must hold effective.
    """
    arrivals = _trace_arrivals(trace)
    steps = []
    for e in trace.events:
        if e.kind in ("arrival", "same_leaf"):
            steps.append((e.t, e, (e.vertex,), -1))
        else:
            steps.append((e.t, e, [arrivals[rid][1] for rid in e.requests], e.vertex))
    for t, e, parity, odd_kids in _replay(tree, steps):
        if e.kind in ("match", "flush") and odd_kids.get(e.vertex) != 2:
            raise TraceMismatch(
                f"{e.kind} across vertex {e.vertex} at t={e.t}, "
                "which the replay does not hold effective"
            )
        yield t, e, parity, odd_kids


def _offline_steps(
    tree: Hsbt, arrivals: dict[int, tuple[float, int]], offline: Schedule
) -> list[tuple]:
    """`_replay` steps of an offline schedule, arrivals before matches at
    equal times.  An arrival's item is None; a match's is (leaf1, leaf2,
    lca), and it flips the two leaf paths below the lca."""
    if offline.clears:
        raise TraceMismatch("offline replay handles pure matching schedules only")
    steps: list = [(t, None, (leaf,), -1) for t, leaf in arrivals.values()]
    served: set[int] = set()
    for a, b, t in offline.pairings:
        if a not in arrivals or b not in arrivals:
            raise TraceMismatch(f"offline pairing ({a},{b}) names unknown requests")
        if a in served or b in served or a == b:
            raise TraceMismatch(f"offline pairing ({a},{b}) serves a request twice")
        served.update((a, b))
        ta, la = arrivals[a]
        tb, lb = arrivals[b]
        if t < ta or t < tb:
            raise TraceMismatch(f"offline match ({a},{b}) at t={t} precedes arrival")
        u = tree.lca(la, lb)
        steps.append((t, (la, lb, u), (la, lb), u))
    if served != set(arrivals):
        raise TraceMismatch("offline schedule leaves some requests unserved")
    steps.sort(key=lambda s: (s[0], s[1] is not None))
    return steps


def _deposit_star(tree: Hsbt, sigma_star: np.ndarray, la: int, lb: int, u: int) -> None:
    """w(v) into every internal vertex the match (la, lb) crosses or tops."""
    sigma_star[u] += tree.weight[u]
    for leaf in (la, lb):
        v = tree.parent[leaf]
        while v >= 0 and v != u:
            sigma_star[v] += tree.weight[v]
            v = tree.parent[v]


def _star_ledgers(
    tree: Hsbt,
    arrivals: dict[int, tuple[float, int]],
    offline: Schedule,
) -> tuple[np.ndarray, np.ndarray]:
    """Offline ledgers tau*, sigma* from a replay of the offline schedule."""
    n_v = len(tree)
    tau_star = np.zeros(n_v)
    sigma_star = np.zeros(n_v)
    prev_t = None
    steps = _offline_steps(tree, arrivals, offline)
    for t, match, _, odd_kids in _replay(tree, steps):
        if prev_t is not None and t > prev_t:
            dt = t - prev_t
            for v, c in odd_kids.items():
                tau_star[v] += dt * c
        prev_t = t
        if match is not None and match[0] != match[1]:
            _deposit_star(tree, sigma_star, *match)
    return tau_star, sigma_star


# ---------------------------------------------------------------------------
# potential ledgers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialLedger:
    tau: np.ndarray
    sigma: np.ndarray
    tau_star: np.ndarray
    sigma_star: np.ndarray
    zeta: float
    c_end: float
    t_end: float


def _online_ledgers(
    tree: Hsbt, trace: EngineTrace
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Online tau, sigma, zeta and c_end by piecewise-constant integration
    between trace events; c_end is checked against the trace's flush cost."""
    tau = [0.0] * len(tree)  # lists: cheaper per += than array items
    sigma = [0.0] * len(tree)
    zeta = 0.0
    c_end = 0.0
    prev_t = 0.0
    for t, e, parity, odd_kids in _replay_trace(tree, trace):
        dt = t - prev_t
        if dt < 0:
            raise TraceMismatch("trace events out of order")
        for v, c in odd_kids.items():
            if c == 2:
                tau[v] += dt
        if parity[tree.root]:
            zeta += dt
        if e.kind in ("match", "same_leaf"):
            sigma[e.vertex] += tree.weight[e.vertex]
        elif e.kind == "flush":
            c_end += tree.weight[e.vertex]
        prev_t = t
    if abs(c_end - trace.c_end_space) > 1e-9 * max(1.0, trace.c_end_space):
        raise TraceMismatch(
            f"flush cost {c_end} disagrees with trace summary {trace.c_end_space}"
        )
    return np.array(tau), np.array(sigma), zeta, c_end


def track_potentials(
    tree: Hsbt, trace: EngineTrace, offline: Schedule
) -> PotentialLedger:
    """Exact online and offline ledgers of one run."""
    tau, sigma, zeta, c_end = _online_ledgers(tree, trace)
    arrivals = _trace_arrivals(trace)
    tau_star, sigma_star = _star_ledgers(tree, arrivals, offline)

    return PotentialLedger(
        tau=tau,
        sigma=sigma,
        tau_star=tau_star,
        sigma_star=sigma_star,
        zeta=zeta,
        c_end=c_end,
        t_end=trace.t_end,
    )


# ---------------------------------------------------------------------------
# cost identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    residual_space: float       # identity (a), relative
    residual_time: float        # identity (b), relative
    time_bound_margin: float    # identity (c), absolute slack (>= 0 iff holds)
    space_bound_margin: float   # identity (d) at the gate constant
    space_bound_margin_provable: float  # (d) at the two-chain constant
    gate_constant: float
    provable_constant: float

    def to_dict(self) -> dict:
        return asdict(self)


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-9)


def verify_cost_identities(
    tree: Hsbt,
    ledger: PotentialLedger,
    online_cost: CostBreakdown,
    offline_cost: CostBreakdown,
) -> IdentityReport:
    """Check the two exact identities and the two offline lower bounds.

    Costs must be measured in the tree metric.  Raises IdentityViolation
    naming the first failing check, or OutOfDomain when a ledger sum passes
    the float range; returns the residual report otherwise.
    """
    with np.errstate(over="ignore"):  # a sum past the float range is rejected below
        space_ledger = ledger.c_end + float(ledger.sigma.sum())
        time_ledger = ledger.zeta + 2.0 * float(ledger.tau.sum())
        star_time = ledger.zeta + float(ledger.tau_star.sum())
        star_sum = float(ledger.sigma_star.sum())
    if not all(map(math.isfinite, (space_ledger, time_ledger, star_time, star_sum))):
        raise OutOfDomain("the cost ledgers of this run exceed the float range")
    res_a = _rel(online_cost.space, space_ledger)
    res_b = _rel(online_cost.time, time_ledger)

    h = tree.height
    rhs_c = star_time / (h + 1)
    margin_c = offline_cost.time - rhs_c

    gate = (tree.alpha - 1.0) / tree.alpha
    provable = (tree.alpha - 1.0) / (tree.alpha + 1.0)
    margin_d = offline_cost.space - gate * star_sum
    margin_d_provable = offline_cost.space - provable * star_sum

    scale = max(online_cost.total, offline_cost.total, 1.0)
    if res_a > 1e-9:
        raise IdentityViolation(f"space accounting off by {res_a} (relative)")
    if res_b > 1e-9:
        raise IdentityViolation(f"time accounting off by {res_b} (relative)")
    if margin_c < -1e-9 * scale:
        raise IdentityViolation(f"offline time bound violated by {-margin_c}")
    if margin_d < -1e-9 * scale:
        raise IdentityViolation(f"offline space bound violated by {-margin_d}")
    return IdentityReport(
        residual_space=res_a,
        residual_time=res_b,
        time_bound_margin=margin_c,
        space_bound_margin=margin_d,
        space_bound_margin_provable=margin_d_provable,
        gate_constant=gate,
        provable_constant=provable,
    )
