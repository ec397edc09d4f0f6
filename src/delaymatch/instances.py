"""Instance generators: random streams, two-point patterns, and the
adversarial cascade that defeats the deterministic timers.

The adversarial instance lives on an n-leaf perfect binary tree (n a power
of two) whose internal vertices at depth i weigh (1 + 1/lg n)^(lg n - 1 - i),
so every leaf distance is Theta(1).  The request stream is a recursive
cascade of one move, played first at the root and then inside both halves,
quartering down to subtrees of eight leaves:

* the vertex u under attack starts with one active request per side, so u is
  effective and its deterministic timer burns down;
* a hair before the timer expires, four requests arrive that flip u's
  children to even (freezing nothing but re-routing the stilts), so u's
  expiry match connects two of the newcomers at cost w(u);
* a hair after the expiry, four more requests arrive: two cancel the
  leftovers on the spot (same-leaf matches), two recreate the "one active
  per side" opening inside each child of u, for the next round.

An offline player pairs each quartet internally for O(epsilon) per round,
while the online run is herded into n/2 stranded requests whose clearing
costs Omega(n).  Arrival times inside a burst are jittered by a tiny eta
(construction order) so that all arrival times stay pairwise distinct; the
drift this causes in expiry times is at most a few eta per round, far below
the epsilon gap that separates the bursts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Request, make_requests
from .embedding import Hsbt, build_hsbt, tree_metric
from .errors import ConfigInvalid, OutOfDomain
from .metric import MetricSpace

__all__ = [
    "GammaConfig",
    "GammaApplication",
    "GammaInstance",
    "gen_adversarial_gamma",
    "gen_random",
    "gen_two_point",
]

# count arguments are bounded before anything is built; a metric costs O(n^3)
# to validate, and 4096 points already take about a minute
MAX_POINTS = 4096
MAX_REQUESTS = 10**6


# ---------------------------------------------------------------------------
# adversarial cascade
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaConfig:
    n: int                        # leaf count, power of two, >= 8
    epsilon: float | None = None  # burst gap; default 1/(100 n lg n)
    max_depth: int | None = None  # deepest vertex level attacked

    def resolved(self) -> tuple[int, float, float, int]:
        n = self.n
        if n < 8 or n & (n - 1) != 0:
            raise ConfigInvalid(f"leaf count must be a power of two >= 8, got {n}")
        if n > MAX_POINTS:
            raise ConfigInvalid(f"leaf count must be <= {MAX_POINTS}, got {n}")
        lg = n.bit_length() - 1
        eps = self.epsilon if self.epsilon is not None else 1.0 / (100 * n * lg)
        if not (0 < eps < 1.0 / n):
            raise ConfigInvalid(f"epsilon must sit in (0, 1/n), got {eps}")
        eta = eps / (16 * n)  # intra-burst spacing
        limit = lg - 3
        depth = limit if self.max_depth is None else min(self.max_depth, limit)
        if depth < 0:
            raise ConfigInvalid("recursion depth limit must be >= 0")
        return n, eps, eta, depth


@dataclass(frozen=True)
class GammaApplication:
    """One round of the cascade at vertex `vertex` (depth `depth`)."""

    vertex: int
    depth: int
    start_effective: float   # vertex effective from here on
    expiry: float            # nominal deterministic expiry (drift < 8 eta)
    mid_time: float          # burst just before the expiry
    post_time: float         # burst just after it
    sites: tuple[str, ...]   # the six leaf points x1..x6 of this round
    expiry_feet: tuple[str, str]      # points matched by the expiry (x3, x4)
    cancel_sites: tuple[str, str]     # same-leaf matches at post time (x2, x5)
    handoff: tuple[tuple[int, str, str], ...]  # (child vertex, left, right)


@dataclass(frozen=True)
class GammaInstance:
    tree: Hsbt
    space: MetricSpace
    requests: tuple[Request, ...]
    epsilon: float
    jitter: float
    applications: tuple[GammaApplication, ...]
    end_actives: tuple[str, ...]   # points left active after the last burst

    @property
    def n(self) -> int:
        return len(self.tree.leaf_point)


def _perfect_tree(n: int) -> Hsbt:
    """Perfect binary tree in heap order, depth-i internal weight
    alpha^(lg n - 1 - i); the leaves p0, p1, ... are the last n ids."""
    lg = n.bit_length() - 1
    alpha = 1.0 + 1.0 / lg
    parent = [-1] + [(v - 1) // 2 for v in range(1, 2 * n - 1)]
    weight = [alpha ** (lg - (v + 1).bit_length()) for v in range(n - 1)]
    weight += [0.0] * n
    leaf_points = {n - 1 + i: f"p{i}" for i in range(n)}
    return build_hsbt(parent, weight, leaf_points, alpha)


def _leftmost_leaf(tree: Hsbt, v: int) -> int:
    while not tree.is_leaf(v):
        v = tree.children[v][0]
    return v


def _child_containing(tree: Hsbt, v: int, leaf: int) -> int:
    for c in tree.children[v]:
        if c == leaf or leaf in set(tree.subtree(c)):
            return c
    raise ConfigInvalid(f"leaf {leaf} not below vertex {v}")


def gen_adversarial_gamma(cfg: GammaConfig) -> GammaInstance:
    """The deterministic-timer adversarial instance on a prescribed tree."""
    n, eps, eta, depth_limit = cfg.resolved()
    tree = _perfect_tree(n)
    point_of = tree.leaf_point

    # opening pair: leftmost leaf of the canonical deep-left chain each side
    root = tree.root
    c_left, c_right = tree.children[root]
    x1_leaf = _leftmost_leaf(tree, tree.children[tree.children[c_left][0]][0])
    v5 = tree.children[c_right][1]
    x6_leaf = _leftmost_leaf(tree, tree.children[v5][1])

    arrivals: list[tuple[float, str]] = [
        (0.0, point_of[x1_leaf]),
        (0.0, point_of[x6_leaf]),
    ]
    applications: list[GammaApplication] = []

    # A vertex that hosted a burst window (both bursting leaves under it)
    # burns ~2 epsilon of its own deterministic budget while that window is
    # open; when it is attacked two rounds later, its expiry comes early by
    # exactly that amount, so the bursts must be scheduled against it.
    pre_consumed: dict[int, float] = {}

    # (vertex, left active leaf, right active leaf, effective-since)
    frontier: list[tuple[int, int, int, float]] = [(root, x1_leaf, x6_leaf, 0.0)]
    end_actives: list[str] = []
    while frontier:
        u, left_leaf, right_leaf, since = frontier.pop(0)
        if tree.depth[u] > depth_limit:
            end_actives.extend((point_of[left_leaf], point_of[right_leaf]))
            continue
        w_u = tree.weight[u]
        expiry = since + w_u - pre_consumed.get(u, 0.0)
        mid, post = expiry - eps, expiry + eps

        v2 = _child_containing(tree, u, left_leaf)
        v3 = _child_containing(tree, v2, left_leaf)
        t2 = next(c for c in tree.children[v3] if left_leaf not in set(tree.subtree(c)))
        t3 = next(c for c in tree.children[v2] if c != v3)
        x2_leaf = _leftmost_leaf(tree, t2)
        x3_leaf = _leftmost_leaf(tree, t3)

        v4 = _child_containing(tree, u, right_leaf)
        v5 = _child_containing(tree, v4, right_leaf)
        t5 = next(
            c for c in tree.children[v5] if right_leaf not in set(tree.subtree(c))
        )
        t4 = next(c for c in tree.children[v4] if c != v5)
        x5_leaf = _leftmost_leaf(tree, t5)
        x4_leaf = _leftmost_leaf(tree, t4)

        for leaf in (x2_leaf, x3_leaf, x4_leaf, x5_leaf):
            arrivals.append((mid, point_of[leaf]))
        for leaf in (x2_leaf, x3_leaf, x4_leaf, x5_leaf):
            arrivals.append((post, point_of[leaf]))
        pre_consumed[v3] = pre_consumed.get(v3, 0.0) + (post - mid)
        pre_consumed[v5] = pre_consumed.get(v5, 0.0) + (post - mid)

        applications.append(
            GammaApplication(
                vertex=u,
                depth=tree.depth[u],
                start_effective=since,
                expiry=expiry,
                mid_time=mid,
                post_time=post,
                sites=(
                    point_of[left_leaf],
                    point_of[x2_leaf],
                    point_of[x3_leaf],
                    point_of[x4_leaf],
                    point_of[x5_leaf],
                    point_of[right_leaf],
                ),
                expiry_feet=(point_of[x3_leaf], point_of[x4_leaf]),
                cancel_sites=(point_of[x2_leaf], point_of[x5_leaf]),
                handoff=(
                    (v2, point_of[left_leaf], point_of[x3_leaf]),
                    (v4, point_of[x4_leaf], point_of[right_leaf]),
                ),
            )
        )
        frontier.append((v2, left_leaf, x3_leaf, post))
        frontier.append((v4, x4_leaf, right_leaf, post))

    # spread coincident bursts by eta in construction order
    jittered: list[tuple[str, float]] = []
    seen: dict[float, int] = {}
    for t, point in arrivals:
        k = seen.get(t, 0)
        seen[t] = k + 1
        jittered.append((point, t + k * eta))

    space = tree_metric(tree)
    requests = make_requests(space, jittered)
    return GammaInstance(
        tree=tree,
        space=space,
        requests=requests,
        epsilon=eps,
        jitter=eta,
        applications=tuple(applications),
        end_actives=tuple(end_actives),
    )


# ---------------------------------------------------------------------------
# random and scripted instances
# ---------------------------------------------------------------------------

def _distinct_times(raw: np.ndarray) -> list[float]:
    """Sort and nudge duplicates apart (uniform draws almost never collide)."""
    times = sorted(float(t) for t in raw)
    for i in range(1, len(times)):
        if times[i] <= times[i - 1]:
            times[i] = math.nextafter(times[i - 1], math.inf)
    return times


def gen_random(
    kind: str,
    n_points: int,
    request_count: int,
    horizon: float,
    rng: np.random.Generator,
) -> tuple[MetricSpace, tuple[Request, ...]]:
    """Random instance of any request count: `kind` is "line", "square"
    or "uniform"."""
    if n_points < 2:
        raise OutOfDomain("need at least two points")
    if n_points > MAX_POINTS:
        raise ConfigInvalid(f"point count must be <= {MAX_POINTS}, got {n_points}")
    if not 0.0 <= horizon < math.inf:
        raise ConfigInvalid(f"horizon must be finite and >= 0, got {horizon}")
    if request_count < 0:
        raise ConfigInvalid(f"request count must be >= 0, got {request_count}")
    if request_count > MAX_REQUESTS:
        raise ConfigInvalid(
            f"request count must be <= {MAX_REQUESTS}, got {request_count}"
        )
    names = [f"p{i}" for i in range(n_points)]
    if kind == "line":
        coords = np.sort(rng.uniform(0.0, 1.0, n_points))
        dist = np.abs(coords[:, None] - coords[None, :])
    elif kind == "square":
        coords = rng.uniform(0.0, 1.0, (n_points, 2))
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
    elif kind == "uniform":
        dist = np.ones((n_points, n_points)) - np.eye(n_points)
    else:
        raise ConfigInvalid(f"unknown geometry {kind!r}")
    # random coordinates can collide; nudge zero off-diagonal entries apart
    dist[(dist == 0.0) & ~np.eye(n_points, dtype=bool)] = 1e-9
    dist = np.maximum(dist, dist.T)
    space = MetricSpace(names, dist)

    times = _distinct_times(rng.uniform(0.0, horizon, request_count))
    where = rng.integers(0, n_points, request_count)
    arrivals = [(names[int(w)], t) for w, t in zip(where, times)]
    return space, make_requests(space, arrivals)


def gen_two_point(
    delta: float,
    pattern: str,
    spacing: float | None = None,
) -> tuple[MetricSpace, tuple[Request, ...]]:
    """Two points at distance delta with a scripted arrival pattern.

    Patterns: "pair_at_0" (one request per point, at times 0 and 1e-9) and
    "stagger:k" (2k arrivals alternating between the points, `spacing`
    apart, 1.0 if not given).  A spacing given with "pair_at_0" is
    rejected.
    """
    if delta <= 0:
        raise ConfigInvalid(f"distance must be positive, got {delta}")
    if spacing is not None and not math.isfinite(spacing):
        raise ConfigInvalid(f"spacing must be finite, got {spacing}")
    space = MetricSpace(["a", "b"], np.array([[0.0, delta], [delta, 0.0]]))
    if pattern == "pair_at_0":
        if spacing is not None:
            raise ConfigInvalid("spacing applies only to the stagger:k pattern")
        arrivals = [("a", 0.0), ("b", 1e-9)]
    elif pattern.startswith("stagger:"):
        try:
            k = int(pattern.split(":", 1)[1])
        except ValueError:
            raise ConfigInvalid(
                f"stagger pattern needs an integer k, got {pattern!r}"
            ) from None
        if k < 1:
            raise ConfigInvalid("stagger pattern needs k >= 1")
        if 2 * k > MAX_REQUESTS:
            raise ConfigInvalid(
                f"stagger:k makes 2k requests; k must be <= {MAX_REQUESTS // 2}, got {k}"
            )
        step = 1.0 if spacing is None else spacing
        arrivals = [("a" if i % 2 == 0 else "b", i * step) for i in range(2 * k)]
    else:
        raise ConfigInvalid(f"unknown pattern {pattern!r}")
    return space, make_requests(space, arrivals)
