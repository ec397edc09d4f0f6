"""Reference implementations that only the tests call.

Each recomputes from scratch something the library keeps incrementally or
builds another way, so the tests can hold the library's result against it:

* `recompute_state`         -- the engine's stilt state, from the active leaves
* `build_doubled`           -- the penalty reduction's doubled instance, with
                               its regime and aspect-ratio checks
* `clear_fraction`          -- Monte-Carlo share of requests `run_mpmdfp` clears
* `tree_distance`,
  `point_distance`          -- one LCA walk per pair of leaves or points
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from delaymatch.core import Request
from delaymatch.embedding import Hsbt
from delaymatch.errors import InvariantViolation, RegimeMismatch
from delaymatch.metric import MetricSpace, stats
from delaymatch.penalty import (
    REGIME_DOUBLED,
    _doubled_parts,
    classify_regime,
    run_mpmdfp,
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


def tree_distance(tree, x: int, y: int) -> float:
    """Distance of vertices x and y: the weight of their LCA (0 if equal)."""
    if x == y:
        return 0.0
    return tree.weight[tree.lca(x, y)]


def point_distance(tree, a: str, b: str) -> float:
    return tree_distance(tree, tree.point_leaf[a], tree.point_leaf[b])
