"""Random embeddings of finite metrics into weighted binary trees.

A tree is its parent array, every parent an earlier id; the one tree
constructor derives `children` and `depth` from it.  `Hsbt` ids are
breadth-first and checked, as the engine breaks timer ties by vertex id;
tree files load through `build_hsbt`, which renumbers any tree rooted at 0.

Two stages:

1. `frt_embed` draws a random hierarchical ball decomposition (uniform point
   permutation + one radius scale drawn uniformly from [1,2)) and returns a
   rooted tree whose leaf set is the point set.  Tree distance is the weight
   of the least common ancestor.  The construction guarantees, with
   probability 1, that tree distance dominates the input metric, that parent
   weights are at least twice child weights, and that the height is
   logarithmic in the aspect ratio; the expected stretch of any pair is
   logarithmic in n.  It computes every point's ball owner at every level
   as one levels x n table, sorts the points by it once, and reads the tree
   off the sorted order in O(n) Python steps: O(n^2 * levels) array work and
   O(n * levels + n^2) memory.  A metric whose diameter or aspect ratio
   would drive a weight past the float range is rejected as `OutOfDomain`.

2. `binarize` turns that tree into a full binary tree while keeping leaf
   ancestry.  Mapped vertices carry twice their original weight; auxiliary
   vertices introduced to break up high-degree vertices decay geometrically
   by the separation factor alpha = 1 + 1/ceil(log2 n).  A child whose
   weight ratio to its parent is rho may sit at depth at most log_alpha(rho)
   inside its parent's gadget, and no auxiliary vertex may sit deeper than
   log_alpha(2), so that every leaf-pair distance stays within [1,2] times
   its pre-binarization value.  The children, sorted by that depth bound,
   get canonical prefix codes; the gadget is the code trie with its
   single-child vertices spliced out, read off the codes' slot runs
   directly.  One breadth-first pass emits the tree, building each gadget
   as its vertex comes up, so ids come out in (depth, insertion) order with
   no renumbering.  A Kraft-sum argument shows a placement always exists
   for n <= 16; a vertex with too many children for the cap (a uniform
   metric on 17 points, say) raises an internal error.

`sample_hsbt` composes the two and is the one place a sampled tree is
checked.  It checks d_H <= d_T <= 2*d_H gadget vertex by gadget vertex, from
the origins `binarize` records, and then that T dominates the metric on T's
one leaf-distance matrix in the metric's point order (`undominated_pair`,
shared with trees from elsewhere).  Failures are bug sentinels, not bad
input, naming the first bad pair; only a failing gadget builds H's matrix to
find it.  `leaf_distances` lays the leaves out in preorder and fills each
internal vertex's square block of the distance matrix with its weight,
parents first: one slice assignment per internal vertex and an O(n^2) gather
per call.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from bisect import bisect_left
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import (
    DominationViolation,
    InstanceLoadError,
    InvariantViolation,
    OutOfDomain,
)
from .metric import MetricSpace, stats

__all__ = [
    "Hst",
    "Hsbt",
    "separation_alpha",
    "frt_embed",
    "binarize",
    "sample_hsbt",
    "tree_metric",
    "undominated_pair",
    "build_hsbt",
]


def separation_alpha(n: int) -> float:
    """Weight-separation factor used for binarized trees over n points."""
    if n < 2:
        raise OutOfDomain("need at least two points")
    return 1.0 + 1.0 / math.ceil(math.log2(n))


class _Tree:
    """A rooted weighted tree: its parent array, root 0 with parent -1 and
    every other parent an earlier id.  One pass derives `children` (ascending
    ids) and `depth`; the constructor owns its arguments and copies none."""

    def __init__(self, parent, weight, leaf_point):
        children: list[list[int]] = [[] for _ in parent]
        depth = [0] * len(parent)
        for v, p in enumerate(parent):
            if not (0 <= p < v if v else p == -1):
                raise InvariantViolation(f"vertex {v}: parent {p} is not an earlier id")
            if v:
                children[p].append(v)
                depth[v] = depth[p] + 1
        self.parent, self.weight, self.leaf_point = parent, weight, leaf_point
        self.children, self.depth, self.height = children, depth, max(depth)
        self.point_leaf = {p: v for v, p in leaf_point.items()}

    def __len__(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return 0

    def is_leaf(self, v: int) -> bool:
        return not self.children[v]

    def ancestors(self, v: int) -> list[int]:
        """Proper ancestors of v, nearest first."""
        out = []
        while self.parent[v] >= 0:
            v = self.parent[v]
            out.append(v)
        return out

    def lca(self, x: int, y: int) -> int:
        dx, dy = self.depth[x], self.depth[y]
        while dx > dy:
            x = self.parent[x]
            dx -= 1
        while dy > dx:
            y = self.parent[y]
            dy -= 1
        while x != y:
            x = self.parent[x]
            y = self.parent[y]
        return x

    @functools.cached_property
    def _leaf_blocks(self) -> tuple[list[tuple[int, slice]], dict[int, int]]:
        """Preorder leaf layout: (vertex, leaf range) per internal vertex,
        parents first, and each leaf's position in that order."""
        children = self.children
        blocks: list = []
        position: dict[int, int] = {}
        stack = [self.root]
        while stack:
            v = stack.pop()
            if v < 0:  # ~k: the subtree of block k is complete
                lo, u = blocks[~v]
                blocks[~v] = (u, slice(lo, len(position)))
            elif children[v]:
                stack.append(~len(blocks))
                blocks.append((len(position), v))
                stack.extend(children[v][::-1])
            else:
                position[v] = len(position)
        return blocks, position

    def leaf_distances(self, points: Sequence[str]) -> np.ndarray:
        """Tree distance (the weight of the LCA) over every pair of `points`, as
        a matrix in that order.

        With the leaves laid out in preorder, every subtree's leaves form one
        contiguous range, so the leaf pairs whose LCA is v, or lies below v,
        fill the square block of v's range.  Filling each internal vertex's
        block with its weight, parents first, leaves every off-diagonal entry
        holding the weight of its LCA, for any weights; the diagonal is then
        zeroed and the rows and columns gathered in the requested order.
        That is one slice assignment per internal vertex plus an O(n^2)
        gather.  The layout depends on the shape alone and is built once per
        tree; the weights are read on every call.
        """
        blocks, position = self._leaf_blocks
        weight = self.weight
        n = len(position)
        full = np.empty((n, n))
        for v, span in blocks:
            full[span, span] = weight[v]
        full.flat[:: n + 1] = 0.0
        at = np.array([position[self.point_leaf[p]] for p in points], dtype=np.intp)
        return full.take(at, axis=0).take(at, axis=1)

    def subtree(self, v: int) -> list[int]:
        out = [v]
        i = 0
        while i < len(out):
            out.extend(self.children[out[i]])
            i += 1
        return out


class Hst(_Tree):
    """Rooted weighted tree from the ball decomposition (arbitrary degree).

    Internal vertices have at least two children; leaf weights are zero and
    leaves correspond one-to-one with metric points.
    """

    def __init__(self, parent, weight, leaf_point):
        super().__init__(parent, weight, leaf_point)
        for v, kids in enumerate(self.children):
            if len(kids) == 1:
                raise InvariantViolation(f"unary internal vertex {v} in Hst")


class Hsbt(_Tree):
    """Full binary tree with geometric weight separation.

    Vertex ids are breadth-first, checked by `validate`: no vertex's parent
    precedes its predecessor's, so ids are sorted by depth and sorting ids
    is the canonical deterministic event order.  Leaves carry weight 0;
    every non-root vertex satisfies w(parent) >= alpha * w(v).  A tree from
    `binarize` keeps each vertex's `origin`, the input-tree vertex whose
    gadget holds it; other trees have none.
    """

    def __init__(self, parent, weight, leaf_point, alpha: float, origin=None):
        super().__init__(parent, weight, leaf_point)
        self.alpha = float(alpha)
        self.origin: list[int] | None = origin
        self.validate()

    def internal_vertices(self) -> list[int]:
        return [v for v in range(len(self.parent)) if not self.is_leaf(v)]

    def validate(self) -> None:
        if len(self.point_leaf) != len(self.leaf_point):
            raise InvariantViolation("duplicate leaf point names")
        if not math.isfinite(self.alpha):
            raise InvariantViolation(f"separation factor {self.alpha} is not finite")
        for v, kids in enumerate(self.children):
            if len(kids) not in (0, 2):
                raise InvariantViolation(f"vertex {v} has {len(kids)} children")
            if not kids:
                if self.weight[v] != 0.0:
                    raise InvariantViolation(f"leaf {v} has weight {self.weight[v]}")
                if v not in self.leaf_point:
                    raise InvariantViolation(f"leaf {v} has no point label")
            else:
                if not 0.0 < self.weight[v] < math.inf:
                    raise InvariantViolation(
                        f"internal vertex {v} has weight {self.weight[v]}"
                    )
                if v in self.leaf_point:
                    raise InvariantViolation(f"internal vertex {v} labeled as point")
            p = self.parent[v]
            if p >= 0 and self.weight[p] < self.alpha * self.weight[v] * (1 - 1e-12):
                raise InvariantViolation(
                    f"separation violated at {v}: w(parent)={self.weight[p]} < "
                    f"alpha*w(v)={self.alpha * self.weight[v]}"
                )
            if v > 1 and p < self.parent[v - 1]:
                raise InvariantViolation(f"vertex {v}: ids are not breadth-first")

    def to_dict(self) -> dict:
        """The object of a tree file, which `from_json` reads."""
        rows = []
        for v in range(len(self.parent)):
            row = {"id": v, "parent": self.parent[v], "weight": self.weight[v]}
            if v in self.leaf_point:
                row["point"] = self.leaf_point[v]
            rows.append(row)
        return {"alpha": self.alpha, "vertices": rows}

    @classmethod
    def from_json(cls, path: str) -> "Hsbt":
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InstanceLoadError(f"cannot read tree {path}: {exc}") from exc
        try:
            rows = sorted(obj["vertices"], key=lambda r: r["id"])
            if [r["id"] for r in rows] != list(range(len(rows))):
                raise ValueError("vertex ids are not 0 .. n-1")
            return build_hsbt(
                [r["parent"] for r in rows],
                [r["weight"] for r in rows],
                {r["id"]: r["point"] for r in rows if "point" in r},
                obj["alpha"],
            )
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InstanceLoadError(f"malformed tree {path}: {exc!r}") from exc
        except InvariantViolation as exc:
            raise InstanceLoadError(f"invalid tree {path}: {exc}") from exc


def tree_metric(tree: _Tree) -> MetricSpace:
    """The tree's leaf points as a metric space under tree distance."""
    points = sorted(tree.point_leaf)
    return MetricSpace(points, tree.leaf_distances(points))


def _first_pair(bad: np.ndarray) -> tuple[int, int] | None:
    """First (i, j) with i < j and bad[i, j], in row-major order."""
    if not bad.any():
        return None
    hits = np.argwhere(np.triu(bad, 1))
    return (int(hits[0, 0]), int(hits[0, 1])) if len(hits) else None


def undominated_pair(space: MetricSpace, tree_dist: np.ndarray) -> tuple[int, int] | None:
    """First pair (i, j), i < j in `space`'s point order, whose tree distance
    falls short of its metric distance by more than 1e-12 of the diameter.

    `tree_dist` is a tree's leaf-distance matrix in `space`'s point order,
    as `tree.leaf_distances(space.points)` gives it.
    """
    tol = 1e-12 * float(space.dist.max())
    return _first_pair(tree_dist + tol < space.dist)


# ---------------------------------------------------------------------------
# Stage 1: random hierarchical decomposition
# ---------------------------------------------------------------------------

# The float range: a cluster splitting at level lev < top = ceil(lg delta)+1
# weighs beta * 2^(lev+1) * d_min with beta < 2, below 8 * delta before the
# rescaling by d_min and 8 * d_max after it.  `binarize` doubles weights and
# the two-copies penalty root is alpha <= 2 times a binarized root, so every
# tree built stays finite if 8 * delta and 32 * d_max do; the bounds keep a
# further factor of two for round-off.
_MAX_DIAMETER = sys.float_info.max / 64
_MAX_ASPECT = sys.float_info.max / 16


def frt_embed(space: MetricSpace, rng: np.random.Generator) -> Hst:
    """Sample a dominating tree for `space` (weights in original units).

    The space needs at least two points, and a diameter and aspect ratio
    whose tree weights stay finite (else `OutOfDomain`).  Distances are
    scaled so the closest pair is 1 apart.  At level lev the
    balls have radius beta * 2^(lev-1), and a point's owner is the first
    permutation rank whose ball covers it; `owner[lev, j]` holds it for
    every level 0 .. top-1 at once, one n x n comparison per level.  At
    level 0 the radius is below 1, so every point owns itself.  A cluster
    is the set of points that share their owners at every level above its
    split level, and it splits into children by owner at that level.
    Sorting the points by their owner rows, coarsest level first, therefore
    lists the tree's leaves in order with every cluster contiguous, and two
    adjacent points first differ at their LCA's split level.  One stack pass
    over those n-1 levels builds the tree, and one LIFO walk numbers its
    vertices: a vertex's children get consecutive ids, and child clusters
    are expanded last one first.  Cost: O(n^2 * levels) array work, O(n)
    Python steps, and O(n * levels) memory for the table besides the n x n
    scaled distances and one n x n temporary.
    """
    if space.n < 2:
        raise OutOfDomain("embedding needs at least two points")
    st = stats(space)
    for what, value, limit in (("diameter", st.d_max, _MAX_DIAMETER),
                               ("aspect ratio", st.aspect_ratio, _MAX_ASPECT)):
        if value > limit:
            raise OutOfDomain(f"{what} {value:.6g} exceeds {limit:.6g}, the "
                              "largest whose embedded tree weights stay finite")
    scale = st.d_min
    dist = space.dist / scale
    delta = float(dist.max())

    perm = rng.permutation(space.n)
    beta = 1.0 + float(rng.random())
    top = math.ceil(math.log2(delta)) + 1  # beta * 2^(top-1) >= delta

    dist_by_rank = dist[perm]  # row r = distances from the rank-r point
    owner = np.empty((top, space.n), dtype=np.intp)
    for lev in range(top):  # first permutation rank covering each point
        np.argmax(dist_by_rank <= beta * 2.0 ** (lev - 1), axis=0, out=owner[lev])
    order = np.lexsort(owner)  # the last row, the coarsest level, is primary
    ranked = owner[:, order]
    differs = ranked[:, 1:] != ranked[:, :-1]
    split = (top - 1 - np.argmax(differs[::-1], axis=0)).tolist()

    # clusters as (split level, children); a child is a cluster index or
    # ~point for a single point
    levels: list[int] = []
    kids: list[list[int]] = []
    spine: list[int] = []  # open clusters on the right edge, split levels falling
    points = order.tolist()
    done = ~points[0]  # the finished subtree just left of the next split
    for i, lev in enumerate(split):
        while spine and levels[spine[-1]] < lev:
            kids[spine[-1]].append(done)
            done = spine.pop()
        if spine and levels[spine[-1]] == lev:
            kids[spine[-1]].append(done)
        else:
            levels.append(lev)
            kids.append([done])
            spine.append(len(kids) - 1)
        done = ~points[i + 1]
    while spine:
        kids[spine[-1]].append(done)
        done = spine.pop()
    root = done
    # a cluster is weighted by its split scale: one level up it sat in a
    # single ball of radius beta*2^lev, so beta*2^(lev+1) bounds every
    # cross-child distance; weighting by the split scale (not the creation
    # scale) is what keeps the expected stretch logarithmic when a near-pair
    # rides a compressed path many levels down
    parent: list[int] = [-1]
    weight: list[float] = [beta * 2.0 ** (levels[root] + 1)]
    leaf_point: dict[int, str] = {}
    stack = [(0, root)]
    while stack:
        v, cluster = stack.pop()
        for c in kids[cluster]:  # ascending owner rank at the split level
            u = len(parent)
            parent.append(v)
            if c < 0:
                weight.append(0.0)
                leaf_point[u] = space.points[~c]
            else:
                weight.append(beta * 2.0 ** (levels[c] + 1))
                stack.append((u, c))

    weight = [w * scale for w in weight]
    return Hst(parent, weight, leaf_point)


# ---------------------------------------------------------------------------
# Stage 2: binarization
# ---------------------------------------------------------------------------

def _gadget(depths: list[int], order: list[int]) -> tuple:
    """The two children of a mapped vertex that has more than two.

    `order` lists the children left to right and `depths` their depth
    bounds, non-decreasing, with Kraft sum at most 1.  Canonical prefix
    codes at those depths pack the children left to right, each into a slot
    of 2^(deepest - depth) units, so every subtree of the code trie is a run
    of slots from an aligned start.  Splicing the trie's single-child
    vertices out leaves a binary vertex exactly where a run outgrows half of
    the smallest power of two that holds it, and that half boundary falls
    between two slots.  An auxiliary vertex is returned as the pair of its
    children.
    """
    deepest = depths[-1]
    ends = list(accumulate([1 << (deepest - d) for d in depths]))

    def split(lo: int, hi: int, start: int) -> tuple:
        half = 1 << (ends[hi - 1] - start - 1).bit_length() - 1
        mid = bisect_left(ends, start + half, lo, hi) + 1
        return (
            order[lo] if mid - lo == 1 else split(lo, mid, start),
            order[mid] if hi - mid == 1 else split(mid, hi, start + half),
        )

    return split(0, len(order), 0)


def binarize(tree: Hst) -> Hsbt:
    """Full binary `tree`, separation alpha = 1+1/ceil(lg n) for its n leaves.

    Mapped vertices carry doubled weights; auxiliary vertices decay from
    their parent by the factor alpha, so leaf-pair distances land in
    [d_H, 2*d_H] where d_H is the distance in the input tree.  Each output
    vertex records its `origin`: a mapped vertex the input vertex itself, an
    auxiliary vertex its parent's origin.  Only `Hsbt.validate` runs here;
    `sample_hsbt` checks the sandwich from those origins.

    A vertex with more than two children gets a `_gadget` that puts each
    child at depth at most its bound: the depth at which alpha-decay still
    keeps the gadget above the child's own weight, capped one past the
    deepest auxiliary depth `aux_cap` (a leaf sits exactly there).  Every
    auxiliary vertex sits above some child, so none is deeper than
    `aux_cap`.  Vertices are emitted breadth-first, each one's children
    left to right, so the ids come out in (depth, insertion) order; if
    several vertices' bounds overflow the Kraft sum, the first one emitted
    is reported.
    """
    alpha = separation_alpha(len(tree.leaf_point))
    log_alpha = math.log(alpha)
    aux_cap = int(math.log(2.0) / log_alpha + 1e-9)  # max aux depth in a gadget
    h_kids, h_weight, labels = tree.children, tree.weight, tree.leaf_point
    parent = [-1]
    weight = [2.0 * h_weight[tree.root]]
    origin = [tree.root]
    leaf_point: dict[int, str] = {}
    queue: list = [tree.root]  # input vertex ids, and auxiliary vertices as pairs
    for u, node in enumerate(queue):
        if isinstance(node, tuple):
            pair = node
        else:
            pair = h_kids[node]
            if not pair:
                leaf_point[u] = labels[node]
                continue
            if len(pair) > 2:
                bounds = []
                for c in pair:
                    if h_kids[c]:
                        ratio = h_weight[node] / h_weight[c]
                        depth = int(math.log(ratio) / log_alpha + 1e-9)
                        bounds.append(max(1, min(depth, aux_cap + 1)))
                    else:
                        bounds.append(aux_cap + 1)
                ranks = sorted(range(len(pair)), key=bounds.__getitem__)  # stable
                depths = [bounds[i] for i in ranks]
                if sum([2.0 ** -d for d in depths]) > 1.0 + 1e-12:
                    raise InvariantViolation(
                        "cannot binarize: child depth constraints overflow the binary "
                        f"tree (depths {depths}, alpha {alpha})"
                    )
                pair = _gadget(depths, [pair[i] for i in ranks])
        queue += pair
        parent += (u, u)
        for c in pair:
            if isinstance(c, tuple):
                weight.append(weight[u] / alpha)
                origin.append(origin[u])
            else:
                weight.append(2.0 * h_weight[c] if h_kids[c] else 0.0)
                origin.append(c)
    return Hsbt(parent, weight, leaf_point, alpha, origin)


def sample_hsbt(space: MetricSpace, rng: np.random.Generator) -> Hsbt:
    """Sample a dominating binary tree for `space` (embed + binarize), and
    check it: d_H <= d_T <= 2*d_H up to round-off (else `InvariantViolation`),
    then domination (else `DominationViolation`) on T's leaf-distance matrix
    in `space`'s point order.

    The sandwich is checked gadget by gadget, in O(|T|): every internal
    vertex g of T needs w_H(origin[g]) <= w_T(g) <= 2*w_H(origin[g]), under
    the pair scan's float expression.  That decides exactly what the scan
    over every leaf pair decides.  T is a full binary tree, so every
    internal g is the LCA of some leaf pair (a leaf from each child
    subtree).  The leaves under g's two children lie under different
    H children of origin[g], as a gadget only regroups its vertex's
    children, so origin[lca_T] = lca_H for every pair.  The (d_H, d_T)
    values the pair scan tests are therefore exactly the (w_H(origin[g]),
    w_T(g)) values.  Only when a gadget fails are H's matrix and the pair
    scan built, to name the first bad pair in `space`'s point order.
    """
    h = frt_embed(space, rng)
    t = binarize(h)
    dt_all = t.leaf_distances(space.points)
    h_weight, t_weight, t_kids = h.weight, t.weight, t.children
    if not all(
        h_weight[o] * (1 - 1e-12) <= t_weight[g] <= 2 * h_weight[o] * (1 + 1e-12)
        for g, o in enumerate(t.origin) if t_kids[g]
    ):
        dh_all = h.leaf_distances(space.points)
        inside = (dh_all * (1 - 1e-12) <= dt_all) & (dt_all <= 2 * dh_all * (1 + 1e-12))
        i, j = _first_pair(~inside)  # the failing gadget vertex is some pair's LCA
        dh, dt = float(dh_all[i, j]), float(dt_all[i, j])
        a, b = space.points[i], space.points[j]
        raise InvariantViolation(
            f"binarized distance {dt} for ({a},{b}) outside [{dh}, {2 * dh}]"
        )
    pair = undominated_pair(space, dt_all)
    if pair is not None:
        a, b = (space.points[k] for k in pair)
        raise DominationViolation(f"tree distance for ({a},{b}) below metric distance")
    return t


def build_hsbt(
    parent: Sequence[int],
    weight: Sequence[float],
    leaf_points: dict[int, str],
    alpha: float,
) -> Hsbt:
    """Construct a validated Hsbt from explicit parent pointers.

    The loader for prescribed trees (adversarial instances, tree files,
    tests).  Vertex 0 must be the root; ids are renumbered breadth-first,
    children in id order (breadth-first ids stay), and weights made floats.
    """
    if parent[0] != -1:
        raise InvariantViolation(f"vertex 0 has parent {parent[0]}, not -1")
    children: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    order = [0]
    for v in order:
        order.extend(children[v])
    if len(order) != len(parent):
        raise InvariantViolation(
            f"{len(parent) - len(order)} vertices are not below vertex 0"
        )
    new_id = {v: u for u, v in enumerate(order)}
    return Hsbt(
        [new_id.get(parent[v], -1) for v in order],
        [float(weight[v]) for v in order],
        {new_id[v]: p for v, p in leaf_points.items()},
        alpha,
    )
