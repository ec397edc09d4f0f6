import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymatch import embedding
from delaymatch.embedding import (
    Hst,
    Hsbt,
    _first_pair,
    binarize,
    build_hsbt,
    frt_embed,
    sample_hsbt,
    separation_alpha,
    tree_metric,
)
from delaymatch.errors import (
    DominationViolation,
    InstanceLoadError,
    InvariantViolation,
    OutOfDomain,
)
from delaymatch.experiment import trial_rng
from delaymatch.instances import gen_random
from delaymatch.metric import MetricSpace, from_coords, stats

from oracles import point_distance


def oracle_leaf_distance(parent, weight, x, y):
    """Independent lca-weight computation from raw parent pointers."""
    if x == y:
        return 0.0
    seen = set()
    v = x
    while v >= 0:
        seen.add(v)
        v = parent[v]
    v = y
    while v not in seen:
        v = parent[v]
    return weight[v]


def grid_space(k):
    pts = [(i, j) for i in range(k) for j in range(k)]
    return from_coords(pts)


def test_separation_alpha_values():
    assert separation_alpha(2) == 2.0
    assert separation_alpha(4) == 1.5
    assert separation_alpha(8) == pytest.approx(1 + 1 / 3)
    assert separation_alpha(9) == pytest.approx(1 + 1 / 4)  # ceil(lg 9) = 4
    with pytest.raises(OutOfDomain):
        separation_alpha(1)


def test_frt_invariants_and_domination():
    space = grid_space(3)
    for seed in range(10):
        h = frt_embed(space, np.random.default_rng(seed))
        assert sorted(h.leaf_point.values()) == sorted(space.points)
        for v in range(len(h)):
            if not h.is_leaf(v):
                assert len(h.children[v]) >= 2
                for c in h.children[v]:
                    if not h.is_leaf(c):
                        # adjacent scales differ by at least a factor of two
                        assert h.weight[v] >= 2 * h.weight[c] - 1e-12
        for i, a in enumerate(space.points):
            for b in space.points[i + 1:]:
                assert point_distance(h, a, b) >= space.distance(a, b) - 1e-9


def test_frt_rejects_single_point():
    space = from_coords([(0, 0)])
    with pytest.raises(OutOfDomain):
        frt_embed(space, np.random.default_rng(0))


def test_binarize_sandwich_against_oracle():
    space = grid_space(3)
    for seed in range(10):
        h = frt_embed(space, np.random.default_rng(seed))
        t = binarize(h)
        assert t.alpha == separation_alpha(space.n)
        assert sorted(t.leaf_point.values()) == sorted(space.points)
        for i, a in enumerate(space.points):
            for b in space.points[i + 1:]:
                dh = oracle_leaf_distance(
                    h.parent, h.weight, h.point_leaf[a], h.point_leaf[b]
                )
                dt = oracle_leaf_distance(
                    t.parent, t.weight, t.point_leaf[a], t.point_leaf[b]
                )
                assert dh * (1 - 1e-12) <= dt <= 2 * dh * (1 + 1e-12)


def test_two_point_tree_weight_window():
    space = from_coords([(0.0,), (7.0,)])
    for seed in range(20):
        t = sample_hsbt(space, np.random.default_rng(seed))
        d = point_distance(t, "p0", "p1")
        assert 7.0 - 1e-9 <= d <= 8 * 7.0 + 1e-9


def test_sample_hsbt_ids_breadth_first():
    space = grid_space(3)
    t = sample_hsbt(space, np.random.default_rng(3))
    depths = [t.depth[v] for v in range(len(t))]
    assert depths == sorted(depths)
    # sorting ids within one depth follows construction, parents precede kids
    for v in range(1, len(t)):
        assert t.parent[v] < v


def test_tree_metric_matches_oracle():
    space = grid_space(3)
    t = sample_hsbt(space, np.random.default_rng(11))
    m = tree_metric(t)
    for a in m.points:
        for b in m.points:
            if a == b:
                continue
            want = oracle_leaf_distance(
                t.parent, t.weight, t.point_leaf[a], t.point_leaf[b]
            )
            assert m.distance(a, b) == pytest.approx(want, rel=1e-12)


def pair_loop_distances(tree, points):
    """Reference leaf-distance matrix: one point_distance LCA walk per pair."""
    return np.array([[point_distance(tree, a, b) for b in points] for a in points])


@pytest.mark.parametrize("n", [2, 9, 64])
def test_leaf_distances_equal_the_pair_loop(n):
    rng = np.random.default_rng(n)
    space = from_coords(rng.uniform(size=(n, 2)))
    h = frt_embed(space, rng)
    t = binarize(h)
    points = [str(p) for p in rng.permutation(space.points)]
    for tree in (h, t):
        got = tree.leaf_distances(points)
        assert np.array_equal(got, pair_loop_distances(tree, points))


def reference_frt_embed(space, rng):
    """The per-cluster FRT loop that `frt_embed` replaced, kept as its oracle.

    A stack of clusters; each pop scans down from the cluster's creation
    level with one argmax and one unique per level until the cluster splits.
    """
    st_ = stats(space)
    scale = st_.d_min
    dist = space.dist / scale
    delta = float(dist.max())
    perm = rng.permutation(space.n)
    beta = 1.0 + float(rng.random())
    top = math.ceil(math.log2(delta)) + 1
    dist_by_rank = dist[perm]
    parent, children, weight, leaf_point = [-1], [[]], [0.0], {}
    stack = [(0, np.arange(space.n), top)]
    while stack:
        v, pts, lev = stack.pop()
        lev -= 1
        while True:
            radius = beta * 2.0 ** (lev - 1)
            owner = np.argmax(dist_by_rank[:, pts] <= radius, axis=0)
            groups = np.unique(owner)
            if len(groups) > 1:
                break
            lev -= 1
        weight[v] = beta * 2.0 ** (lev + 1)
        for g in groups:
            members = pts[owner == g]
            u = len(parent)
            parent.append(v)
            children[v].append(u)
            children.append([])
            weight.append(0.0)
            if len(members) == 1:
                leaf_point[u] = space.points[int(members[0])]
            else:
                stack.append((u, members, lev))
    tree = Hst(parent, [w * scale for w in weight], leaf_point)
    assert tree.children == children  # the derived lists match the built ones
    return tree


def reference_leaf_distances(tree, points):
    """The path-compare `leaf_distances` that the block fill replaced.

    Row a is point a's root-to-leaf path padded with its leaf; the number of
    positions two rows share is their LCA's depth plus one.
    """
    rows = []
    for p in points:
        v = tree.point_leaf[p]
        row = [v] * (tree.height + 1)
        for d in range(tree.depth[v] - 1, -1, -1):
            v = tree.parent[v]
            row[d] = v
        rows.append(row)
    paths = np.array(rows, dtype=np.intp)
    shared = (paths[:, None, :] == paths[None, :, :]).sum(axis=2)
    lca = paths[np.arange(len(rows))[:, None], shared - 1]
    return np.asarray(tree.weight)[lca]


def assert_same_hst(got, want):
    assert got.parent == want.parent
    assert got.children == want.children
    assert got.leaf_point == want.leaf_point
    assert [w.hex() for w in got.weight] == [w.hex() for w in want.weight]


def assert_frt_matches_reference(space, seed):
    got = frt_embed(space, np.random.default_rng(seed))
    want = reference_frt_embed(space, np.random.default_rng(seed))
    assert_same_hst(got, want)
    points = list(np.random.default_rng(seed).permutation(space.points))
    assert np.array_equal(
        got.leaf_distances(points), reference_leaf_distances(want, points)
    )


@pytest.mark.parametrize("n", [*range(2, 17), 64, 256])
@pytest.mark.parametrize("kind", ["line", "square", "uniform"])
def test_frt_embed_equals_the_cluster_loop(kind, n):
    for seed in range(2 if n <= 16 else 1):
        rng = np.random.default_rng([n, seed])
        space, _ = gen_random(kind, n, 0, 1.0, rng)
        assert_frt_matches_reference(space, seed)


def integer_line(n):
    return from_coords(np.arange(n, dtype=float))


@pytest.mark.parametrize("space", [
    grid_space(2), grid_space(3), grid_space(4), grid_space(8),
    integer_line(2), integer_line(5), integer_line(16), integer_line(33),
], ids=["grid2", "grid3", "grid4", "grid8", "line2", "line5", "line16", "line33"])
def test_frt_embed_equals_the_cluster_loop_on_tied_distances(space):
    for seed in range(6):
        assert_frt_matches_reference(space, seed)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=2,
        max_size=20,
        unique=True,
    ),
    st.integers(0, 2**31),
)
def test_frt_embed_equals_the_cluster_loop_hypothesis(points, seed):
    assert_frt_matches_reference(from_coords(np.asarray(points, dtype=float)), seed)


def reference_place_children(entries, alpha, aux_cap):
    """The gadget packer that `binarize` replaced, kept as its oracle.

    entries: list of (child_key, max_depth).  Returns a nested structure of
    ('aux', left, right) / ('child', key) nodes: children placed at their
    depth bound via canonical prefix codes, then single-child auxiliary
    nodes spliced out.
    """
    if len(entries) == 2:
        return ("aux", ("child", entries[0][0]), ("child", entries[1][0]))
    order = sorted(range(len(entries)), key=lambda i: (entries[i][1], i))
    depths = [entries[i][1] for i in order]
    if sum(2.0 ** -d for d in depths) > 1.0 + 1e-12:
        raise InvariantViolation(
            "cannot binarize: child depth constraints overflow the binary tree "
            f"(depths {depths}, alpha {alpha})"
        )
    codes = []
    code = 0
    prev = depths[0]
    for d in depths:
        code <<= d - prev
        codes.append((code, d))
        code += 1
        prev = d

    root = {}
    for (code, d), i in zip(codes, order):
        node = root
        for b in range(d - 1, 0, -1):
            node = node.setdefault((code >> b) & 1, {})
            if not isinstance(node, dict):
                raise InvariantViolation("prefix code collision")
        node[code & 1] = ("child", entries[i][0])

    def collapse(node):
        if not isinstance(node, dict):
            return node
        subs = [collapse(node[b]) for b in sorted(node)]
        if len(subs) == 1:
            return subs[0]
        return ("aux", subs[0], subs[1])

    shape = collapse(root)
    if shape[0] != "aux":
        raise InvariantViolation("gadget collapsed to a single child")

    def check_aux_depth(node, d):
        if node[0] == "child":
            return
        if d > aux_cap:
            raise InvariantViolation("auxiliary vertex placed below its depth cap")
        check_aux_depth(node[1], d + 1)
        check_aux_depth(node[2], d + 1)

    check_aux_depth(shape, 0)
    return shape


def reference_binarize(tree, n):
    """The depth-first gadget build and breadth-first renumbering that
    `binarize` replaced, kept as its oracle (sandwich check left out)."""
    alpha = separation_alpha(n)
    aux_cap = int(math.log(2.0) / math.log(alpha) + 1e-9)
    parent, children, weight, leaf_point = [-1], [[]], [2.0 * tree.weight[0]], {}

    def attach(shape, at):
        stack = [(shape[2], at), (shape[1], at)]
        while stack:
            node, up = stack.pop()
            u = len(parent)
            parent.append(up)
            children[up].append(u)
            children.append([])
            if node[0] == "aux":
                weight.append(weight[up] / alpha)
                stack.append((node[2], u))
                stack.append((node[1], u))
            elif tree.is_leaf(node[1]):
                weight.append(0.0)
                leaf_point[u] = tree.leaf_point[node[1]]
            else:
                weight.append(2.0 * tree.weight[node[1]])
                emit(node[1], u)

    def emit(h_vertex, new_id):
        w_v = tree.weight[h_vertex]
        entries = []
        for c in tree.children[h_vertex]:
            if tree.is_leaf(c):
                entries.append((c, aux_cap + 1))
            else:
                cap = int(math.log(w_v / tree.weight[c]) / math.log(alpha) + 1e-9)
                entries.append((c, max(1, min(cap, aux_cap + 1))))
        attach(reference_place_children(entries, alpha, aux_cap), new_id)

    emit(tree.root, 0)
    order = [0]
    for v in order:
        order.extend(children[v])
    new_id = {old: new for new, old in enumerate(order)}
    tree = Hsbt(
        [new_id[parent[v]] if parent[v] >= 0 else -1 for v in order],
        [weight[v] for v in order],
        {new_id[v]: p for v, p in leaf_point.items()},
        alpha,
    )
    # the derived lists match the built ones
    assert tree.children == [[new_id[c] for c in children[v]] for v in order]
    return tree


def assert_binarize_matches_reference(h, n):
    """Equal trees by `float.hex`, or the same error where the reference raises."""
    try:
        want = reference_binarize(h, n)
    except InvariantViolation as exc:
        with pytest.raises(InvariantViolation) as err:
            binarize(h)
        assert str(err.value) == str(exc)
        return False
    assert_same_hst(binarize(h), want)
    return True


@pytest.mark.parametrize("n", [*range(2, 17), 64, 256])
@pytest.mark.parametrize("kind", ["line", "square", "uniform"])
def test_binarize_equals_the_gadget_build(kind, n):
    for seed in range(3 if n <= 16 else 1):
        rng = np.random.default_rng([n, seed])
        space, _ = gen_random(kind, n, 0, 1.0, rng)
        built = assert_binarize_matches_reference(frt_embed(space, rng), n)
        assert built or (kind == "uniform" and n > 16)


@pytest.mark.parametrize("space", [
    grid_space(2), grid_space(3), grid_space(4), grid_space(8),
    integer_line(2), integer_line(5), integer_line(16), integer_line(33),
], ids=["grid2", "grid3", "grid4", "grid8", "line2", "line5", "line16", "line33"])
def test_binarize_equals_the_gadget_build_on_tied_distances(space):
    for seed in range(6):
        h = frt_embed(space, np.random.default_rng(seed))
        assert assert_binarize_matches_reference(h, space.n)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=2,
        max_size=24,
        unique=True,
    ),
    st.integers(0, 2**31),
)
def test_binarize_equals_the_gadget_build_hypothesis(points, seed):
    space = from_coords(np.asarray(points, dtype=float))
    h = frt_embed(space, np.random.default_rng(seed))
    assert_binarize_matches_reference(h, space.n)


def test_uniform_17_points_overflow_as_in_the_reference():
    # the first tree `run` samples after `gen random --kind uniform --points 17`
    space, _ = gen_random("uniform", 17, 12, 10.0, np.random.default_rng(0))
    h = frt_embed(space, trial_rng(0, 0))
    assert h.children[h.root] == [v for v in range(len(h)) if v != h.root]
    with pytest.raises(InvariantViolation) as want:
        reference_binarize(h, 17)
    assert f"(depths {[4] * 17}, alpha 1.2)" in str(want.value)
    assert not assert_binarize_matches_reference(h, 17)


def test_leaf_distances_on_high_degree_vertices():
    # root with five children, one of them an inner vertex with four leaves
    parent = [-1, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    weight = [8.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    names = {v: f"q{v}" for v in range(2, 10)}
    h = Hst(parent, weight, names)
    points = ["q7", "q2", "q9", "q5", "q6", "q3", "q8", "q4"]
    got = h.leaf_distances(points)
    assert np.array_equal(got, reference_leaf_distances(h, points))
    assert np.array_equal(got, pair_loop_distances(h, points))
    space, _ = gen_random("uniform", 24, 0, 1.0, np.random.default_rng(4))
    uniform = frt_embed(space, np.random.default_rng(4))
    assert len(uniform.children[uniform.root]) == 24
    pts = sorted(uniform.point_leaf)
    assert np.array_equal(
        uniform.leaf_distances(pts), reference_leaf_distances(uniform, pts)
    )


@pytest.mark.parametrize("seed", range(4))
def test_leaf_distances_with_non_monotone_weights(seed):
    rng = np.random.default_rng(seed)
    space = from_coords(rng.uniform(size=(20, 2)))
    h = frt_embed(space, rng)
    t = binarize(h)
    h.leaf_distances(space.points)  # build the layouts before the edits
    t.leaf_distances(space.points)
    for tree in (h, t):
        inner = [v for v in range(len(tree)) if not tree.is_leaf(v)]
        # children outweigh their parents: a block fill that let a parent
        # overwrite a child's block, or a max over ancestors, would show
        for v in inner:
            tree.weight[v] = float(rng.uniform(0.5, 100.0))
        points = list(rng.permutation(space.points))
        got = tree.leaf_distances(points)
        assert np.array_equal(got, reference_leaf_distances(tree, points))
        assert np.array_equal(got, pair_loop_distances(tree, points))


def sandwich_scan(space, h, t):
    """The pair-loop sandwich check: its message for the first bad pair."""
    for i, a in enumerate(space.points):
        for b in space.points[i + 1:]:
            dh = point_distance(h, a, b)
            dt = point_distance(t, a, b)
            if not (dh * (1 - 1e-12) <= dt <= 2 * dh * (1 + 1e-12)):
                return f"binarized distance {dt} for ({a},{b}) outside [{dh}, {2 * dh}]"
    return None


def domination_scan(space, t):
    """The pair-loop domination check: its message for the first bad pair."""
    tol = 1e-12 * float(space.dist.max())
    for i, a in enumerate(space.points):
        for b in space.points[i + 1:]:
            if point_distance(t, a, b) + tol < space.dist[i, space.index[b]]:
                return f"tree distance for ({a},{b}) below metric distance"
    return None


def test_first_pair_scans_the_upper_triangle_row_major():
    bad = np.zeros((6, 6), dtype=bool)
    assert _first_pair(bad) is None
    bad[3, 0] = bad[4, 4] = True  # below and on the diagonal: never a pair
    assert _first_pair(bad) is None
    bad[1, 2] = bad[0, 5] = True  # (0, 5) precedes (1, 2) row by row
    assert _first_pair(bad) == (0, 5)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("factor", [3.0, 1 / 3])
def test_sandwich_check_names_first_corrupted_pair(seed, factor, monkeypatch):
    rng = np.random.default_rng(seed)
    space = from_coords(rng.uniform(size=(12, 2)))
    binarize_real, built = embedding.binarize, []

    def corrupted(h):
        t = binarize_real(h)
        inner = t.internal_vertices()
        t.weight[inner[len(inner) // 2]] *= factor
        built.append((h, t))
        return t

    monkeypatch.setattr(embedding, "binarize", corrupted)
    with pytest.raises(InvariantViolation) as err:
        sample_hsbt(space, rng)
    want = sandwich_scan(space, *built[0])
    assert want is not None
    assert str(err.value) == want


@pytest.mark.parametrize("seed", range(3))
def test_domination_check_names_first_underweighted_pair(seed, monkeypatch):
    # an underweighted H binarizes faithfully, so only domination can fail
    rng = np.random.default_rng(seed)
    space = from_coords(rng.uniform(size=(12, 2)))
    frt_real, built = embedding.frt_embed, []

    def underweighted(space, rng):
        h = frt_real(space, rng)
        h.weight[:] = [w * 1e-3 for w in h.weight]
        built.append(h)
        return h

    monkeypatch.setattr(embedding, "frt_embed", underweighted)
    with pytest.raises(DominationViolation) as err:
        sample_hsbt(space, rng)
    t = binarize(built[0])
    assert sandwich_scan(space, built[0], t) is None
    want = domination_scan(space, t)
    assert want is not None
    assert str(err.value) == want


def sandwich_family(kind, seed):
    """A metric of 14-16 points from one of the families the gadget check
    is held against."""
    rng = np.random.default_rng([31, seed])
    if kind == "square":
        return from_coords(rng.uniform(size=(14, 2)))
    if kind == "multi-scale-line":
        scale = 10.0 ** rng.uniform(-6, 6, (14, 1))
        return from_coords(rng.uniform(size=(14, 1)) * scale)
    if kind == "tight-clusters":
        centres = np.repeat([[0.0, 0.0], [1e3, 0.0], [0.0, 1e3], [1e3, 1e3]], 4, axis=0)
        return from_coords(centres + rng.uniform(-1e-3, 1e-3, (16, 2)))
    if kind == "integer-grid":  # a 4 x 4 grid with a partial last row
        return from_coords([(i, j) for i in range(4) for j in range(4)][:14])
    return gen_random("uniform", 16, 0, 1.0, rng)[0]


@pytest.mark.parametrize(
    "kind", ["square", "multi-scale-line", "tight-clusters", "integer-grid", "uniform"]
)
def test_gadget_check_decides_what_the_pair_scan_decides(kind, monkeypatch):
    binarize_real, edits = embedding.binarize, {"mapped": 0, "auxiliary": 0}
    for seed in range(3):
        space = sandwich_family(kind, seed)
        h = frt_embed(space, np.random.default_rng(seed))
        t = binarize(h)
        for a in space.points:
            for b in space.points:
                x, y = h.point_leaf[a], h.point_leaf[b]
                if x != y:
                    lca_t = t.lca(t.point_leaf[a], t.point_leaf[b])
                    assert t.origin[lca_t] == h.lca(x, y)
        inner = {"mapped": [], "auxiliary": []}
        for g in t.internal_vertices():
            aux = g != t.root and t.origin[g] == t.origin[t.parent[g]]
            inner["auxiliary" if aux else "mapped"].append(g)
        for role, vertices in inner.items():
            if not vertices:
                continue
            g = vertices[len(vertices) // 2]
            w_h, w_t = h.weight[t.origin[g]], t.weight[g]
            # just inside and just outside each end of the band, then far out
            for weight, inside in ((w_h * (1 - 1e-13), True), (w_h * (1 - 1e-11), False),
                                   (2 * w_h * (1 + 1e-13), True),
                                   (2 * w_h * (1 + 1e-11), False),
                                   (w_t * 3, False), (w_t / 3, False)):
                built = []

                def edited(h):
                    t = binarize_real(h)
                    t.weight[g] = weight
                    built.append((h, t))
                    return t

                monkeypatch.setattr(embedding, "binarize", edited)
                try:
                    sample_hsbt(space, np.random.default_rng(seed))
                    raised = None
                except (InvariantViolation, DominationViolation) as exc:
                    raised = exc
                want = sandwich_scan(space, *built[0])
                assert (want is None) == inside
                if want is not None:
                    assert type(raised) is InvariantViolation and str(raised) == want
                else:
                    want = domination_scan(space, built[0][1])
                    assert (None if raised is None else str(raised)) == want
                edits[role] += 1
    assert edits["mapped"] and edits["auxiliary"]


def test_sample_hsbt_fills_each_leaf_distance_matrix_once(monkeypatch):
    filled, real = [], embedding._Tree.leaf_distances

    def counted(tree, points):
        filled.append(type(tree).__name__)
        return real(tree, points)

    monkeypatch.setattr(embedding._Tree, "leaf_distances", counted)
    sample_hsbt(grid_space(3), np.random.default_rng(0))
    assert filled == ["Hsbt"]  # H's matrix is built only when a gadget fails


SAMPLE_1000 = """
import resource
import numpy as np
from delaymatch.embedding import sample_hsbt
from delaymatch.metric import MetricSpace

x = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 1000))
space = MetricSpace([f"p{i}" for i in range(1000)], np.abs(x[:, None] - x[None, :]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sample_hsbt(space, np.random.default_rng(1))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_sample_hsbt_holds_one_leaf_distance_matrix():
    # the metric is one 7.6 MB matrix; a second leaf-distance matrix with its
    # gather and compare temporaries would take the growth past three
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SAMPLE_1000],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    growth_kb = int(out.stdout.strip())  # ru_maxrss is in KB on Linux
    assert growth_kb < 3 * 1000 * 1000 * 8 / 1024


def test_build_hsbt_renumbers_depth_first_input():
    # hand tree entered depth-first: root(0) -> [inner(1) -> leaves(2,3), leaf(4)]
    parent = [-1, 0, 1, 1, 0]
    weight = [4.0, 2.0, 0.0, 0.0, 0.0]
    leaf_points = {2: "a", 3: "b", 4: "c"}
    t = build_hsbt(parent, weight, leaf_points, alpha=2.0)
    assert [t.depth[v] for v in range(len(t))] == sorted(t.depth)
    # distances survive the renumbering
    assert point_distance(t, "a", "b") == 2.0
    assert point_distance(t, "a", "c") == 4.0
    assert point_distance(t, "b", "c") == 4.0


def test_build_hsbt_validates_separation():
    parent = [-1, 0, 0]
    weight = [1.0, 0.0, 0.0]
    with pytest.raises(InvariantViolation):
        build_hsbt(parent, [1.0, 0.9, 0.0], {2: "a"}, alpha=2.0)
    # unary vertex
    with pytest.raises(InvariantViolation):
        build_hsbt([-1, 0], [1.0, 0.0], {1: "a"}, alpha=2.0)
    # fine when well formed
    t = build_hsbt(parent, weight, {1: "a", 2: "b"}, alpha=2.0)
    assert point_distance(t, "a", "b") == 1.0


# a four-leaf tree numbered depth-first (inner vertices 1 and 4) and its
# breadth-first twin (inner vertices 1 and 2)
DEPTH_FIRST = [-1, 0, 1, 1, 0, 4, 4]
BREADTH_FIRST = [-1, 0, 0, 1, 1, 2, 2]


def test_tree_derives_children_and_depth_from_parents():
    weight = [4.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    names = {3: "a", 4: "b", 5: "c", 6: "d"}
    parent = list(BREADTH_FIRST)
    t = Hsbt(parent, weight, names, alpha=2.0)
    assert t.children == [[1, 2], [3, 4], [5, 6], [], [], [], []]
    assert t.depth == [0, 1, 1, 2, 2, 2, 2]
    assert t.height == 2
    assert t.parent is parent and t.weight is weight  # owned, not copied
    h = Hst(list(DEPTH_FIRST), [4.0, 2.0, 0.0, 0.0, 2.0, 0.0, 0.0], {})
    assert h.children == [[1, 4], [2, 3], [], [], [5, 6], [], []]
    assert h.depth == [0, 1, 2, 2, 1, 2, 2]


@pytest.mark.parametrize("parent, vertex", [
    ([-1, 2, 0], 1),       # parent after the vertex
    ([-1, 0, 2], 2),       # its own parent
    ([0, 0, 0], 0),        # a root with a parent
    ([-1, -1, 0], 1),      # a second root
], ids=["later", "self", "rooted-root", "two-roots"])
def test_parent_must_be_an_earlier_id(parent, vertex):
    weight = [2.0, 0.0, 0.0]
    for build in (
        lambda: Hst(list(parent), list(weight), {}),
        lambda: Hsbt(list(parent), list(weight), {1: "a", 2: "b"}, alpha=2.0),
    ):
        with pytest.raises(InvariantViolation, match="not an earlier id") as err:
            build()
        assert str(err.value).startswith(f"vertex {vertex}: parent ")


def test_hsbt_rejects_depth_first_ids():
    weight = [4.0, 2.0, 0.0, 0.0, 2.0, 0.0, 0.0]
    names = {2: "a", 3: "b", 5: "c", 6: "d"}
    with pytest.raises(InvariantViolation, match="not breadth-first") as err:
        Hsbt(list(DEPTH_FIRST), weight, names, alpha=2.0)
    assert str(err.value).startswith("vertex 4: ")
    # build_hsbt renumbers the same tree into its breadth-first twin
    t = build_hsbt(DEPTH_FIRST, weight, names, alpha=2.0)
    assert t.parent == BREADTH_FIRST
    assert t.leaf_point == {3: "a", 4: "b", 5: "c", 6: "d"}


def test_build_hsbt_needs_vertex_0_as_root():
    # 0 and 1 are each other's parents: a walk down from 0 would never end
    with pytest.raises(InvariantViolation, match="vertex 0 has parent 1"):
        build_hsbt([1, 0], [1.0, 0.0], {1: "a"}, alpha=2.0)


def test_depth_first_tree_file_loads_breadth_first(tmp_path):
    weight = [4, 2, 0, 0, 2, 0, 0]  # integer weights load as floats
    names = {2: "a", 3: "b", 5: "c", 6: "d"}
    rows = [{"id": v, "parent": p, "weight": w}
            for v, (p, w) in enumerate(zip(DEPTH_FIRST, weight))]
    for v, name in names.items():
        rows[v]["point"] = name
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"alpha": 2, "vertices": rows[::-1]}))
    t = Hsbt.from_json(str(path))
    assert t.parent == BREADTH_FIRST
    assert t.weight == [4.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    assert all(type(w) is float for w in t.weight)
    assert t.leaf_point == {3: "a", 4: "b", 5: "c", 6: "d"}
    # the object to_dict gives loads unchanged
    path.write_text(json.dumps(t.to_dict()))
    assert Hsbt.from_json(str(path)).parent == BREADTH_FIRST


def test_tree_file_ids_must_be_0_to_n_minus_1(tmp_path):
    rows = [{"id": 0, "parent": -1, "weight": 1.0},
            {"id": 1, "parent": 0, "weight": 0.0, "point": "a"},
            {"id": 3, "parent": 0, "weight": 0.0, "point": "b"}]
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"alpha": 2.0, "vertices": rows}))
    with pytest.raises(InstanceLoadError, match="vertex ids are not 0 .. n-1"):
        Hsbt.from_json(str(path))


def triangle(near, far):
    """Points a, b `near` apart and c `far` from both."""
    return MetricSpace(["a", "b", "c"], [[0, near, far], [near, 0, far], [far, far, 0]])


@pytest.mark.parametrize("near, far", [
    (embedding._MAX_DIAMETER, embedding._MAX_DIAMETER),
    (2.0**-960, embedding._MAX_ASPECT * 2.0**-960),
], ids=["diameter", "aspect-ratio"])
def test_trees_at_the_float_range_bounds_stay_finite(near, far):
    space = triangle(near, far)
    st_ = stats(space)
    assert st_.d_max <= embedding._MAX_DIAMETER
    assert st_.aspect_ratio <= embedding._MAX_ASPECT
    for seed in range(20):
        t = sample_hsbt(space, np.random.default_rng(seed))
        assert all(math.isfinite(w) for w in t.weight)
        # the two-copies penalty root: alpha times the binarized root
        assert math.isfinite(t.alpha * t.weight[t.root])


def test_hsbt_json_round_trip(tmp_path):
    space = grid_space(2)
    t = sample_hsbt(space, np.random.default_rng(5))
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(t.to_dict(), indent=1) + "\n")
    back = Hsbt.from_json(str(path))
    assert back.parent == t.parent
    assert back.weight == t.weight
    assert back.leaf_point == t.leaf_point
    assert back.alpha == t.alpha


def test_subtree_and_lca_helpers():
    parent = [-1, 0, 0, 1, 1]
    weight = [4.0, 2.0, 0.0, 0.0, 0.0]
    t = build_hsbt(parent, weight, {2: "c", 3: "a", 4: "b"}, alpha=2.0)
    la, lb, lc = t.point_leaf["a"], t.point_leaf["b"], t.point_leaf["c"]
    assert t.lca(la, lb) != t.root
    assert t.lca(la, lc) == t.root
    inner = t.lca(la, lb)
    assert set(t.subtree(inner)) == {inner, la, lb}
    assert t.ancestors(la) == [inner, t.root]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
        min_size=2,
        max_size=9,
        unique=True,
    ),
    st.integers(0, 2**31),
)
def test_random_spaces_embed_cleanly(points, seed):
    space = from_coords(np.asarray(points, dtype=float))
    t = sample_hsbt(space, np.random.default_rng(seed))
    # constructor revalidates binarity and separation; recheck domination
    for i, a in enumerate(space.points):
        for b in space.points[i + 1:]:
            assert point_distance(t, a, b) >= space.distance(a, b) - 1e-9
    assert math.isclose(t.alpha, separation_alpha(space.n))
