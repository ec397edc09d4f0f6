import numpy as np
import pytest

from delaymatch.core import total_cost
from delaymatch.errors import ConfigInvalid, OddRequestSet, OutOfDomain
from delaymatch.instances import (
    GammaConfig,
    gen_adversarial_gamma,
    gen_random,
    gen_two_point,
)
from delaymatch.offline import greedy_mpmd, optimal_mpmd
from delaymatch.stiltwalker import TimerMode, run


def test_gamma_config_validation():
    with pytest.raises(ConfigInvalid):
        GammaConfig(n=6).resolved()
    with pytest.raises(ConfigInvalid):
        GammaConfig(n=12).resolved()
    with pytest.raises(ConfigInvalid):
        GammaConfig(n=8, epsilon=0.2).resolved()  # must stay below 1/n
    with pytest.raises(ConfigInvalid):
        GammaConfig(n=8, jitter=1.0).resolved()
    n, eps, eta, depth = GammaConfig(n=16).resolved()
    assert (n, depth) == (16, 1)
    assert 0 < eta <= eps / (8 * n) < eps < 1 / n


def test_gamma_tree_shape_and_weights():
    inst = gen_adversarial_gamma(GammaConfig(n=8))
    tree = inst.tree
    lg = 3
    alpha = 1 + 1 / lg
    assert len(tree) == 2 * 8 - 1
    assert tree.alpha == pytest.approx(alpha)
    for v in range(len(tree)):
        if tree.is_leaf(v):
            assert tree.depth[v] == lg
            assert tree.weight[v] == 0.0
        else:
            assert tree.weight[v] == pytest.approx(alpha ** (lg - 1 - tree.depth[v]))


@pytest.mark.parametrize(
    "n,apps,n_requests", [(8, 1, 10), (16, 3, 26), (32, 7, 58)]
)
def test_gamma_request_and_application_counts(n, apps, n_requests):
    inst = gen_adversarial_gamma(GammaConfig(n=n))
    assert len(inst.applications) == apps
    assert len(inst.requests) == n_requests
    assert len(inst.end_actives) == n // 2
    times = [r.t for r in inst.requests]
    assert times == sorted(times)
    assert len(set(times)) == len(times)
    assert min(times) >= 0.0


def test_gamma_opening_application_layout():
    inst = gen_adversarial_gamma(GammaConfig(n=8))
    tree = inst.tree
    app = inst.applications[0]
    alpha = tree.alpha
    assert app.vertex == tree.root
    assert app.depth == 0
    assert app.start_effective == 0.0
    assert app.expiry == pytest.approx(alpha**2)  # the root weight, unconsumed
    assert app.mid_time == pytest.approx(app.expiry - inst.epsilon)
    assert app.post_time == pytest.approx(app.expiry + inst.epsilon)
    assert len(set(app.sites)) == 6
    assert app.expiry_feet == (app.sites[2], app.sites[3])
    assert app.cancel_sites == (app.sites[1], app.sites[4])
    (v2, left1, right1), (v4, left2, right2) = app.handoff
    assert {v2, v4} == set(tree.children[tree.root])
    assert (left1, right1) == (app.sites[0], app.sites[2])
    assert (left2, right2) == (app.sites[3], app.sites[5])


def _group_events(result):
    by_kind: dict[str, list] = {"arrival": [], "same_leaf": [], "match": [], "flush": []}
    for e in result.trace.events:
        by_kind[e.kind].append(e)
    return by_kind


@pytest.mark.parametrize("n", [8, 16])
def test_gamma_deterministic_replay_hits_the_script(n):
    inst = gen_adversarial_gamma(GammaConfig(n=n))
    tree = inst.tree
    result = run(tree, inst.requests, mode=TimerMode.DETERMINISTIC, flush=True)
    by_kind = _group_events(result)
    point_of_req = {r.id: r.point for r in inst.requests}

    # exactly one timer match per application, at its vertex, on its feet,
    # within a hair of the nominal expiry
    assert len(by_kind["match"]) == len(inst.applications)
    matches = {e.vertex: e for e in by_kind["match"]}
    for app in inst.applications:
        ev = matches[app.vertex]
        assert abs(ev.t - app.expiry) <= inst.epsilon / 2
        feet = {point_of_req[r] for r in ev.requests}
        assert feet == set(app.expiry_feet)

    # each application cancels its two outer burst sites just after expiry
    assert len(by_kind["same_leaf"]) == 2 * len(inst.applications)
    cancelled = {point_of_req[e.requests[0]] for e in by_kind["same_leaf"]}
    want_cancelled = {s for app in inst.applications for s in app.cancel_sites}
    assert cancelled == want_cancelled

    # the final flush pairs exactly the advertised leftover actives
    flushed_pts = sorted(
        point_of_req[r] for e in by_kind["flush"] for r in e.requests
    )
    assert flushed_pts == sorted(inst.end_actives)
    # each ply of leftover actives sits under a depth-(limit+1) vertex
    lg = n.bit_length() - 1
    depth_limit = lg - 3
    want_c_end = (n / 4) * tree.alpha ** (lg - 2 - depth_limit)
    assert result.trace.c_end_space == pytest.approx(want_c_end)


def test_gamma_deterministic_ratio_already_high_at_8():
    inst = gen_adversarial_gamma(GammaConfig(n=8))
    result = run(inst.tree, inst.requests, mode=TimerMode.DETERMINISTIC, flush=True)
    online = total_cost(inst.space, inst.requests, result.schedule).total
    opt = optimal_mpmd(inst.space, inst.requests).cost.total
    assert online / opt >= 3.0


def test_gamma_offline_stays_cheap():
    inst = gen_adversarial_gamma(GammaConfig(n=16))
    # pairing bursts locally and the opening/leftover requests along the
    # script keeps the optimum near the burst scale, far below the online
    # cascade total; the greedy bound is enough to see that
    g = greedy_mpmd(inst.space, inst.requests)
    result = run(inst.tree, inst.requests, mode=TimerMode.DETERMINISTIC, flush=True)
    online = total_cost(inst.space, inst.requests, result.schedule).total
    assert online > 2.5 * g.cost.total


def test_gen_random_kinds():
    rng = np.random.default_rng(0)
    for kind in ("line", "square", "uniform"):
        space, reqs = gen_random(kind, 6, 10, horizon=3.0, rng=rng)
        assert space.n == 6
        assert len(reqs) == 10
        assert all(0.0 <= r.t for r in reqs)
        assert all(r.point in space.index for r in reqs)


def test_gen_random_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(OddRequestSet):
        gen_random("line", 4, 7, horizon=1.0, rng=rng)
    space, reqs = gen_random("line", 4, 7, horizon=1.0, rng=rng, require_even=False)
    assert len(reqs) == 7
    with pytest.raises(OutOfDomain):
        gen_random("line", 1, 4, horizon=1.0, rng=rng)
    with pytest.raises(ConfigInvalid):
        gen_random("hexagon", 4, 4, horizon=1.0, rng=rng)


class _GridRng:
    """The first draw, the coordinates, lands on a grid of three values per
    axis, so points collide; every later draw passes through."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.coords = None

    def uniform(self, low, high, size):
        if self.coords is None:
            self.coords = self._rng.integers(0, 3, size) / 2.0
            return self.coords
        return self._rng.uniform(low, high, size)

    def integers(self, low, high, size):
        return self._rng.integers(low, high, size)


def _nudged_reference(kind, coords):
    """gen_random's distance matrix with the zero-distance nudge as a loop."""
    if kind == "line":
        coords = np.sort(coords)
        dist = np.abs(coords[:, None] - coords[None, :])
    else:
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
    n = len(dist)
    for i in range(n):
        for j in range(n):
            if i != j and dist[i, j] == 0.0:
                dist[i, j] = 1e-9
    return np.maximum(dist, dist.T)


@pytest.mark.parametrize("kind", ["line", "square"])
@pytest.mark.parametrize("seed", range(3))
def test_gen_random_nudges_colliding_points_apart(kind, seed):
    rng = _GridRng(seed)
    space, reqs = gen_random(kind, 10, 8, horizon=2.0, rng=rng)
    want = _nudged_reference(kind, rng.coords)
    assert space.dist.tobytes() == want.tobytes()
    assert np.count_nonzero(space.dist == 1e-9) > 0  # the grid forced collisions
    assert len(reqs) == 8


def test_gen_two_point_patterns():
    space, reqs = gen_two_point(3.0, "pair_at_0")
    assert space.distance("a", "b") == 3.0
    assert len(reqs) == 2
    assert reqs[0].t == 0.0 and reqs[1].t <= 1e-8

    space, reqs = gen_two_point(1.0, "stagger:3", spacing=0.5)
    assert len(reqs) == 6
    pts = [r.point for r in reqs]
    assert pts == ["a", "b", "a", "b", "a", "b"]
    gaps = np.diff([r.t for r in reqs])
    assert np.all(gaps > 0)

    with pytest.raises(ConfigInvalid):
        gen_two_point(0.0, "pair_at_0")
    with pytest.raises(ConfigInvalid):
        gen_two_point(1.0, "every_other_day")
    with pytest.raises(ConfigInvalid):  # spacing means nothing without stagger
        gen_two_point(1.0, "pair_at_0", spacing=2.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigInvalid):
            gen_two_point(1.0, "stagger:2", spacing=bad)
