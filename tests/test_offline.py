import itertools

import numpy as np
import pytest

from delaymatch.core import Request, make_requests, total_cost
from delaymatch.errors import OddRequestSet, TooLarge
from delaymatch.instances import gen_random
from delaymatch.metric import MetricSpace, from_coords
from delaymatch.offline import (
    MAX_EXACT,
    MAX_EXACT_FP,
    greedy_mpmd,
    optimal_mpmd,
    optimal_mpmdfp,
)


def brute_force_pairs(space, requests):
    """Enumerate every perfect matching directly (independent of the solver)."""

    def expand(ids):
        if not ids:
            return [()]
        first, rest = ids[0], ids[1:]
        out = []
        for k, partner in enumerate(rest):
            for tail in expand(rest[:k] + rest[k + 1:]):
                out.append(((first, partner),) + tail)
        return out

    by_id = {r.id: r for r in requests}
    best = float("inf")
    for matching in expand(sorted(by_id)):
        c = 0.0
        for a, b in matching:
            ra, rb = by_id[a], by_id[b]
            c += space.distance(ra.point, rb.point) + abs(ra.t - rb.t)
        best = min(best, c)
    return best


def brute_force_pairs_or_clears(space, requests, penalty):
    by_id = {r.id: r for r in requests}
    ids = sorted(by_id)
    best = float("inf")
    for cleared_size in range(0, len(ids) + 1):
        for cleared in itertools.combinations(ids, cleared_size):
            rest = [i for i in ids if i not in cleared]
            if len(rest) % 2 != 0:
                continue
            base = penalty * len(cleared)
            if not rest:
                best = min(best, base)
                continue
            for matching in _matchings(tuple(rest)):
                c = base
                for a, b in matching:
                    ra, rb = by_id[a], by_id[b]
                    c += space.distance(ra.point, rb.point) + abs(ra.t - rb.t)
                best = min(best, c)
    return best


def _matchings(ids):
    if not ids:
        yield ()
        return
    first, rest = ids[0], ids[1:]
    for k in range(len(rest)):
        for tail in _matchings(rest[:k] + rest[k + 1:]):
            yield ((first, rest[k]),) + tail


def random_instance(seed, n_points=5, n_requests=8):
    rng = np.random.default_rng(seed)
    return gen_random("uniform", n_points, n_requests, horizon=4.0, rng=rng)


@pytest.mark.parametrize("seed", range(8))
def test_exact_matches_brute_force(seed):
    space, reqs = random_instance(seed, n_requests=6 if seed % 2 else 8)
    sol = optimal_mpmd(space, reqs)
    want = brute_force_pairs(space, reqs)
    assert sol.cost.total == pytest.approx(want, rel=1e-12)
    assert sol.optimal
    # the reported schedule really attains the reported cost
    assert total_cost(space, reqs, sol.schedule).total == pytest.approx(
        sol.cost.total, rel=1e-12
    )


@pytest.mark.parametrize("seed", range(8))
def test_exact_fp_matches_brute_force(seed):
    space, reqs = random_instance(seed + 50, n_requests=6)
    penalty = [0.05, 0.5, 2.0, 50.0][seed % 4]
    sol = optimal_mpmdfp(space, reqs, penalty)
    want = brute_force_pairs_or_clears(space, reqs, penalty)
    assert sol.cost.total == pytest.approx(want, rel=1e-12)
    check = total_cost(space, reqs, sol.schedule, penalty_p=penalty)
    assert check.total == pytest.approx(sol.cost.total, rel=1e-12)


def test_fp_extremes():
    space, reqs = random_instance(3, n_requests=6)
    tiny = optimal_mpmdfp(space, reqs, penalty=1e-9)
    assert len(tiny.schedule.clears) == len(reqs)  # clearing everything wins
    huge = optimal_mpmdfp(space, reqs, penalty=1e9)
    assert not huge.schedule.clears  # pairing everything wins
    assert huge.cost.total == pytest.approx(optimal_mpmd(space, reqs).cost.total)


def test_fp_handles_odd_request_count():
    space, reqs = random_instance(4, n_requests=8)
    odd = reqs[:7]
    sol = optimal_mpmdfp(space, odd, penalty=0.3)
    assert len(sol.schedule.clears) % 2 == 1
    with pytest.raises(OddRequestSet):
        optimal_mpmd(space, odd)


def test_greedy_never_beats_exact():
    for seed in range(12):
        space, reqs = random_instance(seed + 100, n_requests=8)
        g = greedy_mpmd(space, reqs)
        e = optimal_mpmd(space, reqs)
        assert g.cost.total >= e.cost.total - 1e-9
        assert not g.optimal


def test_greedy_is_strictly_suboptimal_sometimes():
    # line points 0, 1, 1.1, 2.1: greedy grabs the middle pair (gap 0.1)
    # and is then forced into the 2.1 edge; pairing the outer neighbours
    # costs 2.0 total
    space = from_coords([(0.0,), (1.0,), (1.1,), (2.1,)], ["a", "b", "c", "d"])
    reqs = make_requests(
        space, [("a", 0.0), ("b", 1e-6), ("c", 2e-6), ("d", 3e-6)]
    )
    g = greedy_mpmd(space, reqs)
    e = optimal_mpmd(space, reqs)
    assert g.cost.total > e.cost.total + 0.1
    assert e.cost.space == pytest.approx(2.0, abs=1e-5)


def greedy_scan(space, requests):
    """Reference greedy: rescan every remaining pair each round, O(n^3).

    Each round takes the first strict minimum of d + |dt| in (i, j) order
    over the requests still unserved, in request-id order.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    left = list(range(len(reqs)))
    pairs = []
    while left:
        b, arg = float("inf"), None
        for ai, i in enumerate(left):
            for j in left[ai + 1:]:
                ri, rj = reqs[i], reqs[j]
                c = space.distance(ri.point, rj.point) + abs(ri.t - rj.t)
                if c < b:
                    b, arg = c, (i, j)
        i, j = arg
        pairs.append((reqs[i].id, reqs[j].id, max(reqs[i].t, reqs[j].t)))
        left.remove(i)
        left.remove(j)
    return tuple(pairs)


def _tie_heavy_instance(seed):
    """Integer line or grid points and integer times: many equal pair costs."""
    rng = np.random.default_rng(seed)
    if seed % 3 == 0:
        space = from_coords(np.arange(float(rng.integers(3, 9))))
    elif seed % 3 == 1:
        side = int(rng.integers(2, 4))
        space = from_coords([[x, y] for x in range(side) for y in range(side)])
    else:
        k = int(rng.integers(2, 7))
        space = MetricSpace([f"u{i}" for i in range(k)], np.ones((k, k)) - np.eye(k))
    count = 2 * int(rng.integers(1, 16))
    where = rng.integers(0, space.n, count)
    times = rng.integers(0, int(rng.integers(1, 4)), count)
    order = rng.permutation(count)  # ids need not follow arrival order
    return space, tuple(
        Request(id=int(order[i]), point=space.points[int(w)], t=float(t))
        for i, (w, t) in enumerate(zip(where, times))
    )


@pytest.mark.parametrize("seed", range(12))
def test_greedy_matches_pair_rescan_on_random_instances(seed):
    kind = ("line", "square", "uniform")[seed % 3]
    rng = np.random.default_rng(seed + 300)
    space, reqs = gen_random(kind, 3 + seed, 2 * (4 + 3 * seed), 5.0, rng)
    assert greedy_mpmd(space, reqs).schedule.pairings == greedy_scan(space, reqs)


@pytest.mark.parametrize("seed", range(30))
def test_greedy_matches_pair_rescan_on_tied_costs(seed):
    space, reqs = _tie_heavy_instance(seed)
    assert greedy_mpmd(space, reqs).schedule.pairings == greedy_scan(space, reqs)


def test_size_caps_enforced():
    space, reqs = random_instance(9, n_points=6, n_requests=MAX_EXACT + 2)
    with pytest.raises(TooLarge):
        optimal_mpmd(space, reqs)
    with pytest.raises(TooLarge):
        optimal_mpmdfp(space, reqs[: MAX_EXACT_FP + 2], penalty=1.0)


def test_empty_request_set():
    space, _ = random_instance(1)
    sol = optimal_mpmd(space, [])
    assert sol.cost.total == 0.0
    assert sol.schedule.pairings == ()
