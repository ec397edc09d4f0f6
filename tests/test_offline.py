import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymatch.core import Request, Schedule, make_requests, total_cost
from delaymatch.errors import OddRequestSet, TooLarge
from delaymatch.instances import gen_random
from delaymatch.metric import MetricSpace, from_coords
from delaymatch.offline import (
    MAX_EXACT,
    MAX_EXACT_FP,
    _plan,
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


def test_rejected_sizes_build_no_plan():
    space, reqs = random_instance(9, n_points=6, n_requests=MAX_EXACT + 2)
    before = _plan.cache_info().currsize
    with pytest.raises(TooLarge):
        optimal_mpmd(space, reqs)
    with pytest.raises(OddRequestSet):
        optimal_mpmd(space, reqs[:MAX_EXACT + 1])
    with pytest.raises(TooLarge):
        optimal_mpmdfp(space, reqs[: MAX_EXACT_FP + 1], penalty=1.0)
    assert _plan.cache_info().currsize == before


def test_plan_counts_and_read_only_arrays():
    # lowest-first masks over 16 requests: Fibonacci(17) states
    plan = _plan(16, False)
    cell, sub, start, _ = plan
    assert (len(start) - 1, len(cell)) == (1597, 10226)
    assert len(_plan(12, True)[2]) - 1 == 377
    assert _plan(16, False) is plan
    for a in (cell, sub, start):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1


def test_empty_request_set():
    space, _ = random_instance(1)
    sol = optimal_mpmd(space, [])
    assert sol.cost.total == 0.0
    assert sol.schedule.pairings == ()


def recursive_oracle(space, requests, penalty=None):
    """Reference exact oracle: the memoized lowest-first recursion on bitmasks.

    It decides the lowest-id unserved request i first: clear it (only when
    `penalty` is given), or pair it with some unserved k > i in ascending
    k, keeping the first strict minimum of `cost + solve(rest)`.
    """
    reqs = sorted(requests, key=lambda r: r.id)
    n = len(reqs)
    edge = [
        [space.distance(a.point, b.point) + abs(a.t - b.t) for b in reqs]
        for a in reqs
    ]
    best = {0: 0.0}
    choice = {}

    def solve(mask):
        if mask in best:
            return best[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << i)
        b, arg = float("inf"), None
        if penalty is not None:
            b, arg = penalty + solve(rest), i
        j = rest
        while j:
            k = (j & -j).bit_length() - 1
            c = edge[i][k] + solve(rest & ~(1 << k))
            if c < b:
                b, arg = c, (i, k)
            j &= j - 1
        best[mask] = b
        choice[mask] = arg
        return b

    mask = (1 << n) - 1
    solve(mask)
    pairs, clears = [], []
    while mask:
        arg = choice[mask]
        if isinstance(arg, tuple):
            i, k = arg
            pairs.append((reqs[i].id, reqs[k].id, max(reqs[i].t, reqs[k].t)))
            mask &= ~(1 << i) & ~(1 << k)
        else:
            clears.append((reqs[arg].id, reqs[arg].t))
            mask &= ~(1 << arg)
    schedule = Schedule(pairings=tuple(pairs), clears=tuple(clears))
    return schedule, total_cost(space, reqs, schedule, penalty_p=penalty)


def _assert_same_solution(sol, space, reqs, penalty=None):
    schedule, cost = recursive_oracle(space, reqs, penalty)
    assert sol.schedule == schedule
    assert [x.hex() for x in (sol.cost.space, sol.cost.time, sol.cost.penalty)] == [
        x.hex() for x in (cost.space, cost.time, cost.penalty)
    ]


@pytest.mark.parametrize("seed", range(24))
def test_exact_matches_recursive_oracle_on_seeded_instances(seed):
    kind = ("line", "square", "uniform")[seed % 3]
    rng = np.random.default_rng(seed + 700)
    count = 2 * int(rng.integers(0, MAX_EXACT // 2 + 1))
    space, reqs = gen_random(kind, 2 + seed % 7, count, 4.0, rng)
    _assert_same_solution(optimal_mpmd(space, reqs), space, reqs)
    fp = reqs[: int(rng.integers(0, MAX_EXACT_FP + 1))]
    penalty = [0.05, 0.3, 1.0, 4.0][seed % 4]
    _assert_same_solution(optimal_mpmdfp(space, fp, penalty), space, fp, penalty)


@pytest.mark.parametrize("seed", range(30))
def test_exact_matches_recursive_oracle_on_tied_costs(seed):
    space, reqs = _tie_heavy_instance(seed)
    reqs = reqs[:MAX_EXACT]
    _assert_same_solution(optimal_mpmd(space, reqs), space, reqs)
    fp = reqs[:MAX_EXACT_FP - seed % 2]
    for penalty in (1.0, 2.0):
        _assert_same_solution(optimal_mpmdfp(space, fp, penalty), space, fp, penalty)


@st.composite
def tie_instances(draw, max_requests):
    """Integer metrics, and times that are integers (ties) or arbitrary."""
    kind = draw(st.sampled_from(["line", "square", "uniform"]))
    size = draw(st.integers(2, 5))
    if kind == "line":
        space = from_coords(np.arange(float(size)))
    elif kind == "square":
        space = from_coords([[x, y] for x in range(size) for y in range(2)])
    else:
        space = MetricSpace([f"u{i}" for i in range(size)],
                            np.ones((size, size)) - np.eye(size))
    count = draw(st.integers(0, max_requests))
    if draw(st.booleans()):
        times = st.integers(0, 3).map(float)
    else:
        times = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    where = draw(st.lists(st.integers(0, space.n - 1), min_size=count, max_size=count))
    arrivals = draw(st.lists(times, min_size=count, max_size=count))
    ids = draw(st.permutations(range(count)))
    return space, tuple(
        Request(id=ids[j], point=space.points[w], t=t)
        for j, (w, t) in enumerate(zip(where, arrivals))
    )


@settings(max_examples=60, deadline=None)
@given(tie_instances(MAX_EXACT))
def test_exact_matches_recursive_oracle_hypothesis(instance):
    space, reqs = instance
    reqs = reqs[: len(reqs) // 2 * 2]
    _assert_same_solution(optimal_mpmd(space, reqs), space, reqs)


@settings(max_examples=60, deadline=None)
@given(
    tie_instances(MAX_EXACT_FP),
    st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 5.0),
)
def test_exact_fp_matches_recursive_oracle_hypothesis(instance, penalty):
    space, reqs = instance
    _assert_same_solution(optimal_mpmdfp(space, reqs, penalty), space, reqs, penalty)
