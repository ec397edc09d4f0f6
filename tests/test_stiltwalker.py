import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymatch.core import make_requests, total_cost
from delaymatch.diagnostics import _online_ledgers, _replay_trace
from delaymatch.embedding import build_hsbt, sample_hsbt, tree_metric
from delaymatch.errors import (
    ConfigInvalid,
    NotEffective,
    OddRequestSet,
    UnknownLocation,
)
from delaymatch.instances import gen_random
from delaymatch.stiltwalker import (
    Engine,
    TimerMode,
    run,
    stream_words,
)

from oracles import recompute_state


def two_leaf_tree(w=2.0):
    return build_hsbt([-1, 0, 0], [w, 0.0, 0.0], {1: "a", 2: "b"}, alpha=2.0)


def four_leaf_tree():
    parent = [-1, 0, 0, 1, 1, 2, 2]
    weight = [4.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    leaves = {3: "a", 4: "b", 5: "c", 6: "d"}
    return build_hsbt(parent, weight, leaves, alpha=2.0)


def test_recompute_state_by_hand():
    t = four_leaf_tree()
    la, lc = t.point_leaf["a"], t.point_leaf["c"]
    st = recompute_state(t, [la])
    assert st.odd == {la, t.parent[la], 0}
    assert st.stilts == ((0, la),)
    assert st.effective == ()

    st = recompute_state(t, [la, lc])
    assert st.odd == {la, lc, t.parent[la], t.parent[lc]}
    assert st.heads == {t.parent[la], t.parent[lc]}
    assert st.effective == ((0, la, lc),)


def test_deterministic_two_leaf_timer_fires_at_weight():
    w = 2.0
    tree = two_leaf_tree(w)
    space = tree_metric(tree)
    eps = 1e-6
    reqs = make_requests(space, [("a", 0.0), ("b", eps)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC, flush=False)
    assert len(result.schedule.pairings) == 1
    _, _, t_match = result.schedule.pairings[0]
    assert t_match == eps + w  # exact float equality: one add on each side
    tau, sigma, _, _ = _online_ledgers(tree, result.trace)
    assert sigma[0] == w
    assert tau[0] == pytest.approx(w, rel=1e-12)


def test_exponential_two_leaf_mean_near_weight():
    w = 2.0
    tree = two_leaf_tree(w)
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 1e-9)])
    times = []
    for seed in range(600):
        result = run(tree, reqs, seed=seed, flush=False)
        times.append(result.schedule.pairings[0][2])
    mean = float(np.mean(times))
    se = float(np.std(times, ddof=1)) / np.sqrt(len(times))
    assert abs(mean - w) <= 3 * se + 1e-6


def test_arrival_beats_timer_at_equal_time():
    # the tied arrival cancels the standing request, so the cross match
    # that a timer-first rule would produce never happens
    tree = two_leaf_tree(1.0)
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 0.25), ("a", 1.25), ("b", 1.5)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC, flush=False)
    kinds = [e.kind for e in result.trace.events]
    assert kinds == ["arrival", "arrival", "same_leaf", "same_leaf"]
    cost = total_cost(space, reqs, result.schedule)
    assert cost.space == 0.0
    assert _online_ledgers(tree, result.trace)[1][0] == 0.0


def test_same_leaf_match_is_instant_and_free():
    tree = four_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("a", 0.5)])
    engine = Engine(tree, reqs, mode=TimerMode.DETERMINISTIC)
    result = engine.run(flush=False)
    assert result.schedule.pairings == ((0, 1, 0.5),)
    ev = result.trace.events[-1]
    assert ev.kind == "same_leaf"
    assert _odd(engine.parity) == frozenset()
    assert not engine.effective
    for _, last, parity, odd_kids in _replay_trace(tree, result.trace):
        pass
    assert last is ev
    assert _odd(parity) == frozenset()
    assert not odd_kids


def test_budget_frozen_while_not_effective():
    tree = two_leaf_tree(10.0)
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 1.0), ("a", 2.0), ("b", 3.0)])
    engine = Engine(tree, reqs, mode=TimerMode.DETERMINISTIC)
    result = engine.run(flush=False)
    # effective only on [1, 2): one unit of budget burned, timer never fires
    assert engine.budget[0] == 9.0
    tau, sigma, _, _ = _online_ledgers(tree, result.trace)
    assert tau[0] == 1.0
    assert sigma[0] == 0.0
    assert result.schedule.pairings == ((0, 2, 2.0), (1, 3, 3.0))


def test_flush_matches_snapshot_and_prices_c_end():
    tree = four_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(
        space, [("a", 0.0), ("b", 0.01), ("c", 0.02), ("d", 0.03)]
    )
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC, flush=True)
    assert result.trace.flushed
    assert result.trace.c_end_space == 4.0  # both depth-1 vertices, weight 2 each
    pairs = {frozenset(p[:2]) for p in result.schedule.pairings}
    assert pairs == {frozenset({0, 1}), frozenset({2, 3})}
    assert all(t == 0.03 for _, _, t in result.schedule.pairings)
    # flush connections deposit nothing into the sigma ledger
    assert _online_ledgers(tree, result.trace)[1].sum() == 0.0


def test_flush_across_root_single_pair():
    tree = four_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("c", 0.1)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC, flush=True)
    assert result.trace.c_end_space == 4.0  # the root weight
    assert result.schedule.pairings == ((0, 1, 0.1),)
    n_pts = len(tree.leaf_point)
    assert result.trace.c_end_space <= (n_pts / 2) * tree.weight[0]


def test_no_flush_run_drains_every_request():
    rng = np.random.default_rng(7)
    space, reqs = _random_instance(rng, n_points=6, n_requests=10)
    tree = sample_hsbt(space, rng)
    result = run(tree, reqs, seed=5, flush=False)
    cost = total_cost(tree_metric(tree), reqs, result.schedule)
    assert cost.space >= 0.0
    for r1, r2, t in result.schedule.pairings:
        assert t >= max(r.t for r in reqs if r.id in (r1, r2))


def _random_instance(rng, n_points, n_requests):
    return gen_random("uniform", n_points, n_requests, horizon=5.0, rng=rng)


def _odd(parity):
    return frozenset(v for v, p in enumerate(parity) if p)


def _assert_state(tree, active_leaves, odd, effective):
    """An incrementally kept state agrees with a from-scratch recompute."""
    state = recompute_state(tree, sorted(active_leaves))
    assert state.odd == odd
    assert [v for v, _, _ in state.effective] == sorted(effective)
    # two active requests stand behind each effective vertex, plus one
    # on the root stilt when the root is odd
    assert len(active_leaves) == (0 in state.odd) + 2 * len(state.effective)


def _replay_check(tree, reqs, result):
    """Independent parity oracle: rebuild the active set from the events and
    the requests' own points, and hold the trace replay's state before every
    event, and after the last, against a recompute from it."""
    leaf_of = {r.id: tree.point_leaf[r.point] for r in reqs}
    active: set[int] = set()

    def check(parity, odd_kids):
        odd = _odd(parity)
        effective = {v for v, c in odd_kids.items() if c == 2}
        _assert_state(tree, active, odd, effective)
        counts = {
            v: sum(u in odd for u in tree.children[v])
            for v in tree.internal_vertices()
        }
        assert odd_kids == {v: c for v, c in counts.items() if c}

    for _, ev, parity, odd_kids in _replay_trace(tree, result.trace):
        check(parity, odd_kids)
        if ev.kind == "arrival":
            active.add(leaf_of[ev.requests[0]])
        elif ev.kind == "same_leaf":
            active.remove(leaf_of[ev.requests[0]])
        else:
            for rid in ev.requests:
                active.remove(leaf_of[rid])
    check(parity, odd_kids)
    assert not active


def _step_check(tree, reqs, mode, seed, flush):
    """Step an engine event by event, checking its live state after each."""
    engine = Engine(tree, reqs, mode, next(stream_words([seed], range(len(tree)))))
    while not (flush and engine.arrival_index == len(engine.requests)):
        if engine.advance_to_next_event() is None:
            break
        _assert_state(tree, engine.active_at, _odd(engine.parity), engine.effective)
    if flush:
        engine.flush_now()
        _assert_state(tree, engine.active_at, _odd(engine.parity), engine.effective)
    return engine


@pytest.mark.parametrize("flush", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_trace_snapshots_match_independent_replay(seed, flush):
    rng = np.random.default_rng(100 + seed)
    space, reqs = _random_instance(rng, n_points=7, n_requests=14)
    tree = sample_hsbt(space, rng)
    result = run(tree, reqs, seed=seed, flush=flush)
    _replay_check(tree, reqs, result)
    cost = total_cost(tree_metric(tree), reqs, result.schedule)
    assert cost.total >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["line", "square", "uniform"]),
    n_points=st.integers(2, 12),
    pairs=st.integers(1, 12),
    horizon=st.sampled_from([0.5, 5.0]),
    instance_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(list(TimerMode)),
    flush=st.booleans(),
)
def test_live_state_matches_recompute_after_every_event(
    kind, n_points, pairs, horizon, instance_seed, seed, mode, flush
):
    rng = np.random.default_rng(instance_seed)
    space, reqs = gen_random(kind, n_points, 2 * pairs, horizon, rng)
    tree = sample_hsbt(space, rng)
    engine = _step_check(tree, reqs, mode, seed, flush)
    result = run(tree, reqs, mode=mode, seed=seed, flush=flush)
    assert engine.trace.events == result.trace.events
    # the schedule lists every non-arrival event's pair at the event's time
    pairs = [(*e.requests, e.t) for e in engine.trace.events if e.kind != "arrival"]
    assert pairs == list(result.schedule.pairings)
    _replay_check(tree, reqs, result)


def test_words_table_defaults_to_seed_vertex_pairs():
    rng = np.random.default_rng(21)
    space, reqs = _random_instance(rng, n_points=5, n_requests=8)
    tree = sample_hsbt(space, rng)
    base = run(tree, reqs, seed=17)
    table = next(stream_words([17], range(len(tree))))
    tabled = Engine(tree, reqs, words=table).run()
    assert tabled.schedule == base.schedule
    assert tabled.trace.events == base.trace.events
    root, w = tree.root, tree.weight[tree.root]
    want = np.random.default_rng(np.random.SeedSequence((17, root))).exponential(w)
    engine = Engine(tree, reqs, words=table)
    while root not in engine.effective:  # its first budget is drawn then
        assert engine.advance_to_next_event() is not None
    assert engine.budget[root] == want


@pytest.mark.parametrize("seed", range(3))
def test_first_budgets_are_drawn_when_first_effective(seed):
    rng = np.random.default_rng(100 + seed)
    space, reqs = _random_instance(rng, n_points=16, n_requests=24)
    tree = sample_hsbt(space, rng)

    def key(v):
        return (seed, 3 * v + 1)

    def default_key(v):
        return (seed, v)

    # the table `run` derives for the seed, and picked table rows
    table = next(stream_words([seed], range(len(tree))))
    rows = next(stream_words([seed], [3 * v + 1 for v in range(len(tree))]))
    for engine, key_of in (
        (Engine(tree, reqs, words=table), default_key),
        (Engine(tree, reqs, words=rows), key),
    ):
        assert engine._streams == {} and set(engine.budget) == {None}
        first = {}  # vertex -> budget right after the event that made it effective
        while engine.advance_to_next_event() is not None:
            for v in engine.effective:
                first.setdefault(v, engine.budget[v])
        assert set(engine._streams) == set(first)
        never = set(tree.internal_vertices()) - set(first)
        assert never, "every vertex became effective; the instance tests nothing"
        assert all(engine.budget[v] is None for v in never)
        for v, budget in first.items():
            stream = np.random.default_rng(np.random.SeedSequence(key_of(v)))
            assert budget == stream.exponential(tree.weight[v])
    det = Engine(tree, reqs, mode=TimerMode.DETERMINISTIC)
    det.run(flush=True)
    assert det._streams == {}


# seeds at the word-count edges of numpy's key coercion: one 32-bit word up
# to 2^32 - 1, two words up to 2^64 - 1
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**62 - 1, 2**63 - 1, 2**64 - 1]


def test_stream_words_equal_numpy_seed_sequence():
    rng = np.random.default_rng(2024)
    seeds = EDGE_SEEDS + [int(s) for s in rng.integers(0, 2**63, 8)]
    seeds += [int(s) for s in rng.integers(0, 2**32, 4)]
    seeds *= 5  # more than one block of 64 seeds
    vertices = [0, 1, 2**32 - 1] + [int(v) for v in rng.integers(0, 2**32, 4)]
    rows = list(stream_words(seeds, vertices))
    assert len(rows) == len(seeds)
    for s, row in zip(seeds, rows):
        assert row.shape == (len(vertices), 4) and row.dtype == np.uint64
        for v, words in zip(vertices, row):
            want = np.random.SeedSequence((s, v)).generate_state(4, np.uint64)
            assert np.array_equal(words, want), (s, v)


def test_stream_words_reject_wide_vertex_ids():
    with pytest.raises(ValueError):
        next(stream_words([0], [2**32]))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_64_bits_are_rejected(seed):
    with pytest.raises(ValueError, match=f"seed {seed} "):
        next(stream_words([5, seed], [0]))
    tree = two_leaf_tree()
    reqs = make_requests(tree_metric(tree), [("a", 0.0), ("b", 1.0)])
    with pytest.raises(ValueError, match=f"seed {seed} "):
        run(tree, reqs, seed=seed)


@pytest.mark.parametrize("seed", EDGE_SEEDS + [12345, 2**40 + 7])
def test_table_streams_draw_what_numpy_draws(seed):
    tree = four_leaf_tree()
    w = tree.weight[tree.root]
    rng = np.random.default_rng(seed % 2**32)
    for v in (0, 2**32 - 1, int(rng.integers(2**32))):
        # every vertex of the engine reads the words of key (seed, v), from
        # rows that are not contiguous in memory
        row = np.asfortranarray(
            np.repeat(next(stream_words([seed], [v])), len(tree), axis=0)
        )
        engine = Engine(tree, [], words=row)
        want = np.random.default_rng(np.random.SeedSequence((seed, v)))
        count = 8 if v else 40  # vertex 0 uses up its first blocks
        got = [engine._draw(tree.root) for _ in range(count)]
        assert got == [want.exponential(w) for _ in range(count)], (seed, v)
        assert list(engine._streams) == [tree.root]


def test_engine_rejects_bad_inputs():
    tree = two_leaf_tree()
    space = tree_metric(tree)
    with pytest.raises(OddRequestSet):
        Engine(tree, make_requests(space, [("a", 0.0)], require_even=False))
    bigger = gen_random("line", 4, 4, horizon=1.0, rng=np.random.default_rng(0))
    with pytest.raises(UnknownLocation):
        Engine(tree, bigger[1])
    # exponential timers draw from a seed-word table; deterministic ones never draw
    reqs = make_requests(space, [("a", 0.0), ("b", 1.0)])
    with pytest.raises(ConfigInvalid):
        Engine(tree, reqs)
    Engine(tree, reqs, TimerMode.DETERMINISTIC).run()


def test_match_across_requires_effective_vertex():
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 1.0)])
    engine = Engine(tree, reqs, TimerMode.DETERMINISTIC)
    with pytest.raises(NotEffective):
        engine.match_across(0)


def test_trace_jsonl_dump(tmp_path):
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 0.5)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC)
    path = tmp_path / "trace.jsonl"
    result.trace.to_jsonl(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(result.trace.events)


def _matches_outside(events, subtree):
    inside = set(subtree)
    return [
        (e.t, e.kind, e.vertex)
        for e in events
        if e.kind in ("match", "flush") and e.vertex not in inside
    ]


@pytest.mark.parametrize("flush", [True, False])
def test_reseeding_a_subtree_moves_no_event_outside_it(flush):
    # timers read only the instants at which their own vertex enters or
    # leaves the effective set, and reseeding a subtree moves none of those
    # outside it; the events there keep their times to the last bit
    subtrees = 0
    for i in range(6):
        rng = np.random.default_rng(100 + i)
        space, reqs = gen_random("square", 64, 512, 10.0, rng)
        tree = sample_hsbt(space, rng)
        words = next(stream_words([i], range(len(tree))))
        other = next(stream_words([1000 + i], range(len(tree))))
        base = Engine(tree, reqs, words=words).run(flush=flush).trace.events
        for x in tree.internal_vertices()[1::3]:
            inside = tree.subtree(x)
            rows = words.copy()
            rows[inside] = other[inside]
            events = Engine(tree, reqs, words=rows).run(flush=flush).trace.events
            want = _matches_outside(base, inside)
            assert _matches_outside(events, inside) == want, (i, x)
            subtrees += 1
    assert subtrees == 126


@pytest.mark.parametrize("mode", list(TimerMode))
@pytest.mark.parametrize("seed", range(3))
def test_next_timer_is_the_earliest_effective_deadline(seed, mode):
    rng = np.random.default_rng(200 + seed)
    space, reqs = gen_random("square", 24, 96, 2.0, rng)
    tree = sample_hsbt(space, rng)
    engine = Engine(tree, reqs, mode, next(stream_words([seed], range(len(tree)))))
    steps = 0
    while engine.advance_to_next_event() is not None:
        live = [(engine.deadline[v], v) for v in engine.effective]
        assert engine._next_timer() == (min(live) if live else None)
        steps += 1
    assert steps > len(reqs)


def test_reentered_vertex_fires_at_its_frozen_remainder():
    # deterministic timers: a vertex that leaves the effective set at t1 with
    # deadline d and is effective again at t2 fires at exactly t2 + (d - t1)
    rng = np.random.default_rng(5)
    space, reqs = gen_random("square", 16, 160, 4.0, rng)
    tree = sample_hsbt(space, rng)
    engine = Engine(tree, reqs, TimerMode.DETERMINISTIC)
    due: dict[int, float] = {}  # effective vertex -> when it must fire
    rest: dict[int, float] = {}  # vertex out of the effective set -> its budget
    paused: set[int] = set()  # left the effective set since its last draw
    resumed_fires = 0
    while True:
        before = set(engine.effective)
        ev = engine.advance_to_next_event()
        if ev is None:
            break
        left = before - engine.effective
        if ev.kind == "match":
            assert ev.t == due.pop(ev.vertex)
            resumed_fires += ev.vertex in paused
            paused.discard(ev.vertex)
            rest[ev.vertex] = tree.weight[ev.vertex]  # drawn afresh
            left.remove(ev.vertex)
        for v in left:
            rest[v] = due.pop(v) - ev.t
            paused.add(v)
        for v in engine.effective - before:
            due[v] = ev.t + rest.get(v, tree.weight[v])
    assert not engine.active_at and not due
    assert resumed_fires > 0
