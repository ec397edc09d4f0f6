import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymatch import stiltwalker
from delaymatch.core import make_requests, total_cost
from delaymatch.diagnostics import _online_ledgers, _replay_trace
from delaymatch.embedding import build_hsbt, sample_hsbt, tree_metric
from delaymatch.errors import (
    ConfigInvalid,
    InvariantViolation,
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

from oracles import ReferenceEngine, recompute_state


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
    """Step the reference engine event by event, checking its live state
    after each."""
    words = next(stream_words([seed], range(len(tree))))
    ref = ReferenceEngine(tree, reqs, mode, words)
    while not (flush and ref.arrival_index == len(ref.requests)):
        if ref.advance_to_next_event() is None:
            break
        _assert_state(tree, ref.active_at, _odd(ref.parity), ref.effective)
    if flush:
        ref.flush_now()
        _assert_state(tree, ref.active_at, _odd(ref.parity), ref.effective)
    return ref


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
    ref = _step_check(tree, reqs, mode, seed, flush)
    result = run(tree, reqs, mode=mode, seed=seed, flush=flush)
    assert repr(result.trace) == repr(ref.trace)
    # the schedule lists every non-arrival event's pair at the event's time
    pairs = [(*e.requests, e.t) for e in ref.trace.events if e.kind != "arrival"]
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
    engine.run()
    # the root became effective, and drew its first budget then
    assert any(root in before for _, before, _ in _effective_sets(tree, engine.trace))
    assert engine._streams[root][0][0] == want


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
        engine.run(flush=False)
        ever = set()  # the vertices that were effective at some instant
        for _, before, after in _effective_sets(tree, engine.trace):
            ever |= after
        assert set(engine._streams) == ever
        never = set(tree.internal_vertices()) - ever
        assert never, "every vertex became effective; the instance tests nothing"
        assert all(engine.budget[v] is None for v in never)
        for v in ever:  # a stream's first value is the budget drawn on entry
            stream = np.random.default_rng(np.random.SeedSequence(key_of(v)))
            assert engine._streams[v][0][0] == stream.exponential(tree.weight[v])
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
        Engine(tree, make_requests(space, [("a", 0.0)]))
    bigger = gen_random("line", 4, 4, horizon=1.0, rng=np.random.default_rng(0))
    with pytest.raises(UnknownLocation):
        Engine(tree, bigger[1])
    # exponential timers draw from a seed-word table; deterministic ones never draw
    reqs = make_requests(space, [("a", 0.0), ("b", 1.0)])
    with pytest.raises(ConfigInvalid):
        Engine(tree, reqs)
    Engine(tree, reqs, TimerMode.DETERMINISTIC).run()


def test_engine_checks_its_seed_word_table():
    # a short or narrow table is refused when the engine is built, not at
    # the first stream it would open mid-run
    tree = four_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 1.0), ("c", 2.0), ("d", 3.0)])
    table = next(stream_words([3], range(len(tree) + 2)))
    for bad in (table[:3], table[: len(tree), :2], table[0]):
        with pytest.raises(ConfigInvalid, match="seed-word table"):
            Engine(tree, reqs, words=bad)
    # spare rows are allowed: row v seeds vertex v
    longer = Engine(tree, reqs, words=table).run().trace
    assert longer == Engine(tree, reqs, words=table[: len(tree)]).run().trace


def test_an_engine_runs_once():
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 1.0)])
    for flush in (True, False):
        engine = Engine(tree, reqs, TimerMode.DETERMINISTIC)
        events = list(engine.run(flush=flush).trace.events)
        for again in (True, False):
            with pytest.raises(InvariantViolation, match="an engine runs once"):
                engine.run(flush=again)
        assert engine.trace.events == events


def test_timer_tied_with_the_last_arrival_waits_for_the_flush():
    # vertex 1 is due at 2.5, the instant d arrives: the arrival goes first
    # and the flush then matches across both depth-1 vertices, 1 before 2
    tree = four_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 0.5), ("c", 1.0), ("d", 2.5)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC, flush=True)
    got = [(e.t, e.kind, e.vertex) for e in result.trace.events[4:]]
    assert got == [(2.5, "flush", 1), (2.5, "flush", 2)]
    assert result.trace.c_end_space == 4.0
    # without the flush the tied timer fires right after the arrival
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC, flush=False)
    assert (result.trace.events[4].t, result.trace.events[4].kind) == (2.5, "match")


def test_trace_jsonl_dump(tmp_path):
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 0.5)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC)
    path = tmp_path / "trace.jsonl"
    result.trace.to_jsonl(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == len(result.trace.events)


def _effective_sets(tree, trace):
    """(event, effective set before it, effective set after it) for every
    event of a run, from the trace replay alone."""

    def effective(odd_kids):
        return {v for v, c in odd_kids.items() if c == 2}

    last = None
    for _, ev, _, odd_kids in _replay_trace(tree, trace):
        now = effective(odd_kids)
        if last is not None:
            yield last[0], last[1], now
        last = ev, now
    if last is not None:  # the replay has applied the last event by now
        yield last[0], last[1], effective(odd_kids)


def _timers_before_each_event(tree, trace, budgets):
    """(event, {effective vertex: deadline}, paused) just before every event
    of a run, then (None, ...) after the last, with each timer kept as the
    module doc says: a vertex entering the effective set at t with budget b
    is due at t + b, one leaving it at t keeps what is left, and a match
    across a vertex draws its next budget.  `budgets(v)` returns vertex v's
    next budget; `paused` holds the effective vertices that have left the
    set since their last draw."""
    due: dict[int, float] = {}
    rest: dict[int, float] = {}  # vertex out of the effective set -> its budget
    paused: set[int] = set()
    for ev, before, after in _effective_sets(tree, trace):
        yield ev, dict(due), set(paused)
        left = before - after
        if ev.kind in ("match", "flush"):
            left.remove(ev.vertex)
            due.pop(ev.vertex)
            paused.discard(ev.vertex)
            rest[ev.vertex] = budgets(ev.vertex)
        for v in left:
            rest[v] = due.pop(v) - ev.t
            paused.add(v)
        for v in after - before:
            due[v] = ev.t + (rest.pop(v) if v in rest else budgets(v))
    yield None, due, paused


def _stream_budgets(engine):
    """`budgets` for `_timers_before_each_event`: the values engine's streams
    drew, in order."""
    if engine.mode is TimerMode.DETERMINISTIC:
        return engine.tree.weight.__getitem__
    drawn = {v: iter(values[:used]) for v, (values, used) in engine._streams.items()}
    return lambda v: next(drawn[v])


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
    trace = engine.run(flush=False).trace
    steps = timers = 0
    for ev, due, _ in _timers_before_each_event(tree, trace, _stream_budgets(engine)):
        live = [(d, v) for v, d in due.items()]
        if ev is None:
            assert not live
            break
        if ev.kind == "match":
            assert (ev.t, ev.vertex) == min(live)
            timers += 1
        elif live:  # an arrival goes first, and wins a tie
            assert ev.t <= min(live)[0]
        steps += 1
    assert steps == len(trace.events) > len(reqs) and timers


def test_timer_heap_stays_within_twice_the_effective_set(monkeypatch):
    # without the flush, vertices leave the effective set long before their
    # deadlines; their stale entries are dropped when the heap outgrows the set
    rng = np.random.default_rng(7)
    space, reqs = gen_random("line", 64, 4096, 1.0, rng)
    tree = sample_hsbt(space, rng)
    engine = Engine(tree, reqs, words=next(stream_words([0], range(len(tree)))))
    heaps, effective, rebuilds = [], [], []  # heap sizes as each push finds them

    def heappush(heap, item):
        heaps.append(len(heap))
        effective.append(len(engine.effective))  # the push follows an entry
        heapq.heappush(heap, item)

    def heapify(heap):
        rebuilds.append(len(heap))
        heapq.heapify(heap)

    monkeypatch.setattr(stiltwalker, "heappush", heappush)
    monkeypatch.setattr(stiltwalker, "heapify", heapify)
    engine.run(flush=False)
    assert not engine.active_at and rebuilds
    peak_heap = max(heaps + rebuilds + [len(engine._timers)])
    peak_effective = max(effective)
    assert peak_heap <= 2 * peak_effective + 16, (peak_heap, peak_effective)


def test_reentered_vertex_fires_at_its_frozen_remainder():
    # deterministic timers: a vertex that leaves the effective set at t1 with
    # deadline d and is effective again at t2 fires at exactly t2 + (d - t1)
    rng = np.random.default_rng(5)
    space, reqs = gen_random("square", 16, 160, 4.0, rng)
    tree = sample_hsbt(space, rng)
    engine = Engine(tree, reqs, TimerMode.DETERMINISTIC)
    trace = engine.run(flush=False).trace
    resumed_fires = 0
    budgets = tree.weight.__getitem__  # deterministic: every budget is w(v)
    for ev, due, paused in _timers_before_each_event(tree, trace, budgets):
        if ev is None:
            assert not due
        elif ev.kind == "match":
            assert ev.t == due[ev.vertex]
            resumed_fires += ev.vertex in paused
    assert not engine.active_at
    assert resumed_fires > 0


def _assert_same_state(engine, ref):
    """The state a run leaves behind."""
    assert engine.parity == ref.parity
    assert engine.effective == ref.effective
    assert engine.budget == ref.budget
    assert engine.deadline == ref.deadline
    assert engine._timers == ref._timers
    assert engine.active_at == ref.active_at
    assert engine._streams == ref._streams


def _assert_engine_matches_reference(tree, reqs, mode, words, flush):
    """Run the engine and the method-chain reference on the same input: the
    same trace and schedule, bit for bit, and the same state after."""
    engine = Engine(tree, reqs, mode, words)
    ref = ReferenceEngine(tree, reqs, mode, words)
    _assert_same_state(engine, ref)
    got, want = engine.run(flush=flush), ref.run(flush=flush)
    assert repr(got.trace) == repr(want.trace)
    assert got.schedule == want.schedule
    _assert_same_state(engine, ref)
    return got.trace


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["line", "square", "uniform"]),
    n_points=st.integers(2, 64),
    pairs=st.integers(1, 60),
    horizon=st.sampled_from([0.5, 5.0]),
    instance_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from(list(TimerMode)),
    flush=st.booleans(),
)
def test_engine_matches_the_method_chain_reference(
    kind, n_points, pairs, horizon, instance_seed, seed, mode, flush
):
    if kind == "uniform":
        # above 16 points a uniform metric cannot be embedded yet: the
        # binarizer defect that test_uniform_metric_with_17_points_runs pins
        n_points = min(n_points, 16)
    rng = np.random.default_rng(instance_seed)
    space, reqs = gen_random(kind, n_points, 2 * pairs, horizon, rng)
    tree = sample_hsbt(space, rng)
    words = next(stream_words([seed], range(len(tree))))
    _assert_engine_matches_reference(tree, reqs, mode, words, flush)


@pytest.mark.parametrize("mode", list(TimerMode))
@pytest.mark.parametrize("flush", [True, False])
def test_engine_matches_the_reference_on_same_leaf_arrivals_and_ties(mode, flush):
    # two points and many requests: most arrivals meet a standing request
    rng = np.random.default_rng(11)
    space, reqs = gen_random("line", 2, 40, 5.0, rng)
    tree = sample_hsbt(space, rng)
    words = next(stream_words([4], range(len(tree))))
    trace = _assert_engine_matches_reference(tree, reqs, mode, words, flush)
    assert any(e.kind == "same_leaf" for e in trace.events)
    # an arrival at the instant of a deadline goes first
    tree = two_leaf_tree(1.0)
    reqs = make_requests(
        tree_metric(tree), [("a", 0.0), ("b", 0.25), ("a", 1.25), ("b", 1.5)]
    )
    words = next(stream_words([4], range(len(tree))))
    _assert_engine_matches_reference(tree, reqs, TimerMode.DETERMINISTIC, words, flush)


def test_engine_matches_the_reference_through_heap_rebuilds(monkeypatch):
    rebuilds = []

    def heapify(heap):
        rebuilds.append(len(heap))
        heapq.heapify(heap)

    rng = np.random.default_rng(7)
    space, reqs = gen_random("line", 64, 4096, 1.0, rng)
    tree = sample_hsbt(space, rng)
    words = next(stream_words([0], range(len(tree))))
    monkeypatch.setattr(stiltwalker, "heapify", heapify)
    _assert_engine_matches_reference(tree, reqs, TimerMode.EXPONENTIAL, words, False)
    assert rebuilds
