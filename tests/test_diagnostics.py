from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymatch import diagnostics
from delaymatch.core import Schedule, make_requests, total_cost
from delaymatch.diagnostics import track_potentials, verify_cost_identities
from delaymatch.embedding import build_hsbt, sample_hsbt, tree_metric
from delaymatch.errors import (
    IdentityViolation,
    InvariantViolation,
    OutOfDomain,
    TraceMismatch,
)
from delaymatch.instances import gen_random
from delaymatch.offline import greedy_mpmd, optimal_mpmd
from delaymatch.stiltwalker import (
    Engine,
    EngineEvent,
    EngineTrace,
    TimerMode,
    run,
    stream_words,
)

from oracles import monte_carlo_sigma_tau, recompute_state


def two_leaf_tree(w=2.0):
    return build_hsbt([-1, 0, 0], [w, 0.0, 0.0], {1: "a", 2: "b"}, alpha=2.0)


def four_leaf_tree():
    parent = [-1, 0, 0, 1, 1, 2, 2]
    weight = [4.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    return build_hsbt(parent, weight, {3: "a", 4: "b", 5: "c", 6: "d"}, alpha=2.0)


def run_with_ledger(tree, reqs, **kw):
    result = run(tree, reqs, **kw)
    space = tree_metric(tree)
    offline = optimal_mpmd(space, reqs)
    ledger = track_potentials(tree, result.trace, offline.schedule)
    online_cost = total_cost(space, reqs, result.schedule)
    return result, ledger, online_cost, offline.cost


def test_same_leaf_pair_ledger_is_pure_root_oddness():
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("a", 1.0)])
    result, ledger, online_cost, offline_cost = run_with_ledger(
        tree, reqs, mode=TimerMode.DETERMINISTIC
    )
    assert ledger.zeta == 1.0
    assert ledger.c_end == 0.0
    assert ledger.tau.sum() == 0.0
    assert ledger.sigma.sum() == 0.0
    assert online_cost.time == 1.0 and online_cost.space == 0.0
    report = verify_cost_identities(tree, ledger, online_cost, offline_cost)
    assert report.residual_space == 0.0
    assert report.residual_time == 0.0


def test_sibling_pair_time_bound_is_tight():
    w, dt = 2.0, 0.25
    tree = two_leaf_tree(w)
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", dt)])
    result, ledger, online_cost, offline_cost = run_with_ledger(
        tree, reqs, mode=TimerMode.DETERMINISTIC
    )
    assert ledger.zeta == dt
    assert ledger.c_end == w  # the flush match across the root
    assert ledger.tau_star[0] == dt
    assert ledger.sigma_star[0] == w
    report = verify_cost_identities(tree, ledger, online_cost, offline_cost)
    # offline time equals (zeta + tau*) / (height + 1) on this instance
    assert report.time_bound_margin == pytest.approx(0.0, abs=1e-12)
    assert report.gate_constant == 0.5
    assert report.provable_constant == pytest.approx(1 / 3)


def test_hand_instance_full_accounting():
    tree = four_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("c", 0.1), ("a", 5.0), ("c", 5.1)])
    result, ledger, online_cost, offline_cost = run_with_ledger(
        tree, reqs, mode=TimerMode.DETERMINISTIC
    )
    assert result.schedule.pairings == ((0, 1, 0.1 + 4.0), (2, 3, 5.1))
    assert online_cost.space == 8.0
    assert ledger.c_end == 4.0
    assert ledger.sigma[0] == 4.0
    assert ledger.zeta == pytest.approx(0.2)
    assert ledger.tau[0] == pytest.approx(4.0)
    report = verify_cost_identities(tree, ledger, online_cost, offline_cost)
    assert report.residual_space <= 1e-12
    assert report.residual_time <= 1e-12


@pytest.mark.parametrize("flush", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ledger_agrees_with_engine_counters(seed, flush):
    rng = np.random.default_rng(200 + seed)
    space, reqs = gen_random("uniform", 6, 12, horizon=4.0, rng=rng)
    tree = sample_hsbt(space, rng)
    result, ledger, online_cost, offline_cost = run_with_ledger(
        tree, reqs, seed=seed, flush=flush
    )
    assert ledger.c_end == pytest.approx(result.trace.c_end_space, abs=1e-12)
    if flush:
        verify_cost_identities(tree, ledger, online_cost, offline_cost)


def test_identity_violation_raised_on_tampered_ledger():
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 0.25)])
    result, ledger, online_cost, offline_cost = run_with_ledger(
        tree, reqs, mode=TimerMode.DETERMINISTIC
    )
    bad = type(ledger)(
        tau=ledger.tau,
        sigma=ledger.sigma,
        tau_star=ledger.tau_star,
        sigma_star=ledger.sigma_star,
        zeta=ledger.zeta + 0.5,
        c_end=ledger.c_end,
        t_end=ledger.t_end,
    )
    with pytest.raises(IdentityViolation):
        verify_cost_identities(tree, bad, online_cost, offline_cost)


def test_offline_replay_rejects_clears():
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 0.25)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC)
    with pytest.raises(TraceMismatch):
        track_potentials(
            tree, result.trace, Schedule(pairings=(), clears=((0, 1.0), (1, 1.0)))
        )


@pytest.mark.parametrize("points, pair, message", [
    (["a", "c"], (0, 1), "does not hold effective"),
    (["a", "b", "c", "d"], (0, 2), "vertex 1 is not above leaf"),
], ids=["not-effective", "not-above-leaf"])
def test_malformed_trace_match_is_trace_mismatch(points, pair, message):
    # arrivals at 0, 0.1, ... then one match across vertex 1, the parent of
    # leaves a and b; the offline schedule pairs the requests in id order
    tree = four_leaf_tree()
    events = [
        EngineEvent(0.1 * i, "arrival", tree.point_leaf[p], (i,))
        for i, p in enumerate(points)
    ]
    t_match = 0.1 * len(points)
    events.append(EngineEvent(t_match, "match", 1, pair))
    trace = EngineTrace(events=events, t_end=events[-2].t)
    ids = list(range(len(points)))
    offline = Schedule(
        pairings=tuple((a, b, t_match) for a, b in zip(ids[::2], ids[1::2]))
    )
    with pytest.raises(TraceMismatch, match=message):
        track_potentials(tree, trace, offline)


def test_partition_rejects_leaf_vertex():
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 0.25)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC)
    offline = optimal_mpmd(space, reqs)
    with pytest.raises(OutOfDomain):
        reference_partition_phases(
            tree, tree.point_leaf["a"], result.trace, offline.schedule
        )


def test_single_phase_partition_on_sibling_pair():
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 0.25)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC)
    offline = optimal_mpmd(space, reqs)
    part = reference_partition_phases(tree, 0, result.trace, offline.schedule)
    assert part.phases == ((0.0, 0.25),)
    assert part.subphases == (((0.0, 0.25),),)
    assert part.phase_classes == (0,)
    assert part.t_late == 0.0
    assert part.discontinuities == 0
    assert part.late == (0,)
    assert part.class_0 == (0,)


def test_two_phase_partition_with_hand_timeline():
    tree = four_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("c", 0.1), ("a", 5.0), ("c", 5.1)])
    result = run(tree, reqs, mode=TimerMode.DETERMINISTIC)
    offline = optimal_mpmd(space, reqs)
    # offline also pairs across the root: (0,1) at 0.1 and (2,3) at 5.1
    assert {frozenset(p[:2]) for p in offline.schedule.pairings} == {
        frozenset({0, 1}),
        frozenset({2, 3}),
    }
    v_left = tree.children[0][0]
    part = reference_partition_phases(tree, v_left, result.trace, offline.schedule)
    t_match = 0.1 + 4.0
    assert part.phases == ((0.0, t_match), (t_match, 5.1))
    assert part.subphases[0] == ((0.0, 0.1), (0.1, t_match))
    assert part.subphase_bits == ((0, 1), (0,))
    assert part.phase_classes == (1, 0)
    assert part.class_1 == (0,) and part.class_0 == (1,)
    assert part.t_late == 0.0
    assert part.discontinuities == 0


def _phases_for(tree, reqs, vertex, words):
    result = Engine(tree, reqs, words=words).run(flush=True)
    space = tree_metric(tree)
    offline = optimal_mpmd(space, reqs)
    part = reference_partition_phases(tree, vertex, result.trace, offline.schedule)
    return part.phases


def test_phase_boundaries_ignore_streams_inside_the_subtree():
    # matches on top of a vertex are driven by parities at or above it, which
    # timers inside its subtree cannot move, so reseeding those timers must
    # leave the phase boundaries untouched
    rng = np.random.default_rng(77)
    space, reqs = gen_random("uniform", 8, 16, horizon=2.0, rng=rng)
    tree = sample_hsbt(space, rng)
    vertex = next(
        v
        for v in tree.internal_vertices()
        if v != tree.root and sum(tree.is_leaf(u) for u in tree.subtree(v)) >= 2
    )
    inside = sorted(tree.subtree(vertex))
    found_multi = False
    for master in range(30):
        table = next(stream_words([master], range(len(tree))))
        base = _phases_for(tree, reqs, vertex, table)
        for variant in range(3):
            # the subtree's rows come from another seed's table
            moved = table.copy()
            moved[inside] = next(stream_words([2**32 + 3 * master + variant], inside))
            assert _phases_for(tree, reqs, vertex, moved) == base
        if len(base) >= 2:
            found_multi = True
            break
    assert found_multi, "no seed produced a multi-phase run; instance too easy"


def test_subphase_bit_constant_across_random_corpus():
    rng = np.random.default_rng(31)
    for seed in range(6):
        space, reqs = gen_random("square", 6, 12, horizon=3.0, rng=rng)
        tree = sample_hsbt(space, rng)
        result = run(tree, reqs, seed=seed)
        offline = optimal_mpmd(tree_metric(tree), reqs)
        assert_partitions_tile_the_run(tree, result.trace, offline.schedule)


def test_sigma_tau_monte_carlo_on_sibling_pair():
    w = 2.0
    tree = two_leaf_tree(w)
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 1e-6)])
    offline = optimal_mpmd(space, reqs)
    report = monte_carlo_sigma_tau(
        tree,
        reqs,
        trials=2000,
        rng=np.random.default_rng(5),
        flush=False,
        offline=offline.schedule,
    )
    # without a horizon the stake deposited at the root is w in every run and
    # its effective time is Exp(w); the two agree in expectation
    assert report.mean_sigma[0] == w
    assert report.mean_tau[0] == pytest.approx(w, rel=0.1)
    assert report.violations == ()
    assert report.tau_ratio_ok


def test_sigma_tau_with_flush_is_all_zero():
    tree = two_leaf_tree()
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 1e-6)])
    report = monte_carlo_sigma_tau(
        tree, reqs, trials=50, rng=np.random.default_rng(6), flush=True
    )
    assert report.mean_sigma[0] == 0.0
    assert report.violations == ()


# ---------------------------------------------------------------------------
# reference oracle: the offline replay as one frozenset of odd vertices per
# segment, O(|V|) per event; the library's replay must agree bit for bit
# ---------------------------------------------------------------------------

def reference_replay_offline(tree, arrivals, offline):
    """(segments (start, end, odd set), matches (t, leaf1, leaf2, lca))."""
    if offline.clears:
        raise TraceMismatch("offline replay handles pure matching schedules only")
    events = []
    for rid, (t, leaf) in arrivals.items():
        events.append((t, 0, (leaf,)))
    served = set()
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
        events.append((t, 1, (la, lb)))
    if served != set(arrivals):
        raise TraceMismatch("offline schedule leaves some requests unserved")
    events.sort(key=lambda e: (e[0], e[1]))

    parity = [0] * len(tree)

    def flip(leaf):
        v = leaf
        while v >= 0:
            parity[v] ^= 1
            v = tree.parent[v]

    segments, matches = [], []
    now = events[0][0] if events else 0.0
    for t, _, payload in events:
        if t > now:
            segments.append(
                (now, t, frozenset(v for v in range(len(tree)) if parity[v]))
            )
            now = t
        if len(payload) == 1:
            flip(payload[0])
        else:
            la, lb = payload
            if la != lb:
                flip(la)
                flip(lb)
            matches.append((t, la, lb, tree.lca(la, lb)))
    if any(parity):
        raise TraceMismatch("offline replay ended with odd vertices left over")
    return segments, matches


def reference_star_ledgers(tree, arrivals, offline):
    n_v = len(tree)
    tau_star = np.zeros(n_v)
    sigma_star = np.zeros(n_v)
    segments, matches = reference_replay_offline(tree, arrivals, offline)
    internal = [v for v in range(n_v) if not tree.is_leaf(v)]
    for a, b, odd in segments:
        dt = b - a
        for v in internal:
            u1, u2 = tree.children[v]
            tau_star[v] += dt * ((u1 in odd) + (u2 in odd))
    for t, la, lb, u in matches:
        if la != lb:
            diagnostics._deposit_star(tree, sigma_star, la, lb, u)
    return tau_star, sigma_star


def _odd_kid_counts(tree, odd):
    counts = {}
    for v in tree.internal_vertices():
        c = sum(u in odd for u in tree.children[v])
        if c:
            counts[v] = c
    return counts


# ---------------------------------------------------------------------------
# the phase partition of the paper's analysis; no command runs it, so this
# is its one copy, over both runs replayed from scratch
# ---------------------------------------------------------------------------

def reference_online_odd(tree, trace):
    """(event, odd set just after it) for every trace event, each odd set
    recomputed from scratch from the active leaves."""
    leaf_of = {}
    active = set()
    for e in trace.events:
        if e.kind == "arrival":
            leaf_of[e.requests[0]] = e.vertex
            active.add(e.vertex)
        elif e.kind == "same_leaf":
            active.remove(e.vertex)
        else:
            for rid in e.requests:
                active.remove(leaf_of[rid])
        yield e, recompute_state(tree, sorted(active)).odd


def _merge_signal(pieces_a, pieces_b, lo, hi):
    """XOR of two piecewise-constant 0/1 signals, restricted to [lo, hi)."""
    cuts = sorted(
        {lo, hi}
        | {x for a, b, _ in pieces_a for x in (a, b) if lo < x < hi}
        | {x for a, b, _ in pieces_b for x in (a, b) if lo < x < hi}
    )

    def value(pieces, t):
        for a, b, y in pieces:
            if a <= t < b:
                return y
        return 0

    out = []
    for a, b in zip(cuts, cuts[1:]):
        if b <= a:
            continue
        y = value(pieces_a, a) ^ value(pieces_b, a)
        if out and out[-1][2] == y and out[-1][1] == a:
            out[-1] = (out[-1][0], b, y)
        else:
            out.append((a, b, y))
    return out


@dataclass(frozen=True)
class PhasePartition:
    vertex: int
    phases: tuple[tuple[float, float], ...]
    subphases: tuple[tuple[tuple[float, float], ...], ...]
    subphase_bits: tuple[tuple[int, ...], ...]
    phase_classes: tuple[int, ...]   # b of the phase's final subphase
    t_late: float
    discontinuities: int             # of the mismatch signal Y on [0, t_late)
    early: tuple[int, ...]           # phases contained in [0, t_late)
    late: tuple[int, ...]

    @property
    def class_0(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.phase_classes) if c == 0)

    @property
    def class_1(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.phase_classes) if c == 1)


def reference_partition_phases(tree, vertex, trace, offline):
    """Phase/subphase structure of one internal vertex against both runs.

    Phase boundaries are online matches on top of `vertex` (across a proper
    ancestor, removing a request from the vertex's subtree); subphase
    boundaries add offline matches across or on top of it.  The per-subphase
    bit b is the XOR of the four child parities (online and offline); its
    constancy inside every subphase is asserted.  Both runs are replayed
    from scratch, the two signals merged per cut by a scan of every piece,
    and each subphase's bit read by a scan of every merged piece.
    """
    if tree.is_leaf(vertex):
        raise OutOfDomain(f"vertex {vertex} is a leaf")
    t_end = trace.t_end
    arrivals = diagnostics._trace_arrivals(trace)
    in_subtree = set(tree.subtree(vertex))
    ancestors = set(tree.ancestors(vertex))
    u1, u2 = tree.children[vertex]

    boundaries = []
    for e in trace.events:
        if e.kind not in ("match", "flush") or e.vertex not in ancestors:
            continue
        if any(arrivals[r][1] in in_subtree for r in e.requests):
            if 0.0 < e.t < t_end:
                boundaries.append(e.t)
    phase_cuts = [0.0] + sorted(set(boundaries)) + [t_end]
    phases = [
        (a, b) for a, b in zip(phase_cuts, phase_cuts[1:]) if b > a
    ] or [(0.0, t_end)]

    segments, matches = reference_replay_offline(tree, arrivals, offline)
    offline_pieces = [
        (a, b, int((u1 in odd) != (u2 in odd))) for a, b, odd in segments
    ]
    sub_cut_times = []
    for t, la, lb, u in matches:
        tops = (u == vertex) or (
            u in ancestors and ((la in in_subtree) != (lb in in_subtree))
        )
        if tops and 0.0 < t < t_end:
            sub_cut_times.append(t)

    online_pieces = []
    prev_t, y = 0.0, 0
    for e, odd in reference_online_odd(tree, trace):
        if e.t > prev_t:
            online_pieces.append((prev_t, e.t, y))
            prev_t = e.t
        y = int((u1 in odd) != (u2 in odd))
    if t_end > prev_t:
        online_pieces.append((prev_t, t_end, y))
    y_pieces = _merge_signal(online_pieces, offline_pieces, 0.0, t_end)

    def bit_on(a, b):
        vals = {y for pa, pb, y in y_pieces if min(pb, b) > max(pa, a)}
        if len(vals) > 1:
            raise InvariantViolation(
                f"alternation bit changed inside subphase [{a},{b}) of {vertex}"
            )
        return vals.pop() if vals else 0

    subphases, bits, classes = [], [], []
    for a, b in phases:
        cuts = [a] + sorted(t for t in set(sub_cut_times) if a < t < b) + [b]
        spans = tuple((x, y) for x, y in zip(cuts, cuts[1:]) if y > x)
        subphases.append(spans)
        span_bits = tuple(bit_on(x, y) for x, y in spans)
        bits.append(span_bits)
        classes.append(span_bits[-1] if span_bits else 0)

    w = tree.weight[vertex]
    suffix_y = suffix_n = 0.0
    suffixes = []
    for a, b, y in reversed(y_pieces):
        suffixes.append((a, b, y, suffix_y, suffix_n))
        if y:
            suffix_y += b - a
        else:
            suffix_n += b - a
    t_late = t_end
    for a, b, y, from_b_y, from_b_n in reversed(suffixes):
        at_a_y = from_b_y + (b - a) * y
        at_a_n = from_b_n + (b - a) * (1 - y)
        if min(at_a_y, at_a_n) <= w:
            t_late = a
            break
        shrinking = at_a_y if y else at_a_n
        if shrinking - (b - a) <= w:
            t_late = a + (shrinking - w)
            break
    k = sum(
        1
        for (a1, b1, y1), (a2, b2, y2) in zip(y_pieces, y_pieces[1:])
        if y1 != y2 and b1 < t_late
    )
    early = tuple(i for i, (a, b) in enumerate(phases) if b <= t_late)
    late = tuple(i for i in range(len(phases)) if i not in early)
    return PhasePartition(
        vertex=vertex,
        phases=tuple(phases),
        subphases=tuple(subphases),
        subphase_bits=tuple(bits),
        phase_classes=tuple(classes),
        t_late=t_late,
        discontinuities=k,
        early=early,
        late=late,
    )


def assert_replay_matches_reference(tree, arrivals, offline):
    segments, matches = reference_replay_offline(tree, arrivals, offline)
    got_segments, got_matches = [], []
    prev_t = None
    steps = diagnostics._offline_steps(tree, arrivals, offline)
    for t, match, parity, odd_kids in diagnostics._replay(tree, steps):
        if prev_t is not None and t > prev_t:
            odd = frozenset(v for v, p in enumerate(parity) if p)
            got_segments.append((prev_t, t, odd, dict(odd_kids)))
        prev_t = t
        if match is not None:
            got_matches.append((t, *match))
    assert got_matches == matches
    assert got_segments == [
        (a, b, odd, _odd_kid_counts(tree, odd)) for a, b, odd in segments
    ]
    tau_star, sigma_star = diagnostics._star_ledgers(tree, arrivals, offline)
    ref_tau, ref_sigma = reference_star_ledgers(tree, arrivals, offline)
    assert [x.hex() for x in tau_star] == [x.hex() for x in ref_tau]
    assert [x.hex() for x in sigma_star] == [x.hex() for x in ref_sigma]


def assert_partitions_tile_the_run(tree, trace, offline):
    """Every internal vertex's phases tile [0, t_end) and its subphases tile
    each phase, one bit per subphase; the reference raises
    InvariantViolation if a subphase's bit changes inside it."""
    for v in tree.internal_vertices():
        part = reference_partition_phases(tree, v, trace, offline)
        assert part.phases[0][0] == 0.0
        assert part.phases[-1][1] == trace.t_end
        for (a, b), spans, bits in zip(part.phases, part.subphases, part.subphase_bits):
            assert spans[0][0] == a and spans[-1][1] == b
            assert len(spans) == len(bits)


@pytest.mark.parametrize("kind", ["line", "square", "uniform"])
@pytest.mark.parametrize("seed", range(4))
def test_offline_replay_matches_reference_on_seeded_instances(kind, seed):
    rng = np.random.default_rng(900 + seed)
    space, reqs = gen_random(kind, 4 + 2 * seed, 8 + 2 * seed, horizon=3.0, rng=rng)
    tree = sample_hsbt(space, rng)
    space_t = tree_metric(tree)
    result = run(tree, reqs, seed=seed)
    arrivals = diagnostics._trace_arrivals(result.trace)
    for offline in (optimal_mpmd(space_t, reqs), greedy_mpmd(space_t, reqs)):
        assert_replay_matches_reference(tree, arrivals, offline.schedule)
        assert_partitions_tile_the_run(tree, result.trace, offline.schedule)


@st.composite
def tied_offline_instances(draw):
    """A sampled tree, integer arrival times and a random offline schedule.

    Requests share leaves (same-leaf offline pairs) and match times are
    integers, so matches tie with arrivals and with each other.
    """
    seed = draw(st.integers(0, 2**16))
    n_points = draw(st.integers(2, 6))
    rng = np.random.default_rng(seed)
    space, _ = gen_random("square", n_points, 2, horizon=1.0, rng=rng)
    tree = sample_hsbt(space, rng)
    n_req = 2 * draw(st.integers(1, 5))
    times = draw(st.permutations(range(2 * n_req)))[:n_req]
    points = draw(
        st.lists(st.sampled_from(space.points), min_size=n_req, max_size=n_req)
    )
    reqs = make_requests(space, list(zip(points, map(float, times))))
    arrival = {r.id: r.t for r in reqs}
    order = draw(st.permutations(range(n_req)))
    pairings = []
    for a, b in zip(order[::2], order[1::2]):
        delay = draw(st.integers(0, 3))
        pairings.append((a, b, max(arrival[a], arrival[b]) + delay))
    return tree, reqs, Schedule(pairings=tuple(pairings))


@settings(max_examples=60, deadline=None)
@given(tied_offline_instances())
def test_offline_replay_matches_reference_hypothesis(instance):
    tree, reqs, offline = instance
    result = run(tree, reqs, seed=1)
    arrivals = diagnostics._trace_arrivals(result.trace)
    assert_replay_matches_reference(tree, arrivals, offline)
    assert_partitions_tile_the_run(tree, result.trace, offline)
