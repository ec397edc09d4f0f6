"""Event-driven continuous-time matching engine on a weighted binary tree.

State model.  Each leaf hosts at most one active (arrived, unserved) request:
a request arriving at a leaf that already hosts one is matched with it on the
spot at zero connection cost.  A vertex is *odd* at time t when the number of
active requests in its subtree is odd.  Odd vertices form vertex-disjoint
downward paths ("stilts"): an odd internal vertex has exactly one odd child,
so each maximal odd path runs from a head down to a single odd leaf, its
foot.  A vertex is *effective* when both its children are odd, i.e. both
children are stilt heads; its two supporting leaves are those stilts' feet.

Timers.  Every internal vertex v owns a budget B_v, drawn when v first
becomes effective and redrawn after every match across v: exponential with
mean w(v) in randomized mode, exactly w(v) in deterministic mode.  The
budget is consumed at unit rate only while v is effective and is frozen, not
redrawn, when v stops being effective.  The engine keeps it as a deadline:
v entering the effective set at t sets `deadline[v] = t + budget[v]`, and v
leaving it at t' keeps `budget[v] = deadline[v] - t'`.  So `budget[v]` is
what is left while v is not effective and what v entered with while it is,
and v's timer reads no times but those at which v itself enters or leaves.
At the deadline the two supporting requests of v are matched across v,
paying the tree distance w(v); parities of v and all its ancestors are
unchanged by such a match (one active leaves each child side), so other
effective vertices and their feet are undisturbed.

End of input.  With `flush=True` the engine stops at the last arrival time
t_end and matches across every effective vertex at once (by increasing
depth); stilt heads pair up as siblings, so this clears every remaining
active request.  The flush space cost is hard-asserted against the
(#points / 2) * w(root) ceiling.  With `flush=False` the engine keeps running
past t_end with the same timers until no active request remains.

State upkeep.  An arrival flips parity along one leaf-to-root path and a
match along the two feet-to-vertex paths below the matched vertex, so only
the vertices on those paths can change parity and only their parents can
gain or lose effectiveness.  One loop, in `Engine.run`, runs every event:
arrivals, same-leaf arrivals, timer matches and the flush's matches.  One
block in it flips those paths, updating the parity list and the effective
set along them and nowhere else.  A vertex entering the effective set
pushes (deadline, vertex) onto a heap; the next timer is the smallest entry
whose vertex is still effective with that deadline, and stale entries are
dropped as they reach the top.  A push that leaves the heap longer than
twice the effective set plus 16 rebuilds it in place from that set, so it
stays within a constant factor of it at amortised O(1) per push.  An event
thus costs O(height + log heap).  The event trace is the engine's one
record: the schedule is read off it, and neither it nor the engine keeps
state snapshots or potential ledgers.  The analysis in `diagnostics`
rebuilds the state before every event, and the ledgers tau and sigma, from
the trace alone, with the parity replay it shares with the offline schedule.

Determinism.  Each internal vertex draws from its own named RNG stream keyed
by (seed, vertex id), so runs are bit-for-bit reproducible and the timers
of one subtree can be varied while all other streams stay fixed.  The
engine takes its streams' seed words as a table, row v for vertex v, which
`stream_words` derives for many seeds at once; callers alias or reseed
streams by the rows they pass.  Stream v then yields what
`np.random.default_rng(np.random.SeedSequence((seed, v))).exponential(w(v))`
yields, call after call.  It is opened when v first becomes effective, by
seeding a PCG64 from its row and drawing a block of values, and its first
value is the first budget; a stream that uses its block up redraws a prefix
twice as long.  Leaves, vertices that never become effective and engines
without a table open none: an engine's timers are exponential exactly when
it has a table.
Streams are independent and each yields its values in the same order
whenever they are drawn, so drawing first budgets at engine start would
move no bit.
Simultaneous events are ordered: arrivals first (by request id), then vertex
timers by (depth, vertex id); vertex ids are depth-sorted, so the heap's
(deadline, vertex) order implements that rule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .core import Request, Schedule
from .embedding import Hsbt
from .errors import ConfigInvalid, InvariantViolation, OddRequestSet, UnknownLocation

__all__ = [
    "TimerMode",
    "EngineEvent",
    "EngineTrace",
    "EngineRun",
    "Engine",
    "run",
    "stream_words",
]

_M32 = 0xFFFFFFFF
_BLOCK = 8  # values drawn when a stream opens; its later blocks double
_new = tuple.__new__  # builds an EngineEvent without its Python-level __new__


# numpy's SeedSequence hash (pool size 4): the running multipliers
# init * mult^k mod 2^32 of its 16 `hashmix` calls while mixing the entropy
# in, and of its 8 output words
_HASH_A = np.array([[0x43B0D7E5 * 0x931E8875**k & _M32] for k in range(17)], np.uint32)
_HASH_B = np.array([0x8B51F9DD * 0x58F38DED**k & _M32 for k in range(9)], np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# mixing round src hashes word src for each other word d by call 4 + 3 src +
# rank(d); those words sit at pool rows src + 1 to src + 3, rotated in rounds 1, 2
_ORDER = np.r_[0:7, 8, 9, 7, 12, 10, 11, 13:16]
_XOR, _MULT = _HASH_A[_ORDER], _HASH_A[_ORDER + 1]  # columns: a slice hashes rows


def _hashmix(x: np.ndarray, calls: int | slice) -> np.ndarray:
    x = x ^ _XOR[calls]
    x *= _MULT[calls]
    x ^= x >> _SHIFT
    return x


_HASHED_ZERO = _hashmix(np.zeros(1, np.uint32), slice(2, 4))[:, :, None]  # padding


def stream_words(seeds: Sequence[int], vertices: Sequence[int]) -> Iterator[np.ndarray]:
    """Per seed s, the (len(vertices), 4) array of `SeedSequence((s, v))
    .generate_state(4, np.uint64)` over the vertices v.

    numpy splits the key into 32-bit words, low first (one per number below
    2^32, two below 2^64), zero-pads them to its pool of four and hashes the
    pool with fixed uint32 arithmetic; this runs that hash on arrays of
    keys, 64 seeds at a time.  Every key must fit the pool: a seed outside
    [0, 2^64) raises ValueError, as does a vertex id of 2^32 or more.
    """
    for s in seeds:
        if not 0 <= s < 2**64:
            raise ValueError(f"seed {s} is outside [0, 2**64)")
    v = np.asarray(vertices, dtype=np.uint64)
    if len(v) and v.max() >> np.uint64(32):
        raise ValueError("vertex ids must be below 2**32")
    hashed_v = _hashmix(v.astype(np.uint32), slice(1, 3))  # as 2nd or 3rd word
    for at in range(0, len(seeds), 64):
        block = np.array(seeds[at : at + 64], dtype=np.uint64)
        pool = np.empty((7, len(block), len(v)), dtype=np.uint32)
        pool[0] = _hashmix(block.astype(np.uint32), 0)[:, None]  # the low word
        pool[1] = hashed_v[0]
        pool[2:4] = _HASHED_ZERO
        if max(seeds[at : at + 64]) >> 32:
            wide = block >> np.uint64(32) != 0
            hi = (block[wide] >> np.uint64(32)).astype(np.uint32)
            pool[1, wide] = _hashmix(hi, 1)[:, None]
            pool[2, wide] = hashed_v[1]
        pool = pool.reshape(7, -1)
        for src in range(4):
            if src:  # word src - 1 comes round again, as the last of the others
                pool[src + 3] = pool[src - 1]
            h = _hashmix(pool[src], slice(4 + 3 * src, 7 + 3 * src))
            h *= _MIX_R
            mixed = pool[src + 1 : src + 4]  # a view: mixes in place
            mixed *= _MIX_L
            mixed -= h
            mixed ^= mixed >> _SHIFT
        out = pool.T[:, [4, 5, 6, 3, 4, 5, 6, 3]]  # words 0-3, where they ended
        out ^= _HASH_B[:8]
        out *= _HASH_B[1:]
        out ^= out >> _SHIFT
        # numpy's own uint64 view: the two 32-bit words of each, low first
        words = np.ascontiguousarray(out, dtype="<u4").view("<u8")
        yield from words.reshape(len(block), len(v), 4)


class _Words(ISeedSequence):
    """Four uint64 seed words derived ahead: PCG64 seeded with this object
    takes the state it takes from the `SeedSequence` they came from."""

    def __init__(self, words: np.ndarray):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)  # read raw

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds {len(self.words)} uint64 words")
        return self.words


def _stream_draws(
    words: np.ndarray, weight: Sequence[float], streams: dict[int, list]
) -> Callable[[int], float]:
    """The draw of an exponential engine: vertex v's next budget is the next
    value of its stream, opened from row v of `words` with a block of
    values; a stream that uses its block up redraws a prefix twice as long."""

    def draw(v: int) -> float:
        stream = streams.get(v)
        if stream is None:
            stream = streams[v] = [[], 0]
        values, used = stream
        if used == len(values):
            rng = np.random.Generator(np.random.PCG64(_Words(words[v])))
            values = stream[0] = rng.exponential(weight[v], 2 * used or _BLOCK).tolist()
        stream[1] = used + 1
        return values[used]

    return draw


class TimerMode(enum.Enum):
    EXPONENTIAL = "exponential"
    DETERMINISTIC = "deterministic"


class EngineEvent(NamedTuple):
    t: float
    kind: str                      # arrival | same_leaf | match | flush
    vertex: int | None             # matched-across vertex, or the leaf itself
    requests: tuple[int, ...]      # request ids involved


@dataclass
class EngineTrace:
    events: list[EngineEvent] = field(default_factory=list)
    t_end: float = 0.0
    c_end_space: float = 0.0       # connection cost paid by the final flush
    flushed: bool = False


@dataclass
class EngineRun:
    schedule: Schedule
    trace: EngineTrace


class Engine:
    """The matching process on one tree and request sequence; `run()` runs
    it, once.  The timer mode is the word table: with `words`, row v seeding
    vertex v's stream, budgets are exponential; without, each is w(v)."""

    def __init__(
        self, tree: Hsbt, requests: Sequence[Request], words: np.ndarray | None = None
    ):
        self.tree = tree
        self.requests = sorted(requests, key=lambda r: (r.t, r.id))
        if len(self.requests) % 2 != 0:
            raise OddRequestSet("engine needs an even number of requests")
        self._arrivals: list[tuple[float, int, int]] = []  # (t, request id, leaf)
        for r in self.requests:
            if r.point not in tree.point_leaf:
                raise UnknownLocation(f"request {r.id} at {r.point!r} not a tree leaf")
            self._arrivals.append((float(r.t), r.id, tree.point_leaf[r.point]))
        # vertex -> [values of its stream drawn so far, how many are used]
        self._streams: dict[int, list] = {}
        n_v = len(tree)
        if words is None:  # deterministic timers: every budget is w(v)
            self._draw = tree.weight.__getitem__
        elif np.ndim(words) != 2 or len(words) < n_v or np.shape(words)[1] != 4:
            shape = np.shape(words)
            raise ConfigInvalid(f"seed-word table {shape} needs {n_v} rows of 4 words")
        else:  # row v of `words` holds the seed words of vertex v's stream
            self._draw = _stream_draws(words, tree.weight, self._streams)
        self.budget: list[float | None] = [None] * n_v  # None until first effective
        self.deadline = [0.0] * n_v  # read only while the vertex is effective
        self._timers: list[tuple[float, int]] = []  # heap of (deadline, vertex)
        self._sibling = [-1] * n_v
        for c1, c2 in filter(None, tree.children):
            self._sibling[c1], self._sibling[c2] = c2, c1
        self.parity = [0] * n_v
        self.active_at: dict[int, int] = {}  # leaf -> request id
        self.effective: set[int] = set()
        self.trace = EngineTrace()
        self.trace.t_end = self.requests[-1].t if self.requests else 0.0
        self._ran = False  # the loop keeps its place in `run`'s locals

    def run(self, flush: bool = True) -> EngineRun:
        """Run the matching process to its end, once per engine; see "State
        upkeep" in the module doc.

        Arrivals and timer matches run in time order until no event remains,
        or with `flush` until the last arrival, which wins ties with timers;
        then every effective vertex is matched across by increasing id.
        """
        if self._ran:
            raise InvariantViolation("an engine runs once")
        self._ran = True
        tree, arrivals, draw = self.tree, self._arrivals, self._draw
        parent, children, root = tree.parent, tree.children, tree.root
        sibling, parity, effective = self._sibling, self.parity, self.effective
        budget, deadline, timers = self.budget, self.deadline, self._timers
        active_at, record = self.active_at, self.trace.events.append
        n, i, now = len(arrivals), 0, 0.0
        stop = n if flush else -1  # the arrival count at which the flush starts
        kind, flushed, queue = "match", [], []  # queue: popped from its end
        while True:
            if queue:
                v = queue.pop()
            elif i == stop:
                if self.trace.flushed:
                    break
                self.trace.flushed = True
                flushed = sorted(effective)
                kind, queue = "flush", flushed[::-1]
                continue
            else:
                while timers:  # drop stale tops: left the set, or re-entered since
                    d, v = timers[0]
                    if v in effective and deadline[v] == d:
                        break
                    heappop(timers)
                else:
                    d = None
                if i < n and (d is None or arrivals[i][0] <= d):
                    t, rid, leaf = arrivals[i]
                    i, v, paths = i + 1, -1, ((leaf, root),)
                    partner = active_at.pop(leaf, None)
                    if partner is None:
                        active_at[leaf] = rid
                        event = _new(EngineEvent, (t, "arrival", leaf, (rid,)))
                    else:  # zero-distance match: the standing active vanishes,
                        # so the leaf's path flips exactly once
                        event = _new(EngineEvent, (t, "same_leaf", leaf, (partner, rid)))
                elif d is not None:
                    heappop(timers)
                    t = d
                elif active_at:
                    raise InvariantViolation(
                        "stuck: active requests but no effective vertex"
                    )
                else:
                    break
                if t < now:
                    raise InvariantViolation("time went backwards")
                now = t
            if v >= 0:  # match the requests at the feet of v's two stilts
                feet = []
                for c in children[v]:
                    while children[c]:
                        c1, c2 = children[c]
                        if parity[c1] == parity[c2]:
                            raise InvariantViolation(
                                "odd vertex without a unique odd child"
                            )
                        c = c1 if parity[c1] else c2
                    feet.append(c)
                f1, f2 = feet
                pair = (active_at.pop(f1), active_at.pop(f2))
                event = _new(EngineEvent, (now, kind, v, pair))
                # above v the two flips cancel: parities there stay as they are
                paths = ((f1, v), (f2, v))
            # The one path flip.  A flip of x toggles the effectiveness of its
            # parent u exactly when x's sibling is odd, so only then is u
            # touched: entering, u draws its first budget if it has none and
            # pushes its deadline; leaving, u keeps what is left of its budget.
            for x, top in paths:
                while x != top:
                    parity[x] ^= 1
                    u = parent[x]
                    if parity[sibling[x]]:
                        if parity[x]:
                            b = budget[u]
                            if b is None:
                                b = budget[u] = draw(u)
                            deadline[u] = due = now + b
                            effective.add(u)
                            heappush(timers, (due, u))
                            if len(timers) > 2 * len(effective) + 16:
                                # mostly stale entries: keep one per effective vertex
                                timers[:] = [(deadline[w], w) for w in effective]
                                heapify(timers)
                        else:
                            budget[u] = deadline[u] - now
                            effective.discard(u)
                    x = u
            if v < 0:  # the path stopped below the root, which has no parent to toggle
                parity[root] ^= 1
            else:
                budget[v] = draw(v)
            record(event)
        if flush:
            c_end = 0.0
            for v in flushed:
                c_end += tree.weight[v]
            if active_at:
                raise InvariantViolation("flush left active requests behind")
            ceiling = (len(tree.leaf_point) / 2.0) * tree.weight[root]
            if c_end > ceiling * (1 + 1e-12):
                raise InvariantViolation(
                    f"flush space {c_end} exceeds ceiling {ceiling}"
                )
            self.trace.c_end_space = c_end
        # every event but an arrival pairs its two requests at its time
        pairings = tuple(
            (*e.requests, e.t) for e in self.trace.events if e.kind != "arrival"
        )
        return EngineRun(schedule=Schedule(pairings=pairings), trace=self.trace)


def run(
    tree: Hsbt,
    requests: Sequence[Request],
    mode: TimerMode = TimerMode.EXPONENTIAL,
    seed: int = 0,
    flush: bool = True,
) -> EngineRun:
    """Run the matching engine; returns its schedule and event trace.

    Stream v is keyed (seed, v); `seed` must lie in [0, 2^64).
    """
    exponential = mode is TimerMode.EXPONENTIAL
    words = next(stream_words([seed], range(len(tree)))) if exponential else None
    return Engine(tree, requests, words).run(flush=flush)
