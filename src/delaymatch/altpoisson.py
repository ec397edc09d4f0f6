"""Alternating exponential digestion of a two-color timeline.

A *coloring* assigns each instant of a window [t0, t0+gamma) one of color 1,
color 2, or no color, piecewise-constantly.  The alternation process starts
at T_0 = t0 and runs iterations j = 1, 2, ...: iteration j draws an
independent Exp(lambda) threshold Z_j and consumes ("digests") the volume of
color i time (i = 1 for odd j, 2 for even j) from T_{j-1} onward; it ends at

    T_j = max { t <= t0+gamma : volume_i(T_{j-1}, t) <= Z_j },

i.e. at the instant the accumulated color-i volume first exceeds Z_j, pushed
right across any zero-volume stretch.  An iteration with T_j < t0+gamma is
*meaningful*; N counts meaningful iterations (once T_j hits the window end,
all later iterations are stuck there).  G_j is the volume digested by
iteration j, including the final unfinished iteration's partial digest.

Exact laws verified by the test-suite (and checkable via `verify_digestion`):

* conditional digest:  E[G_j | T_{j-1} = t]  =  (1/lambda) (1 - e^{-lambda V})
  with V the remaining color volume, so in particular for iteration 1;
* digest identity:     E[sum_j G_j]  =  E[N] / lambda;
* alternation count:   N <= K+1 surely (K = color discontinuity count), and
  N is stochastically dominated by 1 + 2 Pois(lambda * min(V1, V2)).

The law of N is exact (`count_law`).  Iteration j, of color c, ends inside
the color-c run where its threshold runs out, and iteration j+1 digests
nothing before that run ends: a Markov chain on (next color, start), a start
being t0 or a run end.  From a start, the iteration ends in its color's run
r with probability e^{-lambda a} - e^{-lambda b}, a and b the color volumes
from the start to r's two ends; the rest, e^{-lambda V}, runs off the
window.  The sample only tests the simulator against that law.

Sampling.  `Coloring` keeps each color's (start, end) runs, and one kernel,
`_advance`, digests an iteration by walking only its color's runs;
`simulate_app` draws one threshold per iteration and returns the whole
realization.  `verify_digestion` walks the chain that `count_law` solves:
per call it lays out, for each state, the runs an iteration from there
walks, each with the digest before it (`_row`, `_advance`'s float operations
in its order), so a draw costs one pass over a short row, and an iteration
that ends in run r moves to state r+1.  One rule keeps this exact: an end
that rounds below its run's start (the room left of a threshold can be -1
ulp after a run it passed) lies before that run, so the next row is built
from that very time.  It keeps only each realization's total, first digest
and count, and draws thresholds DRAW_BLOCK at a time.  numpy's block draws
equal its scalar draws bit for bit, so the report equals that of a
per-trial loop of `simulate_app`, at about 0.8 us per realization instead
of 7 (the benchmark's four colorings, one core of a 2-vCPU host).  The
price is the generator contract: `verify_digestion` may leave its generator
up to one block further along than that loop would, so give it a generator
whose later draws nothing else relies on.

The rate-varying form replaces the unit-rate exponential clock by an
inhomogeneous one with piecewise-constant rate profile bounded by a cap;
lower rates only lengthen iterations, so the conditional-digest law becomes
an inequality (>=) against the cap's closed form.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from .errors import ConfigInvalid, InstanceLoadError, InvariantViolation, RateAboveCap

__all__ = [
    "Coloring",
    "AppRealization",
    "AppReport",
    "closed_form_digest",
    "count_law",
    "simulate_app",
    "simulate_rate_varying",
    "verify_digestion",
    "load_coloring",
    "dump_coloring",
]

Color = int | None

# false-alarm rate of one sampled check of the counts against the exact law
LAW_ALPHA = 1e-6
# thresholds drawn per generator call in verify_digestion
DRAW_BLOCK = 4096


class Coloring:
    """Piecewise-constant color assignment on a finite window.

    Segments must tile [t0, t0+gamma) contiguously with finite ends; adjacent
    segments of equal color are merged, so the discontinuity count K is well
    defined.  `runs[color]` holds the (start, end) segments of color 1 and of
    color 2, in time order.
    """

    def __init__(self, segments: list[tuple[float, float, Color]]):
        if not segments:
            raise ConfigInvalid("coloring needs at least one segment")
        merged: list[list] = []
        prev_end = None
        for start, end, color in segments:
            if isinstance(color, bool) or color not in (1, 2, None):
                raise ConfigInvalid(f"color must be 1, 2 or null, got {color!r}")
            if end <= start:
                raise ConfigInvalid(f"empty segment [{start},{end})")
            if prev_end is not None and start != prev_end:
                raise ConfigInvalid(f"segments not contiguous at t={start}")
            prev_end = end
            if merged and merged[-1][2] == color:
                merged[-1][1] = end
            else:
                merged.append([start, end, color])
        self.segments = tuple((s, e, c) for s, e, c in merged)
        runs = {1: [], 2: []}
        for s, e, c in self.segments:
            if c is not None:
                runs[c].append((s, e))
        self.runs = {c: tuple(r) for c, r in runs.items()}
        self.t0 = self.segments[0][0]
        self.t1 = self.segments[-1][1]
        # contiguity and non-empty segments leave only the window's two ends
        # free to be NaN or infinite
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ConfigInvalid(f"window [{self.t0},{self.t1}) is not finite")
        self.gamma = self.t1 - self.t0
        self.discontinuities = len(self.segments) - 1
        self._starts = [s for s, _, _ in self.segments]

    def color_at(self, t: float) -> Color:
        if not (self.t0 <= t < self.t1):
            raise ConfigInvalid(f"t={t} outside the colored window")
        i = bisect_right(self._starts, t) - 1
        return self.segments[i][2]

    def volume(self, color: int, a: float, b: float) -> float:
        """Measure of {t in [a,b) : c(t) == color}."""
        if color not in (1, 2):
            raise ConfigInvalid("volume is defined for colors 1 and 2")
        total = 0.0
        for s, e in self.runs[color]:
            total += max(0.0, min(e, b) - max(s, a))
        return total


def closed_form_digest(remaining_volume: float, lam: float) -> float:
    """E[min(Exp(lambda), V)] = (1/lambda)(1 - e^(-lambda V))."""
    return -math.expm1(-lam * remaining_volume) / lam


@dataclass(frozen=True)
class AppRealization:
    boundaries: tuple[float, ...]   # T_1 .. T_J (last one may sit at the window end)
    digests: tuple[float, ...]      # G_1 .. G_J
    n_meaningful: int               # N: every T_j but the last is before t1

    @property
    def total_digest(self) -> float:
        # left to right on every interpreter: sum() compensates from 3.12 on
        total = 0.0
        for g in self.digests:
            total += g
        return total


def _alternate(coloring: Coloring, draw_threshold, advance) -> AppRealization:
    """Common alternation loop; `advance(t_prev, color, z)` -> (T_j, G_j)."""
    boundaries: list[float] = []
    digests: list[float] = []
    t = coloring.t0
    j = 0
    while t < coloring.t1:
        j += 1
        color = 1 if j % 2 == 1 else 2
        z = draw_threshold()
        t, digested = advance(t, color, z)
        boundaries.append(t)
        digests.append(digested)
    return AppRealization(
        boundaries=tuple(boundaries),
        digests=tuple(digests),
        n_meaningful=len(boundaries) - 1,
    )


def _check_rate(lam: float) -> None:
    if not 0.0 < lam < math.inf:
        raise ConfigInvalid(f"rate must be positive and finite, got {lam!r}")


def _advance(
    runs: tuple[tuple[float, float], ...], t_prev: float, z: float, t1: float
) -> tuple[float, float]:
    """One iteration over its color's runs: digest up to z from t_prev on.

    Returns (T_j, G_j).  Segments of other colors digest nothing, so they
    are skipped; an iteration that outruns its color's last run ends at the
    window end t1.
    """
    digested = 0.0
    for s, e in runs:
        if e <= t_prev:
            continue
        s = max(s, t_prev)
        room = z - digested
        if e - s > room:
            return s + room, z
        digested += e - s
    return t1, digested  # window exhausted mid-iteration


def simulate_app(
    coloring: Coloring, lam: float, rng: np.random.Generator
) -> AppRealization:
    """One realization of the alternation process at constant rate lambda."""
    _check_rate(lam)
    runs, t1 = coloring.runs, coloring.t1
    return _alternate(
        coloring,
        lambda: float(rng.exponential(1.0 / lam)),
        lambda t_prev, color, z: _advance(runs[color], t_prev, z, t1),
    )


@functools.lru_cache(maxsize=16)
def _rate_pieces(
    coloring: Coloring, rate_segments: tuple[tuple[float, float, float], ...]
) -> tuple[tuple[float, float, Color, float], ...]:
    """Both partitions refined to common (start, end, color, rate) pieces.

    Built once per (coloring, profile) and shared by every realization;
    colorings hash by identity, so each Coloring object has its own entry.
    """
    cuts = sorted(
        {coloring.t0, coloring.t1}
        | {s for s, _, _ in coloring.segments}
        | {e for _, e, _ in coloring.segments}
        | {x for s, e, _ in rate_segments for x in (s, e)}
    )
    cuts = [c for c in cuts if coloring.t0 <= c <= coloring.t1]

    def rate_at(t: float) -> float:
        for s, e, r in rate_segments:
            if s <= t < e:
                return r
        raise ConfigInvalid(f"rate profile does not cover t={t}")

    return tuple(
        (a, b, coloring.color_at(a), rate_at(a)) for a, b in zip(cuts, cuts[1:])
    )


def simulate_rate_varying(
    coloring: Coloring,
    rate_segments: list[tuple[float, float, float]],
    cap: float,
    rng: np.random.Generator,
) -> AppRealization:
    """Alternation with a piecewise-constant clock rate bounded by `cap`.

    Iteration j ends when the rate-weighted color volume since T_{j-1}
    reaches an Exp(1) threshold; the digest G_j is still the unweighted
    color volume consumed.
    """
    if cap <= 0:
        raise ConfigInvalid("rate cap must be positive")
    for s, e, r in rate_segments:
        if r < 0:
            raise ConfigInvalid(f"negative rate on [{s},{e})")
        if r > cap * (1 + 1e-12):
            raise RateAboveCap(f"rate {r} on [{s},{e}) exceeds cap {cap}")

    pieces = _rate_pieces(coloring, tuple(map(tuple, rate_segments)))

    def advance(t_prev: float, color: int, z: float) -> tuple[float, float]:
        weighted = 0.0
        digested = 0.0
        t = t_prev
        for s, e, c, r in pieces:
            if e <= t_prev:
                continue
            s = max(s, t_prev)
            if c == color:
                if r > 0 and (e - s) * r > z - weighted:
                    dt = (z - weighted) / r
                    return s + dt, digested + dt
                weighted += (e - s) * r
                digested += e - s
            t = e
        return t, digested

    return _alternate(coloring, lambda: float(rng.exponential(1.0)), advance)


@dataclass(frozen=True)
class AppReport:
    trials: int
    lam: float
    identity_rel_error: float        # | lam*mean(G) - mean(N) | / mean(N)
    first_digest_rel_error: float    # iteration-1 mean digest vs closed form
    count_bound_violations: int      # realizations with N > K+1
    dominance_ok: bool               # the exact law of N is dominated by 1+2*Pois
    dominance_margin: float          # smallest slack of that dominance
    law_distance: float              # L1 distance of the sampled N from the law
    law_ok: bool                     # that distance is below its LAW_ALPHA bound

    def to_dict(self) -> dict:
        return asdict(self)


@np.errstate(over="ignore")  # lambda * volume may pass the float range; e^-inf is 0
def count_law(coloring: Coloring, lam: float) -> tuple[np.ndarray, float]:
    """Exact (P(N = k) for k = 0 .. K+1, E[sum_j G_j]) at rate lambda; row n
    of `mass` is the chain's law over its states after n iterations."""
    _check_rate(lam)
    vol = {1: 0.0, 2: 0.0}  # color volume from t0 to the end of the segment so far
    runs, states = [], [(1, 0.0)]  # state r+1 is run r's end, with the other color
    for s, e, c in coloring.segments:
        if c is not None:
            runs.append((c, vol[c], vol[c] + (e - s)))
            vol[c] += e - s
            states.append((3 - c, vol[3 - c]))
    run_color, starts, ends = np.array(runs).reshape(-1, 3).T
    color, u = np.array(states).T
    # hop[i, r]: from state i, the iteration ends in run r; earlier runs have a = b = 0
    a, b = np.maximum(starts - u[:, None], 0.0), np.maximum(ends - u[:, None], 0.0)
    hop = np.exp(-lam * a) * -np.expm1(-lam * (b - a)) * (run_color == color[:, None])
    rest = np.where(color == 1, vol[1], vol[2]) - u
    mass = np.zeros((coloring.discontinuities + 2, len(states)))
    mass[0, 0] = 1.0
    # the chain only moves forward: after n iterations it sits at state n or
    # later, and state i ends only in runs r >= i (earlier ones have hop +0.0)
    for n in range(coloring.discontinuities + 1):
        mass[n + 1, n + 1:] = (mass[n, n:, None] * hop[n:, n:]).sum(axis=0)
    law = (mass * np.exp(-lam * rest)).sum(axis=1)
    return law, float(mass.sum(axis=0) @ [closed_form_digest(v, lam) for v in rest])


def _row(
    runs: list[tuple[float, float, int]], u: float, color: int
) -> tuple[tuple[tuple[float, float, float, int], ...], float]:
    """The walk of a `color` iteration from time u, as `_advance` makes it.

    One (e - s, digest before the run, s, run index) per run of `color` that
    ends after u, s clamped to u, then the digest of an iteration that
    outruns them all; `_advance`'s float operations in its order.
    """
    row, digested = [], 0.0
    for r, (s, e, c) in enumerate(runs):
        if c == color and e > u:
            s = max(s, u)
            row.append((e - s, digested, s, r))
            digested += e - s
    return tuple(row), digested


def verify_digestion(
    coloring: Coloring, lam: float, trials: int, rng: np.random.Generator
) -> AppReport:
    """Exact and sampled checks of the digestion laws on one coloring.

    Dominance and identity are checked on `count_law`.  The sample walks a
    table of `_row`s, one per chain state, built for this call; an end that
    rounds below its run's start gets its next row built from that time.
    The sampled fields equal, bit for bit, `trials` runs of `simulate_app` on
    `rng`, but `rng` may be left up to one block of DRAW_BLOCK draws further
    along.
    """
    _check_rate(lam)
    if trials < 1:
        raise ConfigInvalid(f"trials must be at least 1, got {trials}")
    # solved first, so that its O(K^2) arrays are gone before the table's rows come
    law, digest = count_law(coloring, lam)
    runs = [seg for seg in coloring.segments if seg[2] is not None]
    # row i is the walk from chain state i, numbered as in count_law
    table = [_row(runs, coloring.t0, 1), *(_row(runs, e, 3 - c) for _, e, c in runs)]
    t1 = coloring.t1
    # thresholds DRAW_BLOCK at a time, a block drawn when the last one runs out
    blocks = iter(lambda: rng.exponential(1.0 / lam, DRAW_BLOCK).tolist(), None)
    draw = chain.from_iterable(blocks).__next__
    totals = np.empty(trials)
    firsts = np.empty(trials)
    counts = np.empty(trials, dtype=int)
    for i in range(trials):
        row, rest = table[0]
        total = 0.0
        n = 0
        z = first = draw()
        while True:
            for w, digested, s, r in row:
                room = z - digested
                if w > room:
                    break
            else:
                total += rest  # outran its color's last run: ends at t1
                break
            total += z
            t = s + room
            if t >= t1:
                break
            n += 1
            # an end rounded below s lies before run r: walk on from t itself
            row, rest = table[r + 1] if t >= s else _row(runs, t, 3 - runs[r][2])
            z = draw()
        totals[i] = total
        # n > 0: iteration 1 ended in a run, digesting its threshold; else it is all
        firsts[i] = first if n else total
        counts[i] = n

    mean_n = float(counts.mean())
    mean_g = float(totals.mean())
    if mean_n == 0.0:
        identity_err = abs(lam * mean_g)
    else:
        identity_err = abs(lam * mean_g - mean_n) / mean_n

    v1 = coloring.volume(1, coloring.t0, coloring.t1)
    expected_first = closed_form_digest(v1, lam)
    if expected_first == 0.0:
        first_err = abs(float(firsts.mean()))
    else:
        first_err = abs(float(firsts.mean()) - expected_first) / expected_first

    k = coloring.discontinuities
    violations = int((counts > k + 1).sum())

    expected_n = law @ np.arange(k + 2)
    if not math.isclose(lam * digest, expected_n, rel_tol=1e-9, abs_tol=1e-18):
        raise InvariantViolation(f"lambda E[G] {lam * digest} != E[N] {expected_n}")
    # P(N >= L) <= P(Pois(mu) >= L // 2) at L = 2 .. K+2
    # e^-mu is 0 past mu = 746, and so is every pmf term; the cap keeps out 0 * inf
    mu = min(lam * min(v1, coloring.volume(2, coloring.t0, coloring.t1)), 1e300)
    pmf = np.cumprod([math.exp(-mu), *(mu / m for m in range(1, k // 2 + 1))])
    tail = 1.0 - np.append(0.0, pmf.cumsum())  # P(Pois(mu) >= m)
    at_least = np.append(law[::-1].cumsum()[::-1], 0.0)[2:]
    margin = float((tail[np.arange(2, k + 3) // 2] - at_least).min())
    # Bretagnolle-Huber-Carol: P(|hist - law|_1 >= eps) <= 2^(K+2) e^(-n eps^2 / 2)
    hist = np.bincount(counts, minlength=k + 2) / trials
    distance = float(np.abs(hist - np.pad(law, (0, len(hist) - k - 2))).sum())
    eps = math.sqrt(2.0 * ((k + 2) * math.log(2.0) - math.log(LAW_ALPHA)) / trials)
    return AppReport(
        trials=trials,
        lam=lam,
        identity_rel_error=identity_err,
        first_digest_rel_error=first_err,
        count_bound_violations=violations,
        dominance_ok=margin >= -1e-12,
        dominance_margin=margin,
        law_distance=distance,
        law_ok=distance < eps,
    )


def load_coloring(path: str) -> Coloring:
    """Read a coloring from JSON: [{"start","end","color"}], color 1|2|null."""
    try:
        with open(path) as fh:
            rows = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceLoadError(f"cannot read coloring {path}: {exc}") from exc
    if not isinstance(rows, list):
        raise InstanceLoadError("coloring file must hold a JSON array")
    try:
        segs = [(float(r["start"]), float(r["end"]), r["color"]) for r in rows]
    except (TypeError, KeyError, ValueError) as exc:
        raise InstanceLoadError(f"bad coloring row: {exc}") from exc
    return Coloring(segs)


def dump_coloring(coloring: Coloring, path: str) -> None:
    rows = [{"start": s, "end": e, "color": c} for s, e, c in coloring.segments]
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
