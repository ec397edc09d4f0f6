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
  N is stochastically dominated by 1 + 2 Pois(lambda * min(V1, V2)); the
  sampled check (`count_dominance`) is an exact binomial test per level
  with a Bonferroni correction, so a correct run fails it with probability
  at most DOMINANCE_ALPHA.

Sampling.  `Coloring` keeps each color's (start, end) runs, and one kernel,
`_advance`, digests an iteration by walking only its color's runs.
`simulate_app` draws one threshold per iteration and returns the whole
realization.  `verify_digestion` runs the same kernel in one flat loop over
its trials, keeps only each realization's total, first digest and count,
and draws thresholds DRAW_BLOCK at a time.  numpy's block draws equal its
scalar draws bit for bit, so the report equals that of a per-trial loop of
`simulate_app`, at about 1.5 us per realization instead of 7 (the benchmark's
four colorings, one core of a 2-vCPU host).  The price is the generator
contract: `verify_digestion` may leave its generator up to one block further
along than that loop would, so give it a generator whose later draws nothing
else relies on.

The rate-varying form replaces the unit-rate exponential clock by an
inhomogeneous one with piecewise-constant rate profile bounded by a cap;
lower rates only lengthen iterations, so the conditional-digest law becomes
an inequality (>=) against the cap's closed form.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy import stats as _sps

from .errors import ConfigInvalid, InstanceLoadError, InvariantViolation, RateAboveCap

__all__ = [
    "Coloring",
    "AppRealization",
    "AppReport",
    "closed_form_digest",
    "count_dominance",
    "simulate_app",
    "simulate_rate_varying",
    "verify_digestion",
    "load_coloring",
    "dump_coloring",
]

Color = int | None

# family-wise false-alarm rate of one sampled dominance check
DOMINANCE_ALPHA = 1e-6
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
    return (1.0 - math.exp(-lam * remaining_volume)) / lam


@dataclass(frozen=True)
class AppRealization:
    boundaries: tuple[float, ...]   # T_1 .. T_J (last one may sit at the window end)
    digests: tuple[float, ...]      # G_1 .. G_J
    n_meaningful: int               # N
    n_odd: int                      # meaningful odd iterations  (color 1)
    n_even: int                     # meaningful even iterations (color 2)

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
    n = sum(1 for b in boundaries if b < coloring.t1)
    n_odd = sum(1 for k, b in enumerate(boundaries) if b < coloring.t1 and k % 2 == 0)
    n_even = n - n_odd
    if not (n_even <= n_odd <= n_even + 1):
        raise InvariantViolation("odd/even alternation counts out of balance")
    return AppRealization(
        boundaries=tuple(boundaries),
        digests=tuple(digests),
        n_meaningful=n,
        n_odd=n_odd,
        n_even=n_even,
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

    # refine both partitions to common pieces: (start, end, color, rate)
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

    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        pieces.append((a, b, coloring.color_at(a), rate_at(a)))

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
    dominance_ok: bool               # N dominated by 1+2*Pois at DOMINANCE_ALPHA
    dominance_margin: float          # smallest adjusted p-value minus the alpha

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "lam": self.lam,
            "identity_rel_error": self.identity_rel_error,
            "first_digest_rel_error": self.first_digest_rel_error,
            "count_bound_violations": self.count_bound_violations,
            "dominance_ok": self.dominance_ok,
            "dominance_margin": self.dominance_margin,
        }


def count_dominance(
    counts: np.ndarray, mu: float, discontinuities: int
) -> tuple[bool, float]:
    """Test sampled counts N against N <=_st 1 + 2 Pois(mu); (ok, margin).

    At level L the law bounds P(N >= L) by q_L = P(Pois(mu) >= L // 2), so
    the number of samples with N >= L is stochastically at most
    Binomial(n, q_L) and its exact upper tail is a valid p-value.  The
    levels tested are L = 2 .. K+2: levels 0 and 1 hold surely, and every
    level above K+2 is empty while the separately checked cap N <= K+1
    holds.  Bonferroni over these K+1 levels: the check fails when some
    p_L <= DOMINANCE_ALPHA / (K+1), so a correct run fails it with
    probability at most DOMINANCE_ALPHA.  The margin is the smallest
    adjusted p-value, min_L min(1, (K+1) p_L), minus DOMINANCE_ALPHA; it is
    positive iff the check passes.
    """
    counts = np.asarray(counts, dtype=int)
    levels = np.arange(2, discontinuities + 3)
    hist = np.bincount(counts, minlength=levels[-1] + 1)
    observed = hist[::-1].cumsum()[::-1][levels]   # samples with N >= L
    q = _sps.poisson.sf(levels // 2 - 1, mu)
    p = _sps.binom.sf(observed - 1, len(counts), q)
    margin = float(np.minimum(1.0, len(levels) * p).min()) - DOMINANCE_ALPHA
    return margin > 0.0, margin


def verify_digestion(
    coloring: Coloring, lam: float, trials: int, rng: np.random.Generator
) -> AppReport:
    """Monte-Carlo check of the digestion laws on one coloring.

    Equal, field for field and bit for bit, to running `simulate_app` on
    `rng` `trials` times, but the thresholds come from `rng` in blocks of
    DRAW_BLOCK, so `rng` may be left up to one block further along.
    """
    _check_rate(lam)
    if trials < 1:
        raise ConfigInvalid(f"trials must be at least 1, got {trials}")
    runs1, runs2 = coloring.runs[1], coloring.runs[2]
    t0, t1 = coloring.t0, coloring.t1
    scale = 1.0 / lam
    draws: list[float] = []
    pos = 0
    totals = np.empty(trials)
    firsts = np.empty(trials)
    counts = np.empty(trials, dtype=int)
    for i in range(trials):
        t = t0
        total = 0.0
        first = None
        n_odd = n_even = 0
        odd = True
        while t < t1:
            if pos == len(draws):
                draws = rng.exponential(scale, DRAW_BLOCK).tolist()
                pos = 0
            t, digested = _advance(runs1 if odd else runs2, t, draws[pos], t1)
            pos += 1
            total += digested
            if first is None:
                first = digested
            if t < t1:
                if odd:
                    n_odd += 1
                else:
                    n_even += 1
            odd = not odd
        if not (n_even <= n_odd <= n_even + 1):
            raise InvariantViolation("odd/even alternation counts out of balance")
        totals[i] = total
        firsts[i] = first
        counts[i] = n_odd + n_even

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

    v2 = coloring.volume(2, coloring.t0, coloring.t1)
    ok, margin = count_dominance(counts, lam * min(v1, v2), k)
    return AppReport(
        trials=trials,
        lam=lam,
        identity_rel_error=identity_err,
        first_digest_rel_error=first_err,
        count_bound_violations=violations,
        dominance_ok=ok,
        dominance_margin=margin,
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
    except (TypeError, KeyError) as exc:
        raise InstanceLoadError(f"bad coloring row: {exc}") from exc
    return Coloring(segs)


def dump_coloring(coloring: Coloring, path: str) -> None:
    rows = [{"start": s, "end": e, "color": c} for s, e, c in coloring.segments]
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
