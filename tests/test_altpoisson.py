import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaymatch import altpoisson
from delaymatch.altpoisson import (
    AppRealization,
    AppReport,
    Coloring,
    closed_form_digest,
    count_law,
    dump_coloring,
    load_coloring,
    simulate_app,
    verify_digestion,
)
from delaymatch.errors import ConfigInvalid, InvariantViolation

from oracles import alternate, color_at, rate_pieces, simulate_rate_varying


class StubRng:
    """Stands in for a Generator; hands out preset threshold draws."""

    def __init__(self, values):
        self.values = list(values)

    def exponential(self, scale=1.0, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])


def random_coloring(rng, max_segments=6, gamma=4.0):
    k = int(rng.integers(1, max_segments + 1))
    cuts = np.sort(rng.uniform(0, gamma, size=k - 1))
    edges = [0.0, *map(float, cuts), gamma]
    colors = [int(c) if c else None for c in rng.integers(0, 3, size=k)]
    segs = [
        (a, b, colors[i])
        for i, (a, b) in enumerate(zip(edges, edges[1:]))
        if b > a
    ]
    return Coloring(segs)


def test_coloring_merges_and_counts_discontinuities():
    c = Coloring([(0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, None)])
    assert c.segments == ((0, 2, 1), (2, 3, 2), (3, 4, None))
    assert c.discontinuities == 2
    assert c.gamma == 4.0


def test_coloring_rejects_bad_input():
    with pytest.raises(ConfigInvalid):
        Coloring([])
    with pytest.raises(ConfigInvalid):
        Coloring([(0, 1, 1), (1.5, 2, 2)])  # gap
    with pytest.raises(ConfigInvalid):
        Coloring([(0, 0, 1)])  # empty segment
    with pytest.raises(ConfigInvalid):
        Coloring([(0, 1, 3)])  # unknown color
    with pytest.raises(ConfigInvalid):
        Coloring([(0, 1, True)])  # a bool is not color 1
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigInvalid):
            Coloring([(0, bad, 1)])
        with pytest.raises(ConfigInvalid):
            Coloring([(-bad, 0, 1)])


def test_color_at_boundaries():
    c = Coloring([(0, 1, 1), (1, 2, None), (2, 3, 2)])
    assert color_at(c, 0.0) == 1
    assert color_at(c, 1.0) is None
    assert color_at(c, 2.999) == 2
    with pytest.raises(ConfigInvalid):
        color_at(c, 3.0)
    with pytest.raises(ConfigInvalid):
        color_at(c, -0.1)


def test_volume_matches_riemann_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        c = random_coloring(rng)
        grid = np.linspace(c.t0, c.t1, 40001)
        step = grid[1] - grid[0]
        mids = (grid[:-1] + grid[1:]) / 2
        colors = np.array([color_at(c, float(t)) or 0 for t in mids])
        for color in (1, 2):
            a, b = sorted(rng.uniform(c.t0, c.t1, size=2))
            inside = (mids >= a) & (mids < b) & (colors == color)
            want = float(inside.sum()) * step
            assert c.volume(color, float(a), float(b)) == pytest.approx(
                want, abs=3 * step
            )


def test_closed_form_digest_values():
    assert closed_form_digest(0.0, 3.0) == 0.0
    assert closed_form_digest(0.5, 2.0) == pytest.approx((1 - math.exp(-1)) / 2)
    assert closed_form_digest(1e9, 1.0) == pytest.approx(1.0)


def test_threshold_reached_inside_segment():
    c = Coloring([(0, 1, 1), (1, 2, None), (2, 3, 1)])
    r = simulate_app(c, lam=1.0, rng=StubRng([0.4, 99.0]))
    assert r.boundaries[0] == 0.4
    assert r.digests[0] == 0.4
    assert r.n_meaningful == 1


def test_boundary_extends_through_flat_stretch():
    # exactly exhausting the first color-1 segment parks the boundary at the
    # far end of the uncolored gap: the maximal t with volume <= threshold
    c = Coloring([(0, 1, 1), (1, 2, None), (2, 3, 1)])
    r = simulate_app(c, lam=1.0, rng=StubRng([1.0, 99.0]))
    assert r.boundaries[0] == 2.0
    assert r.digests[0] == 1.0


def test_threshold_spanning_two_segments():
    c = Coloring([(0, 1, 1), (1, 2, None), (2, 3, 1)])
    r = simulate_app(c, lam=1.0, rng=StubRng([1.7, 99.0]))
    assert r.boundaries[0] == pytest.approx(2.7)
    assert r.digests[0] == pytest.approx(1.7)


def test_alternation_swaps_colors():
    c = Coloring([(0, 1, 1), (1, 2, 2)])
    r = simulate_app(c, lam=1.0, rng=StubRng([0.25, 0.5, 99.0]))
    assert r.boundaries == (0.25, 1.5, 2.0)
    assert r.digests == (0.25, 0.5, 0.0)
    assert r.n_meaningful == 2


def test_meaningful_count_bounded_by_discontinuities():
    rng = np.random.default_rng(7)
    for _ in range(300):
        c = random_coloring(rng)
        r = simulate_app(c, lam=float(rng.uniform(0.2, 5.0)), rng=rng)
        assert r.n_meaningful <= c.discontinuities + 1
        # the meaningful iterations are a prefix: only the last reaches t1
        assert r.n_meaningful == sum(b < c.t1 for b in r.boundaries)
        assert r.boundaries[-1] >= c.t1


def test_digestion_report_smoke():
    c = Coloring([(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 2)])
    rep = verify_digestion(c, lam=1.5, trials=4000, rng=np.random.default_rng(0))
    assert rep.count_bound_violations == 0
    assert rep.identity_rel_error < 0.05
    assert rep.first_digest_rel_error < 0.05
    assert rep.dominance_ok and rep.law_ok
    assert rep.to_dict()["trials"] == 4000


@pytest.mark.parametrize("gap", [0.0, 0.4])
def test_count_law_by_hand_on_two_runs(gap):
    # color 1 on [0, a), optionally nothing, then color 2 for b
    a, b, lam = 0.7, 1.3, 1.1
    segs = [(0.0, a, 1), (a, a + gap, None), (a + gap, a + gap + b, 2)]
    law, digest = count_law(Coloring([seg for seg in segs if seg[1] > seg[0]]), lam)
    ea, eb = math.exp(-lam * a), math.exp(-lam * b)
    want = [ea, (1 - ea) * eb, (1 - ea) * (1 - eb)]
    assert law == pytest.approx(want + [0.0] * (len(law) - 3), rel=1e-12)  # N <= 2
    # iteration 1 digests min(Z_1, a); iteration 2 starts only if it ends inside
    want = closed_form_digest(a, lam) + (1 - ea) * closed_form_digest(b, lam)
    assert digest == pytest.approx(want, rel=1e-12)


def test_count_law_sums_to_one_meets_the_identity_and_the_dominance():
    rng = np.random.default_rng(31)
    for _ in range(300):
        c = random_coloring(rng, max_segments=10)
        lam = float(rng.uniform(0.2, 5.0))
        law, digest = count_law(c, lam)
        k = c.discontinuities
        assert len(law) == k + 2 and law.min() >= 0.0
        assert abs(law.sum() - 1.0) <= 1e-12
        assert abs(lam * digest - law @ np.arange(k + 2)) <= 1e-12
        mu = lam * min(c.volume(1, c.t0, c.t1), c.volume(2, c.t0, c.t1))
        for level in range(2, k + 3):
            pmf = [math.exp(-mu) * mu**i / math.factorial(i) for i in range(level // 2)]
            assert float(law[level:].sum()) <= 1.0 - sum(pmf) + 1e-12


@np.errstate(over="ignore")
def reference_count_law(coloring, lam):
    """`count_law` with each mass step over every state and run."""
    vol = {1: 0.0, 2: 0.0}
    runs, states = [], [(1, 0.0)]
    for s, e, c in coloring.segments:
        if c is not None:
            runs.append((c, vol[c], vol[c] + (e - s)))
            vol[c] += e - s
            states.append((3 - c, vol[3 - c]))
    run_color, starts, ends = np.array(runs).reshape(-1, 3).T
    color, u = np.array(states).T
    a, b = np.maximum(starts - u[:, None], 0.0), np.maximum(ends - u[:, None], 0.0)
    hop = np.exp(-lam * a) * -np.expm1(-lam * (b - a)) * (run_color == color[:, None])
    rest = np.where(color == 1, vol[1], vol[2]) - u
    mass = np.zeros((coloring.discontinuities + 2, len(states)))
    mass[0, 0] = 1.0
    for n in range(coloring.discontinuities + 1):
        mass[n + 1, 1:] = (mass[n, :, None] * hop).sum(axis=0)
    law = (mass * np.exp(-lam * rest)).sum(axis=1)
    return law, float(mass.sum(axis=0) @ [closed_form_digest(v, lam) for v in rest])


@pytest.mark.parametrize("lam", [0.3, 1.7, 1e308, 5e-324])
def test_count_law_matches_the_full_matrix_step_bit_for_bit(lam):
    rng = np.random.default_rng(47)
    colorings = [random_coloring(rng, max_segments=m) for m in (2, 6, 40) * 100]
    colorings.append(Coloring([(k, k + 1, 1 + k % 2) for k in range(120)]))
    for c in colorings:
        law, digest = count_law(c, lam)
        want_law, want_digest = reference_count_law(c, lam)
        assert np.array_equal(law, want_law) and digest == want_digest, c.segments


@pytest.mark.parametrize("error, raises", [(1e-11, False), (1e-8, True)])
def test_exact_identity_is_checked_to_1e_9(monkeypatch, error, raises):
    exact = altpoisson.count_law

    def off(coloring, lam):
        law, digest = exact(coloring, lam)
        return law, digest * (1 + error)

    monkeypatch.setattr(altpoisson, "count_law", off)
    coloring, lam = _named_colorings()["alternating-blocks"]
    if raises:
        with pytest.raises(InvariantViolation, match="E\\[N\\]"):
            verify_digestion(coloring, lam, 10, np.random.default_rng(0))
    else:
        assert verify_digestion(coloring, lam, 10, np.random.default_rng(0)).law_ok


@pytest.mark.parametrize("lam", [5e-324, 1e-310, 750.0, 1e308])
def test_extreme_rates_pass_every_check_without_a_warning(lam):
    # lambda * volume underflows or overflows the float range here
    c = Coloring([(0, 2, 1), (2, 4, 2), (4, 6, 1), (6, 9, 2)])
    rep = verify_digestion(c, lam, 20, np.random.default_rng(0))
    assert rep.count_bound_violations == 0 and rep.dominance_ok and rep.law_ok


def test_sampled_counts_fall_within_the_law_bound():
    # the check `verify_digestion` makes, on `simulate_app` draws
    rng = np.random.default_rng(8)
    colorings = [*_named_colorings().values()]
    colorings += [(random_coloring(rng, max_segments=8), 1.5) for _ in range(3)]
    n = 4000
    for coloring, lam in colorings:
        law, _ = count_law(coloring, lam)
        counts = [simulate_app(coloring, lam, rng).n_meaningful for _ in range(n)]
        hist = np.bincount(counts, minlength=len(law)) / n
        log_budget = len(law) * math.log(2) + math.log(1 / altpoisson.LAW_ALPHA)
        eps = math.sqrt(2 * log_budget / n)
        assert np.abs(hist - law).sum() < eps, coloring.segments


def test_rate_varying_validates_profile():
    c = Coloring([(0, 2, 1), (2, 4, 2)])
    with pytest.raises(ConfigInvalid, match="exceeds cap"):
        rate_pieces(c, [(0, 4, 3.0)], cap=2.0)
    with pytest.raises(ConfigInvalid):
        rate_pieces(c, [(0, 4, -1.0)], cap=2.0)
    with pytest.raises(ConfigInvalid):
        rate_pieces(c, [(0, 1, 1.0)], cap=2.0)  # uncovered


def test_rate_varying_constant_rate_matches_plain_process():
    # a constant clock rate r with an Exp(1) threshold z is the same walk as
    # the plain process at rate r with threshold z / r
    c = Coloring([(0, 2, 1), (2, 4, 2)])
    z = 1.0
    pieces = rate_pieces(c, [(0, 4, 2.0)], cap=2.0)
    varying = simulate_rate_varying(c, pieces, rng=StubRng([z, 99.0]))
    plain = simulate_app(c, lam=2.0, rng=StubRng([z / 2.0, 99.0]))
    assert varying.boundaries == plain.boundaries
    assert varying.digests == plain.digests
    assert varying.boundaries[0] == 0.5


def test_rate_varying_zero_rate_consumes_volume_silently():
    # volume still counts toward the digest where the clock rate is zero;
    # only the threshold accumulation pauses
    c = Coloring([(0, 2, 1), (2, 4, 2)])
    pieces = rate_pieces(c, [(0, 1, 0.0), (1, 4, 2.0)], cap=2.0)
    r = simulate_rate_varying(c, pieces, rng=StubRng([1.0, 99.0]))
    assert r.boundaries[0] == 1.5
    assert r.digests[0] == 1.5


def test_coloring_round_trip(tmp_path):
    c = Coloring([(0, 1.5, 1), (1.5, 2, None), (2, 3, 2)])
    path = str(tmp_path / "coloring.json")
    dump_coloring(c, path)
    back = load_coloring(path)
    assert back.segments == c.segments


def test_total_digest_adds_left_to_right():
    # sum() compensates from Python 3.12 on and would give 1.0 here
    r = AppRealization(boundaries=(), digests=(0.1,) * 10, n_meaningful=0)
    assert r.total_digest == 0.9999999999999999


def test_rate_and_trials_are_validated():
    c = Coloring([(0, 1, 1), (1, 2, 2)])
    rng = np.random.default_rng(0)
    for lam in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigInvalid):
            simulate_app(c, lam, rng)
        with pytest.raises(ConfigInvalid):
            verify_digestion(c, lam, 10, rng)
    for trials in (0, -1):
        with pytest.raises(ConfigInvalid):
            verify_digestion(c, 1.0, trials, rng)


# ---------------------------------------------------------------------------
# reference oracle: the per-realization sampler that walks every segment
# ---------------------------------------------------------------------------

def reference_advance(coloring, t_prev, color, z):
    digested = 0.0
    t = t_prev
    for s, e, c in coloring.segments:
        if e <= t_prev:
            continue
        s = max(s, t_prev)
        if c == color:
            room = z - digested
            if e - s > room:
                return s + room, z
            digested += e - s
        t = e
    return t, digested


def reference_simulate_app(coloring, lam, rng):
    return alternate(
        coloring,
        lambda: float(rng.exponential(1.0 / lam)),
        lambda t, color, z: reference_advance(coloring, t, color, z),
    )


def reference_verify_digestion(coloring, lam, trials, rng):
    totals = np.empty(trials)
    firsts = np.empty(trials)
    counts = np.empty(trials, dtype=int)
    for i in range(trials):
        r = reference_simulate_app(coloring, lam, rng)
        totals[i] = r.total_digest
        firsts[i] = r.digests[0] if r.digests else 0.0
        counts[i] = r.n_meaningful

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

    law, _ = count_law(coloring, lam)
    mu = lam * min(v1, coloring.volume(2, coloring.t0, coloring.t1))
    tail, below, pmf = [1.0], 0.0, math.exp(-mu)  # tail[m] = P(Pois(mu) >= m)
    for m in range(1, k // 2 + 2):
        below += pmf
        tail.append(1.0 - below)
        pmf *= mu / m
    at_least = [0.0] * (k + 3)  # at_least[L] = P(N >= L), summed from the top
    for level in range(k + 1, -1, -1):
        at_least[level] = at_least[level + 1] + law[level]
    margin = min(tail[level // 2] - at_least[level] for level in range(2, k + 3))
    hist = np.bincount(counts, minlength=k + 2) / trials
    law = np.append(law, np.zeros(len(hist) - len(law)))
    distance = float(np.abs(hist - law).sum())
    log_budget = (k + 2) * math.log(2) + math.log(1 / altpoisson.LAW_ALPHA)
    eps = math.sqrt(2 * log_budget / trials)
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


def _acceptance_random_coloring():
    rng = np.random.default_rng(424242)
    palette = (1, 2, None)
    return Coloring(
        [(0.7 * i, 0.7 * (i + 1), palette[int(rng.integers(3))]) for i in range(10)]
    )


def _named_colorings():
    blocks = [(0.75 * i, 0.75 * (i + 1), 1 if i % 2 == 0 else 2) for i in range(8)]
    return {
        "constant-1": (Coloring([(0.0, 3.0, 1)]), 1.0),
        "constant-none": (Coloring([(0.0, 3.0, None)]), 1.0),
        "alternating-blocks": (Coloring(blocks), 1.2),
        "random-10-segment": (_acceptance_random_coloring(), 0.9),
        "blocks-with-a-gap": (
            Coloring([(0.0, 1.0, 1), (1.0, 2.0, None), (2.0, 3.0, 2), (3.0, 4.0, 1)]),
            1.2,
        ),
    }


# trial counts around the draw block, so that realizations straddle a refill
_TRIALS = (1, 4095, 4096, 4097)


@pytest.mark.parametrize("trials", _TRIALS)
@pytest.mark.parametrize("name", sorted(_named_colorings()))
def test_verify_digestion_matches_reference(name, trials):
    coloring, lam = _named_colorings()[name]
    seed = 1000 + trials
    got = verify_digestion(coloring, lam, trials, np.random.default_rng(seed))
    want = reference_verify_digestion(coloring, lam, trials, np.random.default_rng(seed))
    assert got == want


def test_verify_digestion_matches_reference_on_random_colorings():
    rng = np.random.default_rng(2024)
    for k in range(20):
        coloring = random_coloring(rng, max_segments=8)
        lam = float(rng.uniform(0.2, 5.0))
        trials = _TRIALS[k % len(_TRIALS)]
        got = verify_digestion(coloring, lam, trials, np.random.default_rng(k))
        want = reference_verify_digestion(coloring, lam, trials, np.random.default_rng(k))
        assert got == want, (k, coloring.segments, lam)


def _rounded_end_cases():
    """(coloring, thresholds) whose iteration ends round onto a grid point or
    off it; each asserts that its rounding happens."""
    # A, B and C are color 1 and D, color 2, ends where C starts.  With u the
    # float spacing on [0.25, 0.5), |A| + |B| = 0.4375 + 1.5u is a tie that
    # rounds up, so z one step below the digest before C still passes B
    # (z - |A| rounds up to |B|) and meets C with room -u: the iteration ends
    # at 0.46875 - u, inside D, and the next one digests D's last u first
    u = 2.0**-54
    a = 0.0625 + 1.5 * u
    below = Coloring([
        (-a, 0.0, 1), (0.0, 0.0625, None), (0.0625, 0.4375, 1),
        (0.4375, 0.46875, 2), (0.46875, 0.5, 1),
    ])
    (s_a, e_a), (s_b, e_b), (s_c, _) = below.runs[1]
    z = math.nextafter((e_a - s_a) + (e_b - s_b), 0.0)
    assert altpoisson._advance(below.runs[1], below.t0, z, below.t1)[0] < s_c
    # 1 + (1 - 2^-53) rounds to 2.0, the end of the color-1 run [1, 2)
    short = math.nextafter(1.0, 0.0)
    on_run_end = Coloring([(0.0, 1.0, 2), (1.0, 2.0, 1), (2.0, 3.0, 2)])
    on_t1 = Coloring([(0.0, 1.0, 2), (1.0, 2.0, 1)])
    for coloring in (on_run_end, on_t1):
        assert altpoisson._advance(coloring.runs[1], 0.0, short, coloring.t1)[0] == 2.0
    return {
        "end-below-its-run": (below, [z, 10.0]),  # then outruns the window
        "end-on-its-run-end": (on_run_end, [short, 0.5, 10.0]),
        "end-on-t1": (on_t1, [short]),
    }


@pytest.mark.parametrize("case", ["end-below-its-run", "end-on-its-run-end", "end-on-t1"])
def test_verify_digestion_matches_reference_on_rounded_ends(case):
    coloring, draws = _rounded_end_cases()[case]
    got_rng, want_rng = StubRng(draws), StubRng(draws)
    with mock.patch.object(altpoisson, "DRAW_BLOCK", 1):
        got = verify_digestion(coloring, 1.0, 1, got_rng)
    want = reference_verify_digestion(coloring, 1.0, 1, want_rng)
    assert got == want
    assert got_rng.values == want_rng.values == []


@st.composite
def colorings(draw):
    widths = draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=8))
    colors = draw(
        st.lists(st.sampled_from([1, 2, None]), min_size=len(widths), max_size=len(widths))
    )
    t0 = draw(st.floats(-5.0, 5.0))
    segs = []
    for width, color in zip(widths, colors):
        segs.append((t0, t0 + width, color))
        t0 += width
    return Coloring(segs)


@settings(max_examples=50, deadline=None)
@given(
    colorings(),
    st.floats(0.1, 10.0),
    st.integers(1, 300),
    st.integers(1, 64),
    st.integers(0, 2**16),
    st.floats(0.0, 1.0, exclude_max=True),
)
def test_batched_sampler_matches_reference_hypothesis(
    coloring, lam, trials, block, seed, where
):
    # small draw blocks make many realizations straddle a refill
    with mock.patch.object(altpoisson, "DRAW_BLOCK", block):
        got = verify_digestion(coloring, lam, trials, np.random.default_rng(seed))
    want = reference_verify_digestion(coloring, lam, trials, np.random.default_rng(seed))
    assert got == want
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        assert simulate_app(coloring, lam, rng_a) == reference_simulate_app(
            coloring, lam, rng_b
        )
    # the kernel on its own, also from inside a run of its color, where the
    # process itself never starts an iteration
    t_prev = coloring.t0 + where * coloring.gamma
    for color in (1, 2):
        for z in (0.0, 0.3 / lam, 3.0 / lam):
            assert altpoisson._advance(
                coloring.runs[color], t_prev, z, coloring.t1
            ) == reference_advance(coloring, t_prev, color, z)
