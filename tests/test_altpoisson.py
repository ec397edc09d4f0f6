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
    _alternate,
    closed_form_digest,
    count_law,
    dump_coloring,
    load_coloring,
    simulate_app,
    simulate_rate_varying,
    verify_digestion,
)
from delaymatch.errors import ConfigInvalid, InvariantViolation, RateAboveCap


class StubRng:
    """Stands in for a Generator; hands out preset threshold draws."""

    def __init__(self, values):
        self.values = list(values)

    def exponential(self, scale=1.0):
        return self.values.pop(0)


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
    assert c.color_at(0.0) == 1
    assert c.color_at(1.0) is None
    assert c.color_at(2.999) == 2
    with pytest.raises(ConfigInvalid):
        c.color_at(3.0)
    with pytest.raises(ConfigInvalid):
        c.color_at(-0.1)


def test_volume_matches_riemann_oracle():
    rng = np.random.default_rng(42)
    for _ in range(10):
        c = random_coloring(rng)
        grid = np.linspace(c.t0, c.t1, 40001)
        step = grid[1] - grid[0]
        mids = (grid[:-1] + grid[1:]) / 2
        colors = np.array([c.color_at(float(t)) or 0 for t in mids])
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
    assert r.n_odd == 1 and r.n_even == 0


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
    assert r.n_odd == 1 and r.n_even == 1


def test_meaningful_count_bounded_by_discontinuities():
    rng = np.random.default_rng(7)
    for _ in range(300):
        c = random_coloring(rng)
        r = simulate_app(c, lam=float(rng.uniform(0.2, 5.0)), rng=rng)
        assert r.n_meaningful <= c.discontinuities + 1
        assert r.n_even <= r.n_odd <= r.n_even + 1


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
    rng = np.random.default_rng(0)
    with pytest.raises(RateAboveCap):
        simulate_rate_varying(c, [(0, 4, 3.0)], cap=2.0, rng=rng)
    with pytest.raises(ConfigInvalid):
        simulate_rate_varying(c, [(0, 4, -1.0)], cap=2.0, rng=rng)
    with pytest.raises(ConfigInvalid):
        simulate_rate_varying(c, [(0, 1, 1.0)], cap=2.0, rng=rng)  # uncovered


def test_rate_varying_constant_rate_matches_plain_process():
    # a constant clock rate r with an Exp(1) threshold z is the same walk as
    # the plain process at rate r with threshold z / r
    c = Coloring([(0, 2, 1), (2, 4, 2)])
    z = 1.0
    varying = simulate_rate_varying(c, [(0, 4, 2.0)], cap=2.0, rng=StubRng([z, 99.0]))
    plain = simulate_app(c, lam=2.0, rng=StubRng([z / 2.0, 99.0]))
    assert varying.boundaries == plain.boundaries
    assert varying.digests == plain.digests
    assert varying.boundaries[0] == 0.5


def test_rate_varying_zero_rate_consumes_volume_silently():
    # volume still counts toward the digest where the clock rate is zero;
    # only the threshold accumulation pauses
    c = Coloring([(0, 2, 1), (2, 4, 2)])
    r = simulate_rate_varying(
        c, [(0, 1, 0.0), (1, 4, 2.0)], cap=2.0, rng=StubRng([1.0, 99.0])
    )
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
    r = AppRealization(
        boundaries=(), digests=(0.1,) * 10, n_meaningful=0, n_odd=0, n_even=0
    )
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
    return _alternate(
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


def reference_simulate_rate_varying(coloring, rate_segments, cap, rng):
    """The rate-varying sampler that builds its cut set and pieces per call,
    kept as the oracle of the shared per-(coloring, profile) pieces."""
    if cap <= 0:
        raise ConfigInvalid("rate cap must be positive")
    for s, e, r in rate_segments:
        if r < 0:
            raise ConfigInvalid(f"negative rate on [{s},{e})")
        if r > cap * (1 + 1e-12):
            raise RateAboveCap(f"rate {r} on [{s},{e}) exceeds cap {cap}")
    cuts = sorted(
        {coloring.t0, coloring.t1}
        | {s for s, _, _ in coloring.segments}
        | {e for _, e, _ in coloring.segments}
        | {x for s, e, _ in rate_segments for x in (s, e)}
    )
    cuts = [c for c in cuts if coloring.t0 <= c <= coloring.t1]

    def rate_at(t):
        for s, e, r in rate_segments:
            if s <= t < e:
                return r
        raise ConfigInvalid(f"rate profile does not cover t={t}")

    pieces = [(a, b, coloring.color_at(a), rate_at(a)) for a, b in zip(cuts, cuts[1:])]

    def advance(t_prev, color, z):
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


def random_rate_profile(rng, coloring):
    """Piecewise-constant rates over a cover of the window, some of them 0."""
    k = int(rng.integers(1, 6))
    cuts = np.sort(rng.uniform(coloring.t0 - 1.0, coloring.t1 + 1.0, size=k - 1))
    edges = [coloring.t0 - 1.5, *map(float, cuts), coloring.t1 + 1.5]
    rates = [0.0 if rng.random() < 0.2 else float(rng.uniform(0.1, 3.0)) for _ in cuts]
    rates.append(float(rng.uniform(0.1, 3.0)))
    return [(a, b, r) for a, b, r in zip(edges, edges[1:], rates) if b > a]


def test_rate_varying_matches_the_per_call_builder():
    rng = np.random.default_rng(77)
    named = [c for c, _ in _named_colorings().values()]
    for k in range(30):
        coloring = named[k] if k < len(named) else random_coloring(rng, max_segments=8)
        profile = random_rate_profile(rng, coloring)
        cap = max(r for _, _, r in profile)
        got_rng, want_rng = np.random.default_rng(k), np.random.default_rng(k)
        for _ in range(40):  # the later calls reuse the shared pieces
            got = simulate_rate_varying(coloring, profile, cap, got_rng)
            want = reference_simulate_rate_varying(coloring, profile, cap, want_rng)
            assert got == want, (k, coloring.segments, profile)


def test_rate_varying_pieces_are_built_once_per_coloring_and_profile():
    coloring = random_coloring(np.random.default_rng(5), max_segments=8)
    profile = [(coloring.t0, coloring.t1, 1.5)]
    rng = np.random.default_rng(0)
    with mock.patch.object(
        coloring, "color_at", wraps=coloring.color_at
    ) as color_at:
        for _ in range(10):
            simulate_rate_varying(coloring, profile, 1.5, rng)
        built = color_at.call_count
        assert 1 <= built <= len(coloring.segments)
        simulate_rate_varying(coloring, [(coloring.t0, coloring.t1, 1.0)], 1.5, rng)
        assert color_at.call_count > built  # a new profile builds its own pieces
