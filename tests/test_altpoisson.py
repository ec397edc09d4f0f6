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
    count_dominance,
    dump_coloring,
    load_coloring,
    simulate_app,
    simulate_rate_varying,
    verify_digestion,
)
from delaymatch.errors import ConfigInvalid, RateAboveCap


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
    assert rep.dominance_ok
    assert rep.to_dict()["trials"] == 4000


def test_dominance_rule_on_synthetic_level_counts():
    rng = np.random.default_rng(11)
    mu, k = 0.8, 30
    # counts drawn exactly at the bound 1 + 2 Pois(mu) pass
    for _ in range(20):
        ok, margin = count_dominance(1 + 2 * rng.poisson(mu, 10_000), mu, k)
        assert ok and margin > 0
    # a single deep realization is an ordinary draw: P(Pois(0.3) >= 5) is
    # 1.6e-5, so one in 625 has p ~ 0.01, far above alpha / (K + 1)
    assert count_dominance(np.array([1] * 624 + [11]), 0.3, k)[0]
    # counts clearly above the bound fail
    for above in (1 + 2 * rng.poisson(1.2 * mu, 10_000), np.full(10_000, 3)):
        ok, margin = count_dominance(above, mu, k)
        assert not ok and margin < 0
    # with mu = 0 (one color absent) any count of 2 or more is a violation
    assert count_dominance(np.ones(100, dtype=int), 0.0, k)[0]
    assert not count_dominance(np.array([1] * 99 + [3]), 0.0, k)[0]


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
