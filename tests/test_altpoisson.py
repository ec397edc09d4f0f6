import math

import numpy as np
import pytest

from delaymatch.altpoisson import (
    Coloring,
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
