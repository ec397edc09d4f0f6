import numpy as np
import pytest

from delaymatch import penalty
from delaymatch.core import make_requests
from delaymatch.errors import RegimeMismatch, TooLarge
from delaymatch.instances import gen_random
from delaymatch.metric import MetricSpace, from_coords, stats
from delaymatch.offline import optimal_mpmdfp
from delaymatch.penalty import (
    REGIME_DOUBLED,
    REGIME_PER_POINT,
    REGIME_TWO_COPIES,
    classify_regime,
    hat_orig,
    hat_side,
    run_mpmdfp,
)
from delaymatch.stiltwalker import TimerMode

from oracles import build_doubled, clear_fraction, verify_benchmark_inequality


def single_point():
    return MetricSpace(["o"], np.zeros((1, 1)))


def spread_line():
    # d_min = 2, d_max = 4
    return from_coords([(0.0,), (2.0,), (4.0,)], ["a", "b", "c"])


def test_hat_id_round_trip():
    for rid in range(10):
        assert hat_orig(2 * rid) == rid and hat_side(2 * rid) == 1
        assert hat_orig(2 * rid + 1) == rid and hat_side(2 * rid + 1) == 2


def test_classify_regime_boundaries():
    space = spread_line()
    assert classify_regime(space, 0.9) == REGIME_PER_POINT
    assert classify_regime(space, 1.0) == REGIME_DOUBLED  # p = d_min/2
    assert classify_regime(space, 8.0) == REGIME_DOUBLED  # p = 2*d_max
    assert classify_regime(space, 8.1) == REGIME_TWO_COPIES
    assert classify_regime(single_point(), 5.0) == REGIME_PER_POINT
    for p in (0.0, float("nan"), float("inf")):
        with pytest.raises(RegimeMismatch):
            classify_regime(space, p)


def test_doubled_metric_geometry():
    space = spread_line()
    p = 3.0
    reqs = make_requests(space, [("b", 0.5), ("a", 0.0)])
    inst = build_doubled(space, reqs, p)
    m = inst.metric_hat
    assert m.distance("a|1", "a|2") == p
    assert m.distance("a|1", "b|1") == space.distance("a", "b")
    assert m.distance("a|1", "b|2") == space.distance("a", "b") + p
    # twin requests: ids 2k, 2k+1 in arrival order, same instant, sides 1/2
    hats = inst.requests_hat
    assert [r.id for r in hats] == [0, 1, 2, 3]
    assert hats[0].point == "a|1" and hats[1].point == "a|2"
    assert hats[0].t == hats[1].t == 0.0
    assert hats[2].point == "b|1" and hats[2].t == 0.5


def test_build_doubled_rejects_other_regimes():
    space = spread_line()
    with pytest.raises(RegimeMismatch):
        build_doubled(space, (), 0.5)
    with pytest.raises(RegimeMismatch):
        build_doubled(space, (), 100.0)


def test_per_point_policy_pairs_before_break_even():
    space = single_point()
    p = 2.0
    reqs = make_requests(space, [("o", 0.0), ("o", 1.9)])
    out = run_mpmdfp(space, reqs, p, np.random.default_rng(0))
    assert out.regime == REGIME_PER_POINT
    assert out.schedule.pairings == ((0, 1, 1.9),)
    assert out.schedule.clears == ()
    assert out.cost.total == pytest.approx(1.9)


def test_per_point_policy_clears_at_break_even_tie():
    space = single_point()
    p = 2.0
    reqs = make_requests(space, [("o", 0.0), ("o", 2.0)])
    out = run_mpmdfp(space, reqs, p, np.random.default_rng(0))
    assert out.schedule.pairings == ()
    assert out.schedule.clears == ((0, 2.0), (1, 4.0))
    assert out.cost.penalty == 2 * p
    assert out.cost.time == pytest.approx(2 * p)


def test_per_point_policy_is_per_point_independent():
    # two far-apart points interleave without interfering
    space = from_coords([(0.0,), (100.0,)], ["a", "b"])
    p = 1.0
    reqs = make_requests(space, [("a", 0.0), ("b", 0.1), ("a", 0.5), ("b", 0.6)])
    out = run_mpmdfp(space, reqs, p, np.random.default_rng(0))
    assert out.schedule.pairings == ((0, 2, 0.5), (1, 3, 0.6))
    assert out.cost.space == 0.0


def test_per_point_policy_within_four_times_optimum():
    space = single_point()
    p = 1.0
    for dt in [0.2, 0.5, 0.999, 1.0, 1.5, 2.5, 10.0]:
        reqs = make_requests(space, [("o", 0.0), ("o", dt)])
        out = run_mpmdfp(space, reqs, p, np.random.default_rng(0))
        opt = optimal_mpmdfp(space, reqs, p).cost.total
        assert opt - 1e-12 <= out.cost.total <= 4 * opt + 1e-12


def _served_ids(schedule):
    ids = [i for pair in schedule.pairings for i in pair[:2]]
    ids += [i for i, _ in schedule.clears]
    return sorted(ids)


def test_doubled_regime_run():
    rng = np.random.default_rng(3)
    space, reqs = gen_random("uniform", 4, 8, horizon=3.0, rng=rng)
    p = stats(space).d_min  # safely inside [d_min/2, 2*d_max]
    out = run_mpmdfp(space, reqs, p, rng)
    assert out.regime == REGIME_DOUBLED
    assert out.hat_cost is not None
    assert out.cost.total <= out.hat_cost.total * (1 + 1e-9) + 1e-12
    assert _served_ids(out.schedule) == sorted(r.id for r in reqs)
    for rid, t in out.schedule.clears:
        assert t >= next(r.t for r in reqs if r.id == rid)


def test_two_copies_regime_run():
    rng = np.random.default_rng(4)
    space, reqs = gen_random("uniform", 4, 8, horizon=3.0, rng=rng)
    p = 2 * stats(space).d_max + 1.0
    out = run_mpmdfp(space, reqs, p, rng)
    assert out.regime == REGIME_TWO_COPIES
    assert out.tree is not None
    assert out.tree.weight[0] >= p  # root must absorb the cross-copy price
    assert _served_ids(out.schedule) == sorted(r.id for r in reqs)
    assert out.cost.total <= out.hat_cost.total * (1 + 1e-9) + 1e-12


def test_deterministic_two_copies_runs_derive_no_stream_words(monkeypatch):
    rng = np.random.default_rng(4)
    space, reqs = gen_random("uniform", 4, 8, horizon=3.0, rng=rng)
    p = 2 * stats(space).d_max + 1.0
    exp = run_mpmdfp(space, reqs, p, np.random.default_rng(9))

    def refuse(*args):
        raise AssertionError("a deterministic run derived stream words")

    monkeypatch.setattr(penalty, "stream_words", refuse)
    det = run_mpmdfp(
        space, reqs, p, np.random.default_rng(9), mode=TimerMode.DETERMINISTIC
    )
    assert det.regime == REGIME_TWO_COPIES
    # the engine seed is drawn in both modes, so the tree drawn after it agrees
    assert (det.tree.parent, det.tree.weight) == (exp.tree.parent, exp.tree.weight)
    with pytest.raises(AssertionError, match="derived stream words"):
        run_mpmdfp(space, reqs, p, np.random.default_rng(9))


def test_run_mpmdfp_deterministic_under_fixed_rng():
    space, reqs = gen_random("square", 4, 8, horizon=3.0, rng=np.random.default_rng(8))
    p = stats(space).d_min
    a = run_mpmdfp(space, reqs, p, np.random.default_rng(55))
    b = run_mpmdfp(space, reqs, p, np.random.default_rng(55))
    assert a.schedule == b.schedule
    assert a.cost == b.cost


def test_fp_run_reads_by_fields():
    space = single_point()
    reqs = make_requests(space, [("o", 0.0), ("o", 0.5)])
    out = run_mpmdfp(space, reqs, 2.0, np.random.default_rng(0))
    assert out.schedule.pairings == ((0, 1, 0.5),)
    assert out.cost.total == pytest.approx(0.5)


def test_benchmark_inequality_small_corpus():
    rng = np.random.default_rng(11)
    for _ in range(6):
        space, reqs = gen_random("uniform", 3, 4, horizon=2.0, rng=rng)
        st = stats(space)
        for p in (st.d_min / 4, st.d_min, st.d_max, 3 * st.d_max):
            assert verify_benchmark_inequality(space, reqs, p)


def test_benchmark_inequality_size_cap():
    rng = np.random.default_rng(12)
    space, reqs = gen_random("uniform", 4, 8, horizon=2.0, rng=rng)
    with pytest.raises(TooLarge):
        verify_benchmark_inequality(space, reqs, 1.0)


def test_clear_fraction_bounds():
    rng = np.random.default_rng(13)
    space, reqs = gen_random("uniform", 3, 6, horizon=2.0, rng=rng)
    frac = clear_fraction(space, reqs, stats(space).d_min, trials=20, rng=rng)
    assert 0.0 <= frac <= 1.0
    assert clear_fraction(space, (), 1.0, trials=5, rng=rng) == 0.0
