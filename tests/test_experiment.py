import io
import math
from dataclasses import dataclass

import numpy as np
import pytest

from delaymatch.core import Request, make_requests
from delaymatch.embedding import Hsbt, build_hsbt, sample_hsbt, tree_metric
from delaymatch import experiment, penalty, stiltwalker
from delaymatch.errors import ConfigInvalid
from delaymatch.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    offline_baseline,
    run_experiment,
    trial_rng,
    trial_seed,
)
from delaymatch.instances import gen_random
from delaymatch.metric import MetricSpace, stats
from delaymatch.penalty import REGIME_DOUBLED, REGIME_PER_POINT, REGIME_TWO_COPIES
from delaymatch.stiltwalker import Engine, TimerMode, stream_words


def small_instance(seed=0, n_points=5, n_requests=8):
    rng = np.random.default_rng(seed)
    return gen_random("uniform", n_points, n_requests, horizon=3.0, rng=rng)


def test_trial_seed_is_deterministic_and_spread():
    assert trial_seed(7, 3) == trial_seed(7, 3)
    seeds = {trial_seed(7, t) for t in range(50)}
    assert len(seeds) == 50
    assert trial_seed(8, 3) != trial_seed(7, 3)
    a = trial_rng(1, 2).random()
    assert a == trial_rng(1, 2).random()
    assert a != trial_rng(1, 3).random()


def test_trial_keys_are_one_seed_sequence():
    for master, trial in [(0, 0), (7, 3), (2**32 + 5, 2**32 - 1)]:
        rng = trial_rng(master, trial)
        words = rng.bit_generator.seed_seq.generate_state(1, np.uint64)
        assert trial_seed(master, trial) == int(words[0] >> 1)
        # the key (master, trial, 0) draws the same below 2^32 trials
        padded = np.random.default_rng(np.random.SeedSequence((master, trial, 0)))
        assert (rng.integers(2**62, size=4) == padded.integers(2**62, size=4)).all()


def test_config_validation():
    space, reqs = small_instance()
    with pytest.raises(ConfigInvalid):
        ExperimentConfig(space, reqs, trials=0).validated()
    with pytest.raises(ConfigInvalid):
        ExperimentConfig(space, reqs, master_seed=-1).validated()
    with pytest.raises(ConfigInvalid):
        ExperimentConfig(space, reqs, penalty=0.0).validated()
    tree = sample_hsbt(space, np.random.default_rng(0))
    with pytest.raises(ConfigInvalid):
        ExperimentConfig(space, reqs, penalty=1.0, fixed_tree=tree).validated()


def test_reports_are_byte_identical_across_runs():
    space, reqs = small_instance(3)
    cfg = ExperimentConfig(space, reqs, trials=5, master_seed=11)
    a, b = run_experiment(cfg), run_experiment(cfg)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    a.to_csv(buf_a)
    b.to_csv(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    assert a.to_text() == b.to_text()
    assert "np.float64" not in buf_a.getvalue()
    assert "np.float64" not in a.to_text()


def test_csv_shape_and_header():
    space, reqs = small_instance(4)
    report = run_experiment(ExperimentConfig(space, reqs, trials=3))
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[5]) == report.records[0].total


def test_same_point_pair_gives_ratio_exactly_one():
    space = MetricSpace(
        ["o", "far"], np.array([[0.0, 50.0], [50.0, 0.0]])
    )
    reqs = make_requests(space, [("o", 0.0), ("o", 0.7)])
    report = run_experiment(ExperimentConfig(space, reqs, trials=4, master_seed=2))
    assert report.opt_total == pytest.approx(0.7)
    assert all(r.ratio == 1.0 for r in report.records)
    assert report.ratio_ci95 == 0.0
    assert report.residual == pytest.approx(0.0, abs=1e-12)


def test_online_never_undercuts_exact_optimum():
    for seed in range(5):
        space, reqs = small_instance(20 + seed)
        report = run_experiment(
            ExperimentConfig(space, reqs, trials=6, master_seed=seed)
        )
        assert report.opt.optimal
        for r in report.records:
            assert r.total >= report.opt_total * (1 - 1e-9) - 1e-12
            assert r.ratio >= 1.0 - 1e-9


def test_fixed_tree_with_deterministic_mode_collapses_trials():
    space, reqs = small_instance(6)
    tree = sample_hsbt(space, np.random.default_rng(42))
    cfg = ExperimentConfig(
        space,
        reqs,
        trials=4,
        mode=TimerMode.DETERMINISTIC,
        fixed_tree=tree,
    )
    report = run_experiment(cfg)
    totals = {r.total for r in report.records}
    assert len(totals) == 1
    assert report.to_dict()["fixed_tree"] is True


def test_deterministic_batches_derive_no_stream_words(monkeypatch):
    def refuse(*args):
        raise AssertionError("a deterministic batch derived stream words")

    monkeypatch.setattr(experiment, "stream_words", refuse)
    space, reqs = small_instance(6)
    cfg = ExperimentConfig(space, reqs, trials=3, mode=TimerMode.DETERMINISTIC)
    assert len(run_experiment(cfg).records) == 3
    with pytest.raises(AssertionError, match="derived stream words"):
        run_experiment(ExperimentConfig(space, reqs, trials=3))


def test_penalty_experiment_records_clears():
    space, reqs = small_instance(8, n_points=4, n_requests=8)
    p = stats(space).d_min
    report = run_experiment(
        ExperimentConfig(space, reqs, trials=5, master_seed=3, penalty=p)
    )
    assert report.opt.optimal
    for r in report.records:
        assert r.total >= report.opt_total * (1 - 1e-9) - 1e-12
        assert r.c_end is None
    assert report.to_dict()["c_end_mean"] is None


def _count_calls(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "regime, scale",
    [(REGIME_DOUBLED, 0.3), (REGIME_TWO_COPIES, 3.0), (REGIME_PER_POINT, None)],
)
def test_penalty_batch_resolves_its_instance_once(monkeypatch, regime, scale):
    space, reqs = gen_random("line", 6, 8, 3.0, np.random.default_rng(12))
    st = stats(space)
    p = 0.4 * st.d_min if scale is None else scale * st.d_max
    assert penalty.classify_regime(space, p) == regime
    counts = {"MetricSpace": 0, "stream_words": 0, "_per_point_run": 0}
    _count_calls(monkeypatch, penalty, "MetricSpace", counts)
    _count_calls(monkeypatch, penalty, "_per_point_run", counts)
    for module in (experiment, penalty, stiltwalker):
        _count_calls(monkeypatch, module, "stream_words", counts)
    cfg = ExperimentConfig(space, reqs, trials=6, master_seed=5, penalty=p)
    assert len(run_experiment(cfg).records) == 6
    if regime == REGIME_PER_POINT:
        assert counts == {"MetricSpace": 0, "stream_words": 0, "_per_point_run": 1}
    else:
        # one doubled space and one table of words for the whole batch
        assert counts == {"MetricSpace": 1, "stream_words": 1, "_per_point_run": 0}


def test_penalty_batch_records_its_engine_seeds():
    space, reqs = gen_random("line", 6, 8, 3.0, np.random.default_rng(12))
    assert penalty.classify_regime(space, 0.3) == REGIME_DOUBLED
    cfg = ExperimentConfig(space, reqs, trials=3, master_seed=3, penalty=0.3)
    seeds = [r.seed for r in run_experiment(cfg).records]
    assert seeds == [int(trial_rng(3, i).integers(2**62)) for i in range(3)]


@pytest.mark.parametrize("penalty_p", [None, 0.5])
def test_batch_without_requests(penalty_p):
    space, _ = small_instance(13)
    cfg = ExperimentConfig(space, (), trials=3, master_seed=1, penalty=penalty_p)
    report = run_experiment(cfg).to_dict()
    assert report["opt_total"] == 0.0
    assert report["ratio_mean"] == 1.0
    assert report["c_end_mean"] == (0.0 if penalty_p is None else None)


def test_flushed_runs_record_c_end_under_ceiling():
    space, reqs = small_instance(9)
    report = run_experiment(ExperimentConfig(space, reqs, trials=6, master_seed=1))
    values = report.c_end_values
    assert len(values) == 6
    assert report.to_dict()["c_end_max"] == max(values)


def test_offline_baseline_falls_back_to_greedy():
    space, reqs = small_instance(10, n_points=6, n_requests=18)
    sol = offline_baseline(space, reqs)
    assert not sol.optimal  # 18 > exact cap, greedy upper bound instead
    small = offline_baseline(space, reqs[:8])
    assert small.optimal


def test_offline_baseline_penalty_fallback_clears_everything():
    space, reqs = small_instance(11, n_points=6, n_requests=14)
    sol = offline_baseline(space, reqs, penalty=0.01)
    assert not sol.optimal
    assert len(sol.schedule.clears) == len(reqs)


@dataclass(frozen=True)
class FlushBudgetReport:
    """Post-horizon waiting of no-flush runs against the 2 sum w(v) budget.

    After the last arrival no new stilts appear, so every vertex effective at
    the horizon fires after at most one fresh exponential budget and the
    extra waiting is at most twice the budget sum in expectation.  The check
    runs paired: per seed, extra waiting minus twice the weight of that
    run's horizon-effective set, tested at mean <= 3 standard errors.
    """

    trials: int
    extra_mean: float
    budget_mean: float
    std_err: float
    ok: bool


def check_flush_budget(
    tree: Hsbt,
    requests: tuple[Request, ...],
    trials: int = 1000,
    master_seed: int = 0,
) -> FlushBudgetReport:
    if trials < 2:
        raise ConfigInvalid("the budget check needs at least two trials")
    extras = np.empty(trials)
    budgets = np.empty(trials)
    seeds = [trial_seed(master_seed, i) for i in range(trials)]
    for i, words in enumerate(stream_words(seeds, range(len(tree)))):
        engine = Engine(tree, requests, TimerMode.EXPONENTIAL, words)
        # arrivals win ties with timers, so this stops just after the last one
        while engine.arrival_index < len(engine.requests):
            engine.advance_to_next_event()
        effective = sorted(engine.effective)
        run = engine.run(flush=False)
        t_end = run.trace.t_end
        extras[i] = sum(
            2.0 * (t - t_end) for _, _, t in run.schedule.pairings if t > t_end
        )
        budgets[i] = 2.0 * sum(tree.weight[v] for v in effective)
    diff = extras - budgets
    se = float(diff.std(ddof=1)) / math.sqrt(trials)
    ok = float(diff.mean()) <= 3.0 * se + 1e-12
    return FlushBudgetReport(
        trials=trials,
        extra_mean=float(extras.mean()),
        budget_mean=float(budgets.mean()),
        std_err=se,
        ok=ok,
    )


def test_check_flush_budget_on_two_leaf_tree():
    tree = build_hsbt([-1, 0, 0], [2.0, 0.0, 0.0], {1: "a", 2: "b"}, alpha=2.0)
    space = tree_metric(tree)
    reqs = make_requests(space, [("a", 0.0), ("b", 1e-6)])
    report = check_flush_budget(tree, reqs, trials=400, master_seed=0)
    # extra waiting is 2 Exp(w) against a budget of exactly 2w, so the paired
    # mean sits at zero: well inside three standard errors
    assert report.ok
    assert report.budget_mean == pytest.approx(2 * 2.0)
    assert report.extra_mean == pytest.approx(2 * 2.0, rel=0.2)
    with pytest.raises(ConfigInvalid):
        check_flush_budget(tree, reqs, trials=1)
