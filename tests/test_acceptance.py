"""Acceptance suite: one test per release criterion, at full scale.

Each test prints a single summary line with the measured figures and
asserts the criterion's tolerances and its wall-clock budget.  Every
random draw is pinned, so a green run here is reproducible bit for bit.
Shared corpora (the coloring reports, the identity corpus, the
adversarial family) are built once in module fixtures; their build time
is charged to the first criterion that needs them.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import scipy.stats as sps

from delaymatch.altpoisson import (
    LAW_ALPHA,
    Coloring,
    closed_form_digest,
    count_law,
    verify_digestion,
)
from delaymatch.core import Schedule, total_cost
from delaymatch.diagnostics import track_potentials, verify_cost_identities
from delaymatch.embedding import build_hsbt, sample_hsbt, tree_metric
from delaymatch.instances import GammaConfig, gen_adversarial_gamma, gen_random
from delaymatch.offline import greedy_mpmd, optimal_mpmd
from delaymatch.penalty import run_mpmdfp
from delaymatch.stiltwalker import TimerMode, run as run_online

from oracles import (
    monte_carlo_sigma_tau,
    rate_pieces,
    simulate_rate_varying,
    verify_benchmark_inequality,
)

APP_TRIALS = 100_000
GEOMETRIES = ("line", "square", "uniform")


def _elapsed_ok(t0: float, budget: float) -> float:
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion ran {dt:.1f}s, budget {budget:.0f}s"
    return dt


# ---------------------------------------------------------------------------
# shared corpora
# ---------------------------------------------------------------------------

def _block_coloring() -> Coloring:
    segs = []
    t = 0.0
    for i in range(8):
        segs.append((t, t + 0.75, 1 if i % 2 == 0 else 2))
        t += 0.75
    return Coloring(tuple(segs))


def _random_coloring() -> Coloring:
    rng = np.random.default_rng(424242)
    palette = (1, 2, None)
    segs = []
    t = 0.0
    for _ in range(10):
        segs.append((t, t + 0.7, palette[int(rng.integers(3))]))
        t += 0.7
    return Coloring(tuple(segs))


@pytest.fixture(scope="module")
def app_corpus():
    """Digestion reports for the five corpus colorings at 1e5 trials each."""
    t0 = time.perf_counter()
    plain = {
        "constant-1": (Coloring(((0.0, 3.0, 1),)), 1.0),
        "constant-none": (Coloring(((0.0, 3.0, None),)), 1.0),
        "alternating-blocks": (_block_coloring(), 1.2),
        "random-10-segment": (_random_coloring(), 0.9),
    }
    reports = {
        name: verify_digestion(col, lam, APP_TRIALS, np.random.default_rng(11))
        for name, (col, lam) in plain.items()
    }

    # rate-varying self-check: a constant clock rate r must reproduce the
    # plain process at rate r, so the same identity holds with lam = r
    col = _block_coloring()
    rate = 1.3
    pieces = rate_pieces(col, [(col.t0, col.t1, rate)], rate)
    rng = np.random.default_rng(12)
    totals = np.empty(APP_TRIALS)
    counts = np.empty(APP_TRIALS, dtype=int)
    for i in range(APP_TRIALS):
        r = simulate_rate_varying(col, pieces, rng)
        totals[i] = r.total_digest
        counts[i] = r.n_meaningful
    return {
        "plain": plain,
        "reports": reports,
        "rate_coloring": col,
        "rate": rate,
        "rate_totals": totals,
        "rate_counts": counts,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.fixture(scope="module")
def identity_corpus():
    """50 small instances reused by the identity and stake criteria."""
    rng = np.random.default_rng(505)
    out = []
    for i in range(50):
        kind = GEOMETRIES[i % 3]
        n_pts = int(rng.integers(3, 9))
        n_req = 2 * int(rng.integers(2, 7))
        out.append(gen_random(kind, n_pts, n_req, 3.0, rng))
    return out


def _script_offline(inst) -> Schedule:
    """Hand accounting for the adversarial stream: pair consecutive arrivals
    at each burst site on the spot (each round leaves its site an even number
    of near-coincident requests) and the two opening requests with each other."""
    by_point: dict[str, list] = {}
    for r in inst.requests:
        by_point.setdefault(r.point, []).append(r)
    pairs = []
    singles = []
    for rs in by_point.values():
        rs.sort(key=lambda r: r.t)
        if len(rs) % 2 == 1:
            singles.append(rs.pop(0))
        for a, b in zip(rs[0::2], rs[1::2]):
            pairs.append((a.id, b.id, b.t))
    assert len(singles) == 2, "exactly the two opening requests stay single"
    a, b = sorted(singles, key=lambda r: r.t)
    pairs.append((a.id, b.id, b.t))
    return Schedule(pairings=tuple(pairs))


@pytest.fixture(scope="module")
def gamma_family():
    """Adversarial instances with online/offline figures for n = 8, 16, 32."""
    fam = {}
    for n in (8, 16, 32):
        inst = gen_adversarial_gamma(GammaConfig(n))
        det = run_online(inst.tree, inst.requests, TimerMode.DETERMINISTIC, seed=0)
        online = total_cost(inst.space, inst.requests, det.schedule).total
        script = total_cost(inst.space, inst.requests, _script_offline(inst)).total
        greedy = greedy_mpmd(inst.space, inst.requests).cost.total
        exact = (
            optimal_mpmd(inst.space, inst.requests).cost.total
            if len(inst.requests) <= 16
            else None
        )
        den = exact if exact is not None else min(greedy, script)
        fam[n] = {
            "inst": inst,
            "online_det": online,
            "script": script,
            "greedy": greedy,
            "exact": exact,
            "den": den,
        }
    return fam


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_digestion_identity_on_corpus(app_corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for name, rep in app_corpus["reports"].items():
        worst = max(worst, rep.identity_rel_error)
        assert rep.identity_rel_error <= 0.02, (
            f"{name}: identity error {rep.identity_rel_error:.4f} > 2%"
        )

    lam = app_corpus["rate"]
    mean_g = float(app_corpus["rate_totals"].mean())
    mean_n = float(app_corpus["rate_counts"].mean())
    rate_err = abs(lam * mean_g - mean_n) / mean_n
    worst = max(worst, rate_err)
    assert rate_err <= 0.02, f"rate-varying self-check error {rate_err:.4f} > 2%"

    dt = app_corpus["elapsed"] + (time.perf_counter() - t0)
    assert dt < 30.0, f"criterion 1 ran {dt:.1f}s, budget 30s"
    print(f"criterion 01 PASS: worst identity error {worst:.5f} <= 0.02 ({dt:.1f}s)")


def test_criterion_02_first_digest_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (0.5, 2.0):
        col = Coloring(((0.0, gamma, 1),))
        for lam in (0.5, 1.0, 4.0):
            rep = verify_digestion(col, lam, APP_TRIALS, np.random.default_rng(21))
            worst = max(worst, rep.first_digest_rel_error)
            assert rep.first_digest_rel_error <= 0.01, (
                f"lam={lam} gamma={gamma}: first-digest error "
                f"{rep.first_digest_rel_error:.4f} > 1%"
            )
    dt = _elapsed_ok(t0, 30.0)
    print(f"criterion 02 PASS: worst closed-form error {worst:.5f} <= 0.01 ({dt:.1f}s)")


def test_criterion_03_count_bound_and_dominance(app_corpus):
    t0 = time.perf_counter()
    for name, rep in app_corpus["reports"].items():
        assert rep.count_bound_violations == 0, f"{name}: count bound violated"
        assert rep.dominance_ok, f"{name}: dominance margin {rep.dominance_margin}"

    # the rate-varying counts obey the same two laws with lam = rate
    col = app_corpus["rate_coloring"]
    lam = app_corpus["rate"]
    counts = app_corpus["rate_counts"]
    k = col.discontinuities
    assert int((counts > k + 1).sum()) == 0, "rate-varying count bound violated"
    mu = lam * min(col.volume(1, col.t0, col.t1), col.volume(2, col.t0, col.t1))
    for level in range(0, int(counts.max(initial=0)) + 2):
        observed = float((counts >= level).mean())
        need = math.ceil((level - 1) / 2)
        allowed = float(sps.poisson.sf(need - 1, mu)) if need > 0 else 1.0
        slack = 3.0 * math.sqrt(max(allowed * (1 - allowed), 0.0) / len(counts))
        assert observed <= allowed + slack, (
            f"rate-varying dominance fails at level {level}"
        )
    dt = _elapsed_ok(t0, 60.0)
    margin = min(r.dominance_margin for r in app_corpus["reports"].values())
    print(f"criterion 03 PASS: 0 count violations, dominance margin {margin:.4f} ({dt:.1f}s)")


def test_criterion_03_rate_varying_counts_follow_the_exact_law(app_corpus):
    # at a constant clock rate r, an Exp(1) threshold on r-weighted volume is
    # an Exp(r) threshold on volume, so count_law at lam = r is the exact law
    # of the rate-varying counts; the bound is the one verify_digestion uses
    t0 = time.perf_counter()
    col = app_corpus["rate_coloring"]
    counts = app_corpus["rate_counts"]
    law, _ = count_law(col, app_corpus["rate"])
    k = col.discontinuities
    hist = np.bincount(counts, minlength=k + 2) / len(counts)
    distance = float(np.abs(hist - np.pad(law, (0, len(hist) - k - 2))).sum())
    eps = math.sqrt(2.0 * ((k + 2) * math.log(2.0) - math.log(LAW_ALPHA)) / len(counts))
    assert distance < eps, f"rate-varying counts: L1 distance {distance:.5f} >= {eps:.5f}"
    dt = _elapsed_ok(t0, 30.0)
    print(f"criterion 03 PASS: rate-varying law distance {distance:.5f} < {eps:.5f} ({dt:.1f}s)")


def test_criterion_04_embedding_invariants_and_distortion():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst_mean_stretch = 0.0
    bound = 0.0
    for m in range(10):
        kind = GEOMETRIES[m % 3]
        n_pts = int(rng.integers(8, 17))
        space, _ = gen_random(kind, n_pts, 2, 1.0, rng)
        stretch_sum = np.zeros((n_pts, n_pts))
        for s in range(1000):
            tree = sample_hsbt(space, np.random.default_rng((44, m, s)))
            tspace = tree_metric(tree)
            order = [tspace.index[p] for p in space.points]
            stretch_sum += tspace.dist[np.ix_(order, order)]
        mean_tree = stretch_sum / 1000.0
        off = ~np.eye(n_pts, dtype=bool)
        mean_stretch = float((mean_tree[off] / space.dist[off]).mean())
        bound = 8.0 * math.log(n_pts)
        assert mean_stretch <= bound, (
            f"metric {m} ({kind}, n={n_pts}): mean distortion per pair "
            f"{mean_stretch:.2f} > 8 ln n = {bound:.2f}"
        )
        worst_mean_stretch = max(worst_mean_stretch, mean_stretch)
    dt = _elapsed_ok(t0, 120.0)
    print(
        f"criterion 04 PASS: 10x1000 trees valid, worst mean distortion "
        f"{worst_mean_stretch:.2f} <= {bound:.2f} ({dt:.1f}s)"
    )


def test_criterion_05_exact_cost_identities(identity_corpus):
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_margin = math.inf
    for i, (space, reqs) in enumerate(identity_corpus):
        for s in range(20):
            tree = sample_hsbt(space, np.random.default_rng((55, i, s)))
            tspace = tree_metric(tree)
            run = run_online(tree, reqs, TimerMode.EXPONENTIAL, seed=1000 * i + s)
            online = total_cost(tspace, reqs, run.schedule)
            off = optimal_mpmd(tspace, reqs)
            ledger = track_potentials(tree, run.trace, off.schedule)
            rep = verify_cost_identities(tree, ledger, online, off.cost)
            worst_res = max(worst_res, rep.residual_space, rep.residual_time)
            worst_margin = min(
                worst_margin, rep.time_bound_margin, rep.space_bound_margin
            )
    assert worst_res <= 1e-9
    assert worst_margin >= -1e-12
    dt = _elapsed_ok(t0, 120.0)
    print(
        f"criterion 05 PASS: 1000 runs, worst residual {worst_res:.2e}, "
        f"worst bound margin {worst_margin:.2e} ({dt:.1f}s)"
    )


def test_criterion_06_stake_never_exceeds_time(identity_corpus):
    t0 = time.perf_counter()
    flagged = []
    for i, (space, reqs) in enumerate(identity_corpus):
        tree = sample_hsbt(space, np.random.default_rng((66, i)))
        rep = monte_carlo_sigma_tau(tree, reqs, 1000, np.random.default_rng((660, i)))
        if rep.violations:
            flagged.append((i, rep.violations))
    assert not flagged, f"stake exceeded effective time on: {flagged}"
    dt = _elapsed_ok(t0, 300.0)
    print(f"criterion 06 PASS: 50x1000 runs, 0 flagged vertices ({dt:.1f}s)")


def test_criterion_07_oracle_orderings():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_gap = math.inf
    for i in range(200):
        kind = GEOMETRIES[i % 3]
        n_pts = int(rng.integers(3, 9))
        n_req = 2 * int(rng.integers(2, 9))
        space, reqs = gen_random(kind, n_pts, n_req, 4.0, rng)
        exact = optimal_mpmd(space, reqs).cost.total
        greedy = greedy_mpmd(space, reqs).cost.total
        assert greedy >= exact - 1e-9, f"instance {i}: greedy undercut the optimum"
        tree = sample_hsbt(space, np.random.default_rng((70, i)))
        run = run_online(tree, reqs, TimerMode.EXPONENTIAL, seed=i)
        online = total_cost(space, reqs, run.schedule).total
        assert online >= exact - 1e-9, f"instance {i}: online undercut the optimum"
        worst_gap = min(worst_gap, greedy - exact, online - exact)
    dt = _elapsed_ok(t0, 120.0)
    print(f"criterion 07 PASS: 200 instances, min cost gap {worst_gap:.2e} >= 0 ({dt:.1f}s)")


def test_criterion_08_deterministic_ratio_grows(gamma_family):
    t0 = time.perf_counter()
    # cross-check the hand accounting against the solvers
    g8 = gamma_family[8]
    assert g8["exact"] <= g8["script"] + 1e-9
    assert g8["exact"] <= g8["greedy"] + 1e-9
    ratios = {n: gamma_family[n]["online_det"] / gamma_family[n]["den"] for n in (8, 16, 32)}
    growth = ratios[32] / ratios[8]
    assert growth >= 3.0, f"deterministic ratio growth {growth:.3f} < 3"
    dt = _elapsed_ok(t0, 120.0)
    print(
        f"criterion 08 PASS: det ratios "
        f"{ratios[8]:.2f} / {ratios[16]:.2f} / {ratios[32]:.2f}, "
        f"growth {growth:.3f} >= 3 ({dt:.1f}s)"
    )


def test_criterion_09_randomized_ratio_stays_flat(gamma_family):
    t0 = time.perf_counter()
    means = {}
    for n in (8, 32):
        inst = gamma_family[n]["inst"]
        totals = np.empty(200)
        for s in range(200):
            run = run_online(inst.tree, inst.requests, TimerMode.EXPONENTIAL, seed=s)
            totals[s] = total_cost(inst.space, inst.requests, run.schedule).total
        means[n] = float(totals.mean()) / gamma_family[n]["den"]
    growth = means[32] / means[8]
    assert growth <= 2.0, f"randomized ratio growth {growth:.3f} > 2"
    dt = _elapsed_ok(t0, 300.0)
    print(
        f"criterion 09 PASS: mean randomized ratios {means[8]:.2f} -> {means[32]:.2f}, "
        f"growth {growth:.3f} <= 2 ({dt:.1f}s)"
    )


def test_criterion_10_penalty_reduction_and_benchmark():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    n_hat = 0
    for i in range(100):
        kind = GEOMETRIES[i % 3]
        space, reqs = gen_random(kind, int(rng.integers(3, 7)), 2 * int(rng.integers(2, 5)), 3.0, rng)
        off = space.dist[~np.eye(space.n, dtype=bool)]
        d_min, d_max = float(off.min()), float(off.max())
        if i % 2 == 0:
            p = float(rng.uniform(d_min / 2.0, 2.0 * d_max))
        else:
            p = float(rng.uniform(2.0 * d_max * 1.01, 4.0 * d_max))
        out = run_mpmdfp(space, reqs, p, np.random.default_rng((100, i)))
        assert out.hat_cost is not None
        n_hat += 1
        assert out.cost.total <= out.hat_cost.total + 1e-9, (
            f"run {i} ({out.regime}): penalty run beat its own doubled run"
        )

    for i in range(100):
        kind = GEOMETRIES[i % 3]
        space, reqs = gen_random(kind, int(rng.integers(2, 5)), 4, 2.0, rng)
        off = space.dist[~np.eye(space.n, dtype=bool)]
        p = float(rng.uniform(0.1 * float(off.min()), 3.0 * float(off.max())))
        assert verify_benchmark_inequality(space, reqs, p), (
            f"benchmark instance {i}: doubled optimum exceeded twice the penalty optimum"
        )
    dt = _elapsed_ok(t0, 180.0)
    print(
        f"criterion 10 PASS: {n_hat} reduction runs and 100 exact benchmarks hold ({dt:.1f}s)"
    )


def test_criterion_11_flush_cost_ceiling(gamma_family):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1111)
    checked = 0
    worst = 0.0
    for i in range(60):
        kind = GEOMETRIES[i % 3]
        space, reqs = gen_random(kind, int(rng.integers(2, 9)), 2 * int(rng.integers(2, 8)), 3.0, rng)
        tree = sample_hsbt(space, np.random.default_rng((111, i)))
        run = run_online(tree, reqs, TimerMode.EXPONENTIAL, seed=i, flush=True)
        assert run.trace.flushed
        ceiling = (len(tree.leaf_point) / 2.0) * tree.weight[tree.root]
        assert run.trace.c_end_space <= ceiling * (1 + 1e-12)
        worst = max(worst, run.trace.c_end_space / ceiling)
        checked += 1
    for n in (8, 16, 32):
        inst = gamma_family[n]["inst"]
        run = run_online(inst.tree, inst.requests, TimerMode.DETERMINISTIC, seed=0)
        ceiling = (len(inst.tree.leaf_point) / 2.0) * inst.tree.weight[inst.tree.root]
        assert run.trace.c_end_space <= ceiling * (1 + 1e-12)
        worst = max(worst, run.trace.c_end_space / ceiling)
        checked += 1
    dt = _elapsed_ok(t0, 60.0)
    print(
        f"criterion 11 PASS: {checked} flushed runs under the ceiling, "
        f"max fill {worst:.3f} ({dt:.1f}s)"
    )


def test_criterion_12_sibling_timer_contract():
    t0 = time.perf_counter()
    w = 2.0
    eps = 0.25
    tree = build_hsbt([-1, 0, 0], [w, 0.0, 0.0], {1: "a", 2: "b"}, alpha=2.0)
    space = tree_metric(tree)
    from delaymatch.core import make_requests

    reqs = make_requests(space, [("a", 0.0), ("b", eps)])

    det = run_online(tree, reqs, TimerMode.DETERMINISTIC, seed=0, flush=False)
    (i1, i2, t_match), = det.schedule.pairings
    assert t_match == eps + w, "deterministic timer must fire at exactly eps + w"

    waits = np.empty(10_000)
    for s in range(10_000):
        run = run_online(tree, reqs, TimerMode.EXPONENTIAL, seed=s, flush=False)
        (_, _, tm), = run.schedule.pairings
        waits[s] = tm - eps
    mean = float(waits.mean())
    rel = abs(mean - w) / w
    assert rel <= 0.03, f"exponential timer mean {mean:.4f} off by {rel:.3%}"
    dt = _elapsed_ok(t0, 30.0)
    print(
        f"criterion 12 PASS: det match at {t_match}, exp mean {mean:.4f} "
        f"within {rel:.3%} of {w} ({dt:.1f}s)"
    )
