"""Seeded experiment batches over a single instance.

A batch fixes one metric space and one request sequence, then repeats the
online run `trials` times.  Each trial draws a fresh embedded tree by default
(the competitive guarantee averages over both the embedding and the timers);
a fixed tree can be supplied instead to isolate timer randomness.

Reproducibility contract: every random draw of trial i descends from the
seed key (master_seed, i).  Its generator draws the trial's engine seed
first and the tree after it (`trial_keys`), for every kind of batch and for
`verify-identities`, so two batches with equal configuration produce
identical records byte for byte, and `verify-identities` checks the very
trees and timers that `run` reports.
Wall-clock time never enters a report; callers that want timing print it to
stderr themselves.

A batch resolves a penalty's regime and doubled instance once
(`penalty.PenaltyReduction`), runs every trial in one loop for both cost
models, then solves the offline reference once, then builds the records:
trial 0's embedding rejects a metric out of the embedding's range before the
offline solve does any work.  The reference cost is the exact oracle
whenever the instance fits its size cap, otherwise the best of the cheap
upper bounds (greedy pairing, and with a penalty also clearing everything),
flagged via `opt_exact`.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, fields
from typing import IO, Sequence

import numpy as np

from .core import Request, Schedule, total_cost
from .embedding import Hsbt, sample_hsbt, undominated_pair
from .errors import ConfigInvalid, InvariantViolation, OddRequestSet, OutOfDomain
from .metric import MetricSpace
from .offline import (
    MAX_EXACT,
    MAX_EXACT_FP,
    OfflineSolution,
    greedy_mpmd,
    optimal_mpmd,
    optimal_mpmdfp,
)
from .penalty import PenaltyReduction
from .stiltwalker import Engine, TimerMode, stream_words

# trials per batch: each trial's generator and engine seed are built up
# front, about 1 KB apiece
MAX_TRIALS = 100_000

__all__ = [
    "CSV_COLUMNS",
    "TrialRecord",
    "ExperimentConfig",
    "ExperimentReport",
    "batch_summary",
    "trial_keys",
    "offline_baseline",
    "run_experiment",
]


def trial_keys(master_seed: int, trial: int) -> tuple[np.random.Generator, int]:
    """A trial's generator, keyed (master seed, trial), and its engine seed,
    the generator's first draw; the trial's tree is drawn after it."""
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, trial)))
    return rng, int(rng.integers(2**62))


@dataclass(frozen=True)
class TrialRecord:
    """One trial's costs.  `seed` is the engine seed of `trial_keys(master, trial)`."""

    trial: int
    seed: int
    space: float
    time: float
    penalty: float
    total: float
    opt_total: float
    ratio: float
    c_end: float | None = None   # flush connection cost; engine runs only


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "c_end")


@dataclass(frozen=True)
class ExperimentConfig:
    space: MetricSpace
    requests: tuple[Request, ...]
    trials: int = 1
    master_seed: int = 0
    mode: TimerMode = TimerMode.EXPONENTIAL
    flush: bool = True
    penalty: float | None = None
    fixed_tree: Hsbt | None = None   # reuse one tree instead of resampling

    def validated(self) -> "ExperimentConfig":
        if self.trials < 1:
            raise ConfigInvalid(f"trials must be >= 1, got {self.trials}")
        if self.trials > MAX_TRIALS:
            raise ConfigInvalid(f"trials must be <= {MAX_TRIALS}, got {self.trials}")
        if self.master_seed < 0:
            raise ConfigInvalid("master seed must be non-negative")
        if self.penalty is not None:
            if not 0 < self.penalty < math.inf:
                raise ConfigInvalid(f"penalty must be in (0, inf), got {self.penalty}")
            if self.fixed_tree is not None:
                raise ConfigInvalid(
                    "a fixed tree applies to the matching-only variant; the "
                    "penalty reduction builds its own doubled tree"
                )
        elif len(self.requests) % 2 != 0:
            raise OddRequestSet(
                f"{len(self.requests)} requests; matching needs an even count"
            )
        if self.fixed_tree is not None:
            _check_fixed_tree(self.fixed_tree, self.space)
        return self


def _check_fixed_tree(tree: Hsbt, space: MetricSpace) -> None:
    """The tree's leaves are the space's points and it dominates the metric,
    by `sample_hsbt`'s rule and tolerance."""
    missing = [p for p in space.points if p not in tree.point_leaf]
    if missing:
        raise ConfigInvalid(f"fixed tree has no leaf for point {missing[0]}")
    extra = sorted(set(tree.point_leaf).difference(space.points))
    if extra:
        raise ConfigInvalid(f"fixed tree leaf {extra[0]} is not an instance point")
    pair = undominated_pair(space, tree.leaf_distances(space.points))
    if pair is not None:
        a, b = (space.points[k] for k in pair)
        raise ConfigInvalid(f"fixed tree distance for ({a},{b}) below metric distance")


def offline_baseline(
    space: MetricSpace,
    requests: tuple[Request, ...],
    penalty: float | None = None,
) -> OfflineSolution:
    """Exact optimum when it fits the oracle cap, else a cheap upper bound."""
    if penalty is None:
        if len(requests) <= MAX_EXACT:
            return optimal_mpmd(space, requests)
        return greedy_mpmd(space, requests)
    if len(requests) <= MAX_EXACT_FP:
        return optimal_mpmdfp(space, requests, penalty)
    clear_all = Schedule(pairings=(), clears=tuple((r.id, r.t) for r in requests))
    clear_cost = total_cost(space, requests, clear_all, penalty_p=penalty)
    candidates = [OfflineSolution(clear_all, clear_cost, optimal=False)]
    if len(requests) % 2 == 0:
        candidates.append(greedy_mpmd(space, requests))
    return min(candidates, key=lambda s: s.cost.total)


def batch_summary(
    ratios: Sequence[float], totals: Sequence[float], opt_total: float
) -> tuple[float, float, float]:
    """(ratio_mean, ratio_ci95, residual) of one batch of trials.

    ratio_ci95 is the half-width of the normal-approximation 95% interval
    for the mean ratio (0 for a single trial); residual is the additive
    slack, mean online total minus ratio_mean x offline total.  A summary
    past the float range is rejected as `OutOfDomain`.
    """
    with np.errstate(over="ignore"):  # a sum past the float range is rejected below
        mean = float(np.mean(ratios))
        ci = 0.0
        if len(ratios) > 1:
            ci = 1.96 * float(np.std(ratios, ddof=1)) / math.sqrt(len(ratios))
        residual = float(np.mean(totals)) - mean * opt_total
    if not all(map(math.isfinite, (mean, ci, residual))):
        raise OutOfDomain("the batch summary exceeds the float range")
    return mean, ci, residual


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    opt: OfflineSolution
    ratio_mean: float    # the three of `batch_summary`
    ratio_ci95: float
    residual: float

    @property
    def opt_total(self) -> float:
        return self.opt.cost.total

    @property
    def c_end_values(self) -> list[float]:
        return [r.c_end for r in self.records if r.c_end is not None]

    def to_csv(self, fh: IO[str]) -> None:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in self.records:
            w.writerow([repr(getattr(r, column)) for column in CSV_COLUMNS])

    def to_dict(self) -> dict:
        cfg = self.config
        out = {
            "trials": cfg.trials,
            "master_seed": cfg.master_seed,
            "mode": cfg.mode.value,
            "flush": cfg.flush,
            "penalty": cfg.penalty,
            "points": cfg.space.n,
            "requests": len(cfg.requests),
            "fixed_tree": cfg.fixed_tree is not None,
            "opt_total": self.opt_total,
            "opt_exact": self.opt.optimal,
            "ratio_mean": self.ratio_mean,
            "ratio_ci95": self.ratio_ci95,
            "residual": self.residual,
        }
        c_ends = self.c_end_values
        out["c_end_mean"] = float(np.mean(c_ends)) if c_ends else None
        out["c_end_max"] = max(c_ends) if c_ends else None
        return out

    def to_text(self) -> str:
        rows = self.to_dict()
        lines = []
        for key, value in rows.items():
            if value is None:
                lines.append(f"{key} none")
            elif isinstance(value, bool):
                lines.append(f"{key} {'yes' if value else 'no'}")
            elif isinstance(value, float):
                lines.append(f"{key} {value!r}")
            else:
                lines.append(f"{key} {value}")
        return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run the batch; deterministic given the configuration."""
    cfg = config.validated()
    rngs, seeds = zip(*(trial_keys(cfg.master_seed, t) for t in range(cfg.trials)))
    space, requests, fp = cfg.space, cfg.requests, None
    if cfg.penalty is not None:
        fp = PenaltyReduction(cfg.space, cfg.requests, cfg.penalty)
        if fp.fixed is not None:  # the regime draws nothing: one run for all
            return _report(cfg, seeds, [(fp.fixed.cost, None)] * cfg.trials)
        space, requests = fp.metric_hat, fp.requests_hat
    # every tree of the batch is a full binary tree over the same points;
    # deterministic timers never draw, so their engines get no words
    words = itertools.repeat(None)
    if cfg.mode is TimerMode.EXPONENTIAL:
        words = stream_words(seeds, range(2 * space.n - 1))
    runs = []
    for rng, table in zip(rngs, words):
        if fp is not None:
            tree, table = fp.sample(rng, table)
        elif cfg.fixed_tree is not None:
            tree = cfg.fixed_tree
        else:
            tree = sample_hsbt(space, rng)
        run = Engine(tree, requests, table).run(flush=cfg.flush)
        if fp is not None:
            runs.append((fp.project(run.schedule, tree).cost, None))
        else:
            c_end = run.trace.c_end_space if run.trace.flushed else None
            runs.append((total_cost(space, requests, run.schedule), c_end))
    return _report(cfg, seeds, runs)


def _report(cfg: ExperimentConfig, seeds: Sequence[int], runs: list) -> ExperimentReport:
    """Solve the offline reference once and build the records from the
    trials' (cost, c_end) runs."""
    opt = offline_baseline(cfg.space, cfg.requests, cfg.penalty)
    opt_total = opt.cost.total
    records = []
    for trial, (seed, (cost, c_end)) in enumerate(zip(seeds, runs)):
        if opt.optimal and cost.total < opt_total * (1 - 1e-9) - 1e-12:
            raise InvariantViolation(
                f"trial {trial} total {cost.total} undercuts the exact "
                f"offline optimum {opt_total}"
            )
        if opt_total > 0:
            ratio = cost.total / opt_total
        else:
            ratio = math.inf if cost.total > 0 else 1.0
        records.append(
            TrialRecord(
                trial=trial,
                seed=seed,
                space=cost.space,
                time=cost.time,
                penalty=cost.penalty,
                total=cost.total,
                opt_total=opt_total,
                ratio=ratio,
                c_end=c_end,
            )
        )
    summary = batch_summary(
        [r.ratio for r in records], [r.total for r in records], opt_total
    )
    return ExperimentReport(cfg, tuple(records), opt, *summary)
