"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in `setup`, then runs
closed-loop operations: `call(i)` is the timed part (one call into the
library), `check(i, raw)` validates the outputs outside the timed region and
returns the bytes that enter the run's output digest.  Operation i depends
only on the workload seed and i, so two runs of the same code and seed
produce the same outputs op by op.

Library entry points are looked up as module attributes at call time
(`dm_cli.main`, `dm_instances.gen_random`, ...) so that the traced run can
wrap them from the outside.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from delaymatch import altpoisson as dm_altpoisson
from delaymatch import cli as dm_cli
from delaymatch import core as dm_core
from delaymatch import embedding as dm_embedding
from delaymatch import instances as dm_instances
from delaymatch import stiltwalker as dm_stiltwalker

HORIZON = 10.0  # arrival window of every generated instance (the CLI default)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def input_rng(seed: int) -> np.random.Generator:
    """The generator every workload draws its inputs from."""
    return np.random.default_rng(np.random.SeedSequence((seed, 0)))


def op_seed(seed: int, i: int) -> int:
    """Per-operation seed handed to the library, derived from (seed, i)."""
    ss = np.random.SeedSequence((seed, 1, i))
    return int(ss.generate_state(1, np.uint64)[0] >> 2)


def call_cli(argv: list[str]) -> str:
    """In-process `delaymatch <argv>`; stdout on success, CheckFailed otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = dm_cli.main(argv)
    if rc != 0:
        raise CheckFailed(
            f"delaymatch {argv[0]} exited {rc}: {err.getvalue().strip()[-400:]}"
        )
    return out.getvalue()


def parse_pairs(text: str) -> dict[str, str]:
    """`key value` lines (the CLI's report format) -> dict."""
    return dict(line.split(" ", 1) for line in text.splitlines() if line)


class Workload:
    name = ""
    # operations whose outputs enter the digest and the exact-repeat counts;
    # every run completes at least this many, whatever its length
    repeat_ops = 1
    # set-ups per run, the median of which is setup_s: enough to fill about
    # a second, so that a set-up of a few milliseconds reads steadily
    setup_reps = 9

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, raw) -> bytes:
        raise NotImplementedError


class RunSweep(Workload):
    """`delaymatch run` batches: one on a square and one on a line bundle per op.

    Every op runs both geometries, so that all ops do the same mix of work
    and the fastest op is not simply a batch on the cheaper geometry.
    """

    name = "run_sweep"
    repeat_ops = 2
    setup_reps = 40
    points, requests, trials = 64, 128, 6
    kinds = ("square", "line")

    def setup(self, seed, workdir):
        rng = input_rng(seed)
        self.seed = seed
        self.bundles = []
        for kind in self.kinds:
            space, reqs = dm_instances.gen_random(
                kind, self.points, self.requests, HORIZON, rng
            )
            path = os.path.join(workdir, f"{kind}.json")
            dm_cli.save_bundle(space, reqs, path)
            self.bundles.append(path)
        self.outs = [os.path.join(workdir, f"run-out-{kind}") for kind in self.kinds]

    def call(self, i):
        return [
            call_cli([
                "run", "--instance", bundle,
                "--trials", str(self.trials),
                "--seed", str(op_seed(self.seed, 2 * i + k)),
                "--mode", "exponential", "--flush", "--out", out,
            ])
            for k, (bundle, out) in enumerate(zip(self.bundles, self.outs))
        ]

    def check(self, i, raw):
        return b"".join(self._check_one(text, out) for text, out in zip(raw, self.outs))

    def _check_one(self, raw, out):
        report_path = os.path.join(out, "report.json")
        csv_path = os.path.join(out, "trials.csv")
        require(os.path.isfile(report_path), "run wrote no report.json")
        require(os.path.isfile(csv_path), "run wrote no trials.csv")
        with open(report_path) as fh:
            report_text = fh.read()
        with open(csv_path) as fh:
            csv_text = fh.read()
        os.remove(report_path)
        os.remove(csv_path)
        report = json.loads(report_text)
        require(report["trials"] == self.trials, "report trial count")
        require(report["requests"] == self.requests, "report request count")
        require(report["points"] == self.points, "report point count")
        require(report["opt_total"] > 0, "offline reference cost not positive")
        require(
            math.isfinite(report["ratio_mean"]) and report["ratio_mean"] > 0,
            f"ratio_mean {report['ratio_mean']}",
        )
        rows = csv_text.splitlines()
        require(len(rows) == self.trials + 1, "trials.csv row count")
        require(raw.startswith(f"trials {self.trials}\n"), "report text header")
        return (raw + report_text + csv_text).encode()


class EngineBigTree(Workload):
    """Engine runs (exponential, flush) plus costing on one fixed big tree."""

    name = "engine_big_tree"
    repeat_ops = 4
    points, requests = 256, 2048

    def setup(self, seed, workdir):
        rng = input_rng(seed)
        self.seed = seed
        self.space, self.reqs = dm_instances.gen_random(
            "square", self.points, self.requests, HORIZON, rng
        )
        self.tree = dm_embedding.sample_hsbt(self.space, rng)

    def call(self, i):
        run = dm_stiltwalker.run(
            self.tree, self.reqs, dm_stiltwalker.TimerMode.EXPONENTIAL,
            seed=op_seed(self.seed, i), flush=True,
        )
        return run, dm_core.total_cost(self.space, self.reqs, run.schedule)

    def check(self, i, raw):
        run, cost = raw
        kinds = Counter(e.kind for e in run.trace.events)
        n = len(self.reqs)
        require(run.trace.flushed, "run did not flush")
        require(kinds["arrival"] + kinds["same_leaf"] == n, "arrival events")
        require(len(run.schedule.pairings) == n // 2, "pairing count")
        require(
            kinds["same_leaf"] + kinds["match"] + kinds["flush"] == n // 2,
            "match events",
        )
        require(math.isfinite(cost.total) and cost.total > 0, "total cost")
        return repr(
            (sorted(kinds.items()), run.schedule.pairings, cost.space, cost.time)
        ).encode()


class IdentitiesSmall(Workload):
    """`verify-identities --trials 1` over a corpus of small bundles.

    The corpus holds every geometry at every size from 6 to 12 points, so
    each seed gets the same mix of sizes and only positions and times vary.
    An op is one pass over the whole corpus with the op index as seed, so
    that every op does the same mix of work.
    """

    name = "identities_small"
    repeat_ops = 2
    setup_reps = 60
    requests = 16
    shapes = [(kind, n) for n in range(6, 13) for kind in ("line", "square", "uniform")]

    def setup(self, seed, workdir):
        rng = input_rng(seed)
        self.bundles = []
        for k, (kind, n_points) in enumerate(self.shapes):
            space, reqs = dm_instances.gen_random(
                kind, n_points, self.requests, HORIZON, rng
            )
            path = os.path.join(workdir, f"ident-{k}.json")
            dm_cli.save_bundle(space, reqs, path)
            self.bundles.append(path)

    def call(self, i):
        return [
            call_cli([
                "verify-identities", "--instance", bundle,
                "--trials", "1", "--seed", str(i),
            ])
            for bundle in self.bundles
        ]

    def check(self, i, raw):
        for text in raw:
            lines = text.splitlines()
            require(lines[-1:] == ["ok"], "verify-identities did not print ok")
            kv = parse_pairs("\n".join(lines[:-1]))
            require(kv.get("trials") == "1", "trial count")
            for key in ("worst_residual_space", "worst_residual_time"):
                require(float(kv[key]) <= 1e-9, f"{key} {kv[key]}")
        return "".join(raw).encode()


def _block_segments():
    return [(0.75 * i, 0.75 * (i + 1), 1 if i % 2 == 0 else 2) for i in range(8)]


def _random_segments(rng):
    palette = (1, 2, None)
    return [(0.7 * i, 0.7 * (i + 1), palette[int(rng.integers(3))]) for i in range(10)]


class Digestion(Workload):
    """`verify-app` on the four acceptance-suite colorings, one of each per op.

    An op covers all four colorings (2500 realizations each) so that every op
    does the same mix of work; alternating colorings op by op would make the
    fastest op a run on the cheapest coloring.  The random 10-segment
    coloring follows the acceptance suite's recipe, drawn from the workload
    seed.
    """

    name = "digestion"
    repeat_ops = 8
    setup_reps = 400
    trials = 2500

    def setup(self, seed, workdir):
        rng = input_rng(seed)
        self.seed = seed
        specs = [
            ("constant-1", [(0.0, 3.0, 1)], 1.0),
            ("constant-none", [(0.0, 3.0, None)], 1.0),
            ("alternating-blocks", _block_segments(), 1.2),
            ("random-10-segment", _random_segments(rng), 0.9),
        ]
        self.colorings = []
        for name, segments, lam in specs:
            path = os.path.join(workdir, f"{name}.json")
            dm_altpoisson.dump_coloring(dm_altpoisson.Coloring(segments), path)
            self.colorings.append((path, lam))

    def call(self, i):
        return [
            call_cli([
                "verify-app", "--coloring", path, "--lambda", repr(lam),
                "--trials", str(self.trials),
                "--seed", str(op_seed(self.seed, 4 * i + k)),
            ])
            for k, (path, lam) in enumerate(self.colorings)
        ]

    def check(self, i, raw):
        for text in raw:
            kv = parse_pairs(text)
            require(kv.get("trials") == str(self.trials), "trial count")
            require(kv.get("count_bound_violations") == "0", "count bound")
            require(kv.get("dominance_ok") == "True", "dominance check")
            require(math.isfinite(float(kv["identity_rel_error"])), "identity error")
        return "".join(raw).encode()


WORKLOADS = {w.name: w for w in (RunSweep, EngineBigTree, IdentitiesSmall, Digestion)}
