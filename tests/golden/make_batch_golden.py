"""Write the golden corpus of the batch path: greedy schedules and CLI outputs.

    PYTHONPATH=src python3 tests/golden/make_batch_golden.py

`batch_runs.json` pins, byte for byte, what a `delaymatch run` batch and
`delaymatch embed` produce, and the greedy offline baseline they fall back
on above the exact oracle's size cap:

- "greedy": `greedy_mpmd` schedules and costs on random line, square and
  uniform instances, and on integer-coordinate, integer-time instances
  whose pair costs tie exactly (so the tie rule is pinned too);
- "cli": `run` stdout, `report.json` and `trials.csv` for flush,
  `--no-flush`, deterministic and `--penalty` batches (the penalty ones in
  each of the three regimes, and without flush), and `embed` stdout.

Every case stores its full input (metric, requests, instance bundle, argv);
floats are plain JSON numbers, which round-trip exactly.
`tests/test_golden.py` replays each case and demands exact equality.

The file was written from the pair-scanning greedy and pair-looping
distance checks, before they were vectorised, and rewritten once when the
engine's timers became absolute deadlines: three `run` cases' event-time
figures moved by at most 7 ulp and two `residual`s became 0.0.  The
per-point, two-copies and no-flush penalty cases were added later, from the
code that still ran penalty trials in a loop of their own.  The penalty
cases' `trials.csv` `seed` column was rewritten once more, when it began to
name the seed each trial's engine ran on; nothing else moved.  It was
rewritten again when every trial's engine seed became the first draw of its
generator (`experiment.trial_keys`): the flush, no-flush and deterministic
`run` cases moved, and the per-point penalty case's `seed` column only.  A
mismatch means the batch path changed its output; do not rerun this script
to absorb it.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from delaymatch import cli
from delaymatch.core import Request
from delaymatch.instances import gen_random
from delaymatch.metric import MetricSpace, from_coords
from delaymatch.offline import greedy_mpmd

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "batch_runs.json")


def _greedy_case(name, space: MetricSpace, requests):
    sol = greedy_mpmd(space, requests)
    return {
        "name": name,
        "points": list(space.points),
        "dist": space.dist.tolist(),
        "requests": [[r.id, r.point, r.t] for r in requests],
        "expected": {
            "pairings": [list(p) for p in sol.schedule.pairings],
            "cost": list(dataclasses.astuple(sol.cost)),
        },
    }


def _tie_requests(space: MetricSpace, count: int, t_max: int, seed: int):
    """Integer arrival times with repeats: many exactly equal pair costs."""
    rng = np.random.default_rng(seed)
    where = rng.integers(0, space.n, count)
    times = rng.integers(0, t_max + 1, count)
    return tuple(
        Request(id=i, point=space.points[int(w)], t=float(t))
        for i, (w, t) in enumerate(zip(where, times))
    )


def greedy_cases():
    cases = []
    for name, kind, n_points, n_requests, seed in (
        ("random-line-12", "line", 12, 40, 21),
        ("random-square-16", "square", 16, 48, 22),
        ("random-uniform-10", "uniform", 10, 30, 23),
        ("random-square-32", "square", 32, 96, 24),
        ("random-line-24", "line", 24, 64, 25),
    ):
        rng = np.random.default_rng(seed)
        space, requests = gen_random(kind, n_points, n_requests, 5.0, rng)
        cases.append(_greedy_case(name, space, requests))

    line = from_coords(np.arange(8.0))
    grid = from_coords([[x, y] for x in range(3) for y in range(3)])
    uniform = MetricSpace([f"u{i}" for i in range(6)], np.ones((6, 6)) - np.eye(6))
    for name, space, count, t_max, seed in (
        ("ties-int-line-8", line, 32, 3, 31),
        ("ties-int-square-9", grid, 36, 3, 32),
        ("ties-int-uniform-6", uniform, 24, 2, 33),
        ("ties-int-line-8-same-time", line, 20, 0, 34),
    ):
        requests = _tie_requests(space, count, t_max, seed)
        cases.append(_greedy_case(name, space, requests))
    return cases


def _bundle(kind, n_points, n_requests, seed):
    rng = np.random.default_rng(seed)
    space, requests = gen_random(kind, n_points, n_requests, 5.0, rng)
    return {
        "points": list(space.points),
        "dist": space.dist.tolist(),
        "requests": [
            {"point": r.point, "t": r.t} for r in sorted(requests, key=lambda r: r.id)
        ],
    }


def _call(argv, workdir):
    """Run the CLI in-process; returns its stdout and any files under --out."""
    out_dir = os.path.join(workdir, "out")
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"delaymatch {' '.join(argv)} exited {rc}")
    files = {}
    for name in ("report.json", "trials.csv"):
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path) as fh:
                files[name] = fh.read()
            os.remove(path)
    return stdout.getvalue(), files


def cli_cases():
    bundles = {
        "square-64": _bundle("square", 64, 128, 51),
        "line-64": _bundle("line", 64, 128, 52),
        "line-16": _bundle("line", 16, 28, 53),
        "uniform-12": _bundle("uniform", 12, 20, 54),
    }
    # argv after `--instance <bundle>`; `run` also gets `--out <dir>`
    runs = [
        ("run-flush-square-64", "square-64", ["run", "--trials", "3", "--seed", "5"]),
        ("run-noflush-line-64", "line-64",
         ["run", "--trials", "3", "--seed", "6", "--no-flush"]),
        ("run-penalty-line-16", "line-16",
         ["run", "--trials", "4", "--seed", "7", "--penalty", "0.3"]),
        # line-16 has d_min/2 = 0.0047 and 2 d_max = 1.97: one case per regime
        ("run-penalty-two-copies-line-16", "line-16",
         ["run", "--trials", "4", "--seed", "9", "--penalty", "3"]),
        ("run-penalty-two-copies-det-line-16", "line-16",
         ["run", "--trials", "3", "--seed", "10", "--penalty", "3",
          "--mode", "deterministic"]),
        ("run-penalty-per-point-line-16", "line-16",
         ["run", "--trials", "3", "--seed", "11", "--penalty", "0.004"]),
        ("run-penalty-noflush-line-16", "line-16",
         ["run", "--trials", "4", "--seed", "12", "--penalty", "0.3", "--no-flush"]),
        ("run-det-uniform-12", "uniform-12",
         ["run", "--trials", "3", "--seed", "8", "--mode", "deterministic"]),
        ("embed-square-64", "square-64", ["embed", "--seed", "1"]),
        ("embed-line-64", "line-64", ["embed", "--seed", "2"]),
        ("embed-line-16", "line-16", ["embed", "--seed", "3"]),
        ("embed-uniform-12", "uniform-12", ["embed", "--seed", "4"]),
    ]
    return bundles, run_cli_cases(bundles, runs)


def run_cli_cases(bundles, runs):
    """Run each (name, bundle, args) in a scratch directory; returns the cases."""
    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, bundle, args in runs:
            path = os.path.join(workdir, f"{bundle}.json")
            with open(path, "w") as fh:
                json.dump(bundles[bundle], fh)
            argv = args[:1] + ["--instance", path] + args[1:]
            if args[0] == "run":
                argv += ["--out", os.path.join(workdir, "out")]
            stdout, files = _call(argv, workdir)
            cases.append({
                "name": name,
                "bundle": bundle,
                "args": args,
                "expected": {"stdout": stdout, **files},
            })
    return cases


def main() -> None:
    bundles, runs = cli_cases()
    corpus = {"greedy": greedy_cases(), "bundles": bundles, "cli": runs}
    with open(OUT, "w") as fh:
        json.dump(corpus, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(corpus['greedy'])} greedy and {len(runs)} CLI cases to {OUT}")


if __name__ == "__main__":
    main()
