"""Write the golden corpus of the exact offline oracles and the CLI paths on them.

    PYTHONPATH=src python3 tests/golden/make_exact_golden.py

`exact_runs.json` pins, bit for bit, what the in-cap exact oracles return
and what the commands that reach them print:

- "mpmd": `optimal_mpmd` pairings and costs at every even size from 2 to
  16 requests;
- "mpmdfp": `optimal_mpmdfp` pairings, clears and costs at every size from
  1 to 12 requests, each instance under several penalties;
- both on random line, square and uniform metrics, and on tie-heavy
  instances (integer coordinates, integer arrival times, ids out of
  arrival order, integer penalties) where many candidate schedules cost
  exactly the same, so the tie rule is pinned too;
- "cli": `verify-identities` stdout on 3 bundles, and `run` stdout,
  `report.json` and `trials.csv` for an exact matching-only batch and an
  exact `--penalty` batch.

Every case stores its full input.  Floats are stored as `float.hex`, so
they round-trip exactly.  `tests/test_golden.py` replays each case and
demands exact equality.

The file was written once from the memoized recursive oracles, before they
were replaced by the array-based DP.  The `--penalty` batch's `trials.csv`
`seed` column was rewritten once, when it began to name the seed each
trial's engine ran on; nothing else moved.  The three `verify-identities`
cases' stdout and the matching-only `run` case were rewritten once more, when
every trial's engine seed became the first draw of its generator and
`verify-identities` began to check the trials that `run` reports
(`experiment.trial_keys`); no oracle case moved.  A mismatch means an oracle
changed its output; do not rerun this script to absorb it.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
from make_batch_golden import _bundle, run_cli_cases

from delaymatch.core import Request
from delaymatch.instances import gen_random
from delaymatch.metric import MetricSpace, from_coords
from delaymatch.offline import optimal_mpmd, optimal_mpmdfp

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "exact_runs.json")

KINDS = ("line", "square", "uniform")
FP_PENALTIES = (0.05, 0.3, 1.0, 4.0)
TIE_PENALTIES = (1.0, 2.0)


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def _instance(space: MetricSpace, requests):
    return {
        "points": list(space.points),
        "dist": [_hex(row) for row in space.dist],
        "requests": [[r.id, r.point, r.t.hex()] for r in requests],
    }


def _expected(sol):
    return {
        "pairings": [[a, b, t.hex()] for a, b, t in sol.schedule.pairings],
        "clears": [[i, t.hex()] for i, t in sol.schedule.clears],
        "cost": _hex(dataclasses.astuple(sol.cost)),
    }


def _random(kind: str, count: int, seed: int):
    rng = np.random.default_rng(seed)
    n_points = int(rng.integers(3, 9))
    return gen_random(kind, n_points, count, 4.0, rng)


def _ties(kind: str, count: int, seed: int):
    """Integer metric and integer times, ids in a random order."""
    rng = np.random.default_rng(seed)
    if kind == "line":
        space = from_coords(np.arange(float(rng.integers(3, 7))))
    elif kind == "square":
        space = from_coords([[x, y] for x in range(3) for y in range(2)])
    else:
        k = int(rng.integers(3, 6))
        space = MetricSpace([f"u{i}" for i in range(k)], np.ones((k, k)) - np.eye(k))
    where = rng.integers(0, space.n, count)
    times = rng.integers(0, 3, count)
    ids = rng.permutation(count)
    return space, tuple(
        Request(id=int(ids[i]), point=space.points[int(w)], t=float(t))
        for i, (w, t) in enumerate(zip(where, times))
    )


def _instances(sizes, seed0):
    """(name, space, requests, tie-heavy?) at every size, for each kind."""
    for count in sizes:
        for k, kind in enumerate(KINDS):
            seed = seed0 + 10 * count + k
            yield f"random-{kind}-{count}", *_random(kind, count, seed), False
            yield f"ties-{kind}-{count}", *_ties(kind, count, seed + 5), True


def mpmd_cases():
    cases = []
    for name, space, requests, _ in _instances(range(2, 17, 2), 1000):
        sol = optimal_mpmd(space, requests)
        cases.append({"name": name, **_instance(space, requests),
                      "expected": _expected(sol)})
    return cases


def mpmdfp_cases():
    cases = []
    for name, space, requests, ties in _instances(range(1, 13), 2000):
        for penalty in TIE_PENALTIES if ties else FP_PENALTIES:
            sol = optimal_mpmdfp(space, requests, penalty)
            cases.append({
                "name": f"{name}-p{penalty:g}",
                **_instance(space, requests),
                "penalty": penalty.hex(),
                "expected": _expected(sol),
            })
    return cases


def cli_cases():
    bundles = {
        "line-8": _bundle("line", 8, 16, 61),
        "square-10": _bundle("square", 10, 14, 62),
        "uniform-6": _bundle("uniform", 6, 12, 63),
        "square-9": _bundle("square", 9, 16, 64),
        "line-7": _bundle("line", 7, 12, 65),
    }
    # argv after `--instance <bundle>`; `run` also gets `--out <dir>`
    runs = [
        ("identities-line-8", "line-8",
         ["verify-identities", "--trials", "3", "--seed", "11"]),
        ("identities-square-10", "square-10",
         ["verify-identities", "--trials", "3", "--seed", "12"]),
        ("identities-uniform-6", "uniform-6",
         ["verify-identities", "--trials", "3", "--seed", "13"]),
        ("run-exact-square-9", "square-9", ["run", "--trials", "4", "--seed", "14"]),
        ("run-exact-penalty-line-7", "line-7",
         ["run", "--trials", "4", "--seed", "15", "--penalty", "0.3"]),
    ]
    return bundles, run_cli_cases(bundles, runs)


def main() -> None:
    bundles, runs = cli_cases()
    corpus = {
        "mpmd": mpmd_cases(),
        "mpmdfp": mpmdfp_cases(),
        "bundles": bundles,
        "cli": runs,
    }
    with open(OUT, "w") as fh:
        json.dump(corpus, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(corpus['mpmd'])} mpmd, {len(corpus['mpmdfp'])} mpmdfp and "
          f"{len(runs)} CLI cases to {OUT}")


if __name__ == "__main__":
    main()
