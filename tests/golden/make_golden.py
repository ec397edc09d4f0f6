"""Write the golden corpus of seeded stilt-walker runs.

    PYTHONPATH=src python3 tests/golden/make_golden.py

The corpus pins the engine's output bit for bit: each case stores its full
input (tree with child order, requests, timer mode, flush flag and the
entropy key of every vertex stream) and the engine's schedule, trace and
`c_end_space`, with every float written by `float.hex`, plus the `tau` and
`sigma` ledgers that `diagnostics` computes from the trace.
`tests/test_golden.py` replays each case and demands exact equality.

The file was written from the engine before its path-local rewrite and
rewritten once when timers became absolute deadlines: four cases' event,
pairing and `tau` times moved by at most 8 ulp, and no pairing id, event
kind or vertex changed.  A mismatch means the engine changed its output; do
not rerun this script to absorb it.
"""

from __future__ import annotations

import json
import os

import numpy as np

from delaymatch.instances import GammaConfig, gen_adversarial_gamma, gen_random
from delaymatch.embedding import sample_hsbt
from delaymatch.penalty import _doubled_parts, _two_copies_tree
from delaymatch.metric import stats
from delaymatch.diagnostics import _online_ledgers
from delaymatch.stiltwalker import Engine, TimerMode, run, stream_words

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "engine_runs.json")


def _tree_rows(tree):
    return {
        "parent": tree.parent,
        "children": tree.children,
        "weight": [w.hex() for w in tree.weight],
        "leaf_point": {str(v): p for v, p in sorted(tree.leaf_point.items())},
        "alpha": tree.alpha.hex(),
    }


def _case(name, tree, requests, mode, flush, seed=None, keys=None):
    """`seed` runs the streams keyed (seed, v), `keys` aliased exponential
    ones: key v is (seed, u) for one seed, and vertex v reads the words of
    key u."""
    if keys is None:
        out = run(tree, requests, mode, seed, flush)
    else:
        words = next(stream_words([keys[0][0]], [u for _, u in keys]))
        out = Engine(tree, requests, words).run(flush=flush)
    tau, sigma, _, _ = _online_ledgers(tree, out.trace)
    streams = {"seed": seed} if keys is None else {"stream_keys": keys}
    return {
        "name": name,
        "mode": mode.value,
        "flush": flush,
        **streams,
        "tree": _tree_rows(tree),
        "requests": [[r.id, r.point, r.t.hex()] for r in requests],
        "expected": {
            "pairings": [[a, b, float(t).hex()] for a, b, t in out.schedule.pairings],
            "events": [
                [e.t.hex(), e.kind, e.vertex, list(e.requests)]
                for e in out.trace.events
            ],
            "tau": [float(x).hex() for x in tau],
            "sigma": [float(x).hex() for x in sigma],
            "c_end_space": float(out.trace.c_end_space).hex(),
            "flushed": out.trace.flushed,
        },
    }


def _random_case(name, kind, n_points, n_requests, seed, mode, flush):
    rng = np.random.default_rng(seed)
    space, requests = gen_random(kind, n_points, n_requests, 5.0, rng)
    tree = sample_hsbt(space, rng)
    return _case(name, tree, requests, mode, flush, seed=seed)


def main() -> None:
    exp, det = TimerMode.EXPONENTIAL, TimerMode.DETERMINISTIC
    cases = [
        _random_case("exp-flush-square-8", "square", 8, 16, 11, exp, True),
        _random_case("exp-flush-line-12", "line", 12, 24, 12, exp, True),
        _random_case("exp-flush-uniform-10", "uniform", 10, 20, 13, exp, True),
        _random_case("exp-flush-square-48", "square", 48, 160, 14, exp, True),
        _random_case("det-flush-square-10", "square", 10, 24, 21, det, True),
        _random_case("det-noflush-line-9", "line", 9, 18, 22, det, False),
        _random_case("noflush-square-8", "square", 8, 16, 31, exp, False),
        _random_case("noflush-line-14", "line", 14, 30, 32, exp, False),
        _random_case("noflush-square-40", "square", 40, 120, 33, exp, False),
    ]
    for n, flush in ((8, True), (16, False)):
        inst = gen_adversarial_gamma(GammaConfig(n=n))
        cases.append(
            _case(f"det-gamma-{n}-{'flush' if flush else 'noflush'}",
                  inst.tree, inst.requests, det, flush, seed=0)
        )
    for seed, flush in ((41, True), (42, False)):
        rng = np.random.default_rng(seed)
        space, requests = gen_random("square", 6, 12, 5.0, rng)
        p = 3.0 * stats(space).d_max  # the two-copies regime: p > 2 d_max
        _, requests_hat, _ = _doubled_parts(space, requests, p)
        tree, mirror = _two_copies_tree(space, p, rng)
        keys = [[seed, min(v, mirror[v])] for v in range(len(tree))]
        cases.append(
            _case(f"two-copies-{seed}", tree, requests_hat, exp, flush, keys=keys)
        )
    with open(OUT, "w") as fh:  # one case per line keeps diffs readable
        rows = (json.dumps(c, separators=(",", ":")) for c in cases)
        fh.write("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {len(cases)} cases to {OUT}")


if __name__ == "__main__":
    main()
