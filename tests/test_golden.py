"""Seeded engine runs must reproduce the golden corpus bit for bit.

`tests/golden/engine_runs.json` holds exponential runs with and without the
final flush, deterministic runs (including the adversarial gamma family,
whose timers tie with arrivals), and the penalty reduction's two-copies runs
with aliased vertex streams.  See `tests/golden/make_golden.py` for the
format.  Any difference is an engine defect, not a reason to rewrite the
corpus.
"""

import json
import os

import pytest

from delaymatch.core import Request
from delaymatch.embedding import Hsbt
from delaymatch.stiltwalker import TimerMode, run

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "engine_runs.json")

with open(GOLDEN) as _fh:
    CASES = json.load(_fh)


def _tree(rows) -> Hsbt:
    return Hsbt(
        rows["parent"],
        rows["children"],
        [float.fromhex(w) for w in rows["weight"]],
        {int(v): p for v, p in rows["leaf_point"].items()},
        float.fromhex(rows["alpha"]),
    )


def _hex(values) -> list[str]:
    return [float(x).hex() for x in values]


def test_corpus_covers_every_kind_of_run():
    names = [c["name"] for c in CASES]
    assert any(c["mode"] == "exponential" and c["flush"] for c in CASES)
    assert any(c["mode"] == "deterministic" for c in CASES)
    assert any(not c["flush"] for c in CASES)
    assert any("stream_keys" in c for c in CASES)
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_engine_reproduces_golden_run(case):
    tree = _tree(case["tree"])
    requests = tuple(
        Request(id=i, point=p, t=float.fromhex(t)) for i, p, t in case["requests"]
    )
    mode = TimerMode(case["mode"])
    if "stream_keys" in case:
        keys = case["stream_keys"]
        out = run(tree, requests, mode, flush=case["flush"],
                  vertex_seed_fn=lambda v: tuple(keys[v]))
    else:
        out = run(tree, requests, mode, seed=case["seed"], flush=case["flush"])
    want = case["expected"]
    got_pairings = [[a, b, float(t).hex()] for a, b, t in out.schedule.pairings]
    assert got_pairings == want["pairings"]
    got_events = [
        [e.t.hex(), e.kind, e.vertex, list(e.requests)] for e in out.trace.events
    ]
    assert got_events == want["events"]
    assert _hex(out.tau) == want["tau"]
    assert _hex(out.sigma) == want["sigma"]
    assert float(out.trace.c_end_space).hex() == want["c_end_space"]
    assert out.trace.flushed == want["flushed"]
