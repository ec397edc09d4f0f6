"""Seeded runs must reproduce the golden corpora bit for bit.

`tests/golden/engine_runs.json` holds exponential runs with and without the
final flush, deterministic runs (including the adversarial gamma family,
whose timers tie with arrivals), and the penalty reduction's two-copies runs
with aliased vertex streams.  Its `tau`/`sigma` ledgers are checked through
the trace replay in `diagnostics`.  See `tests/golden/make_golden.py` for
the format.  `tests/golden/batch_runs.json` holds greedy offline schedules and
the byte-exact outputs of `run` and `embed` (see
`tests/golden/make_batch_golden.py`).  `tests/golden/exact_runs.json` holds
the exact oracles' schedules and the byte-exact outputs of
`verify-identities` and of exact `run` batches (see
`tests/golden/make_exact_golden.py`).  Any difference is a defect, not a
reason to rewrite a corpus.
"""

import dataclasses
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from delaymatch import cli
from delaymatch.core import Request
from delaymatch.embedding import Hsbt
from delaymatch.metric import MetricSpace
from delaymatch.offline import greedy_mpmd, optimal_mpmd, optimal_mpmdfp
from delaymatch.diagnostics import _online_ledgers
from delaymatch.stiltwalker import Engine, TimerMode, run, stream_words

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
        # every key is (seed, vertex) with one seed: row v of the table
        # holds the words of vertex v's key
        (seed,) = {s for s, _ in case["stream_keys"]}
        vertices = [v for _, v in case["stream_keys"]]
        words = next(stream_words([seed], vertices))
        out = Engine(tree, requests, mode, words).run(flush=case["flush"])
    else:
        out = run(tree, requests, mode, seed=case["seed"], flush=case["flush"])
    want = case["expected"]
    got_pairings = [[a, b, float(t).hex()] for a, b, t in out.schedule.pairings]
    assert got_pairings == want["pairings"]
    got_events = [
        [e.t.hex(), e.kind, e.vertex, list(e.requests)] for e in out.trace.events
    ]
    assert got_events == want["events"]
    tau, sigma, _, _ = _online_ledgers(tree, out.trace)
    assert _hex(tau) == want["tau"]
    assert _hex(sigma) == want["sigma"]
    assert float(out.trace.c_end_space).hex() == want["c_end_space"]
    assert out.trace.flushed == want["flushed"]


# ---------------------------------------------------------------------------
# batch path: greedy baseline and CLI outputs (tests/golden/make_batch_golden.py)
# ---------------------------------------------------------------------------

BATCH = os.path.join(os.path.dirname(__file__), "golden", "batch_runs.json")

with open(BATCH) as _fh:
    BATCH_CORPUS = json.load(_fh)


def test_batch_corpus_covers_every_kind_of_run():
    greedy = [c["name"] for c in BATCH_CORPUS["greedy"]]
    assert any(n.startswith("ties-") for n in greedy)
    for kind in ("line", "square", "uniform"):
        assert any(f"-{kind}-" in n for n in greedy)
    runs = [c["args"] for c in BATCH_CORPUS["cli"]]
    assert any(a[0] == "run" and "--no-flush" not in a and "--penalty" not in a
               for a in runs)
    assert any("--no-flush" in a for a in runs)
    assert any("--penalty" in a for a in runs)
    assert any(a[0] == "embed" for a in runs)


@pytest.mark.parametrize(
    "case", BATCH_CORPUS["greedy"], ids=[c["name"] for c in BATCH_CORPUS["greedy"]]
)
def test_greedy_reproduces_golden_schedule(case):
    space = MetricSpace(case["points"], np.array(case["dist"]))
    requests = tuple(Request(id=i, point=p, t=t) for i, p, t in case["requests"])
    sol = greedy_mpmd(space, requests)
    assert [list(p) for p in sol.schedule.pairings] == case["expected"]["pairings"]
    assert list(dataclasses.astuple(sol.cost)) == case["expected"]["cost"]


def _replay_cli(corpus, case, tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(corpus["bundles"][case["bundle"]]))
    args = case["args"]
    argv = args[:1] + ["--instance", str(path)] + args[1:]
    if args[0] == "run":
        argv += ["--out", str(tmp_path / "out")]
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    want = case["expected"]
    assert stdout.getvalue() == want["stdout"]
    for name in ("report.json", "trials.csv"):
        if name in want:
            assert (tmp_path / "out" / name).read_text() == want[name]


@pytest.mark.parametrize(
    "case", BATCH_CORPUS["cli"], ids=[c["name"] for c in BATCH_CORPUS["cli"]]
)
def test_cli_reproduces_golden_output(case, tmp_path):
    _replay_cli(BATCH_CORPUS, case, tmp_path)


# ---------------------------------------------------------------------------
# exact oracles and the CLI paths on them (tests/golden/make_exact_golden.py)
# ---------------------------------------------------------------------------

EXACT = os.path.join(os.path.dirname(__file__), "golden", "exact_runs.json")

with open(EXACT) as _fh:
    EXACT_CORPUS = json.load(_fh)


def test_exact_corpus_covers_every_size_and_kind():
    for key, sizes in (("mpmd", range(2, 17, 2)), ("mpmdfp", range(1, 13))):
        names = [c["name"] for c in EXACT_CORPUS[key]]
        for family in ("random", "ties"):
            for kind in ("line", "square", "uniform"):
                for n in sizes:
                    stem = f"{family}-{kind}-{n}"
                    assert any(x == stem or x.startswith(stem + "-p") for x in names)
    fp = [c["expected"] for c in EXACT_CORPUS["mpmdfp"]]
    assert any(e["clears"] and e["pairings"] for e in fp)
    assert any(e["clears"] and not e["pairings"] for e in fp)
    assert any(e["pairings"] and not e["clears"] for e in fp)
    runs = [c["args"] for c in EXACT_CORPUS["cli"]]
    assert sum(a[0] == "verify-identities" for a in runs) == 3
    assert any(a[0] == "run" and "--penalty" not in a for a in runs)
    assert any(a[0] == "run" and "--penalty" in a for a in runs)
    for case in EXACT_CORPUS["cli"]:
        if case["args"][0] == "run":
            assert "opt_exact yes" in case["expected"]["stdout"]


def _exact_input(case):
    dist = np.array([[float.fromhex(x) for x in row] for row in case["dist"]])
    space = MetricSpace(case["points"], dist)
    requests = tuple(
        Request(id=i, point=p, t=float.fromhex(t)) for i, p, t in case["requests"]
    )
    return space, requests


def _exact_output(sol):
    return {
        "pairings": [[a, b, t.hex()] for a, b, t in sol.schedule.pairings],
        "clears": [[i, t.hex()] for i, t in sol.schedule.clears],
        "cost": _hex(dataclasses.astuple(sol.cost)),
    }


@pytest.mark.parametrize(
    "case", EXACT_CORPUS["mpmd"], ids=[c["name"] for c in EXACT_CORPUS["mpmd"]]
)
def test_optimal_mpmd_reproduces_golden_schedule(case):
    sol = optimal_mpmd(*_exact_input(case))
    assert sol.optimal
    assert _exact_output(sol) == case["expected"]


@pytest.mark.parametrize(
    "case", EXACT_CORPUS["mpmdfp"], ids=[c["name"] for c in EXACT_CORPUS["mpmdfp"]]
)
def test_optimal_mpmdfp_reproduces_golden_schedule(case):
    sol = optimal_mpmdfp(*_exact_input(case), float.fromhex(case["penalty"]))
    assert sol.optimal
    assert _exact_output(sol) == case["expected"]


@pytest.mark.parametrize(
    "case", EXACT_CORPUS["cli"], ids=[c["name"] for c in EXACT_CORPUS["cli"]]
)
def test_exact_cli_reproduces_golden_output(case, tmp_path):
    _replay_cli(EXACT_CORPUS, case, tmp_path)
