import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from delaymatch import altpoisson, embedding, offline
from delaymatch.cli import _build_parser, load_bundle, main, save_bundle
from delaymatch.altpoisson import MAX_REALIZATIONS
from delaymatch.embedding import Hsbt
from delaymatch.experiment import MAX_TRIALS
from delaymatch.instances import MAX_POINTS, MAX_REQUESTS
from delaymatch.penalty import (
    REGIME_DOUBLED,
    REGIME_PER_POINT,
    REGIME_TWO_COPIES,
    classify_regime,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_two_point_then_validate(tmp_path, capsys):
    out = str(tmp_path / "tp")
    code, _, _ = run_cli(capsys, "gen", "two-point", "--delta", "2.0", "--out", out)
    assert code == 0
    code, text, _ = run_cli(capsys, "validate", "--instance", f"{out}/instance.json")
    assert code == 0
    assert "points 2" in text
    assert "ok" in text


def test_validate_missing_file_is_user_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "validate", "--instance", str(tmp_path / "no.json"))
    assert code == 1
    assert "error" in err


def test_bad_usage_is_user_error(capsys):
    assert run_cli(capsys, "run")[0] == 1          # missing --instance
    assert run_cli(capsys, "frobnicate")[0] == 1   # unknown subcommand


def test_run_writes_deterministic_artifacts(tmp_path, capsys):
    inst_dir = str(tmp_path / "inst")
    run_cli(capsys, "gen", "random", "--points", "4", "--requests", "8",
            "--seed", "5", "--out", inst_dir)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    for out in (out_a, out_b):
        code, text, err = run_cli(
            capsys, "run",
            "--instance", f"{inst_dir}/instance.json",
            "--trials", "4", "--seed", "9", "--out", out,
        )
        assert code == 0
        assert "ratio_mean" in text
        assert "runtime" in err       # timing goes to stderr only
        assert "runtime" not in text
    csv_a = (tmp_path / "a" / "trials.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trials.csv").read_bytes()
    assert csv_a == csv_b
    rep_a = (tmp_path / "a" / "report.json").read_bytes()
    assert rep_a == (tmp_path / "b" / "report.json").read_bytes()
    assert b"np.float64" not in csv_a


def test_report_recomputes_run_summary(tmp_path, capsys):
    inst_dir = str(tmp_path / "inst")
    run_cli(capsys, "gen", "random", "--points", "4", "--requests", "6",
            "--out", inst_dir)
    out = str(tmp_path / "r")
    _, run_text, _ = run_cli(
        capsys, "run", "--instance", f"{inst_dir}/instance.json",
        "--trials", "3", "--out", out,
    )
    code, rep_text, _ = run_cli(capsys, "report", "--csv", f"{out}/trials.csv")
    assert code == 0
    for key in ("opt_total", "ratio_mean", "ratio_ci95", "residual"):
        want = next(l for l in run_text.splitlines() if l.startswith(key + " "))
        assert want in rep_text.splitlines()


def test_run_penalty_and_no_flush_paths(tmp_path, capsys):
    inst_dir = str(tmp_path / "inst")
    run_cli(capsys, "gen", "random", "--points", "4", "--requests", "6",
            "--seed", "2", "--out", inst_dir)
    inst = f"{inst_dir}/instance.json"
    code, text, _ = run_cli(capsys, "run", "--instance", inst, "--no-flush")
    assert code == 0 and "flush no" in text
    code, text, _ = run_cli(capsys, "run", "--instance", inst, "--penalty", "0.4")
    assert code == 0 and "penalty 0.4" in text


def test_embed_and_fixed_tree_round_trip(tmp_path, capsys):
    inst_dir = str(tmp_path / "inst")
    run_cli(capsys, "gen", "random", "--points", "5", "--requests", "6",
            "--seed", "3", "--out", inst_dir)
    inst = f"{inst_dir}/instance.json"
    tree_dir = str(tmp_path / "tree")
    code, text, _ = run_cli(capsys, "embed", "--instance", inst, "--out", tree_dir)
    assert code == 0
    assert "max_stretch" in text
    tree = Hsbt.from_json(f"{tree_dir}/tree.json")
    assert sorted(tree.leaf_point.values()) == [f"p{i}" for i in range(5)]
    code, text, _ = run_cli(
        capsys, "run", "--instance", inst,
        "--fixed-tree", f"{tree_dir}/tree.json", "--trials", "2",
        "--mode", "deterministic",
    )
    assert code == 0 and "fixed_tree yes" in text


def test_gen_gamma_writes_full_bundle(tmp_path, capsys):
    out = str(tmp_path / "g8")
    code, _, _ = run_cli(capsys, "gen", "gamma", "--n", "8", "--out", out)
    assert code == 0
    space, requests = load_bundle(f"{out}/instance.json")
    assert space.n == 8
    assert len(requests) == 10
    tree = Hsbt.from_json(f"{out}/tree.json")
    assert len(tree) == 15
    meta = json.loads((tmp_path / "g8" / "gamma.json").read_text())
    assert meta["n"] == 8
    assert len(meta["applications"]) == 1
    assert len(meta["end_actives"]) == 4


def test_verify_identities_command(tmp_path, capsys):
    inst_dir = str(tmp_path / "inst")
    run_cli(capsys, "gen", "random", "--points", "4", "--requests", "8",
            "--seed", "4", "--out", inst_dir)
    code, text, _ = run_cli(
        capsys, "verify-identities",
        "--instance", f"{inst_dir}/instance.json", "--trials", "3",
    )
    assert code == 0
    assert "ok" in text
    worst = next(
        l for l in text.splitlines() if l.startswith("worst_residual_space")
    )
    assert float(worst.split()[1]) <= 1e-9


_THREE_SEGMENT_ROWS = [
    {"start": 0.0, "end": 1.0, "color": 1},
    {"start": 1.0, "end": 2.0, "color": 2},
    {"start": 2.0, "end": 3.0, "color": 1},
]


def test_verify_app_command(tmp_path, capsys):
    coloring = tmp_path / "coloring.json"
    coloring.write_text(json.dumps(_THREE_SEGMENT_ROWS))
    code, text, _ = run_cli(
        capsys, "verify-app", "--coloring", str(coloring),
        "--lambda", "1.5", "--trials", "2000",
    )
    assert code == 0
    assert "count_bound_violations 0" in text
    assert "dominance_ok True" in text


def test_verify_app_exits_2_when_the_sample_strays_from_the_law(
    tmp_path, capsys, monkeypatch
):
    exact = altpoisson.count_law

    def shifted(coloring, lam):  # one switch more than the process makes
        law = np.roll(exact(coloring, lam)[0], 1)
        return law, float(law @ np.arange(len(law))) / lam

    monkeypatch.setattr(altpoisson, "count_law", shifted)
    coloring = tmp_path / "coloring.json"
    coloring.write_text(json.dumps(_THREE_SEGMENT_ROWS))
    code, text, err = run_cli(
        capsys, "verify-app", "--coloring", str(coloring), "--trials", "2000"
    )
    assert code == 2
    assert "law_ok False" in text
    assert err.startswith("invariant violation: ")


_VERIFY_APP_STDOUT = """\
trials 2000
lam 1.5
identity_rel_error 0.00016056594654016723
first_digest_rel_error 0.010549494178181542
count_bound_violations 0
dominance_ok True
dominance_margin 0.17334309178056584
law_distance 0.017330039901888375
law_ok True
"""

_GAMMA_8_JSON = """\
{
 "n": 8,
 "epsilon": 0.0004166666666666667,
 "jitter": 3.2552083333333335e-06,
 "end_actives": [
  "p0",
  "p2",
  "p4",
  "p7"
 ],
 "applications": [
  {
   "vertex": 0,
   "depth": 0,
   "start_effective": 0.0,
   "expiry": 1.7777777777777777,
   "mid_time": 1.777361111111111,
   "post_time": 1.7781944444444444,
   "sites": [
    "p0",
    "p1",
    "p2",
    "p4",
    "p6",
    "p7"
   ],
   "expiry_feet": [
    "p2",
    "p4"
   ],
   "cancel_sites": [
    "p1",
    "p6"
   ]
  }
 ]
}
"""


def test_verify_app_stdout_and_gamma_json_are_byte_exact(tmp_path, capsys):
    # the run/embed/verify-identities goldens cover neither serializer
    coloring = tmp_path / "coloring.json"
    coloring.write_text(json.dumps(_THREE_SEGMENT_ROWS))
    code, text, _ = run_cli(
        capsys, "verify-app", "--coloring", str(coloring),
        "--lambda", "1.5", "--trials", "2000", "--seed", "0",
    )
    assert code == 0
    assert text == _VERIFY_APP_STDOUT
    out = tmp_path / "gamma"
    assert run_cli(capsys, "gen", "gamma", "--n", "8", "--out", str(out))[0] == 0
    assert (out / "gamma.json").read_text() == _GAMMA_8_JSON


_COLORING_ROWS = [
    {"start": 0.0, "end": 1.0, "color": 1},
    {"start": 1.0, "end": 2.0, "color": 2},
]


@pytest.mark.parametrize("rows, argv, message", [
    (_COLORING_ROWS, ["--trials", "0"], "trials"),
    (_COLORING_ROWS, ["--trials", "-1"], "trials"),
    (_COLORING_ROWS, ["--lambda", "nan"], "rate"),
    (_COLORING_ROWS, ["--lambda", "inf"], "rate"),
    ([{"start": 0.0, "end": float("nan"), "color": 1}], [], "not finite"),
    ([{"start": 0.0, "end": float("inf"), "color": 1}], [], "not finite"),
    ([{"start": 0.0, "end": 1.0, "color": True}], [], "color must be"),
    ([{"start": "x", "end": 1.0, "color": 1}], [], "bad coloring row"),
], ids=[
    "zero-trials", "negative-trials", "nan-rate", "infinite-rate",
    "nan-end", "infinite-end", "bool-color", "string-start",
])
def test_bad_verify_app_input_is_user_error(tmp_path, capsys, rows, argv, message):
    coloring = tmp_path / "coloring.json"
    coloring.write_text(json.dumps(rows))
    code, out, err = run_cli(capsys, "verify-app", "--coloring", str(coloring), *argv)
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert out == "" and "Traceback" not in err


def test_save_bundle_round_trip(tmp_path):
    from delaymatch.instances import gen_two_point

    space, reqs = gen_two_point(1.5, "stagger:2")
    path = str(tmp_path / "bundle.json")
    save_bundle(space, reqs, path)
    space2, reqs2 = load_bundle(path)
    assert space2.points == space.points
    assert [r.point for r in reqs2] == [r.point for r in reqs]
    assert [r.t for r in reqs2] == [r.t for r in reqs]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n+```sh\n(.*?)```", readme, re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.strip()]
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coloring.json").write_text(json.dumps([
        {"start": 0.0, "end": 1.0, "color": 1},
        {"start": 1.0, "end": 2.0, "color": 2},
        {"start": 2.0, "end": 3.0, "color": 1},
    ]))
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "delaymatch", line
        code, _, err = run_cli(capsys, *argv[1:])
        assert code == 0, (line, err)
    assert _build_parser() is _build_parser()


_VALID_BUNDLE = {
    "points": ["p0", "p1"],
    "dist": [[0.0, 1.0], [1.0, 0.0]],
    "requests": [{"point": "p0", "t": 0.0}],
}
_TIME_RULE = "times must be finite and >= 0"
_BAD_BUNDLES = {  # overrides of the valid bundle (None drops a key), message
    "negative-time": ({"requests": [{"point": "p0", "t": -5}]}, _TIME_RULE),
    "nan-time": ({"requests": [{"point": "p0", "t": float("nan")}]}, _TIME_RULE),
    "infinite-time": (
        {"requests": [{"point": "p0", "t": float("inf")}]}, _TIME_RULE
    ),
    "string-time": ({"requests": [{"point": "p0", "t": "abc"}]}, "bad request row"),
    "list-point": ({"requests": [{"point": ["p0"], "t": 0.0}]}, "unknown point"),
    "requests-object": ({"requests": {"point": "p0", "t": 0.0}}, "JSON array"),
    "string-dist": ({"dist": "abc"}, "malformed metric"),
    "ragged-dist": ({"dist": [[0.0, 1.0], [1.0]]}, "malformed metric"),
    "scalar-dist": ({"points": None, "dist": 5}, "malformed metric"),
    "string-coords": ({"dist": None, "coords": "abc"}, "malformed metric"),
    "scalar-coords": ({"dist": None, "coords": 5}, "coordinate array of shape ()"),
    "nested-coords": (
        {"dist": None, "coords": [[[0.0], [1.0]]]}, "coordinate array of shape (1, 2, 1)"
    ),
    "empty-names": ({"points": []}, "does not match 0 points"),
    "list-names": ({"points": [["p0"], ["p1"]]}, "'points' must be"),
    "infinite-dist": (
        {"dist": [[0.0, float("inf")], [float("inf"), 0.0]]},
        "non-finite distance d(p0,p1)=inf",
    ),
    "nan-dist": (
        {"dist": [[0.0, float("nan")], [float("nan"), 0.0]]},
        "non-finite distance d(p0,p1)=nan",
    ),
    "overflowing-coords": (  # the difference itself overflows
        {"dist": None, "coords": [[1e308], [-1e308]]},
        "non-finite distance d(p0,p1)=inf",
    ),
}


@pytest.mark.parametrize("command", ["validate", "run", "verify-identities"])
@pytest.mark.parametrize("case", sorted(_BAD_BUNDLES))
def test_bad_bundle_is_user_error(tmp_path, capsys, case, command):
    override, message = _BAD_BUNDLES[case]
    bundle = {**_VALID_BUNDLE, **override}
    if isinstance(bundle["requests"], list):
        bundle["requests"] = bundle["requests"] + [{"point": "p1", "t": 1.0}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({k: v for k, v in bundle.items() if v is not None}))
    code, _, err = run_cli(capsys, command, "--instance", str(path))
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["two-point", "--pattern", "stagger:x"],
    ["two-point", "--pattern", "stagger:2", "--spacing", "-1"],
    ["random", "--horizon", "-1"],
    ["two-point", "--spacing", "-1"],
    ["two-point", "--pattern", "stagger:2", "--spacing", "inf"],
    ["two-point", "--delta", "inf"],
    ["random", "--requests", "-2"],
])
def test_bad_gen_argument_is_user_error(tmp_path, capsys, argv):
    code, _, err = run_cli(capsys, "gen", *argv, "--out", str(tmp_path / "out"))
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["run", "--penalty", "nan"], "penalty must be in (0, inf)"),
    (["run", "--penalty", "inf"], "penalty must be in (0, inf)"),
    (["verify-identities", "--trials", "0"], "trials must be >= 1"),
], ids=["nan-penalty", "infinite-penalty", "zero-identity-trials"])
def test_bad_option_is_user_error(tmp_path, capsys, argv, message):
    inst_dir = str(tmp_path / "inst")
    run_cli(capsys, "gen", "random", "--points", "4", "--requests", "6",
            "--out", inst_dir)
    code, out, err = run_cli(
        capsys, *argv, "--instance", f"{inst_dir}/instance.json"
    )
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert out == "" and "Traceback" not in err


def _weighted_leaf(tree):
    next(r for r in tree["vertices"] if "point" in r)["weight"] = 0.5
    return tree


def _unary_vertex(tree):
    tree["vertices"].pop()  # the last vertex is a leaf; its parent keeps one child
    return tree


_BAD_TREES = {  # edit of a valid tree JSON, message
    "empty-object": (lambda tree: {}, "malformed tree"),
    "array": (lambda tree: [1, 2], "malformed tree"),
    "weighted-leaf": (_weighted_leaf, "invalid tree"),
    "unary-vertex": (_unary_vertex, "invalid tree"),
}


@pytest.mark.parametrize("case", sorted(_BAD_TREES))
def test_bad_fixed_tree_is_user_error(tmp_path, capsys, case):
    edit, message = _BAD_TREES[case]
    inst_dir = str(tmp_path / "inst")
    run_cli(capsys, "gen", "random", "--points", "4", "--requests", "6",
            "--out", inst_dir)
    inst = f"{inst_dir}/instance.json"
    run_cli(capsys, "embed", "--instance", inst, "--out", str(tmp_path / "tree"))
    tree_path = tmp_path / "tree" / "tree.json"
    tree_path.write_text(json.dumps(edit(json.loads(tree_path.read_text()))))
    code, out, err = run_cli(
        capsys, "run", "--instance", inst, "--fixed-tree", str(tree_path)
    )
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert out == "" and "Traceback" not in err


def _other_bundle(points):
    def make(capsys, tmp_path, bundle):
        run_cli(capsys, "gen", "random", "--points", str(points), "--requests", "6",
                "--out", str(tmp_path / "other"))
        return json.loads((tmp_path / "other" / "instance.json").read_text())
    return make


def _scaled_bundle(capsys, tmp_path, bundle):
    bundle["dist"] = [[100.0 * d for d in row] for row in bundle["dist"]]
    return bundle


_MISMATCHED_BUNDLES = {  # bundle the 4-point tree is run on, message
    "five-points": (_other_bundle(5), "fixed tree has no leaf for point p4"),
    "three-points": (_other_bundle(3), "fixed tree leaf p3 is not an instance point"),
    "scaled-distances": (_scaled_bundle, "below metric distance"),
}


@pytest.mark.parametrize("case", sorted(_MISMATCHED_BUNDLES))
def test_fixed_tree_must_fit_the_bundle(tmp_path, capsys, case):
    make, message = _MISMATCHED_BUNDLES[case]
    inst_dir = str(tmp_path / "inst")
    run_cli(capsys, "gen", "random", "--points", "4", "--requests", "6",
            "--out", inst_dir)
    inst = f"{inst_dir}/instance.json"
    run_cli(capsys, "embed", "--instance", inst, "--out", str(tmp_path / "tree"))
    tree = str(tmp_path / "tree" / "tree.json")
    code, _, _ = run_cli(capsys, "run", "--instance", inst, "--fixed-tree", tree)
    assert code == 0  # the tree fits the bundle it was embedded from
    bad = tmp_path / "bad.json"
    bundle = make(capsys, tmp_path, json.loads(Path(inst).read_text()))
    bad.write_text(json.dumps(bundle))
    code, out, err = run_cli(
        capsys, "run", "--instance", str(bad), "--fixed-tree", tree
    )
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert out == "" and "Traceback" not in err


def _write_bundle(path, dist, times):
    """A bundle of points p0, p1, ... with request k at point k mod n, time times[k]."""
    n = len(dist)
    path.write_text(json.dumps({
        "points": [f"p{i}" for i in range(n)],
        "dist": dist,
        "requests": [{"point": f"p{k % n}", "t": t} for k, t in enumerate(times)],
    }))
    return str(path)


def _triangle(near, far):
    """p0, p1 `near` apart and p2 `far` from both."""
    return [[0.0, near, far], [near, 0.0, far], [far, far, 0.0]]


def test_depth_first_fixed_tree_runs_as_its_breadth_first_twin(tmp_path, capsys):
    # one four-leaf tree in two numberings: inner vertices 1, 4 (depth-first)
    # and 1, 2 (breadth-first); the engine keys timer streams by vertex id
    names = ["a", "b", "c", "d"]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "points": names,
        "dist": [[0 if x == y else 2.0 if (x < 2) == (y < 2) else 4.0
                  for y in range(4)] for x in range(4)],
        "requests": [{"point": names[k % 4], "t": 0.25 * k} for k in range(12)],
    }))
    reports = []
    for parent, weight, leaves in (
        ([-1, 0, 1, 1, 0, 4, 4], [4.0, 2.0, 0, 0, 2.0, 0, 0], [2, 3, 5, 6]),
        ([-1, 0, 0, 1, 1, 2, 2], [4.0, 2.0, 2.0, 0, 0, 0, 0], [3, 4, 5, 6]),
    ):
        rows = [{"id": v, "parent": p, "weight": w} for v, (p, w)
                in enumerate(zip(parent, weight))]
        for v, name in zip(leaves, names):
            rows[v]["point"] = name
        tree = tmp_path / f"tree{len(reports)}.json"
        tree.write_text(json.dumps({"alpha": 1.5, "vertices": rows}))
        code, text, err = run_cli(
            capsys, "run", "--instance", str(inst), "--fixed-tree", str(tree),
            "--trials", "3", "--seed", "5",
        )
        assert code == 0, err
        reports.append(text)
    assert reports[0] == reports[1]


@pytest.mark.filterwarnings("error")
def test_validate_accepts_distances_near_the_float_maximum(tmp_path, capsys):
    inst = _write_bundle(tmp_path / "inst.json", _triangle(1e308, 1e308), [0.0, 1.0])
    code, text, err = run_cli(capsys, "validate", "--instance", inst)
    assert code == 0 and "ok" in text
    assert err == ""


@pytest.mark.filterwarnings("error")
def test_offline_solve_past_the_float_range_warns_nothing(tmp_path, capsys):
    # the optimum pairs each point with itself; the solver's other candidates
    # overflow, and the embedding's range check then rejects the metric
    times = [float(k) for k in range(6)]
    inst = _write_bundle(tmp_path / "inst.json", _triangle(1e308, 1e308), times)
    code, out, err = run_cli(capsys, "run", "--instance", inst)
    assert code == 1
    assert err.startswith("error: diameter 1e+308 exceeds")
    assert out == "" and "Traceback" not in err and "Warning" not in err


def test_out_of_range_metric_is_rejected_before_the_offline_solve(
    tmp_path, capsys, monkeypatch
):
    solved = []
    monkeypatch.setattr(offline, "_solve", lambda *args: solved.append(args))
    times = [float(k) for k in range(6)]
    inst = _write_bundle(tmp_path / "inst.json", _triangle(1e308, 1e308), times)
    code, out, err = run_cli(capsys, "run", "--instance", inst)
    assert code == 1
    assert err.startswith("error: diameter 1e+308 exceeds")
    assert solved == []


def test_doubled_metric_out_of_range_is_rejected_before_the_offline_solve(
    tmp_path, capsys, monkeypatch
):
    # the base metric fits the range; its doubled metric, sides 2e306 + p,
    # does not, and trial 0 embeds the doubled metric
    solved = []
    monkeypatch.setattr(offline, "_solve", lambda *args: solved.append(args))
    times = [float(k) for k in range(6)]
    inst = _write_bundle(tmp_path / "inst.json", _triangle(2e306, 2e306), times)
    assert classify_regime(load_bundle(inst)[0], 2e306) == REGIME_DOUBLED
    code, out, err = run_cli(capsys, "run", "--instance", inst, "--penalty", "2e306")
    assert code == 1
    assert err.startswith("error: diameter 4e+306 exceeds 2.8089e+306")
    assert out == "" and solved == []


def test_odd_request_count_is_rejected_before_any_tree_is_sampled(
    tmp_path, capsys, monkeypatch
):
    embedded = []
    monkeypatch.setattr(embedding, "frt_embed", lambda *args: embedded.append(args))
    inst = _write_bundle(tmp_path / "inst.json", _triangle(1.0, 1.0), [0.0, 1.0, 2.0])
    code, out, err = run_cli(capsys, "run", "--instance", inst)
    assert code == 1
    assert err == "error: 3 requests; matching needs an even count\n"
    assert out == "" and embedded == []


def test_odd_random_bundle_is_written_and_served_with_a_penalty(tmp_path, capsys):
    out = str(tmp_path / "inst")
    code, _, _ = run_cli(capsys, "gen", "random", "--kind", "line", "--points", "6",
                         "--requests", "7", "--out", out)
    assert code == 0
    inst = f"{out}/instance.json"
    assert len(json.loads(Path(inst).read_text())["requests"]) == 7
    code, _, err = run_cli(capsys, "run", "--instance", inst, "--penalty", "0.2")
    assert code == 0, err
    code, text, err = run_cli(capsys, "run", "--instance", inst)
    assert code == 1 and text == ""
    assert err == "error: 7 requests; matching needs an even count\n"


@pytest.mark.parametrize("dist, penalty", [
    (_triangle(1e308, 1e308), "1.0"),
    (_triangle(1e-300, 1e10), "1e-301"),
], ids=["diameter", "aspect-ratio"])
def test_per_point_penalty_on_an_out_of_range_metric_runs(
    tmp_path, capsys, dist, penalty
):
    # below d_min / 2 no tree is embedded, so the embedding's range is moot
    inst = _write_bundle(tmp_path / "inst.json", dist, [0.0, 1.0, 1.5, 2.0])
    assert classify_regime(load_bundle(inst)[0], float(penalty)) == REGIME_PER_POINT
    code, text, err = run_cli(
        capsys, "run", "--instance", inst, "--penalty", penalty,
        "--out", str(tmp_path / "out"),
    )
    assert code == 0, err
    assert "opt_exact yes" in text


_BEYOND_RANGE = {  # metric past the embedding's float range, limit named
    "diameter": (_triangle(1e308, 1e308), "diameter 1e+308 exceeds 2.8089e+306"),
    "aspect-ratio": (
        _triangle(1e-300, 1e10), "aspect ratio inf exceeds 1.12356e+307"
    ),
}


@pytest.mark.parametrize("command", ["run", "embed"])
@pytest.mark.parametrize("case", sorted(_BEYOND_RANGE))
def test_metric_beyond_the_float_range_is_user_error(tmp_path, capsys, case, command):
    dist, message = _BEYOND_RANGE[case]
    inst = _write_bundle(tmp_path / "inst.json", dist, [0.0, 1.0])
    code, out, err = run_cli(
        capsys, command, "--instance", inst, "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "the largest whose embedded tree weights stay finite" in err
    assert out == "" and "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, message, finite", [
    (["verify-identities"], "the cost ledgers of this run exceed", "ok\n"),
    (["run", "--trials", "2"], "the batch summary exceeds", "residual 0.0\n"),
], ids=["verify-identities", "run"])
def test_arrival_times_near_the_float_maximum(
    tmp_path, capsys, command, message, finite
):
    # valid times whose ledgers (verify-identities) or batch mean (run) pass
    # the float range; at half the time every sum stays finite
    dist = [[0.0, 1.0], [1.0, 0.0]]
    late = _write_bundle(tmp_path / "late.json", dist, [0.0, 1e308])
    code, out, err = run_cli(capsys, *command, "--instance", late)
    assert code == 1 and out == ""
    assert err == f"error: {message} the float range\n"
    half = _write_bundle(tmp_path / "half.json", dist, [0.0, 5e307])
    code, out, err = run_cli(capsys, *command, "--instance", half)
    assert code == 0, err
    assert finite in out and "Warning" not in err


@pytest.mark.parametrize("near, far", [
    (embedding._MAX_DIAMETER, embedding._MAX_DIAMETER),
    (2.0**-960, embedding._MAX_ASPECT * 2.0**-960),
], ids=["diameter", "aspect-ratio"])
def test_metric_at_the_float_range_bounds_runs(tmp_path, capsys, near, far):
    inst = _write_bundle(
        tmp_path / "inst.json", _triangle(near, far), [0.5 * k for k in range(6)]
    )
    code, text, err = run_cli(capsys, "run", "--instance", inst, "--trials", "3")
    assert code == 0, err
    penalty = 2.5 * far
    assert classify_regime(load_bundle(inst)[0], penalty) == REGIME_TWO_COPIES
    code, text, err = run_cli(
        capsys, "run", "--instance", inst, "--trials", "3", "--penalty", str(penalty)
    )
    assert code == 0, err


def _seeded_command(tmp_path, capsys, command):
    """argv of `command` on valid inputs, ready for a --seed value."""
    if command == "gen random":
        return ["gen", "random", "--out", str(tmp_path / "gen")]
    if command == "verify-app":
        coloring = tmp_path / "coloring.json"
        coloring.write_text(json.dumps(_COLORING_ROWS))
        return ["verify-app", "--coloring", str(coloring), "--trials", "100"]
    inst_dir = str(tmp_path / "inst")
    run_cli(capsys, "gen", "random", "--points", "4", "--requests", "6",
            "--out", inst_dir)
    return [command, "--instance", f"{inst_dir}/instance.json"]


@pytest.mark.parametrize(
    "command", ["embed", "verify-identities", "verify-app", "gen random", "run"]
)
def test_negative_seed_is_user_error(tmp_path, capsys, command):
    argv = _seeded_command(tmp_path, capsys, command)
    assert run_cli(capsys, *argv, "--seed", "3")[0] == 0
    for bad in ("-1", "x"):
        code, out, err = run_cli(capsys, *argv, "--seed", bad)
        assert code == 1
        assert "error: argument --seed: seed must be a non-negative integer" in err
        assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "embed", "gen random"])
def test_out_naming_an_existing_file_is_user_error(tmp_path, capsys, command):
    argv = _seeded_command(tmp_path, capsys, command)
    taken = tmp_path / "taken"
    taken.write_text("")
    # gen random's argv names an --out already; argparse keeps the last one
    # checked before any work, so nothing reaches stdout
    code, out, err = run_cli(capsys, *argv, "--out", str(taken))
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: cannot use {taken} as the output directory: File exists"
    ]
    assert "Traceback" not in err


# main() under a 1.5 GB address-space cap; prints its own wall time
CAPPED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
from delaymatch.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
print(f"{time.perf_counter() - t0:.6f}")
sys.exit(code)
"""

HUGE = str(10**20)


@pytest.mark.parametrize("argv, message", [
    (["gen", "two-point", "--pattern", f"stagger:{HUGE}"],
     f"k must be <= {MAX_REQUESTS // 2}, got {HUGE}"),
    (["verify-app", "--trials", HUGE], f"trials must be at most {MAX_REALIZATIONS}"),
    (["verify-app", "--trials", str(10**12)],
     f"trials must be at most {MAX_REALIZATIONS}"),
    (["run", "--trials", HUGE], f"trials must be <= {MAX_TRIALS}, got {HUGE}"),
    (["verify-identities", "--trials", HUGE], f"trials must be <= {MAX_TRIALS}"),
    (["gen", "random", "--points", HUGE], f"point count must be <= {MAX_POINTS}"),
    (["gen", "random", "--requests", HUGE], f"request count must be <= {MAX_REQUESTS}"),
    (["gen", "gamma", "--n", str(2**60)], f"leaf count must be <= {MAX_POINTS}"),
], ids=["stagger", "verify-app-1e20", "verify-app-1e12", "run", "verify-identities",
        "gen-points", "gen-requests", "gamma"])
def test_huge_count_is_user_error_under_a_memory_cap(tmp_path, capsys, argv, message):
    if argv[0] == "gen":
        argv = [*argv, "--out", str(tmp_path / "gen")]
    elif argv[0] == "verify-app":
        coloring = tmp_path / "coloring.json"
        coloring.write_text(json.dumps(_COLORING_ROWS))
        argv = [*argv, "--coloring", str(coloring)]
    else:
        argv = _seeded_command(tmp_path, capsys, argv[0]) + argv[1:]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", CAPPED_MAIN, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert message in out.stderr
    assert float(out.stdout) < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="binarization defect: a vertex with more than 2^(cap+1) leaf "
    "children overflows the Kraft sum (ROADMAP item 2, step 2)",
)
def test_uniform_metric_with_17_points_runs(tmp_path, capsys):
    inst_dir = str(tmp_path / "inst")
    code, _, _ = run_cli(capsys, "gen", "random", "--kind", "uniform",
                         "--points", "17", "--out", inst_dir)
    assert code == 0
    code, _, err = run_cli(capsys, "run", "--instance", f"{inst_dir}/instance.json")
    assert code == 0, err
