import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

from delaymatch.cli import load_bundle, save_bundle
from delaymatch.core import (
    Request,
    Schedule,
    make_requests,
    total_cost,
)
from delaymatch.errors import (
    DoubleService,
    InstanceLoadError,
    MatchBeforeArrival,
    OutOfDomain,
    UncoveredRequest,
    UnknownLocation,
)
from delaymatch.metric import from_coords


@pytest.fixture
def line():
    # points a=0, b=5 on a line
    return from_coords([(0.0,), (5.0,)], ["a", "b"])


def test_make_requests_sorted_and_frozen(line):
    reqs = make_requests(line, [("b", 2.0), ("a", 1.0)])
    assert [r.point for r in reqs] == ["a", "b"]
    assert [r.t for r in reqs] == [1.0, 2.0]
    assert {r.id for r in reqs} == {0, 1}


def test_make_requests_rejects_unknown_point(line):
    with pytest.raises(UnknownLocation):
        make_requests(line, [("zzz", 0.0), ("a", 1.0)])


def test_make_requests_rejects_coincident_times(line):
    with pytest.raises(InstanceLoadError):
        make_requests(line, [("a", 1.0), ("b", 1.0)])


def test_make_requests_accepts_odd_count(line):
    # parity is checked where pairing needs it (engine, offline, batch config)
    reqs = make_requests(line, [("a", 0.0), ("b", 1.0), ("a", 2.0)])
    assert len(reqs) == 3


def test_total_cost_rejects_early_match(line):
    reqs = make_requests(line, [("a", 1.0), ("b", 2.0)])
    with pytest.raises(MatchBeforeArrival, match=r"match of \(0,1\) at t=1.5"):
        total_cost(line, reqs, Schedule(pairings=((0, 1, 1.5),)))


def test_total_cost_pairings_only(line):
    reqs = make_requests(line, [("a", 1.0), ("b", 2.0)])
    sched = Schedule(pairings=((0, 1, 3.0),))
    cost = total_cost(line, reqs, sched)
    assert cost.space == 5.0
    assert cost.time == 3.0
    assert cost.penalty == 0.0
    assert cost.total == 8.0


def test_total_cost_with_clears(line):
    reqs = make_requests(line, [("a", 1.0), ("b", 2.0)])
    sched = Schedule(pairings=(), clears=((0, 4.0), (1, 2.0)))
    cost = total_cost(line, reqs, sched, penalty_p=10.0)
    assert cost.penalty == 20.0
    assert cost.time == 3.0  # waits of 3.0 and 0.0
    assert cost.space == 0.0


def test_total_cost_clears_need_penalty(line):
    reqs = make_requests(line, [("a", 1.0), ("b", 2.0)])
    sched = Schedule(pairings=(), clears=((0, 4.0), (1, 5.0)))
    with pytest.raises(OutOfDomain):
        total_cost(line, reqs, sched)


def test_total_cost_double_service(line):
    reqs = make_requests(line, [("a", 1.0), ("b", 2.0)])
    sched = Schedule(pairings=((0, 0, 3.0),))
    with pytest.raises(DoubleService):
        total_cost(line, reqs, sched)


def test_total_cost_uncovered_request(line):
    reqs = make_requests(line, [("a", 1.0), ("b", 2.0)])
    with pytest.raises(UncoveredRequest):
        total_cost(line, reqs, Schedule(pairings=()))
    with pytest.raises(UncoveredRequest):
        total_cost(line, reqs, Schedule(pairings=((0, 7, 3.0),)))


def test_total_cost_past_the_float_range_is_out_of_domain(line):
    # each wait is finite, their sum is not
    times = [("a", 0.0), ("b", 1.0), ("a", 1.7e308), ("b", 1.75e308)]
    reqs = make_requests(line, times)
    sched = Schedule(pairings=((0, 2, 1.7e308), (1, 3, 1.75e308)))
    with pytest.raises(OutOfDomain, match="exceeds the float range"):
        total_cost(line, reqs, sched)


def test_total_cost_clear_before_arrival(line):
    reqs = make_requests(line, [("a", 1.0), ("b", 2.0)])
    sched = Schedule(pairings=(), clears=((0, 0.5), (1, 3.0)))
    with pytest.raises(MatchBeforeArrival):
        total_cost(line, reqs, sched, penalty_p=1.0)


def test_requests_round_trip(tmp_path, line):
    reqs = make_requests(line, [("a", 1.0), ("b", 2.5)])
    path = str(tmp_path / "bundle.json")
    save_bundle(line, reqs, path)
    _, back = load_bundle(path)
    assert back == reqs


def test_load_requests_bad_shape(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(
        {"coords": [[0], [5]], "points": ["a", "b"], "requests": {"point": "a"}}
    ))
    with pytest.raises(InstanceLoadError):
        load_bundle(str(path))


def test_every_public_name_resolves():
    import delaymatch

    modules = [delaymatch] + [
        importlib.import_module(f"delaymatch.{m.name}")
        for m in pkgutil.iter_modules(delaymatch.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


def _fresh_modules(code, *args):
    """The modules a fresh interpreter holds after running `code`."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = f"import sys\n{code}\nprint(*sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(out.stdout.split())


def test_package_import_loads_no_layer():
    loaded = _fresh_modules("import delaymatch")
    assert "delaymatch" in loaded
    assert [m for m in loaded if m.startswith("delaymatch.")] == []


# every subcommand through `cli.main`, in one interpreter, in the directory
# named by argv[1]; each must exit 0
_EVERY_COMMAND = """
import contextlib, io, json, os
from delaymatch import cli
os.chdir(sys.argv[1])
rows = [{"start": 0, "end": 1, "color": 1}, {"start": 1, "end": 2, "color": 2}]
with open("coloring.json", "w") as fh:
    json.dump(rows, fh)
for argv in [
    "gen random --points 4 --requests 6 --out inst",
    "gen two-point --out two",
    "gen gamma --n 8 --out gamma",
    "validate --instance inst/instance.json",
    "embed --instance inst/instance.json --out inst",
    "run --instance inst/instance.json --trials 2 --out out",
    "run --instance inst/instance.json --trials 2 --fixed-tree inst/tree.json",
    "run --instance inst/instance.json --trials 2 --penalty 0.3",
    "report --csv out/trials.csv",
    "verify-identities --instance inst/instance.json",
    "verify-app --coloring coloring.json --trials 100",
]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv.split())
    assert code == 0, (argv, err.getvalue())
"""


def test_no_command_loads_scipy_stats(tmp_path):
    loaded = _fresh_modules(_EVERY_COMMAND, str(tmp_path))
    assert {"delaymatch.cli", "delaymatch.altpoisson"} <= loaded
    assert "scipy.stats" not in loaded
