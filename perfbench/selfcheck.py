"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json for one second (each run still
completes the workload's `repeat_ops` operations), each run in a fresh
process: untraced twice and traced twice with the same seed.  It asserts
that every run is correct, that the untraced runs emit exactly the
`end_to_end` metrics and the traced runs exactly the `per_layer` metrics of
BENCHMARK.json with their units, that the output digests agree across all
four runs and the exact-repeat counts across both traced runs.  Last, it
checks that the benchmark fails without printing a result in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
# per-layer metrics that two traced runs of one seed must repeat exactly
REPEAT_SUFFIXES = (
    ".calls", ".failed", ".vertices", ".height", ".events", ".realizations",
    ".exact_share", ".arrival", ".same_leaf", ".match", ".flush",
)


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=600,
    )


def checked_run(workload: str, trace: int, problems: list[str]):
    proc = run(ROOT, workload, trace)
    label = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None, None
    result = json.loads(lines[-1])
    path = os.path.join(HERE, "out", f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path) as fh:
        record = json.load(fh)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: not correct: {record['failures']}")
    return result, record


def expect_metrics(label, result, specs, problems, positive):
    want = {s["name"]: s["unit"] for s in specs}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {got} != BENCHMARK.json {want}")
    for k, m in result["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{label}: {k} = {v!r}")
        elif positive and v <= 0:
            problems.append(f"{label}: {k} = {v!r} is not positive")


def check_bare_directory(problems: list[str]) -> None:
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE, os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
        proc = run(bare, "digestion", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("bare directory: the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems: list[str] = []
    for w in (spec["name"] for spec in bench["workloads"]):
        plain = [checked_run(w, 0, problems) for _ in range(2)]
        traced = [checked_run(w, 1, problems) for _ in range(2)]
        if any(r is None for r, _ in plain + traced):
            continue
        for r, _ in plain:
            expect_metrics(f"{w} trace=0", r, bench["end_to_end"], problems, True)
        for r, _ in traced:
            expect_metrics(f"{w} trace=1", r, bench["per_layer"], problems, False)
        digests = {rec["output_digest"] for _, rec in plain + traced}
        if len(digests) != 1:
            problems.append(f"{w}: output digests differ across runs: {digests}")
        (t1, _), (t2, _) = traced
        for k, m in t1["metrics"].items():
            if k.endswith(REPEAT_SUFFIXES) and m["value"] != t2["metrics"][k]["value"]:
                problems.append(f"{w}: {k} did not repeat: "
                                f"{m['value']} vs {t2['metrics'][k]['value']}")
        print(f"{w}: {plain[0][1]['ops']}+{plain[1][1]['ops']} untraced, "
              f"{traced[0][1]['ops']}+{traced[1][1]['ops']} traced ops checked")
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
