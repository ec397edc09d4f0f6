"""delaymatch benchmark: closed-loop workloads, one process per workload.

Run from the repository root:

    python3 perfbench/run.py --workload run_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20    # every workload in turn
    python3 perfbench/selfcheck.py                    # fast check of the benchmark

One run sets the workload up several times (reporting the median as
`setup_s`), then runs operations one at a time, each starting when the
previous one returned, for `--seconds` seconds and at least the workload's
`repeat_ops` operations.  Every operation's output is checked; a non-zero
`cli.main` exit, an exception or a failed check counts the operation as
failed.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones: `op_ms_min`, the
fastest operation's latency, `setup_s`, the median set-up time, and
`peak_rss_mb` (`ru_maxrss` of this process).  On a shared host whose
speed switches between fast and slow phases (up to about 2x slower) for
seconds to minutes at a time, the median latency and the throughput of a
run depend on how much of it fell into slow phases; the fastest operation
tracks the program's own cost.  Throughput and the
median and 90th-percentile latencies go to the per-run record instead.
With `--trace 1` each operation runs twice, untraced and traced in
alternating order; the traced runs give the per-layer metrics of
`tracing.py` and the pair gives the tracing overhead.

Each run also writes `perfbench/out/<workload>-seed<seed>-trace<t>.json`
with provenance (seed, op counts, versions, CPU, nproc), the throughput,
the median latency, the 90th percentile latency when at least 100
operations ran, the failed fraction,
the first failures, and a digest of the outputs of the first `repeat_ops`
operations, which two runs of the same code and seed reproduce exactly.
Traced runs also write their spans to `...-spans.jsonl`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("run_sweep", "engine_big_tree", "identities_small", "digestion")

END_TO_END_UNITS = {
    "op_ms_min": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
P90_MIN_OPS = 100  # p90 needs at least ten samples beyond it


def _pin_threads() -> None:
    # one process, one thread: keep BLAS/OpenMP pools from spinning up
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[var] = "1"


def _import_library():
    """Import delaymatch from this checkout's `src/` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "delaymatch", "__init__.py")):
        sys.exit(f"perfbench: no delaymatch sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import delaymatch

    found = os.path.dirname(os.path.abspath(delaymatch.__file__))
    if found != os.path.join(SRC, "delaymatch"):
        sys.exit(f"perfbench: imported delaymatch from {found}, not {SRC}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _setup(wl, seed: int, workdir: str) -> list[float]:
    times = []
    for _ in range(wl.setup_reps):
        t0 = time.perf_counter()
        wl.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
    return times


def _timed(wl, i: int):
    """One operation: (seconds, digest bytes or None, error message or None)."""
    t0 = time.perf_counter()
    try:
        raw = wl.call(i)
    except Exception as exc:  # a failed op is counted, never dropped
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    try:
        return dt, wl.check(i, raw), None
    except Exception as exc:
        return dt, None, f"check: {type(exc).__name__}: {exc}"


def _traced_pair(wl, tracer, i: int):
    """Op i untraced and traced, in alternating order: (untraced, traced)."""
    results = {}
    for traced in ((False, True) if i % 2 == 0 else (True, False)):
        if traced:
            with tracer.recording(i):
                results[True] = _timed(wl, i)
        else:
            results[False] = _timed(wl, i)
    return results[False], results[True]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[name]()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    tracer = Tracer() if trace else None
    try:
        with tracer.recording() if tracer else contextlib.nullcontext():
            setup_times = _setup(wl, seed, workdir)

        digest = hashlib.sha256()
        latencies: list[float] = []
        failures: list[str] = []
        attempted = 0
        paired = [0.0, 0.0]  # untraced, traced seconds over the same ops
        i = 0
        start = time.perf_counter()
        deadline = start + seconds
        while i < wl.repeat_ops or time.perf_counter() < deadline:
            if tracer:
                (dt, out, err), (dt_t, out_t, err_t) = _traced_pair(wl, tracer, i)
                paired[0] += dt
                paired[1] += dt_t
                if err is None and err_t is None and out != out_t:
                    err_t = "traced output differs from untraced output"
                errors = [e for e in (err, err_t) if e is not None]
                attempted += 2
            else:
                dt, out, err = _timed(wl, i)
                errors = [err] if err is not None else []
                attempted += 1
            failures.extend(f"op {i}: {e}" for e in errors)
            # a failed op misses any latency limit
            latencies.append(dt if err is None else float("inf"))
            if i < wl.repeat_ops and out is not None:
                digest.update(out)
            i += 1
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok_ops = sum(1 for x in latencies if x != float("inf"))
    p50 = statistics.median(latencies) * 1e3
    if len(latencies) >= P90_MIN_OPS:
        p90 = {"value": statistics.quantiles(latencies, n=10)[-1] * 1e3,
               "unit": "ms", "reported": True}
    else:
        p90 = {"reported": False,
               "why": f"{len(latencies)} ops < {P90_MIN_OPS}: fewer than ten "
                      "samples would lie beyond the 90th percentile"}
    if tracer:
        overhead = paired[0] / paired[1] - 1.0 if paired[1] else 0.0
        values = layer_metrics(tracer.spans, wl.repeat_ops, overhead)
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k][0]}
                   for k, v in values.items()}
    else:
        values = {
            "op_ms_min": min(latencies) * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        # with every op failed the minimum is infinite; JSON has no inf
        metrics = {k: {"value": v if math.isfinite(v) else None,
                       "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(seed),
        "ops": len(latencies),
        "ops_per_s": ok_ops / wall,
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
        "setup_reps": len(setup_times),
        "setup_s_all": setup_times,
        "op_ms_all": [x * 1e3 for x in latencies],
        "repeat_ops": wl.repeat_ops,
        "output_digest": digest.hexdigest(),
        "result": result,
    }
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if tracer:
        tracer.write(stem + "-spans.jsonl")
    return result


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then a summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    _pin_threads()
    _import_library()
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
