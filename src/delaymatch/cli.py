"""Command-line interface.

Subcommands:

    validate           check an instance bundle (metric + optional requests)
    embed              sample one embedded tree and print its statistics
    run                run an experiment batch, emit report text / JSON / CSV
    verify-app         exact and sampled checks of the alternating digestion laws
    verify-identities  exact cost-accounting identities on sampled runs
    gen                write instance bundles (random, two-point, gamma)
    report             recompute the summary of a trials CSV

Exit codes: 0 success, 1 user error (bad input or usage), 2 invariant
violation (a bug in the library, not in the input).  Reports are
deterministic byte for byte given the configuration; wall-clock timing goes
to stderr only.

Instance bundles are JSON objects.  The metric is either "dist", a square
matrix of distances with optional "points" names (default p0, p1, ...), or
"coords", one coordinate row per point for a Euclidean metric, again with
optional "points".  An optional "requests" array holds {"point", "t"} rows:
each point must name a point of the metric, and arrival times must be
finite, at least 0 and pairwise distinct.  `load_bundle` and `save_bundle`
are the one reader and writer of this format; any other shape is rejected
as a user error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .altpoisson import load_coloring, verify_digestion
from .core import make_requests, total_cost
from .diagnostics import track_potentials, verify_cost_identities
from .embedding import Hsbt, sample_hsbt, tree_metric
from .errors import InstanceLoadError, InvariantViolation, UserError
from .experiment import (
    MAX_TRIALS,
    ExperimentConfig,
    batch_summary,
    run_experiment,
    trial_rng,
)
from .instances import (
    GammaConfig,
    gen_adversarial_gamma,
    gen_random,
    gen_two_point,
)
from .metric import MetricSpace, from_coords, stats
from .offline import optimal_mpmd
from .stiltwalker import TimerMode, run

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as user errors (exit code 1)."""

    def error(self, message):
        self.print_help(sys.stderr)
        raise UserError(message)


# ---------------------------------------------------------------------------
# bundle I/O
# ---------------------------------------------------------------------------

def load_bundle(path: str):
    """Instance bundle -> (space, requests or None); see the module doc."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InstanceLoadError(f"cannot read instance {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InstanceLoadError("instance file must hold a JSON object")
    names = obj.get("points")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(p, str) for p in names)
    ):
        raise InstanceLoadError("'points' must be an array of strings")
    try:
        if "dist" in obj:
            dist = np.asarray(obj["dist"], dtype=float)
            pts = [f"p{i}" for i in range(len(dist))] if names is None else names
            space = MetricSpace(pts, dist)
        elif "coords" in obj:
            space = from_coords(obj["coords"], names)
        else:
            raise InstanceLoadError("instance needs either 'dist' or 'coords'")
    except (TypeError, ValueError) as exc:
        raise InstanceLoadError(f"malformed metric: {exc}") from exc
    requests = None
    if "requests" in obj:
        rows = obj["requests"]
        if not isinstance(rows, list):
            raise InstanceLoadError("'requests' must be a JSON array")
        try:
            arrivals = [(row["point"], float(row["t"])) for row in rows]
        except (TypeError, KeyError, ValueError) as exc:
            raise InstanceLoadError(f"bad request row: {exc}") from exc
        requests = make_requests(space, arrivals)
    return space, requests


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_bundle(space: MetricSpace, requests, path: str) -> None:
    obj = {"points": list(space.points), "dist": space.dist.tolist()}
    if requests is not None:
        obj["requests"] = [
            {"point": r.point, "t": r.t} for r in sorted(requests, key=lambda r: r.id)
        ]
    _write_atomic(path, json.dumps(obj) + "\n")


def _out_dir(args) -> str | None:
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise UserError(
                f"cannot use {args.out} as the output directory: {exc.strerror}"
            ) from exc
    return args.out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    space, requests = load_bundle(args.instance)
    st = stats(space)
    print(f"points {space.n}")
    print(f"d_min {st.d_min!r}")
    print(f"d_max {st.d_max!r}")
    print(f"aspect_ratio {st.aspect_ratio!r}")
    print(f"requests {len(requests) if requests is not None else 0}")
    print("ok")
    return 0


def _cmd_embed(args) -> int:
    out = _out_dir(args)
    space, _ = load_bundle(args.instance)
    rng = np.random.default_rng(args.seed)
    tree = sample_hsbt(space, rng)
    pairs = np.triu_indices(space.n, 1)
    stretches = tree.leaf_distances(space.points)[pairs] / space.dist[pairs]
    print(f"vertices {len(tree)}")
    print(f"height {tree.height}")
    print(f"alpha {tree.alpha!r}")
    print(f"max_stretch {float(stretches.max())!r}")
    print(f"mean_stretch {float(np.mean(stretches))!r}")
    if out:
        tree.to_json(os.path.join(out, "tree.json"))
        print(f"wrote {os.path.join(out, 'tree.json')}")
    return 0


def _require_requests(requests) -> tuple:
    if not requests:
        raise UserError("this command needs an instance bundle with requests")
    return requests


def _cmd_run(args) -> int:
    t0 = time.perf_counter()
    out = _out_dir(args)
    space, requests = load_bundle(args.instance)
    requests = _require_requests(requests)
    fixed_tree = Hsbt.from_json(args.fixed_tree) if args.fixed_tree else None
    config = ExperimentConfig(
        space=space,
        requests=requests,
        trials=args.trials,
        master_seed=args.seed,
        mode=TimerMode(args.mode),
        flush=args.flush,
        penalty=args.penalty,
        fixed_tree=fixed_tree,
    )
    report = run_experiment(config)
    sys.stdout.write(report.to_text())
    if out:
        _write_atomic(
            os.path.join(out, "report.json"),
            json.dumps(report.to_dict(), indent=1) + "\n",
        )
        import io

        buf = io.StringIO()
        report.to_csv(buf)
        _write_atomic(os.path.join(out, "trials.csv"), buf.getvalue())
    print(f"runtime {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return 0


def _cmd_verify_app(args) -> int:
    coloring = load_coloring(args.coloring)
    rng = np.random.default_rng(args.seed)
    report = verify_digestion(coloring, args.lam, args.trials, rng)
    for key, value in report.to_dict().items():
        print(f"{key} {value!r}" if isinstance(value, float) else f"{key} {value}")
    if report.count_bound_violations or not (report.dominance_ok and report.law_ok):
        raise InvariantViolation("an alternation count check failed; see the report")
    return 0


def _cmd_verify_identities(args) -> int:
    if args.trials < 1:
        raise UserError(f"trials must be >= 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise UserError(f"trials must be <= {MAX_TRIALS}, got {args.trials}")
    space, requests = load_bundle(args.instance)
    requests = _require_requests(requests)
    # each field's worst value over the trials, in print order
    pick = {"residual_space": max, "residual_time": max,
            "time_bound_margin": min, "space_bound_margin": min}
    worst: dict[str, float] = {}
    for trial in range(args.trials):
        rng = trial_rng(args.seed, trial)
        tree = sample_hsbt(space, rng)
        out = run(tree, requests, TimerMode(args.mode), int(rng.integers(2**62)))
        space_t = tree_metric(tree)
        online_cost = total_cost(space_t, requests, out.schedule)
        offline = optimal_mpmd(space_t, requests)
        ledger = track_potentials(tree, out.trace, offline.schedule)
        rep = verify_cost_identities(tree, ledger, online_cost, offline.cost)
        d = rep.to_dict()
        for key, better in pick.items():
            worst[key] = better(worst.get(key, d[key]), d[key])
    print(f"trials {args.trials}")
    for key in pick:
        print(f"worst_{key} {worst[key]!r}")
    print("ok")
    return 0


def _cmd_gen(args) -> int:
    out = _out_dir(args)
    if not out:
        raise UserError("gen needs --out")
    if args.generator == "random":
        rng = np.random.default_rng(args.seed)
        space, requests = gen_random(
            args.kind, args.points, args.requests, args.horizon, rng
        )
        save_bundle(space, requests, os.path.join(out, "instance.json"))
    elif args.generator == "two-point":
        space, requests = gen_two_point(args.delta, args.pattern, args.spacing)
        save_bundle(space, requests, os.path.join(out, "instance.json"))
    else:  # gamma
        cfg = GammaConfig(n=args.n, epsilon=args.epsilon, max_depth=args.max_depth)
        inst = gen_adversarial_gamma(cfg)
        save_bundle(inst.space, inst.requests, os.path.join(out, "instance.json"))
        inst.tree.to_json(os.path.join(out, "tree.json"))
        meta = {
            "n": inst.n,
            "epsilon": inst.epsilon,
            "jitter": inst.jitter,
            "end_actives": list(inst.end_actives),
            "applications": [
                {k: v for k, v in asdict(a).items() if k != "handoff"}
                for a in inst.applications
            ],
        }
        _write_atomic(
            os.path.join(out, "gamma.json"), json.dumps(meta, indent=1) + "\n"
        )
    print(f"wrote {out}")
    return 0


def _cmd_report(args) -> int:
    import csv as _csv

    try:
        with open(args.csv) as fh:
            rows = list(_csv.DictReader(fh))
    except OSError as exc:
        raise InstanceLoadError(f"cannot read {args.csv}: {exc}") from exc
    if not rows:
        raise UserError("empty trials file")
    try:
        ratios = [float(r["ratio"]) for r in rows]
        totals = [float(r["total"]) for r in rows]
        opt_total = float(rows[0]["opt_total"])
    except (KeyError, ValueError) as exc:
        raise InstanceLoadError(f"bad trials file: {exc}") from exc
    mean, ci, residual = batch_summary(ratios, totals, opt_total)
    print(f"trials {len(rows)}")
    print(f"opt_total {opt_total!r}")
    print(f"ratio_mean {mean!r}")
    print(f"ratio_ci95 {ci!r}")
    print(f"residual {residual!r}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A --seed value; numpy seeds are non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}"
        )
    return int(text)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once: parsing keeps no state in it."""
    p = _Parser(prog="delaymatch", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    v = sub.add_parser("validate", help="check an instance bundle")
    v.add_argument("--instance", required=True)
    v.set_defaults(fn=_cmd_validate)

    e = sub.add_parser("embed", help="sample one embedded tree")
    e.add_argument("--instance", required=True)
    e.add_argument("--seed", type=_seed, default=0)
    e.add_argument("--out")
    e.set_defaults(fn=_cmd_embed)

    r = sub.add_parser("run", help="run an experiment batch")
    r.add_argument("--instance", required=True)
    r.add_argument("--trials", type=int, default=1)
    r.add_argument("--seed", type=_seed, default=0)
    r.add_argument(
        "--mode", choices=["exponential", "deterministic"], default="exponential"
    )
    r.add_argument("--flush", dest="flush", action="store_true", default=True)
    r.add_argument("--no-flush", dest="flush", action="store_false")
    r.add_argument("--penalty", type=float, default=None)
    r.add_argument("--fixed-tree", default=None, help="tree JSON to reuse each trial")
    r.add_argument("--out")
    r.set_defaults(fn=_cmd_run)

    va = sub.add_parser("verify-app", help="check the digestion laws")
    va.add_argument("--coloring", required=True)
    va.add_argument("--lambda", dest="lam", type=float, default=1.0)
    va.add_argument("--trials", type=int, default=10000)
    va.add_argument("--seed", type=_seed, default=0)
    va.set_defaults(fn=_cmd_verify_app)

    vi = sub.add_parser("verify-identities", help="check the cost accounting")
    vi.add_argument("--instance", required=True)
    vi.add_argument("--trials", type=int, default=1)
    vi.add_argument("--seed", type=_seed, default=0)
    vi.add_argument(
        "--mode", choices=["exponential", "deterministic"], default="exponential"
    )
    vi.set_defaults(fn=_cmd_verify_identities)

    g = sub.add_parser("gen", help="write instance bundles")
    gsub = g.add_subparsers(dest="generator", required=True, parser_class=_Parser)
    gr = gsub.add_parser("random")
    gr.add_argument("--kind", choices=["line", "square", "uniform"], default="line")
    gr.add_argument("--points", type=int, default=8)
    gr.add_argument("--requests", type=int, default=12)
    gr.add_argument("--horizon", type=float, default=10.0)
    gr.add_argument("--seed", type=_seed, default=0)
    gr.add_argument("--out")
    gr.set_defaults(fn=_cmd_gen)
    gt = gsub.add_parser("two-point")
    gt.add_argument("--delta", type=float, default=1.0)
    gt.add_argument("--pattern", default="pair_at_0")
    gt.add_argument("--spacing", type=float, default=None)
    gt.add_argument("--out")
    gt.set_defaults(fn=_cmd_gen)
    gg = gsub.add_parser("gamma")
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--epsilon", type=float, default=None)
    gg.add_argument("--max-depth", type=int, default=None)
    gg.add_argument("--out")
    gg.set_defaults(fn=_cmd_gen)

    rp = sub.add_parser("report", help="summarize a trials CSV")
    rp.add_argument("--csv", required=True)
    rp.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
