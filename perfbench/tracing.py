"""Per-layer spans, recorded from outside the library.

Inside `Tracer.recording()` the public entry points of each delaymatch layer
(every module attribute and class attribute that holds them) are rebound to
wrappers that record a span: name, start, end, parent span and the
operation it belongs to.  Leaving the block restores the originals, so
untraced operations run the unmodified library.  Spans stay in memory until
the run ends.

A span's self time is its duration minus the durations of its child spans
(the run is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import resource
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from delaymatch import altpoisson, cli, core, diagnostics, embedding, experiment
from delaymatch import instances, metric, offline, stiltwalker

SETUP_OP = -1  # operation index of spans recorded during setup


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "child", "ok", "info")

    def __init__(self, name, op, parent):
        self.name, self.op, self.parent = name, op, parent
        self.start = self.end = self.child = 0.0
        self.ok = True
        self.info = {}

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _tree_info(span, result):
    span.info["vertices"] = len(result)
    span.info["height"] = result.height


def _events_info(span, result):
    span.info["events"] = dict(Counter(e.kind for e in result.trace.events))


def _optimal_info(span, result):
    span.info["optimal"] = bool(result.optimal)


# (span name, owner, attribute, hook recording counts from the result)
TARGETS = (
    ("cli.main", cli, "main", None),
    ("experiment.run", experiment, "run_experiment", None),
    ("metric.validate", metric.MetricSpace, "__init__", None),
    ("instances.gen", instances, "gen_random", None),
    ("embedding.sample_hsbt", embedding, "sample_hsbt", _tree_info),
    ("embedding.frt", embedding, "frt_embed", None),
    ("embedding.binarize", embedding, "binarize", None),
    ("embedding.tree_metric", embedding, "tree_metric", None),
    ("stiltwalker.setup", stiltwalker.Engine, "__init__", None),
    ("stiltwalker.run", stiltwalker.Engine, "run", _events_info),
    ("offline.optimal", offline, "optimal_mpmd", _optimal_info),
    ("offline.greedy", offline, "greedy_mpmd", _optimal_info),
    ("core.total_cost", core, "total_cost", None),
    ("diagnostics.track", diagnostics, "track_potentials", None),
    ("diagnostics.verify", diagnostics, "verify_cost_identities", None),
    ("altpoisson.verify", altpoisson, "verify_digestion", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.t0 = perf_counter()
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = [m for k, m in sys.modules.items() if k.startswith("delaymatch.")]
        for name, owner, attr, hook in TARGETS:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hook)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original, wrapper))
                continue
            # `from .x import f` copies the binding, so rebind every copy
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original, wrapper))
        # realizations are counted, not spanned: one span per draw would
        # cost more than the draw itself
        original = altpoisson.simulate_app
        self._patches.append(
            (altpoisson, "simulate_app", original, self._count(original))
        )

    @contextmanager
    def recording(self, op: int = SETUP_OP):
        """Wrap the entry points while the block runs, tagging spans with op."""
        self.op = op
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)
            self.op = SETUP_OP

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack
        measure_rss = name == "metric.validate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            if measure_rss:
                rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if stack:
                    spans[stack[-1]].child += span.end - span.start
            if measure_rss:
                rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                span.info["rss_growth_kb"] = rss1 - rss0
            if hook is not None:
                hook(span, result)
            return result

        return wrapper

    def _count(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def counter(*args, **kwargs):
            if stack:
                info = spans[stack[-1]].info
                info["realizations"] = info.get("realizations", 0) + 1
            return fn(*args, **kwargs)

        return counter

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {
                    "id": i, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start - self.t0, "end": s.end - self.t0, "ok": s.ok,
                }
                row.update(s.info)
                fh.write(json.dumps(row) + "\n")


# layer -> span names it owns
LAYERS = {
    "metric": ("metric.validate",),
    "instances": ("instances.gen",),
    "embedding": (
        "embedding.sample_hsbt", "embedding.frt", "embedding.binarize",
        "embedding.tree_metric",
    ),
    "stiltwalker": ("stiltwalker.setup", "stiltwalker.run"),
    "offline": ("offline.optimal", "offline.greedy"),
    "core": ("core.total_cost",),
    "diagnostics": ("diagnostics.track", "diagnostics.verify"),
    "altpoisson": ("altpoisson.verify",),
    "experiment": ("experiment.run",),
    "cli": ("cli.main",),
}

# per-layer metric -> unit and direction; every traced run emits all of them
PER_LAYER_UNITS = {
    "metric.validate_ms": ("ms", "lower"),
    "metric.validate_rss_mb": ("MB", "lower"),
    "instances.gen_ms": ("ms", "lower"),
    "embedding.frt_ms": ("ms", "lower"),
    "embedding.binarize_ms": ("ms", "lower"),
    "embedding.verify_ms": ("ms", "lower"),
    "embedding.tree_metric_ms": ("ms", "lower"),
    "embedding.vertices": ("count", "lower"),
    "embedding.height": ("count", "lower"),
    "stiltwalker.setup_ms": ("ms", "lower"),
    "stiltwalker.run_ms": ("ms", "lower"),
    "stiltwalker.us_per_event": ("us", "lower"),
    "stiltwalker.events": ("count", "lower"),
    "stiltwalker.events.arrival": ("count", "lower"),
    "stiltwalker.events.same_leaf": ("count", "lower"),
    "stiltwalker.events.match": ("count", "lower"),
    "stiltwalker.events.flush": ("count", "lower"),
    "offline.solve_ms": ("ms", "lower"),
    "offline.exact_share": ("ratio", "higher"),
    "core.total_cost_ms": ("ms", "lower"),
    "diagnostics.track_ms": ("ms", "lower"),
    "diagnostics.verify_ms": ("ms", "lower"),
    "altpoisson.us_per_realization": ("us", "lower"),
    "altpoisson.realizations": ("count", "lower"),
    "experiment.self_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    **{f"{layer}.failed": ("count", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("ratio", "higher"),
}


def layer_metrics(spans: list[Span], repeat_ops: int, overhead_frac: float) -> dict:
    """Per-layer metrics from one traced run.

    Times (`*_ms`, `us_per_*`) cover every span of the run and are self times
    per call that returned.  Counts (`calls`, `failed`, events, realizations,
    tree shape, exact share) cover setup plus the first `repeat_ops`
    operations, so that two runs of the same code and seed repeat them
    exactly whatever their length.  `failed` counts calls that raised; on
    run_sweep that includes the exact oracle refusing 128 requests
    (`TooLarge`), which sends `run` to the greedy bound.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def all_of(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def window(*names):
        return [s for s in all_of(*names) if s.op < repeat_ops]

    def self_ms(*names):
        ss = all_of(*names)
        returned = sum(s.ok for s in ss)
        return 1e3 * sum(s.self_time for s in ss) / returned if returned else 0.0

    def mean_info(key, *names):
        vals = [s.info[key] for s in window(*names) if key in s.info]
        return sum(vals) / len(vals) if vals else 0.0

    runs = all_of("stiltwalker.run")
    run_events = sum(sum(s.info.get("events", {}).values()) for s in runs)
    events = Counter()
    for s in window("stiltwalker.run"):
        events.update(s.info.get("events", {}))
    solved = [s for s in window("offline.optimal", "offline.greedy") if s.ok]
    app = all_of("altpoisson.verify")
    app_draws = sum(s.info.get("realizations", 0) for s in app)
    rss = [s.info.get("rss_growth_kb", 0) for s in all_of("metric.validate")]

    out = {
        "metric.validate_ms": self_ms("metric.validate"),
        "metric.validate_rss_mb": max(rss, default=0) / 1024.0,
        "instances.gen_ms": self_ms("instances.gen"),
        "embedding.frt_ms": self_ms("embedding.frt"),
        "embedding.binarize_ms": self_ms("embedding.binarize"),
        "embedding.verify_ms": self_ms("embedding.sample_hsbt"),
        "embedding.tree_metric_ms": self_ms("embedding.tree_metric"),
        "embedding.vertices": mean_info("vertices", "embedding.sample_hsbt"),
        "embedding.height": mean_info("height", "embedding.sample_hsbt"),
        "stiltwalker.setup_ms": self_ms("stiltwalker.setup"),
        "stiltwalker.run_ms": self_ms("stiltwalker.run"),
        "stiltwalker.us_per_event": (
            1e6 * sum(s.self_time for s in runs) / run_events if run_events else 0.0
        ),
        "stiltwalker.events": sum(events.values()),
        **{
            f"stiltwalker.events.{kind}": events.get(kind, 0)
            for kind in ("arrival", "same_leaf", "match", "flush")
        },
        "offline.solve_ms": self_ms("offline.optimal", "offline.greedy"),
        "offline.exact_share": (
            sum(s.info["optimal"] for s in solved) / len(solved) if solved else 0.0
        ),
        "core.total_cost_ms": self_ms("core.total_cost"),
        "diagnostics.track_ms": self_ms("diagnostics.track"),
        "diagnostics.verify_ms": self_ms("diagnostics.verify"),
        "altpoisson.us_per_realization": (
            1e6 * sum(s.self_time for s in app) / app_draws if app_draws else 0.0
        ),
        "altpoisson.realizations": sum(
            s.info.get("realizations", 0) for s in window("altpoisson.verify")
        ),
        "experiment.self_ms": self_ms("experiment.run"),
        "cli.self_ms": self_ms("cli.main"),
    }
    for layer, names in LAYERS.items():
        ws = window(*names)
        out[f"{layer}.calls"] = len(ws)
        out[f"{layer}.failed"] = sum(not s.ok for s in ws)
    out["trace.overhead_frac"] = overhead_frac
    return out
