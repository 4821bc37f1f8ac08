"""Spans around calls into each ``repro`` layer, for traced runs.

A traced run replaces the public functions listed in :data:`TARGETS`
(module attributes and class attributes) with wrappers that record one
span per call: name, ``time.monotonic_ns`` start and end, parent span
id and a per-spec trace id.  Spans stay in memory.  A forked pool
worker appends its spans to ``spans-<pid>.jsonl`` each time an
``execute_spec*`` call returns, and the serve daemon shim dumps its
spans when it exits; :meth:`Recorder.merged` gathers all of them.
Nothing under ``src/`` changes, and :func:`install` returns the
function that puts every original back.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import glob
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: the span that starts a new trace id: one per executed spec
SPEC_SPAN = "runner.execute_spec"


def _spec_attrs(args, kwargs, result) -> dict:
    spec = args[0]
    out = {"spec": repr(spec), "fields": dataclasses.asdict(spec)}
    if result is not None:
        stats = result[0] if isinstance(result, tuple) else result
        out["stats"] = dataclasses.asdict(stats)
    return out


def _map_attrs(args, kwargs, result) -> dict:
    return {"specs": [repr(s) for s in args[0]]}


def _cache_get_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _cache_put_attrs(args, kwargs, result) -> dict:
    return {"spec": kwargs.get("describe", "")}


def _pipeline_attrs(args, kwargs, result) -> dict:
    sim = args[0]
    out = {"traced": getattr(sim, "trace", None) is not None}
    if result is not None:
        out.update(cycles=result.cycles, branches=result.branches,
                   folds=result.folds_committed)
    return out


#: (module[:Class], attribute, span name, attrs function)
TARGETS = [
    ("repro.runner.pool", "execute_spec", SPEC_SPAN, _spec_attrs),
    ("repro.runner.pool", "execute_spec_metrics", SPEC_SPAN, _spec_attrs),
    ("repro.runner.pool", "map_specs", "runner.map_specs", _map_attrs),
    ("repro.runner.sweep", "run_sweep", "runner.run_sweep", None),
    ("repro.runner.cache:ResultCache", "get", "runner.cache_get",
     _cache_get_attrs),
    ("repro.runner.cache:ResultCache", "put", "runner.cache_put",
     _cache_put_attrs),
    ("repro.workloads.loader:Workload", "build_memory",
     "workloads.build_memory", None),
    ("repro.workloads.loader:Workload", "golden_output",
     "workloads.golden_output", None),
    ("repro.workloads.loader:Workload", "run_pipeline",
     "workloads.run_pipeline", None),
    ("repro.profiling.profiler:BranchProfiler", "profile",
     "profiling.profile", None),
    ("repro.profiling.selection", "select_branches",
     "profiling.select_branches", None),
    ("repro.sim.functional", "collect_branch_trace",
     "functional.collect_branch_trace", None),
    ("repro.predictors.evaluate", "evaluate_on_trace",
     "predictors.evaluate_on_trace", None),
    ("repro.asbr.folding:ASBRUnit", "from_branch_infos",
     "asbr.from_branch_infos", None),
    ("repro.sim.pipeline:PipelineSimulator", "run", "pipeline.run",
     _pipeline_attrs),
    ("repro.dse.engine:Evaluator", "evaluate", "dse.evaluate", None),
    ("repro.dse.engine:Evaluator", "baseline_stats", "dse.baseline_stats",
     None),
    ("repro.dse.journal:Journal", "record_eval", "dse.journal_write", None),
]


class Recorder:
    """In-memory span store; one per process that records spans."""

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spans: List[dict] = []
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        self._pid = self.owner
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own reads)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _stack(self) -> list:
        if os.getpid() != self._pid:
            # a forked worker starts with no spans and no open parents:
            # what it inherited belongs to the process that forked it
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: int, end: int, **attrs) -> None:
        """Add a span timed by the caller (no parent)."""
        self._stack()
        sid = "%d:%d" % (os.getpid(), next(self._ids))
        self.spans.append({"id": sid, "name": name, "start": start,
                           "end": end, "parent": None, "trace": sid,
                           "pid": os.getpid(),
                           "tid": threading.get_ident(), "attrs": attrs})

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        root = name == SPEC_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = "%d:%d" % (os.getpid(), next(self._ids))
            parent = stack[-1] if stack else None
            trace = sid if root or parent is None else parent[1]
            stack.append((sid, trace))
            result = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                stack.pop()
                self.spans.append({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent[0] if parent else None,
                    "trace": trace, "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "attrs": attrs(args, kwargs, result) if attrs else {}})
                if root and not stack and os.getpid() != self.owner:
                    self.spill()

        return wrapper

    def spill(self) -> None:
        """Append this process's spans to its per-pid file and forget
        them (pool workers call this after each spec)."""
        if self.spill_dir is None or not self.spans:
            return
        self.dump(os.path.join(self.spill_dir,
                               "spans-%d.jsonl" % os.getpid()))
        self.spans = []

    def dump(self, path: str) -> None:
        with open(path, "a") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def merged(self, extra_files=()) -> List[dict]:
        """This process's spans plus every spilled and dumped file."""
        out = list(self.spans)
        files = list(extra_files)
        if self.spill_dir is not None:
            files += glob.glob(os.path.join(self.spill_dir, "spans-*.jsonl"))
        for path in files:
            if os.path.exists(path):
                with open(path) as f:
                    out.extend(json.loads(line) for line in f if line.strip())
        return sorted(out, key=lambda s: s["start"])


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every target; returns the function that restores them.

    A module function is also replaced under every other name a loaded
    ``repro`` module binds it to (``from x import f`` copies), so the
    wrapper is what every caller and every pickled pool task sees.
    """
    patched = []
    aliases: Dict[int, tuple] = {}
    for target, attr, name, attrs in TARGETS:
        modname, _, clsname = target.partition(":")
        module = importlib.import_module(modname)
        if clsname:
            cls = getattr(module, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(recorder.wrap(name, raw.__func__, attrs))
            else:
                new = recorder.wrap(name, raw, attrs)
            setattr(cls, attr, new)
            patched.append((cls, attr, raw))
        else:
            original = getattr(module, attr)
            aliases[id(original)] = (original,
                                     recorder.wrap(name, original, attrs))
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            hit = aliases.get(id(value))
            if hit is not None and value is hit[0]:
                setattr(module, key, hit[1])
                patched.append((module, key, value))

    def restore() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def self_times(spans: List[dict]) -> Dict[str, float]:
    """Seconds per span name, each span minus its children's time.

    Children run on their parent's thread, nested inside it, so their
    durations never overlap and can simply be subtracted.
    """
    child = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"] - child[s["id"]]) / 1e9
    return dict(out)


def phase_coverage(spans: List[dict]) -> float:
    """Share of spec wall time spent inside the instrumented phases
    (the spec spans' children)."""
    child = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    specs = [s for s in spans if s["name"] == SPEC_SPAN]
    total = sum(s["end"] - s["start"] for s in specs)
    return sum(child[s["id"]] for s in specs) / total if total else 0.0


def layers(spans: List[dict]) -> List[str]:
    return sorted({s["name"].split(".")[0] for s in spans})


def chrome_trace(spans: List[dict], env: dict) -> dict:
    """Chrome trace-event JSON (opens in chrome://tracing or Perfetto)."""
    t0 = min((s["start"] for s in spans), default=0)
    events = []
    for s in spans:
        args = {"id": s["id"], "parent": s["parent"], "trace": s["trace"]}
        args.update(s["attrs"])
        events.append({"name": s["name"], "cat": s["name"].split(".")[0],
                       "ph": "X", "ts": (s["start"] - t0) / 1000.0,
                       "dur": (s["end"] - s["start"]) / 1000.0,
                       "pid": s["pid"], "tid": s["tid"], "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": env}
