"""Tracing, metrics and pipeline-timeline observability.

The paper's argument is *per-branch*: which branches fold, why a fold
attempt misses, how far the condition-defining instruction sits from
its branch.  This package turns the simulators into analysis tools:

* :mod:`~repro.telemetry.events` — typed per-cycle events (fetch /
  issue / commit, branch resolution, fold hit/miss with reason, BDT
  updates, squashes, redirects);
* the emit sites live in the timing simulators: each stores
  ``tracer.emit`` as ``_emit`` at construction and guards every site
  with ``if emit is not None`` (the functional simulator takes
  :func:`~repro.telemetry.tracer.retire_observer` instead);
* :mod:`~repro.telemetry.sinks` — in-memory ring buffer and bounded
  JSONL trace files;
* :mod:`~repro.telemetry.metrics` — counters and per-branch-PC tables
  (mergeable across sweep runs, serialisable into the run cache);
* :mod:`~repro.telemetry.timeline` / :mod:`~repro.telemetry.report` —
  the ASCII pipeview and the per-branch report.

Entry points: ``PipelineSimulator(..., trace=Tracer(...))``,
``FunctionalSimulator.run(trace=...)``, ``repro sim --trace-out/
--branch-report`` and ``repro trace pipeview|report``.
"""

from repro.telemetry.events import (
    EVENT_KINDS,
    FOLD_MISS_REASONS,
    MISS_BDT_BUSY,
    MISS_NO_BIT_ENTRY,
    SERVE_EVENT_KINDS,
    TraceEvent,
)
from repro.telemetry.sinks import (
    JsonlTraceSink,
    RingBufferSink,
    read_jsonl,
)
from repro.telemetry.metrics import (
    BranchPCStats,
    MetricsRegistry,
    merge_registries,
)
from repro.telemetry.tracer import Tracer, make_tracer, retire_observer
from repro.telemetry.report import render_branch_report, render_counters
from repro.telemetry.timeline import lifecycle_cycles, render_pipeview

__all__ = [
    "BranchPCStats",
    "EVENT_KINDS",
    "SERVE_EVENT_KINDS",
    "FOLD_MISS_REASONS",
    "JsonlTraceSink",
    "MetricsRegistry",
    "MISS_BDT_BUSY",
    "MISS_NO_BIT_ENTRY",
    "RingBufferSink",
    "TraceEvent",
    "Tracer",
    "lifecycle_cycles",
    "make_tracer",
    "merge_registries",
    "read_jsonl",
    "render_branch_report",
    "render_counters",
    "render_pipeview",
    "retire_observer",
]
