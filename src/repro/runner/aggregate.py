"""Aggregation of telemetry metrics across sweep runs.

A sweep returns one serialised :class:`~repro.telemetry.MetricsRegistry`
per run; the questions the paper asks, though, are per *benchmark* —
which branch PCs dominate, how often folds hit, why misses happen.
:func:`aggregate_metrics` merges the per-run tables into one registry
per group (benchmark by default), which the per-branch report renders
directly::

    results = run_sweep(specs, cache=cache, collect_metrics=True)
    merged = aggregate_metrics(specs, [m for _, m in results])
    print(render_branch_report(merged["adpcm_enc"]))

Merging is exact, not sampled: counters add, per-PC tables add
field-wise, distance histograms add bin-wise (see
``BranchPCStats.merge``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.runner.pool import RunSpec
from repro.telemetry import MetricsRegistry


def aggregate_metrics(specs: Sequence[RunSpec],
                      metrics: Sequence[Optional[dict]],
                      group_by: Optional[Callable[[RunSpec], str]] = None
                      ) -> Dict[str, MetricsRegistry]:
    """Merged registries keyed by group (``spec.benchmark`` by default).

    ``metrics`` holds the serialised registry of each spec, aligned by
    index (as returned by ``run_sweep(..., collect_metrics=True)``);
    ``None`` entries are skipped.  ``group_by`` overrides the grouping,
    e.g. ``lambda s: s.predictor_spec`` to compare predictors.
    """
    if len(specs) != len(metrics):
        raise ValueError("specs and metrics differ in length (%d vs %d)"
                         % (len(specs), len(metrics)))
    if group_by is None:
        group_by = lambda s: s.benchmark
    merged: Dict[str, MetricsRegistry] = {}
    for spec, m in zip(specs, metrics):
        if m is None:
            continue
        group = group_by(spec)
        registry = merged.get(group)
        if registry is None:
            registry = merged[group] = MetricsRegistry()
        registry.merge(MetricsRegistry.from_dict(m))
    return merged

