"""Parallel experiment runner with an on-disk result cache.

Cycle-accurate pipeline runs dominate every experiment's cost, and the
experiment drivers ask for many independent (workload, predictor, ASBR)
configurations.  This package turns those requests into:

* :class:`~repro.runner.pool.RunSpec` — a picklable, hashable
  description of one pipeline run (workload by name, input by
  ``(n_samples, seed)``, predictor spec, ASBR parameters);
* :func:`~repro.runner.pool.execute_spec` — the one function that turns
  a spec into verified :class:`~repro.sim.pipeline.PipelineStats`
  (profiling, branch selection, simulation and the golden-output check);
* :func:`~repro.runner.pool.map_specs` — fan a spec list over a
  ``multiprocessing`` pool (``workers <= 1`` runs inline, bit-for-bit
  identically);
* :class:`~repro.runner.cache.ResultCache` — content-addressed JSON
  store keyed by (program digest, input digest, config digest), so a
  re-run of a figure with unchanged code and inputs costs one file read
  per configuration;
* :func:`~repro.runner.sweep.run_sweep` — the orchestration glue:
  dedupe, consult the cache, compute misses in parallel, refill;
* :func:`~repro.runner.aggregate.aggregate_metrics` — merge the
  per-run telemetry tables of a metric sweep
  (``run_sweep(..., collect_metrics=True)``) into one
  :class:`~repro.telemetry.MetricsRegistry` per benchmark.

``repro.experiments.common.ExperimentSetup`` submits its runs through
here; ``repro.cli experiments --workers N`` exposes it to users.
"""

from repro.runner.aggregate import aggregate_metrics, sweep_metrics
from repro.runner.cache import (
    CACHE_VERSION,
    GCResult,
    ResultCache,
    VerifyResult,
    key_for_spec,
    parse_size,
    shard_of,
    shard_width,
)
from repro.runner.pool import (
    DeadlineExpired,
    FailedResult,
    RunSpec,
    TaskTimeout,
    execute_spec,
    execute_spec_metrics,
    map_specs,
)
from repro.runner.sweep import run_sweep

__all__ = [
    "CACHE_VERSION",
    "DeadlineExpired",
    "FailedResult",
    "GCResult",
    "ResultCache",
    "RunSpec",
    "TaskTimeout",
    "VerifyResult",
    "parse_size",
    "aggregate_metrics",
    "execute_spec",
    "execute_spec_metrics",
    "key_for_spec",
    "map_specs",
    "run_sweep",
    "shard_of",
    "shard_width",
    "sweep_metrics",
]
