"""Shared experiment infrastructure: setup, caching, table rendering.

Pipeline runs are the expensive part of every experiment, and several
figures need the same (workload, predictor, ASBR) runs.  An
:class:`ExperimentSetup` memoises them so e.g. the Figure 11 driver and
its benchmark wrapper never simulate the same configuration twice in a
process.

Every run is a :class:`~repro.runner.RunSpec` submitted through
:func:`repro.runner.run_sweep`, so it comes from the one executor
(:func:`repro.runner.pool._execute`) and rides on :mod:`repro.runner`:

* ``workers > 1`` (or ``REPRO_WORKERS``) lets :meth:`ExperimentSetup.
  prefetch` compute a figure's whole configuration matrix on a process
  pool before the driver walks it serially;
* ``cache_dir`` (or ``REPRO_CACHE_DIR``) adds a content-addressed
  on-disk cache, so re-rendering a figure with unchanged programs and
  inputs costs one JSON read per configuration instead of a simulation.

Drivers that read the profile, trace or selection themselves (the
branch tables of Figures 7, 9 and 10, ablation A4) use
:meth:`ExperimentSetup.profile` and :meth:`ExperimentSetup.selection`,
which profile the same memory image the executor does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.experiments import paper_data
from repro.predictors import evaluate_on_trace, make_predictor
from repro.predictors.evaluate import PredictorAccuracy
from repro.profiling import BranchProfiler, SelectionResult, profile_and_select
from repro.profiling.profiler import BranchProfile
from repro.runner import ResultCache, RunSpec, run_sweep
from repro.sim.functional import BranchRecord
from repro.sim.pipeline import PipelineStats
from repro.workloads import get_workload, speech_like
from repro.workloads.loader import Workload

BENCHMARKS = paper_data.BENCHMARK_NAMES

#: Default input length; the paper's inputs are ~20x longer (see
#: DESIGN.md's substitution table).  Override with REPRO_SAMPLES.
DEFAULT_SAMPLES = int(os.environ.get("REPRO_SAMPLES", "2000"))
DEFAULT_SEED = 20010618  # DAC 2001 opened June 18, 2001

#: BDT update point used for the headline experiments: the paper's
#: aggressive execute-stage forwarding path (threshold 2, Section 5.2).
DEFAULT_BDT_UPDATE = "execute"


def _default_workers() -> int:
    return int(os.environ.get("REPRO_WORKERS", "0"))


def _default_cache_dir() -> Optional[str]:
    return os.environ.get("REPRO_CACHE_DIR") or None


@dataclass
class ExperimentSetup:
    """One experimental context: input, caches of profiles and runs."""

    n_samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    bdt_update: str = DEFAULT_BDT_UPDATE
    bit_capacity: int = 16
    workers: int = field(default_factory=_default_workers)
    cache_dir: Optional[str] = field(default_factory=_default_cache_dir)
    _profiles: Dict[str, BranchProfile] = field(default_factory=dict,
                                                repr=False)
    _runs: Dict[tuple, PipelineStats] = field(default_factory=dict,
                                              repr=False)
    _selections: Dict[tuple, SelectionResult] = field(default_factory=dict,
                                                      repr=False)
    _result_cache: Optional[ResultCache] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @cached_property
    def pcm(self) -> list:
        return speech_like(self.n_samples, self.seed)

    def workload(self, name: str) -> Workload:
        return get_workload(name)

    def profile(self, name: str) -> BranchProfile:
        """Branch profile of one benchmark (cached)."""
        if name not in self._profiles:
            wl = self.workload(name)
            self._profiles[name] = BranchProfiler().profile(
                wl.program, wl.memory_image(self.pcm)[0])
        return self._profiles[name]

    def trace(self, name: str) -> List[BranchRecord]:
        """Branch outcome trace of one benchmark (the profile's run)."""
        return self.profile(name).trace

    def accuracy(self, name: str, predictor_spec: str,
                 skip_pcs=None) -> PredictorAccuracy:
        """Replay a fresh predictor over the benchmark's trace."""
        return evaluate_on_trace(make_predictor(predictor_spec),
                                 self.trace(name), skip_pcs=skip_pcs)

    # ------------------------------------------------------------------
    def selection(self, name: str,
                  bit_capacity: Optional[int] = None,
                  bdt_update: Optional[str] = None) -> SelectionResult:
        """Profile-driven BIT branch selection for one benchmark."""
        cap = bit_capacity if bit_capacity is not None else self.bit_capacity
        upd = bdt_update if bdt_update is not None else self.bdt_update
        key = (name, cap, upd)
        if key not in self._selections:
            self._selections[key] = profile_and_select(
                self.workload(name).program, profile=self.profile(name),
                bit_capacity=cap, bdt_update=upd).selection
        return self._selections[key]

    # ------------------------------------------------------------------
    # pipeline runs: in-memory memo -> disk cache -> simulate
    # ------------------------------------------------------------------
    def _spec(self, name: str, predictor_spec: str, with_asbr: bool,
              bit_capacity: Optional[int],
              bdt_update: Optional[str]) -> RunSpec:
        cap = bit_capacity if bit_capacity is not None else self.bit_capacity
        upd = bdt_update if bdt_update is not None else self.bdt_update
        return RunSpec(benchmark=name, n_samples=self.n_samples,
                       seed=self.seed, predictor_spec=predictor_spec,
                       with_asbr=with_asbr, bit_capacity=cap,
                       bdt_update=upd)

    @staticmethod
    def _memo_key(spec: RunSpec) -> tuple:
        return (spec.benchmark, spec.predictor_spec, spec.with_asbr,
                spec.bit_capacity, spec.bdt_update)

    def result_cache(self) -> Optional[ResultCache]:
        """The on-disk cache, if ``cache_dir`` is configured."""
        if self.cache_dir is None:
            return None
        if self._result_cache is None:
            self._result_cache = ResultCache(self.cache_dir)
        return self._result_cache

    def prefetch(self, configs) -> None:
        """Warm the run memo for many configurations at once.

        ``configs`` is an iterable of ``(name, predictor_spec,
        with_asbr)`` or ``(name, predictor_spec, with_asbr,
        bit_capacity, bdt_update)`` tuples — exactly the arguments the
        driver will later pass to :meth:`run`.  Distinct uncached
        configurations are simulated through :func:`repro.runner.
        run_sweep`, on ``self.workers`` processes when configured.
        """
        specs = []
        for cfg in configs:
            name, predictor_spec, with_asbr = cfg[0], cfg[1], cfg[2]
            cap = cfg[3] if len(cfg) > 3 else None
            upd = cfg[4] if len(cfg) > 4 else None
            spec = self._spec(name, predictor_spec, with_asbr, cap, upd)
            if self._memo_key(spec) not in self._runs:
                specs.append(spec)
        if not specs:
            return
        stats_list = run_sweep(specs, workers=self.workers,
                               cache=self.result_cache())
        for spec, stats in zip(specs, stats_list):
            self._runs[self._memo_key(spec)] = stats

    def run(self, name: str, predictor_spec: str,
            with_asbr: bool = False,
            bit_capacity: Optional[int] = None,
            bdt_update: Optional[str] = None) -> PipelineStats:
        """Cycle-accurate run of one configuration (memoised, cached)."""
        cfg = (name, predictor_spec, with_asbr, bit_capacity, bdt_update)
        self.prefetch([cfg])
        return self._runs[self._memo_key(self._spec(*cfg))]


_DEFAULT: Optional[ExperimentSetup] = None


def default_setup() -> ExperimentSetup:
    """Process-wide shared setup (so benches reuse cached runs)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = ExperimentSetup()
    return _DEFAULT


# ----------------------------------------------------------------------
# table rendering
# ----------------------------------------------------------------------
def render_table(headers: List[str], rows: List[List[str]],
                 title: str = "") -> str:
    """Plain-text aligned table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    fmt = "  ".join("%%-%ds" % w for w in widths)
    lines.append(fmt % tuple(headers))
    lines.append(fmt % tuple("-" * w for w in widths))
    for row in rows:
        lines.append(fmt % tuple(row))
    return "\n".join(lines)
