"""The DSE evaluator: journal-first, cache-backed, pool-parallel.

:class:`Evaluator` is the bridge between a search driver and the
simulator.  ``evaluate(points)`` resolves each point in three layers:

1. **journal** — a recorded evaluation is returned without touching
   anything (this is what makes ``--resume`` free);
2. **runner cache** — misses become :class:`~repro.runner.RunSpec`\\ s
   and go through :func:`repro.runner.run_sweep`, which consults the
   content-addressed on-disk cache;
3. **simulation** — remaining distinct specs run untraced on the
   worker pool, and every objective, fold coverage included, is read
   off the run's stats (see :mod:`repro.dse.objectives`).

Every fresh result is reduced to an
:class:`~repro.dse.objectives.ObjectiveVector` and journaled before
``evaluate`` returns, so a kill at any instant loses at most the
in-flight batch.  Speedup is always measured against the paper's
reference core (``bimodal-2048``, no ASBR) on the *same* workload and
input size — the baseline is itself a design point, evaluated and
journaled through the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dse.journal import Journal, eval_key
from repro.dse.objectives import ObjectiveVector, extract_objectives
from repro.dse.space import DesignPoint
from repro.runner import FailedResult, ResultCache, run_sweep
from repro.sim.pipeline import PipelineStats

#: the paper's reference configuration (fig. 6/11 baseline).
BASELINE_POINT = DesignPoint(predictor_spec="bimodal-2048",
                             with_asbr=False)


@dataclass
class EvalResult:
    """One evaluated point with its provenance."""

    point: DesignPoint
    benchmark: str
    n_samples: int
    seed: int
    objectives: ObjectiveVector
    from_journal: bool       # True: replayed, no simulator work

    @property
    def key(self) -> str:
        return eval_key(self.point, self.benchmark, self.n_samples,
                        self.seed)


def result_from_record(rec: dict) -> EvalResult:
    """Rehydrate a journal ``eval`` record."""
    return EvalResult(
        point=DesignPoint.from_dict(rec["point"]),
        benchmark=rec["benchmark"],
        n_samples=rec["n_samples"],
        seed=rec["seed"],
        objectives=ObjectiveVector.from_dict(rec["objectives"]),
        from_journal=True,
    )


class Evaluator:
    """Evaluates design points on one workload and input seed."""

    def __init__(self, benchmark: str, n_samples: int, seed: int,
                 workers: int = 0,
                 cache: Optional[ResultCache] = None,
                 journal: Optional[Journal] = None,
                 task_timeout: Optional[float] = None,
                 retries: int = 0,
                 tolerant: bool = False) -> None:
        self.benchmark = benchmark
        self.n_samples = n_samples
        self.seed = seed
        self.workers = workers
        self.cache = cache
        self.journal = journal
        #: hardened-runner knobs (see :func:`repro.runner.map_specs`).
        #: ``tolerant`` quarantines a point whose run fails — it is
        #: journaled as ``failed`` (retried on resume) and dropped from
        #: the result list instead of aborting the exploration.
        self.task_timeout = task_timeout
        self.retries = retries
        self.tolerant = tolerant
        self.simulated = 0       # evaluations that reached run_sweep
        self.journal_hits = 0    # evaluations answered by the journal
        self.failed = 0          # evaluations quarantined (tolerant)
        self._baselines: Dict[int, PipelineStats] = {}  # n -> stats

    # ------------------------------------------------------------------
    def _journal_get(self, point: DesignPoint,
                     n: int) -> Optional[EvalResult]:
        if self.journal is None:
            return None
        rec = self.journal.get(eval_key(point, self.benchmark, n,
                                        self.seed))
        return result_from_record(rec) if rec is not None else None

    def baseline_stats(self, n_samples: Optional[int] = None
                       ) -> PipelineStats:
        """Reference-core stats at one input size (memoised)."""
        n = self.n_samples if n_samples is None else n_samples
        if n not in self._baselines:
            spec = BASELINE_POINT.to_spec(self.benchmark, n, self.seed)
            stats, = run_sweep([spec], workers=1, cache=self.cache)
            self._baselines[n] = stats
            if self.journal is not None and not self._journal_get(
                    BASELINE_POINT, n):
                vec = extract_objectives(BASELINE_POINT, stats, stats)
                self.journal.record_eval(BASELINE_POINT, self.benchmark,
                                         n, self.seed, vec)
        return self._baselines[n]

    # ------------------------------------------------------------------
    def evaluate(self, points: Sequence[DesignPoint],
                 n_samples: Optional[int] = None) -> List[EvalResult]:
        """Objective vectors for every point, in input order.

        Journaled evaluations are replayed; the rest are simulated in
        one deduplicated, cache-aware, possibly-parallel sweep and
        journaled before returning.
        """
        n = self.n_samples if n_samples is None else n_samples
        resolved: Dict[DesignPoint, EvalResult] = {}
        pending: List[DesignPoint] = []
        for p in points:
            if p in resolved or p in pending:
                continue
            hit = self._journal_get(p, n)
            if hit is not None:
                resolved[p] = hit
                self.journal_hits += 1
            else:
                pending.append(p)

        if pending:
            baseline = self.baseline_stats(n)   # journals the baseline
            if BASELINE_POINT in pending:
                # just evaluated above — replay instead of re-sweeping
                pending.remove(BASELINE_POINT)
                resolved[BASELINE_POINT] = self._journal_get(
                    BASELINE_POINT, n) or EvalResult(
                        BASELINE_POINT, self.benchmark, n, self.seed,
                        extract_objectives(BASELINE_POINT, baseline,
                                           baseline),
                        from_journal=False)
                self.simulated += 1
        if pending:
            specs = [p.to_spec(self.benchmark, n, self.seed)
                     for p in pending]
            results = run_sweep(specs, workers=self.workers,
                                cache=self.cache,
                                task_timeout=self.task_timeout,
                                retries=self.retries,
                                on_error="return" if self.tolerant
                                else "raise")
            self.simulated += len(pending)
            for p, result in zip(pending, results):
                if isinstance(result, FailedResult):
                    # quarantined: journaled as failed (kept pending
                    # for a future resume), dropped from the results
                    self.failed += 1
                    if self.journal is not None:
                        self.journal.record_failed(
                            p, self.benchmark, n, self.seed,
                            result.error, kind=result.kind)
                    continue
                vec = extract_objectives(p, result, baseline)
                if self.journal is not None:
                    self.journal.record_eval(p, self.benchmark, n,
                                             self.seed, vec)
                resolved[p] = EvalResult(p, self.benchmark, n,
                                         self.seed, vec,
                                         from_journal=False)

        return [resolved[p] for p in dict.fromkeys(points)
                if p in resolved]
