"""Run specifications and the worker pool.

A :class:`RunSpec` is everything a worker process needs to reproduce one
pipeline run from scratch: the workload *name* (programs are assembled
in-process from the packaged ``.s`` sources), the synthetic input's
``(n_samples, seed)`` pair, the auxiliary predictor spec and the ASBR
parameters.  Specs are frozen/hashable so sweeps can dedupe them, and
picklable so ``multiprocessing`` can ship them.

:func:`_execute` is deliberately the *only* code path that turns a
spec into statistics — :func:`execute_spec` and its telemetry-carrying
twin :func:`execute_spec_metrics` are thin wrappers over it, and the
inline (``workers <= 1``) and pooled paths run the same function, which
is what makes the workers=1-vs-N determinism test
(``tests/test_runner.py``) meaningful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

# SELECTION_BASELINE is re-exported: the result cache's config digest
# names it
from repro.profiling.selection import SELECTION_BASELINE  # noqa: F401
from repro.schema import SchemaError
from repro.sim.pipeline import PipelineStats
from repro.workloads import WORKLOAD_NAMES

#: the BDT forwarding paths, i.e. the paper's thresholds (commit→4,
#: mem→3, execute→2), and the execution backends
BDT_UPDATES: Tuple[str, ...] = ("commit", "mem", "execute")
BACKENDS: Tuple[str, ...] = ("inorder", "ooo")


def check_choices(config) -> None:
    """Raise :class:`SchemaError` naming the field when a spec's or a
    design point's ``bdt_update`` or ``backend`` is not a known one."""
    for name, known in (("bdt_update", BDT_UPDATES),
                        ("backend", BACKENDS)):
        if getattr(config, name) not in known:
            raise SchemaError("unknown value %r (one of: %s)"
                              % (getattr(config, name), ", ".join(known)),
                              name)


@dataclass(frozen=True)
class RunSpec:
    """One cycle-accurate pipeline run, reproducible from scratch.

    ``min_fold_fraction`` / ``min_count`` are the profile-driven
    selection policy's knobs (:func:`repro.profiling.select_branches`);
    they only matter for ``with_asbr`` runs but are part of every spec's
    identity so the design-space explorer (:mod:`repro.dse`) can sweep
    them through the same cache and pool as every other parameter.

    Construction checks the named values and ``n_samples``, so a spec
    decoded from outside input (:mod:`repro.schema`) is runnable.
    """

    benchmark: str
    n_samples: int
    seed: int
    predictor_spec: str
    with_asbr: bool = False
    bit_capacity: int = 16
    bdt_update: str = "execute"
    min_fold_fraction: float = 0.5
    min_count: int = 16
    #: decoupled front end (:mod:`repro.frontend`); off by default so
    #: legacy specs keep their exact seed timing.  The five knobs below
    #: only matter when ``frontend`` is set but, like the ASBR selection
    #: knobs, are part of every spec's identity so DSE sweeps them
    #: through the same cache and pool.
    frontend: bool = False
    btb_l1_entries: int = 64
    btb_l2_entries: int = 2048
    btb_l2_assoc: int = 4
    ftq_depth: int = 8
    fdip: bool = False
    #: execution backend ("inorder" | "ooo").  The four machine knobs
    #: below only matter for the out-of-order backend
    #: (:mod:`repro.sim.ooo`) but are part of every spec's identity for
    #: the same reason as the frontend knobs above.
    backend: str = "inorder"
    issue_width: int = 2
    rob_size: int = 32
    iq_size: int = 16
    phys_regs: int = 64

    #: keys older specs carried, with every value each took, which the
    #: decoder drops: ``engine`` named the simulator loop until each
    #: simulator picked its own, and old bodies and job WALs carry it
    RETIRED_KEYS: ClassVar[Dict[str, Tuple[str, ...]]] = {
        "engine": ("interp", "blocks", "superblocks")}

    def __post_init__(self) -> None:
        if self.benchmark not in WORKLOAD_NAMES:
            raise SchemaError("unknown value %r (one of: %s)"
                              % (self.benchmark,
                                 ", ".join(WORKLOAD_NAMES)), "benchmark")
        if self.n_samples <= 0:
            raise SchemaError("must be positive", "n_samples")
        check_choices(self)


def config_from(cls, spec):
    """A ``cls`` machine config from the same-named fields of ``spec``
    (a spec or a design point); its other fields keep their defaults."""
    return cls(**{f.name: getattr(spec, f.name) for f in fields(cls)
                  if hasattr(spec, f.name)})


def _selection(spec: RunSpec, wl, pcm):
    """The executor's front half for an ASBR spec: the BIT's branches.

    :func:`repro.profiling.profile_and_select` profiles the memory
    image the run will simulate (:meth:`Workload.memory_image`, count
    included), replays the ``SELECTION_BASELINE`` predictor over the
    profile's trace and selects under the spec's policy knobs.  Callers
    that report the selection (``repro workload``) or rebuild the unit
    per run (the fault campaign) call this with the spec's workload and
    input, then hand the result to :func:`_execute`.
    """
    from repro.profiling import profile_and_select

    return profile_and_select(wl.program, wl.memory_image(pcm)[0],
                              bit_capacity=spec.bit_capacity,
                              bdt_update=spec.bdt_update,
                              min_fold_fraction=spec.min_fold_fraction,
                              min_count=spec.min_count).selection


def _execute(spec: RunSpec, trace=None, selection=None) -> PipelineStats:
    """Shared body of :func:`execute_spec` / :func:`execute_spec_metrics`.

    The one code path that turns a configuration into verified stats:
    every experiment (through ``ExperimentSetup.run`` or
    :func:`repro.runner.run_sweep`), the DSE, ``repro workload``, the
    serve daemon and the fault campaign's reference run come here.
    For ASBR configurations the BIT is loaded from ``selection``, the
    spec's :func:`_selection`, which is made here when the caller has
    not made it already.  The run's outputs are checked against the
    workload's golden model; a mismatch raises ``AssertionError`` (and
    is therefore never cached).  ``trace`` (a
    :class:`repro.telemetry.Tracer`) traces the run.
    """
    from repro.asbr import ASBRUnit
    from repro.predictors import make_predictor
    from repro.workloads import get_workload, speech_like

    wl = get_workload(spec.benchmark)
    pcm = speech_like(spec.n_samples, spec.seed)
    asbr = None
    if spec.with_asbr:
        if selection is None:
            selection = _selection(spec, wl, pcm)
        asbr = ASBRUnit.from_branch_infos(selection.infos,
                                          capacity=spec.bit_capacity,
                                          bdt_update=spec.bdt_update)
    frontend = None
    if spec.frontend:
        from repro.frontend import FrontendConfig
        frontend = config_from(FrontendConfig, spec)
    if spec.backend == "ooo":
        from repro.sim.ooo import OoOConfig
        config = config_from(OoOConfig, spec)
        result = wl.run_ooo(pcm,
                            predictor=make_predictor(spec.predictor_spec),
                            asbr=asbr, trace=trace, config=config,
                            frontend=frontend)
    else:
        result = wl.run_pipeline(pcm,
                                 predictor=make_predictor(
                                     spec.predictor_spec),
                                 asbr=asbr, trace=trace,
                                 frontend=frontend)
    if result.outputs != wl.golden_output(pcm):
        raise AssertionError(
            "%s produced wrong output under %s (asbr=%s)"
            % (spec.benchmark, spec.predictor_spec, spec.with_asbr))
    return result.stats


def execute_spec(spec: RunSpec) -> PipelineStats:
    """Run one spec end-to-end and return its verified stats."""
    return _execute(spec)


def execute_spec_metrics(spec: RunSpec) -> Tuple[PipelineStats, dict]:
    """Like :func:`execute_spec`, but the run is traced through a
    :class:`~repro.telemetry.MetricsRegistry` and its serialised
    per-branch tables ride along with the stats.

    The traced pipeline produces bit-identical timing (enforced by
    ``tests/test_telemetry.py``), so callers may freely mix cached
    metric-less results with traced reruns.
    """
    from repro.telemetry import MetricsRegistry, Tracer

    registry = MetricsRegistry()
    stats = _execute(spec, trace=Tracer(registry))
    return stats, registry.to_dict()


@dataclass(frozen=True)
class FailedResult:
    """Sentinel standing in for a spec that could not be executed.

    Returned (never raised) by :func:`map_specs` when
    ``on_error="return"``: the sweep keeps its shape, the caller sees
    exactly which spec failed and why, and a poisoned spec is
    quarantined instead of aborting its 75 healthy neighbours.

    ``kind`` is ``"error"`` (the run raised — the message carries the
    exception), ``"timeout"`` (no result arrived within
    ``task_timeout`` — a hung run or a killed worker; the pool cannot
    tell those apart from the outside) or ``"deadline"`` (the sweep's
    end-to-end ``deadline`` passed before this spec produced a result —
    expired work is settled, never waited on).  ``attempts`` counts the
    tries that were spent before giving up.
    """

    spec: RunSpec
    error: str
    kind: str
    attempts: int

    def render(self) -> str:
        return ("FAILED[%s after %d attempt(s)] %r: %s"
                % (self.kind, self.attempts, self.spec, self.error))


class TaskTimeout(RuntimeError):
    """A task produced no result within ``task_timeout`` (raised only
    with ``on_error="raise"``; otherwise a :class:`FailedResult`)."""


class DeadlineExpired(RuntimeError):
    """The sweep's end-to-end ``deadline`` passed with work pending
    (raised only with ``on_error="raise"``; otherwise each expired
    spec settles as a ``kind="deadline"`` :class:`FailedResult`)."""


def _deadline_passed(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _deadline_failed(spec: RunSpec, attempts: int) -> FailedResult:
    return FailedResult(spec, "deadline expired before a result was "
                        "produced", "deadline", attempts)


def _backoff_sleep(backoff: float, attempt: int) -> None:
    """Exponential backoff before retry ``attempt + 1``."""
    if backoff > 0:
        time.sleep(backoff * (2 ** (attempt - 1)))


def _run_inline(fn, spec: RunSpec, retries: int, backoff: float,
                on_error: str, deadline: Optional[float] = None):
    """Execute one spec in this process, with bounded retries.

    The ``deadline`` (absolute ``time.monotonic()`` value) is checked
    before each attempt — inline execution cannot be interrupted
    mid-run, so an expired deadline stops *starting* work rather than
    aborting it.
    """
    for attempt in range(1, retries + 2):
        if _deadline_passed(deadline):
            if on_error == "return":
                return _deadline_failed(spec, attempt - 1)
            raise DeadlineExpired("%r: deadline expired" % (spec,))
        try:
            return fn(spec)
        except Exception as exc:
            if attempt <= retries:
                _backoff_sleep(backoff, attempt)
                continue
            if on_error == "return":
                return FailedResult(spec, "%s: %s"
                                    % (type(exc).__name__, exc),
                                    "error", attempt)
            raise


def _pool_worker_init() -> None:
    """Reset inherited signal state in a freshly forked worker.

    A parent running an asyncio loop with ``add_signal_handler`` (the
    serve daemon) has Python-level SIGTERM/SIGINT handlers that write
    into the loop's wakeup pipe.  A forked worker inherits both the
    handlers and the *shared* pipe, with two failure modes: a SIGTERM
    aimed at the worker (``Pool.terminate``) is swallowed by the
    inherited handler, leaving the worker alive and ``join`` wedged —
    and the handler's write into the shared pipe makes the *parent's*
    loop believe it received the signal and shut the daemon down.
    Restore defaults before any task runs.
    """
    import signal
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def _try_build_pool(procs: int):
    """A worker pool, or None when one cannot be built (fd exhaustion,
    a platform without multiprocessing support, ...) — the caller then
    degrades gracefully to serial execution."""
    try:
        import multiprocessing
        return multiprocessing.Pool(processes=procs,
                                    initializer=_pool_worker_init)
    except Exception:
        return None


def _shutdown_pool(pool, grace: float = 5.0) -> None:
    """Tear a pool down without ever hanging the sweep.

    ``Pool.terminate``/``join`` can deadlock: a worker killed (or
    SIGTERMed by ``terminate`` itself) while holding the shared task
    queue's lock leaves the pool's supervisor threads blocked on that
    lock forever.  Every result has already been collected by the time
    we get here, so nothing of value is at risk — run each teardown
    step in a daemon thread with a bounded wait, escalate to
    SIGKILLing straggler workers, and abandon the pool if it still
    will not die.  A leaked supervisor thread beats a wedged sweep.
    """
    import os
    import signal
    import threading

    def bounded(fn) -> bool:
        t = threading.Thread(target=fn, daemon=True)
        t.start()
        t.join(grace)
        return not t.is_alive()

    def stuck_workers():
        try:
            return [p for p in (pool._pool or []) if p.is_alive()]
        except Exception:
            return []

    if bounded(pool.terminate) and bounded(pool.join):
        return
    for proc in stuck_workers():
        try:
            os.kill(proc.pid, signal.SIGKILL)
        except Exception:
            pass
    bounded(pool.join)


def _notify(on_result, i: int, spec: RunSpec, result) -> None:
    """Fire a progress callback; a broken observer never kills a sweep."""
    if on_result is None:
        return
    try:
        on_result(i, spec, result)
    except Exception:
        pass


def _finish_inline(specs, fn, results, done, retries, backoff, on_error,
                   on_result=None, deadline=None):
    """Serial fallback: complete every unfinished task in-process."""
    for j in range(len(specs)):
        if not done[j]:
            results[j] = _run_inline(fn, specs[j], retries, backoff,
                                     on_error, deadline)
            done[j] = True
            _notify(on_result, j, specs[j], results[j])
    return results


def _map_pooled(specs: List[RunSpec], fn, procs: int,
                task_timeout: Optional[float], retries: int,
                backoff: float, on_error: str,
                on_result=None, deadline: Optional[float] = None) -> List:
    """Fan ``specs`` over a worker pool, surviving crashed workers.

    ``pool.map`` would hang forever on a worker killed mid-task (the
    pool respawns the worker but the task's result is simply gone), so
    each task is an ``apply_async`` handle polled with
    ``get(task_timeout)``.  A timeout means a hung run or a killed
    worker; the task is resubmitted (the pool's respawned workers pick
    it up) until its retries are spent.  If the pool itself refuses new
    work it is rebuilt once per incident, and if it cannot be rebuilt
    the remaining tasks complete serially in this process — a sweep
    never dies of pool trouble.
    """
    import multiprocessing

    pool = _try_build_pool(procs)
    if pool is None:
        return _finish_inline(specs, fn, [None] * len(specs),
                              [False] * len(specs), retries, backoff,
                              on_error, on_result, deadline)
    n = len(specs)
    results: List = [None] * n
    done = [False] * n
    attempts = [0] * n
    handles: dict = {}

    def submit(i: int) -> bool:
        attempts[i] += 1
        try:
            handles[i] = pool.apply_async(fn, (specs[i],))
            return True
        except Exception:
            return False

    def rebuild() -> bool:
        """Replace a broken pool, resubmitting every unfinished task
        (resubmission is free — blame stays on the task that failed)."""
        nonlocal pool
        try:
            _shutdown_pool(pool)
        except Exception:
            pass
        pool = _try_build_pool(procs)
        if pool is None:
            return False
        for j in range(n):
            if not done[j]:
                attempts[j] = max(attempts[j], 1)
                try:
                    handles[j] = pool.apply_async(fn, (specs[j],))
                except Exception:
                    return False
        return True

    def resubmit(i: int) -> bool:
        _backoff_sleep(backoff, attempts[i])
        return submit(i) or rebuild()

    try:
        for i in range(n):
            if not submit(i):
                if not rebuild():
                    return _finish_inline(specs, fn, results, done,
                                          retries, backoff, on_error,
                                          on_result, deadline)
                break                 # rebuild submitted the rest too
        for i in range(n):
            while not done[i]:
                if _deadline_passed(deadline):
                    # end-to-end deadline: settle, don't wait — the
                    # in-flight pool task is abandoned (its eventual
                    # result is discarded by the pool teardown)
                    if on_error != "return":
                        raise DeadlineExpired(
                            "%r: deadline expired" % (specs[i],))
                    results[i] = _deadline_failed(specs[i], attempts[i])
                    done[i] = True
                    _notify(on_result, i, specs[i], results[i])
                    continue
                wait = task_timeout
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    wait = remaining if wait is None \
                        else min(wait, remaining)
                try:
                    results[i] = handles[i].get(wait)
                    done[i] = True
                    _notify(on_result, i, specs[i], results[i])
                except multiprocessing.TimeoutError:
                    if _deadline_passed(deadline):
                        continue      # loop top settles it as deadline
                    if attempts[i] <= retries:
                        if not resubmit(i):
                            return _finish_inline(specs, fn, results,
                                                  done, retries,
                                                  backoff, on_error,
                                                  on_result, deadline)
                        continue
                    msg = ("no result within %.3gs after %d attempt(s) "
                           "(worker hung or killed)"
                           % (wait, attempts[i]))
                    if on_error == "return":
                        results[i] = FailedResult(specs[i], msg,
                                                  "timeout", attempts[i])
                        done[i] = True
                        _notify(on_result, i, specs[i], results[i])
                    else:
                        raise TaskTimeout("%r: %s" % (specs[i], msg))
                except Exception as exc:
                    if attempts[i] <= retries:
                        if not resubmit(i):
                            return _finish_inline(specs, fn, results,
                                                  done, retries,
                                                  backoff, on_error,
                                                  on_result, deadline)
                        continue
                    if on_error == "return":
                        results[i] = FailedResult(
                            specs[i], "%s: %s" % (type(exc).__name__,
                                                  exc),
                            "error", attempts[i])
                        done[i] = True
                        _notify(on_result, i, specs[i], results[i])
                    else:
                        raise
    finally:
        try:
            _shutdown_pool(pool)
        except Exception:
            pass
    return results


def map_specs(specs: Sequence[RunSpec], workers: int = 0,
              collect_metrics: bool = False,
              task_timeout: Optional[float] = None,
              retries: int = 0, backoff: float = 0.25,
              on_error: str = "raise",
              on_result=None,
              deadline: Optional[float] = None) -> List:
    """Execute every spec, returning results in input order.

    Each result is a ``PipelineStats``, or a ``(stats, metrics_dict)``
    pair when ``collect_metrics`` is set.  ``workers <= 1`` runs inline
    in this process — no multiprocessing import, no pickling,
    deterministic and debuggable.  Larger values fan out over a process
    pool; results are identical because both paths run the same function
    and every spec is self-contained.

    Robustness knobs (defaults preserve the strict legacy semantics:
    one attempt, failures propagate):

    * ``task_timeout`` — seconds a pooled task may go without producing
      a result before it is considered lost (hung run or SIGKILLed
      worker) and retried/failed.  This is the crash detector: without
      it a killed worker's task would be waited on forever.
    * ``retries`` / ``backoff`` — each failed or timed-out task is
      retried up to ``retries`` times with exponential backoff
      (``backoff * 2**(attempt-1)`` seconds) before giving up.
    * ``on_error="return"`` — a task out of retries yields a
      :class:`FailedResult` in its slot instead of raising, so one
      poisoned spec cannot abort the sweep.  ``"raise"`` (default)
      propagates the worker's exception / :class:`TaskTimeout`.
    * ``deadline`` — an absolute ``time.monotonic()`` instant bounding
      the *whole call* end to end (the serve daemon propagates a
      request's ``deadline_ms`` here).  Specs without a result when it
      passes settle as ``kind="deadline"`` :class:`FailedResult`\\ s
      (or raise :class:`DeadlineExpired` with ``on_error="raise"``):
      pooled waits are clipped to the remaining budget, and the
      inline/serial paths stop starting new work.  Expired work is
      never waited on and never cached.

    If the pool cannot be built or rebuilt, the remaining work degrades
    to serial in-process execution rather than failing.

    ``on_result(i, spec, result)`` is a progress hook fired exactly
    once per spec as its slot settles (a success *or* a quarantined
    :class:`FailedResult`), on every execution path — pooled, inline
    and serial fallback.  It runs in the submitting process; the serve
    daemon streams these straight onto job event feeds.  Observer
    exceptions are swallowed: progress reporting can never lose a
    sweep.  With ``on_error="raise"`` a propagating failure means later
    slots never fire.
    """
    if on_error not in ("raise", "return"):
        raise ValueError("on_error must be 'raise' or 'return'")
    specs = list(specs)
    fn = execute_spec_metrics if collect_metrics else execute_spec
    if workers <= 1 or len(specs) <= 1:
        results = []
        for i, s in enumerate(specs):
            results.append(_run_inline(fn, s, retries, backoff,
                                       on_error, deadline))
            _notify(on_result, i, s, results[-1])
        return results
    return _map_pooled(specs, fn, min(workers, len(specs)),
                       task_timeout, retries, backoff, on_error,
                       on_result, deadline)
