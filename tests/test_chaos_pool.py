"""Chaos tests for the hardened runner (repro.runner.pool).

Each test manufactures one failure mode the pool must absorb without
hanging or losing the sweep:

* a worker SIGKILLed mid-task (the classic ``pool.map`` deadlock);
* a worker hung past ``task_timeout``;
* a poisoned spec that always raises (quarantined as FailedResult);
* a corrupted on-disk cache entry read mid-sweep;
* a platform where the pool cannot be built at all (serial fallback).

Worker-side fault hooks are injected by monkeypatching the module
attribute the pool resolves its task function from; forked workers
inherit the patched module, so the tests require the ``fork`` start
method (the default on Linux) and skip elsewhere.  First-call-only
faults coordinate through an ``O_EXCL`` sentinel file shared via the
environment — exactly one attempt trips, every retry runs clean.
"""

import dataclasses
import glob
import json
import multiprocessing
import os
import signal
import time

import pytest

import repro.runner.pool as pool_mod
from repro.runner import (
    FailedResult,
    ResultCache,
    RunSpec,
    TaskTimeout,
    key_for_spec,
    map_specs,
    run_sweep,
)
from repro.runner.pool import execute_spec as real_execute
from repro.sim.pipeline import PipelineStats

N, SEED = 64, 11

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker fault hooks reach workers via fork inheritance")

_SENTINEL_ENV = "REPRO_CHAOS_SENTINEL"


def spec_of(predictor="not-taken", seed=SEED):
    return RunSpec("adpcm_enc", N, seed, predictor)


POISON = spec_of(predictor="no-such-predictor")


def _trip_once():
    """True exactly once per sentinel file, across processes."""
    path = os.environ[_SENTINEL_ENV]
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def _kill_self_once(spec):
    if _trip_once():
        os.kill(os.getpid(), signal.SIGKILL)
    return real_execute(spec)


def _hang_once(spec):
    if _trip_once():
        time.sleep(600)
    return real_execute(spec)


def _hang_always(spec):
    time.sleep(600)


def _arm(monkeypatch, tmp_path, fn):
    monkeypatch.setenv(_SENTINEL_ENV, str(tmp_path / "tripped"))
    monkeypatch.setattr(pool_mod, "execute_spec", fn)


def as_dicts(stats_list):
    return [dataclasses.asdict(s) for s in stats_list]


# ----------------------------------------------------------------------
# crashed / hung workers
# ----------------------------------------------------------------------
@fork_only
def test_sigkilled_worker_does_not_lose_the_sweep(tmp_path, monkeypatch):
    _arm(monkeypatch, tmp_path, _kill_self_once)
    specs = [spec_of(seed=SEED + i) for i in range(3)]
    results = map_specs(specs, workers=3, task_timeout=6, retries=2,
                        backoff=0, on_error="return")
    assert all(isinstance(r, PipelineStats) for r in results)
    assert as_dicts(results) == as_dicts([real_execute(s) for s in specs])


@fork_only
def test_hung_worker_times_out_and_retries(tmp_path, monkeypatch):
    _arm(monkeypatch, tmp_path, _hang_once)
    specs = [spec_of(), spec_of(seed=SEED + 1)]
    results = map_specs(specs, workers=2, task_timeout=4, retries=1,
                        backoff=0, on_error="return")
    assert all(isinstance(r, PipelineStats) for r in results)


@fork_only
def test_hung_worker_without_retries_raises_task_timeout(tmp_path,
                                                         monkeypatch):
    _arm(monkeypatch, tmp_path, _hang_once)
    specs = [spec_of(), spec_of(seed=SEED + 1)]
    with pytest.raises(TaskTimeout):
        map_specs(specs, workers=2, task_timeout=2.5, retries=0,
                  backoff=0)


@fork_only
def test_hung_worker_out_of_retries_becomes_failed_result(tmp_path,
                                                          monkeypatch):
    # every call hangs: even the retry times out, so the slot must end
    # as a timeout FailedResult rather than a hang or an exception
    monkeypatch.setattr(pool_mod, "execute_spec", _hang_always)
    specs = [spec_of(), spec_of(seed=SEED + 1)]
    results = map_specs(specs, workers=2, task_timeout=1.5, retries=1,
                        backoff=0, on_error="return")
    for r in results:
        assert isinstance(r, FailedResult)
        assert r.kind == "timeout"
        assert r.attempts == 2
        assert "FAILED[timeout" in r.render()


# ----------------------------------------------------------------------
# poisoned specs
# ----------------------------------------------------------------------
def test_poisoned_spec_quarantined_inline():
    results = map_specs([spec_of(), POISON], workers=1,
                        on_error="return")
    assert isinstance(results[0], PipelineStats)
    failed = results[1]
    assert isinstance(failed, FailedResult)
    assert failed.kind == "error" and failed.attempts == 1
    assert "no-such-predictor" in failed.error


@fork_only
def test_poisoned_spec_quarantined_pooled():
    specs = [spec_of(), POISON, spec_of(seed=SEED + 1)]
    results = map_specs(specs, workers=3, task_timeout=30,
                        on_error="return")
    assert isinstance(results[0], PipelineStats)
    assert isinstance(results[2], PipelineStats)
    assert isinstance(results[1], FailedResult)
    assert results[1].kind == "error"


def test_default_on_error_still_raises():
    with pytest.raises(ValueError):
        map_specs([POISON], workers=1)


def test_invalid_on_error_rejected():
    with pytest.raises(ValueError):
        map_specs([spec_of()], workers=1, on_error="ignore")


def test_retry_recovers_from_transient_error(monkeypatch):
    calls = {"n": 0}

    def flaky(spec):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient")
        return real_execute(spec)

    monkeypatch.setattr(pool_mod, "execute_spec", flaky)
    (result,) = map_specs([spec_of()], workers=1, retries=1, backoff=0)
    assert isinstance(result, PipelineStats)
    assert calls["n"] == 2


def test_retries_exhausted_inline_counts_attempts(monkeypatch):
    def always_fails(spec):
        raise RuntimeError("permanent")

    monkeypatch.setattr(pool_mod, "execute_spec", always_fails)
    (result,) = map_specs([spec_of()], workers=1, retries=2, backoff=0,
                          on_error="return")
    assert isinstance(result, FailedResult)
    assert result.attempts == 3
    assert "permanent" in result.error


# ----------------------------------------------------------------------
# degraded environments
# ----------------------------------------------------------------------
def test_unbuildable_pool_degrades_to_serial(monkeypatch):
    monkeypatch.setattr(pool_mod, "_try_build_pool", lambda procs: None)
    specs = [spec_of(), spec_of(seed=SEED + 1)]
    results = map_specs(specs, workers=4)
    assert as_dicts(results) == as_dicts([real_execute(s) for s in specs])


# ----------------------------------------------------------------------
# sweeps under chaos
# ----------------------------------------------------------------------
def test_run_sweep_quarantines_and_never_caches_failures(tmp_path):
    cache = ResultCache(str(tmp_path))
    specs = [spec_of(), POISON]
    results = run_sweep(specs, cache=cache, on_error="return")
    assert isinstance(results[0], PipelineStats)
    assert isinstance(results[1], FailedResult)
    # only the healthy spec landed on disk
    assert glob.glob(os.path.join(str(tmp_path), "*", "*.json")) == \
        [cache._path(key_for_spec(specs[0]))]
    # a clean rerun recomputes the quarantined spec (and fails again)
    warm = run_sweep(specs, cache=ResultCache(str(tmp_path)),
                     on_error="return")
    assert isinstance(warm[1], FailedResult)


def test_corrupted_cache_entry_mid_sweep_recovers(tmp_path):
    cache = ResultCache(str(tmp_path))
    (first,) = run_sweep([spec_of()], cache=cache)
    path = cache._path(key_for_spec(spec_of()))
    entry = json.loads(open(path).read())
    entry["stats"]["cycles"] += 1          # silent payload corruption
    with open(path, "w") as f:
        json.dump(entry, f)

    fresh = ResultCache(str(tmp_path))
    (again,) = run_sweep([spec_of()], cache=fresh)
    assert fresh.dropped == 1              # checksum caught the tamper
    assert dataclasses.asdict(again) == dataclasses.asdict(first)
    # the recomputed entry is valid again
    assert ResultCache(str(tmp_path)).get(key_for_spec(spec_of())) \
        is not None


@fork_only
def test_sweep_survives_sigkill_with_cache(tmp_path, monkeypatch):
    _arm(monkeypatch, tmp_path / "s", _kill_self_once)
    os.makedirs(str(tmp_path / "s"))
    cache = ResultCache(str(tmp_path / "cache"))
    specs = [spec_of(seed=SEED + i) for i in range(3)]
    results = run_sweep(specs, workers=3, cache=cache, task_timeout=6,
                        retries=2, on_error="return")
    assert all(isinstance(r, PipelineStats) for r in results)
    assert len(glob.glob(str(tmp_path / "cache" / "*" / "*.json"))) == 3
