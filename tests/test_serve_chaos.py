"""Chaos tests for the serve daemon: the pool's failure modes, ported
to the wire.

``tests/test_chaos_pool.py`` proves the runner absorbs SIGKILLed,
hung and poisoned workers; these tests prove the *daemon* turns each
of those into a first-class ``failed`` job record — never a hung
connection — while continuing to serve, and that a corrupted shard
entry is dropped and recomputed rather than returned.

Fault injection uses the same mechanism as the pool suite: the
worker-side task function is monkeypatched in the daemon's process and
reaches pool workers via fork inheritance, with first-call-only faults
coordinated through an ``O_EXCL`` sentinel file.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

import repro.runner.pool as pool_mod
from repro.runner import ResultCache, RunSpec, key_for_spec
from repro.runner.pool import execute_spec as real_execute
from repro.serve import ServeConfig

from tests.serve_utils import SPEC, ServerThread, spec_wire

N, SEED = 64, 11

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker fault hooks reach workers via fork inheritance")

_SENTINEL_ENV = "REPRO_CHAOS_SENTINEL"


def _trip_once():
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


def _arm(monkeypatch, tmp_path, fn):
    monkeypatch.setenv(_SENTINEL_ENV, str(tmp_path / "tripped"))
    monkeypatch.setattr(pool_mod, "execute_spec", fn)


def serve_config(tmp_path, **overrides):
    kwargs = dict(cache_dir=str(tmp_path / "cache"), workers=2,
                  task_timeout=6.0, retries=0)
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def wire_sweep(n):
    return [spec_wire(seed=SEED + i) for i in range(n)]


def assert_still_serving(st):
    """The daemon must survive the fault: health and fresh work OK."""
    with st.client() as client:
        assert client.healthz()["ok"] is True
        fresh = client.run(spec_wire(seed=9999, n_samples=16))
        assert fresh["ok"]


# ----------------------------------------------------------------------
# crashed / hung workers mid-job
# ----------------------------------------------------------------------
@fork_only
def test_sigkilled_worker_becomes_failed_job_record(tmp_path,
                                                    monkeypatch):
    _arm(monkeypatch, tmp_path, _kill_self_once)
    with ServerThread(serve_config(tmp_path)) as st:
        with st.client() as client:
            job = client.sweep(wire_sweep(3))
            # the connection must come back with a record, not hang:
            # wait_job's own timeout is the hang detector
            job = client.wait_job(job["id"], timeout=60)
            assert job["state"] == "failed"
            assert job["n_done"] == 3
            assert job["n_failed"] == 1
            full = client.job(job["id"])
            failed = [r for r in full["results"] if not r["ok"]]
            healthy = [r for r in full["results"] if r["ok"]]
            assert len(failed) == 1 and len(healthy) == 2
            assert failed[0]["fail_kind"] == "timeout"
            assert all("stats" in r for r in healthy)
            assert client.stats()["jobs"]["failed"] == 1
        assert_still_serving(st)


@fork_only
def test_hung_worker_times_out_into_failed_job(tmp_path, monkeypatch):
    _arm(monkeypatch, tmp_path, _hang_once)
    config = serve_config(tmp_path, task_timeout=2.5)
    with ServerThread(config) as st:
        with st.client() as client:
            job = client.sweep(wire_sweep(2))
            job = client.wait_job(job["id"], timeout=60)
            assert job["state"] == "failed"
            assert job["n_failed"] == 1
            full = client.job(job["id"])
            (failed,) = [r for r in full["results"] if not r["ok"]]
            assert failed["fail_kind"] == "timeout"
        assert_still_serving(st)


@fork_only
def test_sigkill_with_retries_recovers_to_done(tmp_path, monkeypatch):
    """With retries budgeted, the same kill is absorbed invisibly and
    the job finishes ``done`` — failure is policy, not fate."""
    _arm(monkeypatch, tmp_path, _kill_self_once)
    with ServerThread(serve_config(tmp_path, retries=2)) as st:
        with st.client() as client:
            job = client.sweep(wire_sweep(3))
            job = client.wait_job(job["id"], timeout=90)
            assert job["state"] == "done"
            assert job["n_failed"] == 0
        assert_still_serving(st)


# ----------------------------------------------------------------------
# poisoned specs
# ----------------------------------------------------------------------
def test_poisoned_spec_quarantined_in_job_record(tmp_path):
    config = serve_config(tmp_path, workers=0)
    with ServerThread(config) as st:
        with st.client() as client:
            specs = [spec_wire(),
                     spec_wire(predictor_spec="no-such-predictor"),
                     spec_wire(seed=SEED + 1)]
            job = client.sweep(specs)
            job = client.wait_job(job["id"], timeout=60)
            assert job["state"] == "failed"
            assert job["n_done"] == 3 and job["n_failed"] == 1
            full = client.job(job["id"])
            ok0, poisoned, ok2 = full["results"]
            assert ok0["ok"] and ok2["ok"]
            assert not poisoned["ok"]
            assert poisoned["fail_kind"] == "error"
            assert "no-such-predictor" in poisoned["error"]
            # the event stream carries the same failure, terminated by
            # an 'end' event naming the failed state
            events = list(client.stream_events(job["id"]))
            assert events[-1]["kind"] == "end"
            assert events[-1]["state"] == "failed"
            assert any(e["kind"] == "result" and not e["ok"]
                       for e in events)
        assert_still_serving(st)


def test_poisoned_single_run_is_an_error_response(tmp_path):
    """/run of a poisoned spec answers 500 with the quarantine record —
    and never caches or hot-caches the failure."""
    config = serve_config(tmp_path, workers=0)
    with ServerThread(config) as st:
        with st.client() as client:
            bad = spec_wire(predictor_spec="no-such-predictor")
            for _ in range(2):      # second round proves no caching
                status, body = client.request(
                    "POST", "/run", {"spec": bad})
                assert status == 500
                assert body["ok"] is False
                assert body["fail_kind"] == "error"
                assert body["source"] == "executed"
            assert client.stats()["hot_entries"] == 0
        assert_still_serving(st)


# ----------------------------------------------------------------------
# corrupted cache shards
# ----------------------------------------------------------------------
def test_corrupted_shard_entry_recomputed_not_returned(tmp_path):
    config = serve_config(tmp_path, workers=0)
    with ServerThread(config) as st:
        with st.client() as client:
            first = client.run(spec_wire())
            assert first["source"] == "executed"
            truth = first["stats"]["cycles"]

    # tamper with the entry on disk, bumping cycles past the checksum
    spec = RunSpec(SPEC["benchmark"], SPEC["n_samples"], SPEC["seed"],
                   SPEC["predictor_spec"])
    key = key_for_spec(spec)
    path = os.path.join(str(tmp_path / "cache"), key[:2], key + ".json")
    entry = json.load(open(path))
    entry["stats"]["cycles"] = truth + 1
    with open(path, "w") as f:
        json.dump(entry, f)

    # a fresh daemon (empty hot cache) must drop the tampered entry and
    # recompute — the corrupted value is never served
    with ServerThread(serve_config(tmp_path, workers=0)) as st:
        with st.client() as client:
            again = client.run(spec_wire())
            assert again["source"] == "executed"
            assert again["stats"]["cycles"] == truth
            assert client.stats()["cache"]["dropped"] == 1
            # the recomputed entry is valid on disk again
            fresh = ResultCache(str(tmp_path / "cache"))
            assert fresh.get(key).cycles == truth
