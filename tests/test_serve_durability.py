"""Durability tests: the job WAL, crash recovery and resumption.

The contract under test (PR 9): with a ``state_dir`` every job owns an
append-only fsync'd JSONL write-ahead log; a daemon restarted on the
same state dir replays each log, keeps every settled outcome (success
*and* quarantined failure — exactly one record each, across any number
of restarts), re-enqueues only the unsettled specs, and resolves
anything that finished before the crash from the result cache — zero
recomputation.

A "crash" here is a WAL with no ``end`` record: the store-level tests
build one directly through the same :class:`repro.serve.JobStore` API
the daemon uses, which is deterministic where SIGKILLing a subprocess
is racy (the subprocess version lives in ``benchmarks/
serve_restart_smoke.py`` and the CI ``serve-restart-smoke`` step).
"""

import json
import os

from repro.runner import FailedResult, RunSpec, run_sweep
from repro.serve import Job, JobStore, ServeConfig, spec_key, spec_to_wire
from repro.serve.protocol import RETIRED_ENGINES
from repro.telemetry import RingBufferSink
from repro.telemetry.events import SERVE_RECOVER
from repro.wal import load_jsonl

from tests.serve_utils import SPEC, ServerThread, spec_wire

N, SEED = 64, 11


def make_spec(i: int = 0) -> RunSpec:
    return RunSpec(SPEC["benchmark"], SPEC["n_samples"], SPEC["seed"] + i,
                   SPEC["predictor_spec"])


def crashed_store(state_dir, n_specs=3, settle_ok=(0,), settle_fail=()):
    """A state dir as a crashed daemon leaves it: one job, some specs
    settled (journaled), no ``end`` record, handle dropped."""
    store = JobStore(state_dir=str(state_dir))
    specs = [make_spec(i) for i in range(n_specs)]
    job = store.create("sweep", specs)
    job.start()
    for i in settle_ok:
        (result,) = run_sweep([specs[i]])
        job.note_result(specs[i], result, False)
    for i in settle_fail:
        job.note_result(specs[i],
                        FailedResult(specs[i], "injected", "error", 1),
                        False)
    job.close_wal()               # crash: no finish(), no end record
    return job.id, specs


# ----------------------------------------------------------------------
# store-level recovery semantics
# ----------------------------------------------------------------------
def test_recover_keeps_settled_and_reenqueues_pending(tmp_path):
    job_id, specs = crashed_store(tmp_path, n_specs=3, settle_ok=(0,),
                                  settle_fail=(1,))
    store = JobStore(state_dir=str(tmp_path))
    (job,) = store.recover()
    assert job.id == job_id
    assert job.state == "pending"           # not terminal: resumable
    assert job.n_done == 2 and job.n_recovered == 2
    assert job.n_failed == 1
    assert job.pending_specs() == [specs[2]]
    # replayed events carry the recovered marker; nothing was written
    assert all(e.get("recovered") for e in job.events
               if e["kind"] == "result")


def test_recover_terminal_job_stays_terminal(tmp_path):
    store = JobStore(state_dir=str(tmp_path))
    spec = make_spec()
    job = store.create("sweep", [spec])
    job.start()
    (result,) = run_sweep([spec])
    job.note_result(spec, result, False)
    job.finish()
    assert job.state == "done"

    again = JobStore(state_dir=str(tmp_path))
    assert again.recover() == []            # nothing to resume
    replayed = again.get(job.id)
    assert replayed is not None
    assert replayed.state == "done"
    assert replayed.results[0]["ok"]


def test_double_restart_is_idempotent(tmp_path):
    """Replay appends nothing: a second recovery reads byte-identical
    logs and rebuilds the same job — and a failed spec keeps exactly
    one ``failed`` record across both."""
    job_id, specs = crashed_store(tmp_path, n_specs=2, settle_ok=(),
                                  settle_fail=(0,))
    wal_path = os.path.join(str(tmp_path), "jobs", job_id + ".jsonl")
    bytes_before = open(wal_path, "rb").read()

    first = JobStore(state_dir=str(tmp_path))
    (job1,) = first.recover()
    first.close()
    assert open(wal_path, "rb").read() == bytes_before

    second = JobStore(state_dir=str(tmp_path))
    (job2,) = second.recover()
    second.close()
    assert open(wal_path, "rb").read() == bytes_before
    assert job2.results == job1.results
    assert job2.n_failed == job1.n_failed == 1
    records, _ = load_jsonl(wal_path)
    fail_records = [r for r in records if r.get("kind") == "result"
                    and not r["rec"]["ok"]]
    assert len(fail_records) == 1


def test_fresh_ids_never_collide_with_recovered(tmp_path):
    job_id, _ = crashed_store(tmp_path, n_specs=1, settle_ok=())
    store = JobStore(state_dir=str(tmp_path))
    store.recover()
    fresh = store.create("sweep", [make_spec(7)])
    assert fresh.id != job_id
    assert fresh.id > job_id                # ids keep counting upward


def test_torn_wal_tail_dropped_and_repaired(tmp_path):
    """A crash mid-append leaves a torn final record: recovery drops
    it, repairs the file and the truncated result is simply pending
    again — never a corrupt job."""
    job_id, specs = crashed_store(tmp_path, n_specs=2,
                                  settle_ok=(0, 1))
    wal_path = os.path.join(str(tmp_path), "jobs", job_id + ".jsonl")
    # tear the last record in half (no trailing newline)
    raw = open(wal_path, "rb").read()
    assert raw.endswith(b"\n")
    torn_at = len(raw) - (len(raw) - raw[:-1].rfind(b"\n") - 1) // 2
    with open(wal_path, "wb") as f:
        f.write(raw[:torn_at])

    store = JobStore(state_dir=str(tmp_path))
    (job,) = store.recover()
    assert store.wal_dropped == 1
    assert job.n_done == 1                  # the torn record is gone
    assert job.pending_specs() == [specs[1]]
    # the reopened WAL repaired the tail: the file ends on a newline
    # and every surviving line parses
    repaired = open(wal_path, "rb").read()
    assert repaired == raw[:raw[:-1].rfind(b"\n") + 1]
    records, dropped = load_jsonl(wal_path)
    assert dropped == 0
    assert [r["kind"] for r in records] == ["meta", "result"]
    store.close()


#: a job WAL's meta record exactly as an earlier release wrote it, when
#: every spec carried an ``engine`` field that defaulted to ``"interp"``
PARENT_ERA_META = (
    '{"collect_metrics": false, "deadline_at": null, "job": "job-000001",'
    ' "job_kind": "sweep", "kind": "meta", "meta": {}, "specs": '
    '[{"backend": "inorder", "bdt_update": "execute", "benchmark": '
    '"adpcm_enc", "bit_capacity": 16, "btb_l1_entries": 64, '
    '"btb_l2_assoc": 4, "btb_l2_entries": 2048, "engine": "interp", '
    '"fdip": false, "frontend": false, "ftq_depth": 8, "iq_size": 16, '
    '"issue_width": 2, "min_count": 16, "min_fold_fraction": 0.5, '
    '"n_samples": 64, "phys_regs": 64, "predictor_spec": "not-taken", '
    '"rob_size": 32, "seed": 11, "with_asbr": false}], '
    '"submitted": 1792199009.6804347, "version": 1}')


def test_replay_decodes_every_engine_name():
    """Replay drops a job whose specs fail the strict wire decode, so
    every engine name a WAL may carry must still decode — each retired
    name, and the ``"interp"`` default of an earlier record — and all
    of them onto the spec, and so the key, of a spec that names no
    engine."""
    key = spec_key(make_spec())
    meta = Job("job-000002", "sweep", [make_spec()]).wal_meta()
    meta["specs"] = [dict(spec_to_wire(make_spec()), engine=engine)
                     for engine in RETIRED_ENGINES]
    job = Job.replay([meta])
    assert job is not None
    assert job.specs == [make_spec()] * len(RETIRED_ENGINES)
    assert {spec_key(spec) for spec in job.specs} == {key}

    parent = Job.replay([json.loads(PARENT_ERA_META)])
    assert parent is not None and parent.id == "job-000001"
    (spec,) = parent.specs
    assert spec == RunSpec("adpcm_enc", 64, 11, "not-taken")
    assert spec_key(spec) == key


def test_pruned_job_wal_removed(tmp_path):
    store = JobStore(state_dir=str(tmp_path), keep_finished=1)
    spec = make_spec()
    (result,) = run_sweep([spec])
    paths = []
    for _ in range(3):
        job = store.create("sweep", [spec])
        job.start()
        job.note_result(spec, result, False)
        job.finish()
        paths.append(os.path.join(str(tmp_path), "jobs",
                                  job.id + ".jsonl"))
    # pruning runs at create time: by the third submission the first
    # job's record — and its WAL — are gone, bounding the state dir
    kept = [p for p in paths if os.path.exists(p)]
    assert kept == paths[1:]
    assert store.get("job-000001") is None


# ----------------------------------------------------------------------
# daemon-level: restart completes the job, without recomputation
# ----------------------------------------------------------------------
def durable_config(tmp_path, **overrides):
    kwargs = dict(cache_dir=str(tmp_path / "cache"), workers=0,
                  state_dir=str(tmp_path / "state"))
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


def test_restart_resumes_and_completes_crashed_job(tmp_path):
    job_id, specs = crashed_store(tmp_path / "state", n_specs=3,
                                  settle_ok=(0,))
    executed = []
    sink = RingBufferSink()
    config = durable_config(tmp_path, on_execute=executed.extend,
                            lifecycle_sink=sink)
    with ServerThread(config) as st:
        with st.client() as client:
            job = client.wait_job(job_id, timeout=60)
            assert job["state"] == "done"
            assert job["n_total"] == 3 and job["n_done"] == 3
            assert job["n_recovered"] == 1
            stats = client.stats()
            assert stats["counters"]["jobs_recovered"] == 1
            assert stats["ready"] is True
    # the settled spec never re-entered the pool
    assert specs[0] not in executed
    assert set(executed) == {specs[1], specs[2]}
    recover_events = [e for e in sink.events if e.kind == SERVE_RECOVER]
    assert len(recover_events) == 1
    assert recover_events[0].data == {"job": job_id, "settled": 1,
                                      "pending": 2}


def test_restart_with_warm_cache_recomputes_nothing(tmp_path):
    """Specs that finished before the crash but after their journal
    write resolve from the result cache: the resumed job ends with
    zero new executions."""
    cache_dir = str(tmp_path / "cache")
    specs = [make_spec(i) for i in range(3)]
    from repro.runner import ResultCache
    run_sweep(specs, cache=ResultCache(cache_dir))

    # crash with *nothing* journaled beyond the meta record
    store = JobStore(state_dir=str(tmp_path / "state"))
    job = store.create("sweep", specs)
    job_id = job.id
    job.close_wal()

    with ServerThread(durable_config(tmp_path)) as st:
        with st.client() as client:
            job = client.wait_job(job_id, timeout=60)
            assert job["state"] == "done"
            assert job["n_cached"] == 3
            assert client.stats()["counters"]["executions"] == 0


def test_restarted_daemon_serves_terminal_job_results(tmp_path):
    """A finished job survives the restart queryable: summary, full
    results and the event stream (terminated by a recovered end)."""
    config = durable_config(tmp_path)
    wire = [spec_wire(seed=SEED + i) for i in range(2)]
    with ServerThread(config) as st:
        with st.client() as client:
            job = client.sweep(wire)
            done = client.wait_job(job["id"], timeout=60)
            assert done["state"] == "done"
            job_id = job["id"]

    with ServerThread(durable_config(tmp_path)) as st:
        with st.client() as client:
            again = client.job(job_id)
            assert again["state"] == "done"
            assert all(r["ok"] for r in again["results"])
            events = list(client.stream_events(job_id))
            assert events[-1]["kind"] == "end"
            assert events[-1]["recovered"] is True
            assert client.stats()["counters"]["jobs_recovered"] == 1


def test_wal_records_are_wire_shaped(tmp_path):
    """The journal speaks the wire format: meta carries the specs as
    ``spec_to_wire`` dicts and results ride as progress records."""
    config = durable_config(tmp_path)
    with ServerThread(config) as st:
        with st.client() as client:
            job = client.sweep([spec_wire()])
            client.wait_job(job["id"], timeout=60)
            wal_path = os.path.join(str(tmp_path / "state"), "jobs",
                                    job["id"] + ".jsonl")
    records, dropped = load_jsonl(wal_path)
    assert dropped == 0
    kinds = [r["kind"] for r in records]
    assert kinds == ["meta", "result", "end"]
    from repro.serve import spec_from_wire
    assert spec_from_wire(records[0]["specs"][0]) == make_spec()
    assert records[1]["rec"]["ok"] is True
    assert records[2]["state"] == "done"
    # every line is valid standalone JSON (fsync'd line-at-a-time)
    for line in open(wal_path):
        json.loads(line)
