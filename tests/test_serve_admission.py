"""Admission control, readiness, deadlines and client resilience.

Covers the PR 9 service-protection surface: a saturated daemon sheds
with 429 + ``Retry-After`` (never an unbounded queue), a draining one
with 503, ``/readyz`` tells a balancer the truth during WAL replay and
drain, request deadlines expire into ``fail_kind="deadline"`` records
rather than hung connections, and the client retries shed responses
with capped backoff while ``wait_job`` rides the event stream instead
of busy-polling.
"""

import asyncio
import json
import threading
import time

import http.client

import pytest

from repro.serve import ServeClient, ServeConfig, Server
from repro.telemetry import RingBufferSink
from repro.telemetry.events import SERVE_DRAIN, SERVE_SHED

from tests.serve_utils import ServerThread, http_payload, spec_wire

SEED = 11


def serve_config(tmp_path, **overrides):
    kwargs = dict(cache_dir=str(tmp_path / "cache"), workers=0)
    kwargs.update(overrides)
    return ServeConfig(**kwargs)


class Gate:
    """Blocks the daemon's executor thread inside ``on_execute`` until
    released, so tests can hold work in flight deterministically."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, specs) -> None:
        self.entered.set()
        self.release.wait(timeout=30)


# ----------------------------------------------------------------------
# /run admission: bounded in-flight executions
# ----------------------------------------------------------------------
def test_saturated_runs_shed_429_with_retry_after(tmp_path):
    gate = Gate()
    sink = RingBufferSink()
    config = serve_config(tmp_path, max_inflight_runs=1,
                          on_execute=gate, lifecycle_sink=sink)
    with ServerThread(config) as st:
        first_result = {}

        def leader():
            with st.client() as c:
                first_result.update(c.run(spec_wire()))

        t = threading.Thread(target=leader)
        t.start()
        try:
            assert gate.entered.wait(timeout=10)
            with st.client(timeout=10) as client:
                status, body = client.request(
                    "POST", "/run", {"spec": spec_wire(seed=SEED + 1)},
                    retry=False)
                assert status == 429
                assert body["shed"] is True
                assert body["error"] == "saturated"
                assert body["retry_after"] >= 1
        finally:
            gate.release.set()
            t.join(timeout=30)
        assert first_result["ok"]           # the admitted run finished
        with st.client() as client:
            stats = client.stats()
            assert stats["counters"]["shed_requests"] == 1
    shed = [e for e in sink.events if e.kind == SERVE_SHED]
    assert len(shed) == 1
    assert shed[0].data == {"path": "/run", "reason": "saturated"}


def test_retry_after_header_on_shed_response(tmp_path):
    """The raw HTTP response carries a Retry-After header a generic
    client can honour without reading the body."""
    gate = Gate()
    config = serve_config(tmp_path, max_inflight_runs=1,
                          on_execute=gate)
    with ServerThread(config) as st:
        t = threading.Thread(
            target=lambda: ServeClient(port=st.port).run(spec_wire()))
        t.start()
        try:
            assert gate.entered.wait(timeout=10)
            conn = http.client.HTTPConnection("127.0.0.1", st.port,
                                              timeout=10)
            conn.request("POST", "/run", body=json.dumps(
                {"spec": spec_wire(seed=SEED + 2)}),
                headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 429
            assert resp.getheader("Retry-After") == "1"
            conn.close()
        finally:
            gate.release.set()
            t.join(timeout=30)


def test_coalesced_followers_are_never_shed(tmp_path):
    """Identical submissions join the in-flight leader — they consume
    no admission slot, so coalescing keeps working at saturation."""
    gate = Gate()
    config = serve_config(tmp_path, max_inflight_runs=1,
                          on_execute=gate)
    with ServerThread(config) as st:
        results = []

        def submit():
            with st.client() as c:
                results.append(c.run(spec_wire()))

        threads = [threading.Thread(target=submit) for _ in range(3)]
        threads[0].start()
        assert gate.entered.wait(timeout=10)
        for t in threads[1:]:
            t.start()
        time.sleep(0.2)                     # let followers coalesce
        gate.release.set()
        for t in threads:
            t.join(timeout=30)
        assert len(results) == 3
        assert all(r["ok"] for r in results)
        with st.client() as client:
            stats = client.stats()
            assert stats["counters"]["executions"] == 1
            assert stats["counters"]["coalesced"] == 2
            assert stats["counters"]["shed_requests"] == 0


# ----------------------------------------------------------------------
# job admission: bounded active + queued jobs
# ----------------------------------------------------------------------
def test_saturated_jobs_shed_429(tmp_path):
    gate = Gate()
    config = serve_config(tmp_path, max_active_jobs=1,
                          max_queued_jobs=0, on_execute=gate)
    with ServerThread(config) as st:
        with st.client() as client:
            job = client.sweep([spec_wire()])
            assert gate.entered.wait(timeout=10)
            status, body = client.request(
                "POST", "/sweep",
                {"specs": [spec_wire(seed=SEED + 3)]}, retry=False)
            assert status == 429
            assert body["error"] == "saturated"
            status, body = client.request("POST", "/dse",
                                          {"n_points": 2}, retry=False)
            assert status == 429
            gate.release.set()
            done = client.wait_job(job["id"], timeout=60)
            assert done["state"] == "done"
            # capacity is back: the same submission is admitted now
            job2 = client.sweep([spec_wire(seed=SEED + 3)])
            assert client.wait_job(job2["id"],
                                   timeout=60)["state"] == "done"


# ----------------------------------------------------------------------
# readiness and draining
# ----------------------------------------------------------------------
def test_readyz_false_while_recovering(tmp_path, monkeypatch):
    """Between bind and the end of WAL replay the daemon is alive but
    not ready: /healthz 200, /readyz 503 recovering, work sheds 503."""
    from repro.serve import jobs as jobs_mod

    hold = threading.Event()
    monkeypatch.setattr(jobs_mod.JobStore, "recover",
                        lambda self: (hold.wait(10), [])[1])

    async def probe():
        server = Server(ServeConfig(
            port=0, state_dir=str(tmp_path / "state")))
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)

            async def roundtrip(payload):
                writer.write(payload)
                await writer.drain()
                status = int((await reader.readline()).split()[1])
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                body = await reader.readexactly(length)
                return status, json.loads(body)

            assert not server.ready
            status, body = await roundtrip(
                http_payload("GET", "/healthz"))
            assert status == 200 and body["ok"]
            status, body = await roundtrip(
                http_payload("GET", "/readyz"))
            assert status == 503
            assert body["ready"] is False and body["recovering"] is True
            status, body = await roundtrip(http_payload(
                "POST", "/run", {"spec": spec_wire()}))
            assert status == 503 and body["error"] == "recovering"

            hold.set()
            await server.wait_ready()
            status, body = await roundtrip(
                http_payload("GET", "/readyz"))
            assert status == 200 and body["ready"] is True
            writer.close()
        finally:
            hold.set()
            server.request_shutdown()
            await server.serve()

    asyncio.run(probe())


def test_draining_daemon_sheds_503_and_persists(tmp_path):
    """After shutdown begins, in-flight jobs drain to completion (and
    keep journaling) while established connections get one final 503
    for new work; /readyz flips to not-ready."""
    gate = Gate()
    sink = RingBufferSink()
    config = serve_config(tmp_path, state_dir=str(tmp_path / "state"),
                          on_execute=gate, drain_timeout=30.0,
                          lifecycle_sink=sink)
    with ServerThread(config) as st:
        client = st.client()
        job = client.sweep([spec_wire()])
        assert gate.entered.wait(timeout=10)
        # pre-established keep-alive connections: each gets exactly one
        # request served after drain begins (then the daemon closes it)
        conn_run = http.client.HTTPConnection("127.0.0.1", st.port,
                                              timeout=10)
        conn_run.request("GET", "/healthz")
        conn_run.getresponse().read()
        conn_ready = http.client.HTTPConnection("127.0.0.1", st.port,
                                                timeout=10)
        conn_ready.request("GET", "/healthz")
        conn_ready.getresponse().read()

        st.server.request_shutdown()
        deadline = time.monotonic() + 10
        while not st.server.draining and time.monotonic() < deadline:
            time.sleep(0.01)
        assert st.server.draining

        conn_run.request("POST", "/run", body=json.dumps(
            {"spec": spec_wire(seed=SEED + 4)}),
            headers={"Content-Type": "application/json"})
        resp = conn_run.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 503
        assert body["shed"] is True and body["error"] == "draining"
        conn_run.close()

        conn_ready.request("GET", "/readyz")
        resp = conn_ready.getresponse()
        body = json.loads(resp.read())
        assert resp.status == 503
        assert body["ready"] is False and body["draining"] is True
        conn_ready.close()

        gate.release.set()              # let the held job drain out
    # the drained job reached its WAL: a restart sees it terminal
    from repro.serve import JobStore
    store = JobStore(state_dir=str(tmp_path / "state"))
    assert store.recover() == []
    assert store.get(job["id"]).state == "done"
    assert any(e.kind == SERVE_DRAIN for e in sink.events)


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
def test_run_deadline_expires_as_504(tmp_path):
    with ServerThread(serve_config(tmp_path)) as st:
        with st.client() as client:
            status, body = client.request(
                "POST", "/run",
                {"spec": spec_wire(), "deadline_ms": 0.001},
                retry=False)
            assert status == 504
            assert body["ok"] is False
            assert body["fail_kind"] == "deadline"
            stats = client.stats()
            assert stats["counters"]["deadline_expired"] == 1
            # expired work is never cached: a later patient request
            # executes and succeeds
            good = client.run(spec_wire())
            assert good["ok"] and good["source"] == "executed"


def test_cached_result_beats_expired_deadline(tmp_path):
    """Known answers are never expired: a cache hit settles before the
    deadline is consulted."""
    with ServerThread(serve_config(tmp_path)) as st:
        with st.client() as client:
            first = client.run(spec_wire())
            assert first["ok"]
            hit = client.run(spec_wire(), deadline_ms=0.001)
            assert hit["ok"] and hit["source"] == "memory"


def test_job_deadline_settles_pending_as_journaled_failures(tmp_path):
    config = serve_config(tmp_path, state_dir=str(tmp_path / "state"))
    with ServerThread(config) as st:
        with st.client() as client:
            wire = [spec_wire(seed=SEED + i) for i in range(3)]
            job = client.sweep(wire, deadline_ms=0.001)
            assert job["deadline_at"] is not None
            done = client.wait_job(job["id"], timeout=60)
            assert done["state"] == "failed"
            assert done["n_done"] == 3
            full = client.job(job["id"])
            assert all(r["fail_kind"] == "deadline"
                       for r in full["results"])
            assert client.stats()["counters"]["deadline_expired"] == 3
            job_id = job["id"]
    # the expirations were journaled: a restart replays them settled,
    # with exactly one failure record each (never re-expired)
    from repro.serve import JobStore
    from repro.wal import load_jsonl
    import os
    store = JobStore(state_dir=str(tmp_path / "state"))
    assert store.recover() == []
    replayed = store.get(job_id)
    assert replayed.state == "failed" and replayed.n_deadline == 3
    records, _ = load_jsonl(os.path.join(
        str(tmp_path / "state"), "jobs", job_id + ".jsonl"))
    results = [r for r in records if r["kind"] == "result"]
    assert len(results) == 3
    assert all(r["rec"]["fail_kind"] == "deadline" for r in results)


def test_generous_deadline_changes_nothing(tmp_path):
    with ServerThread(serve_config(tmp_path)) as st:
        with st.client() as client:
            run = client.run(spec_wire(), deadline_ms=60_000)
            assert run["ok"]
            job = client.sweep([spec_wire(seed=SEED + 1)],
                               deadline_ms=60_000)
            assert client.wait_job(job["id"],
                                   timeout=60)["state"] == "done"


def test_bad_deadline_rejected_400(tmp_path):
    with ServerThread(serve_config(tmp_path)) as st:
        with st.client() as client:
            for bad in (0, -5, True, "soon"):
                status, body = client.request(
                    "POST", "/run",
                    {"spec": spec_wire(), "deadline_ms": bad},
                    retry=False)
                assert status == 400
                assert "deadline_ms" in body["error"]


# ----------------------------------------------------------------------
# client resilience
# ----------------------------------------------------------------------
def test_client_retries_shed_responses_until_admitted(tmp_path):
    """A 429 with Retry-After is an invitation, not an error: the
    client backs off and resubmits, and the retried request succeeds
    once capacity frees up."""
    gate = Gate()
    config = serve_config(tmp_path, max_inflight_runs=1,
                          on_execute=gate, retry_after=1.0)
    with ServerThread(config) as st:
        t = threading.Thread(
            target=lambda: ServeClient(port=st.port).run(spec_wire()))
        t.start()
        assert gate.entered.wait(timeout=10)
        # release the leader shortly after the follower's first 429
        threading.Timer(0.3, gate.release.set).start()
        with ServeClient(port=st.port, retries=5,
                         backoff=0.05) as client:
            out = client.run(spec_wire(seed=SEED + 5))
            assert out["ok"]
        t.join(timeout=30)
        with st.client() as client:
            assert client.stats()["counters"]["shed_requests"] >= 1


def test_client_retries_connection_errors_with_backoff(tmp_path,
                                                       monkeypatch):
    with ServerThread(serve_config(tmp_path)) as st:
        real_request = http.client.HTTPConnection.request
        failures = {"left": 2}

        def flaky(self, *args, **kwargs):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ConnectionResetError("injected")
            return real_request(self, *args, **kwargs)

        monkeypatch.setattr(http.client.HTTPConnection, "request",
                            flaky)
        with ServeClient(port=st.port, retries=3,
                         backoff=0.01) as client:
            assert client.healthz()["ok"]
        assert failures["left"] == 0

        failures["left"] = 2
        with ServeClient(port=st.port, retries=0) as client:
            with pytest.raises(ConnectionResetError):
                client.healthz()


def test_retry_sleep_is_capped_and_honours_retry_after(monkeypatch):
    client = ServeClient(backoff=0.1, backoff_cap=0.4)
    slept = []
    monkeypatch.setattr(time, "sleep", slept.append)
    for attempt in (1, 2, 3, 4, 5, 6):
        client._retry_sleep(attempt, None)
    assert all(s <= 0.4 for s in slept)     # capped exponential
    slept.clear()
    client._retry_sleep(1, 2.5)
    assert slept == [pytest.approx(2.5)] or slept[0] >= 2.5


def test_wait_job_streams_instead_of_polling(tmp_path):
    """wait_job subscribes to the event stream: one status fetch at
    the end, not a poll per interval."""
    with ServerThread(serve_config(tmp_path)) as st:
        with st.client() as client:
            calls = []
            real_job = client.job
            client.job = lambda job_id: (calls.append(job_id),
                                         real_job(job_id))[1]
            job = client.sweep([spec_wire(seed=SEED + i)
                                for i in range(3)])
            done = client.wait_job(job["id"], timeout=60)
            assert done["state"] == "done"
            assert calls == [job["id"]]     # exactly one status fetch
