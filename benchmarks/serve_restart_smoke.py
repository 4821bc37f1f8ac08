"""CI serve-restart-smoke gate: SIGKILL the daemon mid-job, restart
it on the same state dir, and watch the job finish.

Boots the real daemon (``repro serve --state-dir``) as a subprocess,
submits a sweep big enough to straddle a kill, SIGKILLs the *daemon
process* (not a worker — that's ``serve_smoke.py``) partway through,
then restarts on the same ``--state-dir`` and ``--cache-dir`` and
asserts the contract of PR 9:

1. the restarted daemon recovers the job from its WAL
   (``jobs_recovered`` in ``/stats``) and drives it to a terminal
   state;
2. specs settled before the kill are not re-executed: the journaled
   results replay, and anything that finished between its journal
   write and the kill resolves from the result cache — the
   ``executions`` counter of the second daemon stays below the
   job's total;
3. both daemon logs are **zero-traceback**, and the second exits 0 on
   ``POST /shutdown``.

Run as a plain script::

    PYTHONPATH=src python benchmarks/serve_restart_smoke.py

Exit status 0 = pass.  Kept out of the pytest tiers on purpose — the
in-process durability suite (tests/test_serve_durability.py) covers
the replay semantics deterministically; this proves the shipped CLI
entrypoint survives a real ``kill -9``.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.serve import ServeClient

# long enough that a kill lands mid-sweep, short enough for CI
SPECS = [{"benchmark": "adpcm_enc", "n_samples": 4000, "seed": 200 + i,
          "predictor_spec": "bimodal-512-512"} for i in range(8)]


def start_daemon(tmp, log_name):
    log_path = os.path.join(tmp, log_name)
    # the daemon leads its own process group so the kill below takes
    # out daemon *and* pool workers in one blow, like a machine dying
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--cache-dir", os.path.join(tmp, "cache"),
         "--state-dir", os.path.join(tmp, "state"),
         "--workers", "2", "--task-timeout", "30", "--retries", "0"],
        stderr=open(log_path, "w"), stdout=subprocess.DEVNULL,
        start_new_session=True), log_path


def kill_group(daemon) -> None:
    try:
        os.killpg(daemon.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    daemon.wait(timeout=30)


def wait_for_port(log_path: str, timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        text = open(log_path).read()
        m = re.search(r"listening on [\d.]+:(\d+)", text)
        if m:
            return int(m.group(1))
        time.sleep(0.1)
    raise TimeoutError("daemon never logged its port:\n" +
                       open(log_path).read())


def wait_ready(client: ServeClient, timeout: float = 60.0) -> None:
    """Poll ``/readyz``: WAL replay runs on a thread after the bind,
    so a logged port does not yet mean the jobs are recovered."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.readyz()[0]:
            return
        time.sleep(0.1)
    raise TimeoutError("daemon never became ready: %r"
                       % (client.readyz(),))


def wait_for_progress(client: ServeClient, job_id: str, at_least: int,
                      timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.job(job_id)
        if job["n_done"] >= at_least or job["state"] in ("done",
                                                         "failed"):
            return job
        time.sleep(0.1)
    raise TimeoutError("job %s made no progress" % job_id)


def assert_no_tracebacks(log_path: str) -> None:
    log_text = open(log_path).read()
    assert "Traceback" not in log_text, \
        "daemon log contains a traceback:\n" + log_text


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve-restart-smoke-")

    # -- first life: submit, make partial progress, kill -9 ------------
    daemon, log1 = start_daemon(tmp, "daemon-1.log")
    try:
        port = wait_for_port(log1)
        client = ServeClient(port=port, timeout=120.0)
        job_id = client.sweep(SPECS)["id"]
        partial = wait_for_progress(client, job_id, at_least=2)
        assert partial["state"] not in ("done", "failed"), \
            "job finished before the kill could land: %r" % partial
        kill_group(daemon)
        print("restart-smoke: killed daemon with %d/%d specs settled"
              % (partial["n_done"], partial["n_total"]))
    finally:
        if daemon.poll() is None:
            kill_group(daemon)
    settled_before_kill = partial["n_done"]

    # -- second life: same state dir; the job must finish --------------
    daemon, log2 = start_daemon(tmp, "daemon-2.log")
    try:
        port = wait_for_port(log2)
        client = ServeClient(port=port, timeout=120.0)
        wait_ready(client)
        stats = client.stats()
        assert stats["counters"]["jobs_recovered"] >= 1, stats
        job = client.wait_job(job_id, timeout=300)
        assert job["state"] in ("done", "failed"), job
        assert job["n_done"] == job["n_total"] == len(SPECS), job
        assert job["n_recovered"] >= settled_before_kill, job
        stats = client.stats()
        # settled specs were not re-executed: the second daemon ran at
        # most the work that was pending at the kill
        assert stats["counters"]["executions"] \
            <= len(SPECS) - settled_before_kill, stats
        print("restart-smoke: job %s %s after restart "
              "(%d replayed from WAL, %d executions in second life)"
              % (job_id, job["state"], job["n_recovered"],
               stats["counters"]["executions"]))

        client.shutdown()
        code = daemon.wait(timeout=30)
        assert code == 0, "daemon exited %r" % code
        assert_no_tracebacks(log1)
        assert_no_tracebacks(log2)
        print("restart-smoke: clean shutdown, both logs traceback-free")
        return 0
    finally:
        if daemon.poll() is None:
            kill_group(daemon)


if __name__ == "__main__":
    sys.exit(main())
