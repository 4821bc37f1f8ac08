"""CI serve-smoke gate: one daemon lifetime, end to end.

Boots the real daemon as a subprocess (``repro serve`` on an ephemeral
port), then walks the contract the service makes:

1. a sweep submitted twice is 100% cached the second time;
2. a pool worker SIGKILLed mid-sweep degrades to a ``failed`` job
   record — the daemon keeps serving and the kill is visible in the
   failed-job count;
3. a body with a misspelt key is a 400 that names the key;
4. ``POST /shutdown`` exits cleanly: status 0 and **zero tracebacks**
   anywhere in the daemon log.

Run as a plain script::

    PYTHONPATH=src python benchmarks/serve_smoke.py

Exit status 0 = pass.  Kept out of the pytest tiers on purpose — the
in-process serve suites (tests/test_serve_*.py) cover correctness;
this proves the shipped CLI entrypoint and process lifecycle.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

from repro.serve import ServeClient

SPECS = [{"benchmark": "adpcm_enc", "n_samples": 64, "seed": 11 + i,
          "predictor_spec": "not-taken"} for i in range(4)]

# big enough that each run takes real time, so the kill lands mid-task
SLOW_SPECS = [{"benchmark": "adpcm_enc", "n_samples": 8000,
               "seed": 100 + i, "predictor_spec": "bimodal-512-512"}
              for i in range(6)]


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


def kill_one_worker(client: ServeClient, timeout: float = 30.0) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pids = client.stats()["worker_pids"]
        if pids:
            os.kill(pids[0], signal.SIGKILL)
            return pids[0]
        time.sleep(0.05)
    raise TimeoutError("no pool workers appeared to kill")


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve-smoke-")
    log_path = os.path.join(tmp, "daemon.log")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--cache-dir", os.path.join(tmp, "cache"),
         "--workers", "2", "--task-timeout", "6", "--retries", "0",
         "--shards", "256"],
        stderr=open(log_path, "w"), stdout=subprocess.DEVNULL)
    try:
        port = wait_for_port(log_path)
        client = ServeClient(port=port, timeout=120.0)
        assert client.healthz()["ok"] is True

        # 1. sweep twice: the second pass must be 100% cached
        cold = client.wait_job(client.sweep(SPECS)["id"])
        assert cold["state"] == "done", cold
        assert cold["n_done"] == len(SPECS)
        warm = client.wait_job(client.sweep(SPECS)["id"])
        assert warm["state"] == "done", warm
        assert warm["n_cached"] == warm["n_total"] == len(SPECS), warm
        print("smoke: warm sweep 100%% cached (%d/%d)"
              % (warm["n_cached"], warm["n_total"]))

        # 2. SIGKILL a pool worker mid-sweep: failed job record, daemon
        #    keeps serving
        chaos = client.sweep(SLOW_SPECS)
        pid = kill_one_worker(client)
        chaos = client.wait_job(chaos["id"], timeout=300)
        assert chaos["state"] == "failed", chaos
        assert chaos["n_failed"] >= 1, chaos
        print("smoke: killed worker %d -> job %s failed (%d/%d specs)"
              % (pid, chaos["id"], chaos["n_failed"], chaos["n_total"]))
        assert client.healthz()["ok"] is True
        stats = client.stats()
        assert stats["jobs"]["failed"] >= 1, stats

        # 3. strict bodies: a misspelt /dse key is a 400 naming it,
        #    not a run of the whole paper space
        status, body = client.request("POST", "/dse", {"n_point": 1},
                                      retry=False)
        assert status == 400 and body["error"].startswith("n_point: "), \
            (status, body)
        print("smoke: /dse {\"n_point\": 1} -> 400 %s" % body["error"])

        # 4. clean shutdown: exit 0, no tracebacks in the log
        client.shutdown()
        code = daemon.wait(timeout=30)
        assert code == 0, "daemon exited %r" % code
        log_text = open(log_path).read()
        assert "Traceback" not in log_text, \
            "daemon log contains a traceback:\n" + log_text
        print("smoke: clean shutdown, log traceback-free")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


if __name__ == "__main__":
    sys.exit(main())
