"""Load and coalescing tests against the live serve daemon.

Satellite contract for the PR: thousands of concurrent requests
through the *real* HTTP server (real sockets, ephemeral port) must

* sustain >= 1000 cached requests/s against a warm cache, and
* collapse N identical concurrent submissions of an *uncached* spec
  onto exactly one pool execution — observable through the
  ``ServeConfig.on_execute`` counter hook and the server's own
  ``executions`` counter.

The throughput bar is deliberately far below what the daemon does on
an idle box (~10k req/s) so the test stays robust on loaded CI
runners while still catching an accidental per-request execution or
cache stampede, either of which is orders of magnitude slower.
"""

import threading
import time

import pytest

from repro.serve import ServeConfig
from repro.serve.protocol import RETIRED_ENGINES

from tests.serve_utils import ServerThread, blast, http_payload, spec_wire

CONNECTIONS = 20
PER_CONNECTION = 150          # 3000 requests total
MIN_CACHED_RPS = 1000.0


@pytest.fixture
def server(tmp_path):
    config = ServeConfig(cache_dir=str(tmp_path / "cache"), shards=256,
                         workers=0)
    with ServerThread(config) as st:
        yield st


class TestWarmCacheThroughput:
    def test_cached_throughput_floor(self, server):
        client = server.client()
        warm = client.run(spec_wire())
        assert warm["ok"]
        assert warm["source"] == "executed"

        payload = http_payload("POST", "/run", spec_wire())
        t0 = time.monotonic()
        results = blast(server.port, payload, CONNECTIONS,
                        PER_CONNECTION)
        elapsed = time.monotonic() - t0

        assert len(results) == CONNECTIONS * PER_CONNECTION
        assert all(status == 200 for status, _ in results)
        assert all(body["ok"] for _, body in results)
        # warm path: every response comes from memory or disk, and the
        # answer is the one execution's answer
        cycles = {body["stats"]["cycles"]
                  for _, body in results}
        assert cycles == {warm["stats"]["cycles"]}
        assert {body["source"] for _, body in results} <= \
            {"memory", "disk"}

        rps = len(results) / elapsed
        assert rps >= MIN_CACHED_RPS, \
            "cached throughput %.0f req/s below %.0f req/s floor" \
            % (rps, MIN_CACHED_RPS)

        stats = client.stats()
        assert stats["counters"]["executions"] == 1
        client.close()

    def test_mixed_get_endpoints_stay_responsive(self, server):
        """Sanity: the hot path isn't special-cased to /run only."""
        client = server.client()
        client.run(spec_wire())
        for payload, check in [
            (http_payload("GET", "/healthz"),
             lambda b: b["ok"] is True),
            (http_payload("GET", "/stats"),
             lambda b: b["counters"]["executions"] == 1),
        ]:
            results = blast(server.port, payload, 8, 50)
            assert len(results) == 400
            assert all(status == 200 for status, _ in results)
            assert all(check(body) for _, body in results)
        client.close()


class TestCoalescing:
    N_CLIENTS = 24

    def test_identical_concurrent_submissions_execute_once(self,
                                                           tmp_path):
        """N clients race to submit the same uncached spec; the hook
        proves the pool ran it exactly once."""
        executed = []
        gate = threading.Event()

        def on_execute(spec):
            executed.append(spec)
            gate.wait(timeout=5.0)   # hold the leader so followers pile up

        config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                             shards=256, workers=0,
                             on_execute=on_execute)
        with ServerThread(config) as st:
            responses = []
            errors = []

            def submit():
                client = st.client()
                try:
                    responses.append(client.run(spec_wire()))
                except Exception as exc:   # pragma: no cover
                    errors.append(exc)
                finally:
                    client.close()

            threads = [threading.Thread(target=submit)
                       for _ in range(self.N_CLIENTS)]
            for t in threads:
                t.start()
            # wait until the leader is inside the execution, then give
            # the followers time to arrive and park on the future
            deadline = time.monotonic() + 5.0
            while not executed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert executed, "no execution started"
            time.sleep(0.3)
            gate.set()
            for t in threads:
                t.join(timeout=30)

            assert not errors
            assert len(responses) == self.N_CLIENTS
            assert len(executed) == 1, \
                "coalescing failed: %d executions" % len(executed)
            assert all(r["ok"] for r in responses)
            cycles = {r["stats"]["cycles"] for r in responses}
            assert len(cycles) == 1
            sources = {r["source"] for r in responses}
            assert "executed" in sources
            assert sources <= {"executed", "coalesced", "memory",
                               "disk"}

            client = st.client()
            stats = client.stats()
            assert stats["counters"]["executions"] == 1
            assert stats["counters"]["coalesced"] >= 1
            client.close()

    def test_engine_variants_coalesce_onto_one_key(self, tmp_path):
        """Every retired engine name, and a body naming none, shares
        one key, so only the first request executes."""
        config = ServeConfig(cache_dir=str(tmp_path / "cache"),
                             shards=256, workers=0)
        with ServerThread(config) as st:
            client = st.client()
            first = client.run(spec_wire())
            assert first["source"] == "executed"
            for engine in RETIRED_ENGINES:
                again = client.run(spec_wire(engine=engine))
                assert again["key"] == first["key"], engine
                assert again["source"] == "memory", engine
                assert again["stats"] == first["stats"], engine
            assert client.stats()["counters"]["executions"] == 1
            client.close()
