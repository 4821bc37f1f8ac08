"""Request bodies on the live daemon: strict, and a 400 for every mistake.

The ``/run``, ``/sweep`` and ``/dse`` bodies decode through one strict
decoder (:mod:`repro.schema`).  These tests send raw request bytes, so
what Python's :mod:`json` accepts and an HTTP client would never
produce (``NaN``, ``Infinity``, bytes that are not UTF-8) reaches the
daemon as it would from any tenant.  Every rejection is a 400 that
names the key, queues nothing and does not count as a daemon error;
``/dse`` also gets its first success test.
"""

import http.client
import json

import pytest

from repro.dse import ConfigSpace
from repro.serve import ServeConfig

from tests.serve_utils import SPEC, ServerThread

INLINE_SPACE = {"predictors": ["not-taken", "bimodal-512-512"],
                "asbr": [False, True], "bdt_updates": ["mem", "execute"]}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve-bodies")
    config = ServeConfig(cache_dir=str(tmp / "cache"), shards=16,
                         workers=0)
    with ServerThread(config) as st:
        yield st


def post_raw(port: int, path: str, body: bytes):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def spec_bytes(**extra) -> bytes:
    return json.dumps(dict(SPEC, **extra)).encode()


def case(path, body, key, name):
    return pytest.param(path, body, key, id=name)


@pytest.mark.parametrize("path, body, key", [
    # NaN once settled every spec of the job as a hung worker, and
    # Infinity each one as an OverflowError
    case("/sweep", b'{"specs": [%s], "deadline_ms": NaN}' % spec_bytes(),
         "deadline_ms", "sweep-deadline-nan"),
    case("/sweep", b'{"specs": [%s], "deadline_ms": Infinity}'
         % spec_bytes(), "deadline_ms", "sweep-deadline-inf"),
    case("/run", b'{"spec": %s, "deadline_ms": -Infinity}'
         % spec_bytes(), "deadline_ms", "run-deadline-neg-inf"),
    # nan != nan: a NaN knob broke spec equality and job dedupe
    case("/run", b'{"spec": {"min_fold_fraction": NaN, "benchmark": '
         b'"adpcm_enc", "n_samples": 64, "seed": 11, "predictor_spec": '
         b'"not-taken"}}', "spec.min_fold_fraction", "run-fraction-nan"),
    case("/sweep", b'{"specs": [%s, {"min_fold_fraction": Infinity}]}'
         % spec_bytes(), "specs[1].min_fold_fraction",
         "sweep-fraction-inf"),
    case("/dse", b'{"n_points": 2, "deadline_ms": NaN}', "deadline_ms",
         "dse-deadline-nan"),
    # keys the server never read, and mistyped dimensions
    case("/dse", b'{"n_point": 2}', "n_point", "dse-n_point"),
    case("/dse", b'{"samples": 600}', "samples", "dse-samples"),
    case("/dse", b'{"search": "random"}', "search", "dse-search"),
    case("/dse", b'{"space": {"predictors": "not-taken"}}',
         "space.predictors", "dse-predictors-scalar"),
    case("/dse", b'{"space": {"asbr": ["no"]}}', "space.asbr[0]",
         "dse-asbr-string"),
    case("/dse", b'{"space": {"bit_capacities": [4.0]}}',
         "space.bit_capacities[0]", "dse-capacity-float"),
    case("/dse", b'{"space": {"frontend": [true]}}', "space.frontend",
         "dse-field-name-for-dimension"),
    case("/dse", b'{"space": "paper.json"}', "space", "dse-space-path"),
    # a machine shape is checked as the grid is built: once a 500
    case("/dse", b'{"space": {"frontends": [true], "btb_l2_assocs": [3]}}',
         "space", "dse-frontend-shape"),
    case("/dse", b'{"benchmark": "nope", "n_points": 1}', "benchmark",
         "dse-benchmark"),
    case("/dse", b'{"metrics": "false"}', "metrics", "dse-metrics"),
    case("/sweep", b'{"specs": [%s], "metrics": 1}' % spec_bytes(),
         "metrics", "sweep-metrics"),
    case("/run", b'{"spec": %s, "metrics": "false"}' % spec_bytes(),
         "metrics", "run-metrics"),
    # the undocumented "run" alias for "spec" is gone
    case("/run", b'{"run": %s}' % spec_bytes(), "run", "run-alias"),
])
def test_bad_body_is_a_400_naming_the_key(server, path, body, key):
    with server.client() as client:
        before = client.stats()["counters"]
        status, answer = post_raw(server.port, path, body)
        assert status == 400, answer
        assert answer["error"].startswith(key + ": "), answer
        after = client.stats()["counters"]
    assert after["jobs_submitted"] == before["jobs_submitted"]
    assert after["executions"] == before["executions"]
    assert after["errors"] == before["errors"] == 0


@pytest.mark.parametrize("path", ["/run", "/sweep", "/dse"])
@pytest.mark.parametrize("body", [
    pytest.param(b'{"spec": "\xff"}', id="not-utf8"),
    pytest.param(b"[" * 100000, id="too-deep")])
def test_unparseable_body_is_a_400_not_a_daemon_error(server, path,
                                                      body):
    status, answer = post_raw(server.port, path, body)
    assert status == 400, answer
    assert answer["error"].startswith("bad JSON: ")
    with server.client() as client:
        assert client.stats()["counters"]["errors"] == 0


def test_dse_inline_space_with_n_points_runs(server):
    with server.client() as client:
        job = client.dse(space=INLINE_SPACE, n_points=3, n_samples=48,
                         seed=5)
        done = client.wait_job(job["id"], timeout=120)
    assert done["state"] == "done", done
    assert done["n_total"] == done["n_done"] == 3
    space = ConfigSpace.from_dict(INLINE_SPACE)
    assert done["meta"]["space_digest"] == space.digest()
    assert done["meta"]["points"] == [p.key()
                                      for p in space.sample(3, 5)]
    assert all(rec["ok"] for rec in done["results"])
