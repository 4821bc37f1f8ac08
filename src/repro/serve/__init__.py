"""Simulation-as-a-service: a long-lived asyncio batch daemon.

The paper's evaluation — and everything this repo has grown around it
(differential sweeps, DSE, fault campaigns) — is a large batch of
simulator runs over configs and workloads.  PRs 1–5 built the back
half of a service: a content-addressed checksummed result cache, a
crash-tolerant worker pool and mergeable telemetry.  This package is
the front half:

* :mod:`~repro.serve.protocol` — the JSON wire format; a request's
  identity is the runner's existing spec hash;
* :mod:`~repro.serve.jobs` — job records with streamable per-spec
  progress events and honest terminal states (``done``/``failed``);
* :mod:`~repro.serve.server` — the asyncio daemon: ``/run`` with
  in-flight coalescing over a hot in-memory LRU and the shared disk
  cache, ``/sweep`` and ``/dse`` batch jobs over the hardened pool,
  chunked-JSONL event streams, graceful drain on shutdown;
* :mod:`~repro.serve.client` — a dependency-free synchronous client
  with capped-exponential-backoff retries (safe: the service is
  idempotent under the cache/coalescing key).

PR 9 makes the daemon itself expendable: with ``--state-dir`` every
job owns a fsync'd write-ahead log that a restart replays (settled
specs keep their outcome, pending specs re-enter the pool and resolve
from the result cache), admission control sheds with 429/503 +
``Retry-After`` instead of queueing unboundedly, and a request's
``deadline_ms`` flows end to end into journaled ``fail_kind=
"deadline"`` records.

Entry points: ``repro serve`` (CLI), :func:`run_server` (embedding),
:class:`ServeClient` (scripting).  Load and failure behaviour are
locked by ``tests/test_serve_load.py`` and ``tests/test_serve_chaos.py``
plus the CI serve-smoke steps; durability and admission by
``tests/test_serve_durability.py`` and ``tests/test_serve_admission.py``.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import Job, JobStore
from repro.serve.protocol import (
    WireError,
    spec_from_wire,
    spec_key,
    spec_to_wire,
)
from repro.serve.server import ServeConfig, Server, Shed, run_server

__all__ = [
    "Job",
    "JobStore",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "Server",
    "Shed",
    "WireError",
    "run_server",
    "spec_from_wire",
    "spec_key",
    "spec_to_wire",
]
