"""Wire format of the simulation service.

One rule governs the whole API: **the wire identity of a run is the
runner's existing content-addressed cache key** (:func:`repro.runner.
key_for_spec`).  Two submissions whose JSON bodies decode to equal
:class:`~repro.runner.RunSpec`\\ s therefore share a spec hash, a cache
shard, an in-flight coalescing slot and one simulation.
``tests/test_serve_protocol.py`` locks this with hypothesis at the API
boundary.

Bodies decode strictly (:mod:`repro.schema`) from the fields of
:class:`~repro.runner.RunSpec` and of the three envelopes below: an
unknown or missing key, a mistyped value or a non-finite number is a
:class:`WireError` (HTTP 400) naming the key path — a service
accepting sweeps from many tenants must not silently coerce one
tenant's typo into another tenant's cache entry.  Three leniencies are
kept: a bare spec is a ``/run`` body; a spec may carry the retired
``engine`` key with one of :data:`RETIRED_ENGINES`, which is dropped,
so bodies and job WALs written before then decode to the spec they
named; an inline ``/dse`` space may omit dimensions, which default.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.dse.space import SPACES, ConfigSpace
from repro.runner import RunSpec, key_for_spec, shard_of
from repro.schema import SchemaError, decode

#: every value the retired ``engine`` spec key took
RETIRED_ENGINES = RunSpec.RETIRED_KEYS["engine"]

#: a malformed request body (HTTP 400, message safe to echo)
WireError = SchemaError


def _check_deadline(deadline_ms: Optional[float]) -> None:
    # request-level, never in the spec: tenants with different
    # patience share one cache entry
    if deadline_ms is not None and deadline_ms <= 0:
        raise WireError("must be a positive number of milliseconds",
                        "deadline_ms")


@dataclass(frozen=True)
class RunBody:
    """``POST /run``: one spec, answered synchronously."""

    spec: RunSpec
    metrics: bool = False
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        _check_deadline(self.deadline_ms)


@dataclass(frozen=True)
class SweepBody:
    """``POST /sweep``: a spec list, run as one job."""

    specs: Tuple[RunSpec, ...]
    metrics: bool = False
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.specs:
            raise WireError("must be a non-empty array", "specs")
        _check_deadline(self.deadline_ms)


@dataclass(frozen=True)
class DseBody:
    """``POST /dse``: a sweep over a design space on one input.

    ``space`` is a preset *name* or an inline space object, never a
    server-side file path.  ``n_points`` samples that many points
    (seeded by ``seed``) instead of the whole grid.
    """

    space: Union[str, ConfigSpace] = "paper"
    benchmark: str = "adpcm_enc"
    n_samples: int = 600
    seed: int = 20010618
    n_points: Optional[int] = None
    metrics: bool = False
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.space, str) and self.space not in SPACES:
            raise WireError("must be %s or an inline space object"
                            % " or ".join(map(repr, sorted(SPACES))),
                            "space")
        if self.n_points is not None and self.n_points <= 0:
            raise WireError("must be a positive integer", "n_points")
        _check_deadline(self.deadline_ms)


def parse_body(body: bytes) -> dict:
    """A request body's JSON object (empty is ``{}``), else a
    :class:`WireError`: bytes that are not UTF-8 JSON included."""
    try:
        obj = json.loads(body or b"{}")
    except (ValueError, RecursionError) as exc:
        raise WireError("bad JSON: %s" % exc) from None
    if not isinstance(obj, dict):
        raise WireError("body must be a JSON object")
    return obj


def spec_to_wire(spec: RunSpec) -> dict:
    """JSON-ready dict carrying every RunSpec field."""
    return dataclasses.asdict(spec)


def spec_from_wire(obj) -> RunSpec:
    """Decode and validate one spec object (a body or a WAL record)."""
    return decode(RunSpec, obj)


def spec_key(spec: RunSpec) -> str:
    """The service's coalescing/cache key — the runner's, verbatim."""
    return key_for_spec(spec)


def shard_path(spec: RunSpec, shards: int) -> str:
    """``"<shard>/<key>.json"`` relative entry path under a cache root."""
    key = spec_key(spec)
    prefix = shard_of(key, shards)
    name = key + ".json"
    return prefix + "/" + name if prefix else name
