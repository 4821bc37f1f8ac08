"""Property tests for the service wire format and coalescing key.

The serve API's whole correctness story hangs on one invariant chain:

    wire JSON ──decode──> RunSpec ──hash──> spec key ──prefix──> shard

* any two wire bodies that decode to equal ``RunSpec`` objects must map to
  the same spec hash, and so to the same shard (so they coalesce onto
  one execution and one cache entry);
* a decode → encode → decode round trip through *serialised* JSON must
  be the identity (so resubmitting a job record reuses the cache);
* the retired ``engine`` field must never enter the key: a body naming
  any of its old values decodes to the spec of a body naming none, so
  request bodies and job WALs from before its retirement still address
  the same cache entries.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runner import key_for_spec
from repro.serve import (
    WireError,
    spec_from_wire,
    spec_key,
    spec_to_wire,
)
from repro.serve.protocol import RETIRED_ENGINES

# small input sizes keep the (memoised) input digests cheap; two real
# benchmarks exercise distinct program digests
wire_bodies = st.fixed_dictionaries(
    {
        "benchmark": st.sampled_from(["adpcm_enc", "adpcm_dec"]),
        "n_samples": st.integers(min_value=1, max_value=48),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "predictor_spec": st.sampled_from(
            ["not-taken", "bimodal-2048", "bimodal-512-512",
             "gshare-2048-11"]),
    },
    optional={
        "with_asbr": st.booleans(),
        "bit_capacity": st.sampled_from([4, 8, 16, 32]),
        "bdt_update": st.sampled_from(["commit", "mem", "execute"]),
        "min_fold_fraction": st.floats(min_value=0.0, max_value=1.0,
                                       allow_nan=False),
        "min_count": st.integers(min_value=0, max_value=256),
        "engine": st.sampled_from(RETIRED_ENGINES),
        "frontend": st.booleans(),
        "btb_l1_entries": st.sampled_from([16, 64, 256]),
        "btb_l2_entries": st.sampled_from([512, 2048]),
        "btb_l2_assoc": st.sampled_from([2, 4]),
        "ftq_depth": st.integers(min_value=1, max_value=16),
        "fdip": st.booleans(),
    },
)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@given(body=wire_bodies)
@SETTINGS
def test_wire_round_trip_is_identity(body):
    spec = spec_from_wire(body)
    rewired = json.loads(json.dumps(spec_to_wire(spec)))
    again = spec_from_wire(rewired)
    assert again == spec


@given(body=wire_bodies)
@SETTINGS
def test_equal_specs_share_key_and_shard(body):
    spec = spec_from_wire(body)
    again = spec_from_wire(json.loads(json.dumps(spec_to_wire(spec))))
    assert spec_key(spec) == spec_key(again)


@given(body=wire_bodies)
@SETTINGS
def test_engine_never_enters_key_or_shard(body):
    """Each retired engine name, and no name, decode to one spec, one
    key and one shard."""
    body = {k: v for k, v in body.items() if k != "engine"}
    base = spec_from_wire(body)
    assert "engine" not in spec_to_wire(base)
    for name in RETIRED_ENGINES:
        spec = spec_from_wire(dict(body, engine=name))
        assert spec == base
        assert spec_key(spec) == spec_key(base)


@given(body=wire_bodies)
@SETTINGS
def test_frontend_knobs_enter_the_key(body):
    """Unlike the retired engine, every decoupled-frontend knob is part
    of the run's identity: flipping one must change the coalescing
    key."""
    pinned = dict(body, frontend=True, fdip=False,
                  btb_l1_entries=64, ftq_depth=8)
    base = spec_from_wire(pinned)
    for mutate in ({"frontend": False}, {"fdip": True},
                   {"btb_l1_entries": 16}, {"ftq_depth": 4}):
        other = spec_from_wire({**pinned, **mutate})
        assert spec_key(other) != spec_key(base), \
            "knob %r did not enter the key" % (mutate,)


@given(body=wire_bodies)
@SETTINGS
def test_spec_key_is_the_runner_cache_key(body):
    """The service must address the *existing* cache, not a parallel
    namespace: serve keys and runner keys are the same function."""
    spec = spec_from_wire(body)
    key = spec_key(spec)
    assert key == key_for_spec(spec)


# ----------------------------------------------------------------------
# strictness (example-based: hypothesis guards the happy path above)
# ----------------------------------------------------------------------
VALID = {"benchmark": "adpcm_enc", "n_samples": 64, "seed": 11,
         "predictor_spec": "not-taken"}


@pytest.mark.parametrize("mutate", [
    {"benchmark": "no-such-workload"},
    {"n_samples": 0},
    {"n_samples": True},
    {"n_samples": "64"},
    {"with_asbr": 1},
    {"min_fold_fraction": "0.5"},
    {"engine": "jit"},
    {"bdt_update": "fetch"},
    {"bogus_field": 1},
])
def test_bad_bodies_rejected(mutate):
    with pytest.raises(WireError):
        spec_from_wire(dict(VALID, **mutate))


@pytest.mark.parametrize("drop", ["benchmark", "n_samples", "seed",
                                  "predictor_spec"])
def test_missing_required_fields_rejected(drop):
    body = dict(VALID)
    del body[drop]
    with pytest.raises(WireError):
        spec_from_wire(body)


@pytest.mark.parametrize("body", [None, [], "spec", 7])
def test_non_object_spec_rejected(body):
    with pytest.raises(WireError):
        spec_from_wire(body)
