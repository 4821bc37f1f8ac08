"""Property tests for the strict JSON decoder (:mod:`repro.schema`).

Every outside input decodes through one decoder driven by dataclass
fields: ``RunSpec`` (serve bodies and job WALs), ``DesignPoint`` (DSE
journals), ``ConfigSpace`` (``--space`` files and inline ``/dse``
spaces) and the three serve body envelopes.  For each of them:

* an accepted object survives ``json.dumps`` -> decode unchanged;
* each kind of mistake — an unknown key, ``bool``<->``int``, a string
  for a number, a scalar for an array, a float for an int, ``NaN`` —
  raises :class:`SchemaError` whose path names the key.
"""

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.dse.space import ConfigSpace, DesignPoint
from repro.runner.pool import BACKENDS, BDT_UPDATES, RunSpec
from repro.schema import SchemaError, decode
from repro.serve.protocol import DseBody, RunBody, SweepBody

PREDICTORS = ["not-taken", "bimodal-2048", "bimodal-512-512",
              "gshare-2048-8"]
fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
deadlines = st.none() | st.floats(min_value=0.001, max_value=1e9)


def _tuples(elements, max_size=3):
    return st.lists(elements, min_size=1, max_size=max_size).map(tuple)


run_specs = st.builds(
    RunSpec,
    benchmark=st.sampled_from(["adpcm_enc", "huffman_dec"]),
    n_samples=st.integers(1, 10 ** 6),
    seed=st.integers(0, 2 ** 31 - 1),
    predictor_spec=st.sampled_from(PREDICTORS),
    with_asbr=st.booleans(),
    bit_capacity=st.integers(1, 64),
    bdt_update=st.sampled_from(BDT_UPDATES),
    min_fold_fraction=fractions,
    min_count=st.integers(0, 256),
    frontend=st.booleans(),
    btb_l1_entries=st.sampled_from([16, 64]),
    btb_l2_entries=st.sampled_from([512, 2048]),
    btb_l2_assoc=st.sampled_from([2, 4]),
    ftq_depth=st.integers(1, 16),
    fdip=st.booleans(),
    backend=st.sampled_from(BACKENDS),
    issue_width=st.integers(1, 4),
    rob_size=st.sampled_from([16, 32]),
    iq_size=st.sampled_from([8, 16]),
    phys_regs=st.sampled_from([48, 64]),
)

design_points = st.builds(
    DesignPoint,
    predictor_spec=st.sampled_from(PREDICTORS),
    with_asbr=st.booleans(),
    bit_capacity=st.integers(1, 64),
    bdt_update=st.sampled_from(BDT_UPDATES),
    min_fold_fraction=fractions,
    min_count=st.integers(0, 256),
    frontend=st.booleans(),
    btb_l1_entries=st.sampled_from([16, 64]),
    btb_l2_entries=st.sampled_from([512, 2048]),
    btb_l2_assoc=st.sampled_from([2, 4]),
    ftq_depth=st.integers(1, 16),
    fdip=st.booleans(),
    backend=st.sampled_from(BACKENDS),
    issue_width=st.integers(1, 4),
    rob_size=st.sampled_from([16, 32]),
    iq_size=st.sampled_from([8, 16]),
    phys_regs=st.sampled_from([48, 64]),
)

config_spaces = st.builds(
    ConfigSpace,
    predictors=_tuples(st.sampled_from(PREDICTORS)),
    asbr=_tuples(st.booleans(), 2),
    bit_capacities=_tuples(st.integers(1, 64)),
    bdt_updates=_tuples(st.sampled_from(BDT_UPDATES)),
    min_fold_fractions=_tuples(fractions),
    min_counts=_tuples(st.integers(0, 256)),
    frontends=_tuples(st.booleans(), 2),
    ftq_depths=_tuples(st.integers(1, 16)),
    fdip=_tuples(st.booleans(), 2),
    backends=_tuples(st.sampled_from(BACKENDS), 2),
    issue_widths=_tuples(st.integers(1, 4)),
)

OBJECTS = {
    RunSpec: run_specs,
    DesignPoint: design_points,
    ConfigSpace: config_spaces,
    RunBody: st.builds(RunBody, spec=run_specs, metrics=st.booleans(),
                       deadline_ms=deadlines),
    SweepBody: st.builds(SweepBody, specs=_tuples(run_specs),
                         metrics=st.booleans(), deadline_ms=deadlines),
    DseBody: st.builds(
        DseBody,
        space=st.sampled_from(["paper", "default"]) | config_spaces,
        benchmark=st.sampled_from(["adpcm_enc", "g721_dec"]),
        n_samples=st.integers(1, 10 ** 6),
        seed=st.integers(0, 2 ** 31 - 1),
        n_points=st.none() | st.integers(1, 50),
        metrics=st.booleans(), deadline_ms=deadlines),
}

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def to_json(obj) -> str:
    return json.dumps(dataclasses.asdict(obj))


@pytest.mark.parametrize("cls", list(OBJECTS), ids=lambda c: c.__name__)
@given(data=st.data())
@SETTINGS
def test_round_trip_is_identity(cls, data):
    obj = data.draw(OBJECTS[cls])
    assert decode(cls, json.loads(to_json(obj))) == obj


# ----------------------------------------------------------------------
# mutations
# ----------------------------------------------------------------------
def _arms(tp):
    """The non-None types a hint admits."""
    if typing.get_origin(tp) is typing.Union:
        return [a for a in typing.get_args(tp) if a is not type(None)]
    return [tp]


def _leaves(cls, wire, prefix=""):
    """``(path, container, key, hint)`` for every value in ``wire``."""
    hints = typing.get_type_hints(cls)
    for name, value in wire.items():
        yield from _walk(hints[name], value, wire, name, prefix + name)


def _walk(hint, value, container, key, path):
    yield path, container, key, hint
    for arm in _arms(hint):
        if dataclasses.is_dataclass(arm) and isinstance(value, dict):
            yield from _leaves(arm, value, path + ".")
        elif typing.get_origin(arm) is tuple:
            item = typing.get_args(arm)[0]
            for i, elem in enumerate(value):
                yield from _walk(item, elem, value, i, "%s[%d]" % (path, i))


def _objects(cls, wire, prefix=""):
    """``(path prefix, dict)`` for every JSON object in ``wire``."""
    yield prefix, wire
    for path, container, key, hint in _leaves(cls, wire, prefix):
        if isinstance(container[key], dict):
            yield path + ".", container[key]


def _hints(cls):
    """Every field type hint reachable from ``cls``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        yield from _reach(hints[f.name])


def _reach(hint):
    yield hint
    for arm in _arms(hint):
        if dataclasses.is_dataclass(arm):
            yield from _hints(arm)
        elif typing.get_origin(arm) is tuple:
            yield from _reach(typing.get_args(arm)[0])


def _is(hint, *types) -> bool:
    return any(arm in types for arm in _arms(hint))


def _is_tuple(hint) -> bool:
    return any(typing.get_origin(arm) is tuple for arm in _arms(hint))


#: kind -> (which hints it applies to, the wrong value it writes)
MUTATIONS = {
    "bool_for_int": (lambda h: _is(h, int), lambda v: True),
    "int_for_bool": (lambda h: _is(h, bool), lambda v: 1),
    "string_for_number": (lambda h: _is(h, int, float), lambda v: "7"),
    "scalar_for_array": (
        _is_tuple,
        lambda v: v[0] if v and not isinstance(v[0], dict) else 7),
    "float_for_int": (lambda h: _is(h, int),
                      lambda v: float(v) if isinstance(v, int) else 4.0),
    "nan": (lambda h: _is(h, float), lambda v: math.nan),
}

#: every class with an unknown key, and every (class, kind) where the
#: class has a field the kind applies to (``RunSpec`` has no array)
CASES = [pytest.param(cls, kind, id="%s-%s" % (cls.__name__, kind))
         for cls in OBJECTS
         for kind in ["unknown_key"] + [
             kind for kind, (applies, _) in MUTATIONS.items()
             if any(map(applies, _hints(cls)))]]


@pytest.mark.parametrize("cls, kind", CASES)
@given(data=st.data())
@SETTINGS
def test_mutation_names_the_key(cls, kind, data):
    wire = json.loads(to_json(data.draw(OBJECTS[cls])))
    if kind == "unknown_key":
        prefix, target = data.draw(st.sampled_from(
            list(_objects(cls, wire))))
        target["zz_unknown"] = 1
        path = prefix + "zz_unknown"
    else:
        applies, wrong = MUTATIONS[kind]
        sites = [site for site in _leaves(cls, wire) if applies(site[3])]
        assume(sites)
        path, container, key, _hint = data.draw(st.sampled_from(sites))
        container[key] = wrong(container[key])
    raw = json.dumps(wire)            # NaN travels as the bare token
    with pytest.raises(SchemaError) as info:
        decode(cls, json.loads(raw))
    assert info.value.path == path
    assert str(info.value).startswith(path + ": ")


# ----------------------------------------------------------------------
# examples
# ----------------------------------------------------------------------
SPEC = {"benchmark": "adpcm_enc", "n_samples": 64, "seed": 11,
        "predictor_spec": "not-taken"}


def test_path_reaches_into_lists_of_objects():
    specs = [SPEC, SPEC, dict(SPEC, bit_capacity=4.0)]
    with pytest.raises(SchemaError,
                       match=r"^specs\[2\]\.bit_capacity: must be an "
                             r"integer, got 4\.0$"):
        decode(SweepBody, {"specs": specs})


def test_missing_required_key_is_named():
    body = {k: v for k, v in SPEC.items() if k != "seed"}
    with pytest.raises(SchemaError, match=r"^spec\.seed: required"):
        decode(RunBody, {"spec": body})


def test_value_checks_name_the_key():
    """``__post_init__`` checks (names, ranges) report their key path
    too, at any depth."""
    with pytest.raises(SchemaError, match=r"^specs\[0\]\.bdt_update: "):
        decode(SweepBody, {"specs": [dict(SPEC, bdt_update="fetch")]})
    with pytest.raises(SchemaError,
                       match=r"^space\.bdt_updates\[1\]: unknown value"):
        decode(DseBody, {"space": {"bdt_updates": ["mem", "fetch"]}})


def test_integer_past_float_range_is_not_finite():
    with pytest.raises(SchemaError, match="finite"):
        decode(RunSpec, dict(SPEC, min_fold_fraction=10 ** 400))


def test_integral_number_for_float_becomes_float():
    """JSON has one number type: ``1`` for a float field decodes to
    ``1.0``, so it keys like the float it means."""
    spec = decode(RunSpec, dict(SPEC, min_fold_fraction=1))
    assert type(spec.min_fold_fraction) is float
    assert spec == decode(RunSpec, dict(SPEC, min_fold_fraction=1.0))


def test_retired_key_is_dropped_only_with_a_retired_value():
    nested = decode(SweepBody, {"specs": [dict(SPEC, engine="blocks")]})
    assert nested.specs == (decode(RunSpec, SPEC),)
    with pytest.raises(SchemaError, match=r"^specs\[0\]\.engine: "):
        decode(SweepBody, {"specs": [dict(SPEC, engine="jit")]})


def test_checkers_are_built_once_per_class(monkeypatch):
    decode(RunSpec, SPEC)
    calls = []
    monkeypatch.setattr(typing, "get_type_hints",
                        lambda *a, **k: calls.append(a))
    for _ in range(3):
        decode(RunSpec, SPEC)
    assert calls == []
