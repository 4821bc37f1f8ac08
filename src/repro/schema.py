"""Strict decoding of outside JSON into frozen dataclasses.

:func:`decode` reads the target dataclass's fields and type hints, so
the accepted shape cannot drift from the class.  Every key must name a
field and every field without a default must be present.  ``bool``
takes only ``true``/``false``, ``int`` only integers (not ``true``, not
``4.0``), ``float`` any finite number, stored as a ``float`` (``NaN``
and ``Infinity``, which :mod:`json` parses, are rejected), ``str`` a
string, ``Tuple[X, ...]`` an array, a dataclass an object, and a
``Union`` the arm whose JSON type the value has.  ``__post_init__``
then checks values.  A violation raises :class:`SchemaError` naming
the key path (``specs[2].bit_capacity``).  A class's ``RETIRED_KEYS``
maps keys it no longer has to the values they took; decoding drops
those.  Checkers are built once per class and process, since
:func:`typing.get_type_hints` costs about a cached serve request.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from typing import Dict


class SchemaError(ValueError):
    """A value that does not fit its schema; ``path`` says where."""

    def __init__(self, reason: str, path: str = "") -> None:
        super().__init__("%s: %s" % (path, reason) if path else reason)
        self.reason = reason
        self.path = path

    def under(self, key) -> "SchemaError":
        """This error as seen from the object or array holding ``key``."""
        step = "[%d]" % key if isinstance(key, int) else key
        dot = "." if self.path and not self.path.startswith("[") else ""
        return SchemaError(self.reason, step + dot + self.path)


_KINDS = {str: "a string", list: "an array", tuple: "an array",
          dict: "an object"}


def _got(value) -> str:
    return _KINDS.get(type(value)) or json.dumps(value, default=repr)[:24]


def _finite(value) -> float:
    try:
        number = float(value)
    except OverflowError:         # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError("must be a finite number, got %s" % _got(value))
    return number


#: type hint -> (accepted JSON-decoded types, their name, converter)
_SCALARS = {bool: ((bool,), "a boolean", None),
            int: ((int,), "an integer", None),
            float: ((int, float), "a number", _finite),
            str: ((str,), "a string", None),
            type(None): ((type(None),), "null", None)}


def _apply(check, value):
    types, name, convert = check
    if type(value) not in types:
        raise SchemaError("must be %s, got %s" % (name, _got(value)))
    return value if convert is None else convert(value)


def _items(check, values) -> tuple:
    out = []
    for i, value in enumerate(values):
        try:
            out.append(_apply(check, value))
        except SchemaError as exc:
            raise exc.under(i) from None
    return tuple(out)


def _check_for(hint):
    if hint in _SCALARS:
        return _SCALARS[hint]
    if dataclasses.is_dataclass(hint):
        return (dict,), "an object", lambda value: decode(hint, value)
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,):
        item = _check_for(args[0])
        return (list, tuple), "an array", lambda v: _items(item, v)
    if typing.get_origin(hint) is typing.Union:
        arms = [_check_for(arg) for arg in args]
        by_type = {t: arm for arm in reversed(arms) for t in arm[0]}
        return (tuple(by_type), " or ".join(arm[1] for arm in arms),
                lambda value: _apply(by_type[type(value)], value))
    raise TypeError("no JSON form for type hint %r" % (hint,))


#: class -> (field name -> check, required field names)
_PLANS: Dict[type, tuple] = {}


def _plan(cls) -> tuple:
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return ({f.name: _check_for(hints[f.name]) for f in fields},
            [f.name for f in fields if f.default is dataclasses.MISSING
             and f.default_factory is dataclasses.MISSING])


def decode(cls, obj):
    """Decode the JSON value ``obj`` into a ``cls`` instance."""
    plan = _PLANS.get(cls) or _PLANS.setdefault(cls, _plan(cls))
    checks, required = plan
    if type(obj) is not dict:
        raise SchemaError("must be an object, got %s" % _got(obj))
    kwargs = {}
    for key, value in obj.items():
        check = checks.get(key)
        if check is None:
            retired = getattr(cls, "RETIRED_KEYS", {}).get(key, ())
            if value in retired:
                continue
            raise SchemaError(
                "retired key, accepted only as one of: " + ", ".join(retired)
                if retired else "unknown key (expected one of: %s)"
                % ", ".join(sorted(checks)), key)
        try:
            kwargs[key] = _apply(check, value)
        except SchemaError as exc:
            raise exc.under(key) from None
    for name in required:
        if name not in kwargs:
            raise SchemaError("required key is missing", name)
    return cls(**kwargs)
