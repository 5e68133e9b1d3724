"""Uniform result record for identity and certificate checks."""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Any, NamedTuple

from .orbits import OrbitRep


def _encode(obj: Any) -> Any:
    """JSON form of the domain objects json cannot encode: orbits and complex numbers."""
    if isinstance(obj, OrbitRep):
        return {"n": obj.n, "entries": list(obj.entries)}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# the encoder json.dumps(..., separators=(",", ":"), sort_keys=True, default=_encode) builds per call
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True, default=_encode)


@lru_cache(maxsize=4096)
def _orbit_json(rep: OrbitRep) -> str:
    # keyed by equality, which holds for the int entries every constructor in symchar makes
    return _ENCODER.encode(_encode(rep))


def _value_json(value: Any) -> str:
    """value as the encoder writes it: an int through int.__repr__, which the
    encoder calls too, an orbit from the memo, true, false and null as
    literals, and anything else through the encoder itself."""
    if type(value) is int:
        return int.__repr__(value)
    if type(value) is OrbitRep:
        return _orbit_json(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return _ENCODER.encode(value)


def _fields_json(fields: Any) -> str:
    """JSON of a params, witness or info dict, built key by key in sorted order."""
    if type(fields) is not dict:
        return _ENCODER.encode(fields)
    parts = []
    for key in sorted(fields):
        if type(key) is str:  # the encoder writes a str key as it writes a str value
            text = encode_basestring_ascii(key)
        else:  # int, float, bool and None keys become strings the encoder's way
            text = _ENCODER.encode({key: None})[1:-6]  # '{"1":null}' -> '"1"'
        parts.append(text + ":" + _value_json(fields[key]))
    return "{" + ",".join(parts) + "}"


class _ReportFields(NamedTuple):
    name: str
    params: dict
    exact: bool
    passed: bool
    witness: dict | None
    info: dict | None


class IdentityReport(_ReportFields):
    """Outcome of one verification.

    exact=True means the comparison was integer/counts-level; False means
    it used a numeric tolerance.  witness carries the failing instance
    when passed is False.  params defaults to a new empty dict.

    An immutable named tuple: a sweep builds one per check, and a frozen
    dataclass costs about three times as much to build, through one
    object.__setattr__ per field.
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        params: dict | None = None,
        exact: bool = True,
        passed: bool = True,
        witness: dict | None = None,
        info: dict | None = None,
    ):
        return tuple.__new__(cls, (name, {} if params is None else params, exact, passed, witness, info))

    def to_json(self) -> str:
        """One JSON line, equal byte for byte to

            json.dumps(record, separators=(",", ":"), sort_keys=True, default=_encode)

        of the dict {"check", "exact", "info", "params", "passed",
        "witness"} (info and witness only when not None).  The record is
        written key by key in that sorted order, and params, witness and
        info one level down the same way: each key as the encoder writes it,
        an int through int.__repr__ (what the encoder calls), an orbit from
        a memo of its encoded form, and every other value through the same
        encoder.  Within one dict json sorts items by key, as sorted() does.
        """
        parts = ['{"check":', _value_json(self.name), ',"exact":', _value_json(self.exact)]
        if self.info is not None:
            parts += [',"info":', _fields_json(self.info)]
        parts += [',"params":', _fields_json(self.params), ',"passed":', _value_json(self.passed)]
        if self.witness is not None:
            parts += [',"witness":', _fields_json(self.witness)]
        parts.append("}")
        return "".join(parts)
