"""Uniform result record for identity and certificate checks.

A check gives one IdentityReport.  An exact sweep gives one ReportBlock per
orbit X instead: the pass flags and witnesses of every record at that X,
whose IdentityReports are built only when the block is iterated, and whose
JSON lines are written from one template per block with each varying
param's values encoded once per sweep.  Both write the same bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product, starmap
from json.encoder import encode_basestring_ascii
from math import prod
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

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


class ParamValues(tuple):
    """The values one varying param takes across a block, with their JSON
    texts encoded on first use; a sweep passes the same instance to every
    block, so each value is encoded once per sweep."""

    @cached_property
    def json(self) -> list[str]:
        return [_value_json(value) for value in self]


@dataclass(eq=False)
class ReportBlock:
    """The records of one check at every combination of its varying params.

    The records run over the product of `axes` in order, the last axis
    fastest; record i has params `shared` plus `keys` zipped with its axis
    values, passed flag `passed.flat[i]` and witness `witnesses.get(i)`.
    Iterating the block builds its IdentityReports one at a time.
    """

    name: str
    exact: bool
    shared: dict
    keys: tuple[str, ...]
    axes: tuple[Sequence, ...]
    passed: np.ndarray  # bool, shape (len(axis) for axis in axes)
    witnesses: dict[int, dict]  # flat record index -> witness, for failed records

    def __post_init__(self):
        self.axes = tuple(axis if type(axis) is ParamValues else ParamValues(axis) for axis in self.axes)

    def __iter__(self) -> Iterator[IdentityReport]:
        for i, (values, ok) in enumerate(zip(product(*self.axes), self.passed.ravel().tolist())):
            yield self._report(i, values, ok)

    def _report(self, i: int, values: Sequence, passed: bool) -> IdentityReport:
        params = {**self.shared, **dict(zip(self.keys, values))}
        return IdentityReport(self.name, params, self.exact, passed, self.witnesses.get(i))

    def json_chunks(self) -> Iterator[str]:
        """The records' JSON lines, each ending in a newline, as
        IdentityReport.to_json writes them.

        One string per group of records that share every varying param but
        the last two, so a group holds the whole block when there are at
        most two.  A passing record's line is the block's template line
        with its values' texts put in; a failing record's line is its
        IdentityReport's to_json.
        """
        # stand-ins for the varying values: private-use characters whose
        # escaped form appears nowhere else in the line
        probe = IdentityReport(self.name, {**self.shared, **dict.fromkeys(self.keys)}, self.exact, True).to_json()
        free = (c for c in map(chr, range(0xE000, 0xF900)) if _ENCODER.encode(c)[1:-1] not in probe)
        slots = dict(zip(self.keys, free))
        template = IdentityReport(self.name, {**self.shared, **slots}, self.exact, True).to_json()
        template = template.replace("{", "{{").replace("}", "}}")
        for i, slot in enumerate(slots.values()):
            template = template.replace(_ENCODER.encode(slot), f"{{{i}}}")
        line = (template + "\n").format
        texts = [axis.json for axis in self.axes]
        outer, inner = texts[:-2], texts[-2:]
        passed = self.passed.reshape(prod(map(len, outer)), prod(map(len, inner)))
        for g, (head, group_passed) in enumerate(zip(product(*outer), passed.all(axis=1).tolist())):
            lines = starmap(line, product(*([text] for text in head), *inner))
            if not group_passed:
                lines = list(lines)
                for i in np.flatnonzero(~passed[g]).tolist():
                    index = g * passed.shape[1] + i
                    at = np.unravel_index(index, self.passed.shape)
                    values = [axis[k] for axis, k in zip(self.axes, at)]
                    lines[i] = self._report(index, values, False).to_json() + "\n"
            yield "".join(lines)
