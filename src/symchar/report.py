"""Uniform result record for identity and certificate checks.

A check gives one IdentityReport.  An exact sweep gives one ReportBlock per
orbit X instead: the pass flags and witnesses of every record at that X,
whose IdentityReports are built only when the block is iterated, and whose
JSON lines are written from one template per block with each varying
param's values encoded once per sweep.  Both write the same bytes, every
JSON text coming from one shared encoder.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import product, starmap
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
    when passed is False.  params defaults to a new empty dict.  An
    immutable named tuple.
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
        "witness"} (info and witness only when not None).
        """
        record = {"check": self.name, "exact": self.exact, "params": self.params, "passed": self.passed}
        if self.info is not None:
            record["info"] = self.info
        if self.witness is not None:
            record["witness"] = self.witness
        return _ENCODER.encode(record)


class ParamValues(tuple):
    """The values one varying param takes across a block, with their JSON
    texts encoded on first use; a sweep passes the same instance to every
    block, so each value is encoded once per sweep."""

    @cached_property
    def json(self) -> list[str]:
        return [_ENCODER.encode(value) for value in self]


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
