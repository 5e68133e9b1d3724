"""Uniform result record for identity and certificate checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .orbits import OrbitRep


def _jsonable(obj: Any) -> Any:
    """Coerce domain objects (orbits, complex numbers, tuples) to JSON."""
    if isinstance(obj, OrbitRep):
        return {"n": obj.n, "entries": list(obj.entries)}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one verification.

    exact=True means the comparison was integer/counts-level; False means
    it used a numeric tolerance.  witness carries the failing instance
    when passed is False.
    """

    name: str
    params: dict = field(default_factory=dict)
    exact: bool = True
    passed: bool = True
    witness: dict | None = None
    info: dict | None = None

    def to_json(self) -> str:
        record = {
            "check": self.name,
            "params": _jsonable(self.params),
            "exact": self.exact,
            "passed": self.passed,
        }
        if self.witness is not None:
            record["witness"] = _jsonable(self.witness)
        if self.info is not None:
            record["info"] = _jsonable(self.info)
        return json.dumps(record, separators=(",", ":"), sort_keys=True)
