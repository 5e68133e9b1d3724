"""Uniform result record for identity and certificate checks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .orbits import OrbitRep


def _encode(obj: Any) -> Any:
    """JSON form of the domain objects json cannot encode: orbits and complex numbers."""
    if isinstance(obj, OrbitRep):
        return {"n": obj.n, "entries": list(obj.entries)}
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


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
            "params": self.params,
            "exact": self.exact,
            "passed": self.passed,
        }
        if self.witness is not None:
            record["witness"] = self.witness
        if self.info is not None:
            record["info"] = self.info
        return json.dumps(record, separators=(",", ":"), sort_keys=True, default=_encode)
