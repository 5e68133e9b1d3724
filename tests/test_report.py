"""IdentityReport.to_json against the json.dumps record it must equal byte for byte."""

import json
import math

from hypothesis import given, settings, strategies as st

from symchar.orbits import canonicalize
from symchar.report import IdentityReport, _encode


def reference_json(report: IdentityReport) -> str:
    record = {"check": report.name, "params": report.params, "exact": report.exact, "passed": report.passed}
    if report.witness is not None:
        record["witness"] = report.witness
    if report.info is not None:
        record["info"] = report.info
    return json.dumps(record, separators=(",", ":"), sort_keys=True, default=_encode)


# small moduli, so orbits recur across examples and are read back from the memo
orbits = st.builds(
    canonicalize,
    st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    st.integers(1, 9),
)
scalars = st.one_of(
    orbits,
    st.integers(),
    st.integers(2**63, 2**80),
    st.integers(-(2**80), -1),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.text(),
    st.text(alphabet='"\\é\u2028\U0001f600ab'),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
fields = st.one_of(
    st.dictionaries(st.text(max_size=6), values, max_size=5),
    st.dictionaries(st.integers(), values, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.text(), fields, st.booleans(), st.booleans(), st.none() | fields, st.none() | fields)
def test_to_json_equals_sorted_json_dumps(name, params, exact, passed, witness, info):
    report = IdentityReport(name, params, exact, passed, witness, info)
    assert report.to_json() == reference_json(report)

