"""IdentityReport.to_json against the json.dumps record it must equal byte
for byte, and a ReportBlock's lines against those of its records."""

import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symchar.orbits import OrbitRep, canonicalize
from symchar.report import IdentityReport, ReportBlock, _encode


def reference_json(report: IdentityReport) -> str:
    record = {"check": report.name, "params": report.params, "exact": report.exact, "passed": report.passed}
    if report.witness is not None:
        record["witness"] = report.witness
    if report.info is not None:
        record["info"] = report.info
    return json.dumps(record, separators=(",", ":"), sort_keys=True, default=_encode)


# small moduli, so the same orbits recur across examples
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



@st.composite
def blocks(draw):
    keys = draw(st.lists(st.text(max_size=4), min_size=0, max_size=4, unique=True))
    axes = [draw(st.lists(values, max_size=3)) for _ in keys]
    shape = tuple(len(axis) for axis in axes)
    passed = np.array(draw(st.lists(st.booleans(), min_size=math.prod(shape), max_size=math.prod(shape))), dtype=bool)
    witnesses = {i: draw(fields) for i in np.flatnonzero(~passed).tolist()}
    shared = draw(st.dictionaries(st.text(max_size=6), values, max_size=4))
    return ReportBlock(draw(st.text()), draw(st.booleans()), shared, tuple(keys), tuple(axes), passed.reshape(shape), witnesses)


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_block_lines_are_its_records_lines(block):
    records = list(block)
    assert len(records) == block.passed.size
    combos = list(product(*block.axes))
    assert [r.params for r in records] == [{**block.shared, **dict(zip(block.keys, values))} for values in combos]
    assert [r.passed for r in records] == block.passed.ravel().tolist()
    assert [r.witness for r in records] == [block.witnesses.get(i) for i in range(len(combos))]
    assert all(r.name == block.name and r.exact == block.exact and r.info is None for r in records)
    chunks = list(block.json_chunks())
    assert "".join(chunks) == "".join(r.to_json() + "\n" for r in records)
    # one chunk per combination of every varying param but the last two
    assert len(chunks) == math.prod(len(axis) for axis in block.axes[:-2])


def test_block_slots_avoid_private_use_text_in_the_record():
    # the shared params hold the first private-use characters, escaped as the
    # stand-ins for the varying values would be
    block = ReportBlock(
        "\ue000", True, {"a": "\ue001", "\ue002": ["\\ue003"]}, ("y", "\ue004"), ([1, "\ue000"], [{}]),
        np.array([[True], [False]]), {1: {"w": "{0}"}},
    )
    assert "".join(block.json_chunks()) == "".join(r.to_json() + "\n" for r in block)


def test_encoding_does_not_depend_on_what_was_encoded_before():
    # an orbit holding numpy integers is not JSON; encoding an equal orbit of
    # Python ints in between must not change that
    numpy_orbit = IdentityReport("c", {"x": OrbitRep(5, (np.int64(1), np.int64(2)))})
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        numpy_orbit.to_json()
    int_orbit = IdentityReport("c", {"x": OrbitRep(5, (1, 2))})
    assert int_orbit.to_json() == reference_json(int_orbit)
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        numpy_orbit.to_json()
