"""Fuzzing the one trace header: strict ints or a named refusal.

:class:`repro.workloads.traces.TraceHeader` heads every request trace
(``trace replay``, ``serve --input``, ``WorkloadTrace.load``) and every
dynamics trace. On arbitrary JSON-ish first lines and field values it
must either parse to exactly the ints the line holds — plain JSON
ints, never a bool, float, string or ``null``, each in range — or
raise :class:`~repro.errors.WorkloadError`. Nothing else may escape,
and a written header must parse back to itself.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.traces import (
    DYNAMICS_TRACE_FORMAT,
    TRACE_NDJSON_FORMAT,
    TraceHeader,
)

TAGS = [TRACE_NDJSON_FORMAT, DYNAMICS_TRACE_FORMAT]
FIELDS = ("bits", "n_nodes", "overlay_seed")
LOW = {"bits": 1, "n_nodes": 1, "overlay_seed": 0}
HIGH = {"bits": 64, "n_nodes": None, "overlay_seed": None}

scalars = st.one_of(
    st.integers(min_value=-3, max_value=70),
    st.integers(min_value=2**62, max_value=2**70),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([12.0, 0.5, -0.0]),
    st.text(max_size=4),
    st.sampled_from(["12", "42", "false"]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6,
)
tags = st.one_of(st.sampled_from(TAGS + ["repro-swarm-trace/1"]),
                 values)
#: Values one header field may be set to: the bounds on both sides,
#: and ints in every other JSON type.
EDGES = [0, 1, -1, 64, 65, 2**70, True, False, None, 1.0, 12.5, "12",
         [12], {"bits": 12}]


@st.composite
def documents(draw):
    """A valid header with up to two faults: a dropped key or a value
    from :data:`EDGES` or anywhere in JSON."""
    document = {
        "format": draw(st.sampled_from(TAGS)),
        "bits": draw(st.integers(1, 64)),
        "n_nodes": draw(st.integers(1, 2**40)),
        "overlay_seed": draw(st.integers(0, 2**70)),
    }
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(("format",) + FIELDS + ("extra",)))
        if not draw(st.integers(0, 4)):
            document.pop(key, None)
        else:
            document[key] = draw(st.one_of(
                st.sampled_from(EDGES), values, tags))
    return document


def expected(document, tag):
    """The header *document* must parse to, or ``None`` to refuse."""
    if not isinstance(document, dict) or document.get("format") != tag:
        return None
    fields = []
    for name in FIELDS:
        value = document.get(name)
        if type(value) is not int or value < LOW[name]:
            return None
        if HIGH[name] is not None and value > HIGH[name]:
            return None
        fields.append(value)
    return TraceHeader(*fields, tag)


def check_line(line, tag, want):
    try:
        got = TraceHeader.parse(line, path="first.ndjson", tag=tag)
    except WorkloadError as error:
        assert want is None, error
        assert "first.ndjson" in str(error)
        return
    assert got == want
    assert [type(getattr(got, name)) for name in FIELDS] == [int] * 3


@settings(max_examples=400, deadline=None)
@given(documents(), st.sampled_from(TAGS))
def test_header_object_parses_exactly_or_is_refused(document, tag):
    check_line(json.dumps(document), tag, expected(document, tag))


@pytest.mark.parametrize("value", EDGES, ids=repr)
@pytest.mark.parametrize("field", FIELDS)
def test_each_edge_value_parses_exactly_or_is_refused(field, value):
    document = {"format": TRACE_NDJSON_FORMAT, "bits": 16, "n_nodes": 200,
                "overlay_seed": 42, field: value}
    check_line(json.dumps(document), TRACE_NDJSON_FORMAT,
               expected(document, TRACE_NDJSON_FORMAT))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    values.map(json.dumps),
    st.text(alphabet='{}[],:"0123456789.-eEtruefalsn format', max_size=40),
    documents().map(lambda doc: json.dumps(doc)[:-1]),
), st.sampled_from(TAGS))
def test_arbitrary_first_line_parses_exactly_or_is_refused(line, tag):
    try:
        document = json.loads(line)
    except ValueError:
        want = None
    else:
        want = expected(document, tag)
    check_line(line, tag, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(1, 2**40), st.integers(0, 2**70),
       st.sampled_from(TAGS))
def test_written_header_parses_back_to_itself(bits, n_nodes, seed, tag):
    header = TraceHeader(bits, n_nodes, seed, tag)
    assert TraceHeader.from_json(header.to_json(), tag=tag) == header
    assert TraceHeader.parse(json.dumps(header.to_json()),
                             tag=tag) == header


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.integers(1, 100), st.integers(0, 100),
       st.sampled_from(FIELDS), st.integers(-2, 2))
def test_check_refuses_exactly_the_mismatches(bits, n_nodes, seed, field,
                                              shift):
    header = TraceHeader(bits, n_nodes, seed)
    target = {"bits": bits, "n_nodes": n_nodes, "overlay_seed": seed}
    target[field] += shift
    try:
        header.check(target["bits"], target["n_nodes"],
                     target["overlay_seed"])
    except WorkloadError:
        assert shift != 0
    else:
        assert shift == 0
    header.check(bits, n_nodes, None)  # an unknown seed is not checked
