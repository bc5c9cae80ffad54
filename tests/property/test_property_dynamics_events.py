"""Fuzzing dynamics-trace events: strict JSON types or a named refusal.

:func:`repro.scenarios.events.event_from_json` decodes every event of
a dynamics trace. On arbitrary JSON-ish payloads it must either decode
to exactly the values the payload holds — JSON bools, ints and lists
of ints, never a coerced string, float or bool, and only the kind's
own keys — or raise :class:`~repro.errors.ConfigurationError`.
Nothing else may escape, and a written event must decode back to
itself.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.scenarios.events import (
    CacheState,
    PolicyOverride,
    TopologyDelta,
    event_from_json,
    event_to_json,
)

#: Each kind's keys and what its value must be.
KINDS = {
    "topology": {"leaves": "ints", "joins": "ints"},
    "cache": {"enabled": "bool", "capacity": "int"},
    "policy": {"unpaid_origins": "ints?", "origin_focus": "ints?"},
}

scalars = st.one_of(
    st.integers(min_value=-3, max_value=2**40), st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([12.0, 12.9, "12", "false", "true", ""]),
    st.text(max_size=4),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6,
)
index_lists = st.lists(st.integers(0, 2**20), max_size=4)


def valid_value(kind):
    if kind == "bool":
        return st.booleans()
    if kind == "int":
        return st.integers(0, 2**20)
    if kind == "ints":
        return index_lists
    return st.one_of(st.none(), index_lists)


@st.composite
def payloads(draw):
    """A valid event with up to two faults: a dropped, added or
    replaced key, or another kind tag."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    payload = {"kind": kind}
    for name, want in KINDS[kind].items():
        payload[name] = draw(valid_value(want))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["kind", *KINDS[kind], "extra"]))
        if not draw(st.integers(0, 4)):
            payload.pop(key, None)
        else:
            payload[key] = draw(st.one_of(values, st.sampled_from(
                sorted(KINDS)), st.lists(scalars, max_size=3)))
    return payload


def strict(value, want):
    if want == "bool":
        return type(value) is bool
    if want == "int":
        return type(value) is int and value >= 0
    if value is None:
        return want == "ints?"
    return (type(value) is list
            and all(type(v) is int and v >= 0 for v in value))


def expected(payload):
    """The event *payload* must decode to, or ``None`` to refuse."""
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        return None
    fields = KINDS[kind]
    if set(payload) != {"kind", *fields}:
        return None
    if not all(strict(payload[name], want) for name, want in fields.items()):
        return None
    args = {name: tuple(payload[name]) if type(payload[name]) is list
            else payload[name] for name in fields}
    return {"topology": TopologyDelta, "cache": CacheState,
            "policy": PolicyOverride}[kind](**args)


def check(payload):
    want = expected(payload)
    try:
        got = event_from_json(payload)
    except ConfigurationError:
        assert want is None, payload
        return
    assert want is not None, (payload, got)
    assert got == want
    assert event_to_json(got) == payload


@settings(max_examples=500, deadline=None)
@given(payloads())
def test_event_decodes_exactly_or_is_refused(payload):
    check(json.loads(json.dumps(payload)))


@settings(max_examples=200, deadline=None)
@given(values)
def test_arbitrary_json_decodes_exactly_or_is_refused(value):
    if isinstance(value, dict):
        check(value)
        return
    with pytest.raises(ConfigurationError):
        event_from_json(value)


@pytest.mark.parametrize("payload", [
    {"kind": "cache", "enabled": "false", "capacity": 12},
    {"kind": "cache", "enabled": True, "capacity": 12.9},
    {"kind": "cache", "enabled": 1, "capacity": 12},
    {"kind": "cache", "enabled": True, "capacity": True},
    {"kind": "topology", "leaves": "12", "joins": []},
    {"kind": "topology", "leaves": [1.0], "joins": []},
    {"kind": "topology", "leaves": [1], "joins": [True]},
    {"kind": "topology", "leaves": [1], "joins": [], "extra": 0},
    {"kind": "policy", "unpaid_origins": "3", "origin_focus": None},
    {"kind": "policy", "unpaid_origins": None, "origin_focus": ["1"]},
], ids=repr)
def test_coercible_values_refused(payload):
    with pytest.raises(ConfigurationError, match="malformed"):
        event_from_json(payload)
