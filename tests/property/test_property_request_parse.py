"""Differential fuzzing of the batched ``serve`` request decoders.

:class:`repro.workloads.streams.RequestStream` decodes a whole
micro-batch of NDJSON lines at once: first straight from its bytes
when every line has the ``json.dumps`` layout of repro's own writers
(:func:`_decode_dumped`), else with one ``json.loads`` over the lines
wrapped as ``[[L1],\\n[L2],...]`` (:func:`_decode_batch`). That is only
sound if no accepted batch could decode differently from its lines
taken one by one. The oracle here is the per-line reference:
:func:`parse_request_line` plus the overlay membership check, applied
line by line. On arbitrary JSON-ish input — ints, floats, bools,
strings, nested lists, unknown keys, blank lines, two objects on a
line, objects split across lines — the stream must yield exactly the
reference's columns, or both must raise
:class:`~repro.errors.WorkloadError` naming the same line. Nothing
else may escape."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.kademlia.address import AddressSpace
from repro.workloads.streams import (
    RequestStream,
    _decode_batch,
    _decode_dumped,
    _decode_lines,
    parse_request_line,
)

SPACE = AddressSpace(10)
# Deliberately unsorted, so dense indices differ from sorted ranks;
# 0 and 1 are members, so a bool originator would pass as one.
NODES = np.array([700, 5, 1, 6, 1023, 64, 0, 333], dtype=np.uint64)
INDEX = {int(address): i for i, address in enumerate(NODES)}
ORDER = np.argsort(NODES.astype(np.int64), kind="stable")
RANKED = NODES.astype(np.int64)[ORDER]

LINE_OF_ERROR = re.compile(r"\(line (\d+)\)$")

addresses = st.one_of(
    st.sampled_from([int(n) for n in NODES]),
    st.integers(min_value=-2, max_value=1030),
    st.integers(min_value=2**62, max_value=2**65),
)
scalars = st.one_of(
    addresses,
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([643.0, 1.5, 0.0, -0.0]),
    st.text(max_size=4),
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=4), max_leaves=8,
)
keys = st.sampled_from(
    ["originator", "chunks", "chunk", "file_id", "extra"])

# One fault per check of the decoder: ``(key, value)`` to set on an
# otherwise valid request; ``"chunks[]"`` replaces one chunk address.
FAULTS = (
    [("originator", v) for v in
     [643.0, True, False, "5", None, [5], 7, -1, 2**64]]
    + [("chunks[]", v) for v in
       [1.5, True, False, "12", None, [1, 2], [], -1, SPACE.size,
        2**64]]
    + [("chunks", v) for v in [[], 7, "1", None, [[1]], {"a": 1}]]
    + [("chunk", v) for v in [2.0, [2], True, SPACE.size]]
    + [("file_id", v) for v in [3.0, False, "1", None, [1]]]
    + [("extra", v) for v in [1, [[1]]]]
)


def with_fault(item, key, value):
    """A copy of *item* carrying one fault."""
    item = dict(item)
    if key == "chunks[]":
        item.pop("chunk", None)
        item["chunks"] = [3, value, 4]
    else:
        item[key] = value
    return item


@st.composite
def requests(draw, clean=False):
    """A request object: well-formed when *clean*, else often not."""
    item = {"originator": draw(st.sampled_from([int(n) for n in NODES]))}
    if draw(st.integers(0, 4)):
        item["chunks"] = draw(st.lists(
            st.integers(min_value=0, max_value=SPACE.size - 1),
            min_size=1, max_size=5))
    else:
        item["chunk"] = draw(st.integers(0, SPACE.size - 1))
    if not draw(st.integers(0, 4)):
        item["file_id"] = draw(st.integers(-5, 5))
    if not clean:
        for _ in range(draw(st.integers(0, 2))):
            item[draw(keys)] = draw(values)
        if not draw(st.integers(0, 9)):
            del item[draw(st.sampled_from(sorted(item)))]
    return item


@st.composite
def lines(draw):
    """NDJSON-ish lines, including blank, doubled and split objects.

    Half the examples are *clean*: valid requests with one targeted
    fault and few hazards, so whole batches often reach the batched
    decoder's accept path and the fault alone decides.
    """
    clean = draw(st.booleans())
    n = draw(st.integers(1, 12))
    faulty = draw(st.integers(0, n)) if clean else None
    out: list[str] = []
    for position in range(n):
        item = requests(clean)
        item = draw(item if clean else st.one_of(item, values))
        if position == faulty:
            item = with_fault(item, *draw(st.sampled_from(FAULTS)))
        text = json.dumps(item)
        shape = draw(st.integers(0, 30 if clean else 9))
        if shape == 0:
            out.append(draw(st.sampled_from(["", " ", "\t", "\r"])))
        elif shape == 1:
            other = json.dumps(draw(requests(clean)))
            out.append(text + draw(st.sampled_from([" ", ", ", "], ["]))
                       + other)
        elif shape == 2 and len(text) > 1:
            cut = draw(st.integers(1, len(text) - 1))
            out.extend([text[:cut], text[cut:]])
        elif shape == 3:
            out.append(draw(st.text(alphabet='{}[],:"0123456789.-'
                                    "truefalsn ", max_size=30)))
        else:
            out.append(text)
    ending = draw(st.sampled_from(["\n", "\r\n", ""]))
    return [line + ending for line in out]


def reference(lines):
    """Per-line oracle: ``(origins, sizes, targets, error_line)``."""
    origins, sizes, targets = [], [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            event = parse_request_line(line, bits=SPACE.bits,
                                       lineno=lineno)
        except WorkloadError as error:
            assert LINE_OF_ERROR.search(str(error)).group(1) == str(lineno)
            return origins, sizes, targets, lineno
        if event.originator not in INDEX:
            return origins, sizes, targets, lineno
        origins.append(INDEX[event.originator])
        sizes.append(event.n_chunks)
        targets.extend(int(c) for c in event.chunk_addresses)
    return origins, sizes, targets, None


def streamed(lines, max_batch):
    """The stream's concatenated columns and the line it refused."""
    batches = []
    try:
        for batch in RequestStream(lines, max_batch=max_batch).batches(
                NODES, SPACE):
            batches.append(batch)
    except WorkloadError as error:
        return batches, int(LINE_OF_ERROR.search(str(error)).group(1))
    return batches, None


def check_against_reference(lines, max_batch):
    want_origins, want_sizes, want_targets, want_error = reference(lines)
    batches, error = streamed(lines, max_batch)
    assert error == want_error
    served = sum(len(batch) for batch in batches)
    if error is not None:
        # The batch holding the bad line is refused whole.
        served_lines = [n for n, line in enumerate(lines, start=1)
                        if line.strip() and n < error]
        assert served == len(served_lines) // max_batch * max_batch
    else:
        assert served == len(want_sizes)
    for batch in batches:
        assert len(batch) == batch.origins.size == batch.linenos.size
        assert batch.targets.dtype == np.uint16
        assert batch.sizes.sum() == batch.targets.size
    got = [np.concatenate([getattr(batch, field) for batch in batches])
           if batches else np.empty(0, dtype=np.int64)
           for field in ("origins", "sizes", "targets")]
    np.testing.assert_array_equal(got[0], want_origins[:served])
    np.testing.assert_array_equal(got[1], want_sizes[:served])
    np.testing.assert_array_equal(
        got[2], want_targets[:int(got[1].sum())])


@settings(max_examples=300, deadline=None)
@given(lines(), st.sampled_from([1, 2, 3, 256]))
def test_stream_matches_per_line_reference(lines, max_batch):
    check_against_reference(lines, max_batch)


@settings(max_examples=300, deadline=None)
@given(lines())
def test_batched_decoder_accepts_only_what_the_reference_accepts(lines):
    lines = [line for line in lines if line.strip()]
    if not lines:
        return
    decoded = _decode_batch(lines, RANKED, ORDER, SPACE)
    if decoded is None:
        return
    linenos = list(range(1, len(lines) + 1))
    for got, want in zip(decoded, _decode_lines(lines, linenos, INDEX,
                                                SPACE)):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fixed_dictionaries(
    {"originator": st.sampled_from([int(n) for n in NODES])},
    optional={"file_id": st.integers(-5, 5)},
).flatmap(lambda item: st.one_of(
    st.lists(st.integers(0, SPACE.size - 1), min_size=1, max_size=5)
    .map(lambda chunks: {**item, "chunks": chunks}),
    st.integers(0, SPACE.size - 1).map(lambda c: {**item, "chunk": c}),
)), min_size=1, max_size=20))
def test_valid_requests_take_the_batched_path(items):
    lines = [json.dumps(item) + "\n" for item in items]
    assert _decode_batch(lines, RANKED, ORDER, SPACE) is not None
    check_against_reference(lines, 256)


@pytest.mark.parametrize("key, value", FAULTS)
def test_each_fault_is_refused_by_name(key, value):
    valid = [{"originator": int(n), "chunks": [int(n) % SPACE.size]}
             for n in NODES]
    valid[2] = with_fault(valid[2], key, value)
    lines = [json.dumps(item) + "\n" for item in valid]
    assert _decode_batch(lines, RANKED, ORDER, SPACE) is None
    if key == "extra":  # unknown keys are ignored, off the fast path
        check_against_reference(lines, 256)
        return
    with pytest.raises(WorkloadError, match=r"\(line 3\)$"):
        list(RequestStream(lines).batches(NODES, SPACE))
    check_against_reference(lines, 4)


# Lines that are each invalid JSON but join into valid requests. A
# plain "[" + ",".join(lines) + "]" decodes the first pair as two
# requests. Under the per-line wrapping, the second pair decodes as
# one request with a nested chunk list (the third line makes the
# element count match), which the shape check refuses. The third set
# nests the list under an unknown key instead, which only the
# wire-key check catches; the last line holds two wrapped objects.
JOIN_HAZARDS = [
    ['{"originator": 5, "chunks": [1', '2]}, {"originator": 6, '
     '"chunks": [1]}'],
    ['{"originator": 5, "chunks": [[1', '2]]}',
     '{"originator": 6, "chunks": [1]}], [{"originator": 0, '
     '"chunks": [2]}'],
    ['{"originator": 5, "chunks": [1], "x": [[1', '2]]}',
     '{"originator": 6, "chunks": [1]}], [{"originator": 0, '
     '"chunks": [2]}'],
    ['{"originator": 5, "chunks": [1]}], [{"originator": 6, '
     '"chunks": [2]}'],
]


@pytest.mark.parametrize("lines", JOIN_HAZARDS)
def test_join_hazards_are_refused_at_their_first_line(lines):
    lines = [line + "\n" for line in lines]
    assert _decode_batch(lines, RANKED, ORDER, SPACE) is None
    with pytest.raises(WorkloadError, match=r"not valid JSON \(.*\) "
                                            r"\(line 1\)$"):
        list(RequestStream(lines).batches(NODES, SPACE))
    check_against_reference(lines, 256)


@settings(max_examples=300, deadline=None)
@given(lines())
def test_byte_decoder_accepts_only_what_the_reference_accepts(lines):
    lines = [line for line in lines if line.strip()]
    if not lines:
        return
    decoded = _decode_dumped(lines, RANKED, ORDER, SPACE)
    if decoded is None:
        return
    linenos = list(range(1, len(lines) + 1))
    for got, want in zip(decoded, _decode_lines(lines, linenos, INDEX,
                                                SPACE)):
        np.testing.assert_array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.lists(st.tuples(
    st.integers(0, 10**18 - 1),
    st.sampled_from([int(n) for n in NODES]),
    st.lists(st.integers(0, SPACE.size - 1), min_size=1, max_size=6),
), min_size=1, max_size=20))
def test_dumped_layouts_take_the_byte_decoder(with_file_id, requests):
    """Both layouts repro's writers emit decode straight from bytes."""
    lines = [json.dumps({"file_id": file_id, "originator": origin,
                         "chunks": chunks} if with_file_id else
                        {"originator": origin, "chunks": chunks}) + "\n"
             for file_id, origin, chunks in requests]
    decoded = _decode_dumped(lines, RANKED, ORDER, SPACE)
    assert decoded is not None
    linenos = list(range(1, len(lines) + 1))
    for got, want in zip(decoded, _decode_lines(lines, linenos, INDEX,
                                                SPACE)):
        np.testing.assert_array_equal(got, want)
        assert got.dtype == np.int64
    check_against_reference(lines, 256)


def dumped_batch(bad, at=2):
    """Valid ``json.dumps`` request lines with *bad* as line *at* + 1."""
    lines = [json.dumps({"originator": int(n), "chunks": [int(n) % 1000,
                                                          7]}) + "\n"
             for n in NODES]
    lines[at] = bad
    return lines


# Each hazard of the byte decoder, in an otherwise byte-decodable
# batch: it must refuse the batch, which then decodes exactly as the
# reference does (naming the line when the reference refuses it).
BYTE_HAZARDS = {
    # Two lines that join into two valid ones: line boundaries. The
    # second splits a number, so its run still counts to line 1.
    "join": ['{"originator": 5, "chunks": [1',
             '2]}\n{"originator": 6, "chunks": [3]}\n'],
    "join inside a number": ['{"originator": 5, "chunks": [10',
                             '2]}\n{"originator": 6, "chunks": [3]}\n'],
    "leading zero": dumped_batch('{"originator": 5, "chunks": [05]}\n'),
    "leading zero originator": dumped_batch(
        '{"originator": 05, "chunks": [1]}\n'),
    # Its last 18 digits are an address inside the space.
    "19 digits": dumped_batch(
        '{"originator": 5, "chunks": [1000000000000000005]}\n'),
    "20 digits": dumped_batch(
        '{"originator": 5, "chunks": [18446744073709551617, 2]}\n'),
    "address == space size": dumped_batch(
        f'{{"originator": 5, "chunks": [1, {SPACE.size}]}}\n'),
    "empty chunks": dumped_batch('{"originator": 5, "chunks": []}\n'),
    "negative": dumped_batch('{"originator": 5, "chunks": [-1]}\n'),
    "float": dumped_batch('{"originator": 5, "chunks": [1.0]}\n'),
    "crlf": dumped_batch('{"originator": 5, "chunks": [1]}\r\n'),
    "no final newline": dumped_batch(
        '{"originator": 5, "chunks": [1]}', at=-1),
    "non-ascii digit": dumped_batch(
        '{"originator": 5, "chunks": [1\u0663]}\n'),
    "missing separator": dumped_batch(
        '{"originator": 5, "chunks": [1,2]}\n'),
    "chunk after the list": dumped_batch(
        '{"originator": 5, "chunks": [1], 2}\n'),
    "second originator": dumped_batch(
        '{"originator": 5, 6, "chunks": [1]}\n'),
    "unknown originator": dumped_batch(
        '{"originator": 4, "chunks": [1]}\n'),
    "mixed layouts": dumped_batch(
        '{"file_id": 1, "originator": 5, "chunks": [1]}\n'),
}


@pytest.mark.parametrize("name", sorted(BYTE_HAZARDS))
def test_byte_decoder_refuses_each_hazard(name):
    lines = BYTE_HAZARDS[name]
    assert _decode_dumped(lines, RANKED, ORDER, SPACE) is None
    check_against_reference(lines, 256)
    check_against_reference(lines, 3)
