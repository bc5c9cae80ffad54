"""Property: the per-record store rendering equals a whole-document dump.

:func:`repro.sweeps.store.render_document` builds the store text from
per-record encoded fragments; it must produce exactly the bytes of
``json.dumps(document, indent=2, sort_keys=True)`` — on a first save,
and on later saves that reuse some fragments and replace others.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweeps.store import SweepStore, render_document

from ..sweeps.test_store import tiny_spec

# Point ids and keys, non-ASCII included (the encoder escapes them).
KEYS = st.text(min_size=0, max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=8))
# Nested metric values: lists and sub-mappings, empty ones included.
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=12,
)
RECORDS = st.dictionaries(KEYS, st.dictionaries(KEYS, VALUES, max_size=3),
                          max_size=6)
DOCUMENTS = st.fixed_dictionaries(
    {"format": st.text(max_size=8),
     "spec": st.dictionaries(KEYS, VALUES, max_size=3),
     "provenance": st.dictionaries(KEYS, VALUES, max_size=3),
     "points": RECORDS},
    optional={"failures": RECORDS},
)


def reference(document) -> str:
    return json.dumps(document, indent=2, sort_keys=True)


class TestRenderDocument:
    @settings(max_examples=200, deadline=None)
    @given(first=DOCUMENTS, replacements=RECORDS, dropped=st.sets(KEYS))
    def test_matches_whole_document_dump(self, first, replacements,
                                         dropped):
        fragments = {}
        assert render_document(first, fragments) == reference(first)
        # A later save: some records kept (fragments reused), some
        # replaced by new objects, some removed.
        second = dict(first)
        second["points"] = {
            point_id: record for point_id, record in
            {**first["points"], **replacements}.items()
            if point_id not in dropped
        }
        assert render_document(second, fragments) == reference(second)
        assert set(fragments) == {
            (section, point_id) for section in ("points", "failures")
            for point_id in second.get(section, {})
        }

    def test_empty_points_and_failures_section(self):
        document = {"format": "f", "points": {}, "spec": {},
                    "failures": {"ü|r0": {"error": "E: ☃", "n": [1.5]}}}
        assert render_document(document, {}) == reference(document)


def test_saved_store_is_the_whole_document_dump(tmp_path):
    store = SweepStore(tmp_path / "s.json", tiny_spec(), provenance={})
    for index in range(3):
        store.add({"point_id": f"p{index}", "metrics": {"chunks": index}})
        store.save()
        assert (store.path.read_text()
                == reference(store.to_json()) + "\n")
    store.add_failure({"point_id": "q", "error": "E: boom"})
    store.save()
    assert store.path.read_text() == reference(store.to_json()) + "\n"
