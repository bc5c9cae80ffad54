"""Differential fuzzing of the XOR-nearest next-hop table build.

:class:`repro.backends.fast.NextHopTable` fills each node's column of
the terminal-coded ``[target, node]`` matrix with
:func:`repro.kademlia.xor_nearest_fill` over the node's sorted peers,
and :meth:`repro.kademlia.Overlay.storer_table` uses the same fill
over every node address. That is only sound if the trie walk finds the
same nearest key as a scan over all of them. The oracle is the
running-minimum builder it replaced, kept verbatim in
``tests/backends/table_oracle.py``: on random overlays (3-10 bit
spaces, 2-64 nodes, bucket sizes 1-8) and on hand-made overlays with a
node that knows no peer and a node that knows every other node, the
coded matrix and the storer table must be byte-identical to the
oracle's (with equal storers the terminal coding is one-to-one, so
the raw ``[node, target]`` matrices agree too).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.fast import NextHopTable
from repro.kademlia import xor_nearest_fill
from repro.kademlia.buckets import BucketLimits
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.kademlia.table import RoutingTable

from ..backends import table_oracle


def assert_tables_equal(overlay: Overlay) -> None:
    table = NextHopTable(overlay)
    oracle = table_oracle.NextHopTable(overlay)
    assert table.coded_transposed.dtype == oracle.coded_transposed.dtype
    assert np.array_equal(table.coded_transposed, oracle.coded_transposed)
    assert np.array_equal(table.storer, oracle.storer)
    assert np.array_equal(overlay.storer_table(),
                          table_oracle.storer_table(overlay))


@st.composite
def built_overlays(draw):
    bits = draw(st.integers(3, 10))
    return Overlay.build(OverlayConfig(
        n_nodes=draw(st.integers(2, min(64, 1 << bits))),
        bits=bits,
        limits=BucketLimits.uniform(draw(st.integers(1, 8))),
        seed=draw(st.integers(0, 2**16)),
    ))


@st.composite
def hand_made_overlays(draw):
    """Random peers, plus one node with none and one that knows all."""
    bits = draw(st.integers(3, 10))
    size = 1 << bits
    addresses = draw(st.lists(st.integers(0, size - 1), min_size=2,
                              max_size=min(64, size), unique=True))
    config = OverlayConfig(n_nodes=len(addresses), bits=bits)
    loner, hub = addresses[0], addresses[1]
    tables = {}
    for owner in addresses:
        table = RoutingTable(owner, config.space, config.limits)
        others = [a for a in addresses if a != owner]
        if owner == hub:
            known = others
        elif owner == loner:
            known = []
        else:
            known = draw(st.lists(st.sampled_from(others), unique=True))
        for peer in known:
            table.add_unbounded(peer)
        tables[owner] = table
    return Overlay.from_tables(config, tables)


@settings(max_examples=60, deadline=None)
@given(built_overlays())
def test_built_overlay_tables_match_oracle(overlay):
    assert_tables_equal(overlay)


@settings(max_examples=60, deadline=None)
@given(hand_made_overlays())
def test_hand_made_overlay_tables_match_oracle(overlay):
    assert_tables_equal(overlay)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda bits: st.tuples(
    st.just(bits),
    st.lists(st.integers(0, (1 << bits) - 1), min_size=1,
             max_size=min(40, 1 << bits), unique=True))))
def test_fill_matches_argmin(drawn):
    bits, keys = drawn
    keys = sorted(keys)
    out = np.empty(1 << bits, dtype=np.int64)
    xor_nearest_fill(keys, list(range(len(keys))), out)
    distances = np.arange(1 << bits)[:, None] ^ np.asarray(keys)[None, :]
    assert np.array_equal(out, np.argmin(distances, axis=1))
