"""Differential fuzzing of the whole-array overlay build.

:meth:`repro.kademlia.Overlay.build` fills every routing table from one
proximity matrix and one sorted edge list. It must give the overlay
the per-node loop it replaced gives, kept verbatim in
``tests/kademlia/overlay_oracle.py``: the same addresses, and in every
table the same peers in each bucket, in the same insertion order. On
random configs (4-16 bit spaces, 2-200 nodes, uniform bucket sizes or
a bucket-0 override, ``neighborhood_min`` 1-8, symmetric or one-way
neighbourhoods) both builds must match bucket by bucket, and their
fingerprints must match too.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kademlia.buckets import BucketLimits
from repro.kademlia.overlay import Overlay, OverlayConfig

from ..kademlia import overlay_oracle


@st.composite
def overlay_configs(draw):
    bits = draw(st.integers(4, 16))
    default = draw(st.integers(1, 16))
    if draw(st.booleans()):
        limits = BucketLimits.uniform(default)
    else:
        limits = BucketLimits(default=default,
                              overrides={0: draw(st.integers(1, 32))})
    return OverlayConfig(
        n_nodes=draw(st.integers(2, min(200, 1 << bits))),
        bits=bits,
        limits=limits,
        seed=draw(st.integers(0, 2**32)),
        neighborhood_min=draw(st.integers(1, 8)),
        symmetric_neighborhood=draw(st.booleans()),
    )


@settings(max_examples=80, deadline=None)
@given(overlay_configs())
def test_build_matches_oracle_bucket_by_bucket(config):
    overlay = Overlay.build(config)
    oracle = overlay_oracle.build(config)
    assert overlay.addresses == oracle.addresses
    for address in oracle.addresses:
        ours = [bucket.peers for bucket in overlay.table(address).buckets]
        theirs = [bucket.peers for bucket in oracle.table(address).buckets]
        assert ours == theirs, address
    assert overlay.fingerprint() == oracle.fingerprint()
