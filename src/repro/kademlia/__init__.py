"""Kademlia overlay substrate: addressing, k-buckets, routing.

This subpackage implements the forwarding-Kademlia overlay that Swarm
builds on (paper §III-A): the flat XOR-metric address space shared by
nodes and content, per-node routing tables with capacity-limited
k-buckets plus an uncapped neighborhood, deterministic overlay
construction, and greedy request forwarding.

The public names load on first use, so building an overlay does not
import the iterative lookup or the routing simulator.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "address": ["AddressSpace", "bit_length_array", "common_prefix_length",
                "proximity", "xor_nearest_fill"],
    "buckets": ["BucketLimits", "KBucket", "KADEMLIA_BUCKET_SIZE",
                "NEIGHBORHOOD_MIN", "SWARM_BUCKET_SIZE"],
    "iterative": ["IterativeLookup", "LookupResult"],
    "overlay": ["Overlay", "OverlayConfig"],
    "routing": ["Route", "Router", "RoutingStats"],
    "table": ["RoutingTable"],
})
