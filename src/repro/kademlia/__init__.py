"""Kademlia overlay substrate: addressing, k-buckets, routing.

This subpackage implements the forwarding-Kademlia overlay that Swarm
builds on (paper §III-A): the flat XOR-metric address space shared by
nodes and content, per-node routing tables with capacity-limited
k-buckets plus an uncapped neighborhood, deterministic overlay
construction, and greedy request forwarding.
"""

from .address import (
    AddressSpace,
    bit_length_array,
    common_prefix_length,
    proximity,
    xor_distance,
    xor_nearest_fill,
)
from .buckets import (
    BucketLimits,
    KBucket,
    KADEMLIA_BUCKET_SIZE,
    NEIGHBORHOOD_MIN,
    SWARM_BUCKET_SIZE,
)
from .iterative import IterativeLookup, LookupResult
from .overlay import Overlay, OverlayConfig
from .routing import Route, Router, RoutingStats
from .table import RoutingTable

__all__ = [
    "AddressSpace",
    "BucketLimits",
    "IterativeLookup",
    "KBucket",
    "LookupResult",
    "KADEMLIA_BUCKET_SIZE",
    "NEIGHBORHOOD_MIN",
    "SWARM_BUCKET_SIZE",
    "Overlay",
    "OverlayConfig",
    "Route",
    "Router",
    "RoutingStats",
    "RoutingTable",
    "bit_length_array",
    "common_prefix_length",
    "proximity",
    "xor_distance",
    "xor_nearest_fill",
]
