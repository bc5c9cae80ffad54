"""Pinned bytes of the built next-hop table, its lanes, and the fill's
input checks."""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

from repro.backends import fast
from repro.backends.config import FastSimulationConfig
from repro.backends.fast import FastSimulation, NextHopTable
from repro.errors import AddressError, ConfigurationError
from repro.kademlia import xor_nearest_fill
from repro.kademlia.overlay import Overlay, OverlayConfig
from repro.kademlia.table import RoutingTable

#: ``sha256(coded_transposed.tobytes())``, recorded from the
#: running-minimum builder the XOR-nearest fill replaced; the
#: paper-scale pin from the one-lane build over routing-table objects
#: that the edge-list lanes replaced.
CODED_PINS = {
    # The paper's topology and the serve-gateway and paper-churn
    # benchmarks': 1000 nodes, 16 bits, bucket size 4, overlay seed 42.
    "paper-scale": (
        FastSimulationConfig().overlay_config(),
        "f2e2c750b6f17a97384edc71c099a9cc6be7e97d42480031d37f4ae2ba690331",
    ),
    # The latency-contended benchmark topology: 300 nodes, 16 bits,
    # bucket size 4, overlay seed 42.
    "latency-contended": (
        FastSimulationConfig(n_nodes=300).overlay_config(),
        "5f04d8f3a626c67df2df0cd889d67653e57b30d2ce33780d7742c9421e9e13f7",
    ),
    "60-node-8-bit": (
        OverlayConfig(n_nodes=60, bits=8),
        "328067e0c1b7c2676458c2043f45e815bdf8f10d1644621c8b839badcb58ca95",
    ),
}


@pytest.mark.parametrize("name", sorted(CODED_PINS))
def test_coded_table_bytes_pinned(name):
    config, digest = CODED_PINS[name]
    table = NextHopTable(Overlay.build(config))
    coded = table.coded_transposed
    assert coded.flags.c_contiguous
    assert hashlib.sha256(coded.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("config", [
    FastSimulationConfig(n_nodes=300).overlay_config(),  # 5 groups
    OverlayConfig(n_nodes=130, bits=10, seed=3),         # a 2-node group
    OverlayConfig(n_nodes=60, bits=8),                   # 1 group
], ids=["300-node", "130-node", "60-node"])
def test_one_lane_builds_the_bytes_of_many(config, monkeypatch):
    """Lanes write disjoint columns: more lanes than CPUs, switching
    threads as often as the interpreter allows, build the same bytes."""
    overlay = Overlay.build(config)
    monkeypatch.setattr(fast, "_cpu_budget", lambda: 1)
    one = NextHopTable(overlay).coded_transposed
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for lanes in (2, 3, 64):
            monkeypatch.setattr(fast, "_cpu_budget", lambda: lanes)
            assert np.array_equal(NextHopTable(overlay).coded_transposed,
                                  one)
    finally:
        sys.setswitchinterval(interval)


def test_fast_simulation_builds_no_routing_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a RoutingTable was built")

    monkeypatch.setattr(RoutingTable, "__init__", refuse)
    fast.clear_caches()
    try:
        result = FastSimulation(FastSimulationConfig(
            n_nodes=120, bits=12, n_files=20)).run()
    finally:
        fast.clear_caches()
    assert result.chunks > 0


def test_fill_needs_a_key():
    with pytest.raises(AddressError):
        xor_nearest_fill([], [], np.empty(8, dtype=np.uint16))


@pytest.mark.parametrize("out", [
    np.empty(6, dtype=np.uint16),             # not a power of two
    np.empty((2, 4), dtype=np.uint16),        # not 1-D
    np.empty(16, dtype=np.uint16)[::2],       # not contiguous
])
def test_fill_rejects_an_output_it_cannot_write(out):
    with pytest.raises(ConfigurationError):
        xor_nearest_fill([1], [0], out)
