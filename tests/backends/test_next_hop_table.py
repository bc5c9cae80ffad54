"""Pinned bytes of the built next-hop table, and the fill's input checks."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.backends.config import FastSimulationConfig
from repro.backends.fast import NextHopTable
from repro.errors import AddressError, ConfigurationError
from repro.kademlia import xor_nearest_fill
from repro.kademlia.overlay import Overlay, OverlayConfig

#: ``sha256(coded_transposed.tobytes())``, recorded from the
#: running-minimum builder the XOR-nearest fill replaced.
CODED_PINS = {
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
