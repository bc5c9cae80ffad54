"""Compact-dtype policy: selection, capacity validation, kernel state.

The hop kernel stores table entries, storers, targets, and wave state
in the smallest sufficient unsigned dtype, with the dtype's maximum
value reserved as the greedy-terminal sentinel. These tests pin the
selection rules, the refuse-don't-wrap capacity checks, and that the
compact representation is what actually reaches the arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.fast import (
    FastSimulation,
    FastSimulationConfig,
    NextHopTable,
    clear_caches,
    table_entry_dtype,
    target_dtype,
)
from repro.errors import ConfigurationError

from . import table_oracle


@pytest.fixture(autouse=True)
def _isolated_caches():
    clear_caches()
    yield
    clear_caches()


class TestEntryDtypeSelection:
    def test_small_networks_use_uint16(self):
        assert table_entry_dtype(2) == np.dtype(np.uint16)
        assert table_entry_dtype(1000) == np.dtype(np.uint16)
        # 16383 is the largest population whose coded bands (stored up
        # to 3n - 1, transient local band up to 4n - 1) stay clear of
        # the uint16 sentinel (65535).
        assert table_entry_dtype(16383) == np.dtype(np.uint16)

    def test_coded_bands_never_reach_the_sentinel(self):
        assert table_entry_dtype(16384) == np.dtype(np.uint32)
        assert table_entry_dtype(65535) == np.dtype(np.uint32)
        assert table_entry_dtype(1 << 22) == np.dtype(np.uint32)

    def test_capacity_overflow_raises_instead_of_wrapping(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            table_entry_dtype((1 << 32) - 1)
        with pytest.raises(ConfigurationError, match="exceeds"):
            table_entry_dtype(1 << 40)

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            table_entry_dtype(0)


class TestTargetDtypeSelection:
    def test_spaces_up_to_16_bits_use_uint16(self):
        assert target_dtype(8) == np.dtype(np.uint16)
        assert target_dtype(12) == np.dtype(np.uint16)
        assert target_dtype(16) == np.dtype(np.uint16)

    def test_wider_spaces_use_uint32(self):
        assert target_dtype(17) == np.dtype(np.uint32)
        assert target_dtype(22) == np.dtype(np.uint32)
        assert target_dtype(32) == np.dtype(np.uint32)

    def test_overflow_and_nonsense_rejected(self):
        with pytest.raises(ConfigurationError, match="exceeds"):
            target_dtype(33)
        with pytest.raises(ConfigurationError, match=">= 1"):
            target_dtype(0)


class TestTableRepresentation:
    def test_table_arrays_are_compact(self, small_overlay):
        table = NextHopTable(small_overlay)
        assert table.coded_transposed.dtype == np.dtype(np.uint16)
        assert table.storer.dtype == np.dtype(np.uint16)
        assert table.entry_dtype == np.dtype(np.uint16)
        assert table.sentinel == np.iinfo(np.uint16).max

    def test_entries_are_valid_indices_or_sentinel(self, small_overlay):
        table = NextHopTable(small_overlay)
        n = len(small_overlay)
        coded = table.coded_transposed
        # Every coded value names a node in one of the three bands.
        assert int(coded.max()) < 3 * n
        # The stall band sits exactly where the independently built
        # raw matrix holds the sentinel. Greedy must terminate
        # somewhere: sentinels exist (each node is its own terminal
        # for targets it is closest to among its view), but cannot be
        # everything.
        stalled = coded >= 2 * n
        raw = table_oracle.NextHopTable(small_overlay).next_hop.T
        assert np.array_equal(stalled, raw == table.sentinel)
        assert 0 < int(stalled.sum()) < coded.size

    def test_flat_coded_is_a_view(self, small_overlay):
        table = NextHopTable(small_overlay)
        assert table.flat_coded.base is table.coded_transposed
        assert np.array_equal(
            table.flat_coded.reshape(table.coded_transposed.shape),
            table.coded_transposed,
        )

    def test_coded_bands_encode_terminals(self, small_overlay):
        table = NextHopTable(small_overlay)
        n = len(small_overlay)
        coded = table.coded_transposed
        raw = table_oracle.NextHopTable(small_overlay).next_hop.T
        forwarding = coded < n
        arrived = (coded >= n) & (coded < 2 * n)
        stalled = coded >= 2 * n
        assert bool(np.all(forwarding | arrived | stalled))
        assert int(coded.max()) < 3 * n
        # Forwarding band: coded value IS the raw next hop.
        assert np.array_equal(coded[forwarding], raw[forwarding])
        # Arrival band: raw next hop was the storer.
        storer_grid = np.broadcast_to(table.storer[:, None], coded.shape)
        assert np.array_equal(
            coded[arrived] - n, storer_grid[arrived]
        )
        assert np.array_equal(raw[arrived], storer_grid[arrived])
        # Stall band: raw was the sentinel; coded falls back to storer.
        assert bool(np.all(raw[stalled] == table.sentinel))
        assert np.array_equal(
            coded[stalled] - 2 * n, storer_grid[stalled]
        )


class TestWorkloadDtypes:
    def test_flattened_workload_is_compact(self):
        config = FastSimulationConfig(
            n_nodes=80, bits=10, n_files=20, file_min=4, file_max=8,
            overlay_seed=3, workload_seed=9,
        )
        simulation = FastSimulation(config)
        origins, sizes, targets = simulation._flatten_workload(
            config.workload()
        )
        assert origins.dtype == np.dtype(np.uint16)
        assert targets.dtype == np.dtype(np.uint16)
        assert sizes.dtype == np.dtype(np.int64)
        assert int(targets.max()) < simulation.space.size

    @pytest.mark.parametrize("bits", [4, 16, 22])
    def test_flattened_targets_match_the_event_stream(self, bits):
        # The flatten path draws uint32, the per-event generator
        # uint64: numpy yields the same values for either dtype.
        config = FastSimulationConfig(
            n_nodes=12, bits=bits, n_files=30, file_min=4, file_max=40,
            overlay_seed=3, workload_seed=9,
        )
        simulation = FastSimulation(config)
        workload = config.workload()
        _, sizes, targets = simulation._flatten_workload(workload)
        events = list(workload.events(simulation.overlay.address_array(),
                                      simulation.space))
        expected = np.concatenate([event.chunk_addresses
                                   for event in events])
        assert expected.dtype == np.dtype(np.uint64)
        assert sizes.tolist() == [event.n_chunks for event in events]
        assert np.array_equal(targets.astype(np.uint64), expected)

    def test_result_vectors_keep_their_public_dtypes(self):
        config = FastSimulationConfig(
            n_nodes=80, bits=10, n_files=20, file_min=4, file_max=8,
            overlay_seed=3, workload_seed=9,
        )
        result = FastSimulation(config).run()
        assert result.forwarded.dtype == np.dtype(np.int64)
        assert result.first_hop.dtype == np.dtype(np.int64)
        assert result.income.dtype == np.dtype(np.float64)
        assert result.node_addresses.dtype == np.dtype(np.int64)
