"""The running-minimum next-hop table builder, kept as the test oracle.

This is the original :class:`repro.backends.fast.NextHopTable` build,
moved here with its loop unchanged when the production table switched
to the XOR-nearest fill of :func:`repro.kademlia.xor_nearest_fill`. It
makes one full-space pass per (node, peer) edge, keeps the raw
``[node, target]`` matrix, and encodes terminals into the
``[target, node]`` layout afterwards, which makes it slow but easy to
check by eye. :func:`storer_table` is likewise the original chunked
``argmin`` behind :meth:`repro.kademlia.Overlay.storer_table`. The
differential suite (``tests/property/test_property_next_hop_table.py``)
holds the production table byte-identical to both.
"""

from __future__ import annotations

import numpy as np

from repro.backends.fast import table_entry_dtype
from repro.kademlia.overlay import Overlay

__all__ = ["NextHopTable", "storer_table"]


def storer_table(overlay: Overlay) -> np.ndarray:
    """Dense index of the XOR-closest node for every address (uint32)."""
    size = overlay.space.size
    addresses = overlay.address_array()
    targets = np.arange(size, dtype=np.uint64)
    storers = np.empty(size, dtype=np.uint32)
    # Chunked to bound peak memory at ~ chunk * n_nodes * 8B.
    chunk = max(1, (1 << 22) // max(1, len(overlay.addresses)))
    for start in range(0, size, chunk):
        block = targets[start:start + chunk]
        distances = block[:, None] ^ addresses[None, :]
        storers[start:start + chunk] = np.argmin(distances, axis=1)
    return storers


class NextHopTable:
    """Raw ``next_hop``, ``storer`` and lazily coded ``coded_transposed``."""

    def __init__(self, overlay: Overlay) -> None:
        self.overlay = overlay
        size = overlay.space.size
        n_nodes = len(overlay)
        dtype = table_entry_dtype(n_nodes)
        self.entry_dtype = dtype
        self.sentinel = int(np.iinfo(dtype).max)
        self._n_nodes = n_nodes
        self.next_hop = np.full((n_nodes, size), self.sentinel, dtype=dtype)
        self.storer = storer_table(overlay).astype(dtype)
        targets = np.arange(size, dtype=np.uint64)
        for index, owner in enumerate(overlay.addresses):
            table = overlay.table(owner)
            peers = table.peer_array()
            if peers.size == 0:
                continue
            peer_indices = np.array(
                [overlay.index_of(int(peer)) for peer in peers],
                dtype=np.int64,
            )
            # Running minimum over the node's peers: O(m) full-space
            # passes with no (size x m) intermediate.
            best_distance = targets ^ np.uint64(owner)
            best_index = np.full(size, -1, dtype=np.int64)
            for peer, peer_index in zip(peers, peer_indices):
                distance = targets ^ peer
                closer = distance < best_distance
                best_distance = np.where(closer, distance, best_distance)
                best_index[closer] = peer_index
            # -1 wraps to the dtype's maximum — exactly the sentinel.
            self.next_hop[index] = best_index.astype(dtype)
        self._coded: np.ndarray | None = None

    @property
    def coded_transposed(self) -> np.ndarray:
        """Terminal-coded ``[target, node]`` matrix (built lazily)."""
        if self._coded is None:
            n = self._n_nodes
            dtype = self.entry_dtype
            coded = np.ascontiguousarray(self.next_hop.T)
            # Chunked over target rows to bound the mask temporaries.
            rows = max(1, (1 << 22) // max(1, n))
            for start in range(0, coded.shape[0], rows):
                block = coded[start:start + rows]
                storer_col = self.storer[start:start + rows, None]
                arrived = block == storer_col
                stalled = block == dtype.type(self.sentinel)
                np.add(block, dtype.type(n), out=block, where=arrived)
                np.copyto(block, storer_col + dtype.type(2 * n),
                          where=stalled)
            self._coded = coded
        return self._coded
