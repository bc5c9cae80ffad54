"""Reference Swarm network model (paper §III).

Chunks and content addressing, per-node stores and placement,
forwarding caches, hop-by-hop retrieval, and the
:class:`~repro.swarm.network.SwarmNetwork` facade combining the
overlay substrate with the SWAP incentive mechanism.
"""

from .caching import CachePolicy, LFUCache, LRUCache, NoCache, make_cache
from .chunk import CHUNK_SIZE, Chunk, FileManifest, split_content
from .postage import PostageBatch, PostageError, PostageOffice, PostageStamp
from .redistribution import RedistributionGame, RoundOutcome, StakeRegistry
from .network import DownloadReceipt, SwarmNetwork, SwarmNetworkConfig
from .node import SwarmNode
from .retrieval import Retrieval, RetrievalProtocol, RetrievalStats
from .storage import (
    ChunkStore,
    ClosestNodePlacement,
    NeighborhoodPlacement,
    PlacementPolicy,
)

__all__ = [
    "CHUNK_SIZE",
    "CachePolicy",
    "Chunk",
    "ChunkStore",
    "ClosestNodePlacement",
    "DownloadReceipt",
    "FileManifest",
    "LFUCache",
    "LRUCache",
    "NeighborhoodPlacement",
    "NoCache",
    "PlacementPolicy",
    "PostageBatch",
    "PostageError",
    "PostageOffice",
    "PostageStamp",
    "RedistributionGame",
    "Retrieval",
    "RetrievalProtocol",
    "RetrievalStats",
    "RoundOutcome",
    "StakeRegistry",
    "SwarmNetwork",
    "SwarmNetworkConfig",
    "SwarmNode",
    "make_cache",
    "split_content",
]
