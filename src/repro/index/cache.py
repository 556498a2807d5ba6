"""The index-node cache.

The server keeps hot index nodes in memory (the paper uses an LRU cache via
the caffeine library); cold nodes are fetched from the key-value store.  The
cache is byte-budgeted so the "small cache (1 MB)" configuration of Figure 7
can be reproduced directly, and it reports hit/miss statistics which the
end-to-end benchmarks surface.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.index.node import IndexNode
from repro.util.cache import CacheStats, LRUCache

#: Fixed per-node bookkeeping overhead charged on top of the digest cells
#: (coordinates, interval bounds, python object headers are ignored — we
#: charge what a compact serialized node would occupy).
_NODE_OVERHEAD_BYTES = 32

NodeKey = Tuple[str, int, int]  # (stream uuid, level, position)


class NodeCache:
    """LRU cache of index nodes keyed by (stream, level, position)."""

    def __init__(self, capacity_bytes: int = 64 * 1024 * 1024, cell_size: int = 8) -> None:
        self._cell_size = cell_size
        self._cache: LRUCache[NodeKey, IndexNode] = LRUCache(
            capacity=capacity_bytes, weigher=self._weigh
        )

    def _weigh(self, node: IndexNode) -> int:
        return _NODE_OVERHEAD_BYTES + self._cell_size * node.width

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    @property
    def capacity_bytes(self) -> int:
        return self._cache.capacity

    @property
    def used_bytes(self) -> int:
        return self._cache.weight

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, key: NodeKey) -> Optional[IndexNode]:
        return self._cache.get(key)

    def get_or_load(self, key: NodeKey, loader: Callable[[], Optional[IndexNode]]) -> Optional[IndexNode]:
        """Return the cached node, or load it; missing nodes are not negative-cached."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        node = loader()
        if node is not None:
            self._cache.put(key, node)
        return node

    def put(self, key: NodeKey, node: IndexNode) -> None:
        self._cache.put(key, node)

    def invalidate(self, key: NodeKey) -> bool:
        return self._cache.invalidate(key)

    def invalidate_stream(self, stream_uuid: str) -> int:
        """Drop every cached node of one stream; returns how many were dropped.

        The cache is typically shared by all streams of an engine, so deleting
        a stream must not cold-start the others.
        """
        doomed = [key for key, _node in self._cache.items() if key[0] == stream_uuid]
        for key in doomed:
            self._cache.invalidate(key)
        return len(doomed)

    def clear(self) -> None:
        self._cache.clear()
