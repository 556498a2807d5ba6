"""In-memory key-value store.

The default backend for tests and micro-benchmarks: a sorted-key dict with
the same interface as the persistent stores.  It also tracks operation
counters so benchmarks can report read/write amplification and backend
round trips: every ``multi_*`` call and every scan counts as one round
trip regardless of how many keys it moves, so a one-key ``get`` / ``put`` /
``delete`` costs one.

All operations take a single lock, so a ``multi_put`` of n items is one
lock acquisition (and one atomically visible batch) instead of n — the
in-memory analogue of the one-request-per-batch behaviour of the
persistent and clustered backends.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.obs.metrics import REGISTRY
from repro.storage.kv import KeyValueStore, SortedKeyCache, sorted_keys_from


@dataclass
class StoreStats:
    """Operation counters for a store instance.

    ``scans`` counts scan calls; the ``multi_*`` pairs count batched calls
    and the keys they carried.  A backend round trip is one scan or one
    batched call, so ``read_round_trips``/``write_round_trips`` are the
    numbers a remote backend would see as network requests.
    """

    scans: int = 0
    multi_gets: int = 0
    multi_get_keys: int = 0
    multi_puts: int = 0
    multi_put_keys: int = 0
    multi_deletes: int = 0
    multi_delete_keys: int = 0

    @property
    def read_round_trips(self) -> int:
        return self.multi_gets + self.scans

    @property
    def write_round_trips(self) -> int:
        return self.multi_puts + self.multi_deletes

    @property
    def round_trips(self) -> int:
        return self.read_round_trips + self.write_round_trips

    def reset(self) -> None:
        self.scans = 0
        self.multi_gets = 0
        self.multi_get_keys = 0
        self.multi_puts = 0
        self.multi_put_keys = 0
        self.multi_deletes = 0
        self.multi_delete_keys = 0


class MemoryStore(SortedKeyCache, KeyValueStore):
    """A dict-backed store with ordered prefix scans and single-lock bulk ops.

    Scans lean on :class:`SortedKeyCache`: new keys are merged into
    a copy of the sorted key list at the next scan, removals rebuild it, and
    published lists are never mutated, so in-flight scans keep iterating
    their captured snapshot.
    """

    def __init__(self) -> None:
        self._data: Dict[bytes, bytes] = {}
        self._lock = threading.Lock()
        self.stats = StoreStats()
        # Weakly held, so a collected store prunes itself — but keep the key
        # so close() detaches promptly instead of waiting for GC (two live
        # stores would collide on the registry name until then).
        self._metrics_key = REGISTRY.register("store.memory", self.stats)

    def close(self) -> None:
        if self._metrics_key is not None:
            REGISTRY.unregister(self._metrics_key)
            self._metrics_key = None

    def _live_keys(self) -> Iterable[bytes]:
        return self._data

    def scan_prefix(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """The one walk: bisect into the sorted-key cache, values read lazily.

        On a quiescent store each page is O(page): the sorted key list is
        reused across pages (updated only after a key-set change), the seek
        to ``max(prefix, lo)`` is a bisect, the prefix region is contiguous
        in sorted order, and values are looked up as the consumer advances
        — a paged reader (a node serving one ``kv_scan_prefix`` page) that
        stops early never touches the values behind the rest of the
        keyspace.  Keys deleted mid-scan are skipped.
        """
        with self._lock:
            self.stats.scans += 1
            keys = self._keys_sorted()
        for key in sorted_keys_from(keys, prefix, lo, hi):
            with self._lock:
                value = self._data.get(key)
            if value is not None:
                yield key, value

    # -- batch primitives ---------------------------------------------------------

    def multi_get(self, keys: Iterable[bytes]) -> Dict[bytes, Optional[bytes]]:
        keys = list(keys)
        if not keys:
            return {}
        with self._lock:
            result = {key: self._data.get(key) for key in keys}
            self.stats.multi_gets += 1
            self.stats.multi_get_keys += len(result)
        return result

    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        materialized = list(items)
        if not materialized:
            return
        with self._lock:
            added = []
            for key, value in materialized:
                if key not in self._data:
                    added.append(key)
                self._data[key] = value
            self._note_added_keys(added)
            self.stats.multi_puts += 1
            self.stats.multi_put_keys += len(materialized)

    def multi_delete(self, keys: Iterable[bytes]) -> Set[bytes]:
        materialized = list(keys)
        if not materialized:
            return set()
        with self._lock:
            existed = {key for key in materialized if self._data.pop(key, None) is not None}
            if existed:
                self._invalidate_sorted_keys()
            self.stats.multi_deletes += 1
            self.stats.multi_delete_keys += len(materialized)
        return existed

    def __len__(self) -> int:
        return len(self._data)

    def size_bytes(self) -> int:
        with self._lock:
            return sum(len(key) + len(value) for key, value in self._data.items())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._invalidate_sorted_keys()
