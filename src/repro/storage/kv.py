"""The key-value store interface the server engine writes against.

Keys and values are opaque byte strings.  The interface is intentionally the
lowest common denominator of wide-column / KV stores (get, put, delete,
multi-get, prefix scan) so that the rest of the system stays portable across
backends — the paper makes the same argument for building on a standard
distributed KV store.

The batch operations (``multi_get`` / ``multi_put`` / ``multi_delete``) are
first-class primitives, not conveniences: the index and server hot paths
funnel every coalesced write set and every query-time node fetch through
them, so a backend that implements them as one round trip (one lock
acquisition, one buffered append + fsync, one request per cluster node)
collapses the per-record store traffic that otherwise dominates ingest and
query cost.  The base class provides scalar-loop fallbacks so ad-hoc
backends keep working, but every bundled backend overrides them.
"""

from __future__ import annotations

import bisect
import itertools
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: Keys per ``multi_delete`` in the default :meth:`KeyValueStore.delete_prefixes`.
DELETE_BATCH_KEYS = 4096


def sorted_keys_from(keys: List[bytes], prefix: bytes, after: Optional[bytes]) -> Iterator[bytes]:
    """Walk a *sorted* key list from a prefix/cursor position.

    The shared seek used by the sorted-key-cache backends (memory,
    append-log): bisect to the prefix (or strictly past the exclusive
    ``after`` cursor when it lies inside the prefix region) and stop at the
    first key outside the prefix — the prefix region is contiguous in
    sorted order, so each page walk is O(log n + page).  ``keys`` must not
    be mutated while the iterator is live (the cache backends guarantee
    this by replacing, never mutating, a published list).
    """
    from_start = after is None or after < prefix
    start = bisect.bisect_left(keys, prefix) if from_start else bisect.bisect_right(keys, after)
    for index in range(start, len(keys)):
        key = keys[index]
        if not key.startswith(prefix):
            break
        yield key


class SortedKeyCache:
    """Mixin owning the sorted-key list behind cursor scans.

    Backends with an in-memory key set (memory, append-log) share the same
    pattern: keep ``sorted(keys)`` around so paged scans bisect instead of
    re-sorting.  A write that adds keys queues them
    (:meth:`_note_added_keys`) and the next scan merges them into a new
    list; once the queue outgrows the list, the list is dropped and the
    next scan sorts afresh.  A removal drops the list
    (:meth:`_invalidate_sorted_keys`); a value overwrite keeps it as is.
    Invariant: a published list is never mutated in place, so an in-flight
    iterator can keep walking its captured snapshot.

    Subclasses implement :meth:`_live_keys` and call the cache accessors
    under whatever lock guards their key set; the mixin itself adds none.
    """

    _sorted_keys: Optional[List[bytes]] = None

    def _live_keys(self) -> Iterable[bytes]:
        """The current key set (called to rebuild the cache)."""
        raise NotImplementedError

    def _invalidate_sorted_keys(self) -> None:
        """Drop the cache; call whenever a key is removed."""
        self._sorted_keys = None

    def _note_added_keys(self, keys: Iterable[bytes]) -> None:
        """Queue keys new to the key set for the next scan to merge."""
        if self._sorted_keys is not None:
            self._added_keys.extend(keys)
            if len(self._added_keys) > len(self._sorted_keys):
                # A fresh sort now costs no more than the merge, and the
                # queue stops growing with every write between scans.
                self._sorted_keys = None

    def _keys_sorted(self) -> List[bytes]:
        """The cached sorted key list (call under the subclass's lock)."""
        keys = self._sorted_keys
        if keys is None:
            keys = sorted(self._live_keys())
        elif self._added_keys:
            # A new list, so the published one stays intact; timsort finds
            # the cached run and merges the queue in, O(n + k log k).
            keys = keys + self._added_keys
            keys.sort()
        else:
            return keys
        self._sorted_keys = keys
        self._added_keys: List[bytes] = []
        return keys

    def _keys_from(self, prefix: bytes, after: Optional[bytes] = None) -> Iterator[bytes]:
        """Seek into the cached sorted keys (call under the subclass's lock)."""
        return sorted_keys_from(self._keys_sorted(), prefix, after)


class KeyValueStore(ABC):
    """Abstract key-value store."""

    @abstractmethod
    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value stored under ``key`` or ``None``."""

    @abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Store ``value`` under ``key``, replacing any previous value."""

    @abstractmethod
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns True when it existed."""

    @abstractmethod
    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs whose key starts with ``prefix``, in key order."""

    # -- batch primitives (scalar-loop fallbacks; real backends override) ----------

    def multi_get(self, keys: Iterable[bytes]) -> Dict[bytes, Optional[bytes]]:
        """Batched get: one round trip on backends with real batching."""
        return {key: self.get(key) for key in keys}

    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        """Batched put: one round trip on backends with real batching."""
        for key, value in items:
            self.put(key, value)

    def multi_delete(self, keys: Iterable[bytes]) -> Set[bytes]:
        """Batched delete; returns the subset of keys that existed.

        Returning the keys (not a count) lets replicated backends compose the
        result: a key logically existed if any replica held it.
        """
        return {key for key in keys if self.delete(key)}

    # -- conveniences with default implementations --------------------------------

    def scan_from(self, prefix: bytes, after: Optional[bytes] = None) -> Iterator[Tuple[bytes, bytes]]:
        """``scan_prefix`` resumed strictly after ``after`` (paged-scan hook).

        Paged remote scans re-enter the keyspace once per page; backends
        with sorted key access should override this with a real seek so a
        page costs O(page), not O(keys-before-cursor).  The fallback skips
        over the prefix scan, which is correct but linear.
        """
        scan = self.scan_prefix(prefix)
        if after is None:
            return scan
        return itertools.dropwhile(lambda item, cursor=after: item[0] <= cursor, scan)

    def scan_keys(self, prefix: bytes) -> Iterator[bytes]:
        """Yield only the keys under ``prefix``, in key order.

        Backends where values are large or remote should override this to
        avoid materializing (or transferring) values that the caller — key
        audits, :meth:`~repro.storage.cluster.StorageCluster.repair_node`'s
        membership pass — will immediately discard.
        """
        return (key for key, _value in self.scan_prefix(prefix))

    def scan_key_sizes(self, prefix: bytes) -> Iterator[Tuple[bytes, int]]:
        """Yield ``(key, stored_bytes)`` pairs (``len(key) + len(value)``).

        The sizing analogue of :meth:`scan_keys`: remote backends override
        it so size accounting ships key names and integers, not values.
        """
        return ((key, len(key) + len(value)) for key, value in self.scan_prefix(prefix))

    def scan_sizes_from(self, prefix: bytes, after: Optional[bytes] = None) -> Iterator[Tuple[bytes, int]]:
        """Cursor-resumed ``(key, value_length)`` pairs (paged keys-only scans).

        Backends that index value lengths (the append-log store, a remote
        node) override this so keys-only pages never touch value payloads.
        """
        return ((key, len(value)) for key, value in self.scan_from(prefix, after))

    def scan_range(self, prefix: bytes, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """``(key, value)`` pairs under ``prefix`` with ``lo <= key <= hi``.

        The range-filtered scan behind windowed lookups (envelope ranges,
        shard recovery).  Remote backends override this so the filter runs
        on the node and only matching items cross the wire; the local
        default filters in-loop and stops at the first key past ``hi``.
        """
        for key, value in self.scan_from(prefix):
            if key > hi:
                break
            if key >= lo:
                yield key, value

    def delete_prefixes(self, prefixes: Iterable[bytes]) -> int:
        """Delete every key under each prefix; returns how many existed.

        The bulk-erase primitive behind ``delete_stream`` and grant
        revocation.  Remote backends override it with a single server-side
        operation, so several keyspaces (a stream's chunks *and* index
        nodes) fall in one round trip per node; the default materializes
        each prefix's key list first (so the walk never races its own
        deletes) and removes it in :data:`DELETE_BATCH_KEYS`-bounded batches.
        """
        deleted = 0
        for prefix in prefixes:
            keys = list(self.scan_keys(prefix))
            for start in range(0, len(keys), DELETE_BATCH_KEYS):
                deleted += len(self.multi_delete(keys[start : start + DELETE_BATCH_KEYS]))
        return deleted

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def keys_with_prefix(self, prefix: bytes) -> List[bytes]:
        return list(self.scan_keys(prefix))

    def count_prefix(self, prefix: bytes) -> int:
        return sum(1 for _ in self.scan_keys(prefix))

    def size_bytes(self) -> int:
        """Total stored bytes (keys + values); used for index-size reporting."""
        return sum(len(key) + len(value) for key, value in self.scan_prefix(b""))

    def close(self) -> None:  # pragma: no cover - default is a no-op
        """Release any resources held by the backend."""
