"""The key-value store interface the server engine writes against.

Keys and values are opaque byte strings.  The interface is intentionally the
lowest common denominator of wide-column / KV stores (batched get, put and
delete, plus an interval scan) so that the rest of the system stays portable
across backends — the paper makes the same argument for building on a
standard distributed KV store.

The batch operations (``multi_get`` / ``multi_put`` / ``multi_delete``) are
the only point operations a backend implements: the index and server hot
paths funnel every coalesced write set and every query-time node fetch
through them, so a backend that implements them as one round trip (one lock
acquisition, one buffered append + fsync, one request per cluster node)
collapses the per-record store traffic that otherwise dominates ingest and
query cost.  ``get`` / ``put`` / ``delete`` are one-key batches, written
once here; no backend overrides them.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: Keys per ``multi_delete`` in the default :meth:`KeyValueStore.delete_prefixes`.
DELETE_BATCH_KEYS = 4096


def sorted_keys_from(keys: List[bytes], prefix: bytes, lo: bytes, hi: Optional[bytes]) -> Iterator[bytes]:
    """Walk a *sorted* key list over the keys under ``prefix`` in ``[lo, hi]``.

    The shared seek used by the sorted-key-cache backends (memory,
    append-log): bisect straight to ``max(prefix, lo)`` and stop at the
    first key outside the prefix or past ``hi`` — the prefix region is
    contiguous in sorted order, so each page walk is O(log n + page).
    ``keys`` must not be mutated while the iterator is live (the cache
    backends guarantee this by replacing, never mutating, a published list).
    """
    for index in range(bisect.bisect_left(keys, max(prefix, lo)), len(keys)):
        key = keys[index]
        if not key.startswith(prefix) or (hi is not None and key > hi):
            break
        yield key


class SortedKeyCache:
    """Mixin owning the sorted-key list behind interval scans.

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


class KeyValueStore(ABC):
    """Abstract key-value store: three batch ops and one interval scan."""

    @abstractmethod
    def multi_get(self, keys: Iterable[bytes]) -> Dict[bytes, Optional[bytes]]:
        """Batched get (``None`` for a missing key): one round trip per batch."""

    @abstractmethod
    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        """Batched put, replacing previous values: one round trip per batch."""

    @abstractmethod
    def multi_delete(self, keys: Iterable[bytes]) -> Set[bytes]:
        """Batched delete; returns the subset of keys that existed.

        Returning the keys (not a count) lets replicated backends compose the
        result: a key logically existed if any replica held it.
        """

    @abstractmethod
    def scan_prefix(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(key, value)`` for keys under ``prefix`` with ``lo <= key <= hi``.

        The one read walk of the contract, in key order; ``hi=None`` leaves
        the interval open above.  A paged reader resumes after key ``k`` at
        ``lo = k + b"\\x00"``, the least byte string above ``k``.
        """

    def scan_sizes(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, int]]:
        """``(key, len(value))`` over the same interval as :meth:`scan_prefix`.

        The walk behind key audits, handoff, repair, grant ids and sizing,
        which never need a value.  Backends that know value lengths without
        reading values (the append-log index, a remote node's keys-only
        pages) override it so the walk never reads or ships one.
        """
        return ((key, len(value)) for key, value in self.scan_prefix(prefix, lo, hi))

    # -- one-key batches ------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        return self.multi_get((key,)).get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self.multi_put(((key, value),))

    def delete(self, key: bytes) -> bool:
        return key in self.multi_delete((key,))

    # -- conveniences with default implementations --------------------------------

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
            keys = [key for key, _size in self.scan_sizes(prefix)]
            for start in range(0, len(keys), DELETE_BATCH_KEYS):
                deleted += len(self.multi_delete(keys[start : start + DELETE_BATCH_KEYS]))
        return deleted

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def count_prefix(self, prefix: bytes) -> int:
        return sum(1 for _ in self.scan_sizes(prefix))

    def size_bytes(self) -> int:
        """Total stored bytes (keys + values); used for index-size reporting."""
        return sum(len(key) + size for key, size in self.scan_sizes(b""))

    def close(self) -> None:  # pragma: no cover - default is a no-op
        """Release any resources held by the backend."""
