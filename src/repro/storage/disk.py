"""A persistent append-only-log key-value store.

This is the on-disk backend of the Cassandra stand-in: every ``put`` appends
a length-prefixed record to a log file, an in-memory hash index maps keys to
their latest log offset, and ``compact()`` rewrites the log dropping stale
versions and tombstones — a single-level, miniature LSM design that captures
the write path (sequential appends) and read path (index lookup + one random
read) of a log-structured store.

Batch operations are real primitives here, not loops: ``multi_put`` packs
the whole batch into one buffer and lands it with a single append + flush
(+ one ``fsync`` when the store was opened with ``sync=True``), and
``multi_get`` resolves every key against the offset index up front and reads
the values in one offset-ordered file pass, so a batch costs one sequential
sweep instead of one random seek per key.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import StorageError
from repro.obs.metrics import REGISTRY
from repro.storage.kv import KeyValueStore, SortedKeyCache, sorted_keys_from
from repro.storage.memory import StoreStats
from repro.util.blocking import before_blocking

_RECORD_HEADER = struct.Struct(">IIB")  # key length, value length, tombstone flag


class AppendLogStore(SortedKeyCache, KeyValueStore):
    """Log-structured persistent store with an in-memory key index.

    Scans lean on :class:`SortedKeyCache` over the offset index, so every
    scan, paged or not, bisects a cached sorted key list instead of
    re-sorting the keyspace.
    """

    def __init__(self, path: str | os.PathLike, sync: bool = False) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._index: Dict[bytes, Tuple[int, int]] = {}  # key -> (value offset, length)
        self._sync = sync
        self._file = open(self._path, "a+b")
        self.stats = StoreStats()
        # Same discipline as MemoryStore: weakly held, key kept so close()
        # detaches the entry promptly instead of waiting for GC.
        self._metrics_key = REGISTRY.register("store.disk", self.stats)
        self._rebuild_index()

    # -- recovery -------------------------------------------------------------

    def _rebuild_index(self) -> None:
        """Replay the log to rebuild the key index after a restart."""
        self._index.clear()
        self._invalidate_sorted_keys()
        self._file.seek(0)
        offset = 0
        while True:
            header = self._file.read(_RECORD_HEADER.size)
            if not header:
                break
            if len(header) < _RECORD_HEADER.size:
                # Torn final record (crash mid-write): truncate it away.
                self._file.truncate(offset)
                break
            key_len, value_len, tombstone = _RECORD_HEADER.unpack(header)
            key = self._file.read(key_len)
            value_offset = offset + _RECORD_HEADER.size + key_len
            payload = self._file.read(value_len)
            if len(key) < key_len or len(payload) < value_len:
                self._file.truncate(offset)
                break
            if tombstone:
                self._index.pop(key, None)
            else:
                self._index[key] = (value_offset, value_len)
            offset = value_offset + value_len
        self._file.seek(0, os.SEEK_END)

    # -- KeyValueStore interface -------------------------------------------------

    def _read_at(self, offset: int, length: int, key: bytes) -> bytes:
        """Read one value from the log without touching the op counters."""
        position = self._file.tell()
        try:
            self._file.seek(offset)
            value = self._file.read(length)
        finally:
            self._file.seek(position)
        if len(value) != length:
            raise StorageError(f"truncated value for key {key!r}")
        return value

    def _live_keys(self) -> Iterable[bytes]:
        return self._index

    def scan_prefix(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Only values inside the interval are read from the log."""
        self.stats.scans += 1
        for key in sorted_keys_from(self._keys_sorted(), prefix, lo, hi):
            entry = self._index.get(key)
            if entry is not None:
                yield key, self._read_at(entry[0], entry[1], key)

    def scan_sizes(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, int]]:
        """Value lengths from the index's ``(offset, length)`` entries — no log reads."""
        self.stats.scans += 1
        return (
            (key, entry[1])
            for key in sorted_keys_from(self._keys_sorted(), prefix, lo, hi)
            if (entry := self._index.get(key)) is not None
        )

    def size_bytes(self) -> int:
        return sum(len(key) + length for key, (_offset, length) in self._index.items())

    def __len__(self) -> int:
        return len(self._index)

    # -- batch primitives ---------------------------------------------------------

    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        """Append the whole batch as one buffered write + flush (+ one fsync)."""
        materialized = list(items)
        if not materialized:
            return
        chunks: List[bytes] = []
        spans: List[Tuple[bytes, int, int]] = []  # key, offset within batch, length
        cursor = 0
        for key, value in materialized:
            chunks.append(_RECORD_HEADER.pack(len(key), len(value), 0) + key + value)
            spans.append((key, cursor + _RECORD_HEADER.size + len(key), len(value)))
            cursor += len(chunks[-1])
        blob = b"".join(chunks)
        end = self._append_blob(blob)
        base = end - len(blob)
        added = []
        for key, relative_offset, length in spans:
            if key not in self._index:
                added.append(key)
            self._index[key] = (base + relative_offset, length)
        self._note_added_keys(added)
        self.stats.multi_puts += 1
        self.stats.multi_put_keys += len(materialized)

    def multi_get(self, keys: Iterable[bytes]) -> Dict[bytes, Optional[bytes]]:
        """Resolve offsets up front, then read values in one offset-ordered pass."""
        materialized = list(keys)
        if not materialized:
            return {}
        result: Dict[bytes, Optional[bytes]] = {key: None for key in materialized}
        located = sorted(
            (entry[0], entry[1], key)
            for key, entry in ((key, self._index.get(key)) for key in set(materialized))
            if entry is not None
        )
        position = self._file.tell()
        try:
            # One forward sweep through the sorted offsets; the file position
            # is saved/restored once for the whole batch, not per key.
            for offset, length, key in located:
                self._file.seek(offset)
                value = self._file.read(length)
                if len(value) != length:
                    raise StorageError(f"truncated value for key {key!r}")
                result[key] = value
        finally:
            self._file.seek(position)
        self.stats.multi_gets += 1
        self.stats.multi_get_keys += len(result)
        return result

    def multi_delete(self, keys: Iterable[bytes]) -> Set[bytes]:
        """Append all tombstones as one buffered write + flush (+ one fsync)."""
        materialized = list(keys)
        if not materialized:
            return set()
        existing = {key for key in materialized if key in self._index}
        if existing:
            blob = b"".join(_RECORD_HEADER.pack(len(key), 0, 1) + key for key in sorted(existing))
            self._append_blob(blob)
            for key in existing:
                self._index.pop(key, None)
            self._invalidate_sorted_keys()
        self.stats.multi_deletes += 1
        self.stats.multi_delete_keys += len(materialized)
        return existing

    # -- maintenance ----------------------------------------------------------------

    def _append_blob(self, blob: bytes) -> int:
        """Append raw bytes, flush once, and return the end-of-file offset."""
        self._file.seek(0, os.SEEK_END)
        self._file.write(blob)
        self._file.flush()
        if self._sync:
            before_blocking()  # a durable flush waits on the disk
            os.fsync(self._file.fileno())
        return self._file.tell()

    def compact(self) -> None:
        """Rewrite the log keeping only the live version of each key."""
        compact_path = self._path.with_suffix(self._path.suffix + ".compact")
        live = [
            (key, self._read_at(entry[0], entry[1], key))
            for key, entry in sorted(self._index.items())
        ]
        with open(compact_path, "wb") as target:
            new_index: Dict[bytes, Tuple[int, int]] = {}
            offset = 0
            for key, value in live:
                record = _RECORD_HEADER.pack(len(key), len(value), 0) + key + value
                target.write(record)
                new_index[key] = (offset + _RECORD_HEADER.size + len(key), len(value))
                offset += len(record)
        self._file.close()
        os.replace(compact_path, self._path)
        self._file = open(self._path, "a+b")
        self._index = new_index
        self._invalidate_sorted_keys()

    def close(self) -> None:
        if self._metrics_key is not None:
            REGISTRY.unregister(self._metrics_key)
            self._metrics_key = None
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "AppendLogStore":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()
