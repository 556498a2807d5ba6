"""The server-side token store.

Access tokens are encrypted for their recipient (ECIES) by the data owner and
parked at the server, so principals can pick them up asynchronously (§3.2).
The server never sees token contents — it only stores opaque envelopes keyed
by ``(stream, principal)`` — and additionally stores the public key envelopes
of resolution keystreams (wrapped outer keys), which are equally opaque.

Persistence goes through the storage batch primitives: a cohort grant burst
(:meth:`TokenStore.put_grants`) is one ``multi_put``, an envelope
publication is one ``multi_put``, and grant deletion is a single
``delete_prefixes`` (erased server-side on remote backends) — instead of one
round trip per record each.  Grant ids come from per-stream
``{principal → next id}`` counters held in memory: one keys-only scan
recovers a stream's counters the first time it is touched, so a steady
burst pays no scan, and ids stay dense: a principal's i-th grant on a
stream has id i.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import AccessDeniedError
from repro.storage.kv import KeyValueStore
from repro.storage.memory import MemoryStore


def _principal_segment(principal_id: str) -> str:
    """``principal_id`` as one key segment: '%' and '/' escaped, all else verbatim.

    An id without either character is its own segment, so its keys keep
    their bytes; an id with a '/' can no longer fall under another
    principal's prefix.
    """
    return principal_id.replace("%", "%25").replace("/", "%2F")


def _principal_of(segment: str) -> str:
    return segment.replace("%2F", "/").replace("%25", "%")


def _grant_key(stream_uuid: str, principal_id: str, grant_id: int) -> bytes:
    return f"grant/{stream_uuid}/{_principal_segment(principal_id)}/{grant_id:08d}".encode("utf-8")


def _grant_prefix(stream_uuid: str, principal_id: Optional[str] = None) -> bytes:
    if principal_id is None:
        return f"grant/{stream_uuid}/".encode("utf-8")
    return f"grant/{stream_uuid}/{_principal_segment(principal_id)}/".encode("utf-8")


def _envelope_key(stream_uuid: str, resolution_chunks: int, window_index: int) -> bytes:
    return f"envelope/{stream_uuid}/{resolution_chunks:08d}/{window_index:016x}".encode("utf-8")


class TokenStore:
    """Stores sealed access tokens and resolution key envelopes."""

    def __init__(self, store: Optional[KeyValueStore] = None) -> None:
        # Explicit None check: an *empty* MemoryStore is falsy (__len__ == 0),
        # so `store or MemoryStore()` would silently drop a caller's store.
        self._store = store if store is not None else MemoryStore()
        #: stream -> {principal -> next grant id}; a missing stream is
        #: recovered from storage by the next burst that touches it.
        self._next_ids: Dict[str, Dict[str, int]] = {}
        #: Held across a burst's scan, id reservation and write.
        self._lock = threading.Lock()

    # -- sealed grant envelopes -----------------------------------------------

    def put_grants(self, grants: Sequence[Tuple[str, str, bytes]]) -> List[int]:
        """Store a burst of sealed grants; returns their ids in input order.

        Each id is the number of grants the principal already holds on the
        stream (the first is 0), counted in input order.  The first-touch
        scan, the id reservation and the one ``multi_put`` all run under one
        lock, so neither a concurrent burst nor a counter drop can hand out
        an id whose write has not landed.  A stream seen for the first time
        costs one keys-only scan; a failed scan or write drops the burst's
        counters, so the next burst re-reads what actually landed.
        """
        if not grants:
            return []
        with self._lock:
            try:
                grant_ids = []
                for stream_uuid, principal_id, _sealed in grants:
                    next_ids = self._next_ids.get(stream_uuid)
                    if next_ids is None:
                        next_ids = self._next_ids[stream_uuid] = self._scan_next_ids(stream_uuid)
                    grant_ids.append(next_ids.get(principal_id, 0))
                    next_ids[principal_id] = grant_ids[-1] + 1
                self._store.multi_put(
                    [
                        (_grant_key(stream_uuid, principal_id, grant_id), sealed_token)
                        for (stream_uuid, principal_id, sealed_token), grant_id in zip(grants, grant_ids)
                    ]
                )
            except BaseException:
                for stream_uuid, _principal, _sealed in grants:
                    self._next_ids.pop(stream_uuid, None)
                raise
        return grant_ids

    def _scan_next_ids(self, stream_uuid: str) -> Dict[str, int]:
        """One keys-only scan of a stream's grants: each principal's next id.

        One past its highest stored id, which for dense ids is its count; a
        gap left by a failed write is never filled, so no id is reused.
        """
        prefix = _grant_prefix(stream_uuid)
        next_ids: Dict[str, int] = {}
        for key, _size in self._store.scan_sizes(prefix):
            segment, _sep, grant_id = key[len(prefix) :].decode("utf-8").rpartition("/")
            principal_id = _principal_of(segment)
            next_ids[principal_id] = max(next_ids.get(principal_id, 0), int(grant_id) + 1)
        return next_ids

    def reset_grant_ids(self, streams: Optional[Sequence[str]] = None) -> None:
        """Forget grant-id counters (every stream's, or some); rescanned on next use.

        Called after a delete and a shard-ownership change (another engine
        may have granted on a stream this store counted).  It waits for a
        burst still writing, so that burst's ids are stored before any
        rescan.
        """
        with self._lock:
            if streams is None:
                self._next_ids.clear()
            for stream_uuid in streams or ():
                self._next_ids.pop(stream_uuid, None)

    def grants_for(self, stream_uuid: str, principal_id: str) -> List[bytes]:
        """All sealed envelopes addressed to a principal for a stream."""
        return [
            value
            for _key, value in self._store.scan_prefix(_grant_prefix(stream_uuid, principal_id))
        ]

    def latest_grant(self, stream_uuid: str, principal_id: str) -> bytes:
        grants = self.grants_for(stream_uuid, principal_id)
        if not grants:
            raise AccessDeniedError(
                f"no grant stored for principal '{principal_id}' on stream '{stream_uuid}'"
            )
        return grants[-1]

    def principals_with_grants(self, stream_uuid: str) -> List[str]:
        """Principal ids that have at least one stored grant for the stream."""
        principals = set()
        for key, _size in self._store.scan_sizes(_grant_prefix(stream_uuid)):
            parts = key.decode("utf-8").split("/")
            if len(parts) >= 3:
                principals.add(_principal_of(parts[2]))
        return sorted(principals)

    def delete_grants(self, stream_uuid: str, principal_id: Optional[str] = None) -> int:
        """Remove stored grants (all of a stream's, or one principal's).

        A single ``delete_prefixes``: remote/cluster backends erase server-side
        in one round trip, however many grants fall.
        """
        try:
            return self._store.delete_prefixes([_grant_prefix(stream_uuid, principal_id)])
        finally:
            self.reset_grant_ids([stream_uuid])

    def delete_stream(self, stream_uuid: str) -> int:
        """Remove a stream's grants and key envelopes in one ``delete_prefixes``."""
        try:
            return self._store.delete_prefixes(
                [_grant_prefix(stream_uuid), f"envelope/{stream_uuid}/".encode("utf-8")]
            )
        finally:
            self.reset_grant_ids([stream_uuid])

    # -- resolution key envelopes -----------------------------------------------

    def put_envelopes(
        self, stream_uuid: str, resolution_chunks: int, envelopes: Dict[int, bytes]
    ) -> None:
        """Publish a batch of envelopes with one storage ``multi_put``."""
        if not envelopes:
            return
        self._store.multi_put(
            [
                (_envelope_key(stream_uuid, resolution_chunks, window_index), envelope)
                for window_index, envelope in sorted(envelopes.items())
            ]
        )

    def get_envelope(
        self, stream_uuid: str, resolution_chunks: int, window_index: int
    ) -> Optional[bytes]:
        return self._store.get(_envelope_key(stream_uuid, resolution_chunks, window_index))

    def envelopes_for_range(
        self, stream_uuid: str, resolution_chunks: int, window_start: int, window_end: int
    ) -> Dict[int, bytes]:
        """Envelopes for aligned boundaries within ``[window_start, window_end]``."""
        # %016x keys sort lexicographically in numeric order, so the inclusive
        # window bounds translate directly into a key-range scan — which
        # remote/cluster backends filter server-side instead of shipping the
        # stream's whole envelope history.
        envelopes: Dict[int, bytes] = {}
        prefix = f"envelope/{stream_uuid}/{resolution_chunks:08d}/".encode("utf-8")
        lo = _envelope_key(stream_uuid, resolution_chunks, window_start)
        hi = _envelope_key(stream_uuid, resolution_chunks, window_end)
        for key, value in self._store.scan_prefix(prefix, lo, hi):
            envelopes[int(key.rsplit(b"/", 1)[-1], 16)] = value
        return envelopes
