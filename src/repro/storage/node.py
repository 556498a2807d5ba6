"""The remote storage node: a TCP server fronting one local KeyValueStore.

This is the storage tier of the distributed deployment shape: the paper's
server is a thin crypto-oblivious layer over a distributed key-value store
(Cassandra in their prototype), and here each *storage node* is its own
process — a :class:`StorageNodeServer` serving the raw
:class:`~repro.storage.kv.KeyValueStore` contract over the same pipelined
wire protocol the engine tier speaks (``kv_*`` operations, see
:mod:`repro.net.messages`).  A :class:`~repro.storage.cluster.StorageCluster`
whose ``store_factory`` returns
:class:`~repro.storage.remote.RemoteKeyValueStore` clients then replicates
across real sockets instead of in-process objects.

Wire encoding: keys and values are opaque byte strings, so every key and
value travels as a binary attachment, never inside the JSON header.  Every
op is a batch op; a point read or write is a batch of one key.

* ``kv_multi_get``  — attachments ``keys`` → ``{found: [indices]}`` + values
  of the found keys, in index order; a response that would blow the frame
  cap serves a byte-capped head and returns the rest as ``deferred``
  indices for the client to re-request
* ``kv_multi_put``  — attachments ``[k0, v0, k1, v1, ...]`` → ``{stored}``
* ``kv_multi_delete`` — attachments ``keys`` → ``{existed: [indices]}``
* ``kv_scan_prefix`` — args ``{limit?, keys_only?}``, attachments
  ``[prefix, lo]`` plus an optional ``[hi]`` → ``{num_items, truncated}`` +
  ``[k0, v0, k1, v1, ...]`` for the keys under ``prefix`` with
  ``lo <= key <= hi`` (keys only, with ``value_bytes`` lengths in the
  header, when ``keys_only``); the node walks the interval itself, bounded
  by ``limit`` and by bytes, and a client streams a big interval page by
  page, resuming at ``lo = last_key + b"\\x00"``
* ``kv_delete_prefix`` — attachments = one or more non-empty prefixes →
  ``{deleted}``; the node erases the keyspaces locally in bounded batches,
  so bulk erase is one round trip whatever the keyspace size
* ``kv_size_bytes`` — → ``{bytes}``

The node server deliberately does **not** own its store's lifetime: the
store is the node's disk, the server is the node's process.  Stopping the
server (a crash, a restart) leaves the store's contents intact, which is
exactly what the cluster's mark-down → ``mark_up`` → hint-replay →
``repair_node`` cycle expects to heal — parked hints for the node live in
*other* nodes' stores under the reserved ``hint/`` keyspace, so on a
persistent backend they survive restarts of the hosting node too.  The
same store-outlives-process property is what makes live topology changes
safe: ``StorageCluster.add_node`` can dial a node that just started empty
and stream its ranges to it, and ``decommission_node`` leaves the detached
node's contents on disk, exactly like a Cassandra decommission.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from repro.exceptions import ProtocolError, StorageError, TimeCryptError
from repro.net.messages import Request, Response, retain
from repro.net.server import (
    DEFAULT_BULK_QUEUE_LIMIT,
    DEFAULT_CREDIT_WINDOW,
    TimeCryptTCPServer,
    WireDispatcher,
)
from repro.storage.kv import KeyValueStore
from repro.util.blocking import acquire_announced

#: Soft cap on one response's attachment bytes.  Responses always carry at
#: least one item past the cap so progress is guaranteed, which bounds a
#: response at this cap plus one value — safely inside the 64 MiB frame cap
#: as long as individual values respect the clients' request split size.
RESPONSE_BYTE_CAP = 32 * 1024 * 1024


class StorageNodeDispatcher(WireDispatcher):
    """Maps ``kv_*`` wire requests onto one local :class:`KeyValueStore`.

    The TCP server runs handlers on several threads, but the injected
    store is **not** required to be thread-safe (``AppendLogStore`` shares
    one file handle and an unlocked index): every handler runs under a
    per-dispatcher lock, so the store only ever sees one operation at a
    time.  Concurrency still pays off on the wire — requests batch, frame,
    and queue concurrently — while the store, which is the node's actual
    bottleneck, executes serially exactly as its single-process contract
    assumes.
    """

    def __init__(self, store: KeyValueStore) -> None:
        self._store = store
        self._store_lock = threading.Lock()

    @property
    def store(self) -> KeyValueStore:
        return self._store

    def dispatch(self, request: Request) -> Response:
        if request.operation.startswith("kv_"):
            acquire_announced(self._store_lock)
            try:
                return super().dispatch(request)
            finally:
                self._store_lock.release()
        # hello/ping/stats/trace_dump touch no store state — they must stay
        # responsive on a busy node, or reconnect negotiation, liveness
        # checks, and telemetry scrapes would be blocked by the very load
        # they are meant to see through.
        return super().dispatch(request)

    def _unexpected_error(self, exc: Exception) -> TimeCryptError:
        if isinstance(exc, OSError):
            # A failing local backend (disk full, closed log file) must
            # surface as a typed storage error the cluster can treat as a
            # node outage — not tear down the connection.
            return StorageError(f"storage backend failed: {exc}")
        return super()._unexpected_error(exc)

    # -- ops -----------------------------------------------------------------------
    #
    # The zero-copy server hands dispatchers memoryview attachments over
    # per-frame buffers.  Keys are used as dict keys / set members / ordering
    # bounds and stored past the request's lifetime, so every key (and every
    # stored value) is pinned with retain() at the wire boundary.

    def _op_kv_multi_get(self, request: Request) -> Response:
        """Batched get; oversized result sets defer their tail to the client.

        Clients bound the *request* size, but cannot know value sizes, so
        the response is byte-capped here: once the accumulated values pass
        :data:`RESPONSE_BYTE_CAP` (with at least one value served, so a
        retry loop always progresses), every not-yet-served key's index is
        returned in ``deferred`` and the client re-requests those keys —
        instead of the encoder blowing the 64 MiB frame cap and the client
        reading the dead air as a node outage.  Values are fetched from the
        store in small sub-batches so the deferred tail is never read at
        all (it will be read by the retry wave that actually ships it).
        """
        keys = [retain(key) for key in request.attachments]
        indices: List[int] = []
        values: List[bytes] = []
        deferred: List[int] = []
        total_bytes = 0
        capped = False
        chunk_size = 64
        for start in range(0, len(keys), chunk_size):
            chunk = keys[start : start + chunk_size]
            if capped:
                deferred.extend(range(start, start + len(chunk)))
                continue
            found = self._store.multi_get(chunk)
            for offset, key in enumerate(chunk):
                value = found.get(key)
                if value is None:
                    continue
                if capped or (values and total_bytes + len(value) > RESPONSE_BYTE_CAP):
                    capped = True
                    deferred.append(start + offset)
                    continue
                indices.append(start + offset)
                values.append(value)
                total_bytes += len(value)
        result = {"found": indices}
        if deferred:
            result["deferred"] = deferred
        return Response.success(result, values)

    def _op_kv_multi_put(self, request: Request) -> Response:
        if len(request.attachments) % 2:
            raise ProtocolError("kv_multi_put requires alternating key/value attachments")
        items: List[Tuple[bytes, bytes]] = [
            (retain(key), retain(value))
            for key, value in zip(request.attachments[0::2], request.attachments[1::2])
        ]
        self._store.multi_put(items)
        return Response.success({"stored": len(items)})

    def _op_kv_multi_delete(self, request: Request) -> Response:
        keys = [retain(key) for key in request.attachments]
        existed = self._store.multi_delete(keys)
        return Response.success({"existed": [i for i, key in enumerate(keys) if key in existed]})

    # -- scans / sizing ------------------------------------------------------------

    def _op_kv_scan_prefix(self, request: Request) -> Response:
        """One server-side walk of ``prefix`` ∩ ``[lo, hi]``: cap, and ship only matches.

        There is no default item limit — the response is bounded by bytes
        (and any explicit ``limit``), so a typical interval arrives in one
        round trip; an oversized one sets ``truncated`` and the client
        resumes just past the last returned key.  The node walks key/size
        pairs first and fetches just the served values, so values outside
        the page never leave the backend at all.
        """
        if len(request.attachments) not in (2, 3):
            raise ProtocolError("kv_scan_prefix takes attachments [prefix, lo] or [prefix, lo, hi]")
        prefix, lo, *upper = (retain(blob) for blob in request.attachments)
        hi: Optional[bytes] = upper[0] if upper else None
        limit = request.args.get("limit")
        if limit is not None:
            limit = int(limit)
            if limit < 1:
                raise ProtocolError(f"kv_scan_prefix limit must be positive, got {limit}")
        keys_only = bool(request.args.get("keys_only", False))
        matched: List[bytes] = []
        sizes: List[int] = []
        page_bytes = 0
        truncated = False
        for key, value_length in self._store.scan_sizes(prefix, lo, hi):
            item_bytes = len(key) if keys_only else len(key) + value_length
            if (limit is not None and len(matched) == limit) or (
                matched and page_bytes + item_bytes > RESPONSE_BYTE_CAP
            ):
                truncated = True
                break
            matched.append(key)
            sizes.append(value_length)
            page_bytes += item_bytes
        if keys_only:
            return Response.success(
                {"num_items": len(matched), "truncated": truncated, "value_bytes": sizes},
                matched,
            )
        # All kv_ ops run under the dispatcher's store lock, so the values of
        # the keys matched above cannot vanish between the size walk and this
        # fetch; the .get guard below is belt-and-braces only.
        found = self._store.multi_get(matched) if matched else {}
        attachments = []
        num_items = 0
        for key in matched:
            value = found.get(key)
            if value is None:
                continue
            attachments.extend((key, value))
            num_items += 1
        return Response.success({"num_items": num_items, "truncated": truncated}, attachments)

    def _op_kv_delete_prefix(self, request: Request) -> Response:
        """Server-side bulk erase of one or more keyspaces (scan offload)."""
        if not request.attachments:
            raise ProtocolError("kv_delete_prefix requires at least one prefix attachment")
        prefixes = [retain(prefix) for prefix in request.attachments]
        for prefix in prefixes:
            if not prefix:
                raise ProtocolError("kv_delete_prefix refuses an empty prefix")
        deleted = self._store.delete_prefixes(prefixes)
        return Response.success({"deleted": int(deleted)})

    def _op_kv_size_bytes(self, request: Request) -> Response:
        return Response.success({"bytes": int(self._store.size_bytes())})


class StorageNodeServer:
    """One remote storage node: a local store behind the pipelined TCP wire.

    Reuses :class:`~repro.net.server.TimeCryptTCPServer` unchanged — the
    leader/followers serving threads, bounded handler slots, framing, and
    ``hello`` negotiation all come for free; only the dispatcher differs.  Stopping
    the server does *not* close the store (the store is the node's disk);
    restart the node on the same port with a fresh ``StorageNodeServer``
    around the same store and reconnecting clients resume where they were.
    """

    def __init__(
        self,
        store: KeyValueStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 4,
        credit_window: int = DEFAULT_CREDIT_WINDOW,
        bulk_queue_limit: int = DEFAULT_BULK_QUEUE_LIMIT,
        node_name: Optional[str] = None,
        tracing: bool = True,
    ) -> None:
        self._store = store
        self._dispatcher = StorageNodeDispatcher(store)
        # The storage tier runs the same scheduler and credit window as the
        # engine tier: kv_multi_put floods queue in the bounded bulk class
        # (typed sheds past the cap) while query fetches stay interactive.
        self._tcp = TimeCryptTCPServer(
            host=host,
            port=port,
            max_workers=max_workers,
            dispatcher=self._dispatcher,
            credit_window=credit_window,
            bulk_queue_limit=bulk_queue_limit,
            node_name=node_name,
            tracing=tracing,
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._tcp.address

    @property
    def store(self) -> KeyValueStore:
        return self._store

    def scheduler_stats(self) -> dict:
        """The transport scheduler's deterministic counters (sheds, depths)."""
        return self._tcp.scheduler_stats()

    def start(self) -> "StorageNodeServer":
        self._tcp.start()
        return self

    def stop(self) -> None:
        """Stop serving; the store and its contents stay untouched."""
        self._tcp.stop()

    def __enter__(self) -> "StorageNodeServer":
        return self.start()

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()
