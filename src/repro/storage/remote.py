"""A KeyValueStore client for a remote :class:`StorageNodeServer`.

:class:`RemoteKeyValueStore` implements the full
:class:`~repro.storage.kv.KeyValueStore` contract over the pipelined wire
protocol (the ``kv_*`` op family), so a
:class:`~repro.storage.cluster.StorageCluster` can use it as a node
``store_factory`` and replicate across real sockets.  Design points:

* **One batch = one round trip.**  ``multi_get``/``multi_put``/
  ``multi_delete`` ship the whole key set as a single ``kv_multi_*``
  request; a batch too large for one frame is split by payload size and the
  parts go out back-to-back through the transport's ``call_many`` — still a
  single wire round trip.  Combined with the cluster's per-node grouping, a
  cluster batch of n keys costs one round trip per owning node, not n·RF.
* **Streaming scans, filtered on the node.**  ``scan_prefix`` is a
  generator that streams the keyspace on demand without materializing it
  client-side or hitting the frame cap: it pulls ``kv_scan_prefix``
  *regions* of at most ``scan_page_size`` items (one round trip for a
  typical prefix, range filters applied on the node, so skipped keys never
  cross the wire).  ``delete_prefix`` is one ``kv_delete_prefix`` round
  trip whatever the keyspace size.
* **Failures are node outages.**  Connection refusal, timeouts, dropped
  sockets, transport-level protocol errors and malformed ``found`` /
  ``deferred`` / ``existed`` index lists all surface as
  :class:`~repro.exceptions.StorageError`, which is exactly what the
  cluster's ``_NODE_FAILURES`` mark-down/re-route/repair machinery treats
  as a downed node.  Typed remote errors raised *by* the store itself
  propagate unchanged.
* **Reconnect.**  The connection lives in a
  :class:`~repro.net.client.ConnectionSlot`: dialled lazily, discarded on
  transport failure and redialled once per operation, so a node restart
  heals transparently and wire counters run on across it.  Idempotent KV
  operations make the at-least-once retry safe; the one observable wrinkle
  is that a ``delete`` retried across a reconnect can report
  ``existed=False`` for a key its first, half-lost attempt removed.
* **Elastic membership.**  A client is cheap before its first operation
  (no socket until then), so ``StorageCluster.add_node`` can adopt a
  ``RemoteKeyValueStore`` for a node that is still booting; the handoff's
  first batch dials it.  ``decommission_node`` calls :meth:`close`, which
  only drops the connection — the detached node keeps its data.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import OverloadedError, ProtocolError, StorageError, TransportError
from repro.net.client import ConnectionSlot, _remote_error
from repro.net.messages import Request, Response, retain
from repro.obs.metrics import REGISTRY
from repro.storage.kv import KeyValueStore

#: Soft cap on one request's attachment payload; frames are hard-capped at
#: 64 MiB, so splitting at 32 MiB leaves ample room for headers and keys.
DEFAULT_MAX_REQUEST_BYTES = 32 * 1024 * 1024
#: Keys per kv_multi_get / kv_multi_delete part.
DEFAULT_MAX_KEYS_PER_REQUEST = 8192


class RemoteKeyValueStore(KeyValueStore):
    """The client half of a remote storage node (see module docstring)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        scan_page_size: int = 1024,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        max_keys_per_request: int = DEFAULT_MAX_KEYS_PER_REQUEST,
        overload_retries: int = 4,
        compression: bool = False,
        tracing: bool = False,
    ) -> None:
        if scan_page_size < 1:
            raise ValueError("scan_page_size must be positive")
        self._address = (host, port)
        self._scan_page_size = scan_page_size
        self._max_request_bytes = max_request_bytes
        self._max_keys_per_request = max_keys_per_request
        #: A reachable peer of the wrong tier (an engine server) is refused
        #: with the non-retryable ProtocolError: a configuration error, not
        #: an outage the cluster should mark down and redial.  Overload
        #: sheds still there after the transport's own ``overload_retries``
        #: surface as StorageError.  With ``tracing`` outbound kv_* requests
        #: carry trace contexts, so inside a traced engine handler their
        #: spans join the request's tree (see repro.obs.tracing).
        self._slot = ConnectionSlot(
            self._address,
            require="kv_multi_put",
            timeout=timeout,
            overload_retries=overload_retries,
            compression=compression,
            tracing=tracing,
        )
        #: Wire accounting shared by every connection the slot dials.
        self.wire_stats = self._slot.wire_stats
        self._metrics_key: Optional[str] = REGISTRY.register(
            f"store.remote.{host}:{port}", self.wire_stats
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    # -- connection management -----------------------------------------------------

    def connect(self) -> "RemoteKeyValueStore":
        """Eagerly dial the node (the first operation otherwise does it lazily)."""
        self._as_storage(self._slot.get)
        return self

    def ping(self) -> bool:
        return bool(self._call(Request("ping")).result.get("pong"))

    def close(self) -> None:
        """Drop the connection.  The store may be reused; the next op redials."""
        if self._metrics_key is not None:
            REGISTRY.unregister(self._metrics_key)
            self._metrics_key = None
        self._slot.close()

    # -- wire plumbing -------------------------------------------------------------

    def _as_storage(self, operation: Callable[..., Any], *args: Any) -> Any:
        """``operation(*args)`` with transport failures reported as node outages.

        Refused, reset, timed-out or unparseable peers become
        :class:`StorageError`, so the cluster marks the node down.  A
        :class:`ProtocolError` is deterministic — a frame past the 64 MiB
        cap, a peer of the wrong tier — and propagates unchanged: wrapping
        it would make the cluster mark a healthy node down and replay the
        same failure on every replica.
        """
        if self._metrics_key is None:  # reused after close(): re-attach the stats
            self._metrics_key = REGISTRY.register(
                f"store.remote.{self._address[0]}:{self._address[1]}", self.wire_stats
            )
        try:
            return operation(*args)
        except ProtocolError:
            raise
        except TransportError as exc:
            raise StorageError(f"storage node {self._address} unreachable: {exc}") from exc

    def _call(self, request: Request) -> Response:
        """One request, one round trip (see :meth:`_call_many`)."""
        return self._call_many([request])[0]

    def _call_many(self, requests: Sequence[Request]) -> List[Response]:
        """A request batch in one round trip; the slot redials once on transport loss.

        Typed errors the remote store raised propagate unchanged.
        """
        responses = self._as_storage(self._slot.call_many, requests)
        for response in responses:
            if not response.ok:
                error = _remote_error(response)
                if isinstance(error, OverloadedError):
                    # The node is still shedding after the client's own
                    # capped backoff retries: treat persistent overload
                    # like an outage so the cluster marks the node down
                    # and re-routes, instead of crashing the caller.
                    raise StorageError(
                        f"storage node {self._address} overloaded: {error}"
                    ) from error
                raise error
        return responses

    # -- KeyValueStore contract ----------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        response = self._call(Request("kv_get", {}, [key]))
        if not response.result.get("found"):
            return None
        return retain(response.attachments[0])

    def put(self, key: bytes, value: bytes) -> None:
        self._call(Request("kv_put", {}, [key, value]))

    def delete(self, key: bytes) -> bool:
        return bool(self._call(Request("kv_delete", {}, [key])).result.get("existed"))

    # -- batch primitives: one wire round trip per batch ---------------------------

    def _split(self, items: List, size_of: Callable) -> Iterator[List]:
        """Split a batch by item count and payload size (frame-cap safety)."""
        part: List = []
        part_bytes = 0
        for item in items:
            item_bytes = size_of(item)
            if part and (
                len(part) >= self._max_keys_per_request
                or part_bytes + item_bytes > self._max_request_bytes
            ):
                yield part
                part, part_bytes = [], 0
            part.append(item)
            part_bytes += item_bytes
        if part:
            yield part

    def _key_parts(self, keys: List[bytes]) -> Iterator[List[bytes]]:
        return self._split(keys, len)

    def multi_get(self, keys: Iterable[bytes]) -> Dict[bytes, Optional[bytes]]:
        materialized = list(keys)
        if not materialized:
            return {}
        result: Dict[bytes, Optional[bytes]] = {key: None for key in materialized}
        parts = list(self._key_parts(materialized))
        # The node byte-caps responses and defers the tail (see
        # ``kv_multi_get`` in storage/node.py); each retry wave re-requests
        # every deferred key in one further round trip.  A wave that defers
        # must serve a value, and nothing is both served and deferred, so
        # the loop terminates even against a hostile node.
        while parts:
            responses = self._call_many([Request("kv_multi_get", {}, part) for part in parts])
            deferred_keys: List[bytes] = []
            served = 0
            for part, response in zip(parts, responses):
                found = self._indices(response, "found", len(part))
                deferred = self._indices(response, "deferred", len(part), optional=True)
                if len(found) != len(response.attachments) or not set(found).isdisjoint(deferred):
                    raise StorageError(f"storage node {self._address} sent a malformed kv_multi_get")
                for index, value in zip(found, response.attachments):
                    result[part[index]] = retain(value)
                deferred_keys.extend(part[index] for index in deferred)
                served += len(found)
            if deferred_keys and not served:
                raise StorageError(f"storage node {self._address} deferred a wave without serving")
            parts = list(self._key_parts(deferred_keys)) if deferred_keys else []
        return result

    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        materialized = list(items)
        if not materialized:
            return
        self._call_many(
            [
                Request(
                    "kv_multi_put",
                    {},
                    [blob for key_value in part for blob in key_value],
                )
                for part in self._split(materialized, lambda item: len(item[0]) + len(item[1]))
            ]
        )

    def multi_delete(self, keys: Iterable[bytes]) -> Set[bytes]:
        materialized = list(keys)
        if not materialized:
            return set()
        parts = list(self._key_parts(materialized))
        responses = self._call_many(
            [Request("kv_multi_delete", {}, part) for part in parts]
        )
        existed: Set[bytes] = set()
        for part, response in zip(parts, responses):
            existed.update(part[index] for index in self._indices(response, "existed", len(part)))
        return existed

    def _indices(self, response: Response, field: str, bound: int, optional: bool = False) -> List[int]:
        """``response.result[field]``, checked: strictly increasing ints in ``[0, bound)``.

        Anything else is a broken or hostile node; :class:`StorageError` makes
        the cluster mark it down and read another replica.
        """
        result = response.result
        indices = result.get(field, [] if optional else None) if isinstance(result, dict) else None
        if isinstance(indices, list):
            previous = -1
            for index in indices:
                if type(index) is not int or not previous < index < bound:
                    break
                previous = index
            else:
                return indices
        raise StorageError(f"storage node {self._address} sent a malformed {field!r} index list")

    # -- scans / sizing ------------------------------------------------------------

    def _scan(
        self,
        prefix: bytes,
        after: Optional[bytes],
        keys_only: bool,
        lo: Optional[bytes] = None,
        hi: Optional[bytes] = None,
    ):
        """The ``kv_scan_prefix`` walk behind all scan flavours.

        Yields ``(key, value_length)`` pairs when ``keys_only`` else
        ``(key, value)`` pairs, optionally restricted to ``lo <= key <= hi``
        (filtered on the node).  ``scan_page_size`` bounds the items per
        round trip — laziness is part of the scan contract.
        """
        while True:
            args: Dict = {"limit": self._scan_page_size}
            attachments = [prefix]
            if after is not None:
                args["cursor"] = True
                attachments.append(after)
            if lo is not None and hi is not None:
                args["range"] = True
                attachments.extend((lo, hi))
            if keys_only:
                args["keys_only"] = True
            response = self._call(Request("kv_scan_prefix", args, attachments))
            # Scan results escape to the caller (and keys become cursors), so
            # pin them off the frame buffers here.
            blobs = [retain(blob) for blob in response.attachments]
            if keys_only:
                yield from zip(blobs, response.result.get("value_bytes", ()))
            else:
                yield from zip(blobs[0::2], blobs[1::2])
            if not response.result.get("truncated"):
                return
            if not blobs:
                raise ProtocolError("kv_scan_prefix returned a truncated empty region")
            after = blobs[-1] if keys_only else blobs[-2]

    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Stream ``(key, value)`` pairs lazily; one round trip per region."""
        return self._scan(prefix, None, keys_only=False)

    def scan_from(
        self, prefix: bytes, after: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        return self._scan(prefix, after, keys_only=False)

    def scan_range(self, prefix: bytes, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Range-filtered scan: the filter runs node-side, so only keys in
        ``[lo, hi]`` ever cross the wire."""
        return self._scan(prefix, None, keys_only=False, lo=lo, hi=hi)

    def scan_keys(self, prefix: bytes) -> Iterator[bytes]:
        """Stream only the keys under ``prefix`` — no value bytes on the wire."""
        return (key for key, _size in self._scan(prefix, None, keys_only=True))

    def scan_key_sizes(self, prefix: bytes) -> Iterator[Tuple[bytes, int]]:
        """Stream ``(key, stored_bytes)`` — sizes as integers, never values."""
        return (
            (key, len(key) + value_length)
            for key, value_length in self._scan(prefix, None, keys_only=True)
        )

    def scan_sizes_from(self, prefix: bytes, after: Optional[bytes] = None) -> Iterator[Tuple[bytes, int]]:
        """Cursor-resumed ``(key, value_length)`` pairs via keys-only scans."""
        return self._scan(prefix, after, keys_only=True)

    def keys_with_prefix(self, prefix: bytes) -> List[bytes]:
        return list(self.scan_keys(prefix))

    # -- bulk erase ----------------------------------------------------------------

    def delete_prefix(self, prefix: bytes, batch_size: int = 4096) -> int:
        return self.delete_prefixes([prefix])

    def delete_prefixes(self, prefixes: Iterable[bytes]) -> int:
        """Erase whole keyspaces in one ``kv_delete_prefix`` round trip."""
        materialized = list(prefixes)
        if not materialized:
            return 0
        response = self._call(Request("kv_delete_prefix", {}, materialized))
        return int(response.result["deleted"])

    def count_prefix(self, prefix: bytes) -> int:
        return sum(1 for _ in self.scan_keys(prefix))

    def size_bytes(self) -> int:
        return int(self._call(Request("kv_size_bytes")).result["bytes"])
