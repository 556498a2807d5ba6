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
* **Two streaming scans, filtered on the node.**  ``scan_prefix`` and
  ``scan_sizes`` walk the keys under a prefix in ``[lo, hi]`` on demand,
  without materializing the interval client-side or hitting the frame cap:
  each pulls ``kv_scan_prefix`` *pages* of at most :data:`SCAN_PAGE_SIZE`
  items (one round trip for a typical prefix; the node applies the bounds,
  so keys outside them never cross the wire), and ``scan_sizes`` pulls
  keys-only pages that carry value lengths, never values.  A truncated
  page resumes at ``lo = last_key + b"\\x00"``.  Every page is checked
  before it is yielded (see :meth:`RemoteKeyValueStore._scan`), so a lying
  node surfaces as :class:`~repro.exceptions.StorageError` instead of an
  endless walk.  ``delete_prefixes`` is one ``kv_delete_prefix`` round
  trip whatever the keyspace size.
* **Limits are module constants.**  :data:`SCAN_PAGE_SIZE`,
  :data:`MAX_REQUEST_BYTES` and :data:`MAX_KEYS_PER_REQUEST` are read at
  call time, not options; a test reaches the paging and splitting paths by
  patching them (as with the node's ``RESPONSE_BYTE_CAP``).
* **Failures are node outages.**  Connection refusal, timeouts, dropped
  sockets, transport-level protocol errors, malformed ``found`` /
  ``deferred`` / ``existed`` index lists and malformed scan pages all
  surface as :class:`~repro.exceptions.StorageError`, which is exactly
  what the cluster's ``_NODE_FAILURES`` mark-down/re-route/repair
  machinery treats as a downed node.  Typed remote errors raised *by* the
  store itself propagate unchanged.
* **Reconnect.**  The connection lives in a
  :class:`~repro.net.client.ConnectionSlot`: dialled lazily, discarded on
  transport failure and redialled once per operation, so a node restart
  heals transparently and wire counters run on across it.  Idempotent KV
  operations make the at-least-once retry safe; the one observable wrinkle
  is that a ``multi_delete`` retried across a reconnect can leave out of
  ``existed`` a key its first, half-lost attempt removed.
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

#: Items per ``kv_scan_prefix`` page (one round trip each).
SCAN_PAGE_SIZE = 1024
#: Soft cap on one request's attachment payload; frames are hard-capped at
#: 64 MiB, so splitting at 32 MiB leaves ample room for headers and keys.
MAX_REQUEST_BYTES = 32 * 1024 * 1024
#: Keys per kv_multi_get / kv_multi_delete part.
MAX_KEYS_PER_REQUEST = 8192


class RemoteKeyValueStore(KeyValueStore):
    """The client half of a remote storage node (see module docstring)."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        overload_retries: int = 4,
        tracing: bool = False,
    ) -> None:
        self._address = (host, port)
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

    # -- batch primitives: one wire round trip per batch ---------------------------

    def _split(self, items: List, size_of: Callable) -> Iterator[List]:
        """Split a batch by item count and payload size (frame-cap safety)."""
        part: List = []
        part_bytes = 0
        for item in items:
            item_bytes = size_of(item)
            if part and (
                len(part) >= MAX_KEYS_PER_REQUEST
                or part_bytes + item_bytes > MAX_REQUEST_BYTES
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
        self, prefix: bytes, lo: bytes, hi: Optional[bytes], keys_only: bool
    ) -> Iterator[Tuple[bytes, Any]]:
        """The ``kv_scan_prefix`` pager behind both scans; every page is checked.

        Yields ``(key, value_length)`` pairs when ``keys_only`` else
        ``(key, value)`` pairs, for keys under ``prefix`` in ``[lo, hi]``
        (filtered on the node).  :data:`SCAN_PAGE_SIZE` bounds the items per
        round trip — laziness is part of the scan contract — and a truncated
        page resumes at ``lo = last_key + b"\\x00"``.  A page is refused
        with :class:`StorageError` (the cluster marks the node down and reads
        another replica) unless its attachments pair up (a values page) or
        it carries one non-negative int length per key (a keys-only page),
        its keys strictly increase inside the prefix and ``[lo, hi]``, and it
        is non-empty when truncated: a lying node can neither loop the pager
        nor slip a foreign key into the result.
        """
        args: Dict[str, Any] = {"limit": SCAN_PAGE_SIZE}
        if keys_only:
            args["keys_only"] = True
        while True:
            bounds = [prefix, lo] if hi is None else [prefix, lo, hi]
            response = self._call(Request("kv_scan_prefix", args, bounds))
            result = response.result if isinstance(response.result, dict) else {}
            # Scan results escape to the caller (and keys become resume
            # points), so pin them off the frame buffers here.
            blobs = [retain(blob) for blob in response.attachments]
            if keys_only:
                keys, payloads = blobs, result.get("value_bytes")
                well_formed = (
                    isinstance(payloads, list)
                    and len(payloads) == len(keys)
                    and all(type(size) is int and size >= 0 for size in payloads)
                )
            else:
                keys, payloads = blobs[0::2], blobs[1::2]
                well_formed = len(blobs) % 2 == 0
            for key in keys:
                well_formed &= lo <= key and key.startswith(prefix) and (hi is None or key <= hi)
                lo = key + b"\x00"
            truncated = bool(result.get("truncated"))
            if not well_formed or (truncated and not keys):
                raise StorageError(f"storage node {self._address} sent a malformed kv_scan_prefix page")
            yield from zip(keys, payloads)
            if not truncated:
                return

    def scan_prefix(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Stream ``(key, value)`` pairs lazily; one round trip per page."""
        return self._scan(prefix, lo, hi, keys_only=False)

    def scan_sizes(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, int]]:
        """Stream ``(key, value_length)`` from keys-only pages — no value bytes on the wire."""
        return self._scan(prefix, lo, hi, keys_only=True)

    # -- bulk erase ----------------------------------------------------------------

    def delete_prefixes(self, prefixes: Iterable[bytes]) -> int:
        """Erase whole keyspaces in one ``kv_delete_prefix`` round trip."""
        materialized = list(prefixes)
        if not materialized:
            return 0
        response = self._call(Request("kv_delete_prefix", {}, materialized))
        return int(response.result["deleted"])

    def size_bytes(self) -> int:
        return int(self._call(Request("kv_size_bytes")).result["bytes"])
