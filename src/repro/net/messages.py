"""Request/response messages of the TimeCrypt wire protocol.

The protocol mirrors the server engine's API surface: stream lifecycle,
chunk ingest, raw range retrieval, statistical queries (single and
multi-stream), grant/envelope storage and pickup, and rollup.  Each write
verb has one form, the batch: one chunk or one grant is a batch of one.  A
second op family (``kv_*``) carries the raw key-value store contract for
remote storage nodes, so the same framing/pipelining serves both the engine
tier and the storage tier.  Each op is declared once, as a row of
:data:`OP_TABLE`; every op-name set a tier needs is derived from it.
``hello`` opens every connection: the server answers with its protocol
version, the operations its dispatcher supports and its capabilities (credit
window, tracing, routing table), so a client dialling the wrong tier finds
out without probing.  Messages are encoded as a JSON header plus optional
binary attachments:

``frame = varint(header_len) || header_json || attachments``

That is the only message form.  Payloads are ciphertext (the codecs squeeze
points before AES-GCM), so there is no frame compression: a frame carries
exactly its encoded message, and a ``header_len`` of 0 is malformed like any
other bad header.

Binary payloads (encrypted chunks, sealed tokens) travel as attachments so
they are never base64-inflated; the header references them by index and
length.  This keeps the format debuggable (the header is readable JSON, as a
protobuf text dump would be) while staying compact where it matters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.crypto.heac import HEACCiphertext
from repro.exceptions import ProtocolError
from repro.net.framing import MEMORY_COUNTERS
from repro.server.query_executor import MultiStreamAggregate, StatQueryResult
from repro.util.encoding import decode_varint, encode_varint

Buffer = Union[bytes, bytearray, memoryview]


class Op(NamedTuple):
    """One wire operation, declared once in :data:`OP_TABLE`."""

    name: str
    #: Scheduler class, ``"bulk"`` or ``"interactive"``.
    klass: str
    #: ``"engine"`` (served by an engine, proxied by the router, routed by the
    #: sharded client), ``"kv"`` (storage node only) or ``"local"`` (answered
    #: by every tier itself, lock-free, never proxied, never shed).
    scope: str
    #: Where an engine op names its stream(s): a ``uuid`` / ``uuids`` arg,
    #: the ``grants`` targets, or the first ``chunk`` / ``metadata``
    #: attachment.  ``None``: the op addresses no stream.
    route: Optional[str] = None


#: Every wire operation, in ``hello`` advertisement order.
#:
#: Bulk ops move bulk payloads (ingest batches, grant bursts, prefix deletes,
#: repair scans); the server's two-class scheduler drains the classes from
#: separate bounded queues, so a small ``stat_range`` never waits behind a
#: whole ingest burst.  ``kv_multi_get`` stays interactive because query
#: fetches (index covers, chunk reads) ride on it and are byte-capped.  The
#: scrape ops (``stats``: the process metrics registry, ``trace_dump``: the
#: node's span ring buffer) are local, so an operator can scrape a node that
#: is drowning in bulk traffic.
#:
#: The ``kv_*`` family is the raw :class:`~repro.storage.kv.KeyValueStore`
#: contract over the same framing (wire shapes in :mod:`repro.storage.node`):
#: keys and values are opaque bytes and always travel as attachments.
OP_TABLE: Dict[str, Op] = {
    row[0]: Op(*row)
    for row in (
        # name               class          scope     route
        ("hello",            "interactive", "local"),
        ("create_stream",    "interactive", "engine", "metadata"),
        ("delete_stream",    "bulk",        "engine", "uuid"),
        ("insert_chunks",    "bulk",        "engine", "chunk"),
        ("get_range",        "interactive", "engine", "uuid"),
        ("delete_range",     "bulk",        "engine", "uuid"),
        ("stat_range",       "interactive", "engine", "uuid"),
        ("stat_range_multi", "interactive", "engine", "uuids"),
        ("stat_series",      "interactive", "engine", "uuid"),
        ("rollup_stream",    "bulk",        "engine", "uuid"),
        ("stream_head",      "interactive", "engine", "uuid"),
        ("stream_metadata",  "interactive", "engine", "uuid"),
        ("put_grants",       "bulk",        "engine", "grants"),
        ("fetch_grants",     "interactive", "engine", "uuid"),
        ("fetch_envelopes",  "interactive", "engine", "uuid"),
        ("put_envelopes",    "bulk",        "engine", "uuid"),
        ("routing_table",    "interactive", "local"),
        ("ping",             "interactive", "local"),
        ("stats",            "interactive", "local"),
        ("trace_dump",       "interactive", "local"),
        ("kv_multi_get",     "interactive", "kv"),
        ("kv_multi_put",     "bulk",        "kv"),
        ("kv_multi_delete",  "bulk",        "kv"),
        ("kv_scan_prefix",   "bulk",        "kv"),
        ("kv_delete_prefix", "bulk",        "kv"),
        ("kv_size_bytes",    "interactive", "kv"),
    )
}

OPERATIONS = tuple(OP_TABLE)
KV_OPERATIONS = tuple(name for name, op in OP_TABLE.items() if op.scope == "kv")
BULK_OPERATIONS = frozenset(name for name, op in OP_TABLE.items() if op.klass == "bulk")


def classify_operation(operation: Optional[str]) -> str:
    """``"bulk"`` or ``"interactive"`` — the scheduler class of an operation.

    Unknown or unparseable operations classify interactive so they reach the
    dispatcher, which answers them with the proper typed error.
    """
    op = OP_TABLE.get(operation)
    return op.klass if op is not None else "interactive"


def is_local(operation: Optional[str]) -> bool:
    """Whether every tier answers ``operation`` itself (see :attr:`Op.scope`)."""
    op = OP_TABLE.get(operation)
    return op is not None and op.scope == "local"


# -- stat / aggregate codec (engine dispatcher, router split, clients) ----------


def stat_to_json(result: StatQueryResult) -> Dict[str, Any]:
    return {
        "stream_uuid": result.stream_uuid,
        "window_start": result.window_start,
        "window_end": result.window_end,
        "cells": [
            {"value": cell.value, "start": cell.window_start, "end": cell.window_end}
            for cell in result.cells
        ],
        "component_names": list(result.component_names),
        "num_index_nodes": result.num_index_nodes,
    }


def stat_from_json(payload: Dict[str, Any]) -> StatQueryResult:
    return StatQueryResult(
        stream_uuid=payload["stream_uuid"],
        window_start=payload["window_start"],
        window_end=payload["window_end"],
        cells=tuple(
            HEACCiphertext(value=cell["value"], window_start=cell["start"], window_end=cell["end"])
            for cell in payload["cells"]
        ),
        component_names=tuple(payload["component_names"]),
        num_index_nodes=payload["num_index_nodes"],
    )


def aggregate_to_json(aggregate: MultiStreamAggregate) -> Dict[str, Any]:
    return {
        "values": list(aggregate.values),
        "component_names": list(aggregate.component_names),
        "per_stream_intervals": [list(item) for item in aggregate.per_stream_intervals],
    }


def aggregate_from_json(payload: Dict[str, Any]) -> MultiStreamAggregate:
    return MultiStreamAggregate(
        values=tuple(payload["values"]),
        component_names=tuple(payload["component_names"]),
        per_stream_intervals=tuple(
            (item[0], item[1], item[2]) for item in payload["per_stream_intervals"]
        ),
    )


def encode_message_segments(
    header: Dict[str, Any], attachments: Sequence[Buffer]
) -> List[Buffer]:
    """Encode a message as ``[varint(len) + header_json, *attachments]``.

    Attachments pass through by reference — nothing is concatenated.  Feed
    the result to :func:`repro.net.framing.encode_frame_segments_v2` and
    :func:`repro.net.framing.write_vectored` for a copy-free send path.
    """
    header = dict(header)
    header["attachment_lengths"] = [len(blob) for blob in attachments]
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    return [encode_varint(len(header_bytes)) + header_bytes, *attachments]


def _decode_message(payload: Buffer) -> tuple[Dict[str, Any], List[Buffer]]:
    """Decode ``varint(header_len) || header_json || attachments``.

    When ``payload`` is a memoryview over a dedicated frame buffer, the
    attachments come back as sub-views — no copies.  Anything that keeps an
    attachment beyond the request's lifetime must go through
    :func:`retain`.  Header lengths and attachment lengths are bounds-checked
    against the actual payload before any allocation happens.
    """
    try:
        header_len, pos = decode_varint(payload, 0)
        if header_len > len(payload) - pos:
            raise ProtocolError(f"header length {header_len} exceeds the {len(payload)}-byte payload")
        header = json.loads(bytes(payload[pos : pos + header_len]).decode("utf-8"))
        pos += header_len
        lengths = header.get("attachment_lengths", [])
        if not isinstance(lengths, list):
            raise ProtocolError("attachment_lengths must be a list")
        attachments: List[Buffer] = []
        copied = False
        for length in lengths:
            if not isinstance(length, int) or isinstance(length, bool) or length < 0:
                raise ProtocolError(f"invalid attachment length {length!r}")
            if length > len(payload) - pos:
                raise ProtocolError("truncated attachment")
            attachments.append(payload[pos : pos + length])
            if length and not isinstance(payload, memoryview):
                copied = True
            pos += length
        if copied:
            MEMORY_COUNTERS.payload_copies += 1
        return header, attachments
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise ProtocolError("malformed protocol message") from exc


def retain(blob: Buffer) -> bytes:
    """Materialize an attachment that outlives its request.

    Zero-copy decode hands out memoryviews over the frame buffer; any code
    that *stores* an attachment (kv values, sealed tokens, envelopes) or
    keys a dict on it must own real bytes.  Every such boundary calls this —
    it is the explicit copy-on-retain audit point.
    """
    if isinstance(blob, bytes):
        return blob
    return bytes(blob)


@dataclass
class Request:
    """A client request: operation name, JSON-safe arguments, binary attachments."""

    operation: str
    args: Dict[str, Any] = field(default_factory=dict)
    attachments: List[Buffer] = field(default_factory=list)
    #: Optional trace context ``(trace_id, parent_span_id)``.  Serialized as a
    #: ``trace`` header key only when set, so untraced requests are
    #: byte-identical to the pre-tracing wire form; servers that did not
    #: negotiate ``tracing`` in ``hello`` ignore the key (``decode``
    #: tolerates unknown header keys by construction).
    trace: Optional[Tuple[str, str]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.operation, str) or self.operation not in OP_TABLE:
            raise ProtocolError(f"unknown operation '{self.operation}'")

    def _header(self) -> Dict[str, Any]:
        header: Dict[str, Any] = {"op": self.operation, "args": self.args}
        if self.trace is not None:
            header["trace"] = [self.trace[0], self.trace[1]]
        return header

    def encode(self) -> bytes:
        return b"".join(self.encode_segments())

    def encode_segments(self) -> List[Buffer]:
        """Segment form for the vectored send path — attachments uncopied."""
        return encode_message_segments(self._header(), self.attachments)

    @staticmethod
    def decode(payload: Buffer) -> "Request":
        header, attachments = _decode_message(payload)
        if "op" not in header:
            raise ProtocolError("request missing operation")
        trace = header.get("trace")
        if (
            not isinstance(trace, list)
            or len(trace) != 2
            or not all(isinstance(part, str) for part in trace)
        ):
            trace = None
        return Request(
            operation=header["op"],
            args=header.get("args", {}),
            attachments=attachments,
            trace=(trace[0], trace[1]) if trace is not None else None,
        )


@dataclass
class Response:
    """A server response: success flag, JSON-safe result, binary attachments."""

    ok: bool
    result: Dict[str, Any] = field(default_factory=dict)
    attachments: List[Buffer] = field(default_factory=list)
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: Flow-control credits returned to the sender with this response.  A
    #: server that advertised a credit window in ``hello`` piggybacks one
    #: grant per answered frame here; clients without flow control ignore
    #: the field (``decode`` tolerates unknown header keys by construction).
    credit_grant: Optional[int] = None

    def _header(self) -> Dict[str, Any]:
        header: Dict[str, Any] = {"ok": self.ok, "result": self.result}
        if self.error is not None:
            header["error"] = self.error
            header["error_type"] = self.error_type or "TimeCryptError"
        if self.credit_grant:
            header["credits"] = int(self.credit_grant)
        return header

    def encode(self) -> bytes:
        return b"".join(self.encode_segments())

    def encode_segments(self) -> List[Buffer]:
        """Segment form for the vectored send path — attachments uncopied."""
        return encode_message_segments(self._header(), self.attachments)

    @staticmethod
    def decode(payload: Buffer) -> "Response":
        header, attachments = _decode_message(payload)
        credits = header.get("credits")
        return Response(
            ok=bool(header.get("ok", False)),
            result=header.get("result", {}),
            attachments=attachments,
            error=header.get("error"),
            error_type=header.get("error_type"),
            credit_grant=int(credits) if isinstance(credits, int) and credits > 0 else None,
        )

    @staticmethod
    def success(result: Optional[Dict[str, Any]] = None, attachments: Optional[List[bytes]] = None) -> "Response":
        return Response(ok=True, result=result or {}, attachments=attachments or [])

    @staticmethod
    def failure(error: Exception) -> "Response":
        return Response(ok=False, error=str(error), error_type=type(error).__name__)


class ShardRoutingTable:
    """The engine-shard routing capability advertised in ``hello``.

    Streams are sharded across engine processes by consistent-hashing the
    stream uuid onto the named engines (the same
    :class:`~repro.storage.partitioner.ConsistentHashRing` machinery the
    storage tier places keys with), so client and server agree on ownership
    by construction — the table is just ``(name, host, port)`` triples plus
    an ``epoch`` that increases on every membership change.  A client that
    learned the table at ``hello`` routes stream ops straight to the owner
    with no router hop; a client holding a stale epoch gets a typed
    ``wrong_shard`` redirect carrying the answering engine's epoch and
    refreshes.  Tables are immutable: membership changes produce a *new*
    table (epoch + 1), so concurrent readers never observe a half-updated
    topology.
    """

    def __init__(
        self,
        engines: Any = (),
        epoch: int = 0,
        virtual_tokens: int = 64,
    ) -> None:
        self._engines: Dict[str, tuple[str, int]] = {}
        for name, host, port in engines:
            if name in self._engines:
                raise ProtocolError(f"duplicate engine shard '{name}' in routing table")
            self._engines[str(name)] = (str(host), int(port))
        self._epoch = int(epoch)
        self._virtual_tokens = int(virtual_tokens)
        self._ring: Optional[Any] = None

    # -- introspection ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def virtual_tokens(self) -> int:
        return self._virtual_tokens

    @property
    def engine_names(self) -> List[str]:
        return sorted(self._engines)

    def __len__(self) -> int:
        return len(self._engines)

    def address_of(self, name: str) -> tuple[str, int]:
        try:
            return self._engines[name]
        except KeyError:
            raise ProtocolError(f"unknown engine shard '{name}'") from None

    def owner_of(self, stream_uuid: str) -> str:
        """The engine shard owning ``stream_uuid`` under this table."""
        if not self._engines:
            raise ProtocolError("the routing table has no engine shards")
        if self._ring is None:
            # Deferred import: messages is the bottom of the net layer and
            # the ring only pulls in repro.exceptions, so this cannot cycle —
            # but tables are decoded far more often than they place streams.
            from repro.storage.partitioner import ConsistentHashRing

            self._ring = ConsistentHashRing(sorted(self._engines), virtual_tokens=self._virtual_tokens)
        return self._ring.primary(stream_uuid.encode("utf-8"))

    # -- evolution (immutable: each change returns a new table, epoch + 1) -----

    def _entries(self) -> List[tuple[str, str, int]]:
        return [(name, host, port) for name, (host, port) in sorted(self._engines.items())]

    def with_engines(self, engines: Any, epoch: Optional[int] = None) -> "ShardRoutingTable":
        """A new table with this membership replaced (epoch bumped)."""
        return ShardRoutingTable(
            engines,
            epoch=self._epoch + 1 if epoch is None else epoch,
            virtual_tokens=self._virtual_tokens,
        )

    def with_engine(self, name: str, host: str, port: int) -> "ShardRoutingTable":
        if name in self._engines:
            raise ProtocolError(f"engine shard '{name}' already in the routing table")
        return self.with_engines(self._entries() + [(name, host, port)])

    def without_engine(self, name: str) -> "ShardRoutingTable":
        if name not in self._engines:
            raise ProtocolError(f"unknown engine shard '{name}'")
        return self.with_engines([entry for entry in self._entries() if entry[0] != name])

    # -- wire form -------------------------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form carried in ``hello`` and ``routing_table`` responses."""
        return {
            "epoch": self._epoch,
            "virtual_tokens": self._virtual_tokens,
            "engines": [
                {"name": name, "host": host, "port": port}
                for name, host, port in self._entries()
            ],
        }

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "ShardRoutingTable":
        try:
            return ShardRoutingTable(
                engines=[
                    (entry["name"], entry["host"], int(entry["port"]))
                    for entry in payload.get("engines", [])
                ],
                epoch=int(payload.get("epoch", 0)),
                virtual_tokens=int(payload.get("virtual_tokens", 64)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed routing-table payload: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ShardRoutingTable(epoch={self._epoch}, engines={self.engine_names})"
