"""The network client: a pipelined remote ServerEngine proxy.

:class:`RemoteServerClient` speaks the framed wire protocol to a
:class:`~repro.net.server.TimeCryptTCPServer` and exposes the same method
surface as :class:`~repro.server.engine.ServerEngine`, so the
:class:`~repro.core.timecrypt.TimeCrypt` facade and the consumer client work
unchanged whether the server is in-process or across the network.

Transport model: requests are matched to responses through a correlation-id → pending-call table, so any number of
requests can be in flight on one connection and responses may arrive in any
order.  There is no reader thread — *the thread that needs the bytes reads
the socket*: a caller waiting for its response (or for flow-control
credits) that finds nobody reading takes the **reader role**, resolves
whatever frames arrive (its own or other callers'), and hands the role to
one still-waiting caller when it is done.  A single caller therefore does
send → recv → decode on its own thread with no wake-up at all.  On top of
that sit three calling styles:

* ``_call`` — write one request, wait for its future (one round trip);
* :meth:`call_many` — write a whole batch of requests back-to-back in one
  vectored write, then wait for all futures: N requests, **one** round trip.
  It is :meth:`send_many` followed by the handle's ``result()``, so a caller
  can send batches to several peers before awaiting any of them;
* :meth:`pipeline` — a context manager that records ServerEngine-shaped
  calls as deferred handles and flushes them as one batch on exit, so
  heterogeneous bursts (grant pickups, range reads, stat queries) also
  collapse into one round trip.

Each ServerEngine-shaped method is written once, in ``_EngineCalls``: it
builds its request and names the one decoder for the answer, and
:class:`RemoteServerClient`, :class:`ShardedServerClient` (which sends
through :class:`ShardRoutes`, the routed batch the router proxies with too)
and :class:`RequestPipeline` differ only in how they carry the pair.  The decoders are where a hostile server's answers are
refused: a malformed one is a typed :class:`~repro.exceptions.ProtocolError`,
and every blob a caller can keep is retained off the frame buffer.

Every connection opens with one synchronous ``hello``; a peer that hangs
up on it, answers something unparseable, or does not advertise protocol 2
and an operation list fails the constructor with a typed
:class:`~repro.exceptions.TransportError` / :class:`~repro.exceptions.ProtocolError`
(and the socket closed) — there is no second dial and no other wire to fall
back to.  Redialling is the job of :class:`ConnectionSlot`, the one holder
of every outbound connection (client → router → engines → storage nodes).
:class:`WireStats` counts requests and round trips, which is what the
network benchmarks assert against.

Two backpressure mechanisms ride on the transport (see
:mod:`repro.net.server`): servers advertise a per-connection **credit
window** in ``hello`` and return one credit per response, and the client
blocks frame submission on the window (``flow_control=False`` floods, the
way a hostile peer would); a server shedding under load answers with a typed
``overloaded`` error, which the client retries with capped exponential
backoff (``overload_retries``) before surfacing
:class:`~repro.exceptions.OverloadedError` to the caller.
"""

from __future__ import annotations

import itertools
import logging
import socket
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import REGISTRY
from repro.obs.tracing import SPANS, current_context, new_span_id, new_trace_id
from repro.exceptions import (
    ChunkError,
    OverloadedError,
    ProtocolError,
    QueryError,
    TimeCryptError,
    TransportError,
)
from repro.net.framing import (
    HEADER_BYTES,
    PROTOCOL_VERSION,
    FrameReader,
    encode_frame_segments_v2,
    write_vectored,
)
from repro.net.messages import (
    OP_TABLE,
    Request,
    Response,
    ShardRoutingTable,
    aggregate_from_json,
    aggregate_to_json,
    retain,
    stat_from_json,
)
from repro.server.engine import _metadata_from_json, _metadata_to_json
from repro.server.query_executor import MultiStreamAggregate, StatQueryResult
from repro.timeseries.serialization import (
    EncryptedChunk,
    decode_encrypted_chunk,
    encode_encrypted_chunk,
    peek_chunk_stream_uuid,
)
from repro.timeseries.stream import StreamMetadata
from repro.util.blocking import before_blocking
from repro.util.timeutil import TimeRange

logger = logging.getLogger(__name__)

#: Upper bound (seconds) on the backoff before re-sending a shed request.
OVERLOAD_BACKOFF_CAP_S = 0.25

#: Exception classes re-raised by name when the server reports them.
_ERROR_TYPES: Dict[str, type] = {}


def _register_error_types() -> None:
    """Index the full TimeCryptError hierarchy (grandchildren included)."""
    pending = [TimeCryptError]
    while pending:
        cls = pending.pop()
        _ERROR_TYPES[cls.__name__] = cls
        pending.extend(cls.__subclasses__())


_register_error_types()


def _remote_error(response: Response) -> TimeCryptError:
    error_cls = _ERROR_TYPES.get(response.error_type or "", TimeCryptError)
    error = error_cls(response.error or "remote error")
    if isinstance(error, OverloadedError) and isinstance(response.result, dict):
        hint = response.result.get("retry_after_ms")
        if isinstance(hint, (int, float)) and hint > 0:
            error.retry_after_ms = int(hint)
    return error


def _raise_remote(response: Response) -> None:
    raise _remote_error(response)


def _is_overloaded(response: Response) -> bool:
    return (not response.ok) and response.error_type == "OverloadedError"


@dataclass
class WireStats:
    """Client-side wire accounting.

    ``round_trips`` counts *wait points*: one per single call and one per
    flushed pipeline/batch, however many requests it carried.  This is the
    quantity that maps to network latency and that ``BENCH_net.json``
    tracks; ``requests_sent`` is the op count for computing batching ratios.
    """

    requests_sent: int = 0
    responses_received: int = 0
    round_trips: int = 0
    batches_sent: int = 0
    #: Times frame submission found the credit window empty and had to wait.
    credit_stalls: int = 0
    #: Requests re-sent after the server shed them with a typed ``overloaded``.
    overload_retries: int = 0
    #: Wire bytes written / read (frame headers included).
    bytes_sent: int = 0
    bytes_received: int = 0
    #: Vectored-send bookkeeping: batches shipped through ``write_vectored``
    #: and small segments it merged into a single iovec.
    vectored_writes: int = 0
    frames_coalesced: int = 0

    def reset(self) -> None:
        for counter in fields(self):
            setattr(self, counter.name, 0)


class _SummedWireStats(WireStats):
    """A snapshot sum of several connections' counters; ``reset()`` zeroes them all."""

    def __init__(self, parts: List[WireStats]) -> None:
        super().__init__(*(sum(getattr(part, counter.name) for part in parts) for counter in fields(WireStats)))
        self._parts = parts

    def reset(self) -> None:
        super().reset()
        for part in self._parts:
            part.reset()


class _CreditGate:
    """The client half of credit-based flow control.

    Initialised from the window the server advertised in ``hello``; every
    accepted frame costs one credit and every response returns the credits
    the server piggybacked.  ``available`` can never go negative (credits
    are taken under the lock, at most what is there) and never exceeds the
    window (grants are clamped, so refunds after a connection failure
    cannot inflate it).  The gate never waits by itself: a sender that finds
    it empty waits in :meth:`RemoteServerClient._drive`, reading the socket
    if nobody else is — the grants it needs arrive on that socket.
    """

    def __init__(self, window: int) -> None:
        self._window = max(1, int(window))
        self._available = self._window
        self._lock = threading.Lock()

    @property
    def window(self) -> int:
        return self._window

    @property
    def available(self) -> int:
        with self._lock:
            return self._available

    def take(self, upto: int) -> int:
        """Take up to ``upto`` (at least one) free credits; 0 if none are free."""
        with self._lock:
            taken = min(max(1, int(upto)), self._available)
            self._available -= taken
            return taken

    def grant(self, count: int) -> bool:
        """Return ``count`` credits; True if that refilled an empty window."""
        if count <= 0:
            return False
        with self._lock:
            was_empty = self._available <= 0
            self._available = min(self._window, self._available + int(count))
            return was_empty


class _PendingCall:
    """One in-flight request, resolved by whichever thread holds the reader role.

    Future-shaped (``done()`` / ``result()``) so callers read it the way
    they read a ``concurrent.futures.Future`` — except that ``result()``
    does not park on someone else's thread: it drives the socket itself
    when nobody is reading (see :meth:`RemoteServerClient._drive`).
    """

    __slots__ = ("_client", "_correlation_id", "_response", "_error", "_waiter")

    def __init__(self, client: "RemoteServerClient", correlation_id: int) -> None:
        self._client = client
        self._correlation_id = correlation_id
        self._response: Optional[Response] = None
        self._error: Optional[Exception] = None
        #: Set (under the client's pending lock) while the awaiting thread is
        #: parked behind another reader; the resolver signals it.
        self._waiter: Optional[threading.Event] = None

    def done(self) -> bool:
        return self._response is not None or self._error is not None

    def result(self, timeout: Optional[float] = None) -> Response:
        return self._client._await(self, timeout)


class SentBatch:
    """A request batch on the wire, returned by :meth:`RemoteServerClient.send_many`."""

    __slots__ = ("_client", "_requests", "_calls", "_trace")

    def __init__(
        self,
        client: "RemoteServerClient",
        requests: Sequence[Request],
        calls: List[_PendingCall],
        trace: Optional[Tuple[List[Optional[Dict[str, Any]]], int]],
    ) -> None:
        self._client = client
        self._requests = requests
        self._calls = calls
        self._trace = trace

    def result(self) -> List[Response]:
        """Await the responses (in request order), re-sending overload sheds.

        Per-request errors stay inside their :class:`Response`; only
        transport trouble raises.  The batch's trace spans close here.
        """
        client = self._client
        try:
            responses = [client._await(call) for call in self._calls]
            responses = client._retry_overloaded(list(self._requests), responses)
        except Exception as exc:
            client._finish_trace(self._trace, error=exc)
            raise
        client._finish_trace(self._trace, responses=responses)
        return responses


#: Turns one engine answer into the value its ServerEngine method returns.
Decoder = Callable[[Response], Any]


class PipelineResult:
    """A deferred result handle returned by :class:`RequestPipeline` methods."""

    def __init__(self, decoder: Decoder) -> None:
        self._decoder = decoder
        self._response: Optional[Response] = None
        self._error: Optional[Exception] = None
        self._resolved = False

    def _resolve(self, response: Response) -> None:
        self._response = response
        self._resolved = True

    def _fail(self, error: Exception) -> None:
        self._error = error
        self._resolved = True

    def result(self) -> Any:
        """The decoded response; raises the remote (or transport) error on failure."""
        if not self._resolved:
            raise ProtocolError("pipeline result read before the pipeline was flushed")
        if self._error is not None:
            raise self._error
        assert self._response is not None
        if not self._response.ok:
            _raise_remote(self._response)
        return self._decoder(self._response)


# -- answer decoders, one per answer shape ---------------------------------------------
#
# The server enforces nothing, so refusing a malformed answer is the client's
# job.  Each decoder is the one place its answer shape is checked, for every
# calling style and the cross-shard splits: a malformed answer raises
# ProtocolError (never a bare KeyError / IndexError or a silently truncated
# result), and every blob a caller may keep is retained off the frame buffer.


def _answer_decoder(decode: Decoder) -> Decoder:
    """``decode`` with any lookup / conversion failure reported as a ProtocolError."""

    def checked(response: Response) -> Any:
        try:
            return decode(response)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed engine answer: {type(exc).__name__}: {exc}") from exc

    return checked


def _int_result(key: str) -> Decoder:
    return _answer_decoder(lambda response: int(response.result[key]))


_decode_nothing = _answer_decoder(lambda _response: None)
_decode_pong = _answer_decoder(lambda response: bool(response.result.get("pong")))
_decode_head = _int_result("head")
_decode_window_index = _int_result("window_index")
_decode_deleted = _int_result("deleted")
decode_stat = _answer_decoder(lambda response: stat_from_json(response.result["stat"]))
_decode_series = _answer_decoder(lambda response: [stat_from_json(item) for item in response.result["series"]])
_decode_aggregate = _answer_decoder(lambda response: aggregate_from_json(response.result))
_decode_blobs = _answer_decoder(lambda response: [retain(blob) for blob in response.attachments])


@_answer_decoder
def _decode_chunks(response: Response) -> List[EncryptedChunk]:
    if int(response.result["num_chunks"]) != len(response.attachments):
        raise ProtocolError("get_range answer does not carry one attachment per chunk")
    try:
        return [decode_encrypted_chunk(blob) for blob in response.attachments]
    except ChunkError as exc:
        raise ProtocolError(f"malformed chunk in a get_range answer: {exc}") from exc


@_answer_decoder
def _decode_metadata(response: Response) -> StreamMetadata:
    if len(response.attachments) != 1:
        raise ProtocolError("a stream_metadata answer carries exactly one attachment")
    return _metadata_from_json(response.attachments[0])


@_answer_decoder
def _decode_envelopes(response: Response) -> Dict[int, bytes]:
    windows = response.result["windows"]
    if len(windows) != len(response.attachments) or not all(isinstance(window, int) for window in windows):
        raise ProtocolError("fetch_envelopes answer does not pair each window with one envelope")
    return dict(zip(windows, map(retain, response.attachments)))


def decode_grant_ids(count: int) -> Decoder:
    """The decoder for a ``put_grants`` answer to ``count`` grants."""

    @_answer_decoder
    def decode(response: Response) -> List[int]:
        grant_ids = [int(grant_id) for grant_id in response.result["grant_ids"]]
        if len(grant_ids) != count:
            raise ProtocolError(f"put_grants answered {len(grant_ids)} grant ids for {count} grants")
        return grant_ids

    return decode


# -- request builders shared with the splits ---------------------------------------------


def _range_args(stream_uuid: str, time_range: TimeRange) -> Dict[str, Any]:
    return {"uuid": stream_uuid, "start": time_range.start, "end": time_range.end}


def stat_range_request(stream_uuid: str, time_range: TimeRange) -> Request:
    return Request("stat_range", _range_args(stream_uuid, time_range))


class _EngineCalls:
    """The ServerEngine-shaped wire surface, each method written once.

    Every method builds its :class:`Request` and hands it, with the one
    decoder for its answer, to ``_engine_call(stream_uuid, request, decode)``
    — the only thing the calling styles implement.
    :class:`RemoteServerClient` sends and decodes, :class:`ShardedServerClient`
    routes by ``stream_uuid`` to the owning shard, and
    :class:`RequestPipeline` defers both, so its methods return
    :class:`PipelineResult` handles instead of values.
    """

    def _engine_call(self, stream_uuid: Optional[str], request: Request, decode: Decoder) -> Any:
        raise NotImplementedError

    def ping(self) -> bool:
        return self._engine_call(None, Request("ping"), _decode_pong)

    def create_stream(self, metadata: StreamMetadata) -> None:
        request = Request("create_stream", {}, [_metadata_to_json(metadata)])
        return self._engine_call(metadata.uuid, request, _decode_nothing)

    def delete_stream(self, stream_uuid: str) -> None:
        return self._engine_call(stream_uuid, Request("delete_stream", {"uuid": stream_uuid}), _decode_nothing)

    def stream_metadata(self, stream_uuid: str) -> StreamMetadata:
        return self._engine_call(stream_uuid, Request("stream_metadata", {"uuid": stream_uuid}), _decode_metadata)

    def stream_head(self, stream_uuid: str) -> int:
        return self._engine_call(stream_uuid, Request("stream_head", {"uuid": stream_uuid}), _decode_head)

    def rollup_stream(self, stream_uuid: str, resolution_windows: int, before_time: Optional[int] = None) -> int:
        args = {"uuid": stream_uuid, "resolution_windows": resolution_windows, "before_time": before_time}
        return self._engine_call(stream_uuid, Request("rollup_stream", args), _decode_deleted)

    def insert_chunk(self, chunk: EncryptedChunk) -> int:
        """One chunk, sent as a batch of one (``TimeCrypt``'s per-chunk writer sink)."""
        return self.insert_chunks([chunk])

    def insert_chunks(self, chunks: Sequence[EncryptedChunk]) -> int:
        """Bulk ingest over one round trip; returns the first appended window index."""
        if not chunks:
            raise ProtocolError("insert_chunks requires at least one chunk")
        request = Request("insert_chunks", {}, [encode_encrypted_chunk(chunk) for chunk in chunks])
        return self._engine_call(chunks[0].stream_uuid, request, _decode_window_index)

    def get_range(self, stream_uuid: str, time_range: TimeRange) -> List[EncryptedChunk]:
        request = Request("get_range", _range_args(stream_uuid, time_range))
        return self._engine_call(stream_uuid, request, _decode_chunks)

    def delete_range(self, stream_uuid: str, time_range: TimeRange) -> int:
        request = Request("delete_range", _range_args(stream_uuid, time_range))
        return self._engine_call(stream_uuid, request, _decode_deleted)

    def stat_range(self, stream_uuid: str, time_range: TimeRange) -> StatQueryResult:
        return self._engine_call(stream_uuid, stat_range_request(stream_uuid, time_range), decode_stat)

    def stat_series(self, stream_uuid: str, time_range: TimeRange, granularity_windows: int) -> List[StatQueryResult]:
        args = {**_range_args(stream_uuid, time_range), "granularity_windows": granularity_windows}
        return self._engine_call(stream_uuid, Request("stat_series", args), _decode_series)

    def stat_range_multi(self, stream_uuids: Sequence[str], time_range: TimeRange) -> MultiStreamAggregate:
        uuids = list(stream_uuids)
        args = {"uuids": uuids, "start": time_range.start, "end": time_range.end}
        return self._engine_call(uuids[0] if uuids else None, Request("stat_range_multi", args), _decode_aggregate)

    def put_grants(self, grants: Sequence[Tuple[str, str, bytes]]) -> List[int]:
        """A cohort grant burst: one wire round trip, one storage ``multi_put``."""
        if not grants:
            return []
        targets = [{"uuid": stream_uuid, "principal_id": principal_id} for stream_uuid, principal_id, _sealed in grants]
        request = Request("put_grants", {"grants": targets}, [sealed for _uuid, _principal, sealed in grants])
        return self._engine_call(grants[0][0], request, decode_grant_ids(len(grants)))

    def fetch_grants(self, stream_uuid: str, principal_id: str) -> List[bytes]:
        request = Request("fetch_grants", {"uuid": stream_uuid, "principal_id": principal_id})
        return self._engine_call(stream_uuid, request, _decode_blobs)

    def fetch_envelopes(
        self, stream_uuid: str, resolution_chunks: int, window_start: int, window_end: int
    ) -> Dict[int, bytes]:
        args = {
            "uuid": stream_uuid,
            "resolution_chunks": resolution_chunks,
            "window_start": window_start,
            "window_end": window_end,
        }
        return self._engine_call(stream_uuid, Request("fetch_envelopes", args), _decode_envelopes)


class RequestPipeline(_EngineCalls):
    """Records ServerEngine-shaped calls; one round trip flushes them all.

    Used as a context manager::

        with client.pipeline() as batch:
            heads = [batch.stream_head(uuid) for uuid in uuids]
            grants = batch.fetch_grants(uuid, "bob")
        print([handle.result() for handle in heads])

    Every method returns a :class:`PipelineResult`; results become readable
    after the ``with`` block (or an explicit :meth:`flush`).  A failed
    request raises its remote error from ``result()`` without affecting the
    other requests in the batch — mid-batch errors stay per-request.
    ``call_many`` carries the recorded ``(stream uuid, request)`` pairs:
    one batch on one connection for :class:`RemoteServerClient`, one routed
    batch for :class:`ShardedServerClient`.
    """

    def __init__(self, call_many: Callable[[List[Tuple[Optional[str], Request]]], List[Response]]) -> None:
        self._call_many = call_many
        self._requests: List[Tuple[Optional[str], Request]] = []
        self._handles: List[PipelineResult] = []

    def __len__(self) -> int:
        return len(self._requests)

    def __enter__(self) -> "RequestPipeline":
        return self

    def __exit__(self, exc_type: object, *_exc_info: object) -> None:
        if exc_type is None:
            self.flush()

    def flush(self) -> None:
        """Ship all recorded requests as one batch and resolve handles.

        On a transport failure every handle is failed with that error (so
        ``result()`` reports the real cause, not an unflushed-pipeline
        state) and the recorded batch is cleared before re-raising.
        """
        if not self._requests:
            return
        requests, handles = self._requests, self._handles
        self._requests = []
        self._handles = []
        try:
            responses = self._call_many(requests)
        except Exception as exc:
            for handle in handles:
                handle._fail(exc)
            raise
        for handle, response in zip(handles, responses):
            handle._resolve(response)

    def _engine_call(self, stream_uuid: Optional[str], request: Request, decode: Decoder) -> PipelineResult:
        handle = PipelineResult(decode)
        self._requests.append((stream_uuid, request))
        self._handles.append(handle)
        return handle


class _WireTokenStore:
    """The :class:`~repro.access.keystore.TokenStore` surface over an engine client."""

    def __init__(self, client: _EngineCalls) -> None:
        self._client = client

    def put_grants(self, grants: Sequence[Tuple[str, str, bytes]]) -> List[int]:
        return self._client.put_grants(grants)

    def grants_for(self, stream_uuid: str, principal_id: str) -> List[bytes]:
        return self._client.fetch_grants(stream_uuid, principal_id)

    def envelopes_for_range(
        self, stream_uuid: str, resolution_chunks: int, window_start: int, window_end: int
    ) -> Dict[int, bytes]:
        return self._client.fetch_envelopes(stream_uuid, resolution_chunks, window_start, window_end)

    def put_envelopes(
        self, stream_uuid: str, resolution_chunks: int, envelopes: Dict[int, bytes]
    ) -> Any:
        if not envelopes:
            return None
        windows = sorted(envelopes)
        request = Request(
            "put_envelopes",
            {"uuid": stream_uuid, "resolution_chunks": resolution_chunks, "windows": windows},
            [envelopes[window] for window in windows],
        )
        return self._client._engine_call(stream_uuid, request, _decode_nothing)


class RemoteServerClient(_EngineCalls):
    """A ServerEngine-compatible proxy over a TCP connection.

    ``flow_control`` (default on) honours the credit window the server
    advertised in ``hello``: frame submission blocks once window-many frames
    are unanswered.  ``overload_retries`` bounds how often a request the
    server shed with a typed ``overloaded`` response is re-sent (capped
    exponential backoff seeded by the server's retry-after hint) before the
    error surfaces to the caller.

    Request batches go out through ``socket.sendmsg`` as header + attachment
    views (no batch concatenation) and responses decode as memoryviews over
    per-frame buffers.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        flow_control: bool = True,
        overload_retries: int = 4,
        tracing: bool = False,
    ) -> None:
        self._address = (host, port)
        self._timeout = timeout
        self._lock = threading.Lock()  # serialises frame writes on the socket
        self._closed = False
        self.token_store = _WireTokenStore(self)
        self.wire_stats = WireStats()
        #: Distributed tracing (off by default — with it off the request path
        #: never touches a clock or builds a span).  When on, every call gets
        #: a client span, its context rides the request's ``trace`` header
        #: key, and the ``tracing`` capability is offered in ``hello`` so
        #: negotiating servers record matching server-side spans.  A server
        #: that never negotiated simply ignores the header key.
        self._tracing = bool(tracing)
        self._node_label = f"client:{host}:{port}"
        self._pending: Dict[int, _PendingCall] = {}
        #: Guards the pending table and the reader role below.  The role is
        #: a flag under this lock, never a lock held across ``recv``.
        self._pending_lock = threading.Lock()
        self._reading = False
        #: Wake events of the threads parked behind the current reader.
        self._parked: Deque[threading.Event] = deque()
        self._correlation_ids = itertools.count(1)
        self._flow_control = bool(flow_control)
        self._credits: Optional[_CreditGate] = None
        self._overload_retries = max(0, int(overload_retries))
        self._server_operations: frozenset = frozenset()
        #: The full ``hello`` result: capability fields beyond the op list
        #: (e.g. a shard routing table).
        self.hello_info: Dict[str, Any] = {}
        self._socket = self._dial()
        # The socket stays blocking: deadlines are enforced by the reading
        # caller (select before every blocking recv).
        self._frames = FrameReader(self._socket, stall=timeout)
        try:
            self._negotiate()
        except BaseException:
            # Nobody else will ever hold this object: release the descriptor
            # now, not whenever the exception's traceback is collected.
            self._socket.close()
            raise
        # Snapshot through the client, not the stats object: a ConnectionSlot
        # swaps in its shared WireStats after construction.
        self._metrics_key = REGISTRY.register(
            f"client.wire[{host}:{port}]", self, snapshot=lambda client: asdict(client.wire_stats)
        )

    @property
    def credit_window(self) -> int:
        """The negotiated flow-control window (0 when flow control is off)."""
        return self._credits.window if self._credits is not None else 0

    @property
    def credits_available(self) -> int:
        return self._credits.available if self._credits is not None else 0

    # -- connection management ---------------------------------------------------------

    def _dial(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=self._timeout)
        sock.settimeout(None)
        # Callers multiplexed on one connection do write-write-read: exactly
        # the pattern Nagle + delayed ACK turns into a 40 ms stall.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _negotiate(self) -> None:
        """One synchronous ``hello`` (correlation id 0) before anything else.

        A peer that hangs up, stays silent past the timeout or stalls
        mid-frame raises :class:`TransportError`; one that answers with
        anything but a well-formed protocol-2 ``hello`` result raises
        :class:`ProtocolError`.  Nothing is retried here — redialling is the
        owner's decision (see :class:`ConnectionSlot`).
        """
        hello_args: Dict[str, Any] = {"protocol": PROTOCOL_VERSION}
        if self._tracing:
            hello_args["tracing"] = True
        hello = Request("hello", hello_args)
        try:
            write_vectored(self._socket, encode_frame_segments_v2(0, hello.encode_segments()))
            frame = self._frames.read(time.monotonic() + self._timeout)
        except OSError as exc:
            raise TransportError(f"connection to {self._address} failed: {exc}") from exc
        if frame is None:
            raise TransportError(f"hello negotiation with {self._address} timed out")
        response = Response.decode(frame.payload)
        if not response.ok:
            raise ProtocolError(f"peer at {self._address} rejected hello: {response.error}")
        result = response.result if isinstance(response.result, dict) else {}
        protocol, operations = result.get("protocol"), result.get("operations")
        if (
            not isinstance(protocol, int)
            or protocol < PROTOCOL_VERSION
            or not isinstance(operations, list)
        ):
            raise ProtocolError(
                f"peer at {self._address} did not answer hello with protocol "
                f"{PROTOCOL_VERSION} and an operation list"
            )
        self._server_operations = frozenset(op for op in operations if isinstance(op, str))
        self.hello_info = dict(result)
        window = result.get("credits")
        if self._flow_control and isinstance(window, int) and window > 0:
            # The hello exchange itself was synchronous — its grant is
            # already accounted for by starting at the full window.
            self._credits = _CreditGate(window)

    def supports_operation(self, operation: str) -> bool:
        """Whether the peer's ``hello`` advertised an operation."""
        return operation in self._server_operations

    def close(self) -> None:
        self._closed = True
        REGISTRY.unregister(self._metrics_key)
        # Nobody else is guaranteed to be reading, so nobody would notice the
        # EOF: fail every pending call (and refund its credit) right here.
        # The shutdown inside also wakes a caller blocked in the reader role.
        self._fail_pending(None)
        try:
            self._socket.close()
        except OSError:
            pass

    def __enter__(self) -> "RemoteServerClient":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # -- transport -------------------------------------------------------------------

    def _drive(
        self, ready: Callable[[], bool], deadline: float, call: Optional[_PendingCall] = None
    ) -> bool:
        """Block until ``ready()``; False if ``deadline`` passed first.

        Leader/followers on the client socket: if nobody holds the reader
        role this thread takes it and resolves frames itself until its
        condition holds; otherwise it parks on a private event that the
        reader signals (its ``call`` resolved, credits arrived, or the role
        is being handed over).  On the way out the role goes to one parked
        thread, so a connection with waiters is never left unread.
        """
        before_blocking()
        lock = self._pending_lock
        reading = False
        try:
            while True:
                waiter: Optional[threading.Event] = None
                with lock:
                    if reading:
                        self._reading = reading = False
                    satisfied = ready()
                    remaining = deadline - time.monotonic()
                    if satisfied or remaining <= 0:
                        self._pass_role()
                        return satisfied
                    if self._reading:
                        waiter = threading.Event()
                        self._parked.append(waiter)
                        if call is not None:
                            call._waiter = waiter
                    else:
                        self._reading = reading = True
                if waiter is None:
                    self._read_frames(ready, deadline)
                    continue
                waiter.wait(remaining)
                with lock:
                    if call is not None:
                        call._waiter = None
                    try:
                        self._parked.remove(waiter)
                    except ValueError:
                        pass  # a hand-over already popped it
        finally:
            if reading:  # only when something escaped _read_frames
                with lock:
                    self._reading = False
                    self._pass_role()

    def _pass_role(self) -> None:
        """Wake one parked thread to read, if nobody is (pending lock held)."""
        if not self._reading:
            while self._parked:
                successor = self._parked.popleft()
                if not successor.is_set():
                    successor.set()
                    return

    def _read_frames(self, ready: Callable[[], bool], deadline: float) -> None:
        """The reader role: resolve arriving frames until ``ready()`` or ``deadline``.

        Payloads land straight in per-frame buffers via ``recv_into`` and
        attachments decode as views over them — the engine-facing accessors
        (``get_range``, grant/envelope pickup) materialize copies only where
        results are retained.
        """
        frames = self._frames
        while not ready():
            try:
                frame = frames.read(deadline)
                if frame is None:
                    return
                response = Response.decode(frame.payload)
            except (TimeCryptError, OSError, ValueError) as exc:
                # ValueError: close() released the descriptor under select().
                self._fail_pending(exc)
                return
            self.wire_stats.bytes_received += len(frame.payload) + HEADER_BYTES
            self.wire_stats.responses_received += 1
            with self._pending_lock:
                call = self._pending.pop(frame.correlation_id, None)
                if call is None:
                    # Abandoned at its deadline; its credit was refunded then.
                    continue
                if self._credits is not None and response.credit_grant:
                    # Replenish before resolving: a caller chaining sends
                    # off the result must see the returned credit.  A window
                    # that was empty may have senders parked on it.
                    if self._credits.grant(response.credit_grant):
                        for parked in self._parked:
                            parked.set()
                call._response = response
                if call._waiter is not None:
                    call._waiter.set()

    def _fail_pending(self, cause: Optional[Exception]) -> None:
        """Fail every pending call and make the connection unusable."""
        if self._closed or cause is None:
            error: Exception = TransportError("connection closed")
        else:
            error = TransportError(f"connection to {self._address} failed: {cause}")
        try:
            # The stream may be mid-frame: later sends must fail fast and a
            # parked or future reader must see EOF, not misparsed bytes.
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
            if self._credits is not None:
                # Responses that will never arrive must still return their
                # credits, or every sender blocked on the window hangs until
                # its timeout.  Nothing is in flight on a dead connection,
                # so the whole window comes back (grant() clamps at it).
                self._credits.grant(self._credits.window)
            for call in pending:
                call._error = error
            for parked in self._parked:
                parked.set()

    def _abandon(self, calls: Sequence[_PendingCall], error: Exception, refund: bool) -> None:
        """Fail calls nobody will wait for any longer and forget their ids."""
        with self._pending_lock:
            for call in calls:
                if self._pending.pop(call._correlation_id, None) is not None:
                    call._error = error
                    if refund and self._credits is not None:
                        self._credits.grant(1)

    def _encode_batch(self, requests: Sequence[Request]) -> List[List[Any]]:
        """Message-segment lists for a batch.

        Attachments stay uncoalesced segments for the vectored writer.
        """
        return [request.encode_segments() for request in requests]

    def _write_frames(self, frames: Sequence[List[Any]]) -> None:
        """Ship framed segment lists in one vectored write."""
        flat = [segment for frame in frames for segment in frame]
        _syscalls, sent, coalesced = write_vectored(self._socket, flat)
        self.wire_stats.vectored_writes += 1
        self.wire_stats.frames_coalesced += coalesced
        self.wire_stats.bytes_sent += sent

    def _send_requests(self, requests: Sequence[Request]) -> List[_PendingCall]:
        """Frame and write a request batch in one vectored write; returns pending calls."""
        # Framing happens *before* any call is registered — an oversized
        # payload raises here without leaving ghost correlation ids in the
        # pending table that nothing would ever resolve.
        messages = self._encode_batch(requests)
        correlation_ids = [next(self._correlation_ids) for _message in messages]
        frames = [
            encode_frame_segments_v2(correlation_id, segments)
            for correlation_id, segments in zip(correlation_ids, messages)
        ]
        calls = [_PendingCall(self, correlation_id) for correlation_id in correlation_ids]
        with self._pending_lock:
            self._pending.update(zip(correlation_ids, calls))
        # Without flow control the batch is one burst; with it, credit-sized
        # bursts, so at most window-many frames are ever unanswered here.
        sent = 0
        while sent < len(frames):
            granted = len(frames) - sent
            if self._credits is not None:
                granted = self._acquire_credits(granted)
                if granted == 0:
                    # The window never refilled within the deadline.  Fail
                    # only the unsent tail — its correlation ids never hit
                    # the wire; the frames already sent may still be answered.
                    error = TransportError(
                        f"timed out waiting for flow-control credits from {self._address}"
                    )
                    self._abandon(calls[sent:], error, refund=False)
                    return calls
            try:
                with self._lock:
                    # repro: allow[REPRO004] _lock exists to serialize frame writes on this socket; holding it across the send is the design, and only writers contend on it
                    self._write_frames(frames[sent : sent + granted])
            except OSError as exc:
                self._fail_pending(exc)
                return calls
            sent += granted
            self.wire_stats.requests_sent += granted
        return calls

    def _acquire_credits(self, upto: int) -> int:
        """Up to ``upto`` credits, waiting (and reading, if nobody is) for a grant."""
        credits = self._credits
        assert credits is not None
        granted = credits.take(upto)
        if granted == 0:
            self.wire_stats.credit_stalls += 1
            deadline = time.monotonic() + self._timeout
            while granted == 0 and self._drive(lambda: credits.available > 0, deadline):
                granted = credits.take(upto)
        return granted

    def _await(self, call: _PendingCall, timeout: Optional[float] = None) -> Response:
        if not call.done():
            deadline = time.monotonic() + (self._timeout if timeout is None else timeout)
            if not self._drive(call.done, deadline, call):
                # Per-request deadline: forget the id and refund its credit,
                # so a peer that never answers cannot shrink the window.
                error = TransportError(f"request to {self._address} timed out")
                self._abandon([call], error, refund=True)
        if call._error is not None:
            raise call._error
        assert call._response is not None
        return call._response

    # -- tracing -----------------------------------------------------------------------

    def _begin_trace(
        self, requests: Sequence[Request]
    ) -> Optional[Tuple[List[Optional[Dict[str, Any]]], int]]:
        """Attach trace contexts and open client spans (no-op with tracing off).

        The context is attached to the :class:`Request` itself, exactly once:
        a request re-sent after an ``overloaded`` shed keeps its original
        trace and span ids, so the retried attempt is the *same* span on the
        wire (and opens no duplicate client span here).  The parent is the
        thread's current context — inside a traced server handler (a router
        forwarding, an engine fetching from storage) the outbound span
        becomes a child of the server span, which is what stitches the
        cross-tier tree together.
        """
        if not self._tracing:
            return None
        parent = current_context()
        spans: List[Optional[Dict[str, Any]]] = []
        for request in requests:
            if request.trace is not None:
                spans.append(None)
                continue
            trace_id = parent[0] if parent is not None else new_trace_id()
            span_id = new_span_id()
            request.trace = (trace_id, span_id)
            spans.append(
                {
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "parent_id": parent[1] if parent is not None else None,
                    "node": self._node_label,
                    "kind": "client",
                    "op": request.operation,
                }
            )
        return spans, time.monotonic_ns()

    def _finish_trace(
        self,
        begun: Optional[Tuple[List[Optional[Dict[str, Any]]], int]],
        responses: Optional[Sequence[Response]] = None,
        error: Optional[Exception] = None,
    ) -> None:
        if begun is None:
            return
        spans, start_ns = begun
        total_ms = (time.monotonic_ns() - start_ns) / 1e6
        for index, span in enumerate(spans):
            if span is None:
                continue
            span["total_ms"] = total_ms
            if error is not None:
                span["status"] = type(error).__name__
            elif responses is not None and index < len(responses):
                response = responses[index]
                span["status"] = "ok" if response.ok else (response.error_type or "error")
            else:
                span["status"] = "ok"
            SPANS.record(span)

    # -- calling styles -----------------------------------------------------------------

    def _call(self, request: Request) -> Response:
        """One request, one round trip; raises the remote error on failure."""
        response = self.call_many([request])[0]
        if not response.ok:
            _raise_remote(response)
        return response

    def _overload_delay(self, response: Response, attempt: int) -> float:
        """Backoff before re-sending a shed request: server hint × 2^attempt, capped."""
        hint = response.result.get("retry_after_ms") if isinstance(response.result, dict) else None
        base = (hint if isinstance(hint, (int, float)) and hint > 0 else 10.0) / 1000.0
        return min(OVERLOAD_BACKOFF_CAP_S, base * (2 ** attempt))

    def _retry_overloaded(self, requests: List[Request], responses: List[Response]) -> List[Response]:
        """Re-send requests the server shed, with capped exponential backoff.

        Only the shed slots are retried (successes and real errors keep
        their responses); a request still overloaded after the retry budget
        keeps its ``overloaded`` response, which callers surface as
        :class:`~repro.exceptions.OverloadedError`.
        """
        for attempt in range(self._overload_retries):
            slots = [index for index, response in enumerate(responses) if _is_overloaded(response)]
            if not slots:
                break
            before_blocking()
            time.sleep(self._overload_delay(responses[slots[0]], attempt))
            self.wire_stats.overload_retries += len(slots)
            futures = self._send_requests([requests[index] for index in slots])
            self.wire_stats.round_trips += 1
            for slot, future in zip(slots, futures):
                responses[slot] = self._await(future)
        return responses

    def send_many(self, requests: Sequence[Request]) -> SentBatch:
        """Frame and send a request batch; the handle's ``result()`` awaits it.

        Sending takes the flow-control credits, counts the round trip and
        opens the trace spans.  Nothing here waits for an answer, so a
        caller can send to several peers and then await each handle in
        turn: the awaiting thread reads each socket itself, and N peers
        cost one round-trip time.
        """
        begun = self._begin_trace(requests)
        try:
            calls = self._send_requests(requests)
        except Exception as exc:
            self._finish_trace(begun, error=exc)
            raise
        self.wire_stats.round_trips += 1
        self.wire_stats.batches_sent += 1
        return SentBatch(self, requests, calls, begun)

    def call_many(self, requests: Sequence[Request]) -> List[Response]:
        """Ship a request batch in one round trip; responses in request order.

        Unlike :meth:`_call` this does **not** raise on per-request errors —
        each returned :class:`Response` carries its own outcome, so one
        failed request inside a batch cannot mask the others.
        """
        if not requests:
            return []
        batch = self.send_many(requests)
        before_blocking()
        return batch.result()

    def pipeline(self) -> RequestPipeline:
        """A deferred-call context; everything inside flushes as one batch."""
        return RequestPipeline(lambda routed: self.call_many([request for _uuid, request in routed]))

    def _engine_call(self, _stream_uuid: Optional[str], request: Request, decode: Decoder) -> Any:
        return decode(self._call(request))


class ConnectionSlot:
    """The one holder of an outbound connection to a peer at ``address``.

    Every hop that dials keeps its :class:`RemoteServerClient` here: the
    sharded client to its router and engines, the router to its engines, a
    remote store to its node.  :meth:`get` dials lazily and outside the
    lock; when dials race, the first to finish is installed and every loser
    closes its own client.  :meth:`discard` drops a client only while it is
    still the installed one, so a caller holding a dead client never closes
    the fresh one another thread just dialled.  :meth:`send_many` and
    :meth:`call_many` redial once after a transport error, and after
    :meth:`close` the next call redials.

    A failed dial leaves the slot empty and raises :class:`TransportError`
    — whether the peer refused, hung up or answered ``hello`` wrongly, it
    is an outage to retry.  ``require`` names an operation the peer must
    advertise; a peer of the wrong tier is a :class:`ProtocolError`, which
    nothing retries.  Every dialled client shares the slot's
    :class:`WireStats`, so counters run on across reconnects.  ``options``
    are :class:`RemoteServerClient` keyword arguments.
    """

    def __init__(self, address: Tuple[str, int], require: Optional[str] = None, **options: Any) -> None:
        self.address = address
        self.wire_stats = WireStats()
        self._require = require
        self._options = options
        self._client: Optional[RemoteServerClient] = None
        self._lock = threading.Lock()

    def get(self) -> RemoteServerClient:
        """The installed client, dialling one if there is none."""
        client = self._client
        if client is not None:
            return client
        before_blocking()  # connect + hello can take the whole timeout
        try:
            client = RemoteServerClient(*self.address, **self._options)
        except (OSError, TransportError) as exc:
            raise TransportError(f"cannot dial {self.address}: {exc}") from exc
        if self._require is not None and not client.supports_operation(self._require):
            client.close()
            raise ProtocolError(f"peer at {self.address} does not serve the {self._require} operation")
        with self._lock:
            if self._client is None:
                client.wire_stats = self.wire_stats
                self._client = client
                return client
            winner = self._client
        client.close()  # lost the dial race
        return winner

    def discard(self, client: RemoteServerClient) -> None:
        """Drop and close ``client`` if it is still the installed one."""
        with self._lock:
            if self._client is not client:
                return
            self._client = None
        client.close()

    def close(self) -> None:
        """Close the installed client; the next call redials."""
        with self._lock:
            client, self._client = self._client, None
        if client is not None:
            client.close()

    def send_many(self, requests: Sequence[Request]) -> "_SlotBatch":
        """Send a batch on the installed client; its ``result()`` redials once."""
        return _SlotBatch(self, requests)

    def call_many(self, requests: Sequence[Request]) -> List[Response]:
        batch = self.send_many(requests)
        before_blocking()
        return batch.result()


class _SlotBatch:
    """A batch sent through a :class:`ConnectionSlot`.

    If the dial, the send or the wait fails with a transport error, the
    dead client is discarded and :meth:`result` redials and re-sends once —
    at-least-once, like any retry after a lost answer.
    """

    __slots__ = ("_slot", "_requests", "_client", "_sent")

    def __init__(self, slot: ConnectionSlot, requests: Sequence[Request]) -> None:
        self._slot = slot
        self._requests = requests
        self._client: Optional[RemoteServerClient] = None
        self._sent: Optional[SentBatch] = None
        try:
            self._client = slot.get()
        except ProtocolError:
            raise
        except TransportError:
            return  # result() redials
        self._sent = self._client.send_many(requests)

    def result(self) -> List[Response]:
        before_blocking()
        if self._sent is not None:
            try:
                return self._sent.result()
            except TransportError as exc:
                logger.info("connection to %s lost (%s); redialling", self._slot.address, exc)
                self._slot.discard(self._client)
        client = self._slot.get()
        try:
            return client.call_many(self._requests)
        except TransportError:
            self._slot.discard(client)
            raise


def request_stream_uuids(request: Request) -> List[str]:
    """The stream uuids a request addresses, found by its op's routing key.

    Ingest requests are placed by peeking the uuid out of the first chunk
    attachment — a magic check, one varint and a slice, no full decode; the
    engine itself enforces that a batch is single-stream.
    """
    route = OP_TABLE[request.operation].route
    if route == "uuid":
        return [request.args["uuid"]]
    if route == "uuids":
        return list(request.args["uuids"])
    if route == "grants":
        return [target["uuid"] for target in request.args["grants"]]
    if route in ("chunk", "metadata"):
        if not request.attachments:
            raise ProtocolError(f"{request.operation} requires a {route} attachment")
        if route == "chunk":
            return [peek_chunk_stream_uuid(request.attachments[0])]
        return [_metadata_from_json(request.attachments[0]).uuid]
    return []


def _by_owner(
    table: ShardRoutingTable, routed: Iterable[Tuple[int, Optional[str]]], hints: Mapping[int, str]
) -> Dict[str, List[int]]:
    """Positions grouped by the shard owning their stream uuid.

    A hint (a redirect's owner) wins while the table still names it; a
    position with no stream goes to the first shard.
    """
    groups: Dict[str, List[int]] = {}
    for position, stream_uuid in routed:
        owner = hints.get(position)
        if owner is None or owner not in table.engine_names:
            owner = table.owner_of(stream_uuid) if stream_uuid is not None else table.engine_names[0]
        groups.setdefault(owner, []).append(position)
    return groups


#: Folds a split's successful sub-answers (in sub-request order) into the
#: one answer a single engine would have given the whole request.
Combine = Callable[[List[Response]], Response]


def _stat_range_per_stream(request: Request, _owners: Dict[str, List[int]]) -> Tuple[List, Combine]:
    """A cross-shard inter-stream query: one ``stat_range`` per stream,
    recombined in request order exactly as a single engine would."""
    time_range = TimeRange(request.args["start"], request.args["end"])

    def combine(responses: List[Response]) -> Response:
        aggregate = MultiStreamAggregate.combine([decode_stat(response) for response in responses])
        return Response.success(aggregate_to_json(aggregate))

    return [(uuid, stat_range_request(uuid, time_range)) for uuid in request.args["uuids"]], combine


def _put_grants_per_owner(request: Request, owners: Dict[str, List[int]]) -> Tuple[List, Combine]:
    """A cross-shard grant burst: one ``put_grants`` per owning shard, grant
    ids stitched back into input order."""
    targets, sealed = request.args["grants"], request.attachments
    if len(targets) != len(sealed):
        raise ProtocolError("put_grants targets and attachments must align")
    groups = [owners[owner] for owner in sorted(owners)]

    def combine(responses: List[Response]) -> Response:
        grant_ids: List[int] = [0] * len(targets)
        for positions, response in zip(groups, responses):
            for position, grant_id in zip(positions, decode_grant_ids(len(positions))(response)):
                grant_ids[position] = grant_id
        return Response.success({"grant_ids": grant_ids})

    parts = [
        (
            targets[positions[0]]["uuid"],
            Request("put_grants", {"grants": [targets[p] for p in positions]}, [sealed[p] for p in positions]),
        )
        for positions in groups
    ]
    return parts, combine


#: The cross-shard splits, by op: ``split(request, owners)``, where
#: ``owners`` groups the positions of the request's streams by shard, gives
#: the routed ``(uuid, sub-request)`` parts and their :data:`Combine`.
#: Every engine op whose route can name several streams needs an entry;
#: a multi-owner request for an op without one is refused.
SPLITS: Dict[str, Callable[[Request, Dict[str, List[int]]], Tuple[List, Combine]]] = {
    "stat_range_multi": _stat_range_per_stream,
    "put_grants": _put_grants_per_owner,
}


class ShardRoutes:
    """One :class:`ConnectionSlot` per engine shard, and the routed batch over them.

    The sharded client and the router's proxy both send through
    :meth:`call_many`.  ``table()`` reads the current routing table;
    ``refresh()`` tries to learn a newer one (the router's table is always
    current, so it has nothing to fetch); ``options()`` are the slots'
    :class:`RemoteServerClient` keyword arguments.  A slot is replaced when
    the table moves its engine, and closed once the table drops it.
    """

    MAX_ROUTE_ATTEMPTS = 5

    def __init__(
        self,
        table: Callable[[], ShardRoutingTable],
        refresh: Callable[[], Any],
        options: Callable[[], Dict[str, Any]],
    ) -> None:
        self._table = table
        self._refresh = refresh
        self._options = options
        self._slots: Dict[str, ConnectionSlot] = {}
        self._lock = threading.Lock()
        self._epoch: Optional[int] = None

    def slot(self, name: str) -> ConnectionSlot:
        """Shard ``name``'s slot; creating one dials nothing, so the lock only guards the swap."""
        address = self._table().address_of(name)
        slot = self._slots.get(name)
        if slot is not None and slot.address == address:
            return slot
        with self._lock:
            stale = self._slots.get(name)
            if stale is not None and stale.address == address:
                return stale
            slot = self._slots[name] = ConnectionSlot(address, **self._options())
        if stale is not None:
            stale.close()
        return slot

    def slots(self) -> List[ConnectionSlot]:
        return list(self._slots.values())

    def close(self) -> None:
        for slot in self.slots():
            slot.close()

    def call_many(self, routed: Sequence[Tuple[Optional[str], Request]]) -> List[Response]:
        """The routed batch: ``(routing uuid, request)`` pairs in, answers in request order.

        A request whose streams live on several shards is split by its
        :data:`SPLITS` entry; it answers with its first failed sub-request's
        answer, or else with the combined one.  Errors stay per request.
        """
        table = self._table()
        if table.epoch != self._epoch:  # membership moved: drop removed shards' slots
            self._epoch = table.epoch
            with self._lock:
                removed = [self._slots.pop(name) for name in list(self._slots) if name not in table.engine_names]
            for slot in removed:
                slot.close()
        parts: List[Tuple[Optional[str], Request]] = []
        joins: List[Tuple[int, int, Optional[Combine]]] = []
        for stream_uuid, request in routed:
            split, combine = [(stream_uuid, request)], None
            try:
                if OP_TABLE[request.operation].route in ("uuids", "grants"):
                    owners = _by_owner(table, enumerate(request_stream_uuids(request)), {})
                    if len(owners) > 1:
                        if request.operation not in SPLITS:
                            raise QueryError(
                                f"'{request.operation}' addresses streams on several shards and cannot be split"
                            )
                        split, combine = SPLITS[request.operation](request, owners)
            except TimeCryptError as exc:
                split, combine = [], lambda _responses, failure=Response.failure(exc): failure
            joins.append((len(parts), len(parts) + len(split), combine))
            parts.extend(split)
        responses = self._route(parts)
        answers = []
        for start, stop, combine in joins:
            if combine is None:
                answers.append(responses[start])
                continue
            answered = responses[start:stop]
            failed = [response for response in answered if not response.ok]
            try:
                answers.append(failed[0] if failed else combine(answered))
            except TimeCryptError as exc:
                answers.append(Response.failure(exc))
        return answers

    def _route(self, parts: List[Tuple[Optional[str], Request]]) -> List[Response]:
        """Send each part to its owner, all owners at once, chasing redirects boundedly.

        A ``WrongShardError`` redirect, or transport loss the slot could
        not heal with its one redial, re-routes only the affected parts:
        the table is refreshed, and a redirect's owner hint is followed
        when the epoch did not move.  A topology that never converges
        (peers answering for each other's shards) answers those parts with
        a protocol error instead of looping forever.
        """
        responses: List[Any] = [None] * len(parts)
        pending = list(range(len(parts)))
        hints: Dict[int, str] = {}
        for _attempt in range(self.MAX_ROUTE_ATTEMPTS):
            table = self._table()
            owners = _by_owner(table, ((index, parts[index][0]) for index in pending), hints)
            sent = [
                (owner, positions, self.slot(owner).send_many([parts[index][1] for index in positions]))
                for owner, positions in sorted(owners.items())
            ]
            before_blocking()
            pending, redirects = [], []
            for owner, positions, batch in sent:
                try:
                    answered = batch.result()
                except TransportError:
                    logger.info("engine shard '%s' unreachable; refreshing the table", owner)
                    pending.extend(positions)
                    continue
                for index, response in zip(positions, answered):
                    responses[index] = response
                    if response.error_type == "WrongShardError":
                        pending.append(index)
                        redirects.append((index, owner, response.result))
            if not pending:
                return responses
            self._refresh()
            hints = {}
            if self._table().epoch == table.epoch:
                for index, owner, redirect in redirects:
                    hinted = redirect.get("owner") if isinstance(redirect, dict) else None
                    if hinted in table.engine_names and hinted != owner:
                        hints[index] = hinted
        for index in pending:
            error = ProtocolError(
                f"shard routing for stream '{parts[index][0]}' did not converge after "
                f"{self.MAX_ROUTE_ATTEMPTS} attempts"
            )
            responses[index] = Response.failure(error)
        return responses


class ShardedServerClient(_EngineCalls):
    """A routing-aware client for the sharded engine tier.

    Dials the :class:`~repro.server.router.StreamRouter`, learns the shard
    routing table from its ``hello``, and from then on sends every stream
    operation *directly* to the owning engine over one multiplexed
    connection per shard — the router is only revisited to refresh the
    table.  Every call, and every :meth:`pipeline` flush, is one routed
    batch (:class:`ShardRoutes`): grouped by owner, in flight to all owners
    at once, with cross-shard ``stat_range_multi`` and ``put_grants`` split
    per owner and recombined as one engine would answer.  A
    ``WrongShardError`` redirect (the client's table was stale) or an
    engine that died mid-workload refreshes the table and re-routes, so a
    membership change needs no client restart.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        flow_control: bool = True,
        overload_retries: int = 4,
        tracing: bool = False,
    ) -> None:
        self._options: Dict[str, Any] = {
            "timeout": timeout,
            "flow_control": flow_control,
            "overload_retries": overload_retries,
            "tracing": tracing,
        }
        self._router = ConnectionSlot((host, port), **self._options)
        self._routes = ShardRoutes(lambda: self._table, self._refresh_table, lambda: self._options)
        try:
            self._table = self._table_from_hello(self._router.get())
        except BaseException:
            self._router.close()
            raise
        self.token_store = _WireTokenStore(self)

    # -- table management -------------------------------------------------------

    def _table_from_hello(self, client: RemoteServerClient) -> ShardRoutingTable:
        payload = client.hello_info.get("routing")
        if payload is None:
            raise ProtocolError(
                f"peer at {self._router.address} did not advertise a shard routing table"
            )
        return ShardRoutingTable.from_payload(payload)

    @property
    def routing_table(self) -> ShardRoutingTable:
        return self._table

    @property
    def routing_epoch(self) -> int:
        return self._table.epoch

    def _fetch_table(self, slot: ConnectionSlot) -> Optional[ShardRoutingTable]:
        """Ask one peer for its current table; ``None`` on any failure."""
        try:
            response = slot.call_many([Request("routing_table")])[0]
        except TransportError:
            return None
        payload = response.result.get("routing") if response.ok else None
        if payload is None:
            return None
        try:
            return ShardRoutingTable.from_payload(payload)
        except ProtocolError:
            return None

    def _refresh_table(self) -> None:
        """Adopt a newer table from the router (its slot redials once), else from any shard."""
        for slot in self._slots():
            table = self._fetch_table(slot)
            if table is not None:
                if table.epoch > self._table.epoch:
                    self._table = table
                return

    # -- connections ------------------------------------------------------------

    def _slots(self) -> List[ConnectionSlot]:
        """The router's slot first, then every engine's."""
        return [self._router, *self._routes.slots()]

    def close(self) -> None:
        for slot in self._slots():
            slot.close()

    def __enter__(self) -> "ShardedServerClient":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    @property
    def wire_stats(self) -> WireStats:
        """Wire accounting summed over the router and shard connections; ``reset()`` zeroes each."""
        return _SummedWireStats([slot.wire_stats for slot in self._slots()])

    # -- calling styles ---------------------------------------------------------

    def _engine_call(self, stream_uuid: Optional[str], request: Request, decode: Decoder) -> Any:
        response = self._routes.call_many([(stream_uuid, request)])[0]
        if not response.ok:
            _raise_remote(response)
        return decode(response)

    def pipeline(self) -> RequestPipeline:
        """A deferred-call context; everything inside flushes as one routed batch."""
        return RequestPipeline(self._routes.call_many)

    def ping(self) -> bool:
        """Liveness of the tier: the router, or failing that any live shard."""
        engines = (self._routes.slot(name) for name in self._table.engine_names)
        for slot in itertools.chain([self._router], engines):
            try:
                response = slot.call_many([Request("ping")])[0]
            except TransportError:
                continue
            if response.ok:
                return _decode_pong(response)
        return False
