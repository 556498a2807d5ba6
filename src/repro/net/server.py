"""The TCP server exposing a :class:`~repro.server.engine.ServerEngine`.

The transport is run **leader/followers** (the Netty stand-in: the thread
that read the bytes runs the handler).  Up to ``max_workers + 1`` symmetric
threads serve it, started only when there is work for them.  One at a time
is the *leader*: it ``select``s, reads, lets a per-connection
:class:`~repro.net.framing.FrameAssembler` turn bytes into frames, and
admits each frame.  The others are *followers*: they run queued frames or
sleep.  At most ``max_workers`` handlers run at once, so accepting another
client costs a selector registration, not a thread.

Admission is **scheduled**: every frame is classified interactive or
bulk (:func:`~repro.net.messages.classify_operation`).  A lone interactive
frame — nothing queued, a handler slot free — is run by the leader itself,
still holding the role: no queue, no wake-up, no thread hop.  Everything
else goes into one of two *bounded* queues that followers drain
weighted-round-robin, so a small ``stat_range`` never waits behind a whole
ingest burst, and bulk work never runs on the thread watching the sockets.
A full queue sheds the frame with a typed ``overloaded`` response carrying
a retry-after hint — never silent latency or dead air.  With every slot
busy the one remaining thread keeps leading: admitting and shedding.

The leader must never sleep while it holds the role, so leadership moves at
exactly one moment: when the thread holding it is about to wait
(:func:`repro.util.blocking.before_blocking` — an outbound call to another
tier, a fan-out join, a contended lock, a full socket buffer).  It steps
down first — one ``notify`` wakes a follower to lead — and finishes its
request as an ordinary thread.

Frames carry a correlation id, run concurrently, and are answered (under
the per-connection write lock) whenever they finish; bytes that do not parse
as a frame — the retired ``TC`` lockstep framing included — close the
connection.  Backpressure is credit-based: ``hello`` advertises a
per-connection window, every response returns one credit, and a
well-behaved client caps its in-flight frames at the window.

The dispatcher is also usable without sockets through
:class:`RequestDispatcher`; the transport is dispatcher-agnostic — the
storage-node tier (:mod:`repro.storage.node`) serves the raw key-value
contract through the exact same threads, queues and framing.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.exceptions import OverloadedError, ProtocolError, TimeCryptError
from repro.obs.metrics import REGISTRY
from repro.obs.tracing import SPANS, new_span_id, set_context
from repro.net.framing import (
    PROTOCOL_VERSION,
    Frame,
    FrameAssembler,
    encode_frame_segments_v2,
    write_vectored,
)
from repro.net.messages import (
    OP_TABLE,
    Request,
    Response,
    aggregate_to_json,
    classify_operation,
    is_local,
    retain,
    stat_to_json,
)
from repro.server.engine import ServerEngine, _metadata_from_json, _metadata_to_json
from repro.timeseries.serialization import decode_encrypted_chunk, encode_encrypted_chunk
from repro.util.blocking import (
    acquire_announced,
    before_blocking,
    blocking_hook_armed,
    set_blocking_hook,
)
from repro.util.timeutil import TimeRange

#: Default per-connection credit window advertised in ``hello``.
DEFAULT_CREDIT_WINDOW = 256
#: Bounded-queue depths for the two scheduler classes (the bulk one is the
#: default of ``bulk_queue_limit``).  Interactive requests are small and
#: fast, so the queue is generous; the bulk cap is the backpressure point —
#: beyond it, writers get typed ``overloaded`` sheds.
INTERACTIVE_QUEUE_LIMIT = 1024
DEFAULT_BULK_QUEUE_LIMIT = 128
#: Interactive frames dispatched per bulk frame when both queues are non-empty.
INTERACTIVE_WEIGHT = 4
#: Fallback retry hint carried in ``overloaded`` responses before the
#: scheduler has observed any bulk drain (the adaptive hint needs at least
#: two dispatched bulk frames to measure an interval).
DEFAULT_RETRY_AFTER_MS = 25
#: Clamp bounds for the adaptive retry hint derived from the measured
#: bulk-queue drain rate: never tell a client to hammer faster than 5 ms,
#: never park it longer than a second.
MIN_RETRY_AFTER_MS = 5
MAX_RETRY_AFTER_MS = 1000

logger = logging.getLogger(__name__)


class WireDispatcher:
    """Shared dispatch machinery: op lookup, ``hello`` negotiation, ``ping``.

    Concrete dispatchers (the server-engine :class:`RequestDispatcher`, the
    storage-node dispatcher) add ``_op_<name>`` handlers; ``hello``
    advertises exactly the operations this instance implements, so a client
    negotiating against a storage node does not believe it can
    ``insert_chunks`` there (and vice versa).
    """

    #: Per-connection flow-control window advertised in ``hello``.  Set by the
    #: owning transport (:class:`TimeCryptTCPServer`); ``None`` (the default,
    #: e.g. for in-process dispatch) advertises no credits.
    credit_window: Optional[int] = None

    #: Whether this node records server-side spans for peers that offer the
    #: ``tracing`` capability in ``hello``.  Set by the owning transport;
    #: advertised back so clients know their trace context will be honoured.
    tracing: bool = False

    #: Human-readable node identity stamped on spans and scrape responses
    #: (an engine-shard name, ``router``, a storage-node name).
    node_name: str = "node"

    def supported_operations(self) -> List[str]:
        """The wire operations this dispatcher actually implements."""
        return [op for op in OP_TABLE if hasattr(self, f"_op_{op}")]

    def dispatch(self, request: Request) -> Response:
        """Execute one request, translating library errors into error responses."""
        handler = getattr(self, f"_op_{request.operation}", None)
        if handler is None:
            return Response.failure(ProtocolError(f"unsupported operation '{request.operation}'"))
        try:
            return handler(request)
        except TimeCryptError as exc:
            return Response.failure(exc)
        except Exception as exc:  # noqa: BLE001 — dead air is worse than a broad catch
            # A non-library exception (malformed args hitting int(), a buggy
            # handler) must still answer the correlation id: an unanswered
            # request reads as a peer outage on the client side.
            return Response.failure(self._unexpected_error(exc))

    def _unexpected_error(self, exc: Exception) -> TimeCryptError:
        """Classify a non-TimeCryptError escaping a handler (overridable)."""
        return ProtocolError(f"request failed in dispatch: {type(exc).__name__}: {exc}")

    # -- negotiation ---------------------------------------------------------------

    def hello_extras(self) -> Dict:
        """Extra capability fields merged into the ``hello`` response.

        Overridden by dispatchers that advertise more than the op list — the
        sharded engine tier announces its routing table here, so clients
        learn stream placement during negotiation with no extra round trip.
        """
        return {}

    def _op_hello(self, _request: Request) -> Response:
        """Protocol negotiation: advertise the framing version and operations."""
        payload = {"protocol": PROTOCOL_VERSION, "operations": self.supported_operations()}
        if self.credit_window:
            payload["credits"] = int(self.credit_window)
        if self.tracing:
            payload["tracing"] = True
        payload.update(self.hello_extras())
        return Response.success(payload)

    def _op_ping(self, _request: Request) -> Response:
        return Response.success({"pong": True})

    # -- observability scrape ops ---------------------------------------------------

    def _op_stats(self, _request: Request) -> Response:
        """One round trip pulls every registered metric source in this process.

        Metrics are leakage-aware by construction: counters describe request
        shapes (round trips, byte totals, queue depths, cache hits), never
        key material or plaintext.
        """
        return Response.success({"node": self.node_name, "metrics": REGISTRY.snapshot()})

    def _op_trace_dump(self, request: Request) -> Response:
        """Dump this process's span ring buffer (optionally one trace id)."""
        trace_id = request.args.get("trace_id")
        limit = request.args.get("limit")
        spans = SPANS.spans(
            trace_id=trace_id if isinstance(trace_id, str) else None,
            limit=int(limit) if isinstance(limit, int) and not isinstance(limit, bool) else None,
        )
        return Response.success({"node": self.node_name, "spans": spans})


class RequestDispatcher(WireDispatcher):
    """Maps protocol requests onto server-engine calls.

    Engine state (the stream registry, the index node cache, query stats) is
    not thread-safe, so engine-touching operations are serialised behind one
    lock: a single engine is deliberately serial, and scaling comes from
    running *several* engines behind the shard router
    (:mod:`repro.server.router`), not from intra-engine concurrency.  The
    table's ``local`` ops stay lock-free: negotiation, liveness probes and
    scrapes (which read only the internally locked metrics registry and span
    buffer) are never queued behind a long-running query.
    """

    #: Ingest batches above this many chunks are applied in slices, with the
    #: engine lock released between slices, so one enormous ``insert_chunks``
    #: cannot park every interactive op for its full duration.  Typical
    #: batches (≤ the slice) take the single-acquisition fast path.
    DEFAULT_BULK_SLICE_CHUNKS = 64

    def __init__(self, engine: ServerEngine) -> None:
        self._engine = engine
        self._engine_lock = threading.Lock()

    def dispatch(self, request: Request) -> Response:
        if is_local(request.operation):
            return super().dispatch(request)
        if request.operation == "insert_chunks" and len(request.attachments) > self.DEFAULT_BULK_SLICE_CHUNKS:
            return self._dispatch_sliced_ingest(request)
        # Queuing behind another request on the serial engine is a wait like
        # any other: a leader announces it (and steps down) first.
        acquire_announced(self._engine_lock)
        try:
            return self._dispatch_engine(request)
        except TimeCryptError as exc:
            return Response.failure(exc)
        except Exception as exc:  # noqa: BLE001 — dead air is worse than a broad catch
            return Response.failure(self._unexpected_error(exc))
        finally:
            self._engine_lock.release()

    def _dispatch_sliced_ingest(self, request: Request) -> Response:
        """A giant ingest batch, applied slice by slice through the normal path.

        Each slice is a full ``dispatch`` of a sub-request, so subclass
        checks (shard ownership, epoch redirects) and per-slice validation
        run unchanged, and interactive ops queued on the engine lock
        interleave between slices.  A batch that fails validation mid-way
        stops at the offending slice with earlier slices applied — the same
        partial-application contract a client splitting its own batches
        gets; the engine's consecutiveness check
        (:meth:`~repro.server.engine.ServerEngine.validate_chunk_batch`)
        makes the failure typed and precise.
        """
        size = self.DEFAULT_BULK_SLICE_CHUNKS
        total = len(request.attachments)
        first_window: Optional[int] = None
        for start in range(0, total, size):
            sub = Request(request.operation, dict(request.args), request.attachments[start : start + size])
            response = self.dispatch(sub)
            if not response.ok:
                return response
            if first_window is None:
                first_window = response.result.get("window_index")
        return Response.success({"window_index": first_window, "num_chunks": total})

    def _dispatch_engine(self, request: Request) -> Response:
        """One engine-touching request, already under the engine lock."""
        return super().dispatch(request)

    # -- stream lifecycle ----------------------------------------------------------

    def _op_create_stream(self, request: Request) -> Response:
        if not request.attachments:
            raise ProtocolError("create_stream requires a metadata attachment")
        metadata = _metadata_from_json(request.attachments[0])
        self._engine.create_stream(metadata)
        return Response.success({"uuid": metadata.uuid})

    def _op_delete_stream(self, request: Request) -> Response:
        self._engine.delete_stream(request.args["uuid"])
        return Response.success()

    def _op_stream_head(self, request: Request) -> Response:
        return Response.success({"head": self._engine.stream_head(request.args["uuid"])})

    def _op_stream_metadata(self, request: Request) -> Response:
        metadata = self._engine.stream_metadata(request.args["uuid"])
        return Response.success(attachments=[_metadata_to_json(metadata)])

    def _op_rollup_stream(self, request: Request) -> Response:
        deleted = self._engine.rollup_stream(
            request.args["uuid"],
            request.args["resolution_windows"],
            request.args.get("before_time"),
        )
        return Response.success({"deleted": deleted})

    # -- ingest / raw data ------------------------------------------------------------

    def _op_insert_chunks(self, request: Request) -> Response:
        """Bulk ingest: one consecutive chunk batch per request (one attachment each)."""
        if not request.attachments:
            raise ProtocolError("insert_chunks requires at least one chunk attachment")
        chunks = [decode_encrypted_chunk(blob) for blob in request.attachments]
        window_index = self._engine.insert_chunks(chunks)
        return Response.success({"window_index": window_index, "num_chunks": len(chunks)})

    def _op_get_range(self, request: Request) -> Response:
        chunks = self._engine.get_range(
            request.args["uuid"], TimeRange(request.args["start"], request.args["end"])
        )
        return Response.success(
            {"num_chunks": len(chunks)},
            attachments=[encode_encrypted_chunk(chunk) for chunk in chunks],
        )

    def _op_delete_range(self, request: Request) -> Response:
        deleted = self._engine.delete_range(
            request.args["uuid"], TimeRange(request.args["start"], request.args["end"])
        )
        return Response.success({"deleted": deleted})

    # -- statistical queries ----------------------------------------------------------------

    def _op_stat_range(self, request: Request) -> Response:
        result = self._engine.stat_range(
            request.args["uuid"], TimeRange(request.args["start"], request.args["end"])
        )
        return Response.success({"stat": stat_to_json(result)})

    def _op_stat_series(self, request: Request) -> Response:
        results = self._engine.stat_series(
            request.args["uuid"],
            TimeRange(request.args["start"], request.args["end"]),
            request.args["granularity_windows"],
        )
        return Response.success({"series": [stat_to_json(result) for result in results]})

    def _op_stat_range_multi(self, request: Request) -> Response:
        aggregate = self._engine.stat_range_multi(
            request.args["uuids"], TimeRange(request.args["start"], request.args["end"])
        )
        return Response.success(aggregate_to_json(aggregate))

    # -- grants / envelopes --------------------------------------------------------------------

    def _op_put_grants(self, request: Request) -> Response:
        """Grant burst: many sealed tokens land in one storage ``multi_put``.

        Copy-on-retain: sealed tokens are stored past this request's
        lifetime, so they must own their bytes (attachments may be views
        over the frame buffer on the zero-copy path).
        """
        targets: List[Dict] = request.args["grants"]
        if len(targets) != len(request.attachments):
            raise ProtocolError("put_grants targets and attachments must align")
        grant_ids = self._engine.put_grants(
            [
                (target["uuid"], target["principal_id"], retain(sealed))
                for target, sealed in zip(targets, request.attachments)
            ]
        )
        return Response.success({"grant_ids": list(grant_ids)})

    def _op_fetch_grants(self, request: Request) -> Response:
        grants = self._engine.fetch_grants(request.args["uuid"], request.args["principal_id"])
        return Response.success({"num_grants": len(grants)}, attachments=list(grants))

    def _op_put_envelopes(self, request: Request) -> Response:
        windows: List[int] = request.args["windows"]
        if len(windows) != len(request.attachments):
            raise ProtocolError("envelope windows and attachments must align")
        self._engine.token_store.put_envelopes(
            request.args["uuid"],
            request.args["resolution_chunks"],
            dict(zip(windows, (retain(blob) for blob in request.attachments))),
        )
        return Response.success({"stored": len(windows)})

    def _op_fetch_envelopes(self, request: Request) -> Response:
        envelopes = self._engine.fetch_envelopes(
            request.args["uuid"],
            request.args["resolution_chunks"],
            request.args["window_start"],
            request.args["window_end"],
        )
        windows = sorted(envelopes)
        return Response.success(
            {"windows": windows}, attachments=[envelopes[window] for window in windows]
        )


@dataclass
class SchedulerStats:
    """Deterministic scheduler counters (exposed for benches and the CI gate).

    Everything here is workload-derived, not wall-clock-derived: enqueue and
    shed counts, queue-depth high-water marks, and the per-connection
    in-flight peak — so CI can diff them exactly against committed baselines.
    """

    enqueued_interactive: int = 0
    enqueued_bulk: int = 0
    dispatched_interactive: int = 0
    dispatched_bulk: int = 0
    shed_interactive: int = 0
    shed_bulk: int = 0
    max_depth_interactive: int = 0
    max_depth_bulk: int = 0
    #: Highest in-flight frame count observed on any single connection —
    #: a credit-respecting client keeps this at or below the advertised window.
    max_in_flight: int = 0
    #: Wire-memory counters, filled in by the owning transport: bytes on the
    #: wire each way, responses shipped through ``write_vectored`` and small
    #: segments it merged.
    bytes_sent: int = 0
    bytes_received: int = 0
    vectored_writes: int = 0
    frames_coalesced: int = 0

    def snapshot(self) -> Dict[str, int]:
        return asdict(self)


#: What a serving thread gets back from :meth:`_FrameScheduler.next_task`
#: when there is nothing to run and the leader role is free: go watch the sockets.
_LEAD = object()

#: One unit of handler work: ``(connection, frame, enqueue_ns, request)``;
#: ``request`` is the message already decoded at admission (``None``: decode
#: in the handler).
_Task = Tuple["_Connection", Frame, int, Optional[Request]]


class _FrameScheduler:
    """Two bounded frame queues and the leader/followers bookkeeping.

    The leader calls :meth:`admit`, which never blocks: the frame is run
    inline by the leader, lands in its class queue, or is refused (the
    leader sheds it).  Followers block in :meth:`next_task`.  When both
    queues are non-empty, ``interactive_weight`` interactive frames are
    dispatched per bulk frame.  The leader role and the idle/thread counts
    are plain fields under ``_lock`` — nothing is held across a ``select``.
    """

    def __init__(
        self,
        max_workers: int,
        interactive_limit: int,
        bulk_limit: int,
        interactive_weight: int,
    ) -> None:
        self._max_workers = max_workers
        self._limits = {"interactive": int(interactive_limit), "bulk": int(bulk_limit)}
        self._queues: Dict[str, Deque[_Task]] = {"interactive": deque(), "bulk": deque()}
        self._weight = max(1, int(interactive_weight))
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._active = 0  # handlers running right now (inline ones included)
        self._leading = False
        self._idle = 0  # followers asleep on _wakeup and not yet notified
        self._threads = 0
        self._stopping = False
        self._interactive_run = 0
        # Bulk drain-rate tracking for the adaptive overload hint: an EWMA of
        # the interval between consecutive bulk dispatches.  Guarded by
        # ``_lock`` (updated inside ``_next_locked``).
        self._bulk_last_dispatch_ns = 0
        self._bulk_interval_ewma_ns = 0.0
        # repro: allow[REPRO005] registered by the owning TimeCryptTCPServer under server.scheduler[...] via its scheduler_stats() snapshot
        self.stats = SchedulerStats()

    def admit(
        self, task: _Task, klass: str, force: bool = False, inline: bool = False, in_flight: int = 0
    ) -> str:
        """Place one classified frame: ``"inline"``, ``"queued"``, ``"spawn"`` or ``"shed"``.

        ``force`` bypasses the capacity check (the table's ``local`` ops:
        saturation must never read as an outage).  ``inline`` is the
        leader's offer to run the frame itself, taken only for an
        interactive frame with both queues empty and a handler slot free —
        claimed here, the caller must :meth:`finished` it.  ``"spawn"`` is
        ``"queued"`` plus: no follower is idle, start one more thread.
        """
        stats = self.stats
        with self._lock:
            if in_flight > stats.max_in_flight:
                stats.max_in_flight = in_flight
            queue = self._queues[klass]
            if not force and len(queue) >= self._limits[klass]:
                if klass == "bulk":
                    stats.shed_bulk += 1
                else:
                    stats.shed_interactive += 1
                return "shed"
            depth = len(queue) + 1
            if klass == "bulk":
                stats.enqueued_bulk += 1
                if depth > stats.max_depth_bulk:
                    stats.max_depth_bulk = depth
            else:
                stats.enqueued_interactive += 1
                if depth > stats.max_depth_interactive:
                    stats.max_depth_interactive = depth
                if (
                    inline
                    and depth == 1
                    and not self._queues["bulk"]
                    and self._active < self._max_workers
                ):
                    stats.dispatched_interactive += 1
                    self._active += 1
                    return "inline"
            queue.append(task)
            if self._active < self._max_workers and self._wake_one():
                return "spawn"
            return "queued"

    def _wake_one(self) -> bool:
        """Get one more thread moving (lock held); True: the caller must start one."""
        if self._idle:
            self._idle -= 1
            self._wakeup.notify()
            return False
        if self._threads <= self._max_workers and not self._stopping:
            self._threads += 1
            return True
        return False

    def next_task(self) -> object:
        """Block until there is something to do: a task, ``_LEAD``, or ``None`` (stop)."""
        with self._lock:
            while True:
                if self._stopping:
                    self._threads -= 1
                    return None
                if self._active < self._max_workers:
                    task = self._next_locked()
                    if task is not None:
                        self._active += 1
                        return task
                if not self._leading:
                    self._leading = True
                    return _LEAD
                self._idle += 1
                # repro: allow[REPRO006] an idle follower is by definition not the leader; this wait is how it sleeps until work or the role arrives
                self._wakeup.wait()

    def finished(self) -> None:
        """A handler (queued or inline) returned: free its slot."""
        with self._lock:
            self._active -= 1

    def release_leadership(self) -> bool:
        """The leader steps down; True: no follower was idle, start a thread."""
        with self._lock:
            self._leading = False
            return self._wake_one()

    def shutdown(self) -> None:
        with self._lock:
            self._stopping = True
            self._wakeup.notify_all()

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return self.stats.snapshot()

    def retry_hint_ms(self, klass: str, default: int) -> int:
        """Retry-after hint from the measured bulk drain rate.

        ``depth × EWMA(bulk inter-dispatch interval)`` estimates how long the
        queue needs to drain to where a retried frame would land, clamped to
        [``MIN_RETRY_AFTER_MS``, ``MAX_RETRY_AFTER_MS``].  Before two bulk
        frames have been dispatched there is no measured rate and the caller's
        ``default`` (the configured constant) is returned; interactive sheds
        also use the default — their queue is not the drain-limited one.
        """
        if klass != "bulk":
            return default
        with self._lock:
            ewma_ns = self._bulk_interval_ewma_ns
            depth = len(self._queues["bulk"])
        if ewma_ns <= 0.0:
            return default
        hint = max(1, depth) * ewma_ns / 1e6
        return int(min(max(hint, MIN_RETRY_AFTER_MS), MAX_RETRY_AFTER_MS))

    def _next_locked(self) -> Optional[_Task]:
        interactive = self._queues["interactive"]
        bulk = self._queues["bulk"]
        if interactive and (self._interactive_run < self._weight or not bulk):
            self._interactive_run += 1
            self.stats.dispatched_interactive += 1
            return interactive.popleft()
        if bulk:
            self._interactive_run = 0
            self.stats.dispatched_bulk += 1
            now_ns = time.monotonic_ns()
            if self._bulk_last_dispatch_ns:
                interval = now_ns - self._bulk_last_dispatch_ns
                if self._bulk_interval_ewma_ns > 0.0:
                    self._bulk_interval_ewma_ns += 0.2 * (interval - self._bulk_interval_ewma_ns)
                else:
                    self._bulk_interval_ewma_ns = float(interval)
            self._bulk_last_dispatch_ns = now_ns
            return bulk.popleft()
        return None


class _Connection:
    """Per-connection transport state: socket, parser, write lock."""

    def __init__(self, sock: socket.socket, address: Tuple[str, int]) -> None:
        self.sock = sock
        self.address = address
        self.assembler = FrameAssembler()
        #: Reusable receive staging buffer for ``recv_into`` — safe to reuse
        #: because the assembler copies into per-frame payload buffers.
        self.recv_buffer = bytearray(1 << 16)
        #: True once this peer's ``hello`` offered the ``tracing`` capability
        #: and the transport has tracing enabled.  Every per-frame tracing
        #: cost (timestamps, span dicts) is gated on this flag, so untraced
        #: connections pay zero extra allocations per frame.
        self.tracing = False
        self.write_lock = threading.Lock()
        #: Frames accepted but not yet answered; guarded by ``state_lock``.
        self.in_flight = 0
        self.state_lock = threading.Lock()
        self.closed = False


class TimeCryptTCPServer:
    """A background TCP server run leader/followers by ``max_workers + 1`` threads.

    ``max_workers`` bounds concurrent request execution across *all*
    connections; accepting another client costs a selector registration,
    not a thread, and serving threads are only started when there is work
    for them (an idle server holds one).  A custom ``dispatcher`` may be
    injected (tests use this to add slow or failing operations).

    Frames are admitted through a two-class weighted scheduler with bounded
    queues and credit-based flow control (see the module docstring);
    ``credit_window=0`` disables credits.
    """

    def __init__(
        self,
        engine: Optional[ServerEngine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        dispatcher: Optional[WireDispatcher] = None,
        credit_window: int = DEFAULT_CREDIT_WINDOW,
        bulk_queue_limit: int = DEFAULT_BULK_QUEUE_LIMIT,
        retry_after_ms: int = DEFAULT_RETRY_AFTER_MS,
        tracing: bool = True,
        node_name: Optional[str] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("the server needs at least one handler slot")
        if dispatcher is None and engine is None:
            raise ValueError("either an engine or a dispatcher is required")
        self._engine = engine
        self._dispatcher = dispatcher if dispatcher is not None else RequestDispatcher(engine)
        self._credit_window = max(0, int(credit_window or 0))
        self._dispatcher.credit_window = self._credit_window or None
        self._retry_after_ms = max(1, int(retry_after_ms))
        #: Tracing support: spans are recorded only for connections whose
        #: ``hello`` offered the capability, so ``tracing=True`` costs nothing
        #: until a client opts in.  ``tracing=False`` refuses the capability
        #: outright (the hot path then never checks a clock).
        self._tracing = bool(tracing)
        # Transport-level wire counters, merged into scheduler_stats().
        self._wire_lock = threading.Lock()
        self._wire_counters = {
            "bytes_sent": 0,
            "bytes_received": 0,
            "vectored_writes": 0,
            "frames_coalesced": 0,
        }
        self._listener = socket.create_server((host, port), reuse_port=False)
        self._listener.setblocking(True)
        self._node_name = node_name or f"server:{self._listener.getsockname()[1]}"
        self._dispatcher.tracing = self._tracing
        self._dispatcher.node_name = self._node_name
        # Register this server's scheduler/wire counters into the unified
        # metrics plane (weakly — a stopped, dropped server unregisters
        # itself), so a single `stats` scrape covers every live server.
        self._metrics_key = REGISTRY.register(
            f"server.scheduler[{self._node_name}]",
            self,
            snapshot=lambda server: server.scheduler_stats(),
        )
        self._selector = selectors.DefaultSelector()
        self._scheduler = _FrameScheduler(
            max_workers=max_workers,
            interactive_limit=INTERACTIVE_QUEUE_LIMIT,
            bulk_limit=bulk_queue_limit,
            interactive_weight=INTERACTIVE_WEIGHT,
        )
        self._connections: Set[_Connection] = set()
        #: Frames the leader has assembled but not yet admitted.  Touched
        #: only by the current leader; it travels with the role.
        self._backlog: Deque[Tuple[_Connection, Frame]] = deque()
        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._wakeup_recv.setblocking(False)
        self._running = False
        self._threads: List[threading.Thread] = []
        self._threads_lock = threading.Lock()

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()

    @property
    def dispatcher(self) -> WireDispatcher:
        return self._dispatcher

    @property
    def credit_window(self) -> int:
        return self._credit_window

    def scheduler_stats(self) -> Dict[str, int]:
        """A snapshot of the scheduler's deterministic counters.

        The wire-memory counters (``bytes_sent``/``bytes_received``,
        ``vectored_writes``, ``frames_coalesced``) are transport-level and
        ride in the same snapshot.
        """
        snapshot = self._scheduler.snapshot()
        with self._wire_lock:
            snapshot.update(self._wire_counters)
        return snapshot

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> "TimeCryptTCPServer":
        self._running = True
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        self._selector.register(self._wakeup_recv, selectors.EVENT_READ, "wakeup")
        # Nobody leads yet: "releasing" the free role gets the first thread going.
        if self._scheduler.release_leadership():
            self._spawn()
        return self

    def stop(self) -> None:
        REGISTRY.unregister(self._metrics_key)
        self._running = False
        self._scheduler.shutdown()
        self._wake()
        with self._threads_lock:
            threads, self._threads = self._threads, []
        for thread in threads:
            thread.join(timeout=5)
        for connection in list(self._connections):
            self._close_connection(connection)
        self._selector.close()
        for handle in (self._wakeup_recv, self._wakeup_send, self._listener):
            try:
                handle.close()
            except OSError:
                pass

    def __enter__(self) -> "TimeCryptTCPServer":
        return self.start()

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()

    def _wake(self) -> None:
        try:
            self._wakeup_send.send(b"\x00")
        except OSError:
            pass

    # -- serving threads ---------------------------------------------------------------

    def _spawn(self) -> None:
        """Start one more serving thread (the scheduler already counted it)."""
        with self._threads_lock:
            thread = threading.Thread(
                target=self._serve,
                daemon=True,
                name=f"tc-serve[{self._node_name}]-{len(self._threads)}",
            )
            self._threads.append(thread)
        thread.start()

    def _serve(self) -> None:  # pragma: no cover - exercised via integration tests
        """One symmetric serving thread: lead when the role is free, else run tasks."""
        scheduler = self._scheduler
        while True:
            task = scheduler.next_task()
            if task is None:
                return
            if task is _LEAD:
                self._lead()
            else:
                self._run_task(task)  # type: ignore[arg-type]

    def _run_task(self, task: _Task) -> None:
        """Run one admitted unit of work on this thread, then free its slot."""
        connection, frame, enqueue_ns, request = task
        try:
            self._handle_frame(connection, frame, enqueue_ns, request)
        except Exception:  # noqa: BLE001 — the handler answers its own errors
            logger.exception("unhandled error serving a frame on %s", self._node_name)
        finally:
            self._scheduler.finished()

    def _lead(self) -> None:
        """Hold the leader role until the server stops or this thread must wait.

        ``before_blocking()`` fires the hook installed here, which frees the
        role (waking or starting a successor) *before* the wait begins.
        Frames already assembled stay in ``_backlog`` for whoever leads next.
        """
        # The hook is one-shot, so "still armed" is exactly "still the leader".
        set_blocking_hook(self._step_down)
        try:
            while blocking_hook_armed() and self._running:
                if not self._backlog:
                    self._poll()
                while self._backlog and blocking_hook_armed():
                    self._admit(*self._backlog.popleft())
        finally:
            before_blocking()  # stopping: step down if that has not happened yet

    def _step_down(self) -> None:
        if self._scheduler.release_leadership():
            self._spawn()

    def _poll(self) -> None:
        """One selector pass: accept, read, and assemble frames into the backlog."""
        for key, _mask in self._selector.select(timeout=1.0):
            if key.data == "accept":
                self._accept()
            elif key.data == "wakeup":
                self._drain_wakeup()
            else:
                self._service(key.data)

    def _accept(self) -> None:
        try:
            sock, address = self._listener.accept()
        except OSError:
            return
        sock.setblocking(True)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = _Connection(sock, address)
        self._connections.add(connection)
        self._selector.register(sock, selectors.EVENT_READ, connection)

    def _drain_wakeup(self) -> None:
        try:
            while self._wakeup_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _service(self, connection: _Connection) -> None:
        """One readable socket: pull bytes, queue every completed frame for admission.

        Bytes land in the connection's reusable staging buffer via
        ``recv_into`` (no per-read allocation); the assembler copies them
        into per-frame payload buffers, so reusing the staging buffer on the
        next read is safe even while decoded views are still held.
        """
        try:
            received = connection.sock.recv_into(connection.recv_buffer)
        except OSError:
            received = 0
        if not received:
            self._close_connection(connection)
            return
        with self._wire_lock:
            self._wire_counters["bytes_received"] += received
        try:
            frames = connection.assembler.feed(memoryview(connection.recv_buffer)[:received])
        except ProtocolError:
            # Unrecognizable bytes: the stream cannot be re-synchronised.
            self._close_connection(connection)
            return
        for frame in frames:
            self._backlog.append((connection, frame))

    def _admit(self, connection: _Connection, frame: Frame) -> None:
        """Classify a frame, then run it here, queue it, or shed it (typed).

        The message is decoded once, here (attachments stay views), and the
        :class:`Request` rides the task.  An undecodable frame classifies
        interactive and the handler answers it with its typed error.
        """
        request: Optional[Request] = None
        operation: Optional[str] = None
        try:
            request = Request.decode(frame.payload)
            operation = request.operation
        except Exception:  # noqa: BLE001 — _handle_frame re-decodes and answers the error
            pass
        klass = classify_operation(operation)
        with connection.state_lock:
            connection.in_flight += 1
            depth = connection.in_flight
        # Tracing-gated: untraced connections never read the clock here.
        enqueue_ns = time.monotonic_ns() if connection.tracing else 0
        # Local ops bypass the caps: liveness must never read as an outage.
        task = (connection, frame, enqueue_ns, request)
        if self._place(task, klass, is_local(operation), depth) == "shed":
            self._shed_frame(connection, frame, klass)

    def _place(self, task: _Task, klass: str, force: bool, in_flight: int = 0) -> str:
        """Admit a task; run it here or start a thread for it as the verdict says."""
        # The inline offer stands only with nothing else waiting to be admitted
        # behind this frame: a burst is spread over followers, a lone request is not.
        verdict = self._scheduler.admit(task, klass, force, not self._backlog, in_flight)
        if verdict == "inline":
            self._run_task(task)
        elif verdict == "spawn":
            self._spawn()
        return verdict

    def _close_connection(self, connection: _Connection) -> None:
        """Leader (or ``stop``) only: unregister, then shut down and close the socket."""
        with connection.state_lock:
            already_closed, connection.closed = connection.closed, True
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, OSError, ValueError):
            pass
        if already_closed:
            return
        self._connections.discard(connection)
        # shutdown() promptly errors out any thread blocked mid-send (it
        # does not release the fd, so there is no reuse hazard); only then
        # close() under the write lock, so the fd number can never be
        # recycled into a new connection while a handler is still writing.
        try:
            connection.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        with connection.write_lock:
            try:
                connection.sock.close()
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------------------

    def _handle_frame(
        self,
        connection: _Connection,
        frame: Frame,
        enqueue_ns: int = 0,
        request: Optional[Request] = None,
    ) -> None:
        # Everything tracing-related below is gated on the per-connection
        # negotiation flag: with tracing off this method allocates nothing
        # beyond the pre-tracing baseline.
        traced = connection.tracing
        start_ns = time.monotonic_ns() if traced else 0
        span: Optional[Dict[str, Any]] = None
        try:
            if request is None:
                # Undecodable at admission: the error raised again here is
                # what answers the correlation id.
                request = Request.decode(frame.payload)
            if request.operation == "hello":
                self._note_hello(connection, request)
            if traced and request.trace is not None:
                span = self._start_span(request, frame, enqueue_ns, start_ns)
                previous = set_context((span["trace_id"], span["span_id"]))
                try:
                    response = self._dispatcher.dispatch(request)
                finally:
                    set_context(previous)
            else:
                response = self._dispatcher.dispatch(request)
        except TimeCryptError as exc:
            response = Response.failure(exc)
        except Exception as exc:  # noqa: BLE001 — a frame must never go unanswered
            # Anything a hostile or buggy peer can make decode/dispatch
            # raise must still answer the correlation id.
            response = Response.failure(
                ProtocolError(f"malformed request: {type(exc).__name__}: {exc}")
            )
        handler_end_ns = time.monotonic_ns() if span is not None else 0
        self._write_response(connection, frame, response)
        if span is not None:
            self._finish_span(span, response, start_ns, handler_end_ns)

    def _start_span(
        self, request: Request, frame: Frame, enqueue_ns: int, start_ns: int
    ) -> Dict[str, Any]:
        """A server-side span for a traced request, timing fields pending.

        Leakage stance: the span records only what the server already sees —
        the operation name, the scheduler class, byte sizes, and timings.
        Never query arguments, keys, or attachment contents.
        """
        trace_id, parent_id = request.trace  # type: ignore[misc]
        return {
            "trace_id": trace_id,
            "span_id": new_span_id(),
            "parent_id": parent_id,
            "node": self._node_name,
            "kind": "server",
            "op": request.operation,
            "class": classify_operation(request.operation),
            "queue_ms": (start_ns - enqueue_ns) / 1e6 if enqueue_ns else 0.0,
            "request_bytes": len(frame.payload),
        }

    def _finish_span(
        self, span: Dict[str, Any], response: Response, start_ns: int, handler_end_ns: int
    ) -> None:
        end_ns = time.monotonic_ns()
        span["handler_ms"] = (handler_end_ns - start_ns) / 1e6
        span["write_ms"] = (end_ns - handler_end_ns) / 1e6
        span["total_ms"] = span["queue_ms"] + (end_ns - start_ns) / 1e6
        span["status"] = "ok" if response.ok else (response.error_type or "error")
        span["response_bytes"] = sum(len(blob) for blob in response.attachments)
        SPANS.record(span)

    def _note_hello(self, connection: _Connection, request: Request) -> None:
        """Record the peer's capability offers (transport-level negotiation).

        Tracing is on only when *both* ends opt in: the transport enables it
        *and* this peer's ``hello`` offers it.  Clients that never offer get
        untraced frames.
        """
        if self._tracing and request.args.get("tracing") is True:
            connection.tracing = True

    def _shed_frame(self, connection: _Connection, frame: Frame, klass: str) -> None:
        """Answer a refused frame with a typed ``overloaded`` (never dead air).

        The retry hint is adaptive: it reflects the measured bulk drain rate
        (queue depth × EWMA inter-dispatch interval) rather than the static
        ``retry_after_ms`` constant, which only serves as the fallback before
        the scheduler has observed a drain interval.
        """
        retry_after_ms = self._scheduler.retry_hint_ms(klass, default=self._retry_after_ms)
        error = OverloadedError(
            f"server overloaded: the {klass} queue is full", retry_after_ms=retry_after_ms
        )
        response = Response.failure(error)
        response.result = {"retry_after_ms": retry_after_ms, "queue": klass}
        self._write_response(connection, frame, response)

    def _write_response(self, connection: _Connection, frame: Frame, response: Response) -> None:
        if self._credit_window:
            # One credit back per answered frame: the sum of grants a client
            # ever sees equals the frames the server accepted, so the window
            # is conserved.
            response.credit_grant = 1
        try:
            encoded = self._encode_response(frame, response)
        except TimeCryptError as exc:
            # An unencodable response (e.g. attachments past the frame cap)
            # must still answer the correlation id — swallowing it here
            # would leave the client staring at dead air until its timeout,
            # which a storage client reads as a node outage.
            fallback = Response.failure(exc)
            fallback.credit_grant = response.credit_grant
            encoded = self._encode_response(frame, fallback)
        with connection.state_lock:
            if connection.in_flight > 0:
                connection.in_flight -= 1
        # The leader answers inline requests and sheds itself, so neither a
        # contended write lock nor a full socket buffer may put it to sleep
        # while it still holds the role: before_blocking() first.
        lock = connection.write_lock
        acquire_announced(lock)
        try:
            if connection.closed:
                return
            _syscalls, sent, coalesced = write_vectored(
                connection.sock, encoded, would_block=before_blocking
            )
        except OSError:
            # The leader owns selector state: make the socket read as EOF
            # there, and it closes and unregisters the connection.
            try:
                connection.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return
        finally:
            lock.release()
        with self._wire_lock:
            self._wire_counters["bytes_sent"] += sent
            self._wire_counters["vectored_writes"] += 1
            self._wire_counters["frames_coalesced"] += coalesced

    def _encode_response(self, frame: Frame, response: Response) -> List:
        """The response's wire form: ``[frame_header, message_header, *attachment_views]``.

        Nothing is joined, so a 32 MiB ``get_range`` response is never
        concatenated.
        """
        return encode_frame_segments_v2(frame.correlation_id, response.encode_segments())
