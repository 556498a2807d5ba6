"""Length-prefixed framing over byte streams.

One frame layout: ``magic b"T2" (2B) || version (1B) || correlation id (8B,
big-endian) || length (4B, big-endian) || payload``.  Every request carries
a connection-unique correlation id that the server echoes on the matching
response, so many requests can be in flight at once and responses may
arrive out of order.  The version byte leaves room for future header
revisions without another magic change.  Anything else on the socket — the
retired ``TC`` lockstep framing included — is "bad frame magic": a typed
:class:`~repro.exceptions.ProtocolError`, and the server closes the
connection.  Frames are capped at 64 MiB — far above any legitimate
TimeCrypt message — to stop a malformed or malicious peer from forcing huge
allocations; the cap is checked before the payload buffer is allocated.

Memory path
-----------

Large payloads (encrypted chunk batches, ``get_range`` responses) are never
concatenated: :func:`encode_frame_segments_v2` returns the frame as
``[packed_header, *message_segments]``, and :func:`write_vectored` hands the
segment list to ``socket.sendmsg`` in IOV_MAX-sized groups, coalescing only
runs of small segments so tiny frames still cost one syscall.  On the read
side :class:`FrameReader` and :class:`FrameAssembler` fill one dedicated
buffer per payload via ``recv_into``/slice assignment and yield read-only
memoryviews over it, so decoding attaches views instead of slicing copies.

**Copy accounting.**  ``MEMORY_COUNTERS`` counts *full-payload
materializations after the bytes first exist in user space* (encode: after
the payload exists as attachment objects; decode: after the bytes land from
the kernel).  The path costs 0 on encode and at most 1 on decode (the
assembler's copy-in; the direct ``recv_into`` reader costs 0).  The counters
are deterministic for a fixed call sequence, which is what
``benchmarks/bench_wire_memory.py`` gates on.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import time
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ProtocolError, TransportError

MAGIC_V2 = b"T2"
PROTOCOL_VERSION = 2
MAX_FRAME_BYTES = 64 * 1024 * 1024
_HEADER_V2 = struct.Struct(">2sBQI")
#: Bytes of frame header in front of every payload.
HEADER_BYTES = _HEADER_V2.size

#: Segments smaller than this are coalesced into one buffer before being
#: handed to ``sendmsg``, so a burst of tiny frames still costs one syscall
#: and one iovec instead of hundreds.  Large attachments always go out as
#: their own iovec, uncopied.
COALESCE_THRESHOLD = 8 * 1024

try:
    IOV_MAX = int(os.sysconf("SC_IOV_MAX"))
    if IOV_MAX <= 0:
        IOV_MAX = 1024
except (AttributeError, OSError, ValueError):  # pragma: no cover - platform
    IOV_MAX = 1024

#: Per-call non-blocking flag for ``recv_into`` / ``sendmsg`` on a blocking
#: socket (0 where the platform lacks it: those calls then simply block).
_MSG_DONTWAIT = getattr(socket, "MSG_DONTWAIT", 0)

Readable = Union[BinaryIO, socket.socket]
Segment = Union[bytes, bytearray, memoryview]


@dataclass
class WireMemoryCounters:
    """Deterministic bookkeeping for the wire memory path.

    ``payload_copies`` counts full-payload materializations (see the module
    docstring for the exact convention); the other counters describe the
    write path.  They are plain module-global integers bumped without
    locking — the benchmark measures single-threaded call sequences, and in
    live servers they are advisory.
    """

    payload_copies: int = 0
    syscalls: int = 0
    vectored_writes: int = 0
    frames_coalesced: int = 0
    bytes_written: int = 0

    def reset(self) -> None:
        self.payload_copies = 0
        self.syscalls = 0
        self.vectored_writes = 0
        self.frames_coalesced = 0
        self.bytes_written = 0

    def snapshot(self) -> dict:
        return {
            "payload_copies": self.payload_copies,
            "syscalls": self.syscalls,
            "vectored_writes": self.vectored_writes,
            "frames_coalesced": self.frames_coalesced,
            "bytes_written": self.bytes_written,
        }


#: Process-wide counter instance.  Reset before a measured section.
MEMORY_COUNTERS = WireMemoryCounters()

# Registered into the unified metrics plane so one registry snapshot (or one
# `stats` wire round trip) covers the wire-memory bill too — the counters
# stop being an unscoped global only benchmarks knew about.  obs is
# stdlib-only, so this import cannot cycle back into repro.net.
from repro.obs.metrics import REGISTRY as _METRICS_REGISTRY  # noqa: E402

_METRICS_REGISTRY.register(
    "wire.memory",
    MEMORY_COUNTERS,
    deterministic=("payload_copies", "vectored_writes", "frames_coalesced"),
)


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame: correlation id and payload.

    ``payload`` is a read-only :class:`memoryview` over a buffer dedicated
    to this frame (never reused), so holding the view is memory-safe — but
    views are unhashable and refuse ``.decode()``; call ``bytes()`` (or
    :func:`repro.net.messages.retain`) at any boundary that retains or keys
    on the payload.
    """

    correlation_id: int
    payload: memoryview


def _wait_readable(sock: socket.socket, seconds: float) -> bool:
    """Block until ``sock`` is readable, at most ``seconds``; False on expiry."""
    return seconds > 0 and bool(select.select([sock], [], [], seconds)[0])


def _read_exact_into(source: Readable, view: memoryview, stall: Optional[float] = None) -> None:
    """Fill ``view`` completely from a socket or file-like object.

    With ``stall`` (seconds, sockets only) no single ``recv`` waits longer
    than that for the next byte: a peer that goes silent mid-frame raises
    :class:`TransportError` instead of hanging the reading thread.
    """
    filled = 0
    total = len(view)
    if isinstance(source, socket.socket):
        flags = _MSG_DONTWAIT if stall is not None else 0
        while filled < total:
            try:
                got = source.recv_into(view[filled:], 0, flags)
            except BlockingIOError:
                if not _wait_readable(source, stall):
                    raise TransportError("peer stalled mid-frame") from None
                continue
            if not got:
                raise TransportError("connection closed mid-frame")
            filled += got
        return
    readinto = getattr(source, "readinto", None)
    if readinto is not None:
        while filled < total:
            got = readinto(view[filled:])
            if not got:
                raise TransportError("connection closed mid-frame")
            filled += got
        return
    while filled < total:
        chunk = source.read(total - filled)
        if not chunk:
            raise TransportError("connection closed mid-frame")
        view[filled : filled + len(chunk)] = chunk
        filled += len(chunk)


def _read_buffer(source: Readable, length: int, stall: Optional[float] = None) -> bytearray:
    """Read exactly ``length`` bytes into a fresh, dedicated buffer."""
    buffer = bytearray(length)
    if length:
        _read_exact_into(source, memoryview(buffer), stall)
    return buffer


def write_vectored(
    sink: Readable,
    segments: Sequence[Segment],
    would_block: Optional[Callable[[], None]] = None,
) -> Tuple[int, int, int]:
    """Write ``segments`` without concatenating the large ones.

    Runs of consecutive segments smaller than :data:`COALESCE_THRESHOLD` are
    merged into one small buffer (tiny frames stay one iovec / one syscall);
    everything else is passed to ``socket.sendmsg`` by reference, at most
    :data:`IOV_MAX` iovecs per call, resuming correctly across partial
    sends.  Sinks without ``sendmsg`` (file-likes, BytesIO) fall back to
    sequential writes.

    With ``would_block`` the first ``sendmsg`` is attempted non-blocking;
    only if the socket buffer cannot take everything is ``would_block()``
    called (once), and the rest goes out with ordinary blocking sends.  The
    server's leader thread passes ``before_blocking`` here, so it never
    sleeps on a slow reader while it is the one watching the sockets.

    Returns ``(syscalls, bytes_written, segments_coalesced)``.
    """
    iovs: List[memoryview] = []
    coalesced = 0
    pending: bytearray = bytearray()
    for segment in segments:
        length = len(segment)
        if not length:
            continue
        if length < COALESCE_THRESHOLD:
            pending += segment
            coalesced += 1
        else:
            if pending:
                iovs.append(memoryview(pending))
                pending = bytearray()
            iovs.append(memoryview(segment))
    if pending:
        iovs.append(memoryview(pending))
    total = sum(len(iov) for iov in iovs)

    sendmsg = getattr(sink, "sendmsg", None)
    syscalls = 0
    if sendmsg is not None:
        flags = _MSG_DONTWAIT if would_block is not None else 0
        while iovs:
            group = iovs[:IOV_MAX]
            try:
                sent = sendmsg(group, (), flags) if flags else sendmsg(group)
            except BlockingIOError:
                sent = 0
            syscalls += 1
            # Advance across whole and partially-sent iovecs.
            while sent > 0 and iovs:
                head = iovs[0]
                if sent >= len(head):
                    sent -= len(head)
                    iovs.pop(0)
                else:
                    iovs[0] = head[sent:]
                    sent = 0
            if flags and iovs:
                flags = 0
                would_block()
    else:
        for iov in iovs:
            sink.write(iov)
            syscalls += 1
        flush = getattr(sink, "flush", None)
        if flush is not None:
            flush()

    MEMORY_COUNTERS.syscalls += syscalls
    MEMORY_COUNTERS.vectored_writes += 1
    MEMORY_COUNTERS.frames_coalesced += coalesced
    MEMORY_COUNTERS.bytes_written += total
    return syscalls, total, coalesced


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")


def _segments_length(segments: Iterable[Segment]) -> int:
    return sum(len(segment) for segment in segments)


def _check_correlation_id(correlation_id: int) -> None:
    if not 0 <= correlation_id < 1 << 64:
        raise ProtocolError(f"correlation id {correlation_id} outside the 64-bit range")


def encode_frame_segments_v2(
    correlation_id: int, segments: Sequence[Segment]
) -> List[Segment]:
    """Encode one v2 frame as ``[packed_header, *segments]`` — no copies.

    ``segments`` is the message-segment list from
    :func:`repro.net.messages.encode_message_segments`; attachments pass
    through by reference and go to the wire via :func:`write_vectored`.
    """
    length = _segments_length(segments)
    _check_length(length)
    _check_correlation_id(correlation_id)
    header = _HEADER_V2.pack(MAGIC_V2, PROTOCOL_VERSION, correlation_id, length)
    return [header, *segments]


class FrameReader:
    """Blocking frame reader with a reusable header scratch buffer.

    The client pulls response frames through one of these: the 15-byte
    header lands in a scratch via one ``recv_into`` (no per-read allocation)
    and each payload is read straight into its own exact-size buffer — zero
    user-space copies after the kernel hands the bytes over.
    """

    def __init__(self, source: Readable, stall: Optional[float] = None) -> None:
        self._source = source
        #: Seconds of mid-frame silence tolerated from a socket source
        #: (``None``: plain blocking reads).
        self._stall = stall
        self._scratch = bytearray(HEADER_BYTES)

    def read(self, deadline: Optional[float] = None) -> Optional[Frame]:
        """The next frame; ``None`` if ``deadline`` passes before one starts.

        ``deadline`` (monotonic seconds, socket sources only) bounds the wait
        for the frame's first byte; a frame that has begun is read to its
        end, however long its sender keeps making progress.
        """
        source = self._source
        if deadline is not None and not _wait_readable(source, deadline - time.monotonic()):
            return None
        _read_exact_into(source, memoryview(self._scratch), self._stall)
        correlation_id, length = _parse_header(self._scratch)
        payload = _read_buffer(source, length, self._stall)
        return Frame(correlation_id, memoryview(payload).toreadonly())


def _parse_header(header: bytearray) -> Tuple[int, int]:
    """``(correlation_id, payload_length)`` of a complete 15-byte header.

    Magic, version and the frame cap are all checked here — before the
    caller allocates the payload buffer.
    """
    magic, version, correlation_id, length = _HEADER_V2.unpack_from(header)
    if magic != MAGIC_V2:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported frame version {version}")
    _check_length(length)
    return correlation_id, length


class FrameAssembler:
    """Incremental frame parser for non-lockstep servers.

    The selector-driven server reads whatever bytes a socket has ready and
    feeds them here; :meth:`feed` returns every frame completed by the new
    bytes (possibly none, possibly several).

    Each payload is assembled into a buffer dedicated to that frame (the one
    counted decode copy), so the feed buffer can be reused by the caller and
    emitted frames carry read-only memoryviews that stay valid for as long
    as anything holds them.  Header bytes accumulate in a small scratch; a
    wrong magic is rejected as soon as its two bytes are in, not once the
    whole header is — garbage shorter than a header must not park a
    connection.
    """

    def __init__(self) -> None:
        self._header = bytearray()
        self._correlation_id = 0
        self._payload: bytearray = bytearray()
        self._payload_len = -1  # -1: still reading the header
        self._filled = 0

    def feed(self, data: Segment) -> List[Frame]:
        """Append received bytes; return all frames now complete."""
        view = memoryview(data)
        frames: List[Frame] = []
        while True:
            if self._payload_len < 0:
                view = self._feed_header(view)
                if self._payload_len < 0:
                    # Header still incomplete — all input consumed.
                    return frames
            take = min(len(view), self._payload_len - self._filled)
            if take:
                self._payload[self._filled : self._filled + take] = view[:take]
                self._filled += take
                view = view[take:]
            if self._filled < self._payload_len:
                return frames
            frames.append(self._emit())
            if not len(view):
                return frames

    def _feed_header(self, view: memoryview) -> memoryview:
        """Consume header bytes from ``view``; returns the unconsumed rest."""
        header = self._header
        take = min(len(view), HEADER_BYTES - len(header))
        header += view[:take]
        if len(header) >= 2 and not header.startswith(MAGIC_V2):
            raise ProtocolError(f"bad frame magic {bytes(header[:2])!r}")
        if len(header) == HEADER_BYTES:
            self._correlation_id, self._payload_len = _parse_header(header)
            self._payload = bytearray(self._payload_len)
            self._filled = 0
            header.clear()
        return view[take:]

    def _emit(self) -> Frame:
        MEMORY_COUNTERS.payload_copies += 1
        frame = Frame(self._correlation_id, memoryview(self._payload).toreadonly())
        self._payload = bytearray()
        self._payload_len = -1
        return frame
