"""Tests for the wire memory path.

Covers the segment-based encode path (byte identity with the golden frames
in ``tests/fixtures/wire/golden_frames.json``, recorded with the copying
encoder of the commit named there before it was deleted), vectored writes,
the view-emitting frame assembler (frame-cap edges, buffer-reuse safety for
retained views), hostile varint hardening in the message codec, the one
message form (a zero ``header_len`` is malformed on every tier and on the
client, and is never expanded), and the end-to-end retain audit (stored
attachments survive later traffic over the same buffers).
"""

from __future__ import annotations

import io
import json
import socket
import threading
import tracemalloc
import zlib
from pathlib import Path

import pytest

from repro import ServerEngine, TimeCrypt
from repro.exceptions import ProtocolError
from repro.net.client import RemoteServerClient
from repro.net.framing import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameAssembler,
    FrameReader,
    encode_frame_segments_v2,
    write_vectored,
)
from repro.net.messages import (
    Request,
    Response,
    encode_message_segments,
    retain,
    _decode_message,
)
from repro.net.server import TimeCryptTCPServer
from repro.server.router import StreamRouter
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore
from repro.util.encoding import encode_varint
from repro.util.timeutil import TimeRange

from test_net_pipeline import _frame

GOLDEN_FRAMES = json.loads(
    (Path(__file__).parent / "fixtures" / "wire" / "golden_frames.json").read_text()
)["cases"]


def golden_message(spec: dict):
    """Rebuild the :class:`Request` / :class:`Response` a golden case describes."""
    attachments = [bytes.fromhex(blob) for blob in spec["attachments"]]
    if spec["kind"] == "request":
        trace = tuple(spec["trace"]) if spec["trace"] else None
        return Request(spec["operation"], spec["args"], attachments, trace=trace)
    return Response(
        ok=spec["ok"],
        result=spec["result"],
        attachments=attachments,
        error=spec["error"],
        error_type=spec["error_type"],
        credit_grant=spec["credit_grant"],
    )


class TestGoldenFrames:
    """The wire bytes, pinned against frames recorded before the copying
    encoder (``encode_frame_v2(id, message.encode())``) was deleted."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_FRAMES))
    def test_segments_join_to_the_recorded_bytes_and_decode_back(self, name):
        case = GOLDEN_FRAMES[name]
        message = golden_message(case["message"])
        golden = bytes.fromhex(case["frame"])
        segments = encode_frame_segments_v2(case["correlation_id"], message.encode_segments())
        assert b"".join(segments) == golden
        assembler = FrameAssembler()
        frames = [f for index in range(len(golden)) for f in assembler.feed(golden[index : index + 1])]
        (frame,) = frames
        assert frame.correlation_id == case["correlation_id"]
        decoded = type(message).decode(frame.payload)
        decoded.attachments = [retain(blob) for blob in decoded.attachments]
        assert decoded == message


class TestSegmentEncoding:
    def test_attachments_pass_through_by_reference(self):
        big = bytes(1 << 20)
        segments = encode_message_segments({"op": "ping"}, [big, memoryview(big)])
        assert segments[1] is big
        assert segments[2].obj is big

    def test_frame_segments_enforce_cap_and_correlation_range(self):
        with pytest.raises(ProtocolError):
            encode_frame_segments_v2(1, [b"\x00" * (MAX_FRAME_BYTES + 1)])
        for out_of_range in (1 << 64, -1):
            with pytest.raises(ProtocolError):
                encode_frame_segments_v2(out_of_range, [b""])
        # Exactly at the cap is legal.
        header, payload = encode_frame_segments_v2(1, [bytes(MAX_FRAME_BYTES)])
        assert len(payload) == MAX_FRAME_BYTES

    def test_write_vectored_output_matches_concatenation(self):
        segments = [b"h" * 10, bytes(range(256)) * 400, b"t" * 3, bytes(200_000)]
        sink = io.BytesIO()
        syscalls, total, coalesced = write_vectored(sink, segments)
        assert sink.getvalue() == b"".join(segments)
        assert total == sum(len(s) for s in segments)
        # The two small segments around the large ones coalesce.
        assert coalesced == 2

    def test_write_vectored_over_socketpair_resumes_partial_sends(self):
        left, right = socket.socketpair()
        try:
            segments = [b"S" * 100, bytes(3 << 20), b"E" * 9]
            expected = b"".join(segments)
            received = bytearray()

            def drain() -> None:
                while len(received) < len(expected):
                    chunk = right.recv(1 << 16)
                    if not chunk:
                        return
                    received.extend(chunk)

            reader = threading.Thread(target=drain)
            reader.start()
            write_vectored(left, segments)
            reader.join(timeout=30)
            assert bytes(received) == expected
        finally:
            left.close()
            right.close()


class TestViewAssembler:
    def test_chunked_feed_yields_views(self):
        wire = _frame(3, b"alpha") + _frame(4, b"") + _frame(5, b"omega" * 1000)
        assembler = FrameAssembler()
        frames = []
        for start in range(0, len(wire), 7):
            frames.extend(assembler.feed(wire[start : start + 7]))
        assert [f.correlation_id for f in frames] == [3, 4, 5]
        assert all(isinstance(f.payload, memoryview) for f in frames)
        assert bytes(frames[0].payload) == b"alpha"
        assert bytes(frames[2].payload) == b"omega" * 1000

    def test_payload_at_exactly_the_frame_cap(self):
        payload = bytes(MAX_FRAME_BYTES)
        assembler = FrameAssembler()
        frames = assembler.feed(encode_frame_segments_v2(9, [payload])[0])
        assert frames == []
        # Feed the payload in two halves to exercise mid-payload resume.
        half = MAX_FRAME_BYTES // 2
        assert assembler.feed(payload[:half]) == []
        (frame,) = assembler.feed(payload[half:])
        assert frame.correlation_id == 9
        assert len(frame.payload) == MAX_FRAME_BYTES

    def test_retained_view_survives_feed_buffer_reuse(self):
        """Mutating the fed buffer after feed() must not corrupt emitted frames."""
        scratch = bytearray(1 << 12)
        wire = _frame(1, b"precious-payload")
        scratch[: len(wire)] = wire
        assembler = FrameAssembler()
        (frame,) = assembler.feed(memoryview(scratch)[: len(wire)])
        # The caller reuses its receive buffer for the next read.
        scratch[:] = b"\xff" * len(scratch)
        assert bytes(frame.payload) == b"precious-payload"
        assert frame.payload.readonly

    def test_view_attachments_decode_and_retain(self):
        request = Request("kv_multi_put", {}, [b"key-1", b"value-1"])
        wire = _frame(2, request.encode())
        (frame,) = FrameAssembler().feed(wire)
        decoded = Request.decode(frame.payload)
        assert all(isinstance(blob, memoryview) for blob in decoded.attachments)
        assert retain(decoded.attachments[0]) == b"key-1"
        assert retain(decoded.attachments[1]) == b"value-1"


class TestHostileHeaders:
    def test_forged_giant_header_len_decode_raises_typed(self):
        forged = encode_varint(3 << 30) + b"{}"
        with pytest.raises(ProtocolError):
            Request.decode(forged)

    def test_negative_attachment_length_rejected(self):
        segments = encode_message_segments({"op": "ping"}, [])
        header = b"".join(segments)
        # Splice a negative length into the JSON header.
        tampered = header.replace(b'"attachment_lengths": []', b'"attachment_lengths": [-1]')
        assert tampered != header
        with pytest.raises(ProtocolError):
            _decode_message(tampered)

    def test_non_list_and_bool_attachment_lengths_rejected(self):
        base = b"".join(encode_message_segments({"op": "ping"}, []))
        not_list = base.replace(b'"attachment_lengths": []', b'"attachment_lengths": 4')
        with pytest.raises(ProtocolError):
            _decode_message(not_list)
        booled = base.replace(b'"attachment_lengths": []', b'"attachment_lengths": [true]')
        with pytest.raises(ProtocolError):
            _decode_message(booled)

    def test_truncated_attachment_rejected(self):
        wire = b"".join(encode_message_segments({"op": "ping"}, [b"full-attachment"]))
        with pytest.raises(ProtocolError):
            _decode_message(wire[:-3])


def _zero_header_bomb() -> bytes:
    """A 65 KB payload with ``header_len == 0`` declaring ~64 MiB of zeros.

    ``varint(0) || varint(raw_len) || deflate(raw)`` was the compressed
    message form before it was deleted; a decoder that still expanded it
    peaked near 192 MiB.  The deflate stream is built in 1 MiB steps so the
    test itself never holds the raw bytes.
    """
    raw_len = MAX_FRAME_BYTES - 16
    deflate = zlib.compressobj(9)
    parts = [deflate.compress(bytes(1 << 20)) for _ in range(raw_len >> 20)]
    parts.append(deflate.compress(bytes(raw_len & ((1 << 20) - 1))))
    parts.append(deflate.flush())
    return b"\x00" + encode_varint(raw_len) + b"".join(parts)


ZERO_HEADER_BOMB = _zero_header_bomb()

#: Peak traced allocation allowed while one tier refuses the bomb.
BOMB_PEAK_BYTES = 4 << 20


def _peak_bytes(action) -> tuple:
    """``(action(), peak traced bytes)`` — every thread's allocations count."""
    tracemalloc.start()
    try:
        result = action()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(params=["storage-node", "engine", "router"])
def tier_address(request):
    """A default server of each tier, started and listening."""
    if request.param == "storage-node":
        server = StorageNodeServer(MemoryStore())
    elif request.param == "engine":
        server = TimeCryptTCPServer(ServerEngine())
    else:
        server = StreamRouter()
    with server:
        yield server.address


class TestOneMessageForm:
    """A zero ``header_len`` is malformed like any other bad header — never expanded."""

    def test_bomb_is_a_typed_error_and_the_connection_serves_on(self, tier_address):
        assert 60_000 < len(ZERO_HEADER_BOMB) < 70_000
        with socket.create_connection(tier_address, timeout=10) as sock:
            reader = FrameReader(sock)

            def exchange(correlation_id: int, payload: bytes) -> Response:
                sock.sendall(b"".join(encode_frame_segments_v2(correlation_id, [payload])))
                frame = reader.read()
                assert frame is not None and frame.correlation_id == correlation_id
                return Response.decode(frame.payload)

            hello = exchange(1, Request("hello", {"protocol": PROTOCOL_VERSION}).encode())
            assert hello.ok and "compression" not in hello.result
            refusal, peak = _peak_bytes(lambda: exchange(2, ZERO_HEADER_BOMB))
            assert not refusal.ok and refusal.error_type == "ProtocolError"
            assert peak < BOMB_PEAK_BYTES, f"refusing the bomb peaked at {peak} bytes"
            assert exchange(3, Request("ping").encode()).result == {"pong": True}

    @pytest.mark.parametrize("message", [Request, Response], ids=["request", "response"])
    def test_decode_refuses_without_expanding(self, message):
        """A malicious server is the threat model: the client decodes nothing larger."""

        def decode() -> None:
            with pytest.raises(ProtocolError):
                message.decode(ZERO_HEADER_BOMB)

        _none, peak = _peak_bytes(decode)
        assert peak < BOMB_PEAK_BYTES


class TestEndToEndRetention:
    def test_stored_kv_values_survive_later_traffic(self):
        """The retain audit, end to end: values stored from view attachments
        must not alias frame buffers that later requests overwrite."""
        store = MemoryStore()
        with StorageNodeServer(store) as node:
            host, port = node.address
            remote = RemoteKeyValueStore(host, port)
            try:
                originals = {
                    f"key-{index:03d}".encode(): bytes([index % 251]) * 512
                    for index in range(32)
                }
                remote.multi_put(list(originals.items()))
                # Hammer the same connection (and thus the same receive
                # buffers) with different payloads.
                remote.multi_put(
                    [(f"noise-{i:03d}".encode(), b"\xee" * 600) for i in range(64)]
                )
                found = remote.multi_get(list(originals))
                assert found == originals
                for key, value in remote.scan_prefix(b"key-"):
                    assert isinstance(key, bytes) and isinstance(value, bytes)
                    assert found[key] == value
            finally:
                remote.close()

    def test_wire_client_reads_the_same_bytes_as_the_engine(self, small_config):
        """Byte-identity acceptance: view-decoded chunks equal the engine's own."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, float(t % 13)) for t in range(0, 8_000, 100)])
                owner.flush(uuid)
                wire_chunks = remote.get_range(uuid, TimeRange(0, 8_000))
        local_chunks = engine.get_range(uuid, TimeRange(0, 8_000))
        assert len(wire_chunks) == len(local_chunks) == 8
        for wire_chunk, local_chunk in zip(wire_chunks, local_chunks):
            assert isinstance(wire_chunk.payload, bytes)
            assert wire_chunk == local_chunk
