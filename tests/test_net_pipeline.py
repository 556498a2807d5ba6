"""Tests for the pipelined wire protocol and its batch fast paths.

Covers the frame header and incremental assembler (every cut point, the
frame cap, typed version/magic errors), out-of-order response correlation,
``call_many``/``pipeline()`` batching, mid-batch error isolation, ``hello``
negotiation against hostile and broken peers (no fallback wire exists: a
peer that is not a protocol-2 server fails the constructor, typed, with the
socket closed), concurrent clients against the bounded-worker-pool server,
thread-pooled cluster fan-out fault paths, and the batched token-store /
grant-burst plumbing.
"""

from __future__ import annotations

import io
import socket
import struct
import threading
import time
from typing import Callable, List

import pytest

from repro import Principal, ServerEngine, TimeCrypt, TimeCryptConsumer
from repro.access.keystore import TokenStore
from repro.crypto.heac import HEACCipher
from repro.crypto.keytree import KeyDerivationTree
from repro.exceptions import (
    PartitionError,
    ProtocolError,
    StorageError,
    StreamNotFoundError,
    TransportError,
)
from repro.net.client import RemoteServerClient
from repro.net.framing import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    Frame,
    FrameAssembler,
    FrameReader,
    encode_frame_segments_v2,
)
from repro.net.messages import Request, Response
from repro.net.server import RequestDispatcher, TimeCryptTCPServer
from repro.obs.metrics import REGISTRY
from repro.storage.cluster import StorageCluster
from repro.storage.memory import MemoryStore
from repro.util.blocking import before_blocking
from repro.util.timeutil import TimeRange


def _frame(correlation_id: int, payload: bytes) -> bytes:
    """One whole frame as bytes (tests splice, truncate and corrupt these)."""
    return b"".join(encode_frame_segments_v2(correlation_id, [payload]))


def _header(magic: bytes, version: int, correlation_id: int, length: int) -> bytes:
    return struct.pack(">2sBQI", magic, version, correlation_id, length)


class TestFraming:
    def test_roundtrip_over_stream(self):
        frame = FrameReader(io.BytesIO(_frame(0xDEADBEEF, b"payload"))).read()
        assert frame == Frame(correlation_id=0xDEADBEEF, payload=b"payload")
        assert isinstance(frame.payload, memoryview) and frame.payload.readonly

    def test_bad_magic_rejected(self):
        with pytest.raises(ProtocolError, match="bad frame magic"):
            FrameReader(io.BytesIO(b"XX" + bytes(HEADER_BYTES))).read()

    def test_retired_tc_framing_is_bad_magic(self):
        """The old lockstep header (``TC`` + 4-byte length) is just garbage now."""
        wire = b"TC" + struct.pack(">I", 4) + b"ping" + bytes(HEADER_BYTES)
        with pytest.raises(ProtocolError, match="bad frame magic"):
            FrameReader(io.BytesIO(wire)).read()
        with pytest.raises(ProtocolError, match="bad frame magic"):
            FrameAssembler().feed(wire[:2])  # rejected at the magic, not at 15 bytes

    def test_every_split_point_yields_the_same_frames(self):
        """Cut a 3-frame stream anywhere into two feeds: same frames out."""
        wire = _frame(7, b"first") + _frame(8, b"") + _frame(2**64 - 1, b"third" * 9)
        expected = [(7, b"first"), (8, b""), (2**64 - 1, b"third" * 9)]
        for cut in range(len(wire) + 1):
            assembler = FrameAssembler()
            frames = assembler.feed(wire[:cut]) + assembler.feed(wire[cut:])
            assert [(f.correlation_id, bytes(f.payload)) for f in frames] == expected, cut

    def test_assembler_reassembles_byte_by_byte(self):
        wire = _frame(7, b"first") + _frame(9, b"third")
        assembler = FrameAssembler()
        frames = []
        for index in range(len(wire)):
            frames.extend(assembler.feed(wire[index : index + 1]))
        assert [(f.correlation_id, f.payload) for f in frames] == [(7, b"first"), (9, b"third")]

    def test_assembler_returns_multiple_frames_per_feed(self):
        frames = FrameAssembler().feed(_frame(1, b"a") + _frame(2, b"b"))
        assert [frame.correlation_id for frame in frames] == [1, 2]

    def test_assembler_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            FrameAssembler().feed(b"nonsense")

    def test_oversized_length_rejected_before_allocation(self):
        """``MAX_FRAME_BYTES + 1`` in the length field: typed, nothing allocated."""
        header = _header(b"T2", 2, 1, MAX_FRAME_BYTES + 1)
        assembler = FrameAssembler()
        with pytest.raises(ProtocolError, match="exceeds"):
            assembler.feed(header)
        assert len(assembler._payload) == 0
        with pytest.raises(ProtocolError, match="exceeds"):
            FrameReader(io.BytesIO(header)).read()
        # Exactly at the cap the header is accepted and the payload awaited.
        at_cap = FrameAssembler()
        assert at_cap.feed(_header(b"T2", 2, 1, MAX_FRAME_BYTES)) == []
        assert len(at_cap._payload) == MAX_FRAME_BYTES

    @pytest.mark.parametrize("version", [0, 1, 3, 255])
    def test_unknown_version_byte_is_typed(self, version):
        header = _header(b"T2", version, 1, 0)
        with pytest.raises(ProtocolError, match="unsupported frame version"):
            FrameAssembler().feed(header)
        with pytest.raises(ProtocolError, match="unsupported frame version"):
            FrameReader(io.BytesIO(header)).read()


class _SlowPingDispatcher(RequestDispatcher):
    """A dispatcher whose ping can be told to sleep — for reordering tests."""

    def _op_ping(self, request: Request) -> Response:
        delay_ms = request.args.get("sleep_ms", 0)
        if delay_ms:
            before_blocking()  # the handler contract: announce a wait
            time.sleep(delay_ms / 1000.0)
        return Response.success({"pong": True, "slept_ms": delay_ms})


class TestPipelinedTransport:
    def test_hello_negotiates_operations(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                assert remote.hello_info["protocol"] == 2
                assert remote.supports_operation("insert_chunks")
                assert remote.supports_operation("put_grants")
                assert not remote.supports_operation("drop_everything")
                assert remote.ping()

    def test_out_of_order_responses_correlate(self):
        """A fast request overtakes a slow one on the same connection."""
        engine = ServerEngine()
        dispatcher = _SlowPingDispatcher(engine)
        with TimeCryptTCPServer(engine, dispatcher=dispatcher) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                slow = remote._send_requests([Request("ping", {"sleep_ms": 500})])[0]
                fast = remote._send_requests([Request("ping")])[0]
                fast_response = fast.result(timeout=5)
                assert fast_response.result["slept_ms"] == 0
                # The fast response arrived while the slow request was still
                # in flight — responses really are matched by correlation id,
                # not arrival order.
                assert not slow.done()
                assert slow.result(timeout=5).result["slept_ms"] == 500

    def test_call_many_is_one_round_trip(self, small_config):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 1.0) for t in range(0, 5_000, 100)])
                owner.flush(uuid)
                remote.wire_stats.reset()
                responses = remote.call_many(
                    [
                        Request("ping"),
                        Request("stream_head", {"uuid": uuid}),
                        Request("stat_range", {"uuid": uuid, "start": 0, "end": 5_000}),
                    ]
                )
                assert [response.ok for response in responses] == [True, True, True]
                assert responses[1].result["head"] == 5
                assert remote.wire_stats.round_trips == 1
                assert remote.wire_stats.requests_sent == 3

    def test_pipeline_context_flushes_one_batch(self, small_config):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 2.0) for t in range(0, 3_000, 100)])
                owner.flush(uuid)
                remote.wire_stats.reset()
                with remote.pipeline() as batch:
                    pong = batch.ping()
                    head = batch.stream_head(uuid)
                    chunks = batch.get_range(uuid, TimeRange(0, 3_000))
                    metadata = batch.stream_metadata(uuid)
                assert pong.result() is True
                assert head.result() == 3
                assert len(chunks.result()) == 3
                assert metadata.result().uuid == uuid
                assert remote.wire_stats.round_trips == 1
                assert remote.wire_stats.batches_sent == 1

    def test_pipeline_flush_failure_fails_handles_with_cause(self):
        """A transport failure during flush surfaces from result(), typed."""
        engine = ServerEngine()
        server = TimeCryptTCPServer(engine).start()
        host, port = server.address
        remote = RemoteServerClient(host, port, timeout=5.0)
        try:
            batch = remote.pipeline()
            handle = batch.ping()
            server.stop()  # kill the peer mid-pipeline
            with pytest.raises(TransportError):
                batch.flush()
            with pytest.raises(TransportError):
                handle.result()
            # The failed batch was cleared; flushing again is a no-op.
            batch.flush()
        finally:
            remote.close()
            server.stop()

    def test_pipeline_result_before_flush_raises(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                batch = remote.pipeline()
                handle = batch.ping()
                with pytest.raises(ProtocolError):
                    handle.result()
                batch.flush()
                assert handle.result() is True

    def test_mid_batch_error_surfaces_right_subclass(self, small_config):
        """One failed request in a batch raises its own typed error; the rest succeed."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 1.0) for t in range(0, 2_000, 100)])
                owner.flush(uuid)
                with remote.pipeline() as batch:
                    good_head = batch.stream_head(uuid)
                    bad_head = batch.stream_head("no-such-stream")
                    pong = batch.ping()
                assert good_head.result() == 2
                assert pong.result() is True
                with pytest.raises(StreamNotFoundError):
                    bad_head.result()

    def test_ingest_batch_and_range_query_round_trips(self, small_config):
        """Acceptance: an N-chunk ingest batch and a range read cost ≤2 round trips."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                records = [(t, float(t % 17)) for t in range(0, 32_000, 100)]
                remote.wire_stats.reset()
                owner.insert_records(uuid, records)  # seals 31 chunks in one batch
                owner.flush(uuid)  # seals the open 32nd chunk
                assert remote.wire_stats.round_trips <= 2
                assert remote.stream_head(uuid) == 32
                remote.wire_stats.reset()
                chunks = remote.get_range(uuid, TimeRange(0, 32_000))
                assert len(chunks) == 32
                assert remote.wire_stats.round_trips == 1

    def test_concurrent_clients_hammer_one_server(self, small_config):
        """Many client connections share the bounded dispatch pool correctly."""
        engine = ServerEngine()
        errors = []

        def one_client(index: int, host: str, port: int) -> None:
            try:
                with RemoteServerClient(host, port) as remote:
                    owner = TimeCrypt(server=remote, owner_id=f"owner-{index}")
                    uuid = owner.create_stream(
                        metric="hr", config=small_config, uuid=f"hammer-{index}"
                    )
                    records = [(t, float(index)) for t in range(0, 8_000, 100)]
                    owner.insert_records(uuid, records)
                    owner.flush(uuid)
                    stats = owner.get_stat_range(uuid, 0, 8_000, operators=("count", "sum"))
                    assert stats["count"] == len(records)
                    assert stats["sum"] == pytest.approx(index * len(records))
            except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
                errors.append((index, exc))

        with TimeCryptTCPServer(engine, max_workers=4) as server:
            host, port = server.address
            threads = [
                threading.Thread(target=one_client, args=(index, host, port))
                for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors, f"client failures: {errors}"
        assert sorted(engine.list_streams()) == [f"hammer-{index}" for index in range(6)]

    def test_one_connection_shared_by_many_threads(self, small_config):
        """The multiplexed client is thread-safe without external locking."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 3.0) for t in range(0, 4_000, 100)])
                owner.flush(uuid)
                results = []
                errors = []

                def probe() -> None:
                    try:
                        for _ in range(20):
                            results.append(remote.stream_head(uuid))
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)

                threads = [threading.Thread(target=probe) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not errors
                assert results == [4] * (8 * 20)


class _FakePeer:
    """A listener running ``script(sock)`` on each accepted connection."""

    def __init__(self, script: Callable[[socket.socket], None]) -> None:
        self._script = script
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)  # close() alone does not wake accept()
        self._running = True
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self.accepts = 0
        #: Set once a connection's script returned (the scripts below return
        #: when they read EOF or after they hung up themselves).
        self.done = threading.Event()

    @property
    def address(self):
        return self._listener.getsockname()

    def __enter__(self) -> "_FakePeer":
        self._thread.start()
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self._running = False
        self._thread.join(timeout=5)
        self._listener.close()
        assert not self._thread.is_alive()

    def _accept_loop(self) -> None:
        while self._running:
            try:
                sock, _address = self._listener.accept()
            except socket.timeout:
                continue
            self.accepts += 1
            with sock:
                sock.settimeout(5)
                try:
                    self._script(sock)
                except OSError:
                    pass
            self.done.set()


def _read_until_eof(sock: socket.socket) -> None:
    while sock.recv(4096):
        pass


def _hang_up_on_hello(sock: socket.socket) -> None:
    sock.recv(4096)


def _answer_hello_with(result: dict) -> Callable[[socket.socket], None]:
    def script(sock: socket.socket) -> None:
        hello = FrameReader(sock).read()
        sock.sendall(_frame(hello.correlation_id, Response.success(result).encode()))
        _read_until_eof(sock)

    return script


def _wire_keys(host: str, port: int) -> List[str]:
    return [name for name in REGISTRY.snapshot() if name.startswith(f"client.wire[{host}:{port}]")]


class TestNegotiationFailures:
    """No peer of this client speaks anything but protocol 2: a failed
    ``hello`` is a typed constructor error that leaves nothing behind."""

    def test_negotiation_timeout_raises_instead_of_downgrading(self):
        """A silent peer: typed, and the client closes its own socket at once."""
        with _FakePeer(_read_until_eof) as peer:
            host, port = peer.address
            with pytest.raises(TransportError, match="timed out") as caught:
                RemoteServerClient(host, port, timeout=0.3)
            # ``caught`` still holds the exception, its traceback and through
            # it the half-built client: the EOF below is the constructor
            # closing the socket itself, not the garbage collector.
            assert peer.done.wait(1.0), "the client left its socket open"
            assert caught.value is not None
            assert _wire_keys(host, port) == []

    def test_peer_hanging_up_on_hello_is_not_redialled(self):
        with _FakePeer(_hang_up_on_hello) as peer:
            host, port = peer.address
            with pytest.raises(TransportError):
                RemoteServerClient(host, port, timeout=2.0)
            assert peer.done.wait(1.0)
            time.sleep(0.2)  # a second dial would have been accepted by now
            assert peer.accepts == 1
            assert _wire_keys(host, port) == []

    @pytest.mark.parametrize(
        "result",
        [
            {"protocol": 1, "operations": ["ping"]},
            {"protocol": 2},
            {"protocol": "2", "operations": ["ping"]},
            {"protocol": 2, "operations": "ping"},
        ],
    )
    def test_hello_without_protocol_2_and_operations_is_refused(self, result):
        with _FakePeer(_answer_hello_with(result)) as peer:
            host, port = peer.address
            with pytest.raises(ProtocolError, match="did not answer hello") as caught:
                RemoteServerClient(host, port, timeout=2.0)
            assert peer.done.wait(1.0), "the client left its socket open"
            assert caught.value is not None
            assert peer.accepts == 1
            assert _wire_keys(host, port) == []

    def test_unparseable_hello_answer_is_typed(self):
        def script(sock: socket.socket) -> None:
            sock.recv(4096)
            sock.sendall(b"TC" + struct.pack(">I", 4) + b"nope" + bytes(HEADER_BYTES))
            _read_until_eof(sock)

        with _FakePeer(script) as peer:
            host, port = peer.address
            with pytest.raises(ProtocolError, match="bad frame magic"):
                RemoteServerClient(host, port, timeout=2.0)
            assert peer.done.wait(1.0)
            assert peer.accepts == 1


def _closed_by_peer(sock: socket.socket, within: float = 1.0) -> bool:
    """True if the peer closes (EOF or reset) the connection within ``within`` s."""
    sock.settimeout(within)
    try:
        return sock.recv(4096) == b""
    except ConnectionError:
        return True
    except socket.timeout:
        return False


class TestHostileBytesAgainstLiveServer:
    """Bytes that are not a frame close that connection — and only that one."""

    @pytest.mark.parametrize(
        "hostile",
        [
            # A well-formed frame of the retired lockstep framing.
            b"TC" + struct.pack(">I", len(Request("ping").encode())) + Request("ping").encode(),
            b"\x00garbage!!!",  # 11 bytes: shorter than a header
        ],
        ids=["retired-TC-frame", "11-byte-garbage"],
    )
    def test_connection_closed_and_server_unharmed(self, hostile):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine, node_name="hostile-bytes") as server:
            host, port = server.address
            with RemoteServerClient(host, port) as bystander:
                with socket.create_connection((host, port), timeout=5) as sock:
                    sock.sendall(hostile)
                    assert _closed_by_peer(sock), "the server kept a non-frame connection open"
                assert bystander.ping()
            deadline = time.monotonic() + 1.0
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._connections == set()
            stats = REGISTRY.snapshot()["server.scheduler[hostile-bytes]"]
            assert stats["enqueued_interactive"] == stats["dispatched_interactive"]
            assert stats["enqueued_bulk"] == stats["dispatched_bulk"] == 0
            assert stats["shed_interactive"] == stats["shed_bulk"] == 0
            scheduler = server._scheduler
            assert not scheduler._queues["interactive"] and not scheduler._queues["bulk"]
            assert scheduler._active == 0


class _FlakyStore(MemoryStore):
    """A node store that fails batch ops until ``heal`` is called."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.failing = False

    def multi_put(self, items):
        if self.failing:
            raise StorageError(f"multi_put boom on {self.name}")
        return super().multi_put(items)

    def multi_get(self, keys):
        if self.failing:
            raise StorageError(f"multi_get boom on {self.name}")
        return super().multi_get(keys)

    def multi_delete(self, keys):
        if self.failing:
            raise StorageError(f"multi_delete boom on {self.name}")
        return super().multi_delete(keys)


class TestClusterThreadPoolFanOut:
    def _cluster(self, num_nodes=3, replication_factor=2) -> StorageCluster:
        return StorageCluster(
            num_nodes=num_nodes,
            replication_factor=replication_factor,
            store_factory=_FlakyStore,
        )

    def test_multi_put_marks_down_and_reroutes_under_pool(self):
        cluster = self._cluster()
        items = [(f"key-{index:04d}".encode(), b"v" * 32) for index in range(200)]
        cluster.node_store("node-1").failing = True
        cluster.multi_put(items)
        assert "node-1" in cluster._down
        # Every key must be readable despite the mid-batch node failure.
        found = cluster.multi_get([key for key, _value in items])
        assert all(found[key] == b"v" * 32 for key, _value in items)
        cluster.close()

    def test_multi_get_reroutes_to_replica_when_node_fails(self):
        cluster = self._cluster()
        items = [(f"get-{index:04d}".encode(), bytes([index % 251])) for index in range(150)]
        cluster.multi_put(items)
        cluster.node_store("node-0").failing = True
        found = cluster.multi_get([key for key, _value in items])
        assert all(found[key] == value for key, value in items)
        assert "node-0" in cluster._down
        cluster.close()

    def test_multi_delete_propagates_lowest_named_node_error(self):
        cluster = self._cluster()
        items = [(f"del-{index:04d}".encode(), b"x") for index in range(120)]
        cluster.multi_put(items)
        cluster.node_store("node-2").failing = True
        cluster.node_store("node-1").failing = True
        with pytest.raises(StorageError) as excinfo:
            cluster.multi_delete([key for key, _value in items])
        # Deterministic propagation: the lowest-named failing node wins,
        # regardless of worker-thread timing.
        assert "node-1" in str(excinfo.value)
        cluster.close()

    def test_partition_error_when_all_replicas_down(self):
        cluster = self._cluster(num_nodes=2, replication_factor=2)
        cluster.mark_down("node-0")
        cluster.mark_down("node-1")
        with pytest.raises(PartitionError):
            cluster.multi_put([(b"k", b"v")])
        cluster.close()

    def test_concurrent_batches_keep_data_intact(self):
        cluster = self._cluster(num_nodes=4, replication_factor=2)
        errors = []

        def writer(thread_index: int) -> None:
            try:
                for round_index in range(10):
                    items = [
                        (f"t{thread_index}-r{round_index}-{k}".encode(), b"payload")
                        for k in range(25)
                    ]
                    cluster.multi_put(items)
                    found = cluster.multi_get([key for key, _value in items])
                    assert all(value == b"payload" for value in found.values())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(index,)) for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert cluster.count_prefix(b"t") == 6 * 10 * 25
        cluster.close()


class TestTokenStoreBatching:
    def test_put_grants_matches_scalar_ids_and_order(self):
        """One burst hands out the ids and order of one-grant bursts."""
        scalar = TokenStore()
        batch = TokenStore(MemoryStore())
        grants = [
            ("stream-a", "alice", b"token-a0"),
            ("stream-a", "bob", b"token-b0"),
            ("stream-a", "alice", b"token-a1"),
            ("stream-b", "alice", b"token-ba"),
        ]
        scalar_ids = [scalar.put_grants([grant])[0] for grant in grants]
        batch_ids = batch.put_grants(grants)
        assert batch_ids == scalar_ids == [0, 0, 1, 0]
        for stream, principal in {(g[0], g[1]) for g in grants}:
            assert scalar.grants_for(stream, principal) == batch.grants_for(stream, principal)

    def test_put_grants_is_one_write_round_trip(self):
        backing = MemoryStore()
        store = TokenStore(backing)
        store.put_grants([("s", f"principal-{index}", b"tok") for index in range(32)])
        assert backing.stats.multi_puts == backing.stats.write_round_trips == 1
        assert backing.stats.multi_put_keys == 32

    def test_principal_ids_with_slash_stay_apart(self):
        """'org' and 'org/alice' are two principals, whatever the key layout."""
        store = TokenStore()
        grants = [
            ("s", "org/alice", b"a0"),
            ("s", "org/bob", b"b0"),
            ("s", "org/alice", b"a1"),
            ("s", "org", b"plain"),
            ("s", "org%2Falice", b"literal"),
        ]
        assert store.put_grants(grants) == [0, 0, 1, 0, 0]
        assert store.grants_for("s", "org") == [b"plain"]
        assert store.latest_grant("s", "org") == b"plain"
        assert store.grants_for("s", "org/alice") == [b"a0", b"a1"]
        assert store.grants_for("s", "org%2Falice") == [b"literal"]
        assert store.principals_with_grants("s") == ["org", "org%2Falice", "org/alice", "org/bob"]
        assert store.delete_grants("s", "org") == 1
        assert store.grants_for("s", "org/alice") == [b"a0", b"a1"]
        # A fresh store over the same keys recovers each principal's count.
        fresh = TokenStore(store._store)
        assert fresh.put_grants([("s", "org/alice", b"a2"), ("s", "org", b"again")]) == [2, 0]

    def test_plain_principal_keys_keep_their_bytes(self):
        backing = MemoryStore()
        TokenStore(backing).put_grants([("s", "alice", b"a0"), ("s", "alice", b"a1")])
        assert [key for key, _value in backing.scan_prefix(b"grant/")] == [
            b"grant/s/alice/00000000",
            b"grant/s/alice/00000001",
        ]

    def test_put_grants_appends_after_existing(self):
        store = TokenStore()
        store.put_grants([("s", "alice", b"first")])
        ids = store.put_grants([("s", "alice", b"second"), ("s", "alice", b"third")])
        assert ids == [1, 2]
        assert store.grants_for("s", "alice") == [b"first", b"second", b"third"]

    def test_put_envelopes_is_one_write_round_trip(self):
        backing = MemoryStore()
        store = TokenStore(backing)
        store.put_envelopes("s", 4, {window: b"env" for window in range(0, 64, 4)})
        assert backing.stats.multi_puts == backing.stats.write_round_trips == 1
        assert store.envelopes_for_range("s", 4, 0, 63) == {
            window: b"env" for window in range(0, 64, 4)
        }

    def test_delete_grants_uses_multi_delete(self):
        backing = MemoryStore()
        store = TokenStore(backing)
        store.put_grants([("s", f"p{index}", b"tok") for index in range(10)])
        assert store.delete_grants("s") == 10
        assert backing.stats.multi_deletes == 1
        assert backing.stats.write_round_trips == 2  # the burst's multi_put, then this
        assert store.principals_with_grants("s") == []

    def test_empty_burst_is_free(self):
        backing = MemoryStore()
        store = TokenStore(backing)
        assert store.put_grants([]) == []
        store.put_envelopes("s", 2, {})
        assert backing.stats.round_trips == 0


class TestGrantBurst:
    def test_grant_access_many_end_to_end(self, small_config):
        """A cohort burst issues decryptable grants (full and restricted)."""
        server = ServerEngine()
        owner = TimeCrypt(server=server, owner_id="alice")
        uuid = owner.create_stream(metric="hr", config=small_config)
        records = [(t, float(50 + t % 10)) for t in range(0, 20_000, 100)]
        owner.insert_records(uuid, records)
        owner.flush(uuid)
        cohort = [Principal.create(f"worker-{index}") for index in range(4)]
        for principal in cohort:
            owner.register_principal(principal)
        policies = owner.grant_access_many(
            uuid,
            [
                ("worker-0", 0, 10_000, None),
                ("worker-1", 0, 20_000, None),
                ("worker-2", 0, 20_000, 4_000),
                ("worker-3", 0, 10_000, None),
            ],
        )
        assert len(policies) == 4
        full_consumer = TimeCryptConsumer(server=server, principal=cohort[1])
        full_consumer.fetch_access(uuid, small_config)
        stats = full_consumer.get_stat_range(uuid, 0, 20_000, operators=("count",))
        assert stats["count"] == len(records)
        restricted = TimeCryptConsumer(server=server, principal=cohort[2])
        restricted.fetch_access(uuid, small_config)
        coarse = restricted.get_stat_range(uuid, 0, 20_000, operators=("count",))
        assert coarse["count"] == len(records)

    def test_grant_burst_over_wire_is_bounded_round_trips(self, small_config):
        """Acceptance: a cohort grant burst costs O(1) wire round trips."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 1.0) for t in range(0, 10_000, 100)])
                owner.flush(uuid)
                cohort = [Principal.create(f"member-{index}") for index in range(16)]
                for principal in cohort:
                    owner.register_principal(principal)
                remote.wire_stats.reset()
                owner.grant_access_many(
                    uuid,
                    [(p.principal_id, 0, 10_000, None) for p in cohort],
                )
                assert remote.wire_stats.round_trips <= 2
                # Every member can still pick up and use their grant.
                consumer = TimeCryptConsumer(server=remote, principal=cohort[7])
                consumer.fetch_access(uuid, small_config)
                stats = consumer.get_stat_range(uuid, 0, 10_000, operators=("count",))
                assert stats["count"] == 100

    def test_grant_pickup_burst_via_pipeline(self, small_config):
        """Consumers batched through pipeline(): K pickups, one round trip."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port) as remote:
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                owner.insert_records(uuid, [(t, 1.0) for t in range(0, 2_000, 100)])
                owner.flush(uuid)
                cohort = [Principal.create(f"batch-{index}") for index in range(5)]
                for principal in cohort:
                    owner.register_principal(principal)
                owner.grant_access_many(
                    uuid, [(p.principal_id, 0, 2_000, None) for p in cohort]
                )
                remote.wire_stats.reset()
                with remote.pipeline() as batch:
                    handles = [
                        batch.fetch_grants(uuid, principal.principal_id)
                        for principal in cohort
                    ]
                sealed_lists = [handle.result() for handle in handles]
                assert all(len(sealed) == 1 for sealed in sealed_lists)
                assert remote.wire_stats.round_trips == 1


class TestOuterPadsBatch:
    def test_outer_pads_match_scalar(self, key_tree: KeyDerivationTree):
        cipher = HEACCipher(key_tree)
        for window_start, window_end in ((0, 1), (3, 17), (5, 6), (100, 4096)):
            batch = cipher.outer_pads(window_start, window_end, 6)
            scalar = [
                cipher.outer_pad(window_start, window_end, component)
                for component in range(6)
            ]
            assert batch == scalar

    def test_multi_stream_decrypt_unchanged(self, small_config):
        """End to end: inter-stream aggregates decrypt to the true totals."""
        server = ServerEngine()
        owner = TimeCrypt(server=server, owner_id="alice")
        uuids = []
        for index in range(3):
            uuid = owner.create_stream(metric=f"m{index}", config=small_config)
            owner.insert_records(uuid, [(t, float(index + 1)) for t in range(0, 5_000, 100)])
            owner.flush(uuid)
            uuids.append(uuid)
        stats = owner.get_stat_range(uuids, 0, 5_000, operators=("sum", "count"))
        assert stats["count"] == 3 * 50
        assert stats["sum"] == pytest.approx(50 * (1 + 2 + 3))
