"""Tests for the remote storage node tier and the cluster that rides on it.

Covers the ``kv_*`` wire operations end to end (StorageNodeServer ↔
RemoteKeyValueStore over real TCP), frame-cap batch splitting in one round
trip, paged streaming scans, connect/reconnect and node-outage → StorageError
mapping, a StorageCluster replicating across sockets (byte-identity against
the in-process cluster on a mixed ingest/query/grant/delete workload, node
kill/restart + ``repair_node`` over sockets, concurrent fan-out, per-node
round-trip budgets), the streaming heap-merge scan/repair machinery, cluster
lifecycle edge cases, and the consumer cold-start warm-up pipeline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

import pytest

from repro import Principal, ServerEngine, StreamConfig, TimeCrypt, TimeCryptConsumer
from repro.access.keystore import TokenStore
from repro.exceptions import ProtocolError, StorageError
from repro.net.client import RemoteServerClient
from repro.net.messages import KV_OPERATIONS, Request, Response
from repro.net.server import TimeCryptTCPServer
from repro.storage.cluster import StorageCluster
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeDispatcher, StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore
from repro.util.blocking import before_blocking


@pytest.fixture()
def node():
    """One running storage node over a MemoryStore."""
    store = MemoryStore()
    with StorageNodeServer(store) as server:
        yield server


@pytest.fixture()
def remote(node):
    """A connected RemoteKeyValueStore client for the ``node`` fixture."""
    host, port = node.address
    store = RemoteKeyValueStore(host, port, timeout=5.0)
    yield store
    store.close()


class _ClusterHarness:
    """N storage-node servers plus a StorageCluster dialing them."""

    def __init__(self, num_nodes: int = 3, replication_factor: int = 2, **store_kwargs) -> None:
        self.backing: Dict[str, MemoryStore] = {}
        self.servers: Dict[str, StorageNodeServer] = {}
        self.addresses: Dict[str, Tuple[str, int]] = {}
        for index in range(num_nodes):
            name = f"node-{index}"
            self.backing[name] = MemoryStore()
            server = StorageNodeServer(self.backing[name]).start()
            self.servers[name] = server
            self.addresses[name] = server.address
        self.cluster = StorageCluster(
            num_nodes=num_nodes,
            replication_factor=replication_factor,
            store_factory=lambda name: RemoteKeyValueStore(
                *self.addresses[name], timeout=5.0, **store_kwargs
            ),
        )

    def kill(self, name: str) -> None:
        self.servers[name].stop()

    def restart(self, name: str) -> None:
        self.servers[name] = StorageNodeServer(
            self.backing[name], port=self.addresses[name][1]
        ).start()

    def close(self) -> None:
        self.cluster.close()
        for server in self.servers.values():
            server.stop()


@pytest.fixture()
def harness():
    h = _ClusterHarness()
    yield h
    h.close()


# ---------------------------------------------------------------------------
# kv_* wire operations against one node
# ---------------------------------------------------------------------------


class TestKVWireOps:
    def test_scalar_roundtrip(self, node, remote):
        assert remote.get(b"missing") is None
        remote.put(b"alpha", b"1")
        assert remote.get(b"alpha") == b"1"
        assert remote.contains(b"alpha") and not remote.contains(b"beta")
        assert remote.delete(b"alpha") is True
        assert remote.delete(b"alpha") is False
        assert node.store.get(b"alpha") is None

    def test_batch_roundtrip_and_order(self, node, remote):
        items = [(f"k/{index:03d}".encode(), bytes([index])) for index in range(40)]
        remote.multi_put(items)
        fetched = remote.multi_get([key for key, _ in items] + [b"nope"])
        assert fetched[b"nope"] is None
        assert all(fetched[key] == value for key, value in items)
        assert list(remote.scan_prefix(b"k/")) == items  # key order
        existed = remote.multi_delete([b"k/000", b"k/001", b"zzz"])
        assert existed == {b"k/000", b"k/001"}
        assert len(node.store) == 38

    def test_empty_batches_cost_nothing(self, remote):
        remote.connect()
        remote.wire_stats.reset()
        assert remote.multi_get([]) == {}
        remote.multi_put([])
        assert remote.multi_delete([]) == set()
        assert remote.wire_stats.round_trips == 0

    def test_size_bytes_matches_backing_store(self, node, remote):
        remote.multi_put([(b"a", b"xx"), (b"b", b"yyyy")])
        assert remote.size_bytes() == node.store.size_bytes() == 2 + 2 + 4

    def test_scan_pages_stream_lazily(self, node):
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0, scan_page_size=4)
        remote.multi_put([(f"s/{index:02d}".encode(), b"v") for index in range(10)])
        remote.wire_stats.reset()
        scan = remote.scan_prefix(b"s/")
        first_three = [next(scan) for _ in range(3)]
        assert [key for key, _ in first_three] == [b"s/00", b"s/01", b"s/02"]
        assert remote.wire_stats.round_trips == 1  # one page pulled so far
        assert len(list(scan)) == 7
        assert remote.wire_stats.round_trips == 3  # 10 keys / 4 per page
        remote.close()

    def test_oversized_batch_splits_but_stays_one_round_trip(self, node):
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0, max_request_bytes=4096)
        items = [(f"big/{index}".encode(), bytes(1500) + bytes([index])) for index in range(8)]
        remote.connect()
        remote.wire_stats.reset()
        remote.multi_put(items)
        assert remote.wire_stats.requests_sent > 1  # split by payload size
        assert remote.wire_stats.round_trips == 1  # ...but shipped as one batch
        assert remote.multi_get([key for key, _ in items]) == dict(items)
        remote.close()

    def test_hello_advertises_kv_ops_only(self, node):
        host, port = node.address
        with RemoteServerClient(host, port, timeout=5.0) as client:
            for operation in KV_OPERATIONS:
                assert client.supports_operation(operation)
            assert not client.supports_operation("insert_chunks")
            assert not client.supports_operation("put_grants")
            assert client.ping()

    def test_engine_ops_rejected_by_storage_node(self, node):
        host, port = node.address
        with RemoteServerClient(host, port, timeout=5.0) as client:
            with pytest.raises(ProtocolError, match="unsupported operation"):
                client._call(Request("stream_head", {"uuid": "nope"}))

    def test_malformed_kv_requests_rejected(self, node):
        host, port = node.address
        with RemoteServerClient(host, port, timeout=5.0) as client:
            with pytest.raises(ProtocolError):
                client._call(Request("kv_put", {}, [b"key-without-value"]))
            with pytest.raises(ProtocolError):
                client._call(Request("kv_scan_prefix", {"limit": 0}, [b""]))
            with pytest.raises(ProtocolError):
                client._call(Request("kv_get", {}, []))

    def test_keys_only_scan_skips_value_traffic(self, node):
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0, scan_page_size=4)
        big_value = bytes(4096)
        remote.multi_put([(f"ko/{index:02d}".encode(), big_value) for index in range(10)])
        assert remote.keys_with_prefix(b"ko/") == [f"ko/{index:02d}".encode() for index in range(10)]
        assert remote.count_prefix(b"ko/") == 10
        keys = list(remote.scan_keys(b"ko/"))
        assert keys == sorted(keys) and len(keys) == 10
        remote.close()

    def test_oversized_multi_get_defers_instead_of_breaking_frames(self, node, monkeypatch):
        import repro.storage.node as node_module

        monkeypatch.setattr(node_module, "RESPONSE_BYTE_CAP", 4096)
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0)
        items = [(f"ov/{index:02d}".encode(), bytes(1500)) for index in range(9)]
        remote.multi_put(items)
        remote.wire_stats.reset()
        fetched = remote.multi_get([key for key, _ in items] + [b"ov/missing"])
        assert fetched[b"ov/missing"] is None
        assert all(fetched[key] == value for key, value in items)
        # 9 values of 1.5 KiB against a 4 KiB response cap: several deferral
        # waves, each one round trip — never a blown frame, never a timeout.
        assert remote.wire_stats.round_trips > 1
        remote.close()

    def test_scan_pages_byte_capped(self, node, monkeypatch):
        import repro.storage.node as node_module

        monkeypatch.setattr(node_module, "RESPONSE_BYTE_CAP", 4096)
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0, scan_page_size=1000)
        items = [(f"bc/{index:02d}".encode(), bytes(1500)) for index in range(9)]
        remote.multi_put(items)
        remote.wire_stats.reset()
        assert list(remote.scan_prefix(b"bc/")) == items
        assert remote.wire_stats.round_trips > 1  # byte cap split the pages
        remote.close()

    def test_unencodable_response_answers_with_error(self):
        from repro.net.framing import MAX_FRAME_BYTES
        from repro.net.server import WireDispatcher
        from repro.net.messages import Response

        class _HugeDispatcher(WireDispatcher):
            def _op_ping(self, _request):
                return Response.success({"pong": True}, [bytes(MAX_FRAME_BYTES + 1)])

        with TimeCryptTCPServer(dispatcher=_HugeDispatcher()) as server:
            host, port = server.address
            with RemoteServerClient(host, port, timeout=5.0) as client:
                # The server cannot frame the response; it must answer the
                # correlation id with a typed error, not leave it hanging.
                with pytest.raises(ProtocolError, match="exceeds"):
                    client._call(Request("ping"))

    def test_oversized_single_value_is_caller_error_not_outage(self, node):
        from repro.net.framing import MAX_FRAME_BYTES

        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0)
        client = remote.connect()._slot.get()
        with pytest.raises(ProtocolError, match="exceeds"):
            remote.put(b"huge", bytes(MAX_FRAME_BYTES + 1))
        # The connection survives (no reconnect churn), the pending table is
        # clean (no ghost correlation ids), and the node keeps serving.
        assert remote._slot.get() is client
        assert not client._pending
        assert remote.get(b"huge") is None
        remote.close()

    def test_oversized_value_does_not_mark_cluster_nodes_down(self, harness):
        from repro.net.framing import MAX_FRAME_BYTES

        with pytest.raises(ProtocolError):
            harness.cluster.multi_put([(b"huge", bytes(MAX_FRAME_BYTES + 1))])
        assert not harness.cluster._down  # deterministic caller error, no outage
        harness.cluster.put(b"fine", b"v")
        assert harness.cluster.get(b"fine") == b"v"

    def test_malformed_args_get_a_typed_error_not_dead_air(self, node):
        host, port = node.address
        with RemoteServerClient(host, port, timeout=5.0) as client:
            with pytest.raises(ProtocolError, match="dispatch"):
                client._call(Request("kv_scan_prefix", {"limit": "not-a-number"}, [b""]))
            assert client.ping()  # connection unharmed

    def test_malformed_frame_header_gets_a_typed_error_not_dead_air(self, node):
        import json
        import socket as socket_module

        from repro.net.framing import FrameReader, encode_frame_segments_v2
        from repro.net.messages import Response

        host, port = node.address
        # A hostile header: null attachment length used to raise TypeError
        # past the dispatcher and leave the correlation id unanswered.
        header = json.dumps({"op": "ping", "args": {}, "attachment_lengths": [None]}).encode()
        from repro.util.encoding import encode_varint

        payload = encode_varint(len(header)) + header
        with socket_module.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"".join(encode_frame_segments_v2(7, [payload])))
            frame = FrameReader(sock).read()
            assert frame.correlation_id == 7
            response = Response.decode(frame.payload)
            assert not response.ok
            assert response.error_type == "ProtocolError"

    def test_memory_store_scan_from_resumes_by_cursor(self):
        store = MemoryStore()
        store.multi_put([(f"sf/{index:02d}".encode(), bytes([index])) for index in range(10)])
        resumed = list(store.scan_from(b"sf/", after=b"sf/04"))
        assert [key for key, _ in resumed] == [f"sf/{index:02d}".encode() for index in range(5, 10)]
        assert list(store.scan_from(b"sf/", after=None)) == list(store.scan_prefix(b"sf/"))
        assert list(store.scan_from(b"sf/", after=b"sf/99")) == []
        # The sorted-key cache invalidates on every mutation flavour.
        store.put(b"sf/10", b"new")
        assert list(store.scan_from(b"sf/", after=b"sf/08"))[-1][0] == b"sf/10"
        store.delete(b"sf/10")
        store.multi_put([(b"sf/11", b"x")])
        assert [key for key, _ in store.scan_from(b"sf/", after=b"sf/09")] == [b"sf/11"]
        store.multi_delete([b"sf/11"])
        assert list(store.scan_from(b"sf/", after=b"sf/09")) == []

    def test_scan_from_cursor_is_strictly_exclusive_for_equal_prefix(self):
        # Regression: the cursor must be exclusive by *value*, including the
        # aliased/interned b"" case — a re-yielded cursor key would make the
        # remote pager loop on the same page forever.
        store = MemoryStore()
        store.put(b"", b"empty-key")
        store.put(b"a", b"1")
        assert [key for key, _ in store.scan_from(b"", after=b"")] == [b"a"]
        assert [key for key, _ in store.scan_from(b"a", after=b"a")] == []

    def test_append_log_store_scan_flavours(self, tmp_path):
        from repro.storage.disk import AppendLogStore

        store = AppendLogStore(tmp_path / "node.log")
        items = [(f"al/{index:02d}".encode(), bytes(50 + index)) for index in range(10)]
        store.multi_put(items)
        store.delete(b"al/03")
        expected = [(key, value) for key, value in items if key != b"al/03"]
        assert list(store.scan_keys(b"al/")) == [key for key, _ in expected]
        assert list(store.scan_key_sizes(b"al/")) == [
            (key, len(key) + len(value)) for key, value in expected
        ]
        assert list(store.scan_sizes_from(b"al/", after=b"al/05")) == [
            (key, len(value)) for key, value in expected if key > b"al/05"
        ]
        assert list(store.scan_from(b"al/", after=b"al/05")) == [
            (key, value) for key, value in expected if key > b"al/05"
        ]
        store.close()

    def test_remote_node_over_append_log_store(self, tmp_path):
        from repro.storage.disk import AppendLogStore

        store = AppendLogStore(tmp_path / "remote-node.log")
        with StorageNodeServer(store) as server:
            host, port = server.address
            remote = RemoteKeyValueStore(host, port, timeout=5.0, scan_page_size=3)
            items = [(f"p/{index:02d}".encode(), bytes([index]) * 20) for index in range(8)]
            remote.multi_put(items)
            assert list(remote.scan_prefix(b"p/")) == items
            assert list(remote.scan_keys(b"p/")) == [key for key, _ in items]
            assert remote.size_bytes() == store.size_bytes()
            remote.close()
        store.close()

    def test_concurrent_clients_against_append_log_node(self, tmp_path):
        """The dispatcher serializes store access: the non-thread-safe
        AppendLogStore must survive concurrent reads and writes from the
        server's worker pool without torn reads or index corruption."""
        from repro.storage.disk import AppendLogStore

        store = AppendLogStore(tmp_path / "concurrent.log")
        errors = []
        with StorageNodeServer(store, max_workers=4) as server:
            host, port = server.address

            def worker(worker_id: int) -> None:
                remote = RemoteKeyValueStore(host, port, timeout=10.0)
                try:
                    items = [
                        (f"c{worker_id}/{index:03d}".encode(), f"{worker_id}:{index}".encode() * 10)
                        for index in range(40)
                    ]
                    remote.multi_put(items)
                    fetched = remote.multi_get([key for key, _ in items])
                    assert all(fetched[key] == value for key, value in items)
                    for key, value in items[:5]:
                        assert remote.get(key) == value
                except Exception as exc:  # surfaced below, pytest-safe
                    errors.append(exc)
                finally:
                    remote.close()

            threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(store) == 4 * 40
        store.close()

    def test_multi_put_respects_key_count_cap(self, node):
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0, max_keys_per_request=10)
        items = [(f"cc/{index:03d}".encode(), b"v") for index in range(35)]
        remote.connect()
        remote.wire_stats.reset()
        remote.multi_put(items)
        assert remote.wire_stats.requests_sent == 4  # 35 items / 10 per part
        assert remote.wire_stats.round_trips == 1
        assert remote.multi_get([key for key, _ in items]) == dict(items)
        remote.close()

    def test_engine_server_refused_as_storage_node(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            store = RemoteKeyValueStore(host, port, timeout=5.0)
            # A reachable peer of the wrong tier is a configuration error
            # (non-retryable ProtocolError), not an outage the cluster
            # should mark down and redial.
            with pytest.raises(ProtocolError, match="does not serve the kv"):
                store.get(b"anything")

    def test_engine_hello_no_longer_advertises_kv_ops(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port, timeout=5.0) as client:
                assert client.supports_operation("insert_chunks")
                assert not client.supports_operation("kv_multi_put")


class TestRemoteStoreFailures:
    def test_dead_node_raises_storage_error(self):
        store = MemoryStore()
        with StorageNodeServer(store) as server:
            host, port = server.address
        # Server stopped; the port is closed.
        remote = RemoteKeyValueStore(host, port, timeout=1.0)
        with pytest.raises(StorageError, match="unreachable"):
            remote.get(b"key")

    def test_reconnect_after_restart_with_continuous_stats(self):
        store = MemoryStore()
        server = StorageNodeServer(store).start()
        host, port = server.address
        remote = RemoteKeyValueStore(host, port, timeout=2.0)
        remote.put(b"k", b"v")
        trips_before = remote.wire_stats.round_trips
        server.stop()
        with pytest.raises(StorageError):
            remote.get(b"k")
        server = StorageNodeServer(store, port=port).start()
        try:
            assert remote.get(b"k") == b"v"  # transparently redialed
            assert remote.wire_stats.round_trips > trips_before
        finally:
            remote.close()
            server.stop()

    def test_ping_and_hello_not_blocked_by_busy_store(self):
        """Liveness and negotiation must answer while kv ops hold the store lock."""
        release = threading.Event()
        entered = threading.Event()

        class _BlockingStore(MemoryStore):
            def get(self, key):
                entered.set()
                before_blocking()  # the handler contract: announce a wait
                release.wait(timeout=10)
                return super().get(key)

        store = _BlockingStore()
        with StorageNodeServer(store, max_workers=4) as server:
            host, port = server.address
            slow = RemoteKeyValueStore(host, port, timeout=10.0)
            blocker = threading.Thread(target=lambda: slow.get(b"slow"))
            blocker.start()
            try:
                assert entered.wait(timeout=5)  # kv_get now holds the store lock
                # A fresh client must still negotiate (hello) and ping.
                probe = RemoteKeyValueStore(host, port, timeout=2.0)
                assert probe.ping()
                probe.close()
            finally:
                release.set()
                blocker.join(timeout=5)
                slow.close()

    def test_dead_connection_fails_fast_not_by_timeout(self):
        store = MemoryStore()
        server = StorageNodeServer(store).start()
        host, port = server.address
        remote = RemoteKeyValueStore(host, port, timeout=30.0)
        assert remote.get(b"warm") is None
        server.stop()
        begin = time.monotonic()
        with pytest.raises(StorageError):
            remote.get(b"key")
        # No thread was watching the idle socket, so the EOF is discovered
        # by this very call — at once, not after the 30 s timeout.
        assert time.monotonic() - begin < 10
        remote.close()

    def test_mid_session_kill_maps_to_storage_error(self):
        store = MemoryStore()
        server = StorageNodeServer(store).start()
        host, port = server.address
        remote = RemoteKeyValueStore(host, port, timeout=1.0)
        assert remote.get(b"warm") is None  # connection established
        server.stop()
        with pytest.raises(StorageError):
            remote.multi_put([(b"a", b"b")])
        remote.close()


class _HostileNodeDispatcher(StorageNodeDispatcher):
    """A storage node that rewrites its honest ``kv_multi_*`` answers.

    ``rewrite(honest_response) -> (result, attachments)``; after 20 answers
    it turns honest, so a client that would spin forever on a hostile node
    ends the test with a failed assertion instead of a hang.
    """

    def __init__(self, store, rewrite) -> None:
        super().__init__(store)
        self.rewrite = rewrite
        self.answers = 0

    def _hostile(self, honest: Response) -> Response:
        self.answers += 1
        if self.answers > 20:
            return honest
        result, attachments = self.rewrite(honest)
        return Response(ok=True, result=result, attachments=attachments)

    def _op_kv_multi_get(self, request: Request) -> Response:
        return self._hostile(super()._op_kv_multi_get(request))

    def _op_kv_multi_delete(self, request: Request) -> Response:
        return self._hostile(super()._op_kv_multi_delete(request))


_KEYS = [b"h/0", b"h/1", b"h/2"]

#: Hostile ``kv_multi_get`` answers to a request for ``_KEYS`` (all stored).
_HOSTILE_GETS = {
    "negative_index": lambda r: ({"found": [-1, 1, 2]}, r.attachments),
    "index_past_the_part": lambda r: ({"found": [0, 1, 3]}, r.attachments),
    "bool_index": lambda r: ({"found": [False, 1, 2]}, r.attachments),
    "float_index": lambda r: ({"found": [0.0, 1, 2]}, r.attachments),
    "decreasing": lambda r: ({"found": [1, 0, 2]}, r.attachments),
    "duplicate": lambda r: ({"found": [0, 0, 2]}, r.attachments),
    "not_a_list": lambda r: ({"found": "012"}, r.attachments),
    "missing_found": lambda r: ({}, r.attachments),
    "result_not_a_dict": lambda r: ([0, 1, 2], r.attachments),
    "fewer_values_than_found": lambda r: ({"found": [0, 1, 2]}, r.attachments[:2]),
    "more_values_than_found": lambda r: ({"found": [0, 1]}, r.attachments),
    "defers_every_key": lambda r: ({"found": [], "deferred": [0, 1, 2]}, []),
    "serves_and_defers_one_key": lambda r: ({"found": [0], "deferred": [0, 1, 2]}, r.attachments[:1]),
    "deferred_past_the_part": lambda r: ({"found": [0], "deferred": [3]}, r.attachments[:1]),
    "deferred_negative": lambda r: ({"found": [0], "deferred": [-1]}, r.attachments[:1]),
    "deferred_not_a_list": lambda r: ({"found": [0], "deferred": 1}, r.attachments[:1]),
}

#: Hostile ``kv_multi_delete`` answers to a request for ``_KEYS``.
_HOSTILE_DELETES = {
    "negative_index": lambda r: ({"existed": [-1]}, []),
    "index_past_the_part": lambda r: ({"existed": [3]}, []),
    "bool_index": lambda r: ({"existed": [True]}, []),
    "decreasing": lambda r: ({"existed": [2, 1]}, []),
    "duplicate": lambda r: ({"existed": [1, 1]}, []),
    "not_a_list": lambda r: ({"existed": 0}, []),
    "missing_existed": lambda r: ({}, []),
}


@contextmanager
def _hostile_node(rewrite) -> Iterator[Tuple[_HostileNodeDispatcher, RemoteKeyValueStore]]:
    store = MemoryStore()
    store.multi_put([(key, b"value-" + key) for key in _KEYS])
    dispatcher = _HostileNodeDispatcher(store, rewrite)
    with TimeCryptTCPServer(dispatcher=dispatcher) as server:
        remote = RemoteKeyValueStore(*server.address, timeout=5.0)
        try:
            yield dispatcher, remote
        finally:
            remote.close()


class TestHostileKVResponses:
    """A node's index lists are checked, never trusted: every hostile shape
    is a ``StorageError`` (the cluster's node-outage signal), never a value
    under the wrong key, a bare ``IndexError`` or an endless retry loop."""

    def test_honest_node_passes_the_checks(self):
        with _hostile_node(lambda r: (r.result, r.attachments)) as (_dispatcher, remote):
            assert remote.multi_get(_KEYS + [b"h/missing"]) == {
                **{key: b"value-" + key for key in _KEYS},
                b"h/missing": None,
            }
            assert remote.multi_delete([b"h/1", b"h/missing"]) == {b"h/1"}

    @pytest.mark.parametrize("shape", sorted(_HOSTILE_GETS))
    def test_hostile_multi_get_is_a_storage_error(self, shape):
        with _hostile_node(_HOSTILE_GETS[shape]) as (dispatcher, remote):
            with pytest.raises(StorageError, match="storage node"):
                remote.multi_get(_KEYS)
            assert dispatcher.answers == 1  # failed on the first wave, no spin

    @pytest.mark.parametrize("shape", sorted(_HOSTILE_DELETES))
    def test_hostile_multi_delete_is_a_storage_error(self, shape):
        with _hostile_node(_HOSTILE_DELETES[shape]) as (dispatcher, remote):
            with pytest.raises(StorageError, match="storage node"):
                remote.multi_delete(_KEYS)
            assert dispatcher.answers == 1

    def test_cluster_marks_hostile_node_down_and_reads_the_other_replica(self):
        honest = StorageNodeServer(MemoryStore()).start()
        hostile = _HostileNodeDispatcher(MemoryStore(), _HOSTILE_GETS["negative_index"])
        addresses = {"node-1": honest.address}
        with TimeCryptTCPServer(dispatcher=hostile) as hostile_server:
            addresses["node-0"] = hostile_server.address
            cluster = StorageCluster(
                num_nodes=2,
                replication_factor=2,
                store_factory=lambda name: RemoteKeyValueStore(*addresses[name], timeout=5.0),
            )
            try:
                items = {f"c/{index:03d}".encode(): bytes([index]) for index in range(40)}
                cluster.multi_put(list(items.items()))
                assert any(cluster.healthy_replicas(key)[0] == "node-0" for key in items)
                assert cluster.multi_get(list(items)) == items
                assert cluster._down == {"node-0"}
            finally:
                cluster.close()
                honest.stop()


# ---------------------------------------------------------------------------
# StorageCluster over real sockets
# ---------------------------------------------------------------------------


def _mirrored_workload(engine_a: ServerEngine, engine_b: ServerEngine) -> str:
    """Drive an identical mixed workload into both engines.

    Chunks are encrypted exactly once (key material is random per stream, so
    running the pipeline twice would diverge) and every resulting artifact —
    encrypted chunks, sealed grants, key envelopes, deletes, rollups — is
    delivered to both engines, so their storage contents must be
    byte-identical however the backing store is deployed.
    """
    owner = TimeCrypt(server=engine_a, owner_id="alice")
    config = StreamConfig(chunk_interval=1_000)
    uuid = owner.create_stream(metric="mixed", config=config, uuid="equivalence-stream")
    engine_b.create_stream(owner._streams[uuid].metadata)
    writer = owner._streams[uuid].writer
    sink_a, batch_a = writer.sink, writer.batch_sink
    writer.sink = lambda chunk: (sink_a(chunk), engine_b.insert_chunk(chunk))[0]
    writer.batch_sink = lambda chunks: (batch_a(chunks), engine_b.insert_chunks(chunks))[0]

    owner.insert_records(uuid, [(t, float(t % 37)) for t in range(0, 24_000, 250)])
    owner.flush(uuid)

    # Full-resolution and resolution-restricted grants, sealed once, parked
    # on both servers (grant ids are assigned deterministically).
    bob = Principal.create("equivalence-bob")
    carol = Principal.create("equivalence-carol")
    owner.register_principal(bob)
    owner.register_principal(carol)
    owner.grant_access(uuid, bob.principal_id, 0, 16_000)
    owner.grant_access(uuid, carol.principal_id, 0, 16_000, resolution_interval=4_000)
    for principal in (bob, carol):
        for sealed in engine_a.fetch_grants(uuid, principal.principal_id):
            engine_b.put_grant(uuid, principal.principal_id, sealed)
    resolution_chunks = 4_000 // 1_000
    envelopes = engine_a.fetch_envelopes(uuid, resolution_chunks, 0, 16)
    if envelopes:
        engine_b.token_store.put_envelopes(uuid, resolution_chunks, envelopes)

    # Query on both (also exercises the read path over the remote tier).
    from repro.util.timeutil import TimeRange

    for engine in (engine_a, engine_b):
        assert engine.stream_head(uuid) == 24
        engine.stat_range(uuid, TimeRange(0, 24_000))

    # Deletes and rollups land on both.
    owner.delete_range(uuid, 2_000, 5_000)
    engine_b.delete_range(uuid, TimeRange(2_000, 5_000))
    owner.rollup_stream(uuid, 2_000, before_time=8_000)
    engine_b.rollup_stream(uuid, 2, 8_000)
    return uuid


class TestRemoteCluster:
    def test_byte_identity_with_in_process_cluster(self, harness):
        inproc = StorageCluster(num_nodes=3, replication_factor=2)
        engine_remote = ServerEngine(
            store=harness.cluster, token_store=TokenStore(harness.cluster)
        )
        engine_inproc = ServerEngine(store=inproc, token_store=TokenStore(inproc))
        _mirrored_workload(engine_inproc, engine_remote)
        local = list(inproc.scan_prefix(b""))
        over_wire = list(harness.cluster.scan_prefix(b""))
        assert local, "workload stored nothing"
        assert over_wire == local
        assert harness.cluster.size_bytes() == inproc.size_bytes()
        # Per-replica contents match node by node too (same ring layout).
        for name in inproc.node_names:
            assert list(harness.backing[name].scan_prefix(b"")) == list(
                inproc.node_store(name).scan_prefix(b"")
            )
        inproc.close()

    def test_cluster_batch_round_trips_per_node(self, harness):
        items = [(f"rt/{index:04d}".encode(), bytes(32)) for index in range(200)]
        for name in harness.cluster.node_names:
            harness.cluster.node_store(name).connect()
            harness.cluster.node_store(name).wire_stats.reset()
        harness.cluster.multi_put(items)
        rf = harness.cluster.replication_factor
        for name in harness.cluster.node_names:
            trips = harness.cluster.node_store(name).wire_stats.round_trips
            assert 1 <= trips <= rf + 1, (name, trips)  # not n·RF
        for name in harness.cluster.node_names:
            harness.cluster.node_store(name).wire_stats.reset()
        fetched = harness.cluster.multi_get([key for key, _ in items])
        assert all(fetched[key] == value for key, value in items)
        for name in harness.cluster.node_names:
            trips = harness.cluster.node_store(name).wire_stats.round_trips
            assert trips <= rf + 1, (name, trips)

    def test_node_kill_reroute_restart_repair(self, harness):
        cluster = harness.cluster
        first = [(f"a/{index:03d}".encode(), bytes([index % 251])) for index in range(60)]
        cluster.multi_put(first)
        harness.kill("node-1")
        second = [(f"b/{index:03d}".encode(), bytes([index % 251])) for index in range(60)]
        cluster.multi_put(second)  # socket failure -> mark-down -> re-route
        assert "node-1" in cluster._down
        fetched = cluster.multi_get([key for key, _ in first + second])
        assert all(fetched[key] == value for key, value in first + second)
        harness.restart("node-1")
        replayed = cluster.mark_up("node-1")
        assert replayed > 0  # hints parked during the outage heal it over the wire
        repaired = cluster.repair_node("node-1", batch_size=16)
        assert repaired == 0  # ...leaving repair nothing to backfill
        # The recovered node now holds every key the ring assigns to it.
        ring = cluster._ring
        for key, value in first + second:
            if "node-1" in ring.replicas(key, cluster.replication_factor):
                assert harness.backing["node-1"].get(key) == value
        fetched = cluster.multi_get([key for key, _ in first + second])
        assert all(fetched[key] == value for key, value in first + second)

    def test_scan_paths_survive_node_outage(self, harness):
        cluster = harness.cluster
        items = [(f"sc/{index:03d}".encode(), bytes(100)) for index in range(80)]
        cluster.multi_put(items)
        expected_size = cluster.size_bytes()
        harness.kill("node-0")
        # Scan-based paths mark the dead node down and keep going on the
        # surviving replicas, exactly like the batch ops.
        assert cluster.size_bytes() == expected_size
        assert "node-0" in cluster._down
        assert dict(cluster.scan_prefix(b"sc/")) == dict(items)
        # repair of a *different* node also works while node-0 is dead.
        assert cluster.repair_node("node-1") == 0

    def test_scan_with_every_node_dead_raises_partition_error(self, harness):
        from repro.exceptions import PartitionError

        cluster = harness.cluster
        cluster.multi_put([(b"dead/key", b"value")])
        for name in list(harness.servers):
            harness.kill(name)
        # A dead cluster must not masquerade as an empty one (engine
        # recovery over the store would silently "find" zero streams).
        with pytest.raises(PartitionError):
            list(cluster.scan_prefix(b""))
        with pytest.raises(PartitionError):
            cluster.size_bytes()

    def test_size_bytes_over_wire_ships_no_values(self, harness):
        cluster = harness.cluster
        cluster.multi_put([(f"sz/{index:02d}".encode(), bytes(10_000)) for index in range(20)])
        for name in cluster.node_names:
            cluster.node_store(name).wire_stats.reset()
        size = cluster.size_bytes()
        assert size == 20 * (5 + 10_000)
        # Keys-only pages: the whole sizing pass moved far fewer bytes than
        # the values it accounted for (sizes travel as header integers).
        # One page round trip per node is enough for 20 keys.
        for name in cluster.node_names:
            assert cluster.node_store(name).wire_stats.round_trips <= 2

    def test_scalar_ops_fail_over_like_batches(self, harness):
        """Scalar get/put/delete mark a dead node down and use the survivors."""
        cluster = harness.cluster
        cluster.multi_put([(f"sv/{index:02d}".encode(), bytes([index])) for index in range(30)])
        harness.kill("node-2")
        for index in range(30):
            assert cluster.get(f"sv/{index:02d}".encode()) == bytes([index])
        assert "node-2" in cluster._down
        cluster.put(b"sv/new", b"routed-around")
        assert cluster.get(b"sv/new") == b"routed-around"
        assert cluster.delete(b"sv/new") is True

    def test_peer_dropping_hello_is_retryable_outage_not_config_error(self):
        from test_net_pipeline import _FakePeer, _hang_up_on_hello

        with _FakePeer(_hang_up_on_hello) as peer:
            host, port = peer.address
            store = RemoteKeyValueStore(host, port, timeout=2.0)
            # A connection dropped mid-hello is what a restarting node looks
            # like: the retryable StorageError, never the wrong-tier error.
            with pytest.raises(StorageError, match="unreachable"):
                store.get(b"anything")
            store.close()
            assert peer.accepts == 2  # the store's one redial, not the transport's

    def test_concurrent_fan_out(self, harness):
        cluster = harness.cluster
        errors = []

        def worker(worker_id: int) -> None:
            try:
                items = [
                    (f"w{worker_id}/{index:03d}".encode(), f"{worker_id}:{index}".encode())
                    for index in range(50)
                ]
                cluster.multi_put(items)
                fetched = cluster.multi_get([key for key, _ in items])
                assert all(fetched[key] == value for key, value in items)
            except Exception as exc:  # surfaced below, pytest-safe
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert sum(1 for _ in cluster.scan_prefix(b"w")) == 6 * 50


# ---------------------------------------------------------------------------
# Streaming scan / repair and lifecycle edges (in-process clusters)
# ---------------------------------------------------------------------------


class _CountingStore(MemoryStore):
    """MemoryStore that counts how many scan items it actually yielded."""

    def __init__(self) -> None:
        super().__init__()
        self.scan_yields = 0

    def scan_prefix(self, prefix: bytes) -> Iterator[Tuple[bytes, bytes]]:
        for item in super().scan_prefix(prefix):
            self.scan_yields += 1
            yield item


class TestClusterStreamingAndLifecycle:
    def test_scan_prefix_streams_lazily(self):
        stores: Dict[str, _CountingStore] = {}

        def factory(name: str) -> _CountingStore:
            stores[name] = _CountingStore()
            return stores[name]

        cluster = StorageCluster(num_nodes=3, replication_factor=2, store_factory=factory)
        cluster.multi_put([(f"lazy/{index:04d}".encode(), b"v") for index in range(300)])
        for store in stores.values():
            store.scan_yields = 0
        scan = cluster.scan_prefix(b"lazy/")
        for _ in range(5):
            next(scan)
        # A materializing implementation would have pulled all 600 replicated
        # items; the heap merge pulls only what the consumer asked for (plus
        # one lookahead per iterator).
        assert sum(store.scan_yields for store in stores.values()) <= 5 * 2 + 3
        cluster.close()

    def test_scan_dedup_when_replicas_disagree(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.put(b"agreed", b"same")
        # Simulate a partial failure: one replica took a newer write the
        # other missed, and another key reached only a single replica.
        cluster.node_store("node-0").put(b"contested", b"from-node-0")
        cluster.node_store("node-2").put(b"contested", b"from-node-2")
        cluster.node_store("node-1").put(b"orphan", b"only-copy")
        merged = dict(cluster.scan_prefix(b""))
        assert merged[b"agreed"] == b"same"
        assert merged[b"contested"] == b"from-node-0"  # lowest node wins, deterministically
        assert merged[b"orphan"] == b"only-copy"
        assert len(list(cluster.scan_prefix(b""))) == len(merged)
        cluster.close()

    def test_repair_node_while_still_marked_down(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.multi_put([(f"k/{index:03d}".encode(), bytes([index])) for index in range(50)])
        cluster.mark_down("node-2")
        cluster.node_store("node-2").clear()
        more = [(f"m/{index:03d}".encode(), bytes([index])) for index in range(30)]
        cluster.multi_put(more)  # written around the downed node
        # Repair before mark_up: the store is reachable, so healing works;
        # reads keep avoiding the node until it is marked up.
        repaired = cluster.repair_node("node-2", batch_size=7)
        assert repaired > 0
        cluster.mark_up("node-2")
        ring = cluster._ring
        for key, value in more:
            if "node-2" in ring.replicas(key, cluster.replication_factor):
                assert cluster.node_store("node-2").get(key) == value
        fetched = cluster.multi_get([key for key, _ in more])
        assert all(fetched[key] == value for key, value in more)
        cluster.close()

    def test_repair_node_validates_arguments(self):
        cluster = StorageCluster(num_nodes=2, replication_factor=2)
        with pytest.raises(ValueError):
            cluster.repair_node("node-9")
        with pytest.raises(ValueError):
            cluster.repair_node("node-0", batch_size=0)
        cluster.close()

    def test_repair_is_idempotent(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.multi_put([(f"i/{index}".encode(), b"v") for index in range(40)])
        assert cluster.repair_node("node-0") == 0  # nothing missing
        assert cluster.repair_node("node-0") == 0
        cluster.close()

    def test_close_is_idempotent_and_cluster_reusable(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.multi_put([(b"before", b"close")])
        cluster.close()
        cluster.close()  # second close is a no-op
        # Post-close reuse: the fan-out pool is rebuilt lazily and the node
        # stores accept traffic again (remote stores would simply redial).
        cluster.multi_put([(f"after/{index}".encode(), b"v") for index in range(20)])
        assert cluster.get(b"before") == b"close"
        assert cluster.multi_get([b"after/0"])[b"after/0"] == b"v"
        cluster.close()

    def test_remote_cluster_close_then_reuse(self, harness):
        harness.cluster.multi_put([(b"x", b"1")])
        harness.cluster.close()
        assert harness.cluster.get(b"x") == b"1"  # redials after close


# ---------------------------------------------------------------------------
# Consumer cold-start warm-up
# ---------------------------------------------------------------------------


def _grant_two_streams(server) -> Tuple[TimeCrypt, Principal, str, str]:
    owner = TimeCrypt(server=server, owner_id="alice")
    config = StreamConfig(chunk_interval=1_000)
    full = owner.create_stream(metric="full", config=config)
    restricted = owner.create_stream(metric="restricted", config=config)
    for uuid in (full, restricted):
        owner.insert_records(uuid, [(t, float(t % 11)) for t in range(0, 8_000, 250)])
        owner.flush(uuid)
    bob = Principal.create("warmup-bob")
    owner.register_principal(bob)
    owner.grant_access(full, bob.principal_id, 0, 8_000)
    owner.grant_access(restricted, bob.principal_id, 0, 8_000, resolution_interval=2_000)
    return owner, bob, full, restricted


class TestConsumerWarmUp:
    def test_warm_up_over_the_wire_is_two_round_trips(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port, timeout=5.0) as remote:
                _owner, bob, full, restricted = _grant_two_streams(remote)
                consumer = TimeCryptConsumer(server=remote, principal=bob)
                remote.wire_stats.reset()
                tokens = consumer.warm_up([full, restricted])
                # RT 1: grants + metadata for both streams; RT 2: envelopes
                # for the restricted one.  Not one per call site.
                assert remote.wire_stats.round_trips == 2
                assert set(tokens) == {full, restricted}
                assert consumer.get_stat_range(full, 0, 8_000)["count"] == 32
                assert consumer.get_stat_range(restricted, 0, 8_000)["count"] == 32

    def test_warm_up_full_resolution_only_is_one_round_trip(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port, timeout=5.0) as remote:
                _owner, bob, full, _restricted = _grant_two_streams(remote)
                consumer = TimeCryptConsumer(server=remote, principal=bob)
                remote.wire_stats.reset()
                consumer.warm_up([full])
                assert remote.wire_stats.round_trips == 1

    def test_session_cache_stops_metadata_refetches(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port, timeout=5.0) as remote:
                _owner, bob, full, restricted = _grant_two_streams(remote)
                consumer = TimeCryptConsumer(server=remote, principal=bob)
                consumer.warm_up([full, restricted])
                remote.wire_stats.reset()
                # Config-dependent call sites hit the session cache now.
                consumer.get_stat_series(full, 0, 8_000, granularity_interval=2_000)
                assert remote.wire_stats.round_trips == 1  # the query only
                # A later warm_up skips the cached metadata too.
                tokens = consumer.warm_up([full])
                assert set(tokens) == {full}
                remote.wire_stats.reset()
                consumer.fetch_access(full)  # config argument omitted
                assert remote.wire_stats.round_trips == 1  # grants only, no metadata

    def test_warm_up_falls_back_without_pipeline(self):
        engine = ServerEngine()
        _owner, bob, full, restricted = _grant_two_streams(engine)
        consumer = TimeCryptConsumer(server=engine, principal=bob)
        tokens = consumer.warm_up([restricted, full, full])  # dupes collapse
        assert set(tokens) == {full, restricted}
        assert consumer.get_stat_range(full, 0, 8_000)["count"] == 32

    def test_warm_up_without_grant_raises(self):
        engine = ServerEngine()
        _owner, _bob, full, _restricted = _grant_two_streams(engine)
        stranger = Principal.create("warmup-stranger")
        consumer = TimeCryptConsumer(server=engine, principal=stranger)
        from repro.exceptions import AccessDeniedError

        with pytest.raises(AccessDeniedError):
            consumer.warm_up([full])

    def test_warm_up_partial_failure_keeps_granted_streams(self):
        """One stream without a grant must not void the others' cold start."""
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as server:
            host, port = server.address
            with RemoteServerClient(host, port, timeout=5.0) as remote:
                owner, bob, full, restricted = _grant_two_streams(remote)
                ungranted = owner.create_stream(metric="ungranted", config=StreamConfig(chunk_interval=1_000))
                consumer = TimeCryptConsumer(server=remote, principal=bob)
                tokens = consumer.warm_up([full, ungranted, restricted, "no-such-stream"])
                assert set(tokens) == {full, restricted}
                assert consumer.get_stat_range(full, 0, 8_000)["count"] == 32
