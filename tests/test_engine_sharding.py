"""Tests for the sharded engine tier and the scan-offload stack under it.

Covers the routing table (wire form, ownership determinism, evolution), the
shard servers' ownership enforcement (typed ``wrong_shard`` redirects), the
routing-aware client (byte-identity of a mirrored workload against one
engine vs. four sharded engines over real sockets, redial + table refresh
across an engine kill, stale-epoch convergence, non-convergence detection),
the router's proxy path for routing-unaware clients (including cross-shard
``stat_range_multi`` / ``put_grants`` splits), and the engine-side scan
offload this tier rides on: ``kv_scan_prefix`` / ``kv_delete_prefix`` wire
round-trip budgets, range-filtered scans, cluster-wide prefix erase with
hint hygiene, and ``delete_stream`` cost independent of keyspace size.
Satellites: batched grant issuance sharing one subtree-cover traversal, and
the sorted-key-cache mixin invariants on both backends.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import pytest

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.access.grants import GrantManager
from repro.access.keystore import TokenStore
from repro.access.policy import AccessPolicy
from repro.access.principal import IdentityProvider, Principal
from repro.crypto.keytree import KeyDerivationTree
from repro.deploy import Deployment
from repro.exceptions import ChunkError, ProtocolError, StreamNotFoundError, WrongShardError
from repro.net.client import RemoteServerClient, ShardedServerClient
from repro.net.messages import Request, ShardRoutingTable
from repro.server.router import (
    EngineShardServer,
    RoutingTableRef,
    StreamRouter,
)
from repro.storage.cluster import StorageCluster
from repro.storage.disk import AppendLogStore
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore
from repro.timeseries.serialization import encode_encrypted_chunk, peek_chunk_stream_uuid
from repro.util.timeutil import TimeRange

CHUNK_INTERVAL = 1_000
POINTS_PER_CHUNK = 4


def _records(num_chunks: int):
    step = CHUNK_INTERVAL // POINTS_PER_CHUNK
    return [(t, float((t // step) % 50)) for t in range(0, num_chunks * CHUNK_INTERVAL, step)]


def _encrypted_streams(num_streams: int, num_chunks: int):
    """Encrypt streams ONCE with a scratch in-process engine.

    Replaying identical bytes into every deployment under test is what makes
    byte-for-byte read equivalence a meaningful assertion — two facades
    would draw different stream keys and produce different ciphertexts.
    """
    server = ServerEngine()
    owner = TimeCrypt(server=server, owner_id="tester")
    streams = []
    for index in range(num_streams):
        config = StreamConfig(chunk_interval=CHUNK_INTERVAL, index_fanout=4)
        uuid = owner.create_stream(metric=f"shard-{index}", config=config)
        owner.insert_records(uuid, _records(num_chunks))
        owner.flush(uuid)
        chunks = [server.get_chunk(uuid, position) for position in range(num_chunks)]
        assert all(chunk is not None for chunk in chunks)
        streams.append((server.stream_metadata(uuid), chunks))
    return streams


def _replay(client, streams) -> None:
    for metadata, chunks in streams:
        client.create_stream(metadata)
        client.insert_chunks(chunks)


def _streams_spanning_owners(table, num_streams: int, num_chunks: int):
    """Encrypted streams guaranteed to land on at least two shards.

    Stream uuids are random, so a fixed batch can (rarely) hash onto a
    single shard; top up until the spread holds so cross-shard assertions
    never go vacuous.
    """
    streams = _encrypted_streams(num_streams, num_chunks)
    for _attempt in range(64):
        if len({table.owner_of(metadata.uuid) for metadata, _chunks in streams}) > 1:
            return streams
        streams.extend(_encrypted_streams(1, num_chunks))
    raise AssertionError("could not spread streams across shards")


# ---------------------------------------------------------------------------
# Routing table
# ---------------------------------------------------------------------------


class TestShardRoutingTable:
    def test_payload_round_trip(self):
        table = ShardRoutingTable(
            [("b", "10.0.0.2", 7002), ("a", "10.0.0.1", 7001)], epoch=3, virtual_tokens=32
        )
        clone = ShardRoutingTable.from_payload(table.to_payload())
        assert clone.epoch == 3
        assert clone.virtual_tokens == 32
        assert clone.engine_names == ["a", "b"]
        assert clone.address_of("b") == ("10.0.0.2", 7002)
        for uuid in ("s-1", "s-2", "s-3", "s-4"):
            assert clone.owner_of(uuid) == table.owner_of(uuid)

    def test_ownership_is_deterministic_and_spread(self):
        table = ShardRoutingTable([(f"e{i}", "h", i) for i in range(4)], epoch=1)
        owners = {table.owner_of(f"stream-{index}") for index in range(64)}
        assert owners == {"e0", "e1", "e2", "e3"}  # every shard owns something

    def test_evolution_bumps_epoch(self):
        table = ShardRoutingTable([("a", "h", 1)], epoch=1)
        grown = table.with_engine("b", "h", 2)
        assert grown.epoch == 2 and grown.engine_names == ["a", "b"]
        shrunk = grown.without_engine("a")
        assert shrunk.epoch == 3 and shrunk.engine_names == ["b"]
        assert table.engine_names == ["a"]  # immutable: original untouched
        with pytest.raises(ProtocolError):
            grown.with_engine("a", "h", 9)
        with pytest.raises(ProtocolError):
            grown.without_engine("zz")
        with pytest.raises(ProtocolError):
            ShardRoutingTable([("a", "h", 1), ("a", "h", 2)])

    def test_empty_table_refuses_to_place(self):
        with pytest.raises(ProtocolError):
            ShardRoutingTable().owner_of("s")
        with pytest.raises(ProtocolError):
            ShardRoutingTable([("a", "h", 1)]).address_of("b")

    def test_malformed_payload(self):
        with pytest.raises(ProtocolError):
            ShardRoutingTable.from_payload({"engines": [{"name": "a"}]})

    def test_chunk_uuid_peek(self):
        ((metadata, chunks),) = _encrypted_streams(1, 2)
        blob = encode_encrypted_chunk(chunks[0])
        assert peek_chunk_stream_uuid(blob) == metadata.uuid
        with pytest.raises(ChunkError):
            peek_chunk_stream_uuid(b"nope")
        with pytest.raises(ChunkError):
            peek_chunk_stream_uuid(blob[:5])


# ---------------------------------------------------------------------------
# Sharded tier over real sockets
# ---------------------------------------------------------------------------


def _read_everything(client, streams) -> Dict:
    """Every read surface, raw enough to compare byte-for-byte."""
    full = TimeRange(0, 10 * CHUNK_INTERVAL)
    out: Dict = {}
    for metadata, _chunks in streams:
        uuid = metadata.uuid
        out[uuid] = {
            "head": client.stream_head(uuid),
            "chunks": [encode_encrypted_chunk(c) for c in client.get_range(uuid, full)],
            "stat": [
                (cell.value, cell.window_start, cell.window_end)
                for cell in client.stat_range(uuid, full).cells
            ],
            "series": [
                tuple(cell.value for cell in result.cells)
                for result in client.stat_series(uuid, full, 2)
            ],
            "grants": client.fetch_grants(uuid, "alice"),
            "envelopes": client.fetch_envelopes(uuid, 4, 0, 8),
        }
    aggregate = client.stat_range_multi([m.uuid for m, _ in streams], full)
    out["multi"] = (aggregate.values, aggregate.component_names, aggregate.per_stream_intervals)
    return out


class TestShardedEquivalence:
    def test_one_engine_vs_four_shards_byte_identical(self):
        with Deployment("sharded", engines=1) as one, Deployment("sharded", engines=4) as four:
            streams = _streams_spanning_owners(four.router.table, 5, 4)
            for client in (one.client, four.client):
                _replay(client, streams)
                grants = [
                    (metadata.uuid, "alice", f"sealed-{metadata.uuid}".encode())
                    for metadata, _chunks in streams
                ]
                assert client.put_grants(grants) == [0] * len(streams)
                for metadata, _chunks in streams:
                    client.token_store.put_envelopes(
                        metadata.uuid, 4, {0: b"env0-" + metadata.uuid.encode(), 4: b"env4"}
                    )
            # The 4-shard deployment actually spread the workload.
            owners = {
                four.client.routing_table.owner_of(metadata.uuid) for metadata, _chunks in streams
            }
            assert len(owners) > 1
            assert _read_everything(one.client, streams) == _read_everything(four.client, streams)

    def test_cross_shard_stat_range_multi_is_one_batch_per_owner(self):
        with Deployment("sharded") as deployment:
            client = deployment.client
            table = client.routing_table
            candidates = [f"multi-{index}" for index in range(256)]
            uuids = sorted(
                uuid
                for name in table.engine_names
                for uuid in [uuid for uuid in candidates if table.owner_of(uuid) == name][:4]
            )
            owner = TimeCrypt(server=client, owner_id="tester")
            for uuid in uuids:
                owner.create_stream(metric="multi", config=StreamConfig(chunk_interval=CHUNK_INTERVAL), uuid=uuid)
                owner.insert_records(uuid, _records(2))
                owner.flush(uuid)
            before = client.wire_stats.round_trips
            aggregate = client.stat_range_multi(uuids, TimeRange(0, 2 * CHUNK_INTERVAL))
            # 8 streams on 2 owners: one batch per owner, not one per stream.
            assert client.wire_stats.round_trips - before == 2
            assert [item[0] for item in aggregate.per_stream_intervals] == uuids

    def test_wire_stats_reset_zeroes_every_connection(self):
        with Deployment("sharded") as deployment:
            client = deployment.client
            owner = TimeCrypt(server=client, owner_id="tester")
            uuid = owner.create_stream(metric="reset", config=StreamConfig(chunk_interval=CHUNK_INTERVAL))
            assert client.wire_stats.round_trips > 0
            client.wire_stats.reset()
            assert client.wire_stats.round_trips == 0
            assert client.wire_stats.requests_sent == 0
            client.stream_head(uuid)
            assert client.wire_stats.round_trips == 1

    def test_engine_kill_redial_and_refresh(self):
        streams = _encrypted_streams(4, 3)
        with Deployment("sharded", engines=3) as deployment:
            client = deployment.client
            _replay(client, streams)
            before = _read_everything(client, streams)
            victim = client.routing_table.owner_of(streams[0][0].uuid)
            deployment.shards[victim].stop()
            deployment.router.remove_engine(victim)
            # Transport loss on the dead shard → redial + table refresh →
            # the new owner rebuilds the stream lazily from shared storage.
            after = _read_everything(client, streams)
            assert after == before
            assert client.routing_epoch == 2
            assert victim not in client.routing_table.engine_names
            # Writes keep working on the survivors.
            assert client.stream_head(streams[0][0].uuid) == 3

    def test_stale_epoch_client_converges(self):
        streams = _encrypted_streams(6, 2)
        with Deployment("sharded", engines=3) as deployment:
            client, router = deployment.client, deployment.router
            _replay(client, streams)
            assert client.routing_epoch == 1
            # Pick a (stream, shard-name) pair the ring maps together, so
            # the membership change provably moves a stream the client
            # already routed under the old epoch.  Searching every stream
            # matters: a single stream whose hash lands just before an
            # existing token leaves only a sliver of ring for a new
            # node's tokens to claim, and all 256 candidates can miss it
            # (~1% of runs when pinned to streams[0]).
            current = router.table
            target, name = next(
                (metadata.uuid, candidate)
                for metadata, _chunks in streams
                for candidate in (f"engine-9{index}" for index in range(256))
                if current.with_engine(candidate, "127.0.0.1", 1).owner_of(metadata.uuid)
                == candidate
            )
            shared = deployment.store
            engine = ServerEngine(store=shared, token_store=TokenStore(store=shared))
            with EngineShardServer(name, engine, router.table_ref) as extra:
                router.add_engine(name, *extra.address)
                assert router.table.owner_of(target) == name
                # The client still holds epoch 1 and routes to the old owner,
                # whose wrong_shard redirect forces the refresh.
                assert client.stream_head(target) == 2
                assert client.routing_epoch == 2

    def test_miswired_shard_names_do_not_loop(self):
        """Peers answering for each other's shards must error out, not spin."""
        shared = MemoryStore()
        ref = RoutingTableRef()
        # Deliberately cross-wired: the server named "a" in the table
        # believes it is "b", and vice versa — every route bounces forever.
        shard_one = EngineShardServer("b", ServerEngine(store=shared), ref).start()
        shard_two = EngineShardServer("a", ServerEngine(store=shared), ref).start()
        ref.set_engines([("a", *shard_one.address), ("b", *shard_two.address)])
        router = StreamRouter(ref).start()
        try:
            with ShardedServerClient(*router.address, timeout=10.0) as client:
                with pytest.raises(ProtocolError, match="did not converge"):
                    client.stream_head("some-stream")
        finally:
            router.stop()
            shard_one.stop()
            shard_two.stop()

    def test_wrong_shard_redirect_payload(self):
        ((metadata, chunks),) = _encrypted_streams(1, 2)
        with Deployment("sharded", engines=3) as deployment:
            table = deployment.router.table
            owner = table.owner_of(metadata.uuid)
            foreign = next(name for name in table.engine_names if name != owner)
            with RemoteServerClient(*deployment.shards[foreign].address, timeout=10.0) as direct:
                response = direct.call_many([Request("stream_head", {"uuid": metadata.uuid})])[0]
                assert not response.ok
                assert response.error_type == "WrongShardError"
                assert response.result["owner"] == owner
                assert response.result["epoch"] == table.epoch
                assert tuple(response.result["address"]) == table.address_of(owner)
                # And the error registry re-raises it as the typed class.
                with pytest.raises(WrongShardError):
                    direct.stream_head(metadata.uuid)

    def test_router_proxies_routing_unaware_clients(self):
        with Deployment("sharded", engines=3) as deployment:
            router = deployment.router
            streams = _streams_spanning_owners(router.table, 4, 3)
            reference_engine = ServerEngine()
            # A plain RemoteServerClient that knows nothing about shards.
            with RemoteServerClient(*router.address, timeout=10.0) as plain:
                _replay(plain, streams)
                _replay(reference_engine, streams)
                grants = [
                    (metadata.uuid, "bob", b"sealed-" + metadata.uuid.encode())
                    for metadata, _chunks in streams
                ]
                assert plain.put_grants(grants) == reference_engine.put_grants(grants)
                full = TimeRange(0, 10 * CHUNK_INTERVAL)
                uuids = [metadata.uuid for metadata, _chunks in streams]
                # Multi-owner ops arrive whole and are split by the router.
                assert len({router.table.owner_of(u) for u in uuids}) > 1
                aggregate = plain.stat_range_multi(uuids, full)
                expected = reference_engine.stat_range_multi(uuids, full)
                assert aggregate == expected
                for metadata, _chunks in streams:
                    uuid = metadata.uuid
                    assert [
                        encode_encrypted_chunk(c) for c in plain.get_range(uuid, full)
                    ] == [
                        encode_encrypted_chunk(c)
                        for c in reference_engine.get_range(uuid, full)
                    ]
                    assert plain.fetch_grants(uuid, "bob") == reference_engine.fetch_grants(
                        uuid, "bob"
                    )
                with pytest.raises(StreamNotFoundError):
                    plain.stream_head("no-such-stream")


# ---------------------------------------------------------------------------
# Scan offload: wire round-trip budgets
# ---------------------------------------------------------------------------


@pytest.fixture()
def node():
    store = MemoryStore()
    with StorageNodeServer(store) as server:
        yield server


class TestScanOffload:
    def test_prefix_scan_round_trips(self, node):
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0)
        remote.multi_put([(f"s/{index:03d}".encode(), b"v" * 8) for index in range(100)])
        remote.wire_stats.reset()
        items = list(remote.scan_prefix(b"s/"))
        assert len(items) == 100
        assert remote.wire_stats.round_trips == 1  # one offloaded region
        remote.close()

    def test_interval_scan_filters_node_side(self, node):
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0)
        remote.multi_put([(f"k/{index:03d}".encode(), bytes([index])) for index in range(40)])
        remote.wire_stats.reset()
        got = list(remote.scan_prefix(b"k/", b"k/005", b"k/012"))
        assert [key for key, _value in got] == [f"k/{i:03d}".encode() for i in range(5, 13)]
        assert [value for _key, value in got] == [bytes([i]) for i in range(5, 13)]
        assert remote.wire_stats.round_trips == 1
        remote.close()

    def test_delete_prefix_is_one_round_trip(self, node):
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0)
        remote.multi_put([(f"d/{index:03d}".encode(), b"x") for index in range(100)])
        remote.connect()
        remote.wire_stats.reset()
        assert remote.delete_prefixes([b"d/"]) == 100
        assert remote.wire_stats.round_trips == 1
        assert len(node.store) == 0
        remote.close()

    def test_delete_stream_round_trips_independent_of_keyspace(self, node):
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=5.0)
        engine = ServerEngine(store=remote, token_store=TokenStore(store=remote))
        small, large = _encrypted_streams(1, 2) + _encrypted_streams(1, 24)
        _replay(engine, [small, large])
        trips: List[int] = []
        for metadata, _chunks in (small, large):
            remote.wire_stats.reset()
            engine.delete_stream(metadata.uuid)
            trips.append(remote.wire_stats.round_trips)
        assert trips[0] == trips[1]  # 2 vs 24 chunks: identical wire cost
        assert trips[0] <= 4  # prefix erase + meta delete + grant erase
        assert len(node.store) == 0
        remote.close()


class TestClusterPrefixOps:
    def test_interval_scan_merges_replicas(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.multi_put([(f"k/{index:03d}".encode(), bytes([index])) for index in range(20)])
        got = list(cluster.scan_prefix(b"k/", b"k/004", b"k/011"))
        assert [key for key, _value in got] == [f"k/{i:03d}".encode() for i in range(4, 12)]

    def test_delete_prefix_erases_all_replicas(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.multi_put([(f"p/{index}".encode(), b"v") for index in range(10)])
        cluster.multi_put([(b"other/0", b"keep")])
        deleted = cluster.delete_prefixes([b"p/"])
        assert deleted == 20  # physical count: 10 keys x 2 replicas
        assert list(cluster.scan_prefix(b"p/")) == []
        assert cluster.get(b"other/0") == b"keep"

    def test_delete_prefix_erases_parked_hints(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.mark_down("node-2")
        cluster.multi_put([(f"h/{index}".encode(), b"v") for index in range(12)])
        hinted = [
            key
            for name in ("node-0", "node-1")
            for key, _value in cluster.node_store(name).scan_prefix(b"hint/node-2/h/")
        ]
        assert hinted  # the down node's replicas were parked as hints
        cluster.delete_prefixes([b"h/"])
        # Recovery must not resurrect erased keys from replayed hints.
        cluster.mark_up("node-2")
        assert list(cluster.scan_prefix(b"h/")) == []
        for name in cluster.node_names:
            assert list(cluster.node_store(name).scan_prefix(b"hint/")) == []

    def test_delete_prefix_guards(self):
        cluster = StorageCluster(num_nodes=2, replication_factor=1)
        with pytest.raises(ValueError):
            cluster.delete_prefixes([b""])
        with pytest.raises(ValueError):
            cluster.delete_prefixes([b"hint/node-0/"])
        with pytest.raises(ValueError):
            cluster.delete_prefixes([b"hi"])  # would swallow the hint keyspace
        assert cluster.delete_prefixes([]) == 0


# ---------------------------------------------------------------------------
# Satellite: batched grant issuance
# ---------------------------------------------------------------------------


class _CountingPRG:
    def __init__(self, inner) -> None:
        self._inner = inner
        self.child_calls = 0

    def child(self, value: bytes, bit: int) -> bytes:
        self.child_calls += 1
        return self._inner.child(value, bit)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _counting_tree() -> Tuple[KeyDerivationTree, _CountingPRG]:
    tree = KeyDerivationTree(seed=b"\x17" * 16, height=16, prg="blake2", cache_levels=0)
    counter = _CountingPRG(tree._prg)
    tree._prg = counter
    return tree, counter


class TestBatchedGrantDerivation:
    def test_tokens_for_ranges_matches_scalar_path(self):
        tree = KeyDerivationTree(seed=b"\x17" * 16, height=16, prg="blake2")
        ranges = [(0, 64), (32, 96), (60, 61), (0, 65536)]
        batched = tree.tokens_for_ranges(ranges)
        assert batched == [tree.tokens_for_range(start, end) for start, end in ranges]

    def test_overlapping_ranges_share_the_traversal(self):
        ranges = [(100, 612), (100, 612), (104, 616), (96, 608)]
        tree, counter = _counting_tree()
        tree.tokens_for_ranges(ranges)
        batched_calls = counter.child_calls
        scalar_calls = 0
        for start, end in ranges:
            tree, counter = _counting_tree()
            tree.tokens_for_range(start, end)
            scalar_calls += counter.child_calls
        assert batched_calls < scalar_calls / 2  # shared cover nodes derive once

    def test_grant_many_uses_one_traversal(self):
        config = StreamConfig(chunk_interval=1_000, key_tree_height=16, index_fanout=4)
        identity_provider = IdentityProvider()
        manager = GrantManager(
            stream_uuid="stream-1",
            config=config,
            key_tree=KeyDerivationTree(seed=b"\x21" * 16, height=16, prg="blake2"),
            identity_provider=identity_provider,
            token_store=TokenStore(),
        )
        policies = []
        for index in range(5):
            principal = Principal.create(f"worker-{index}")
            identity_provider.register(principal)
            policies.append(
                AccessPolicy(
                    stream_uuid="stream-1",
                    principal_id=principal.principal_id,
                    time_range=TimeRange(0, 64_000 + index * 1_000),
                )
            )
        traversals: List[int] = []
        original = manager.key_tree.tokens_for_ranges

        def counting(ranges):
            traversals.append(len(ranges))
            return original(ranges)

        manager.key_tree.tokens_for_ranges = counting  # type: ignore[method-assign]
        grants = manager.grant_many(policies)
        assert [grant.grant_id for grant in grants] == [0] * 5
        assert traversals == [5]  # one shared traversal for the whole cohort


# ---------------------------------------------------------------------------
# Satellite: sorted-key-cache mixin
# ---------------------------------------------------------------------------


@pytest.fixture(params=["memory", "disk"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore()
    else:
        store = AppendLogStore(tmp_path / "store.log")
        yield store
        store.close()


class TestSortedKeyCacheMixin:
    def test_every_mutation_invalidates(self, backend):
        backend.put(b"a/1", b"x")
        assert [key for key, _v in backend.scan_prefix(b"a/")] == [b"a/1"]
        backend.multi_put([(b"a/0", b"y"), (b"a/2", b"z")])
        assert [key for key, _v in backend.scan_prefix(b"a/")] == [b"a/0", b"a/1", b"a/2"]
        backend.delete(b"a/1")
        assert [key for key, _v in backend.scan_prefix(b"a/")] == [b"a/0", b"a/2"]
        backend.multi_delete([b"a/0"])
        assert [key for key, _v in backend.scan_prefix(b"a/")] == [b"a/2"]

    def test_cache_reused_between_scans(self, backend):
        backend.multi_put([(f"b/{i}".encode(), b"v") for i in range(8)])
        first = backend._keys_sorted()
        assert backend._keys_sorted() is first  # no mutation: same list object
        backend.put(b"b/9", b"v")
        assert backend._keys_sorted() is not first

    def test_interval_scan_and_delete_prefix(self, backend):
        backend.multi_put([(f"c/{i:02d}".encode(), b"v") for i in range(10)])
        got = [key for key, _v in backend.scan_prefix(b"c/", b"c/03", b"c/06")]
        assert got == [b"c/03", b"c/04", b"c/05", b"c/06"]
        assert backend.delete_prefixes([b"c/"]) == 10
        assert list(backend.scan_prefix(b"c/")) == []
