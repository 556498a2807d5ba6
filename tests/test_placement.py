"""Partition placement: a stream, not each key, is the ring's unit.

Covers :func:`~repro.storage.partitioner.partition_key` and what it buys the
cluster:

* every per-stream key builder (chunks, index nodes, the index meta record,
  stream metadata, grants, envelopes) maps to its stream's partition;
* a ``1 << n`` sweep over window coordinates 2^0 … 2^63, each with its
  neighbours (so 4 095, 4 096 and 4 097 too), finds no boundary: a stream
  has one partition at any age;
* generic, hint, routing-table and uuid-less keys pass through unchanged;
* a single-stream ingest batch writes exactly RF nodes and a cold node
  cover reads one, on a new stream and on one past window 4 096;
* after ``add_node`` / ``decommission_node`` every partition's keys share
  one replica set, reads made during the handoff are right, and a hint for
  a stream key parks on a replica of its partition.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Tuple

import pytest

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.access.keystore import TokenStore, _envelope_key, _grant_key
from repro.storage.cluster import HINT_PREFIX, StorageCluster
from repro.storage.partitioner import ConsistentHashRing, partition_key
from repro.timeseries.serialization import (
    chunk_storage_key,
    index_node_storage_key,
    metadata_storage_key,
)

UUID = "5a1f6c1e-0b7e-4c6e-9d1e-2f3a4b5c6d7e"
OTHER = "0d3e4f5a-6b7c-4d8e-9f0a-1b2c3d4e5f6a"


def _stream_keys(uuid: str, window: int) -> List[bytes]:
    """Every key family the repo writes per stream, timed ones at ``window``."""
    return [
        chunk_storage_key(uuid, window),
        index_node_storage_key(uuid, 0, window),
        index_node_storage_key(uuid, 2, window // 4096),
        _envelope_key(uuid, 4, window),
        metadata_storage_key(uuid),
        f"index/{uuid}/meta".encode("ascii"),
        _grant_key(uuid, "principal-1", 7),
        _grant_key(uuid, "a/b", 0),  # a '/' inside the principal id
    ]


# ---------------------------------------------------------------------------
# The mapping
# ---------------------------------------------------------------------------


class TestPartitionKey:
    def test_every_key_builder_maps_to_its_stream_partition(self):
        home = partition_key(metadata_storage_key(UUID))
        for window in (0, 1, 4_095, 4_096, 1 << 40):
            for key in _stream_keys(UUID, window):
                assert partition_key(key) == home, key
        assert partition_key(metadata_storage_key(OTHER)) != home

    def test_index_meta_key_is_the_aggregation_index_key(self):
        from repro.index.node import plaintext_combiner
        from repro.index.tree import AggregationIndex
        from repro.storage.memory import MemoryStore
        from repro.util.encoding import pack_varint_list

        index = AggregationIndex(UUID, MemoryStore(), plaintext_combiner(), pack_varint_list, None)
        assert partition_key(index._meta_key()) == partition_key(metadata_storage_key(UUID))

    @pytest.mark.parametrize("bit", range(64))
    def test_bit_sweep_finds_no_boundary(self, bit):
        home = partition_key(metadata_storage_key(UUID))
        window = 1 << bit
        for coordinate in (window - 1, window, window + 1):
            for key in _stream_keys(UUID, coordinate):
                assert partition_key(key) == home, key

    @pytest.mark.parametrize(
        "key",
        [
            b"chunk/" + UUID.encode(),
            b"chunk/" + UUID.encode() + b"/xyz",
            b"chunk/" + UUID.encode() + b"/00/01",
            b"index/" + UUID.encode() + b"/meta/x",
            b"meta/" + UUID.encode() + b"/extra",
            b"grant/" + UUID.encode(),
        ],
    )
    def test_odd_stream_keys_stay_with_their_stream(self, key):
        assert partition_key(key) == partition_key(metadata_storage_key(UUID))

    @pytest.mark.parametrize(
        "key",
        [
            b"",
            b"k/00001",
            b"kv/b/000001",
            b"plain",
            UUID.encode(),  # shard routing-table ring key
            b"hint/node-1/" + chunk_storage_key(UUID, 5),
            HINT_PREFIX + b"node-0/" + metadata_storage_key(UUID),
            b"chunk//0000000000000001",  # no uuid
            b"grant//p/00000001",
            b"meta/",
            b"chunks/" + UUID.encode(),  # not a stream family
            b"\xff/\xfe/\x00",
            b"chunk",
            b"/",
        ],
    )
    def test_other_and_uuidless_keys_pass_through(self, key):
        assert partition_key(key) == key

    def test_ring_places_every_stream_key_with_its_partition(self):
        ring = ConsistentHashRing([f"node-{i}" for i in range(5)])
        home = ring.replicas(metadata_storage_key(UUID), 2)
        for key in _stream_keys(UUID, 42) + _stream_keys(UUID, 1 << 20):
            assert ring.replicas(key, 2) == home
        # Generic keys still hash individually: 64 of them do not all share
        # one replica set on a 5-node ring.
        generic = {tuple(ring.replicas(f"k/{i:05d}".encode(), 2)) for i in range(64)}
        assert len(generic) > 1


# ---------------------------------------------------------------------------
# What the cluster does with it
# ---------------------------------------------------------------------------


def _records(first_chunk: int, chunks: int) -> List[Tuple[int, float]]:
    return [(t, float(t % 97)) for t in range(first_chunk * 1_000, (first_chunk + chunks) * 1_000, 250)]


def _engine_stream(cluster: StorageCluster) -> Tuple[ServerEngine, TimeCrypt, str]:
    engine = ServerEngine(store=cluster, token_store=TokenStore(cluster))
    owner = TimeCrypt(server=engine, owner_id="placement")
    uuid = owner.create_stream(
        metric="placement", config=StreamConfig(chunk_interval=1_000), uuid=UUID
    )
    return engine, owner, uuid


def _touched(cluster: StorageCluster, *counters: str) -> List[str]:
    return [
        name
        for name in cluster.node_names
        if any(getattr(cluster.node_store(name).stats, counter) for counter in counters)
    ]


def _reset(cluster: StorageCluster) -> None:
    for name in cluster.node_names:
        cluster.node_store(name).stats.reset()


class TestClusterPlacement:
    @pytest.mark.parametrize(
        "head, cover",
        # The aged cover spans leaves and a whole level-1 node past window
        # 4 096, so a placement that split a stream by time would show here.
        [(1, (1, 15)), (4_300, (4_100, 4_230))],
        ids=["new-stream", "aged-stream"],
    )
    def test_ingest_batch_writes_rf_nodes_and_cold_cover_reads_one(self, head, cover):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        _engine, owner, uuid = _engine_stream(cluster)
        # Window 0, then empty windows up to ``head`` and 8 chunks there.
        owner.insert_records(uuid, _records(0, 1) + _records(head, 8))
        _reset(cluster)
        owner.insert_records(uuid, _records(head + 8, 8))
        written = _touched(cluster, "multi_puts")
        assert sorted(written) == sorted(cluster.healthy_replicas(chunk_storage_key(uuid, head + 9)))
        assert len(written) == cluster.replication_factor
        owner.flush(uuid)
        cold = ServerEngine(store=cluster)  # its start-up scan reads every node
        _reset(cluster)
        cold.stat_range_windows(uuid, *cover)
        read = _touched(cluster, "multi_gets")
        assert read == [cluster.healthy_replicas(metadata_storage_key(uuid))[0]]
        cluster.close()


def _synthetic_keyspace() -> Dict[bytes, bytes]:
    """Keys of several streams at several ages, plus generic keys."""
    items: Dict[bytes, bytes] = {}
    for stream in range(6):
        uuid = f"{stream:08x}-0000-4000-8000-000000000000"
        for window in (0, 1, 4_095, 4_096, 12_293, 1 << 40):
            for key in _stream_keys(uuid, window):
                items[key] = key[::-1]
    for index in range(60):
        items[f"k/{index:05d}".encode()] = bytes([index])
    return items


def _assert_partitions_share_replica_sets(cluster: StorageCluster, keys) -> None:
    groups: Dict[bytes, List[bytes]] = defaultdict(list)
    for key in keys:
        groups[partition_key(key)].append(key)
    for keys_of_partition in groups.values():
        expected = cluster.healthy_replicas(keys_of_partition[0])
        for key in keys_of_partition:
            assert cluster.healthy_replicas(key) == expected, key
            holders = [n for n in cluster.node_names if cluster.node_store(n).get(key) is not None]
            assert sorted(holders) == sorted(expected), key


class TestMembershipMovesWholePartitions:
    def test_add_then_decommission_keeps_partitions_together(self):
        items = _synthetic_keyspace()
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.multi_put(list(items.items()))
        _assert_partitions_share_replica_sets(cluster, items)
        added = cluster.add_node()
        assert cluster.last_rebalance["moved_keys"] > 0
        _assert_partitions_share_replica_sets(cluster, items)
        cluster.decommission_node("node-0")
        _assert_partitions_share_replica_sets(cluster, items)
        assert added in cluster.node_names
        assert cluster.multi_get(list(items)) == items
        cluster.close()

    def test_reads_correct_during_handoff(self):
        items = _synthetic_keyspace()
        probed: List[int] = []

        class ProbingCluster(StorageCluster):
            def _handoff_batch(self, batch, old_ring, old_rf):
                fetched = self.multi_get(list(items))
                assert fetched == items
                probed.append(len(batch))
                return super()._handoff_batch(batch, old_ring, old_rf)

        cluster = ProbingCluster(num_nodes=3, replication_factor=2)
        cluster.multi_put(list(items.items()))
        cluster.add_node(handoff_batch_size=16)
        cluster.decommission_node("node-1", handoff_batch_size=16)
        assert len(probed) >= 2
        assert cluster.multi_get(list(items)) == items
        cluster.close()

    def test_engine_stream_survives_membership_changes(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        engine, owner, uuid = _engine_stream(cluster)
        owner.insert_records(uuid, _records(0, 20))
        owner.flush(uuid)
        before = engine.stat_range_windows(uuid, 0, 20)
        cluster.add_node()
        cluster.decommission_node("node-2")
        after = ServerEngine(store=cluster).stat_range_windows(uuid, 0, 20)
        assert after.cells == before.cells
        _assert_partitions_share_replica_sets(cluster, [key for key, _ in cluster.scan_prefix(b"")])
        cluster.close()

    def test_hint_for_stream_key_parks_on_a_replica_of_its_partition(self):
        cluster = StorageCluster(num_nodes=4, replication_factor=2)
        keys = _stream_keys(UUID, 3)
        target = cluster.healthy_replicas(keys[0])[0]
        cluster.mark_down(target)
        cluster.multi_put([(key, b"v") for key in keys])
        replicas = cluster._ring.replicas(metadata_storage_key(UUID), 2)
        hosts = {
            name
            for name in cluster.node_names
            if name != target
            and any(True for _ in cluster.node_store(name).scan_sizes(HINT_PREFIX + target.encode()))
        }
        assert hosts and hosts <= set(replicas) - {target}
        assert cluster.mark_up(target) == len(keys)
        assert all(cluster.node_store(target).get(key) == b"v" for key in keys)
        cluster.close()


class TestOneWalkPerPartition:
    """A replica walk hashes only the key's partition, so a batch computes
    it once per partition per round, not once per key."""

    def _counting(self, cluster, monkeypatch) -> List[bytes]:
        calls: List[bytes] = []
        ring_replicas = cluster._ring.replicas

        def replicas(key: bytes, replication_factor: int) -> List[str]:
            calls.append(partition_key(key))
            return ring_replicas(key, replication_factor)

        monkeypatch.setattr(cluster._ring, "replicas", replicas)
        return calls

    def test_reads_writes_and_deletes(self, monkeypatch):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        other = "0c4d6e8f-1a2b-4c3d-8e9f-a0b1c2d3e4f5"
        present = [chunk_storage_key(UUID, window) for window in range(40)]
        absent = [index_node_storage_key(other, 0, position) for position in range(30)]
        cluster.multi_put([(key, b"v") for key in present])
        calls = self._counting(cluster, monkeypatch)
        found = cluster.multi_get(present + absent)
        assert all(found[key] == b"v" for key in present)
        assert all(found[key] is None for key in absent)
        # Round 1 reads both partitions; the absent keys go on to the second
        # replica (round 2) and are settled in round 3.
        home, away = partition_key(present[0]), partition_key(absent[0])
        assert sorted(calls) == sorted([home, away, away, away])
        calls.clear()
        cluster.multi_put([(key, b"w") for key in present + absent])
        assert sorted(calls) == sorted([home, away])
        calls.clear()
        assert cluster.multi_delete(present + absent) == set(present + absent)
        assert sorted(calls) == sorted([home, away])
