"""Batch round-trip pipeline tests: multi_put/multi_get/multi_delete end to end.

Covers the three layers of the batch boundary:

* backends — ``MemoryStore`` single-lock bulk ops, ``AppendLogStore``
  one-append-per-batch, ``StorageCluster`` partitioner-aware scatter-gather
  with per-node failure isolation;
* index — ``append_many`` flushing one coalesced ``multi_put`` per batch and
  range queries fetching the node cover with one ``multi_get``;
* server — ``insert_chunks`` landing payloads + index nodes in a single
  write set, with stored bytes identical to the one-chunk path.
"""

from __future__ import annotations

import pytest

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.exceptions import PartitionError, StorageError
from repro.storage.cluster import StorageCluster
from repro.storage.disk import AppendLogStore
from repro.storage.kv import KeyValueStore
from repro.storage.memory import MemoryStore
from repro.util.timeutil import TimeRange


class MinimalStore(KeyValueStore):
    """A backend implementing only the contract's abstract ops."""

    def __init__(self):
        self.data = {}

    def multi_get(self, keys):
        return {key: self.data.get(key) for key in keys}

    def multi_put(self, items):
        self.data.update(items)

    def multi_delete(self, keys):
        return {key for key in keys if self.data.pop(key, None) is not None}

    def scan_prefix(self, prefix, lo=b"", hi=None):
        return iter(
            (key, value)
            for key, value in sorted(self.data.items())
            if key.startswith(prefix) and lo <= key and (hi is None or key <= hi)
        )


class FlakyStore(MemoryStore):
    """A node-local store that can be told to fail its next batch calls."""

    def __init__(self) -> None:
        super().__init__()
        self.failing = False

    def _maybe_fail(self) -> None:
        if self.failing:
            raise IOError("injected node failure")

    def multi_put(self, items):
        self._maybe_fail()
        return super().multi_put(items)

    def multi_get(self, keys):
        self._maybe_fail()
        return super().multi_get(keys)

    def multi_delete(self, keys):
        self._maybe_fail()
        return super().multi_delete(keys)


# ---------------------------------------------------------------------------
# Backend primitives
# ---------------------------------------------------------------------------


class TestMemoryStoreBatch:
    def test_round_trip_counters(self):
        store = MemoryStore()
        store.multi_put([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        store.multi_get([b"a", b"b", b"missing"])
        store.multi_delete([b"a", b"missing"])
        assert store.stats.multi_puts == 1 and store.stats.multi_put_keys == 3
        assert store.stats.multi_gets == 1 and store.stats.multi_get_keys == 3
        assert store.stats.multi_deletes == 1 and store.stats.multi_delete_keys == 2
        # 3 round trips total for 8 keys moved.
        assert store.stats.round_trips == 3

    def test_multi_delete_returns_existing_subset(self):
        store = MemoryStore()
        store.multi_put([(b"a", b"1"), (b"b", b"2")])
        assert store.multi_delete([b"a", b"x"]) == {b"a"}
        assert store.get(b"a") is None and store.get(b"b") == b"2"


class TestAppendLogStoreBatch:
    def test_multi_put_is_one_append(self, tmp_path):
        with AppendLogStore(tmp_path / "s.log") as store:
            store.multi_put([(f"k{i}".encode(), f"v{i}".encode()) for i in range(50)])
            assert store.stats.multi_puts == store.stats.round_trips == 1
            for i in range(50):
                assert store.get(f"k{i}".encode()) == f"v{i}".encode()

    def test_multi_put_persists_across_reopen(self, tmp_path):
        path = tmp_path / "s.log"
        with AppendLogStore(path) as store:
            store.multi_put([(b"a", b"1"), (b"b", b"2")])
        with AppendLogStore(path) as reopened:
            assert reopened.multi_get([b"a", b"b"]) == {b"a": b"1", b"b": b"2"}

    def test_multi_get_one_pass_with_missing_keys(self, tmp_path):
        with AppendLogStore(tmp_path / "s.log") as store:
            store.multi_put([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
            result = store.multi_get([b"c", b"missing", b"a"])
            assert result == {b"c": b"3", b"missing": None, b"a": b"1"}
            assert store.stats.multi_gets == store.stats.read_round_trips == 1

    def test_multi_get_returns_latest_version(self, tmp_path):
        with AppendLogStore(tmp_path / "s.log") as store:
            store.put(b"k", b"old")
            store.multi_put([(b"k", b"new"), (b"other", b"x")])
            assert store.multi_get([b"k"]) == {b"k": b"new"}

    def test_multi_delete_batched_tombstones(self, tmp_path):
        path = tmp_path / "s.log"
        with AppendLogStore(path) as store:
            store.multi_put([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
            assert store.multi_delete([b"a", b"c", b"nope"]) == {b"a", b"c"}
            assert store.stats.multi_deletes == 1 and store.stats.write_round_trips == 2
        with AppendLogStore(path) as reopened:
            assert len(reopened) == 1 and reopened.get(b"b") == b"2"

    def test_sync_mode_batches_fsync(self, tmp_path):
        with AppendLogStore(tmp_path / "s.log", sync=True) as store:
            store.multi_put([(b"a", b"1"), (b"b", b"2")])
            assert store.multi_get([b"a", b"b"]) == {b"a": b"1", b"b": b"2"}


class TestClusterScatterGather:
    def test_multi_put_one_round_trip_per_node(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(64)]
        cluster.multi_put(items)
        for name in cluster.node_names:
            stats = cluster.node_store(name).stats
            assert stats.multi_puts == stats.round_trips == 1
        # Every key readable, and replicated RF times.
        assert cluster.multi_get([key for key, _ in items]) == dict(items)
        total_copies = sum(len(cluster.node_store(name)) for name in cluster.node_names)
        assert total_copies == 2 * len(items)

    def test_multi_get_one_round_trip_per_node(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(64)]
        cluster.multi_put(items)
        for name in cluster.node_names:
            cluster.node_store(name).stats.reset()
        result = cluster.multi_get([key for key, _ in items] + [b"absent"])
        assert result[b"absent"] is None
        assert all(result[key] == value for key, value in items)
        for name in cluster.node_names:
            stats = cluster.node_store(name).stats
            # One primary-read round trip, plus at most one fallback pass for
            # the absent key's replica checks.
            assert stats.multi_gets == stats.round_trips <= 2

    def test_multi_put_with_downed_node_routes_to_survivors(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.mark_down("node-1")
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(40)]
        cluster.multi_put(items)
        assert len(cluster.node_store("node-1")) == 0
        for key, value in items:
            assert cluster.get(key) == value

    def test_repair_backfills_after_batched_outage_writes(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.mark_down("node-1")
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(40)]
        cluster.multi_put(items)
        cluster.mark_up("node-1")
        cluster.repair_node("node-1")
        missing = [
            key
            for key, _ in cluster.scan_prefix(b"")
            if "node-1" in cluster.healthy_replicas(key)
            and cluster.node_store("node-1").get(key) is None
        ]
        assert missing == []

    def test_multi_get_partial_outage_returns_every_reachable_key(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(60)]
        cluster.multi_put(items)
        cluster.mark_down("node-0")
        # rf=2 over 3 nodes: every key still has one healthy replica.
        result = cluster.multi_get([key for key, _ in items])
        assert result == dict(items)

    def test_multi_put_marks_failing_node_down_and_reroutes(self):
        stores = {}

        def factory(name):
            stores[name] = FlakyStore()
            return stores[name]

        cluster = StorageCluster(num_nodes=3, replication_factor=2, store_factory=factory)
        stores["node-2"].failing = True
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(40)]
        cluster.multi_put(items)
        # The failure fed the mark-down machinery ...
        assert cluster.healthy_replicas(b"k0") != [] and "node-2" not in {
            node for key, _ in items for node in cluster.healthy_replicas(key)
        }
        # ... and every key is still readable from the survivors.
        for key, value in items:
            assert cluster.get(key) == value
        # Recovery path: node comes back and mark_up replays the hints the
        # failed writes parked on the survivors — repair has nothing left.
        stores["node-2"].failing = False
        assert cluster.mark_up("node-2") > 0
        assert cluster.repair_node("node-2") == 0

    def test_multi_get_marks_failing_node_down_and_retries(self):
        stores = {}

        def factory(name):
            stores[name] = FlakyStore()
            return stores[name]

        cluster = StorageCluster(num_nodes=3, replication_factor=2, store_factory=factory)
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(40)]
        cluster.multi_put(items)
        stores["node-0"].failing = True
        result = cluster.multi_get([key for key, _ in items])
        assert result == dict(items)

    def test_multi_put_no_replica_raises(self):
        cluster = StorageCluster(num_nodes=2, replication_factor=2)
        cluster.mark_down("node-0")
        cluster.mark_down("node-1")
        with pytest.raises(PartitionError):
            cluster.multi_put([(b"k", b"v")])

    def test_multi_get_no_replica_raises(self):
        cluster = StorageCluster(num_nodes=2, replication_factor=2)
        cluster.multi_put([(b"k", b"v")])
        cluster.mark_down("node-0")
        cluster.mark_down("node-1")
        with pytest.raises(PartitionError):
            cluster.multi_get([b"k"])

    def test_multi_delete_node_failure_propagates(self):
        """A failed tombstone must surface — repair cannot heal a missed delete."""
        stores = {}

        def factory(name):
            stores[name] = FlakyStore()
            return stores[name]

        cluster = StorageCluster(num_nodes=3, replication_factor=2, store_factory=factory)
        items = [(f"k{i}".encode(), b"v") for i in range(30)]
        cluster.multi_put(items)
        stores["node-1"].failing = True
        with pytest.raises(IOError):
            cluster.multi_delete([key for key, _ in items])
        # The caller knows the delete did not fully land, and the node was
        # not silently marked down while holding resurrectable data.
        assert any("node-1" in cluster.healthy_replicas(key) for key, _ in items)

    def test_multi_delete_scatter_gather(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(30)]
        cluster.multi_put(items)
        for name in cluster.node_names:
            cluster.node_store(name).stats.reset()
        existed = cluster.multi_delete([key for key, _ in items[:10]] + [b"ghost"])
        assert existed == {key for key, _ in items[:10]}
        for name in cluster.node_names:
            stats = cluster.node_store(name).stats
            assert stats.multi_deletes == stats.round_trips == 1
        assert cluster.multi_get([key for key, _ in items[:10]]) == {
            key: None for key, _ in items[:10]
        }


# ---------------------------------------------------------------------------
# Index + engine integration
# ---------------------------------------------------------------------------


CHUNK_INTERVAL = 1_000
POINTS_PER_CHUNK = 4


def _records(num_chunks: int):
    step = CHUNK_INTERVAL // POINTS_PER_CHUNK
    return [
        (t, float((t // step) % 50)) for t in range(0, num_chunks * CHUNK_INTERVAL, step)
    ]


def _encrypted_chunks(num_chunks: int):
    """Encrypt a stream once; returns (metadata, the encrypted chunks)."""
    server = ServerEngine()
    owner = TimeCrypt(server=server, owner_id="tester")
    config = StreamConfig(chunk_interval=CHUNK_INTERVAL, index_fanout=4)
    uuid = owner.create_stream(metric="batch", config=config)
    owner.insert_records(uuid, _records(num_chunks))
    owner.flush(uuid)
    chunks = [server.get_chunk(uuid, index) for index in range(num_chunks)]
    assert all(chunk is not None for chunk in chunks)
    return server.stream_metadata(uuid), chunks


class TestEngineBatchRoundTrips:
    def test_insert_chunks_is_one_multi_put(self):
        metadata, chunks = _encrypted_chunks(12)
        store = MemoryStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        store.stats.reset()
        server.insert_chunks(chunks)
        # Payloads + index nodes + meta record: one coalesced write set.
        assert store.stats.multi_puts == store.stats.write_round_trips == 1
        # The write set carried every chunk payload and at least one node per chunk.
        assert store.stats.multi_put_keys > len(chunks)

    def test_scalar_insert_chunk_is_one_multi_put(self):
        metadata, chunks = _encrypted_chunks(3)
        store = MemoryStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        store.stats.reset()
        for chunk in chunks:
            server.insert_chunk(chunk)
        # Payload + spine nodes + meta record share one write round per chunk.
        assert store.stats.multi_puts == store.stats.write_round_trips == len(chunks)

    def test_cold_first_insert_reads_the_spine_in_one_multi_get(self):
        metadata, chunks = _encrypted_chunks(12)
        store = MemoryStore()
        warm = ServerEngine(store=store)
        warm.create_stream(metadata)
        warm.insert_chunks(chunks[:7])
        # A fresh engine over the populated store holds no spine yet.
        cold = ServerEngine(store=store)
        assert cold._state(metadata.uuid).index.max_level == 15
        store.stats.reset()
        cold.insert_chunks(chunks[7:])
        # Every level's spine node comes back in one batched read, never
        # one get per level.
        assert store.stats.multi_gets == 1
        assert store.stats.multi_puts == 1
        assert store.stats.round_trips == 2

    def test_small_cache_appends_read_storage_only_at_block_heads(self):
        metadata, chunks = _encrypted_chunks(40)
        uuid = metadata.uuid
        store = MemoryStore()
        # A cache smaller than one node holds nothing: every lookup misses.
        server = ServerEngine(store=store, index_cache_bytes=16)
        server.create_stream(metadata)
        multi_gets = reads = 0
        for chunk in chunks:
            if chunk.window_index:
                server.stat_range_windows(uuid, 0, chunk.window_index)
            store.stats.reset()
            server.insert_chunk(chunk)
            multi_gets += store.stats.multi_gets
            reads += store.stats.read_round_trips
        # The resident spine answers every level that continues a block; only
        # an append opening a level-1 block at the head reads storage.
        opens_block = sum(1 for chunk in chunks if chunk.window_index % 4 == 0)
        assert multi_gets == reads == opens_block
        roomy_store = MemoryStore()
        roomy = ServerEngine(store=roomy_store)
        roomy.create_stream(metadata)
        for chunk in chunks:
            roomy.insert_chunk(chunk)
        assert dict(store.scan_prefix(b"")) == dict(roomy_store.scan_prefix(b""))

    def test_failed_scalar_ingest_leaves_no_orphan_payload(self):
        metadata, chunks = _encrypted_chunks(2)

        class RefusingStore(MemoryStore):
            refusing = False

            def multi_put(self, items):
                if self.refusing:
                    raise IOError("injected write failure")
                super().multi_put(items)

        store = RefusingStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        store.refusing = True
        with pytest.raises(IOError):
            server.insert_chunk(chunks[0])
        assert server.stream_head(metadata.uuid) == 0
        assert list(store.scan_prefix(b"chunk/")) == []

    def test_batch_matches_scalar_store_bytes_exactly(self):
        metadata, chunks = _encrypted_chunks(12)
        scalar_store, batch_store = MemoryStore(), MemoryStore()
        scalar_server = ServerEngine(store=scalar_store)
        batch_server = ServerEngine(store=batch_store)
        scalar_server.create_stream(metadata)
        batch_server.create_stream(metadata)
        for chunk in chunks:
            scalar_server.insert_chunk(chunk)
        batch_server.insert_chunks(chunks)
        assert dict(scalar_store.scan_prefix(b"")) == dict(batch_store.scan_prefix(b""))
        # And both engines answer the same encrypted aggregate.
        uuid = metadata.uuid
        scalar_result = scalar_server.stat_range_windows(uuid, 0, len(chunks))
        batch_result = batch_server.stat_range_windows(uuid, 0, len(chunks))
        assert scalar_result.cells == batch_result.cells

    def test_cold_query_is_one_multi_get(self):
        metadata, chunks = _encrypted_chunks(16)
        store = MemoryStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        server.insert_chunks(chunks)
        # Fresh engine over the same store: the node cache starts empty.
        cold = ServerEngine(store=store)
        store.stats.reset()
        result = cold.stat_range_windows(metadata.uuid, 1, len(chunks))
        assert result.num_index_nodes > 1
        assert store.stats.multi_gets == store.stats.round_trips == 1
        assert cold.query_stats.index_store_round_trips == 1
        # Warm cache: the same query needs zero backend round trips.
        store.stats.reset()
        cold.stat_range_windows(metadata.uuid, 1, len(chunks))
        assert store.stats.round_trips == 0
        assert cold.query_stats.index_store_round_trips == 1  # unchanged

    def test_cluster_query_one_multi_get_per_node(self):
        metadata, chunks = _encrypted_chunks(16)
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        server = ServerEngine(store=cluster)
        server.create_stream(metadata)
        server.insert_chunks(chunks)
        cold = ServerEngine(store=cluster)
        for name in cluster.node_names:
            cluster.node_store(name).stats.reset()
        result = cold.stat_range_windows(metadata.uuid, 1, len(chunks))
        assert result.num_index_nodes > 1
        for name in cluster.node_names:
            assert cluster.node_store(name).stats.multi_gets <= 1

    def test_get_range_batches_chunk_reads(self):
        metadata, chunks = _encrypted_chunks(10)
        store = MemoryStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        server.insert_chunks(chunks)
        store.stats.reset()
        fetched = server.get_range(metadata.uuid, TimeRange(0, 10 * CHUNK_INTERVAL))
        assert len(fetched) == 10
        assert store.stats.multi_gets == store.stats.round_trips == 1
        assert fetched == chunks

    def test_delete_range_batches_deletes(self):
        metadata, chunks = _encrypted_chunks(10)
        store = MemoryStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        server.insert_chunks(chunks)
        store.stats.reset()
        deleted = server.delete_range(metadata.uuid, TimeRange(0, 5 * CHUNK_INTERVAL))
        assert deleted == 5
        assert store.stats.multi_deletes == store.stats.round_trips == 1

    def test_rollup_prune_batches_deletes(self):
        metadata, chunks = _encrypted_chunks(16)
        store = MemoryStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        server.insert_chunks(chunks)
        store.stats.reset()
        deleted = server.rollup_stream(metadata.uuid, resolution_windows=4)
        assert deleted > 0
        # One multi_delete for payloads, one for the pruned index levels,
        # and a one-key put of the index meta record.
        assert store.stats.multi_deletes == 2 and store.stats.round_trips == 3
        # Coarse aggregates survive the rollup.
        result = server.stat_range_windows(metadata.uuid, 0, 16)
        assert result.num_index_nodes >= 1

    def test_engine_over_appendlog_end_to_end(self, tmp_path):
        metadata, chunks = _encrypted_chunks(8)
        with AppendLogStore(tmp_path / "engine.log") as store:
            server = ServerEngine(store=store)
            server.create_stream(metadata)
            server.insert_chunks(chunks)
            # The metadata record, then the whole batch.
            assert store.stats.multi_puts == store.stats.write_round_trips == 2
            result = server.stat_range_windows(metadata.uuid, 0, len(chunks))
            assert result.num_index_nodes >= 1

    def test_delete_stream_uses_batched_delete(self):
        metadata, chunks = _encrypted_chunks(8)
        store = MemoryStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        server.insert_chunks(chunks)
        store.stats.reset()
        server.delete_stream(metadata.uuid)
        # Bulk erase is two prefix deletes (chunks, index: a keys-only scan
        # and a multi_delete each) plus the one-key metadata delete —
        # constant round trips, never one per key.
        assert store.stats.multi_deletes == 3 and store.stats.round_trips == 5
        assert len(store) == 0


    def test_delete_stream_keeps_other_streams_nodes_cached(self):
        """The node cache is engine-wide: deleting one stream must not cold-start the rest."""
        doomed, doomed_chunks = _encrypted_chunks(8)
        survivor, survivor_chunks = _encrypted_chunks(8)
        server = ServerEngine()
        for metadata, chunks in ((doomed, doomed_chunks), (survivor, survivor_chunks)):
            server.create_stream(metadata)
            server.insert_chunks(chunks)
        cached_before = len(server._cache)
        server.delete_stream(doomed.uuid)
        assert 0 < len(server._cache) < cached_before
        server.query_stats.reset()
        result = server.stat_range_windows(survivor.uuid, 1, 7)
        assert result.num_index_nodes > 1
        assert server.query_stats.index_store_round_trips == 0
        # A re-created stream under the deleted uuid starts from storage, not stale nodes.
        server.create_stream(doomed)
        server.insert_chunks(doomed_chunks[:2])
        assert server.stat_range_windows(doomed.uuid, 0, 2).cells == tuple(
            a + b for a, b in zip(doomed_chunks[0].digest, doomed_chunks[1].digest)
        )


class TestBatchFailureAtomicity:
    def test_failed_flush_leaves_index_retryable(self):
        """A rejected multi_put must not advance the index head or poison the cache."""
        class RefusingStore(MemoryStore):
            def __init__(self):
                super().__init__()
                self.refusing = False

            def multi_put(self, items):
                if self.refusing:
                    raise StorageError("injected backend outage")
                return super().multi_put(items)

        metadata, chunks = _encrypted_chunks(8)
        store = RefusingStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        server.insert_chunks(chunks[:4])
        store.refusing = True
        with pytest.raises(StorageError):
            server.insert_chunks(chunks[4:])
        assert server.stream_head(metadata.uuid) == 4
        # The store heals; retrying the identical batch succeeds.
        store.refusing = False
        server.insert_chunks(chunks[4:])
        assert server.stream_head(metadata.uuid) == 8
        # Nothing stale was cached during the failed attempt: a cold engine
        # over the same store answers identically.
        cold = ServerEngine(store=store)
        assert (
            cold.stat_range_windows(metadata.uuid, 0, 8).cells
            == server.stat_range_windows(metadata.uuid, 0, 8).cells
        )

    @pytest.mark.parametrize("error", [StorageError, TypeError], ids=lambda error: error.__name__)
    @pytest.mark.parametrize("op", ["multi_put", "multi_get", "multi_delete", "delete_prefixes", "add_node"])
    def test_cluster_propagates_deterministic_errors_without_markdown(self, tmp_path, monkeypatch, op, error):
        """The outage policy of every fan-out caller (README "Hinted handoff").

        A node outage (StorageError) marks the node down and re-routes,
        except on the erasing ops, where a missed tombstone cannot be
        repaired, so it propagates.  A data bug (TypeError) is not an
        outage: it reaches the caller and no node is blamed.
        """
        cluster = StorageCluster(
            num_nodes=3,
            replication_factor=2,
            store_factory=lambda name: AppendLogStore(tmp_path / f"{name}.log"),
        )
        keys = [f"k/{index:02d}".encode() for index in range(12)]
        cluster.multi_put([(key, b"v") for key in keys])
        if op == "add_node":
            # The handoff asks the joining node what it holds first.
            victim, victim_store, failing = "node-3", MemoryStore(), "multi_get"
        else:
            victim = cluster.healthy_replicas(keys[0])[0]
            victim_store, failing = cluster.node_store(victim), op

        def fail(*_args):
            raise error("injected")

        monkeypatch.setattr(victim_store, failing, fail)
        call = {
            "multi_put": lambda: cluster.multi_put([(key, b"w") for key in keys]),
            "multi_get": lambda: cluster.multi_get(keys),
            "multi_delete": lambda: cluster.multi_delete(keys),
            "delete_prefixes": lambda: cluster.delete_prefixes([b"k/"]),
            "add_node": lambda: cluster.add_node(victim, victim_store),
        }[op]
        if error is StorageError and op not in ("multi_delete", "delete_prefixes"):
            call()
            assert cluster._down == {victim}
            expected = b"w" if op == "multi_put" else b"v"
            assert cluster.multi_get(keys) == {key: expected for key in keys}
        else:
            with pytest.raises(error):
                call()
            assert not cluster._down
        cluster.close()


class TestScalarInterfaceUnchanged(object):
    """A backend implementing only the abstract ops serves the whole interface."""

    def test_one_key_ops_are_batches_of_one(self):
        store = MinimalStore()
        store.put(b"a", b"1")
        store.multi_put([(b"b", b"2")])
        assert store.get(b"a") == b"1" and store.get(b"c") is None
        assert store.contains(b"b") and not store.contains(b"c")
        assert store.delete(b"a") is True and store.delete(b"a") is False
        assert store.data == {b"b": b"2"}

    def test_engine_works_over_minimal_backend(self):
        metadata, chunks = _encrypted_chunks(4)
        server = ServerEngine(store=MinimalStore())
        server.create_stream(metadata)
        server.insert_chunks(chunks)
        result = server.stat_range_windows(metadata.uuid, 0, len(chunks))
        assert result.num_index_nodes >= 1
