"""Elastic cluster membership and hinted handoff.

Covers the live-topology half of the Cassandra stand-in:

* the inclusive ring-placement seek (a virtual token whose position equals
  the key's hash owns the key — deterministic collision regression);
* ``add_node`` / ``decommission_node`` streaming only the moved ranges in
  bounded batches, with reads served correctly *mid*-handoff, the moved-key
  fraction ≈ 1/N on an add, and byte-identity of a mirrored engine workload
  across a full add → decommission cycle (in-process and over real-socket
  remote nodes);
* hinted handoff — a write that misses a downed replica parks a hint on a
  surviving replica (reserved ``hint/`` keyspace, invisible to cluster
  scans) and ``mark_up`` replays it so ``repair_node`` heals 0 keys;
* a full-width (RF = 8) write reaching all eight remote nodes at once.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import pytest

from repro import Principal, ServerEngine, StreamConfig, TimeCrypt
from repro.access.keystore import TokenStore
from repro.exceptions import ClusterMembershipError
from repro.storage.cluster import HINT_PREFIX, StorageCluster, _hint_prefix_for
from repro.storage.disk import AppendLogStore
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.partitioner import ConsistentHashRing
from repro.storage.remote import RemoteKeyValueStore

import repro.storage.partitioner as partitioner_module
from repro.util.blocking import before_blocking


# ---------------------------------------------------------------------------
# Ring placement (inclusive seek) and rebalance math
# ---------------------------------------------------------------------------


class TestRingPlacement:
    def test_exact_token_collision_owned_inclusively(self, monkeypatch):
        """A key whose hash equals a token's position belongs to that token.

        128-bit collisions never happen by accident, so the hash is replaced
        with a deterministic map: node A's single token sits at 100, node
        B's at 200, and the probe key hashes to exactly 200.  The
        Dynamo/Cassandra convention (first token with position >= hash) puts
        the key on B; the old exclusive ``bisect_right`` seek skipped B's
        token and wrapped the key around to A.
        """
        positions = {b"A#0": 100, b"B#0": 200, b"key-at-200": 200, b"key-at-100": 100}
        monkeypatch.setattr(
            partitioner_module, "_hash_to_ring", lambda data: positions.get(data, 150)
        )
        ring = ConsistentHashRing(["A", "B"], virtual_tokens=1)
        assert ring.primary(b"key-at-200") == "B"
        assert ring.primary(b"key-at-100") == "A"
        # Between tokens (150) the clockwise successor still owns the key.
        assert ring.primary(b"anything-else") == "B"
        # Replica walks starting at a collision include the colliding node
        # first, then its distinct successor.
        assert ring.replicas(b"key-at-200", 2) == ["B", "A"]

    def test_copy_is_independent(self):
        ring = ConsistentHashRing(["a", "b"], virtual_tokens=8)
        clone = ring.copy()
        clone.add_node("c")
        assert ring.nodes == ["a", "b"]
        assert clone.nodes == ["a", "b", "c"]
        key = b"some-key"
        assert ring.primary(key) in ("a", "b")

    def test_ownership_rebalances_toward_equal_fractions(self):
        ring = ConsistentHashRing([f"node-{i}" for i in range(3)], virtual_tokens=64)
        ring.add_node("node-3")
        fractions = ring.ownership_fractions(sample_keys=2048)
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        # 64 virtual tokens keep every node within a loose band of 1/4.
        for node, fraction in fractions.items():
            assert 0.10 <= fraction <= 0.45, (node, fraction)


# ---------------------------------------------------------------------------
# Elastic membership, in process
# ---------------------------------------------------------------------------


#: How long each node of the full-width write test takes to store a batch.
_SLOW_PUT_S = 0.2


class _SlowPutStore(MemoryStore):
    """A node store whose ``multi_put`` takes ``_SLOW_PUT_S`` (announced)."""

    def multi_put(self, items):
        before_blocking()
        time.sleep(_SLOW_PUT_S)
        return super().multi_put(items)


def _fill(cluster: StorageCluster, count: int, prefix: str = "k") -> List[Tuple[bytes, bytes]]:
    items = [(f"{prefix}/{index:05d}".encode(), bytes([index % 251]) * 8) for index in range(count)]
    cluster.multi_put(items)
    return items


class TestElasticMembership:
    def test_add_node_moves_about_one_over_n(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=1)
        items = _fill(cluster, 600)
        name = cluster.add_node()
        assert name == "node-3"
        stats = cluster.last_rebalance
        assert stats["action"] == "add" and stats["node"] == name
        # RF=1: the moved keys are exactly the new node's ownership share.
        fraction = stats["moved_keys"] / len(items)
        assert 0.10 <= fraction <= 0.45, stats
        assert stats["copied_keys"] == stats["moved_keys"]
        assert stats["handoff_batches"] >= 1
        # Every key still reads back, and the new node serves its share.
        fetched = cluster.multi_get([key for key, _ in items])
        assert all(fetched[key] == value for key, value in items)
        assert len(cluster.node_store(name)) == stats["moved_keys"]
        cluster.close()

    def test_add_node_then_decommission_round_trips_data(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        items = _fill(cluster, 400)
        before = list(cluster.scan_prefix(b""))
        added = cluster.add_node()
        mid = list(cluster.scan_prefix(b""))
        assert mid == before
        stats = cluster.decommission_node(added)
        assert stats["action"] == "decommission"
        assert added not in cluster.node_names
        after = list(cluster.scan_prefix(b""))
        assert after == before
        fetched = cluster.multi_get([key for key, _ in items])
        assert all(fetched[key] == value for key, value in items)
        cluster.close()

    def test_decommission_original_node_hands_ranges_to_survivors(self):
        cluster = StorageCluster(num_nodes=4, replication_factor=2)
        items = _fill(cluster, 400)
        cluster.decommission_node("node-1")
        assert cluster.node_names == ["node-0", "node-2", "node-3"]
        fetched = cluster.multi_get([key for key, _ in items])
        assert all(fetched[key] == value for key, value in items)
        # Every key is fully re-replicated on the survivors.
        for key, _value in items:
            replicas = cluster.healthy_replicas(key)
            assert len(replicas) == 2 and "node-1" not in replicas
            for name in replicas:
                assert cluster.node_store(name).get(key) is not None
        cluster.close()

    def test_decommission_with_rf1_moves_every_key_off_the_leaver(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=1)
        items = _fill(cluster, 300)
        held = len(cluster.node_store("node-2"))
        assert held > 0
        stats = cluster.decommission_node("node-2")
        assert stats["copied_keys"] == held  # sole copies all streamed out
        fetched = cluster.multi_get([key for key, _ in items])
        assert all(fetched[key] == value for key, value in items)
        cluster.close()

    def test_reads_correct_mid_handoff(self):
        """Probe reads *during* the handoff batches see every key."""
        items_holder: Dict[bytes, bytes] = {}
        probes: List[int] = []

        class ProbingCluster(StorageCluster):
            def _handoff_batch(self, batch, old_ring, old_rf):
                # Mid-rebalance: the batch's keys are not yet on their new
                # owners, yet cluster reads must already resolve them via
                # the old-ring fallback.
                sample = list(batch)[:5]
                fetched = self.multi_get(sample)
                for key in sample:
                    assert fetched[key] == items_holder[key], key
                probes.append(len(sample))
                return super()._handoff_batch(batch, old_ring, old_rf)

        cluster = ProbingCluster(num_nodes=3, replication_factor=1)
        items_holder.update(_fill(cluster, 300))
        cluster.add_node(handoff_batch_size=32)
        assert len(probes) >= 2  # the handoff really ran in several batches
        cluster.close()

    def test_writes_mid_handoff_not_clobbered_by_the_copy(self):
        """A fresh write landing mid-handoff survives the backfill copy."""
        overwritten: Dict[bytes, bytes] = {}

        class WritingCluster(StorageCluster):
            def _handoff_batch(self, batch, old_ring, old_rf):
                for key in list(batch)[:3]:
                    new_value = b"fresh/" + key
                    self.multi_put([(key, new_value)])
                    overwritten[key] = new_value
                return super()._handoff_batch(batch, old_ring, old_rf)

        cluster = WritingCluster(num_nodes=3, replication_factor=2)
        _fill(cluster, 200)
        cluster.add_node(handoff_batch_size=32)
        assert overwritten
        fetched = cluster.multi_get(list(overwritten))
        for key, value in overwritten.items():
            assert fetched[key] == value
        cluster.close()

    def test_post_handoff_overwrite_not_shadowed_by_mid_handoff_write(self):
        """A mid-handoff write re-lands on a cleaned old owner (union
        routing); the post-handoff sweep must re-clean it, or the next
        overwrite leaves that copy stale and the scan tie-break surfaces
        the old value."""
        mid_written: List[bytes] = []

        class WritingCluster(StorageCluster):
            def _handoff_batch(self, batch, old_ring, old_rf):
                result = super()._handoff_batch(batch, old_ring, old_rf)
                # After this batch's cleanup already ran: write its keys
                # again — the union walk re-creates copies on the losers.
                for key in list(batch)[:3]:
                    self.multi_put([(key, b"mid/" + key)])
                    mid_written.append(key)
                return result

        cluster = WritingCluster(num_nodes=3, replication_factor=2)
        _fill(cluster, 200)
        cluster.add_node(handoff_batch_size=32)
        assert mid_written
        final = {key: b"final/" + key for key in mid_written}
        cluster.multi_put(list(final.items()))
        merged = dict(cluster.scan_prefix(b""))
        fetched = cluster.multi_get(list(final))
        for key, value in final.items():
            assert merged[key] == value, key
            assert fetched[key] == value, key
        cluster.close()

    def test_sweep_honours_handoff_batch_size(self):
        """The post-handoff sweep batches at the caller's ``handoff_batch_size``."""
        sweep_batches: List[int] = []

        class SweepCountingCluster(StorageCluster):
            sweeping = False

            def _handoff_batch(self, batch, old_ring, old_rf):
                if self.sweeping:
                    sweep_batches.append(len(batch))
                result = super()._handoff_batch(batch, old_ring, old_rf)
                if not self.sweeping:
                    # Re-write the batch's keys after its cleanup: the union
                    # walk re-creates loser copies the sweep must re-clean.
                    self.multi_put([(key, b"mid/" + key) for key in batch])
                return result

            def _sweep_rebalance_writes(self, *args):
                self.sweeping = True
                try:
                    return super()._sweep_rebalance_writes(*args)
                finally:
                    self.sweeping = False

        cluster = SweepCountingCluster(num_nodes=3, replication_factor=2)
        _fill(cluster, 120)
        cluster.add_node(handoff_batch_size=1)
        moved = cluster.last_rebalance["moved_keys"]
        assert moved > 1
        assert sweep_batches == [1] * moved
        sweep_batches.clear()
        cluster.decommission_node("node-1", handoff_batch_size=1)
        assert len(sweep_batches) > 1 and set(sweep_batches) == {1}
        cluster.close()

    def test_delete_after_membership_change_not_resurrected_by_replay(self):
        """Hints must follow (or die with) their key's replica walk: a hint
        parked before an add_node would otherwise dodge the delete's
        tombstones and resurrect the key on mark_up."""
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.mark_down("node-0")
        items = _fill(cluster, 120)
        hinted = [key for key, _ in items if "node-0" in cluster._replica_walk(key)]
        assert hinted
        cluster.add_node()  # shifts replica walks while hints are parked
        deleted = hinted[:20]
        cluster.multi_delete(deleted)
        cluster.mark_up("node-0")
        fetched = cluster.multi_get(deleted)
        for key in deleted:
            assert fetched[key] is None, key
            assert cluster.node_store("node-0").get(key) is None, key
        # Surviving (undeleted) hinted keys still healed normally.
        assert cluster.repair_node("node-0") == 0
        cluster.close()

    def test_membership_validation(self):
        cluster = StorageCluster(num_nodes=2, replication_factor=2)
        with pytest.raises(ClusterMembershipError):
            cluster.add_node("node-0")  # duplicate
        with pytest.raises(ClusterMembershipError):
            cluster.add_node("bad/name")
        with pytest.raises(ClusterMembershipError):
            cluster.decommission_node("node-9")
        with pytest.raises(ValueError):
            cluster.add_node("fresh", handoff_batch_size=0)
        cluster.decommission_node("node-1")
        with pytest.raises(ClusterMembershipError):
            cluster.decommission_node("node-0")  # last node must stay
        cluster.close()

    def test_add_node_adopts_a_caller_store(self):
        cluster = StorageCluster(num_nodes=2, replication_factor=2)
        _fill(cluster, 100)
        adopted = MemoryStore()
        name = cluster.add_node(adopted)
        assert cluster.node_store(name) is adopted
        assert len(adopted) == cluster.last_rebalance["copied_keys"] > 0
        cluster.close()

    def test_add_node_raises_effective_rf_back_to_requested(self):
        cluster = StorageCluster(num_nodes=1, replication_factor=2)
        assert cluster.replication_factor == 1
        items = _fill(cluster, 120)
        cluster.add_node()
        assert cluster.replication_factor == 2
        # The handoff re-replicated the whole keyspace onto the new node.
        for key, value in items:
            holders = [
                name
                for name in cluster.node_names
                if cluster.node_store(name).get(key) is not None
            ]
            assert len(holders) == 2, key
        cluster.close()

    def test_rf8_write_reaches_eight_remote_nodes_at_once(self):
        nodes = [StorageNodeServer(_SlowPutStore()).start() for _ in range(8)]
        addresses = {f"node-{index}": node.address for index, node in enumerate(nodes)}
        cluster = StorageCluster(
            num_nodes=8,
            replication_factor=8,
            store_factory=lambda name: RemoteKeyValueStore(*addresses[name], timeout=10.0),
        )
        try:
            for name in cluster.node_names:
                cluster.node_store(name).connect()  # dial outside the timed write
            begin = time.monotonic()
            cluster.multi_put([(b"wide/1", b"v")])
            elapsed = time.monotonic() - begin
            assert all(node.store.get(b"wide/1") == b"v" for node in nodes)
            # Eight sequential node writes would take 8 × the delay.
            assert elapsed < 2 * _SLOW_PUT_S, elapsed
        finally:
            cluster.close()
            for node in nodes:
                node.stop()


# ---------------------------------------------------------------------------
# Hinted handoff
# ---------------------------------------------------------------------------


def _hints_for(cluster: StorageCluster, target: str) -> Dict[bytes, bytes]:
    parked: Dict[bytes, bytes] = {}
    prefix = _hint_prefix_for(target)
    for name in cluster.node_names:
        if name == target:
            continue
        parked.update(dict(cluster.node_store(name).scan_prefix(prefix)))
    return parked


class TestHintedHandoff:
    def test_write_during_outage_parks_hints_on_survivors(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.mark_down("node-1")
        items = _fill(cluster, 80)
        missed = [
            key for key, _ in items if "node-1" in cluster._replica_walk(key)
        ]
        parked = _hints_for(cluster, "node-1")
        assert len(parked) == len(missed) > 0
        # Hints never land on the downed target itself.
        assert all(key.startswith(HINT_PREFIX) for key in parked)
        assert len(cluster.node_store("node-1")) == 0
        cluster.close()

    def test_mark_up_replays_and_repair_heals_zero(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        _fill(cluster, 60, prefix="pre")
        cluster.mark_down("node-2")
        during = _fill(cluster, 60, prefix="during")
        replayed = cluster.mark_up("node-2")
        assert replayed > 0
        # The acceptance claim: hints healed everything, repair finds nothing.
        assert cluster.repair_node("node-2") == 0
        for key, value in during:
            if "node-2" in cluster.healthy_replicas(key):
                assert cluster.node_store("node-2").get(key) == value
        # Consumed hints are deleted everywhere.
        assert _hints_for(cluster, "node-2") == {}
        cluster.close()

    def test_mid_batch_failure_also_parks_hints(self):
        from test_storage_batch import FlakyStore

        stores: Dict[str, FlakyStore] = {}

        def factory(name: str) -> FlakyStore:
            stores[name] = FlakyStore()
            return stores[name]

        cluster = StorageCluster(num_nodes=3, replication_factor=2, store_factory=factory)
        stores["node-0"].failing = True
        _fill(cluster, 60)
        assert "node-0" in cluster._down
        assert _hints_for(cluster, "node-0")
        stores["node-0"].failing = False
        assert cluster.mark_up("node-0") > 0
        assert cluster.repair_node("node-0") == 0
        cluster.close()

    def test_hints_invisible_to_cluster_scans_and_sizes(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        items = _fill(cluster, 40)
        baseline_size = cluster.size_bytes()
        cluster.mark_down("node-1")
        more = _fill(cluster, 40, prefix="outage")
        # Hints exist physically ...
        assert _hints_for(cluster, "node-1")
        # ... but cluster-level scans, counts and sizes never surface them.
        merged = dict(cluster.scan_prefix(b""))
        assert set(merged) == {key for key, _ in items + more}
        assert cluster.count_prefix(b"hint/") == 0
        assert cluster.size_bytes() == baseline_size + sum(
            len(key) + len(value) for key, value in more
        )
        cluster.close()

    def test_reserved_prefix_rejected_for_user_writes(self):
        cluster = StorageCluster(num_nodes=2, replication_factor=2)
        with pytest.raises(ValueError, match="reserved"):
            cluster.put(b"hint/i-am-not-a-hint", b"v")
        with pytest.raises(ValueError, match="reserved"):
            cluster.multi_put([(b"ok", b"v"), (b"hint/x/y", b"v")])
        assert cluster.get(b"ok") is None  # the whole batch was rejected
        cluster.close()

    def test_delete_during_outage_drops_parked_hint(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.mark_down("node-1")
        items = _fill(cluster, 40)
        victim = next(
            key for key, _ in items if "node-1" in cluster._replica_walk(key)
        )
        assert cluster.delete(victim) is True
        # The tombstone also dropped the parked hint: replay cannot
        # resurrect the deleted key on the recovered node.
        cluster.mark_up("node-1")
        assert cluster.get(victim) is None
        assert cluster.node_store("node-1").get(victim) is None
        cluster.close()

    def test_disabled_hinted_handoff_keeps_repair_as_the_heal_path(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2, hinted_handoff=False)
        cluster.mark_down("node-2")
        _fill(cluster, 60)
        assert _hints_for(cluster, "node-2") == {}
        assert cluster.mark_up("node-2") == 0
        assert cluster.repair_node("node-2") > 0  # the backstop still works
        cluster.close()

    def test_decommission_reparks_hosted_hints_and_drops_targeted_ones(self):
        cluster = StorageCluster(num_nodes=4, replication_factor=2)
        _fill(cluster, 60)
        cluster.mark_down("node-1")
        during = _fill(cluster, 60, prefix="outage")
        hinted_before = _hints_for(cluster, "node-1")
        assert hinted_before
        # Decommission a *hint-hosting* survivor: its parked hints must be
        # re-parked on the remaining nodes, not lost with it.
        host = next(
            name
            for name in cluster.node_names
            if name != "node-1" and dict(cluster.node_store(name).scan_prefix(HINT_PREFIX))
        )
        cluster.decommission_node(host)
        assert len(_hints_for(cluster, "node-1")) == len(hinted_before)
        assert cluster.mark_up("node-1") == len(hinted_before)
        # The replay applied every parked hint; repair may still backfill
        # keys whose range shifted *onto* node-1 while it was down (the
        # decommission could not stream to a downed destination) — that is
        # exactly the backstop role repair keeps.
        cluster.repair_node("node-1")
        assert _hints_for(cluster, "node-1") == {}
        fetched = cluster.multi_get([key for key, _ in during])
        assert all(fetched[key] == value for key, value in during)
        # Decommission the *target* of hints instead: they become garbage
        # and are dropped cluster-wide.
        cluster.mark_down("node-2")
        _fill(cluster, 40, prefix="again")
        assert _hints_for(cluster, "node-2")
        cluster.decommission_node("node-2")
        for name in cluster.node_names:
            assert not dict(cluster.node_store(name).scan_prefix(_hint_prefix_for("node-2")))
        cluster.close()

    def test_hints_survive_restart_on_persistent_backend(self, tmp_path):
        def factory(name: str) -> AppendLogStore:
            return AppendLogStore(tmp_path / f"{name}.log")

        cluster = StorageCluster(num_nodes=3, replication_factor=2, store_factory=factory)
        cluster.mark_down("node-0")
        during = _fill(cluster, 50)
        cluster.close()  # every node process "stops"; hints are on disk

        reopened = StorageCluster(num_nodes=3, replication_factor=2, store_factory=factory)
        reopened.mark_down("node-0")  # still down across the restart
        assert reopened.mark_up("node-0") > 0  # hints replay from the log
        assert reopened.repair_node("node-0") == 0
        fetched = reopened.multi_get([key for key, _ in during])
        assert all(fetched[key] == value for key, value in during)
        reopened.close()


# ---------------------------------------------------------------------------
# Elasticity over real-socket remote nodes
# ---------------------------------------------------------------------------


class _ElasticHarness:
    """Storage-node TCP servers plus a cluster dialing them, growable."""

    def __init__(self, num_nodes: int = 3, replication_factor: int = 2) -> None:
        self.backing: Dict[str, MemoryStore] = {}
        self.servers: Dict[str, StorageNodeServer] = {}
        self.addresses: Dict[str, Tuple[str, int]] = {}
        for index in range(num_nodes):
            self._launch(f"node-{index}")
        self.cluster = StorageCluster(
            num_nodes=num_nodes,
            replication_factor=replication_factor,
            store_factory=lambda name: RemoteKeyValueStore(
                *self.addresses[name], timeout=5.0
            ),
        )

    def _launch(self, name: str) -> None:
        self.backing[name] = MemoryStore()
        server = StorageNodeServer(self.backing[name]).start()
        self.servers[name] = server
        self.addresses[name] = server.address

    def add_node(self, name: str, **kwargs) -> str:
        self._launch(name)
        return self.cluster.add_node(name, **kwargs)

    def decommission(self, name: str) -> None:
        self.cluster.decommission_node(name)
        self.servers.pop(name).stop()

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
def elastic():
    harness = _ElasticHarness()
    yield harness
    harness.close()


def _engine_workload(engine_a: ServerEngine, engine_b: ServerEngine, topology_hook) -> None:
    """Mirror one ingest/query/grant workload into both engines.

    ``topology_hook(phase)`` fires between ingest waves so membership
    changes interleave with live engine traffic on engine_a only.
    """
    from repro.util.timeutil import TimeRange

    owner = TimeCrypt(server=engine_a, owner_id="alice")
    config = StreamConfig(chunk_interval=1_000)
    uuid = owner.create_stream(metric="elastic", config=config, uuid="elastic-stream")
    engine_b.create_stream(owner._streams[uuid].metadata)
    writer = owner._streams[uuid].writer
    sink_a, batch_a = writer.sink, writer.batch_sink
    writer.sink = lambda chunk: (sink_a(chunk), engine_b.insert_chunk(chunk))[0]
    writer.batch_sink = lambda chunks: (batch_a(chunks), engine_b.insert_chunks(chunks))[0]

    owner.insert_records(uuid, [(t, float(t % 23)) for t in range(0, 8_000, 250)])
    owner.flush(uuid)
    topology_hook("after-first-wave")

    owner.insert_records(uuid, [(t, float(t % 23)) for t in range(8_000, 16_000, 250)])
    owner.flush(uuid)
    topology_hook("after-second-wave")

    bob = Principal.create("elastic-bob")
    owner.register_principal(bob)
    owner.grant_access(uuid, bob.principal_id, 0, 16_000)
    for sealed in engine_a.fetch_grants(uuid, bob.principal_id):
        engine_b.put_grant(uuid, bob.principal_id, sealed)

    for engine in (engine_a, engine_b):
        assert engine.stream_head(uuid) == 16
        engine.stat_range(uuid, TimeRange(0, 16_000))


class TestRemoteElasticity:
    def test_add_then_decommission_byte_identical_to_static_cluster(self, elastic):
        static = StorageCluster(num_nodes=3, replication_factor=2)
        engine_static = ServerEngine(store=static, token_store=TokenStore(static))
        engine_elastic = ServerEngine(
            store=elastic.cluster, token_store=TokenStore(elastic.cluster)
        )

        def topology_hook(phase: str) -> None:
            if phase == "after-first-wave":
                elastic.add_node("node-3", handoff_batch_size=64)
            elif phase == "after-second-wave":
                elastic.decommission("node-0")

        _engine_workload(engine_elastic, engine_static, topology_hook)
        assert elastic.cluster.node_names == ["node-1", "node-2", "node-3"]
        over_wire = list(elastic.cluster.scan_prefix(b""))
        local = list(static.scan_prefix(b""))
        assert local, "workload stored nothing"
        assert over_wire == local  # byte identity across the add/decommission cycle
        assert elastic.cluster.size_bytes() == static.size_bytes()
        static.close()

    def test_remote_add_node_moves_and_serves(self, elastic):
        items = _fill(elastic.cluster, 300)
        elastic.add_node("node-3")
        stats = elastic.cluster.last_rebalance
        assert stats["moved_keys"] > 0
        assert len(elastic.backing["node-3"]) == stats["copied_keys"] > 0
        fetched = elastic.cluster.multi_get([key for key, _ in items])
        assert all(fetched[key] == value for key, value in items)

    def test_remote_handoff_round_trips_bounded_per_batch(self, elastic):
        _fill(elastic.cluster, 400)
        elastic._launch("node-3")
        store = RemoteKeyValueStore(*elastic.addresses["node-3"], timeout=5.0)
        store.connect()
        store.wire_stats.reset()
        elastic.cluster.add_node("node-3", store=store, handoff_batch_size=64)
        stats = elastic.cluster.last_rebalance
        assert stats["handoff_batches"] >= 2
        # Per batch the destination sees one multi_get (what do you hold)
        # and one multi_put (the backfill) — the old owners absorb the value
        # reads — plus one scan page for the keyspace walk (the new node is
        # part of the merged scan, its keyspace is empty) and one for the
        # post-handoff hint-rebalance scan of its (empty) hint keyspace.
        assert store.wire_stats.round_trips <= 2 * stats["handoff_batches"] + 2

    def test_remote_hint_replay_over_sockets(self, elastic):
        _fill(elastic.cluster, 60, prefix="pre")
        elastic.kill("node-1")
        during = _fill(elastic.cluster, 60, prefix="during")
        assert "node-1" in elastic.cluster._down
        elastic.restart("node-1")
        assert elastic.cluster.mark_up("node-1") > 0
        assert elastic.cluster.repair_node("node-1") == 0
        fetched = elastic.cluster.multi_get([key for key, _ in during])
        assert all(fetched[key] == value for key, value in during)

    def test_decommission_while_one_node_down(self, elastic):
        items = _fill(elastic.cluster, 200)
        elastic.kill("node-2")
        # First write marks it down and parks hints; then node-0 leaves.
        more = _fill(elastic.cluster, 50, prefix="more")
        elastic.decommission("node-0")
        assert elastic.cluster.node_names == ["node-1", "node-2"]
        fetched = elastic.cluster.multi_get([key for key, _ in items + more])
        assert all(fetched[key] == value for key, value in items + more)
