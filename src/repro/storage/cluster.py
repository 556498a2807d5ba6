"""A replicated storage cluster built from per-node stores and the token ring.

This is the "distributed" half of the Cassandra substitution: a
:class:`StorageCluster` owns one :class:`~repro.storage.kv.KeyValueStore`
per node, writes every key to all replicas and reads from the first healthy
one.  It implements :class:`~repro.storage.kv.KeyValueStore` itself, so the
engine does not care whether it talks to one store or a cluster.  Nodes
come from ``store_factory``: in-process
:class:`~repro.storage.memory.MemoryStore` nodes, or
:class:`~repro.storage.remote.RemoteKeyValueStore` clients of
:class:`~repro.storage.node.StorageNodeServer` processes — then every
per-node batch below is one wire round trip, and socket failures surface as
:class:`~repro.exceptions.StorageError` into the same mark-down / re-route /
repair machinery.

**Placement is by partition, not by key** (see
:func:`~repro.storage.partitioner.partition_key`): one stream lives on
exactly RF nodes and its primary replica serves every read of it, so an
ingest batch is one ``multi_put`` on RF nodes and a cold node cover is one
node's round trip, at any stream age.  Routing below compares ring
replica sets key by key, so handoff, hints, ``repair_node`` and tombstones
move whole partitions.

Batch operations scatter-gather: ``multi_put``/``multi_get``/``multi_delete``
group the keys by replica and issue one batched call per healthy node,
**concurrently** through a shared :class:`~concurrent.futures.ThreadPoolExecutor`
eight wide (its threads start on demand, so a smaller cluster never runs
more than it fans out to); outcomes are applied in deterministic node
order, so failure handling behaves like a sequential loop.  A node
whose store raises mid-``multi_put``/``multi_get`` is marked down and its
share re-routed to the surviving replicas (``mark_up`` + ``repair_node``
heal it later); ``multi_delete`` propagates the lowest-named failing node's
error instead, because a missed tombstone cannot be repaired after the fact.

Two production behaviours of the real Cassandra tier ride on top:

* **Elastic membership** — :meth:`StorageCluster.add_node` and
  :meth:`StorageCluster.decommission_node` swap in a copied ring atomically
  and stream the moved partitions to their new owners in bounded batches
  (per batch: one ``multi_get`` asking each destination what it holds, one
  read from the *old* owners, one ``multi_put`` per destination).  Until
  the handoff completes every operation routes over the **union** of the
  old and new replica walks — reads fall back to the old owner, writes land
  on both, deletes tombstone both — so a read mid-handoff is always right.

* **Hinted handoff** — a write that misses a downed replica parks a *hint*
  (key and value under the reserved :data:`HINT_PREFIX` keyspace) on a
  surviving replica of the key's partition; :meth:`mark_up` replays it onto
  the recovered node, and :meth:`repair_node` is the backstop for cascaded
  failures.  Hints never appear in cluster scans, sizes or repairs, and a
  user key under ``hint/`` is rejected.
"""

from __future__ import annotations

import heapq
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import ClusterMembershipError, PartitionError, StorageError
from repro.obs.tracing import current_context, set_context
from repro.storage.kv import KeyValueStore
from repro.storage.memory import MemoryStore
from repro.storage.partitioner import ConsistentHashRing, partition_key
from repro.util.blocking import before_blocking

logger = logging.getLogger(__name__)

#: Exceptions treated as a node outage by the scatter-gather batch ops.
#: Deterministic caller errors (bad key/value types, logic bugs) propagate
#: unchanged instead of marking nodes down — a TypeError is not an outage.
_NODE_FAILURES = (OSError, StorageError)

#: Reserved keyspace for hinted handoff.  A hint for write ``key`` missed by
#: downed node ``target`` is stored as ``hint/<target>/<key>`` on a surviving
#: replica of ``key``.  User keys under this prefix are rejected, and cluster
#: scans / sizes / repair never surface it.
HINT_PREFIX = b"hint/"


def _hint_key(target: str, key: bytes) -> bytes:
    return HINT_PREFIX + target.encode("utf-8") + b"/" + key


def _hint_prefix_for(target: str) -> bytes:
    return HINT_PREFIX + target.encode("utf-8") + b"/"


def _parse_hint_key(hint_key: bytes) -> Tuple[Optional[str], bytes]:
    """``(target_node, original_key)`` for a hint key, ``(None, b"")`` if malformed."""
    body = hint_key[len(HINT_PREFIX):]
    separator = body.find(b"/")
    if separator < 1:
        return None, b""
    return body[:separator].decode("utf-8", "replace"), body[separator + 1:]


class _ReplayTargetDown(Exception):
    """Internal: the node being hint-replayed went down again mid-replay."""


class StorageCluster(KeyValueStore):
    """N-way replicated key-value store over multiple node-local stores."""

    def __init__(
        self,
        num_nodes: int = 3,
        replication_factor: int = 2,
        store_factory: Optional[Callable[[str], KeyValueStore]] = None,
        virtual_tokens: int = 64,
        hinted_handoff: bool = True,
    ) -> None:
        if num_nodes <= 0:
            raise ValueError("the cluster needs at least one node")
        if replication_factor <= 0:
            raise ValueError("replication_factor must be positive")
        self._requested_rf = replication_factor
        self._replication_factor = min(replication_factor, num_nodes)
        self._store_factory = store_factory or (lambda _name: MemoryStore())
        self._node_names = [f"node-{index}" for index in range(num_nodes)]
        self._stores: Dict[str, KeyValueStore] = {
            name: self._store_factory(name) for name in self._node_names
        }
        self._down: Set[str] = set()
        self._ring = ConsistentHashRing(self._node_names, virtual_tokens=virtual_tokens)
        #: ``(old_ring, old_rf)`` while a membership change streams its
        #: handoff; routing unions the old walk behind the new one so reads,
        #: writes, and deletes stay correct mid-rebalance.
        self._prev: Optional[Tuple[ConsistentHashRing, int]] = None
        #: Keys written while a handoff streams (union writes also land on
        #: range-losing old owners); the post-handoff sweep re-cleans them.
        self._rebalance_writes: Optional[Set[bytes]] = None
        self._hinted_handoff = hinted_handoff
        self._executor: Optional[ThreadPoolExecutor] = None
        self._executor_lock = threading.Lock()
        self._membership_lock = threading.RLock()
        #: Stats of the most recent ``add_node``/``decommission_node``
        #: (``action``, ``node``, ``moved_keys``, ``copied_keys``,
        #: ``handoff_batches``) — benchmarks and tests read it.
        self.last_rebalance: Optional[Dict[str, Any]] = None

    # -- cluster management ---------------------------------------------------

    @property
    def node_names(self) -> List[str]:
        return list(self._node_names)

    @property
    def replication_factor(self) -> int:
        return self._replication_factor

    def node_store(self, name: str) -> KeyValueStore:
        """Direct access to one node's local store (tests and inspection)."""
        return self._stores[name]

    def mark_down(self, name: str) -> None:
        """Simulate a node failure."""
        if name not in self._stores:
            raise ValueError(f"unknown node '{name}'")
        logger.warning("storage node '%s' marked down", name)
        self._down.add(name)

    def _mark_failed(self, name: str) -> None:
        """Record an observed node failure (tolerates a just-detached node)."""
        if name in self._stores:
            if name not in self._down:
                logger.warning("storage node '%s' failed; marking down", name)
            self._down.add(name)

    def mark_up(self, name: str) -> int:
        """Bring a failed node back and replay the hints parked for it.

        Returns the number of hinted writes applied.  With ``hinted_handoff``
        enabled, every surviving node is asked for the ``hint/<name>/...``
        keys it parked while ``name`` was down and the missed writes are
        applied straight to the recovered node in bounded batches — after
        which ``repair_node`` has nothing left to heal unless the hints
        themselves were lost to a cascaded failure.  The node may hold stale
        data for keys overwritten *before* it went down only if those writes
        predate the mark-down; hints cover exactly the down window.
        """
        if name not in self._stores:
            raise ValueError(f"unknown node '{name}'")
        self._down.discard(name)
        if not self._hinted_handoff:
            logger.info("storage node '%s' marked up (hinted handoff off)", name)
            return 0
        replayed = self._replay_hints(name)
        logger.info("storage node '%s' marked up; %d hinted write(s) replayed", name, replayed)
        return replayed

    def healthy_replicas(self, key: bytes) -> List[str]:
        return [
            node
            for node in self._replica_walk(key)
            if node not in self._down and node in self._stores
        ]

    def _replica_walk(self, key: bytes) -> List[str]:
        """Ordered replica candidates: new-ring walk, then old-ring extras.

        Outside a rebalance this is exactly the ring's replica set.  During
        one, the previous topology's replicas are appended (deduplicated)
        so a key whose range is mid-handoff still resolves to its old owner
        on reads, still receives writes at both owner sets, and still
        tombstones both on delete.
        """
        replicas = self._ring.replicas(key, self._replication_factor)
        prev = self._prev
        if prev is not None:
            old_ring, old_rf = prev
            for node in old_ring.replicas(key, old_rf):
                if node not in replicas:
                    replicas.append(node)
        return replicas

    def _group_by_replica(self, keys: Iterable[bytes]) -> Dict[str, List[bytes]]:
        """Scatter phase: keys grouped by every healthy replica that owns them.

        Raises :class:`~repro.exceptions.PartitionError` as soon as any key
        has no healthy replica, as every read and write does.
        """
        groups: Dict[str, List[bytes]] = {}
        # A replica walk hashes only the key's partition: one per partition.
        walks: Dict[bytes, List[str]] = {}
        for key in keys:
            partition = partition_key(key)
            replicas = walks.get(partition)
            if replicas is None:
                replicas = walks[partition] = self.healthy_replicas(key)
            if not replicas:
                raise PartitionError(f"no healthy replica for key {key!r}")
            for node in replicas:
                groups.setdefault(node, []).append(key)
        return groups

    # -- elastic membership ---------------------------------------------------

    def _next_node_name(self) -> str:
        index = len(self._node_names)
        while f"node-{index}" in self._stores:
            index += 1
        return f"node-{index}"

    def add_node(
        self,
        name_or_store: Any = None,
        store: Optional[KeyValueStore] = None,
        handoff_batch_size: int = 256,
    ) -> str:
        """Grow the cluster by one node, live, and stream its ranges to it.

        ``name_or_store`` may be a node name (its store then comes from the
        cluster's ``store_factory``), a :class:`KeyValueStore` to adopt
        under an auto-assigned name, or ``None`` for both defaults; pass
        ``store=`` explicitly to name an adopted store.  Returns the node
        name.

        The ring gains the node's virtual tokens atomically (a copied ring
        is swapped in), then the handoff streams the deduplicated keyspace
        in ``handoff_batch_size``-bounded batches, copying to the new node
        only the ~1/N of keys whose replica set now includes it — per
        batch: one ``multi_get`` asking the destination what it already
        holds, one batched read of the missing values from the old owners,
        one ``multi_put`` of the backfill.  Traffic keeps flowing the whole
        time: reads consult the old owner as a fallback until the handoff
        completes, and writes land on both owner sets, so nothing is lost
        whichever side of the handoff a key is on.
        """
        if isinstance(name_or_store, KeyValueStore) and store is None:
            name: Optional[str] = None
            store = name_or_store
        else:
            name = name_or_store
        if handoff_batch_size < 1:
            raise ValueError("handoff_batch_size must be positive")
        with self._membership_lock:
            if name is None:
                name = self._next_node_name()
            if not isinstance(name, str) or not name or "/" in name:
                raise ClusterMembershipError(
                    f"invalid node name {name!r} (must be a non-empty string without '/')"
                )
            if name in self._stores:
                raise ClusterMembershipError(f"node '{name}' already in the cluster")
            new_store = store if store is not None else self._store_factory(name)
            new_ring = self._ring.copy()
            new_ring.add_node(name)
            # Publish order matters: the store must exist before any thread
            # can route to it, so register it, then swap the ring in.
            self._stores[name] = new_store
            self._node_names.append(name)
            # repro: allow[REPRO004] membership changes are deliberately serialized: _membership_lock IS the rebalance critical section, and the fan-out pool it waits on never takes this lock (data ops read the published ring without it)
            self._change_membership("add", name, new_ring, len(self._node_names), handoff_batch_size)
        return name

    def decommission_node(self, name: str, handoff_batch_size: int = 256) -> Dict[str, Any]:
        """Remove a node, live, streaming its ranges to their new owners first.

        The ring loses the node's tokens atomically; the handoff then
        copies every key range the survivors *gain* (for RF>1 most moved
        keys already have surviving replicas, so only the under-replicated
        remainder actually transfers) with the same bounded-batch shape as
        :meth:`add_node`.  The leaving node keeps serving reads and taking
        writes (old-ring fallback) until the handoff completes, after which
        it is detached and its store closed — its on-disk contents are left
        intact, like a Cassandra decommission.  Hints *hosted on* the
        leaving node are re-parked on survivors; hints *targeted at* it are
        dropped.  A node that is marked down may also be decommissioned
        (RF>1 survivors supply the data); whatever only it held is lost, as
        with any dead node.  Returns the rebalance stats.
        """
        if handoff_batch_size < 1:
            raise ValueError("handoff_batch_size must be positive")
        with self._membership_lock:
            if name not in self._stores:
                raise ClusterMembershipError(f"unknown node '{name}'")
            if len(self._node_names) <= 1:
                raise ClusterMembershipError("cannot decommission the last node")
            new_ring = self._ring.copy()
            new_ring.remove_node(name)
            # After the handoff the leaving node is off every replica walk,
            # so the hint rebalance moves every hint it hosts onto the
            # survivors and can never place one back on it.
            # repro: allow[REPRO004] same serialized-rebalance design as add_node
            self._change_membership(
                "decommission", name, new_ring, len(self._node_names) - 1, handoff_batch_size
            )
            self._node_names.remove(name)
            leaving = self._stores.pop(name)
            self._down.discard(name)
            self._drop_hints_for(name)
            leaving.close()
            return dict(self.last_rebalance)

    def _change_membership(
        self, action: str, name: str, new_ring: ConsistentHashRing, nodes: int, batch_size: int
    ) -> None:
        """Swap ``new_ring`` in (over ``nodes`` members) and stream the handoff.

        Routing unions the old ring behind the new one until the handoff
        completes.  With the old ring retired, writes stop touching the
        losing old owners, so the copies that union writes re-created on
        them mid-handoff are swept, and hints whose host fell off its key's
        replica walk are re-parked — both would otherwise go stale.  Records
        the stats in :attr:`last_rebalance`.
        """
        old_ring, old_rf = self._ring, self._replication_factor
        self._rebalance_writes = set()
        self._prev = (old_ring, old_rf)
        self._ring = new_ring
        self._replication_factor = min(self._requested_rf, nodes)
        try:
            stats = self._stream_handoff(batch_size)
        finally:
            recorded, self._rebalance_writes = self._rebalance_writes, None
            self._prev = None
        self._sweep_rebalance_writes(recorded, old_ring, old_rf, batch_size)
        self._rebalance_hints()
        self.last_rebalance = {"action": action, "node": name, **stats}
        logger.info(
            "storage node '%s' %s handoff done: %d key(s) moved in %d batch(es)",
            name,
            action,
            stats["moved_keys"],
            stats["handoff_batches"],
        )

    def _moved_batches(
        self, keys: Iterable[bytes], old_ring: ConsistentHashRing, old_rf: int, batch_size: int
    ) -> Iterator[Dict[bytes, Tuple[List[str], List[str]]]]:
        """Bounded batches of ``key -> (gained, lost)`` for keys whose replicas moved."""
        new_ring, new_rf = self._ring, self._replication_factor
        batch: Dict[bytes, Tuple[List[str], List[str]]] = {}
        for key in keys:
            old_replicas = old_ring.replicas(key, old_rf)
            new_replicas = new_ring.replicas(key, new_rf)
            gained = [node for node in new_replicas if node not in old_replicas]
            lost = [node for node in old_replicas if node not in new_replicas]
            if not gained and not lost:
                continue
            batch[key] = (gained, lost)
            if len(batch) >= batch_size:
                yield batch
                batch = {}
        if batch:
            yield batch

    def _stream_handoff(self, batch_size: int) -> Dict[str, int]:
        """Stream every moved key range to its new owners in bounded batches.

        Walks the deduplicated merged keyspace once (O(batch) memory, the
        same k-way scan :meth:`repair_node` uses) and compares each key's
        old and new replica sets; keys that gained owners are batched and
        copied by :meth:`_handoff_batch`.
        """
        assert self._prev is not None
        old_ring, old_rf = self._prev
        moved_keys = copied_keys = handoff_batches = 0
        keys = (key for key, _size in self.scan_sizes(b""))
        for batch in self._moved_batches(keys, old_ring, old_rf, batch_size):
            moved_keys += len(batch)
            copied_keys += self._handoff_batch(batch, old_ring, old_rf)
            handoff_batches += 1
        return {
            "moved_keys": moved_keys,
            "copied_keys": copied_keys,
            "handoff_batches": handoff_batches,
        }

    def _handoff_batch(
        self,
        batch: Dict[bytes, Tuple[List[str], List[str]]],
        old_ring: ConsistentHashRing,
        old_rf: int,
    ) -> int:
        """Copy one bounded batch of moved keys to the nodes that gained them.

        Per destination: one ``multi_get`` (what does it already hold — a
        fresher write that landed mid-rebalance must never be clobbered by
        the handoff copy), then one batched value read from the *old*
        owners for the union of missing keys, then one ``multi_put`` per
        destination.  A destination that fails is marked down and skipped
        (``repair_node`` is its backstop).  Once every gaining replica of a
        key confirmed holding it, the key is *cleaned up* from the nodes
        that lost the range (Cassandra's post-bootstrap cleanup, folded
        into the handoff): without it the loser's copy would go stale on
        the next overwrite and the deterministic scan tie-break could
        surface the stale value.  A node leaving the ring is never cleaned
        — a decommissioned node keeps its data — and a downed loser's copy
        is unreachable anyway.
        """
        wanted: Dict[str, List[bytes]] = {}
        for key, (gained, _lost) in batch.items():
            for destination in gained:
                if destination not in self._down and destination in self._stores:
                    wanted.setdefault(destination, []).append(key)
        # Keys safe to clean from the losing nodes: every gaining replica
        # ended up holding them.  A key with a skipped (downed) destination
        # is not settled — the loser's copy may be the only one left.
        settled: Set[bytes] = {
            key
            for key, (gained, _lost) in batch.items()
            if all(node in wanted for node in gained)
        }
        copied: Set[bytes] = set()
        if wanted:
            held_by, failed = self._settle(self._fan_out("multi_get", wanted))
            for node in failed:
                settled.difference_update(wanted[node])
            missing: Dict[str, List[bytes]] = {}
            for node, held in held_by.items():
                gap = [key for key in wanted[node] if held.get(key) is None]
                if gap:
                    missing[node] = gap
            needed = {key for gap in missing.values() for key in gap}
            if needed:
                values = self._multi_get_over(
                    sorted(needed),
                    lambda key: old_ring.replicas(key, old_rf),
                    strict=False,
                )
                puts: Dict[str, List[Tuple[bytes, bytes]]] = {}
                for node, keys in missing.items():
                    items: List[Tuple[bytes, bytes]] = []
                    for key in keys:
                        value = values.get(key)
                        if value is None:
                            settled.discard(key)  # no old owner could serve it
                        else:
                            items.append((key, value))
                    if items:
                        puts[node] = items
                if puts:
                    done, failed = self._settle(self._fan_out("multi_put", puts))
                    for node in done:
                        copied.update(key for key, _value in puts[node])
                    for node in failed:
                        settled.difference_update(key for key, _value in puts[node])
        self._cleanup_lost(batch, settled)
        return len(copied)

    def _cleanup_lost(
        self, batch: Dict[bytes, Tuple[List[str], List[str]]], settled: Set[bytes]
    ) -> None:
        """Delete settled moved keys from the nodes that lost their range (a failed
        loser is marked down: its stale copy dies with the outage)."""
        still_in_ring = set(self._ring.nodes)
        removals: Dict[str, List[bytes]] = {}
        for key, (_gained, lost) in batch.items():
            if key not in settled:
                continue
            for node in lost:
                if node in still_in_ring and node not in self._down and node in self._stores:
                    removals.setdefault(node, []).append(key)
        if removals:
            self._settle(self._fan_out("multi_delete", removals))

    # -- hinted handoff -------------------------------------------------------

    def _park_hints(self, hints: Dict[Tuple[str, bytes], bytes]) -> None:
        """Park ``(target, key) -> value`` hints on surviving replicas.

        Each hint is written to the first healthy replica of its *original*
        key's partition (never the downed target), so the hint sits next to live
        data the recovered node will be read-repaired against and survives
        restarts on persistent backends.  A host failing mid-park is marked
        down and the hint re-picks the next survivor; a hint with no
        surviving host is dropped — ``repair_node`` remains the backstop.
        """
        pending = dict(hints)
        while pending:
            by_host: Dict[str, List[Tuple[Tuple[str, bytes], bytes]]] = {}
            unplaceable: List[Tuple[str, bytes]] = []
            for (target, key), value in pending.items():
                hosts = [node for node in self.healthy_replicas(key) if node != target]
                if not hosts:
                    unplaceable.append((target, key))
                    continue
                by_host.setdefault(hosts[0], []).append(((target, key), value))
            if unplaceable:
                logger.warning(
                    "dropping %d hint(s) with no surviving host (repair_node is the backstop)",
                    len(unplaceable),
                )
            for entry in unplaceable:
                pending.pop(entry)
            if by_host:
                logger.info(
                    "parking %d hinted write(s) on %d surviving host(s)",
                    sum(len(entries) for entries in by_host.values()),
                    len(by_host),
                )
            if not by_host:
                return
            outcomes = self._fan_out(
                "multi_put",
                {
                    host: [(_hint_key(target, key), value) for (target, key), value in entries]
                    for host, entries in by_host.items()
                },
            )
            progressed = False
            for host in sorted(by_host):
                _result, error = outcomes[host]
                if error is None:
                    for entry, _value in by_host[host]:
                        pending.pop(entry, None)
                    progressed = True
                elif isinstance(error, _NODE_FAILURES):
                    self._mark_failed(host)  # the retry loop re-picks hosts
                    progressed = True
                else:
                    # Deterministic error: drop rather than loop forever.
                    for entry, _value in by_host[host]:
                        pending.pop(entry, None)
            if not progressed:
                return

    def _replay_hints(self, name: str, batch_size: int = 256) -> int:
        """Apply every hint parked for ``name`` and delete the consumed hints.

        Scans each surviving node's local store for ``hint/<name>/...``
        (hints are host-placed, so no ring math applies) and applies the
        missed writes in bounded batches.  If the recovered node fails
        again mid-replay it is re-marked down and the unapplied hints stay
        parked for the next :meth:`mark_up`.
        """
        prefix = _hint_prefix_for(name)
        replayed = 0
        for host, store in self._live_stores():
            if host == name:
                continue
            try:
                batch: List[Tuple[bytes, bytes]] = []
                for hint_key, value in store.scan_prefix(prefix):
                    batch.append((hint_key, value))
                    if len(batch) >= batch_size:
                        replayed += self._apply_hints(name, store, batch)
                        batch = []
                if batch:
                    replayed += self._apply_hints(name, store, batch)
            except _ReplayTargetDown:
                return replayed
            except PartitionError:
                raise
            except _NODE_FAILURES:
                self._mark_failed(host)  # host died mid-scan; its hints stay parked
        return replayed

    def _apply_hints(
        self, name: str, host_store: KeyValueStore, batch: List[Tuple[bytes, bytes]]
    ) -> int:
        """Apply one batch of hints to the recovered node, then consume them."""
        direct: List[Tuple[bytes, bytes]] = []
        rerouted: Dict[bytes, bytes] = {}
        for hint_key, value in batch:
            key = hint_key[len(_hint_prefix_for(name)):]
            if name in self._replica_walk(key):
                direct.append((key, value))
            else:
                # Membership changed while the node was down: the range
                # moved away from it, so route the write normally instead.
                rerouted[key] = value
        target_store = self._stores.get(name)
        if direct and target_store is not None:
            try:
                target_store.multi_put(direct)
            except PartitionError:
                raise
            except _NODE_FAILURES as exc:
                self._mark_failed(name)
                raise _ReplayTargetDown() from exc
        if rerouted:
            self._multi_put_core(rerouted)
        host_store.multi_delete([hint_key for hint_key, _value in batch])
        return len(batch)

    def _rebalance_hints(self) -> None:
        """Re-park hints whose host is no longer a replica of their key.

        Hints are host-placed on a replica of the original key, and
        :meth:`multi_delete` relies on that invariant to tombstone them:
        after a membership change shifts a key's replica walk, a hint
        stranded on an ex-replica would dodge those tombstones and a later
        replay could resurrect a deleted key.  So every topology change
        ends by walking each healthy node's (normally tiny) hint keyspace
        and moving mis-hosted hints onto a current replica; hints whose
        target no longer exists are dropped.  Hints sitting on a *downed*
        host cannot be moved (or tombstoned) until it returns — the one
        resurrection window left, closed for good only by per-write
        versions (see ROADMAP).
        """
        if not self._hinted_handoff:
            return
        for host, store in self._live_stores():
            moved: Dict[Tuple[str, bytes], bytes] = {}
            stale: List[bytes] = []
            try:
                for hint_key, value in store.scan_prefix(HINT_PREFIX):
                    target, key = _parse_hint_key(hint_key)
                    if target is None or target not in self._stores:
                        stale.append(hint_key)  # malformed or target gone
                        continue
                    walk = self._replica_walk(key)
                    if target not in walk:
                        # The key's range moved off the target: the current
                        # owners already hold its latest value (the handoff
                        # streamed it), so the hint is obsolete — and
                        # replaying it would redeliver a write the key may
                        # since have had deleted.
                        stale.append(hint_key)
                        continue
                    hosts = [
                        node
                        for node in walk
                        if node != target and node not in self._down and node in self._stores
                    ]
                    if host in hosts:
                        continue  # still correctly placed
                    moved[(target, key)] = value
                    stale.append(hint_key)
                if moved:
                    self._park_hints(moved)
                if stale:
                    store.multi_delete(stale)
            except _NODE_FAILURES:
                self._mark_failed(host)

    def _sweep_rebalance_writes(
        self, recorded: Optional[Set[bytes]], old_ring: ConsistentHashRing, old_rf: int, batch_size: int
    ) -> None:
        """Re-clean keys written mid-handoff from the range-losing old owners.

        While a handoff streams, writes land on the union of old and new
        owners — including old owners whose handoff batch (and its cleanup)
        already passed.  Those copies would go permanently stale on the
        next post-handoff overwrite and the scan tie-break could surface
        them, so after the old ring retires the recorded write set is
        pushed back through :meth:`_handoff_batch`: the held-check confirms
        the new owners have each key (copying it if a destination outage
        left a gap) and the cleanup drops the loser copies.  Memory is
        bounded by the writes issued during the handoff window, not the
        keyspace.
        """
        if not recorded:
            return
        user_keys = sorted(key for key in recorded if not key.startswith(HINT_PREFIX))
        for batch in self._moved_batches(user_keys, old_ring, old_rf, batch_size):
            self._handoff_batch(batch, old_ring, old_rf)

    def _drop_hints_for(self, name: str) -> None:
        """Delete hints targeted at a node that no longer exists."""
        prefix = _hint_prefix_for(name)
        for host, store in self._live_stores():
            try:
                stale = [key for key, _size in store.scan_sizes(prefix)]
                if stale:
                    store.multi_delete(stale)
            except _NODE_FAILURES:
                self._mark_failed(host)

    def _live_stores(self) -> Iterator[Tuple[str, KeyValueStore]]:
        """``(name, store)`` of each healthy attached node, in construction order.

        Lazy, so a node marked down while an earlier one is walked is skipped.
        """
        for name in list(self._node_names):
            store = self._stores.get(name)
            if store is not None and name not in self._down:
                yield name, store

    # -- concurrent per-node fan-out -----------------------------------------------

    def _pool(self) -> ThreadPoolExecutor:
        """The shared fan-out executor, created on the first multi-node batch."""
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=8, thread_name_prefix="tc-cluster")
            return self._executor

    def _fan_out(
        self, op: str, args_by_node: Dict[str, Any]
    ) -> Dict[str, Tuple[Any, Optional[BaseException]]]:
        """Call ``store.<op>(args)`` on each node concurrently; gather ``(result, error)``.

        Nothing is raised and no cluster state is mutated here — callers
        settle the outcomes in sorted node order, so mark-downs and error
        propagation stay deterministic however the threads interleave.  A
        single-node batch runs inline (no pool hop for the common
        replication-factor-1 corner and tiny clusters).
        """
        calls = {
            node: (getattr(self._stores[node], op), args) for node, args in args_by_node.items()
        }
        outcomes: Dict[str, Tuple[Any, Optional[BaseException]]] = {}
        if len(calls) <= 1:
            for node, (method, args) in calls.items():
                try:
                    outcomes[node] = (method(args), None)
                except Exception as exc:
                    outcomes[node] = (None, exc)
            return outcomes
        # Pool threads have no trace context of their own; re-install the
        # submitting thread's so remote-node spans join the request's tree.
        parent = current_context()

        def traced(method: Callable[[Any], Any], args: Any) -> Any:
            previous = set_context(parent)
            try:
                return method(args)
            finally:
                set_context(previous)

        pool = self._pool()
        futures = {node: pool.submit(traced, *call) for node, call in calls.items()}
        before_blocking()
        for node, future in futures.items():
            try:
                outcomes[node] = (future.result(), None)
            except Exception as exc:
                outcomes[node] = (None, exc)
        return outcomes

    def _settle(
        self, outcomes: Dict[str, Tuple[Any, Optional[BaseException]]]
    ) -> Tuple[Dict[str, Any], List[str]]:
        """Apply the outage policy to fan-out outcomes: ``(done, failed)``.

        In sorted node order: a :data:`_NODE_FAILURES` error marks its node
        down and lists it in ``failed``; :class:`PartitionError` and
        deterministic caller errors propagate.  ``done`` maps each node that
        answered to its result.
        """
        done: Dict[str, Any] = {}
        failed: List[str] = []
        for node in sorted(outcomes):
            result, error = outcomes[node]
            if error is None:
                done[node] = result
            elif isinstance(error, _NODE_FAILURES) and not isinstance(error, PartitionError):
                self._mark_failed(node)
                failed.append(node)
            else:
                raise error
        return done, failed

    def _fan_out_all(self, op: str, args_by_node: Dict[str, Any]) -> List[Any]:
        """The loud fan-out of the erasing ops: every node must answer.

        A missed tombstone cannot be repaired, so any error propagates —
        the lowest-named failing node's, whatever the thread timing — and
        no node is marked down.  Returns the results in node order.
        """
        outcomes = self._fan_out(op, args_by_node)
        results = []
        for node in sorted(outcomes):
            result, error = outcomes[node]
            if error is not None:
                raise error
            results.append(result)
        return results

    # -- batch primitives (scatter-gather) ----------------------------------------
    #
    # A one-key get/put/delete is a batch of one (KeyValueStore): it gets
    # the same replica routing, mark-down on node failure, re-route to
    # survivors and PartitionError semantics — a dead remote node degrades
    # a point read to its next replica instead of failing the call.

    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        """Group the write set by owning replica; one ``multi_put`` per node.

        A node whose store raises is marked down; keys that reached no
        replica at all are re-routed to the survivors (the ring re-grouping
        excludes downed nodes).  Keys the downed replica missed — whether it
        was already down or failed mid-batch — get a *hint* parked on a
        surviving replica, replayed by :meth:`mark_up`; ``repair_node``
        remains the backstop when the hints themselves are lost.
        """
        pending: Dict[bytes, bytes] = {key: value for key, value in items}
        for key in pending:
            if key.startswith(HINT_PREFIX):
                raise ValueError(
                    f"key {key!r} is in the reserved hinted-handoff keyspace {HINT_PREFIX!r}"
                )
        self._multi_put_core(pending)

    def _multi_put_core(self, pending: Dict[bytes, bytes]) -> None:
        """The replicated write loop (assumes reserved-prefix validation done)."""
        recorded = self._rebalance_writes
        if recorded is not None:
            # A membership change is streaming its handoff: remember the
            # write set so the post-handoff sweep can clean the copies this
            # write leaves on range-losing old owners (see add_node).
            recorded.update(pending)
        hints: Dict[Tuple[str, bytes], bytes] = {}
        while pending:
            if self._hinted_handoff and self._down:
                # Replicas that are *already* marked down miss this write
                # entirely (grouping skips them): park a hint per miss.
                # Guarded on the down-set — with every node healthy this
                # pre-pass can never produce a hint, so the steady-state
                # write path skips the second ring walk per key.
                for key, value in pending.items():
                    if key.startswith(HINT_PREFIX):
                        continue
                    for node in self._replica_walk(key):
                        if node in self._down:
                            hints[(node, key)] = value
            groups = self._group_by_replica(pending)
            done, failed = self._settle(
                self._fan_out(
                    "multi_put",
                    {node: [(key, pending[key]) for key in keys] for node, keys in groups.items()},
                )
            )
            acked: Set[bytes] = set()
            for node in done:
                acked.update(groups[node])
            if self._hinted_handoff:
                # A node that failed mid-batch missed every key routed to it
                # this round.
                for node in failed:
                    for key in groups[node]:
                        if not key.startswith(HINT_PREFIX):
                            hints[(node, key)] = pending[key]
            if not failed:
                break
            pending = {key: value for key, value in pending.items() if key not in acked}
        if hints:
            self._park_hints(hints)

    def multi_get(self, keys: Iterable[bytes]) -> Dict[bytes, Optional[bytes]]:
        """Group reads by first healthy replica; one ``multi_get`` per node.

        A healthy partition's keys all go to its primary.  Keys a node
        reports missing fall back to their next replica (batched with that
        node's other keys on the following round); a node that raises is
        marked down and its keys are re-routed.  A key resolves to
        ``None`` only once every healthy replica has denied it, and raises
        :class:`~repro.exceptions.PartitionError` when no healthy replica
        remains.  During a rebalance the fallback chain extends through the
        previous topology's owners, so a key whose range is still
        mid-handoff reads from where it lives.
        """
        return self._multi_get_over(list(keys), self._replica_walk, strict=True)

    def _multi_get_over(
        self,
        materialized: List[bytes],
        candidates_of: Callable[[bytes], List[str]],
        strict: bool,
    ) -> Dict[bytes, Optional[bytes]]:
        """The batched read loop over an arbitrary replica-candidate walk.

        ``candidates_of`` returns the ordered, *unfiltered* candidate list
        for a key; downed and detached nodes are filtered each round (so
        mid-loop mark-downs re-route).  ``strict`` raises
        :class:`PartitionError` when a key has no healthy candidate (the
        public read contract); the handoff's old-owner reads pass ``False``
        and let such keys resolve to ``None`` instead of failing the
        whole membership change.
        """
        result: Dict[bytes, Optional[bytes]] = {key: None for key in materialized}
        tried: Dict[bytes, Set[str]] = {key: set() for key in result}
        unresolved: Set[bytes] = set(result)
        while unresolved:
            groups: Dict[str, List[bytes]] = {}
            # Candidates depend on the key's partition only (both walks hash
            # it), and nothing is marked down while a round groups its keys.
            walks: Dict[bytes, List[str]] = {}
            for key in list(unresolved):
                partition = partition_key(key)
                replicas = walks.get(partition)
                if replicas is None:
                    replicas = walks[partition] = [
                        node
                        for node in candidates_of(key)
                        if node not in self._down and node in self._stores
                    ]
                if not replicas:
                    if strict:
                        raise PartitionError(f"no healthy replica for key {key!r}")
                    unresolved.discard(key)
                    continue
                untried = [node for node in replicas if node not in tried[key]]
                if not untried:
                    unresolved.discard(key)  # absent on every healthy replica
                    continue
                groups.setdefault(untried[0], []).append(key)
            found_by, _failed = self._settle(self._fan_out("multi_get", groups))
            for node, found in found_by.items():
                for key in groups[node]:
                    tried[key].add(node)
                    value = found.get(key)
                    if value is not None:
                        result[key] = value
                        unresolved.discard(key)
        return result

    def multi_delete(self, keys: Iterable[bytes]) -> Set[bytes]:
        """Group deletes by owning replica; one ``multi_delete`` per node.

        Unlike ``multi_put``, a node failure here propagates to the caller:
        the mark-down/repair machinery can backfill a missed *write*, but it
        cannot propagate a missed tombstone — ``repair_node`` would
        resurrect the key instead.  The caller must know the delete did not
        fully land so it can retry.  With the concurrent fan-out several
        nodes may fail in one batch; the lowest-named node's error is the
        one raised, so the surfaced failure does not depend on thread
        timing.  During a rebalance the tombstone lands on both the old and
        new owner sets, so the old-ring read fallback cannot resurrect a
        deleted key.  Hints parked for the deleted keys (a downed replica
        missed an earlier write) are dropped in the same per-node batches,
        so a later hint replay cannot resurrect the value either.
        """
        materialized = set(keys)
        if not materialized:
            return set()
        groups = self._group_by_replica(materialized)
        if self._hinted_handoff and self._down:
            # A hint for (down_target, key) may sit on any healthy replica
            # of key; tombstone the candidate hint keys alongside the data.
            for key in materialized:
                walk = self._replica_walk(key)
                stale = [_hint_key(target, key) for target in walk if target in self._down]
                if stale:
                    for node in walk:
                        if node in groups:
                            groups[node].extend(stale)
        existed: Set[bytes] = set()
        for deleted in self._fan_out_all("multi_delete", groups):
            existed.update(key for key in deleted if key in materialized)
        return existed

    def scan_prefix(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Merge interval scans across nodes, deduplicating replicated keys.

        A streaming k-way heap merge over the per-node sorted scans (each
        node applies ``[lo, hi]`` itself — remote nodes server-side):
        duplicates of a replicated key arrive adjacently, so dedup remembers
        only the last yielded key — O(1) memory, which lets
        :meth:`repair_node` and :meth:`size_bytes` walk a big remote cluster.
        Hint keys are never surfaced.  A replica disagreement (a stale copy
        after a partial failure) resolves to the *earliest node in cluster
        construction order*, unlike ``get``, which reads in ring order — the
        two may differ until ``repair_node`` or an overwrite reconverges them.
        """
        return self._merged_scan("scan_prefix", prefix, lo, hi)

    def scan_sizes(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, int]]:
        """The keys-and-lengths merge: over remote nodes this pulls keys-only
        pages, so membership walks and sizing never drag a value across the
        wire just to discard it."""
        return self._merged_scan("scan_sizes", prefix, lo, hi)

    def delete_prefixes(self, prefixes: Iterable[bytes]) -> int:
        """Erase whole keyspaces: one ``delete_prefixes`` per healthy node.

        The bulk-erase analogue of :meth:`multi_delete`, with the same
        loud-failure contract (a missed tombstone cannot be repaired, so a
        node error propagates — lowest-named node first — instead of a
        mark-down).  Every healthy node is asked, not just the current
        owners: replication, rings retired by membership changes, and
        not-yet-swept rebalance copies mean matching keys may sit anywhere.
        Hints parked for keys under the prefixes are erased alongside the
        data (the same ``hint/<target>/<key>`` tombstoning ``multi_delete``
        does, expressed as one hint-prefix per known node), so a later
        replay cannot resurrect erased keys.  Hints parked *on* a downed
        node remain the known resurrection window, exactly as for
        ``multi_delete``.  Returns the summed per-node physical deletion
        count (replica copies counted once per node holding them).
        """
        materialized = [bytes(prefix) for prefix in prefixes]
        if not materialized:
            return 0
        for prefix in materialized:
            if not prefix:
                raise ValueError("refusing to delete-prefix the entire keyspace")
            if prefix.startswith(HINT_PREFIX) or HINT_PREFIX.startswith(prefix):
                raise ValueError(
                    f"prefix {prefix!r} overlaps the reserved hinted-handoff keyspace {HINT_PREFIX!r}"
                )
        expanded = list(materialized)
        if self._hinted_handoff:
            expanded.extend(
                _hint_prefix_for(target) + prefix
                for target in self._node_names
                for prefix in materialized
            )
        targets = {name: expanded for name, _store in self._live_stores()}
        if not targets:
            raise PartitionError("no healthy node to delete from")
        return sum(int(count) for count in self._fan_out_all("delete_prefixes", targets))

    def _merged_scan(
        self, method: str, prefix: bytes, lo: bytes, hi: Optional[bytes]
    ) -> Iterator[Tuple[bytes, Any]]:
        """Deduplicated merge of each healthy node's ``store.<method>(prefix, lo, hi)``.

        Each node's iterator is guarded with the same policy as the batch
        ops: a node that raises a :data:`_NODE_FAILURES` error mid-scan is
        marked down and simply stops contributing — the surviving replicas
        in the same merge cover its replicated keys, so ``size_bytes`` /
        ``repair_node`` keep working through a node outage rather than
        failing wholesale.  Like the batch ops, total loss is loud: if no
        healthy node exists up front, or *every* node scanned fails before
        the merge finishes, :class:`~repro.exceptions.PartitionError` is
        raised instead of quietly presenting an empty or truncated keyspace
        (a caller like engine recovery must not mistake a dead cluster for
        an empty one).  Keys whose entire replica set fails while other
        nodes survive are the one case that still slips through silently —
        the merge cannot know about keys it never saw.  Parked hint keys
        (the reserved :data:`HINT_PREFIX` keyspace) are filtered out: they
        are host-placed bookkeeping, not cluster data.  Deterministic
        caller errors propagate unchanged.
        """
        live = list(self._live_stores())
        if not live:
            raise PartitionError("no healthy node to scan")
        failed: List[str] = []

        def guarded(name: str, store: KeyValueStore) -> Iterator:
            try:
                yield from getattr(store, method)(prefix, lo, hi)
            except PartitionError:
                raise
            except _NODE_FAILURES:
                self._mark_failed(name)
                failed.append(name)

        # heapq.merge is stable: of equal keys the earliest node's comes
        # first, and remembering only the last yielded key drops the rest.
        last_key: Optional[bytes] = None
        for item in heapq.merge(
            *(guarded(name, store) for name, store in live), key=itemgetter(0)
        ):
            key = item[0]
            if key == last_key or key.startswith(HINT_PREFIX):
                continue
            last_key = key
            yield item
        if len(failed) == len(live):
            raise PartitionError("every node failed mid-scan; the merged result is incomplete")

    def physical_size_bytes(self) -> int:
        """Raw size including replication overhead (and any parked hints)."""
        return sum(store.size_bytes() for store in self._stores.values())

    def repair_node(self, name: str, batch_size: int = 256) -> int:
        """Copy any keys a recovered node is missing from its peers; returns count.

        Streams the deduplicated *key* space (no values — see
        :meth:`scan_sizes`) and works in bounded batches: for every
        ``batch_size`` keys the ring assigns to the recovering node, one
        ``multi_get`` asks the node what it already holds, and only the
        confirmed-missing keys have their values fetched from the healthy
        replicas (one batched ``multi_get``) and backfilled (one
        ``multi_put``).  Repair traffic is therefore proportional to what
        the node actually lost, with O(batch) memory — not a full keyspace
        materialization or a value copy of everything it already holds.
        The node may still be marked down while it is repaired (its store
        just has to be reachable); mark it up before or after, reads only
        return to it once it is both up and healed.  With hinted handoff
        on, :meth:`mark_up` replays the down-window writes first, so this
        is the backstop for lost hints and cold disks, not the routine
        heal path.
        """
        if name not in self._stores:
            raise ValueError(f"unknown node '{name}'")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        target = self._stores[name]

        def backfill(batch: List[bytes]) -> int:
            held = target.multi_get(batch)
            missing = [key for key in batch if held.get(key) is None]
            if not missing:
                return 0
            values = self.multi_get(missing)
            recovered = [(key, values[key]) for key in missing if values[key] is not None]
            if recovered:
                target.multi_put(recovered)
            return len(recovered)

        repaired = 0
        batch: List[bytes] = []
        for key, _size in self.scan_sizes(b""):
            if name not in self._ring.replicas(key, self._replication_factor):
                continue
            batch.append(key)
            if len(batch) >= batch_size:
                repaired += backfill(batch)
                batch = []
        if batch:
            repaired += backfill(batch)
        return repaired

    def close(self) -> None:
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            # Drain outside the lock: waiting on in-flight fan-out futures
            # while holding _executor_lock would deadlock any worker that
            # needs _pool() (and wedges concurrent close() callers).
            executor.shutdown(wait=True)
        for store in self._stores.values():
            store.close()
