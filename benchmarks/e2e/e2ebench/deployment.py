"""The four-tier deployment, in one process over real loopback sockets.

    TimeCrypt / TimeCryptConsumer
      -> one ShardedServerClient               (client tier, shared by threads)
      -> StreamRouter + 2 EngineShardServers   (engine tier)
      -> per engine: RF=2 StorageCluster of 3 RemoteKeyValueStores
      -> 3 StorageNodeServers over MemoryStores (storage tier)

Every hop between tiers is a TCP connection on 127.0.0.1.  With a
:class:`~e2ebench.spans.SpanLog` the same topology is built from the
span-recording proxies instead of the plain classes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.access.keystore import TokenStore
from repro.net.client import ShardedServerClient
from repro.net.messages import ShardRoutingTable
from repro.obs.metrics import REGISTRY
from repro.server.engine import ServerEngine
from repro.server.router import deploy_sharded_engines
from repro.storage.cluster import HINT_PREFIX, StorageCluster
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore

from e2ebench.proxies import (
    TracedClient,
    TracedCluster,
    TracedEngine,
    TracedMemoryStore,
    TracedRemoteStore,
)
from e2ebench.spans import SpanLog

NUM_NODES = 3
REPLICATION_FACTOR = 2
ENGINE_NAMES = ("engine-0", "engine-1")
SOCKET_TIMEOUT_S = 30.0


def registry_total(prefix: str, field_name: str) -> int:
    """Sum one counter over every registered stats struct whose key starts with ``prefix``."""
    return sum(
        int(values.get(field_name, 0))
        for key, values in REGISTRY.snapshot().items()
        if key.startswith(prefix)
    )


def shard_owner(stream_uuid: str) -> str:
    """Which engine shard owns a stream (depends on uuid and shard names only)."""
    table = ShardRoutingTable([(name, "127.0.0.1", 1) for name in ENGINE_NAMES], epoch=1)
    return table.owner_of(stream_uuid)


class Deployment:
    """Brings the whole stack up; :meth:`close` tears all of it down."""

    def __init__(self, index_cache_bytes: int, log: Optional[SpanLog] = None) -> None:
        self.log = log
        self.node_stores: Dict[str, MemoryStore] = {}
        self.node_servers: Dict[str, StorageNodeServer] = {}
        self.clusters: List[StorageCluster] = []
        self.engines: Dict[str, ServerEngine] = {}
        self.router: Any = None
        self.shards: Dict[str, Any] = {}
        self.raw_client: Optional[ShardedServerClient] = None
        #: The ``server=`` handle for TimeCrypt / TimeCryptConsumer.
        self.client: Any = None
        try:
            self._bring_up(index_cache_bytes)
        except BaseException:
            self.close()
            raise

    def _traced(self, instance: Any, tag: Optional[str] = None) -> Any:
        instance.span_log = self.log
        instance.span_tag = tag
        return instance

    def _bring_up(self, index_cache_bytes: int) -> None:
        traced = self.log is not None
        for index in range(NUM_NODES):
            name = f"node-{index}"
            store = self._traced(TracedMemoryStore(), name) if traced else MemoryStore()
            self.node_stores[name] = store
            self.node_servers[name] = StorageNodeServer(store, node_name=name).start()

        def dial(name: str) -> RemoteKeyValueStore:
            host, port = self.node_servers[name].address
            if traced:
                return self._traced(
                    TracedRemoteStore(host, port, timeout=SOCKET_TIMEOUT_S, tracing=True), name
                )
            return RemoteKeyValueStore(host, port, timeout=SOCKET_TIMEOUT_S)

        for engine_name in ENGINE_NAMES:
            cluster_class = TracedCluster if traced else StorageCluster
            cluster = cluster_class(
                num_nodes=NUM_NODES, replication_factor=REPLICATION_FACTOR, store_factory=dial
            )
            if traced:
                self._traced(cluster)
            self.clusters.append(cluster)
            engine_class = TracedEngine if traced else ServerEngine
            engine = engine_class(
                store=cluster,
                token_store=TokenStore(store=cluster),
                index_cache_bytes=index_cache_bytes,
            )
            if traced:
                self._traced(engine)
            self.engines[engine_name] = engine
        self.router, self.shards = deploy_sharded_engines(self.engines, timeout=SOCKET_TIMEOUT_S)
        host, port = self.router.address
        # In-program tracing rides along only on the traced run: it is what
        # puts the scheduler's queue wait into the server spans.
        self.raw_client = ShardedServerClient(
            host, port, timeout=SOCKET_TIMEOUT_S, tracing=traced
        )
        self.client = TracedClient(self.raw_client, self.log) if traced else self.raw_client

    def close(self) -> None:
        """Client, router, shards, engines, clusters, nodes — in that order."""
        if self.raw_client is not None:
            self.raw_client.close()
            self.raw_client = None
        if self.router is not None:
            self.router.stop()
            self.router = None
        for shard in self.shards.values():
            shard.stop()
        self.shards = {}
        for engine in self.engines.values():
            engine.close()
        self.engines = {}
        for cluster in self.clusters:
            cluster.close()
        self.clusters = []
        for server in self.node_servers.values():
            server.stop()
        self.node_servers = {}
        for store in self.node_stores.values():
            store.close()
        self.node_stores = {}

    # -- counters read from the tiers' public stats -----------------------------

    def stored_bytes(self) -> int:
        """Bytes held by the node stores: every replica, chunks + index + meta."""
        return sum(store.size_bytes() for store in self.node_stores.values())

    def sheds(self) -> int:
        """Requests refused by any scheduler in the process (router, shards, nodes)."""
        return registry_total("server.scheduler", "shed_interactive") + registry_total(
            "server.scheduler", "shed_bulk"
        )

    def overload_retries(self) -> int:
        """Requests any client in the process re-sent after a typed shed."""
        return registry_total("client.wire", "overload_retries") + registry_total(
            "store.remote", "overload_retries"
        )

    def nodes_marked_down(self) -> int:
        """Nodes some cluster client routes around (probed through the ring)."""
        down = 0
        for cluster in self.clusters:
            healthy = set()
            for probe in range(256):
                healthy.update(cluster.healthy_replicas(b"probe/%d" % probe))
            down += len(cluster.node_names) - len(healthy)
        return down

    def hints_parked(self) -> int:
        return sum(store.count_prefix(HINT_PREFIX) for store in self.node_stores.values())

    def index_cache(self) -> Dict[str, int]:
        hits = sum(engine.cache_stats().hits for engine in self.engines.values())
        misses = sum(engine.cache_stats().misses for engine in self.engines.values())
        return {"hits": hits, "misses": misses}

    def query_stats(self) -> Dict[str, int]:
        totals = {"index_nodes_read": 0, "index_store_round_trips": 0}
        for engine in self.engines.values():
            for field_name in totals:
                totals[field_name] += getattr(engine.query_stats, field_name)
        return totals
