"""One way to bring a TimeCrypt deployment up and tear it down again.

:class:`Deployment` builds one of four shapes, in one process over loopback
sockets, from the library's own constructors:

* ``embedded`` — one ``ServerEngine``, called in process;
* ``remote`` — that engine behind a ``TimeCryptTCPServer``, reached with a
  ``RemoteServerClient``;
* ``sharded`` — N engines over one shared store behind engine shards and a
  stream router (``deploy_sharded_engines``), reached with a
  ``ShardedServerClient``;
* ``four_tier`` — the sharded tier over :data:`NUM_NODES` storage nodes
  (``StorageNodeServer``), which the engines share as one ``StorageCluster``
  at :data:`REPLICATION_FACTOR`; nodes can be killed, restarted, added and
  decommissioned live.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.access.keystore import TokenStore
from repro.net.client import RemoteServerClient, ShardedServerClient
from repro.net.server import TimeCryptTCPServer
from repro.server.engine import ServerEngine
from repro.server.router import EngineShardServer, StreamRouter, deploy_sharded_engines
from repro.storage.cluster import StorageCluster
from repro.storage.kv import KeyValueStore
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore

SHAPES = ("embedded", "remote", "sharded", "four_tier")
#: Storage nodes and replication factor of the ``four_tier`` storage tier.
NUM_NODES = 3
REPLICATION_FACTOR = 2
#: Socket timeout of every client the deployment dials.
TIMEOUT = 10.0


class Deployment:
    """One deployment shape, up from construction until :meth:`close`.

    ``client`` is the ``server=`` handle for ``TimeCrypt`` and
    ``TimeCryptConsumer`` on every shape.  ``engines`` counts the engines of
    the ``sharded`` and ``four_tier`` shapes (the others have one),
    ``tracing`` goes to every client and storage client the deployment
    dials, and ``index_cache_bytes`` to every engine.
    """

    def __init__(
        self,
        shape: str,
        engines: int = 2,
        tracing: bool = False,
        index_cache_bytes: int = ServerEngine.index_cache_bytes,
    ) -> None:
        if shape not in SHAPES:
            raise ValueError(f"unknown deployment shape {shape!r}; expected one of {SHAPES}")
        self.shape = shape
        self.tracing = tracing
        #: ``four_tier`` only: each storage node's local store and server, by node name.
        self.backing: Dict[str, MemoryStore] = {}
        self.nodes: Dict[str, StorageNodeServer] = {}
        self.addresses: Dict[str, Tuple[str, int]] = {}
        #: The store every engine writes to.
        self.store: Optional[KeyValueStore] = None
        self.engines: Dict[str, ServerEngine] = {}
        self.server: Optional[TimeCryptTCPServer] = None
        self.router: Optional[StreamRouter] = None
        self.shards: Dict[str, EngineShardServer] = {}
        self.client: Any = None
        try:
            self._start(engines, index_cache_bytes)
        except BaseException:
            self.close()
            raise

    def _start(self, engines: int, index_cache_bytes: int) -> None:
        if self.shape == "four_tier":
            for index in range(NUM_NODES):
                self.launch(f"node-{index}")
            self.store = StorageCluster(
                num_nodes=NUM_NODES, replication_factor=REPLICATION_FACTOR, store_factory=self.dial
            )
        else:
            self.store = MemoryStore()
        count = engines if self.shape in ("sharded", "four_tier") else 1
        for index in range(count):
            self.engines[f"engine-{index}"] = ServerEngine(
                store=self.store,
                token_store=TokenStore(self.store),
                index_cache_bytes=index_cache_bytes,
            )
        if self.shape == "embedded":
            self.client = self.engines["engine-0"]
        elif self.shape == "remote":
            self.server = TimeCryptTCPServer(self.engines["engine-0"]).start()
            self.client = RemoteServerClient(*self.server.address, timeout=TIMEOUT, tracing=self.tracing)
        else:
            self.router, self.shards = deploy_sharded_engines(self.engines, timeout=TIMEOUT)
            self.client = ShardedServerClient(*self.router.address, timeout=TIMEOUT, tracing=self.tracing)

    # -- the storage tier (``four_tier``) ---------------------------------------------

    def launch(self, name: str) -> None:
        """Start storage node ``name`` over an empty store."""
        self.backing[name] = MemoryStore()
        self.nodes[name] = StorageNodeServer(self.backing[name], node_name=name).start()
        self.addresses[name] = self.nodes[name].address

    def dial(self, name: str) -> RemoteKeyValueStore:
        """A new storage client for node ``name`` (the cluster's ``store_factory``)."""
        return RemoteKeyValueStore(*self.addresses[name], timeout=TIMEOUT, tracing=self.tracing)

    def kill(self, name: str) -> None:
        """Stop node ``name``'s server; its store keeps its contents."""
        self.nodes[name].stop()

    def restart(self, name: str) -> None:
        """Serve node ``name``'s store again, on the port it had."""
        self.nodes[name] = StorageNodeServer(
            self.backing[name], port=self.addresses[name][1], node_name=name
        ).start()

    def add_node(self, name: str) -> None:
        """Start node ``name`` and join it to the cluster live."""
        self.launch(name)
        self.store.add_node(name)

    def decommission(self, name: str) -> None:
        """Hand node ``name``'s ranges to the others, then stop its server."""
        self.store.decommission_node(name)
        self.nodes.pop(name).stop()

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        """Client, engine server, router, shards, engines, storage, nodes, in that order."""
        if self.client is not None and self.shape != "embedded":
            self.client.close()
        self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.router is not None:
            self.router.stop()
            self.router = None
        for shard in self.shards.values():
            shard.stop()
        self.shards = {}
        for engine in self.engines.values():
            engine.close()
        self.engines = {}
        if self.store is not None:
            self.store.close()
            self.store = None
        for node in self.nodes.values():
            node.stop()
        self.nodes = {}
        for store in self.backing.values():
            store.close()
        self.backing = {}

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()
