"""Horizontal engine sharding: N ServerEngines behind a stream router.

Engines are stateless apart from the storage they wrap (paper §3.2), so the
scalability story is running *several* engines and partitioning streams
across them.  This module provides that tier:

* Streams are placed by consistent-hashing the stream uuid onto named engine
  shards — the same :class:`~repro.storage.partitioner.ConsistentHashRing`
  the storage tier places keys with, carried on the wire as a
  :class:`~repro.net.messages.ShardRoutingTable`.
* Each :class:`EngineShardServer` serves one engine and *enforces* placement:
  a request for a stream it does not own is answered with a typed
  ``WrongShardError`` redirect naming the owner and the routing epoch, so a
  stale client refreshes instead of silently writing to the wrong shard.
* The :class:`StreamRouter` is the front door: it advertises the routing
  table in ``hello`` (clients that understand it route straight to the
  owning engine — no extra hop on the hot path) and proxies requests for
  clients that do not.  It proxies through the routed batch the sharded
  client sends with (:class:`~repro.net.client.ShardRoutes`): one
  :class:`~repro.net.client.ConnectionSlot` per engine, cross-shard
  ``stat_range_multi`` and ``put_grants`` split per owner by the one split
  table, and no threads of its own — the handler thread sends every
  owner's sub-batch, then awaits each in turn, so N owners cost one
  round-trip time.

Membership changes bump the table epoch.  Shards observe the bump on their
next request and drop cached stream state (indexes rebuild lazily from
shared storage), so ownership moves without restarting engines.
"""

from __future__ import annotations

import logging
import threading
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.exceptions import ProtocolError, TimeCryptError
from repro.net.client import ShardRoutes, request_stream_uuids
from repro.net.messages import OP_TABLE, Request, Response, ShardRoutingTable, is_local
from repro.net.server import RequestDispatcher, TimeCryptTCPServer, WireDispatcher
from repro.server.engine import ServerEngine

logger = logging.getLogger(__name__)


class RoutingTableRef:
    """A mutable handle over an immutable routing table.

    Readers grab the current table with one attribute read (tables are
    immutable, so a grabbed reference stays internally consistent however
    membership changes race); writers swap in a whole new table under the
    lock, bumping the epoch.
    """

    def __init__(self, table: Optional[ShardRoutingTable] = None) -> None:
        self._table = table if table is not None else ShardRoutingTable()
        self._lock = threading.Lock()

    @property
    def table(self) -> ShardRoutingTable:
        return self._table

    def set_engines(self, engines) -> ShardRoutingTable:
        with self._lock:
            self._table = self._table.with_engines(engines)
            table = self._table
        logger.info(
            "routing table replaced: %d engine shard(s), epoch %d", len(table), table.epoch
        )
        return table

    def add_engine(self, name: str, host: str, port: int) -> ShardRoutingTable:
        with self._lock:
            self._table = self._table.with_engine(name, host, port)
            table = self._table
        logger.info("engine shard '%s' added at %s:%d, epoch %d", name, host, port, table.epoch)
        return table

    def remove_engine(self, name: str) -> ShardRoutingTable:
        with self._lock:
            self._table = self._table.without_engine(name)
            table = self._table
        logger.info("engine shard '%s' removed, epoch %d", name, table.epoch)
        return table


def _wrong_shard_response(
    stream_uuid: str, owner: str, table: ShardRoutingTable
) -> Response:
    """The typed redirect: names the owner and the epoch the shard observed."""
    host, port = table.address_of(owner)
    return Response(
        ok=False,
        error=(
            f"stream '{stream_uuid}' is owned by engine shard '{owner}' "
            f"(routing epoch {table.epoch})"
        ),
        error_type="WrongShardError",
        result={"owner": owner, "epoch": table.epoch, "address": [host, port]},
    )


class ShardedEngineDispatcher(RequestDispatcher):
    """A :class:`RequestDispatcher` that enforces shard ownership.

    Every engine-touching request is checked against the current routing
    table before dispatch; requests for foreign streams get the typed
    redirect instead of an answer.  The first request observed after an
    epoch bump drops the engine's cached stream state — a stream this shard
    just (re)gained may have advanced under its previous owner, so indexes
    rebuild lazily from shared storage.
    """

    def __init__(self, engine: ServerEngine, table_ref: RoutingTableRef, shard_name: str) -> None:
        super().__init__(engine)
        self._table_ref = table_ref
        self._shard_name = shard_name
        self._seen_epoch = table_ref.table.epoch

    def hello_extras(self) -> Dict:
        return {"routing": self._table_ref.table.to_payload(), "shard": self._shard_name}

    def _op_routing_table(self, _request: Request) -> Response:
        return Response.success({"routing": self._table_ref.table.to_payload()})

    def _dispatch_engine(self, request: Request) -> Response:
        table = self._table_ref.table
        if table.epoch != self._seen_epoch:
            logger.info(
                "shard '%s' observed routing epoch %d (was %d); dropping cached stream state",
                self._shard_name,
                table.epoch,
                self._seen_epoch,
            )
            self._engine.reset_stream_cache()
            self._seen_epoch = table.epoch
        for stream_uuid in request_stream_uuids(request):
            owner = table.owner_of(stream_uuid) if len(table) else self._shard_name
            if owner != self._shard_name:
                return _wrong_shard_response(stream_uuid, owner, table)
        return super()._dispatch_engine(request)


class EngineShardServer:
    """One named engine shard: a :class:`ServerEngine` behind TCP."""

    def __init__(
        self,
        name: str,
        engine: ServerEngine,
        table_ref: RoutingTableRef,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
    ) -> None:
        self.name = name
        self.engine = engine
        self._server = TimeCryptTCPServer(
            host=host,
            port=port,
            max_workers=max_workers,
            dispatcher=ShardedEngineDispatcher(engine, table_ref, name),
            node_name=f"engine:{name}",
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    def start(self) -> "EngineShardServer":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()

    def __enter__(self) -> "EngineShardServer":
        return self.start()

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()


class RouterDispatcher(WireDispatcher):
    """The router's dispatcher: advertises the table, proxies the rest.

    Routing-aware clients never send it stream traffic — they learn the
    table from ``hello`` and dial the owning engines directly.  For plain
    :class:`~repro.net.client.RemoteServerClient` users the router is a
    transparent proxy: each request is one routed batch
    (:class:`~repro.net.client.ShardRoutes`, the same one the sharded
    client sends through), forwarded over one multiplexed connection per
    shard shared by every handler thread, with the cross-shard
    ``stat_range_multi`` and ``put_grants`` split per owner and every
    owner's sub-batch sent before the first is awaited, on the handler
    thread itself.  Backpressure composes per hop: each upstream
    connection honours the credit window that shard advertised in
    ``hello``, so the router cannot flood a saturated engine on a proxied
    burst.
    """

    def __init__(self, table_ref: RoutingTableRef, timeout: float = 30.0) -> None:
        self._table_ref = table_ref
        # Mirror the server-side tracing flag onto the outbound hop: a
        # request forwarded from inside a traced handler then shows up as a
        # child span of the router's server span.  The router's table is
        # always current, so a refresh has nothing to fetch.
        self._routes = ShardRoutes(
            lambda: table_ref.table,
            lambda: None,
            lambda: {"timeout": timeout, "tracing": self.tracing},
        )

    def supported_operations(self) -> List[str]:
        # The proxy surface, not the handler list: the router itself has no
        # _op_insert_chunks, yet it serves every engine op.
        return [name for name, op in OP_TABLE.items() if op.scope != "kv"]

    def hello_extras(self) -> Dict:
        return {"routing": self._table_ref.table.to_payload(), "role": "router"}

    def _op_routing_table(self, _request: Request) -> Response:
        return Response.success({"routing": self._table_ref.table.to_payload()})

    def dispatch(self, request: Request) -> Response:
        if is_local(request.operation):
            return super().dispatch(request)
        try:
            return self._proxy(request)
        except TimeCryptError as exc:
            return Response.failure(exc)
        except Exception as exc:  # noqa: BLE001 — the proxy must always answer
            return Response.failure(self._unexpected_error(exc))

    def close(self) -> None:
        self._routes.close()

    def _proxy(self, request: Request) -> Response:
        if not len(self._table_ref.table):
            return Response.failure(ProtocolError("the routing table has no engine shards"))
        if OP_TABLE[request.operation].scope != "engine":
            return Response.failure(
                ProtocolError(f"unsupported operation '{request.operation}'")
            )
        stream_uuids = request_stream_uuids(request)
        return self._routes.call_many([(stream_uuids[0] if stream_uuids else None, request)])[0]


class StreamRouter:
    """The sharded tier's front door: routing table + proxy behind TCP."""

    def __init__(
        self,
        table_ref: Optional[RoutingTableRef] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 8,
        timeout: float = 30.0,
    ) -> None:
        self.table_ref = table_ref if table_ref is not None else RoutingTableRef()
        self._dispatcher = RouterDispatcher(self.table_ref, timeout=timeout)
        self._server = TimeCryptTCPServer(
            host=host,
            port=port,
            max_workers=max_workers,
            dispatcher=self._dispatcher,
            node_name="router",
        )

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.address

    @property
    def table(self) -> ShardRoutingTable:
        return self.table_ref.table

    def set_engines(self, engines) -> ShardRoutingTable:
        return self.table_ref.set_engines(engines)

    def add_engine(self, name: str, host: str, port: int) -> ShardRoutingTable:
        return self.table_ref.add_engine(name, host, port)

    def remove_engine(self, name: str) -> ShardRoutingTable:
        return self.table_ref.remove_engine(name)

    def start(self) -> "StreamRouter":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()
        self._dispatcher.close()

    def __enter__(self) -> "StreamRouter":
        return self.start()

    def __exit__(self, *_exc_info: object) -> None:
        self.stop()


def deploy_sharded_engines(
    engines: Mapping[str, ServerEngine],
    host: str = "127.0.0.1",
    max_workers: int = 8,
    timeout: float = 30.0,
    shard_factory: Optional[Callable[..., EngineShardServer]] = None,
) -> Tuple[StreamRouter, Dict[str, EngineShardServer]]:
    """Start one shard server per engine plus a router that fronts them.

    Shards bind ephemeral ports first, then the shared table is populated
    with the real addresses (epoch 1) and the router starts.  The caller
    owns shutdown: stop the router, then the shards.
    """
    if not engines:
        raise ValueError("a sharded deployment needs at least one engine")
    table_ref = RoutingTableRef()
    make_shard = shard_factory if shard_factory is not None else EngineShardServer
    shards: Dict[str, EngineShardServer] = {}
    router: Optional[StreamRouter] = None
    try:
        for name in sorted(engines):
            shards[name] = make_shard(
                name, engines[name], table_ref, host=host, max_workers=max_workers
            ).start()
        table_ref.set_engines(
            [(name, *shard.address) for name, shard in sorted(shards.items())]
        )
        router = StreamRouter(table_ref, host=host, max_workers=max_workers, timeout=timeout)
        router.start()
        return router, shards
    except BaseException:
        if router is not None:
            router.stop()
        for shard in shards.values():
            shard.stop()
        raise
