"""One holder for every outbound connection: :class:`ConnectionSlot`.

The sharded client (router + one connection per engine), the router (one
per engine) and the remote store (one per node) all keep their
:class:`RemoteServerClient` in a slot.  These tests pin what the slot
promises under concurrency and failure:

- a cold router proxying many concurrent requests to one shard answers
  every one of them and is left holding exactly one upstream connection;
- many first calls on a fresh sharded client leave at most one open client
  per engine, every other dialled client closed, and nothing registered
  once the client is closed;
- ``discard`` of a stale client never drops the fresh one another thread
  installed, ``close`` is followed by a redial, and a failed dial leaves
  the slot empty with a typed error.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

import pytest

import repro.net.client as client_module
from repro.deploy import Deployment
from repro.exceptions import ProtocolError, TransportError
from repro.net.client import ConnectionSlot, RemoteServerClient, ShardedServerClient
from repro.net.messages import Request, Response, ShardRoutingTable
from repro.net.server import TimeCryptTCPServer, WireDispatcher
from repro.obs.metrics import REGISTRY
from repro.server.router import RouterDispatcher, RoutingTableRef
from repro.util.blocking import before_blocking

from test_engine_sharding import _replay, _streams_spanning_owners


def _wire_keys(address) -> List[str]:
    host, port = address
    return [name for name in REGISTRY.snapshot() if name.startswith(f"client.wire[{host}:{port}]")]


def _run_together(count: int, target) -> List[BaseException]:
    """Run ``target(index)`` on ``count`` threads released at once; their errors."""
    barrier = threading.Barrier(count)
    errors: List[BaseException] = []

    def run(index: int) -> None:
        barrier.wait()
        try:
            target(index)
        except BaseException as exc:  # surfaced by the caller, pytest-safe
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    return errors


@pytest.fixture
def dialled(monkeypatch) -> List[RemoteServerClient]:
    """Every client a slot (or any caller in ``repro.net.client``) dials."""
    clients: List[RemoteServerClient] = []

    class _Recording(RemoteServerClient):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            clients.append(self)

    monkeypatch.setattr(client_module, "RemoteServerClient", _Recording)
    return clients


class _SlowShard(WireDispatcher):
    """An engine stand-in whose ``stream_head`` takes 50 ms (announced)."""

    def _op_stream_head(self, request: Request) -> Response:
        before_blocking()
        time.sleep(0.05)
        return Response.success({"head": 7})


def _ping_server() -> TimeCryptTCPServer:
    return TimeCryptTCPServer(dispatcher=WireDispatcher())


# -- the two races --------------------------------------------------------------------


def test_cold_router_answers_every_concurrent_proxied_request_over_one_connection():
    with TimeCryptTCPServer(dispatcher=_SlowShard(), max_workers=16) as shard:
        router = RouterDispatcher(RoutingTableRef(ShardRoutingTable([("e1", *shard.address)])))
        responses: Dict[int, Response] = {}

        def proxy(index: int) -> None:
            responses[index] = router.dispatch(Request("stream_head", {"uuid": f"s-{index}"}))

        try:
            assert _run_together(16, proxy) == []
            assert len(responses) == 16
            assert [response.error for response in responses.values() if not response.ok] == []
            assert all(response.result["head"] == 7 for response in responses.values())
            assert len(_wire_keys(shard.address)) == 1  # one upstream client remains
        finally:
            router.close()
        assert _wire_keys(shard.address) == []


def test_fresh_sharded_client_keeps_one_client_per_engine(dialled):
    with Deployment("sharded") as deployment:
        router = deployment.router
        streams = _streams_spanning_owners(router.table, 2, 1)
        _replay(deployment.client, streams)
        deployment.client.close()  # leaves only the fresh client below dialled
        table = router.table
        by_owner: Dict[str, str] = {}
        for metadata, _chunks in streams:
            by_owner.setdefault(table.owner_of(metadata.uuid), metadata.uuid)
        uuids = [by_owner[name] for name in sorted(by_owner)]
        assert len(uuids) == 2  # one stream on each engine

        dialled.clear()
        client = ShardedServerClient(*router.address, timeout=10.0)
        try:
            heads = _run_together(12, lambda index: client.stream_head(uuids[index % 2]))
            assert heads == []
            for name in table.engine_names:
                address = table.address_of(name)
                to_engine = [c for c in dialled if c._address == address]
                assert to_engine, name
                assert len([c for c in to_engine if not c._closed]) <= 1, name
        finally:
            client.close()
        assert all(c._closed for c in dialled)
        for address in [router.address, *(shard.address for shard in deployment.shards.values())]:
            assert _wire_keys(address) == []


# -- the slot on its own --------------------------------------------------------------


def test_discard_of_a_stale_client_keeps_the_fresh_one():
    with _ping_server() as server:
        slot = ConnectionSlot(server.address, timeout=5.0)
        stale = slot.get()
        slot.discard(stale)
        assert stale._closed
        fresh: List[RemoteServerClient] = []
        installer = threading.Thread(target=lambda: fresh.append(slot.get()))
        installer.start()
        installer.join(timeout=10)
        assert fresh and fresh[0] is not stale
        slot.discard(stale)  # a late caller still holding the dead client
        assert slot.get() is fresh[0] and not fresh[0]._closed
        assert fresh[0].ping()
        slot.close()


def test_close_then_get_redials():
    with _ping_server() as server:
        slot = ConnectionSlot(server.address, timeout=5.0)
        first = slot.get()
        slot.close()
        assert first._closed
        second = slot.get()
        assert second is not first and second.ping()
        slot.close()
        assert _wire_keys(server.address) == []


def test_failed_dial_leaves_the_slot_empty_and_is_typed():
    with _ping_server() as server:
        address = server.address
    slot = ConnectionSlot(address, timeout=1.0)
    for _attempt in range(2):
        with pytest.raises(TransportError) as caught:
            slot.get()
        assert not isinstance(caught.value, ProtocolError)  # an outage, never a caller error
        assert slot._client is None
    with pytest.raises(TransportError):
        slot.call_many([Request("ping")])
    assert _wire_keys(address) == []


def test_peer_of_the_wrong_tier_is_refused_without_a_retry(dialled):
    with _ping_server() as server:
        slot = ConnectionSlot(server.address, require="kv_multi_put", timeout=5.0)
        with pytest.raises(ProtocolError, match="kv_multi_put"):
            slot.call_many([Request("ping")])
        assert len(dialled) == 1 and dialled[0]._closed
        assert slot._client is None


def test_call_redials_once_after_the_connection_died():
    server = _ping_server().start()
    host, port = server.address
    slot = ConnectionSlot((host, port), timeout=5.0)
    try:
        first = slot.get()
        assert slot.call_many([Request("ping")])[0].ok
        server.stop()
        server = TimeCryptTCPServer(dispatcher=WireDispatcher(), port=port).start()
        assert slot.call_many([Request("ping")])[0].ok  # the dead client was discarded
        assert first._closed and slot.get() is not first
        assert slot.wire_stats.round_trips >= 3  # counters run on across the redial
    finally:
        slot.close()
        server.stop()
