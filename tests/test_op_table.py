"""The op table is the one declaration of the wire surface.

``repro.net.messages.OP_TABLE`` names every op with its scheduler class,
scope and routing key; the dispatchers implement ops as ``_op_<name>``
methods.  These checks keep the two in step: every row is handled on the
tier its scope names, every handler names a row, and each tier's ``hello``
advertises exactly the list it advertised before the table existed, less
the five one-item twins (``insert_chunk``, ``put_grant``, ``kv_get``,
``kv_put``, ``kv_delete``) that the batch ops replaced.
"""

from __future__ import annotations

import socket

import pytest

from repro import ServerEngine
from repro.exceptions import ProtocolError
from repro.net.client import SPLITS
from repro.net.framing import PROTOCOL_VERSION, FrameReader, encode_frame_segments_v2, write_vectored
from repro.net.messages import (
    BULK_OPERATIONS,
    KV_OPERATIONS,
    OP_TABLE,
    OPERATIONS,
    Request,
    Response,
    classify_operation,
    encode_message_segments,
    is_local,
)
from repro.net.server import RequestDispatcher, TimeCryptTCPServer, WireDispatcher
from repro.server.router import RouterDispatcher, RoutingTableRef, ShardedEngineDispatcher
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeDispatcher, StorageNodeServer

_ENGINE_OPS = [
    "create_stream",
    "delete_stream",
    "insert_chunks",
    "get_range",
    "delete_range",
    "stat_range",
    "stat_range_multi",
    "stat_series",
    "rollup_stream",
    "stream_head",
    "stream_metadata",
    "put_grants",
    "fetch_grants",
    "fetch_envelopes",
    "put_envelopes",
]

#: Each tier's ``hello`` operation list, as advertised before the op table
#: less the retired one-item twins.
HELLO_OPERATIONS = {
    "engine": ["hello", *_ENGINE_OPS, "ping", "stats", "trace_dump"],
    "shard": ["hello", *_ENGINE_OPS, "routing_table", "ping", "stats", "trace_dump"],
    "router": ["hello", *_ENGINE_OPS, "routing_table", "ping", "stats", "trace_dump"],
    "storage": [
        "hello",
        "ping",
        "stats",
        "trace_dump",
        "kv_multi_get",
        "kv_multi_put",
        "kv_multi_delete",
        "kv_scan_prefix",
        "kv_delete_prefix",
        "kv_size_bytes",
    ],
}

#: The scheduler's bulk class, as declared before the op table.
_BULK = {
    "insert_chunks",
    "delete_stream",
    "delete_range",
    "rollup_stream",
    "put_grants",
    "put_envelopes",
    "kv_multi_put",
    "kv_multi_delete",
    "kv_scan_prefix",
    "kv_delete_prefix",
}

_DISPATCHER_CLASSES = [
    WireDispatcher,
    RequestDispatcher,
    ShardedEngineDispatcher,
    RouterDispatcher,
    StorageNodeDispatcher,
]


@pytest.fixture()
def tiers():
    table_ref = RoutingTableRef()
    table_ref.set_engines([("e0", "127.0.0.1", 1)])  # never dialled here
    router = RouterDispatcher(table_ref)
    yield {
        "engine": RequestDispatcher(ServerEngine()),
        "shard": ShardedEngineDispatcher(ServerEngine(), table_ref, "e0"),
        "router": router,
        "storage": StorageNodeDispatcher(MemoryStore()),
    }
    router.close()


def _handlers(cls) -> set:
    return {name[len("_op_"):] for name in dir(cls) if name.startswith("_op_")}


def test_rows_are_well_formed():
    for name, op in OP_TABLE.items():
        assert op.name == name
        assert op.klass in ("bulk", "interactive"), name
        assert op.scope in ("engine", "kv", "local"), name
        # Only engine ops are routed, and every engine op names its stream.
        if op.scope == "engine":
            assert op.route in ("uuid", "uuids", "grants", "chunk", "metadata"), name
        else:
            assert op.route is None, name


def test_every_multi_stream_engine_op_has_a_cross_shard_split():
    # Sent whole to one owner, such an op would reach a shard that refuses
    # the streams it does not own.
    multi_stream = {
        name for name, op in OP_TABLE.items() if op.scope == "engine" and op.route in ("uuids", "grants")
    }
    assert multi_stream == set(SPLITS)


@pytest.mark.parametrize(
    "scope, dispatchers",
    [
        ("engine", [RequestDispatcher, ShardedEngineDispatcher]),
        ("kv", [StorageNodeDispatcher]),
        ("local", [ShardedEngineDispatcher, RouterDispatcher]),
    ],
)
def test_every_row_has_its_handler_on_its_scopes_dispatcher(scope, dispatchers):
    rows = {name for name, op in OP_TABLE.items() if op.scope == scope}
    assert rows
    for cls in dispatchers:
        assert rows <= _handlers(cls), cls.__name__
    # Every tier answers the local ops it advertises without a handler elsewhere.
    if scope == "local":
        assert rows - {"routing_table"} <= _handlers(WireDispatcher)


def test_every_handler_names_a_row_of_its_tiers_scope():
    served = {
        WireDispatcher: {"local"},
        RequestDispatcher: {"local", "engine"},
        ShardedEngineDispatcher: {"local", "engine"},
        RouterDispatcher: {"local"},  # it proxies engine ops without handlers
        StorageNodeDispatcher: {"local", "kv"},
    }
    for cls in _DISPATCHER_CLASSES:
        for name in _handlers(cls):
            assert name in OP_TABLE, f"{cls.__name__}._op_{name} names no op table row"
            assert OP_TABLE[name].scope in served[cls], f"{cls.__name__}._op_{name}"


@pytest.mark.parametrize("tier", sorted(HELLO_OPERATIONS))
def test_hello_advertises_the_same_list_per_tier(tiers, tier):
    response = tiers[tier].dispatch(Request("hello"))
    assert response.ok
    assert response.result["operations"] == HELLO_OPERATIONS[tier]


def test_derived_sets_and_lookups():
    assert OPERATIONS == tuple(OP_TABLE)
    assert set(KV_OPERATIONS) == {name for name in OPERATIONS if name.startswith("kv_")}
    assert BULK_OPERATIONS == _BULK
    for name in OPERATIONS:
        assert classify_operation(name) == ("bulk" if name in _BULK else "interactive")
    assert classify_operation(None) == "interactive"
    assert classify_operation("no_such_op") == "interactive"
    assert {name for name in OPERATIONS if is_local(name)} == {
        "hello",
        "ping",
        "stats",
        "trace_dump",
        "routing_table",
    }
    assert not is_local(None)


def test_unknown_and_non_string_operations_are_typed_errors():
    with pytest.raises(ProtocolError, match="unknown operation"):
        Request("no_such_op")
    with pytest.raises(ProtocolError, match="unknown operation"):
        Request(["hello"])  # a decoded header can carry any JSON value


def test_router_refuses_kv_ops_and_answers_local_ones(tiers):
    router = tiers["router"]
    refused = router.dispatch(Request("kv_multi_get", {}, [b"key"]))
    assert not refused.ok and refused.error_type == "ProtocolError"
    assert "unsupported operation 'kv_multi_get'" in refused.error
    assert router.dispatch(Request("ping")).result == {"pong": True}
    assert "routing" in router.dispatch(Request("routing_table")).result


_RETIRED_OPS = [
    ("engine", "insert_chunk", [b"chunk-blob"]),
    ("engine", "put_grant", [b"sealed-token"]),
    ("storage", "kv_get", [b"key"]),
    ("storage", "kv_put", [b"key", b"value"]),
    ("storage", "kv_delete", [b"key"]),
]


@pytest.mark.parametrize(
    "tier, operation, attachments", _RETIRED_OPS, ids=[f"{tier}-{op}" for tier, op, _ in _RETIRED_OPS]
)
def test_a_retired_one_item_op_is_a_typed_error_over_a_real_socket(tier, operation, attachments):
    """The batch op is the only form: a frame naming a retired twin gets a
    typed ``ProtocolError``, and the connection serves on."""
    server = TimeCryptTCPServer(ServerEngine()) if tier == "engine" else StorageNodeServer(MemoryStore())
    with server, socket.create_connection(server.address, timeout=10) as sock:
        reader = FrameReader(sock)

        def exchange(correlation_id: int, segments: list) -> Response:
            write_vectored(sock, encode_frame_segments_v2(correlation_id, segments))
            frame = reader.read()
            assert frame is not None and frame.correlation_id == correlation_id
            return Response.decode(frame.payload)

        assert exchange(1, Request("hello", {"protocol": PROTOCOL_VERSION}).encode_segments()).ok
        # Request() refuses the name, so the frame is built from the raw header.
        refusal = exchange(2, encode_message_segments({"op": operation, "args": {}}, attachments))
        assert not refusal.ok and refusal.error_type == "ProtocolError"
        assert f"unknown operation '{operation}'" in refusal.error
        assert exchange(3, Request("ping").encode_segments()).result == {"pong": True}
