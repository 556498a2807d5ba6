"""Engine answers through every client shape: pinned bytes, hostile answers, kept blobs.

The engine surface is spoken by four client shapes — ``RemoteServerClient``,
``ShardedServerClient`` and a ``RequestPipeline`` on each — over one set of
request builders and answer decoders.  This file checks that set from three
sides:

* **golden ops** — ``tests/fixtures/wire/golden_ops.json`` holds, for every
  engine op and every shape, the request bytes the shape sent and the
  response bytes a real engine answered, recorded before the shapes shared
  one implementation.  A replay server answers each recorded request with
  its recorded response; the client must send byte-identical requests and
  decode to the recorded values (inputs — chunk blobs, sealed tokens,
  envelopes — come from the fixture, never re-encrypted).  The sharded
  pipeline has no recording of its own: it replays the ``sharded`` cases,
  since its flush is the same routed batch;
* **hostile answers** — the server enforces nothing, so the client refuses
  malformed answers: shards that rewrite their honest answers must get a
  typed ``ProtocolError`` out of every shape (and out of the routed
  batch's cross-shard split), never a bare ``IndexError`` or a silently truncated
  or zero-filled result;
* **kept blobs** — sealed grants and key envelopes outlive the response
  frame, so every shape hands them out as ``bytes``, never as views pinning
  the frame buffer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import ServerEngine
from repro.access.keystore import TokenStore
from repro.exceptions import ProtocolError
from repro.net.client import RemoteServerClient, ShardedServerClient, _WireTokenStore
from repro.net.messages import OP_TABLE, Request, Response, ShardRoutingTable
from repro.net.server import TimeCryptTCPServer, WireDispatcher
from repro.server.engine import _metadata_from_json, _metadata_to_json
from repro.server.query_executor import MultiStreamAggregate, StatQueryResult
from repro.server.router import ShardedEngineDispatcher, deploy_sharded_engines
from repro.storage.memory import MemoryStore
from repro.timeseries.serialization import (
    EncryptedChunk,
    decode_encrypted_chunk,
    encode_encrypted_chunk,
)
from repro.timeseries.stream import StreamMetadata
from repro.util.timeutil import TimeRange

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "wire" / "golden_ops.json").read_text()
)
INPUTS = GOLDEN["inputs"]
STREAMS = GOLDEN["streams"]  # A and C on shard e0, B on shard e1
SHAPES = ("remote", "sharded", "pipeline", "sharded_pipeline")
#: The client each pipeline shape records on.
_PIPELINED = {"pipeline": "remote", "sharded_pipeline": "sharded"}
#: Every recorded case, plus each ``sharded`` case replayed through a sharded pipeline.
CASES = GOLDEN["cases"] + [
    {**case, "shape": "sharded_pipeline"} for case in GOLDEN["cases"] if case["shape"] == "sharded"
]
_LOCAL = ("hello", "ping", "stats", "trace_dump", "routing_table")


def _arg(spec, inputs=INPUTS):
    """One call argument from its fixture form (plain JSON, or a tagged input)."""
    if not isinstance(spec, dict):
        return spec
    ((tag, value),) = spec.items()
    if tag == "metadata":
        return _metadata_from_json(bytes.fromhex(inputs["metadata"][value]))
    if tag == "chunk":
        uuid, index = value
        return decode_encrypted_chunk(bytes.fromhex(inputs["chunks"][uuid][index]))
    if tag == "chunks":
        uuid, start, end = value
        return [decode_encrypted_chunk(bytes.fromhex(blob)) for blob in inputs["chunks"][uuid][start:end]]
    if tag == "range":
        return TimeRange(*value)
    if tag == "token":
        return bytes.fromhex(inputs["tokens"][value])
    if tag == "grants":
        return [(uuid, principal, bytes.fromhex(inputs["tokens"][token])) for uuid, principal, token in value]
    if tag == "envelopes":
        return {int(window): bytes.fromhex(inputs["envelopes"][index]) for window, index in value.items()}
    raise AssertionError(f"unknown argument tag {tag!r}")


def _stat(result: StatQueryResult) -> dict:
    return {
        "stream_uuid": result.stream_uuid,
        "window_start": result.window_start,
        "window_end": result.window_end,
        "cells": [
            {"value": cell.value, "start": cell.window_start, "end": cell.window_end}
            for cell in result.cells
        ],
        "component_names": list(result.component_names),
        "num_index_nodes": result.num_index_nodes,
    }


def _normalized(value):
    """A decoded answer in the fixture's JSON form."""
    if value is None or isinstance(value, (bool, int)):
        return value
    if isinstance(value, StatQueryResult):
        return {"stat": _stat(value)}
    if isinstance(value, MultiStreamAggregate):
        return {
            "aggregate": {
                "values": list(value.values),
                "component_names": list(value.component_names),
                "per_stream_intervals": [list(item) for item in value.per_stream_intervals],
            }
        }
    if isinstance(value, StreamMetadata):
        return {"metadata": _metadata_to_json(value).hex()}
    if isinstance(value, dict):
        return {"envelopes": {str(window): bytes(blob).hex() for window, blob in sorted(value.items())}}
    if value and all(isinstance(item, EncryptedChunk) for item in value):
        return {"chunks": [encode_encrypted_chunk(item).hex() for item in value]}
    if value and all(isinstance(item, StatQueryResult) for item in value):
        return {"series": [_stat(item) for item in value]}
    if all(isinstance(item, int) for item in value):
        return {"ints": list(value)}
    return {"blobs": [bytes(item).hex() for item in value]}


def _call(clients, shape, call):
    """Run ``call(client, STREAMS)`` on one shape; a pipeline flushes and reads its handle."""
    if shape not in _PIPELINED:
        return call(clients[shape], STREAMS)
    with clients[_PIPELINED[shape]].pipeline() as batch:
        handle = call(batch, STREAMS)
    return handle.result()


# -- golden ops -------------------------------------------------------------------------


class _ReplayDispatcher(WireDispatcher):
    """Answers each engine request with the response recorded for its exact bytes.

    Its ``hello`` advertises a routing table naming the recorded engines,
    all at this one address, so a ``ShardedServerClient`` routes and splits
    exactly as it did against the recorded two-shard deployment.
    """

    def __init__(self) -> None:
        self.address = ("127.0.0.1", 0)
        self.answers: dict = {}

    def hello_extras(self) -> dict:
        host, port = self.address
        table = ShardRoutingTable([(name, host, port) for name in GOLDEN["engines"]], epoch=1)
        return {"routing": table.to_payload()}

    def dispatch(self, request: Request) -> Response:
        if request.operation in _LOCAL:
            return super().dispatch(request)
        answers = self.answers.get(request.encode())
        if not answers:
            return Response.failure(ProtocolError(f"unrecorded {request.operation} request"))
        return Response.decode(answers.pop(0))


@pytest.fixture(scope="module")
def replay():
    dispatcher = _ReplayDispatcher()
    server = TimeCryptTCPServer(dispatcher=dispatcher)
    dispatcher.address = server.address
    server.start()
    remote = RemoteServerClient(*server.address, timeout=5.0)
    sharded = ShardedServerClient(*server.address, timeout=5.0)
    try:
        yield dispatcher, {"remote": remote, "sharded": sharded}
    finally:
        sharded.close()
        remote.close()
        server.stop()


def test_the_fixture_covers_every_engine_op():
    sent = {
        (case["shape"], Request.decode(bytes.fromhex(request)).operation)
        for case in GOLDEN["cases"]
        for request, _response in case["exchanges"]
    }
    engine_ops = {name for name, op in OP_TABLE.items() if op.scope == "engine"}
    for shape in ("remote", "sharded"):
        assert {op for case_shape, op in sent if case_shape == shape} == engine_ops
    assert {op for shape, op in sent if shape == "pipeline"} >= {
        "stream_head", "stream_metadata", "insert_chunks", "get_range", "stat_range",
        "put_grants", "fetch_grants", "fetch_envelopes",
    }  # fmt: skip


@pytest.mark.parametrize(
    "case",
    CASES,
    ids=[f"{index:02d}-{case['shape']}-{case['call']}" for index, case in enumerate(CASES)],
)
def test_requests_and_decoded_answers_match_the_recording(replay, monkeypatch, case):
    dispatcher, clients = replay
    dispatcher.answers = {}
    for request, response in case["exchanges"]:
        dispatcher.answers.setdefault(bytes.fromhex(request), []).append(bytes.fromhex(response))
    sent = []
    encode_batch = RemoteServerClient._encode_batch

    def recording(client, requests):
        encoded = encode_batch(client, requests)
        sent.extend(
            b"".join(segments).hex()
            for request, segments in zip(requests, encoded)
            if request.operation not in _LOCAL
        )
        return encoded

    monkeypatch.setattr(RemoteServerClient, "_encode_batch", recording)
    args = [_arg(spec) for spec in case["args"]]
    name = case["call"]

    def call(client, _streams):
        if name.startswith("token_store."):
            token_store = getattr(client, "token_store", None) or _WireTokenStore(client)
            return getattr(token_store, name.split(".", 1)[1])(*args)
        return getattr(client, name)(*args)

    value = _call(clients, case["shape"], call)
    assert sent == [request for request, _response in case["exchanges"]]
    assert _normalized(value) == case["decoded"]


# -- a two-shard deployment whose shards can turn hostile -------------------------------


class _RewritingDispatcher(ShardedEngineDispatcher):
    """An engine shard that rewrites its honest answers to the ops in ``rewrites``."""

    rewrites: dict = {}

    def dispatch(self, request: Request) -> Response:
        response = super().dispatch(request)
        rewrite = self.rewrites.get(request.operation)
        return rewrite(response) if rewrite is not None and response.ok else response


class _RewritingShard:
    """Duck-typed ``EngineShardServer`` for :func:`deploy_sharded_engines`."""

    def __init__(self, name, engine, table_ref, host="127.0.0.1", max_workers=8) -> None:
        self.dispatcher = _RewritingDispatcher(engine, table_ref, name)
        self._server = TimeCryptTCPServer(host=host, max_workers=max_workers, dispatcher=self.dispatcher)
        self.address = self._server.address

    def start(self) -> "_RewritingShard":
        self._server.start()
        return self

    def stop(self) -> None:
        self._server.stop()


@pytest.fixture(scope="module")
def deployment():
    shared = MemoryStore()
    engines = {
        name: ServerEngine(store=shared, token_store=TokenStore(store=shared)) for name in GOLDEN["engines"]
    }
    router, shards = deploy_sharded_engines(engines, shard_factory=_RewritingShard, timeout=5.0)
    remote = RemoteServerClient(*router.address, timeout=5.0)
    sharded = ShardedServerClient(*router.address, timeout=5.0)
    try:
        assert sharded.routing_table.owner_of(STREAMS["A"]) != sharded.routing_table.owner_of(STREAMS["B"])
        for label in ("A", "B"):
            remote.create_stream(_arg({"metadata": STREAMS[label]}))
        remote.insert_chunks(_arg({"chunks": [STREAMS["A"], 0, 4]}))
        remote.put_grants([(STREAMS["A"], "bob", b"sealed-for-bob")])
        remote.token_store.put_envelopes(STREAMS["A"], 2, {0: b"env-0", 2: b"env-2", 4: b"env-4"})
        yield list(shards.values()), {"remote": remote, "sharded": sharded}
    finally:
        sharded.close()
        remote.close()
        router.stop()
        for shard in shards.values():
            shard.stop()


#: ``name -> (op, rewrite(honest) -> hostile, call(client, streams))``.
_HOSTILE = {
    "metadata_without_attachment": (
        "stream_metadata",
        lambda r: Response(ok=True, result=r.result, attachments=[]),
        lambda c, s: c.stream_metadata(s["A"]),
    ),
    "fewer_envelopes_than_windows": (
        "fetch_envelopes",
        lambda r: Response(ok=True, result=r.result, attachments=r.attachments[:-1]),
        lambda c, s: c.fetch_envelopes(s["A"], 2, 0, 8),
    ),
    "more_envelopes_than_windows": (
        "fetch_envelopes",
        lambda r: Response(ok=True, result={"windows": r.result["windows"][:-1]}, attachments=r.attachments),
        lambda c, s: c.fetch_envelopes(s["A"], 2, 0, 8),
    ),
    "envelope_windows_not_integers": (
        "fetch_envelopes",
        lambda r: Response(ok=True, result={"windows": [str(w) for w in r.result["windows"]]}, attachments=r.attachments),
        lambda c, s: c.fetch_envelopes(s["A"], 2, 0, 8),
    ),
    "fewer_grant_ids_than_grants": (
        "put_grants",
        lambda r: Response(ok=True, result={"grant_ids": r.result["grant_ids"][:-1]}),
        lambda c, s: c.put_grants([(s["A"], "mallory", b"sealed-a"), (s["B"], "mallory", b"sealed-b")]),
    ),
    "truncated_chunk_blob": (
        "get_range",
        lambda r: Response(ok=True, result=r.result, attachments=[bytes(r.attachments[0])[:-3], *r.attachments[1:]]),
        lambda c, s: c.get_range(s["A"], TimeRange(0, 2000)),
    ),
    "fewer_chunks_than_num_chunks": (
        "get_range",
        lambda r: Response(ok=True, result=r.result, attachments=r.attachments[:-1]),
        lambda c, s: c.get_range(s["A"], TimeRange(0, 2000)),
    ),
    "head_not_a_number": (
        "stream_head",
        lambda r: Response(ok=True, result={"head": "four"}),
        lambda c, s: c.stream_head(s["A"]),
    ),
    "result_not_a_dict": (
        "stream_head",
        lambda r: Response(ok=True, result=[4]),
        lambda c, s: c.stream_head(s["A"]),
    ),
}


@pytest.fixture()
def hostile(deployment):
    shards, clients = deployment

    def turn(op, rewrite):
        for shard in shards:
            shard.dispatcher.rewrites = {op: rewrite}

    yield turn, clients
    for shard in shards:
        shard.dispatcher.rewrites = {}


@pytest.mark.parametrize("shape", SHAPES)
def test_honest_answers_pass_the_checks(hostile, shape):
    _turn, clients = hostile
    for name in sorted(_HOSTILE):
        _op, _rewrite, call = _HOSTILE[name]
        _call(clients, shape, call)  # raises nothing


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(_HOSTILE))
def test_malformed_engine_answer_is_a_protocol_error(hostile, name, shape):
    turn, clients = hostile
    op, rewrite, call = _HOSTILE[name]
    turn(op, rewrite)
    with pytest.raises(ProtocolError):
        _call(clients, shape, call)


# -- kept blobs -------------------------------------------------------------------------


@pytest.mark.parametrize("shape", SHAPES)
def test_grants_and_envelopes_are_bytes_not_frame_views(deployment, shape):
    _shards, clients = deployment
    grants = _call(clients, shape, lambda c, s: c.fetch_grants(s["A"], "bob"))
    envelopes = _call(clients, shape, lambda c, s: c.fetch_envelopes(s["A"], 2, 0, 8))
    assert grants == [b"sealed-for-bob"]
    assert envelopes == {0: b"env-0", 2: b"env-2", 4: b"env-4"}
    assert all(type(blob) is bytes for blob in grants)
    assert all(type(blob) is bytes for blob in envelopes.values())
    if shape not in _PIPELINED:
        token_store = clients[shape].token_store
        assert all(type(blob) is bytes for blob in token_store.grants_for(STREAMS["A"], "bob"))
        stored = token_store.envelopes_for_range(STREAMS["A"], 2, 0, 8)
        assert all(type(blob) is bytes for blob in stored.values())
