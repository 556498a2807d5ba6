"""Signed covers and the engine's integer-column index nodes.

The planner is checked against the greedy additive cover it replaced (kept
here only, as the reference), the engine's index against golden node bytes
written by the parent commit (``tests/fixtures/codec/golden_index_nodes.json``:
every ``multi_put`` of a fixed append sequence, and every stored node
decoded), and hostile stored nodes against the typed errors they must raise.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StreamConfig, TimeCrypt
from repro.crypto.heac import HEACCiphertext
from repro.deploy import Deployment
from repro.exceptions import ChunkError, IndexError_, QueryError
from repro.index.node import heac_combiner, plaintext_combiner
from repro.index.query import NodeRef, RangePlan, plan_range, worst_case_nodes
from repro.index.tree import AggregationIndex
from repro.server.engine import HEACColumnIndex, ServerEngine
from repro.storage.memory import MemoryStore
from repro.timeseries.serialization import (
    EncryptedChunk,
    decode_digest_vector,
    decode_index_node,
    encode_digest_vector,
    encode_index_node,
    index_node_storage_key,
)
from repro.util.encoding import encode_varint, pack_varint_list, unpack_varint_list
from repro.util.timeutil import TimeRange

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "codec" / "golden_index_nodes.json").read_text()
)


def greedy_cover(start: int, end: int, fanout: int, max_level: int) -> Tuple[NodeRef, ...]:
    """The additive planner signed covers replaced: largest aligned block first."""
    sizes = [fanout**level for level in range(max_level + 1)]
    nodes = []
    position = start
    while position < end:
        level = 0
        while level < max_level:
            size_up = sizes[level + 1]
            if position % size_up == 0 and position + size_up <= end:
                level += 1
            else:
                break
        size = sizes[level]
        nodes.append(NodeRef(level, position // size, position, position + size))
        position += size
    return tuple(nodes)


def signed_edges(plan: RangePlan) -> Dict[int, int]:
    """The difference array of the plan's signed indicator (zeros dropped)."""
    edges: Dict[int, int] = {}
    for sign, refs in ((1, plan.nodes), (-1, plan.subtracted)):
        for ref in refs:
            edges[ref.window_start] = edges.get(ref.window_start, 0) + sign
            edges[ref.window_end] = edges.get(ref.window_end, 0) - sign
    return {window: delta for window, delta in edges.items() if delta}


def check_signed_plan(start: int, end: int, fanout: int, max_level: int, head: int) -> RangePlan:
    plan = plan_range(start, end, fanout, max_level, head, subtract=True)
    # Σ added − Σ subtracted is exactly the indicator of [start, end).
    assert signed_edges(plan) == {start: 1, end: -1}, (start, end, head, plan)
    for ref in plan.nodes + plan.subtracted:
        size = fanout**ref.level
        assert ref.level <= max_level
        assert ref.window_start == ref.position * size < head
        assert ref.window_end == min((ref.position + 1) * size, head)
    return plan


def _heads(fanout: int) -> List[int]:
    """Every head up to k^4 for k ≤ 3; for k = 4 every head up to k^3 and the
    two largest (the full k^4 sweep is 2.8 M plans, too slow for the suite)."""
    if fanout <= 3:
        return list(range(1, fanout**4 + 1))
    return list(range(1, fanout**3 + 1)) + [fanout**4 - 1, fanout**4]


class TestPlannerExhaustive:
    @pytest.mark.parametrize("fanout", [2, 3, 4])
    def test_every_range_under_every_head(self, fanout):
        max_level = 4
        for head in _heads(fanout):
            for start in range(head):
                for end in range(start + 1, head + 1):
                    additive = greedy_cover(start, end, fanout, max_level)
                    plan = check_signed_plan(start, end, fanout, max_level, head)
                    assert plan.num_nodes <= len(additive)
                    unsigned = plan_range(start, end, fanout, max_level, head, subtract=False)
                    assert unsigned.nodes == additive and unsigned.subtracted == ()

    @pytest.mark.parametrize("fanout", [2, 3, 4])
    def test_a_capped_tree_matches_the_greedy_cover(self, fanout):
        """max_level below the stream height: the virtual root is never taken."""
        head = fanout**3 + 5
        for start in range(head):
            for end in range(start + 1, head + 1):
                plan = check_signed_plan(start, end, fanout, 1, head)
                assert plan.num_nodes <= len(greedy_cover(start, end, fanout, 1))
                assert plan_range(start, end, fanout, 1).nodes == greedy_cover(start, end, fanout, 1)

    @given(st.integers(1, 64**4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_fanout_64(self, head, data):
        start = data.draw(st.integers(0, head - 1))
        end = data.draw(st.integers(start + 1, head))
        plan = check_signed_plan(start, end, 64, 5, head)
        additive = greedy_cover(start, end, 64, 5)
        assert plan.num_nodes <= len(additive) <= worst_case_nodes(64, end) + 1
        assert plan_range(start, end, 64, 5).nodes == additive

    def test_signed_cover_halves_a_ragged_range(self):
        plan = plan_range(1, 63, 64, 3, 1 << 12, subtract=True)
        assert plan.nodes == (NodeRef(1, 0, 0, 64),)
        assert plan.subtracted == (NodeRef(0, 0, 0, 1), NodeRef(0, 63, 63, 64))
        assert plan.num_nodes == 3 and len(greedy_cover(1, 63, 64, 3)) == 62

    def test_the_head_node_is_taken_clipped(self):
        plan = plan_range(64, 70, 4, 5, 70, subtract=True)
        assert plan.nodes == (NodeRef(2, 4, 64, 70),) and plan.subtracted == ()

    def test_a_signed_cover_needs_the_head(self):
        with pytest.raises(QueryError):
            plan_range(0, 5, 4, 3, subtract=True)
        with pytest.raises(QueryError):
            plan_range(0, 5, 4, 3, 4, subtract=True)


# -- the index answers signed covers exactly ---------------------------------------------


def _plain_index(fanout: int, store=None) -> AggregationIndex:
    return AggregationIndex(
        "s",
        store if store is not None else MemoryStore(),
        plaintext_combiner(),
        pack_varint_list,
        lambda blob: unpack_varint_list(blob, 0)[0],
        fanout=fanout,
        max_windows=1 << 12,
    )


def _additive(index: AggregationIndex, start: int, end: int):
    plan = plan_range(start, end, index.fanout, index.max_level)
    return index.query_range(start, end, plan=plan)


def _outcome(call, *args):
    try:
        return call(*args)
    except IndexError_ as exc:
        return type(exc)


@pytest.mark.parametrize("fanout", [2, 4])
def test_signed_and_additive_answers_agree_after_pruning(fanout):
    windows = fanout**4 + 3
    index = _plain_index(fanout)
    rng = random.Random(fanout)
    index.append_many([[rng.randrange(1000), 1] for _ in range(windows)])
    expected = {
        (start, end): _additive(index, start, end)
        for start in range(windows)
        for end in range(start + 1, windows + 1)
    }
    for (start, end), cells in expected.items():
        assert index.query_range(start, end) == cells
    for level in (1, 2):
        block = fanout**level
        index.prune_below(level, windows - block)
        index.cache.clear()
        for start in range(0, windows, block):
            for end in range(start + block, windows + 1, block):
                signed = _outcome(index.query_range, start, end)
                assert signed == _outcome(_additive, index, start, end)
                if signed is not IndexError_:
                    assert signed == expected[(start, end)]


def test_rollup_keeps_resolution_aligned_answers():
    engine = ServerEngine()
    owner = TimeCrypt(server=engine, owner_id="owner")
    config = StreamConfig(chunk_interval=1_000, index_fanout=4)
    uuid = owner.create_stream(metric="m", config=config)
    owner.insert_records(uuid, [(t * 250, float(t % 7)) for t in range(4 * 150)])
    owner.flush(uuid)
    index = engine._state(uuid).index
    head = index.num_windows
    before = {
        (start, end): engine.stat_range_windows(uuid, start, end).cells
        for start in range(0, head, 16)
        for end in range(start + 16, head + 1, 16)
    }
    engine.rollup_stream(uuid, 16, before_time=100 * 1_000)
    engine.reset_stream_cache()
    index = engine._state(uuid).index
    for (start, end), cells in before.items():
        signed = _outcome(engine.stat_range_windows, uuid, start, end)
        additive = _outcome(_additive, index, start, end)
        if signed is IndexError_:
            assert additive is IndexError_
        else:
            assert signed.cells == cells
            assert [cell.value for cell in cells] == list(additive)
    engine.close()


# -- golden node bytes ---------------------------------------------------------------------


class _RecordingStore(MemoryStore):
    def __init__(self) -> None:
        super().__init__()
        self.writes: List[Dict[str, str]] = []

    def multi_put(self, items):
        items = list(items)
        self.writes.append({key.decode(): value.hex() for key, value in items})
        return super().multi_put(items)


def _golden_batches(case) -> List[List[List[HEACCiphertext]]]:
    digests = iter(case["digests"])
    window = 0
    batches = []
    for size in case["batches"]:
        batch = []
        for _ in range(size):
            batch.append([HEACCiphertext(value, window, window + 1) for value in next(digests)])
            window += 1
        batches.append(batch)
    return batches


def _golden_indexes(case, store):
    kwargs = dict(fanout=case["fanout"], max_windows=case["max_windows"])
    generic = AggregationIndex(
        "golden", store, heac_combiner(), encode_digest_vector, decode_digest_vector, **kwargs
    )
    return {"engine": HEACColumnIndex("golden", store, **kwargs), "ciphertext": generic}


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: case["name"])
@pytest.mark.parametrize("kind", ["engine", "ciphertext"])
def test_new_encoder_writes_the_golden_bytes(case, kind):
    store = _RecordingStore()
    index = _golden_indexes(case, store)[kind]
    for batch in _golden_batches(case):
        index.append_many(batch)
    assert store.writes == case["writes"]


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda case: case["name"])
def test_new_decoder_reads_the_golden_values(case):
    store = MemoryStore()
    for writes in case["writes"]:
        store.multi_put([(key.encode(), bytes.fromhex(value)) for key, value in writes.items()])
    index = HEACColumnIndex(
        "golden", store, fanout=case["fanout"], max_windows=case["max_windows"]
    )
    assert index.num_windows == sum(case["batches"])
    for key, (start, end, values) in case["decoded"].items():
        blob = store.get(key.encode())
        assert decode_index_node(blob) == (start, end, tuple(values))
        assert encode_index_node(start, end, values) == blob
        level, position = (int(part, 16) for part in key.split("/")[2:])
        node = index.node(level, position)
        assert (node.window_start, node.window_end, node.cells) == (start, end, tuple(values))


def test_engine_query_equals_the_ciphertext_index():
    case = GOLDEN["cases"][0]
    stores = {kind: MemoryStore() for kind in ("engine", "ciphertext")}
    indexes = {kind: _golden_indexes(case, store)[kind] for kind, store in stores.items()}
    for batch in _golden_batches(case):
        for index in indexes.values():
            index.append_many(batch)
    head = indexes["engine"].num_windows
    for start in range(head):
        for end in range(start + 1, head + 1):
            cells = indexes["ciphertext"].query_range(start, end)
            assert [cell.value for cell in cells] == indexes["engine"].query_range(start, end)
            assert all((cell.window_start, cell.window_end) == (start, end) for cell in cells)


# -- hostile nodes -------------------------------------------------------------------------


def _node_blob(start: int, end: int, values, cell_interval=None) -> bytes:
    cell_start, cell_end = cell_interval or (start, end)
    cells = [HEACCiphertext(value, cell_start, cell_end) for value in values]
    return encode_varint(start) + encode_varint(end) + encode_digest_vector(cells)


class TestNodeCodec:
    def test_round_trip_matches_the_ciphertext_encoding(self):
        for start, end, values in [(0, 1, [5]), (64, 4096, [0, 2**64 - 1, 7]), (3, 300, [])]:
            blob = _node_blob(start, end, values)
            assert encode_index_node(start, end, values) == blob
            assert decode_index_node(blob) == (start, end, tuple(values))

    def test_a_cell_interval_unlike_the_header_is_an_index_error(self):
        for cell_interval in [(0, 2), (1, 3), (0, 300)]:  # same and different byte lengths
            with pytest.raises(IndexError_):
                decode_index_node(_node_blob(1, 2, [1, 2, 3], cell_interval))

    def test_truncation_and_trailing_bytes_are_chunk_errors(self):
        blob = _node_blob(4, 8, [1, 2, 3])
        for cut in range(len(blob)):
            with pytest.raises((ChunkError, IndexError_)):
                decode_index_node(blob[:cut])
        with pytest.raises(ChunkError):
            decode_index_node(blob + b"\x00")
        with pytest.raises(ChunkError):
            decode_index_node(blob[:2] + b"TCD0" + blob[6:])

    def test_a_hostile_width_allocates_nothing(self):
        blob = encode_varint(0) + encode_varint(1) + b"TCD1" + encode_varint(1 << 60)
        with pytest.raises(ChunkError):
            decode_index_node(blob + bytes(11))


def _tamper(blob: bytes, how: str) -> bytes:
    start, end, values = decode_index_node(blob)
    if how == "cell_interval":
        return _node_blob(start, end, values, (start, end + 1))
    if how == "moved":  # self-consistent, but not the interval the plan names
        return encode_index_node(start, end + 1, values)
    if how == "truncated":
        return blob[:-3]
    return blob + b"\x01"


@pytest.mark.parametrize("shape", ["embedded", "remote", "sharded", "four_tier"])
def test_hostile_stored_nodes_raise_typed_errors(shape):
    with Deployment(shape) as deployment:
        owner = TimeCrypt(server=deployment.client, owner_id="owner")
        uuid = owner.create_stream(metric="m", config=StreamConfig(chunk_interval=1_000, index_fanout=4))
        owner.insert_records(uuid, [(t * 250, float(t % 5)) for t in range(4 * 40)])
        owner.flush(uuid)
        good = deployment.client.stat_range(uuid, TimeRange(1_000, 39_000))
        engine = next(iter(deployment.engines.values()))
        plan = engine._state(uuid).index.plan(1, 39)
        assert plan.subtracted  # the whole head node minus its two edge leaves
        key = index_node_storage_key(uuid, plan.nodes[0].level, plan.nodes[0].position)
        original = deployment.store.get(key)
        for how, error in [
            ("cell_interval", IndexError_),
            ("moved", IndexError_),
            ("truncated", ChunkError),
            ("trailing", ChunkError),
        ]:
            deployment.store.put(key, _tamper(original, how))
            for engine in deployment.engines.values():
                engine.reset_stream_cache()
            with pytest.raises(error):
                deployment.client.stat_range(uuid, TimeRange(1_000, 39_000))
        deployment.store.put(key, original)
        for engine in deployment.engines.values():
            engine.reset_stream_cache()
        assert deployment.client.stat_range(uuid, TimeRange(1_000, 39_000)).cells == good.cells
        # A chunk whose digest does not cover its own window is refused.
        head = deployment.client.stream_head(uuid)
        chunk = EncryptedChunk(uuid, head, b"payload", [HEACCiphertext(1, head, head + 2)], 1)
        with pytest.raises(IndexError_):
            deployment.client.insert_chunks([chunk])
        assert deployment.client.stream_head(uuid) == head
