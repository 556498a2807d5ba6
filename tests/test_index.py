"""Tests for the k-ary aggregation index: planning, correctness, persistence, decay."""

from __future__ import annotations

import random
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.exceptions import IndexError_, QueryError
from repro.index.cache import NodeCache
from repro.index.node import DigestCombiner, IndexNode, heac_combiner, plaintext_combiner
from repro.index.query import plan_range, worst_case_nodes
from repro.index.tree import AggregationIndex, levels_for
from repro.storage.memory import MemoryStore
from repro.timeseries.serialization import index_node_storage_key
from repro.util.encoding import encode_varint, pack_varint_list, unpack_varint_list


def _encode(cells) -> bytes:
    return pack_varint_list(cells)


def _decode(blob: bytes) -> List[int]:
    values, _pos = unpack_varint_list(blob, 0)
    return values


def _make_index(fanout: int = 4, store=None, cache=None) -> AggregationIndex:
    return AggregationIndex(
        stream_uuid="s",
        store=store if store is not None else MemoryStore(),
        combiner=plaintext_combiner(),
        encode_cells=_encode,
        decode_cells=_decode,
        fanout=fanout,
        cache=cache,
        max_windows=1 << 20,
    )


class TestIndexNode:
    def test_invalid_coordinates(self):
        with pytest.raises(IndexError_):
            IndexNode(level=-1, position=0, window_start=0, window_end=1, cells=(1,))
        with pytest.raises(IndexError_):
            IndexNode(level=0, position=0, window_start=5, window_end=5, cells=(1,))

    def test_combiner_vector_width_check(self):
        combiner = plaintext_combiner()
        with pytest.raises(IndexError_):
            combiner.fold([[1], [1, 2]])

    def test_combiner_sizes(self):
        assert heac_combiner().size_of(None) == 8
        custom = DigestCombiner(add=lambda a, b: a + b, size_of=len)
        assert custom.vector_size([b"ab", b"cde"]) == 5


class TestRangePlanning:
    def test_single_window(self):
        plan = plan_range(5, 6, fanout=4, max_level=5)
        assert plan.num_nodes == 1
        assert plan.nodes[0].level == 0

    def test_aligned_block_uses_single_node(self):
        plan = plan_range(0, 64, fanout=4, max_level=5)
        assert plan.num_nodes == 1
        assert plan.nodes[0].level == 3

    def test_max_level_caps_block_size(self):
        plan = plan_range(0, 64, fanout=4, max_level=2)
        assert all(node.level <= 2 for node in plan.nodes)
        assert plan.num_nodes == 4

    def test_invalid_ranges(self):
        with pytest.raises(QueryError):
            plan_range(5, 4, fanout=4, max_level=3)
        with pytest.raises(QueryError):
            plan_range(0, 4, fanout=1, max_level=3)

    def test_plan_tiles_range_exactly(self):
        plan = plan_range(3, 117, fanout=4, max_level=5)
        position = 3
        for node in plan.nodes:
            assert node.window_start == position
            position = node.window_end
        assert position == 117

    def test_worst_case_bound(self):
        assert worst_case_nodes(4, 1) == 1
        assert worst_case_nodes(64, 10**6) == 2 * 63 * 4

    @given(
        st.integers(0, 4000),
        st.integers(1, 500),
        st.sampled_from([2, 4, 16, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_plan_size_within_worst_case(self, start, length, fanout):
        end = start + length
        max_level = levels_for(fanout, 1 << 20)
        plan = plan_range(start, end, fanout, max_level)
        # Exact tiling.
        position = start
        for node in plan.nodes:
            assert node.window_start == position
            assert node.window_end - node.window_start == fanout ** node.level
            position = node.window_end
        assert position == end
        assert plan.num_nodes <= worst_case_nodes(fanout, end) + 1


class TestLevelsFor:
    def test_levels(self):
        assert levels_for(64, 1) == 1
        assert levels_for(64, 64) == 1
        assert levels_for(64, 65) == 2
        assert levels_for(2, 1024) == 10


class TestAggregationIndex:
    def test_append_returns_window_indices(self):
        index = _make_index()
        assert index.append([1, 1]) == 0
        assert index.append([2, 1]) == 1
        assert index.num_windows == 2

    def test_query_empty_range_rejected(self):
        index = _make_index()
        index.append([1])
        with pytest.raises(QueryError):
            index.query_range(0, 0)

    def test_query_beyond_head_rejected(self):
        index = _make_index()
        index.append([1])
        with pytest.raises(QueryError):
            index.query_range(0, 2)

    def test_correctness_against_naive_sums(self):
        rng = random.Random(7)
        index = _make_index(fanout=4)
        values = []
        for _ in range(300):
            value = rng.randint(0, 1000)
            values.append(value)
            index.append([value, 1])
        for _ in range(100):
            a = rng.randint(0, len(values) - 1)
            b = rng.randint(a + 1, len(values))
            cells = index.query_range(a, b)
            assert cells[0] == sum(values[a:b])
            assert cells[1] == b - a

    def test_fanout_64_correctness(self):
        rng = random.Random(3)
        index = _make_index(fanout=64)
        values = [rng.randint(0, 99) for _ in range(200)]
        for value in values:
            index.append([value])
        assert index.query_range(0, 200)[0] == sum(values)
        assert index.query_range(63, 130)[0] == sum(values[63:130])

    def test_persistence_across_reopen(self):
        store = MemoryStore()
        index = _make_index(store=store)
        for value in range(50):
            index.append([value])
        reopened = _make_index(store=store)
        assert reopened.num_windows == 50
        assert reopened.query_range(10, 40)[0] == sum(range(10, 40))

    def test_small_cache_still_correct(self):
        cache = NodeCache(capacity_bytes=256)
        index = _make_index(fanout=4, cache=cache)
        values = list(range(200))
        for value in values:
            index.append([value])
        assert index.query_range(17, 193)[0] == sum(values[17:193])
        assert cache.stats.evictions > 0

    def test_cache_hits_on_repeated_queries(self):
        index = _make_index(fanout=4)
        for value in range(100):
            index.append([value])
        index.query_range(0, 100)
        hits_before = index.cache.stats.hits
        index.query_range(0, 100)
        assert index.cache.stats.hits > hits_before

    def test_plan_exposed(self):
        index = _make_index(fanout=4)
        for value in range(64):
            index.append([value])
        plan = index.plan(0, 64)
        assert plan.num_nodes == 1

    def test_missing_node_detected(self):
        store = MemoryStore()
        index = _make_index(fanout=4, store=store)
        for value in range(20):
            index.append([value])
        # Corrupt the store: remove a leaf node and clear the cache.
        store.delete(b"index/s/00/" + b"0" * 15 + b"3")
        index.cache.clear()
        with pytest.raises(IndexError_):
            index.query_range(3, 4)

    def test_size_and_node_count(self):
        index = _make_index(fanout=4)
        for value in range(16):
            index.append([value])
        assert index.node_count() >= 16
        assert index.size_bytes() > 0

    def test_prune_below_keeps_coarse_levels(self):
        index = _make_index(fanout=4)
        for value in range(64):
            index.append([value])
        deleted = index.prune_below(level=1, before_window=32)
        assert deleted == 32
        # Coarse aggregates over the pruned range still work.
        assert index.query_range(0, 64)[0] == sum(range(64))
        # Fine-grained access to the pruned range is gone.
        index.cache.clear()
        with pytest.raises(IndexError_):
            index.query_range(3, 4)

    def test_invalid_fanout(self):
        with pytest.raises(IndexError_):
            _make_index(fanout=1)

    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=150),
        st.sampled_from([2, 4, 8, 64]),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_ranges_match_naive(self, values, fanout, data):
        index = _make_index(fanout=fanout)
        for value in values:
            index.append([value, 1])
        start = data.draw(st.integers(0, len(values) - 1))
        end = data.draw(st.integers(start + 1, len(values)))
        cells = index.query_range(start, end)
        assert cells[0] == sum(values[start:end])
        assert cells[1] == end - start


def _store_copy(store: MemoryStore) -> MemoryStore:
    copy = MemoryStore()
    copy.multi_put(list(store.scan_prefix(b"")))
    return copy


class _RefusingStore(MemoryStore):
    def __init__(self) -> None:
        super().__init__()
        self.refusing = False

    def multi_put(self, items):
        if self.refusing:
            raise IOError("injected write failure")
        return super().multi_put(items)


class TestResidentSpine:
    """The right-most node per level held across appends stays true to storage."""

    def test_failed_flush_keeps_head_and_spine(self):
        store = _RefusingStore()
        # A cache that holds nothing: the retry can only use the spine or storage.
        index = _make_index(fanout=4, store=store, cache=NodeCache(capacity_bytes=1))
        for value in range(6):
            index.append([value])
        spine_before = dict(index._spine)
        store.refusing = True
        with pytest.raises(IOError):
            index.append_many([[6], [7], [8]])
        assert index.num_windows == 6
        assert index._spine == spine_before
        store.refusing = False
        index.append_many([[6], [7], [8]])
        clean_store = MemoryStore()
        clean = _make_index(fanout=4, store=clean_store)
        for value in range(6):
            clean.append([value])
        clean.append_many([[6], [7], [8]])
        assert dict(store.scan_prefix(b"")) == dict(clean_store.scan_prefix(b""))

    def test_prune_of_full_spine_nodes_then_append(self):
        store = MemoryStore()
        index = _make_index(fanout=4, store=store)
        for value in range(16):
            index.append([value])
        full_spine = {level: index._spine[level] for level in (1, 2)}
        assert all(node.window_end == 16 for node in full_spine.values())
        # Levels 0-2 below window 16 go, the full level-1 and level-2 spine
        # nodes among them.
        index.prune_below(level=3, before_window=16)
        assert all(level not in index._spine for level in full_spine)
        cold_store = _store_copy(store)
        cold = _make_index(fanout=4, store=cold_store)
        values = list(range(16, 41))
        for value in values:
            index.append([value])
            cold.append([value])
        for a in range(16, 41):
            for b in range(a + 1, 42):
                assert index.query_range(a, b)[0] == sum(range(a, b))
        assert dict(store.scan_prefix(b"")) == dict(cold_store.scan_prefix(b""))

    @pytest.mark.parametrize("head", [4, 5])
    def test_cold_append_rejects_node_past_meta_head(self, head):
        store = MemoryStore()
        index = _make_index(fanout=4, store=store)
        for value in range(7):
            index.append([value])
        # Roll the meta record back: the level-1 node [4, 7) now ends past it.
        store.put(b"index/s/meta", encode_varint(head))
        cold = _make_index(fanout=4, store=store)
        assert cold.num_windows == head
        with pytest.raises(IndexError_, match="out of sync"):
            cold.append([99])

    def test_warm_append_still_reads_a_block_that_starts_at_the_head(self):
        store = MemoryStore()
        index = _make_index(fanout=4, store=store)
        for value in range(4):
            index.append([value])
        # A level-1 node ahead of the meta record, as a torn peer write would leave.
        ahead = MemoryStore()
        writer = _make_index(fanout=4, store=ahead)
        for value in range(6):
            writer.append([value])
        key = index_node_storage_key("s", 1, 1)
        store.put(key, ahead.get(key))
        with pytest.raises(IndexError_, match="out of sync"):
            index.append([4])
        assert index.num_windows == 4


def _encrypted_chunks(num_chunks: int):
    """One stream's encrypted chunks (fanout 4) and its metadata."""
    server = ServerEngine()
    owner = TimeCrypt(server=server, owner_id="spine")
    uuid = owner.create_stream(metric="spine", config=StreamConfig(chunk_interval=1_000, index_fanout=4))
    owner.insert_records(uuid, [(t, float(t % 7)) for t in range(0, num_chunks * 1_000, 250)])
    owner.flush(uuid)
    return server.stream_metadata(uuid), [server.get_chunk(uuid, w) for w in range(num_chunks)]


class TestEngineDropsSpineWithStreamState:
    def test_reset_stream_cache_forgets_the_spine(self):
        metadata, chunks = _encrypted_chunks(12)
        store = MemoryStore()
        owner, peer = ServerEngine(store=store), ServerEngine(store=store)
        owner.create_stream(metadata)
        owner.insert_chunks(chunks[:6])
        # The stream moves to a peer over the same storage and advances there.
        peer.insert_chunks(chunks[6:10])
        owner.reset_stream_cache()
        owner.insert_chunks(chunks[10:])
        clean_store = MemoryStore()
        clean = ServerEngine(store=clean_store)
        clean.create_stream(metadata)
        clean.insert_chunks(chunks)
        assert dict(store.scan_prefix(b"")) == dict(clean_store.scan_prefix(b""))

    def test_recreated_stream_starts_without_the_old_spine(self):
        metadata, chunks = _encrypted_chunks(6)
        store = MemoryStore()
        server = ServerEngine(store=store)
        server.create_stream(metadata)
        server.insert_chunks(chunks)
        server.delete_stream(metadata.uuid)
        server.create_stream(metadata)
        server.insert_chunks(chunks[:3])
        clean_store = MemoryStore()
        clean = ServerEngine(store=clean_store)
        clean.create_stream(metadata)
        clean.insert_chunks(chunks[:3])
        assert dict(store.scan_prefix(b"")) == dict(clean_store.scan_prefix(b""))
