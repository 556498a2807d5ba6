"""Batch/scalar equivalence: the batch fast paths must be bit-identical.

The batched APIs introduced for bulk ingest and series decryption —
``PRG.expand_many``, ``KeyDerivationTree.leaf_range`` /
``DerivedKeystream.leaf_range``, ``HEACCipher.encrypt_windows`` /
``decrypt_ranges``, ``AggregationIndex.append_many`` and the client/server
plumbing on top — are pure performance refactors.  These property-style tests
pin that down: for random ranges, batch splits, and token grants, the batch
path must produce byte-identical keys, ciphertexts, and stored index nodes to
the scalar path it replaces.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.core.plaintext import PlaintextTimeSeriesStore
from repro.crypto.heac import HEACCipher, aggregate
from repro.crypto.keytree import DerivedKeystream, KeyDerivationTree
from repro.crypto.prf import available_prgs, get_prg
from repro.exceptions import DecryptionError, KeyDerivationError, QueryError
from repro.index.node import plaintext_combiner
from repro.index.tree import AggregationIndex
from repro.server.engine import ServerEngine
from repro.client.writer import StreamWriter
from repro.storage.memory import MemoryStore
from repro.timeseries.chunk import chunks_from_points
from repro.timeseries.point import DataPoint
from repro.timeseries.serialization import decode_encrypted_chunk
from repro.timeseries.stream import StreamConfig, StreamMetadata
from repro.util.encoding import encode_varint
from repro.util.timeutil import TimeRange


# ---------------------------------------------------------------------------
# PRG batch API
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prg_name", available_prgs())
def test_expand_many_matches_expand(prg_name):
    prg = get_prg(prg_name)
    rng = random.Random(41)
    seeds = [bytes(rng.randrange(256) for _ in range(16)) for _ in range(17)]
    assert prg.expand_many(seeds) == [prg.expand(seed) for seed in seeds]
    # Repeat with overlapping seeds: cached cipher contexts must stay stable.
    again = seeds[5:] + seeds[:5]
    assert prg.expand_many(again) == [prg.expand(seed) for seed in again]


@pytest.mark.parametrize("prg_name", available_prgs())
def test_expand_rejects_bad_seed_even_with_cache(prg_name):
    prg = get_prg(prg_name)
    with pytest.raises(ValueError):
        prg.expand(b"short")
    with pytest.raises(ValueError):
        prg.expand_many([b"\x00" * 16, b"way-too-long" * 3])


# ---------------------------------------------------------------------------
# Key-tree batch derivation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prg_name", ["blake2", "sha256", "aes-ni", "aes-ni-fk"])
@pytest.mark.parametrize("height", [1, 2, 7, 12])
def test_leaf_range_matches_scalar_leaves(prg_name, height):
    tree = KeyDerivationTree(seed=bytes(range(16)), height=height, prg=prg_name)
    rng = random.Random(height)
    num_keys = tree.num_keys
    ranges = [(0, num_keys), (0, 0), (num_keys, num_keys)]
    ranges += [sorted((rng.randrange(num_keys + 1), rng.randrange(num_keys + 1))) for _ in range(12)]
    for start, end in ranges:
        assert tree.leaf_range(start, end) == [tree.leaf(i) for i in range(start, end)]


def test_leaf_range_rejects_out_of_tree_ranges(key_tree):
    with pytest.raises(KeyDerivationError):
        key_tree.leaf_range(0, key_tree.num_keys + 1)
    with pytest.raises(KeyDerivationError):
        key_tree.leaf_range(-1, 4)
    with pytest.raises(KeyDerivationError):
        key_tree.leaf_range(9, 7)


def test_leaf_range_ignores_node_cache_configuration():
    cold = KeyDerivationTree(seed=b"s" * 16, height=10, prg="blake2", cache_levels=0)
    warm = KeyDerivationTree(seed=b"s" * 16, height=10, prg="blake2", cache_levels=10)
    assert cold.leaf_range(100, 700) == warm.leaf_range(100, 700)


def test_derived_keystream_leaf_range_across_token_boundaries(key_tree):
    """Ranges spanning several access tokens, including unaligned edges."""
    rng = random.Random(99)
    for _ in range(15):
        grant_start = rng.randrange(0, key_tree.num_keys - 2)
        grant_end = rng.randrange(grant_start + 1, key_tree.num_keys + 1)
        tokens = key_tree.tokens_for_range(grant_start, grant_end)
        keystream = DerivedKeystream(tokens, prg=key_tree.prg_name)
        start = rng.randrange(grant_start, grant_end)
        end = rng.randrange(start, grant_end + 1)
        assert keystream.leaf_range(start, end) == [
            keystream.leaf(i) for i in range(start, end)
        ]
        # The grant edges themselves are the interesting token boundaries.
        assert keystream.leaf_range(grant_start, grant_end) == [
            key_tree.leaf(i) for i in range(grant_start, grant_end)
        ]


def test_derived_keystream_leaf_range_denies_uncovered_positions(key_tree):
    tokens = key_tree.tokens_for_range(10, 20)
    keystream = DerivedKeystream(tokens, prg=key_tree.prg_name)
    with pytest.raises(KeyDerivationError):
        keystream.leaf_range(9, 15)
    with pytest.raises(KeyDerivationError):
        keystream.leaf_range(15, 21)
    assert keystream.leaf_range(10, 20) == [key_tree.leaf(i) for i in range(10, 20)]


def test_derived_keystream_leaf_range_with_disjoint_grants(key_tree):
    """Merged token sets with a hole: both sides derivable, the hole denied."""
    tokens = key_tree.tokens_for_range(0, 8) + key_tree.tokens_for_range(16, 32)
    keystream = DerivedKeystream(tokens, prg=key_tree.prg_name)
    assert keystream.leaf_range(2, 8) == [key_tree.leaf(i) for i in range(2, 8)]
    assert keystream.leaf_range(16, 30) == [key_tree.leaf(i) for i in range(16, 30)]
    with pytest.raises(KeyDerivationError):
        keystream.leaf_range(6, 18)


# ---------------------------------------------------------------------------
# HEAC batch encryption / decryption
# ---------------------------------------------------------------------------


@pytest.fixture
def cipher(key_tree):
    return HEACCipher(key_tree)


def test_encrypt_windows_matches_encrypt_vector(cipher):
    rng = random.Random(5)
    vectors = [[rng.randrange(0, 1 << 48) for _ in range(5)] for _ in range(23)]
    batch = cipher.encrypt_windows(vectors, 40)
    scalar = [cipher.encrypt_vector(vector, 40 + i) for i, vector in enumerate(vectors)]
    assert batch == scalar


def test_window_batch_keys_match_scalar_derivations(cipher):
    batch = cipher.window_batch(100, 110)
    for window in range(100, 110):
        assert batch.window_key(window) == cipher.window_key(window)
        assert batch.encoded_key(window) == cipher.encoded_key(window)
        assert batch.chunk_payload_key(window) == cipher.chunk_payload_key(window)
    with pytest.raises(KeyDerivationError):
        batch.window_key(111)
    with pytest.raises(KeyDerivationError):
        batch.leaf(99)


def test_decrypt_ranges_matches_decrypt_vector(cipher):
    rng = random.Random(17)
    per_window = [
        cipher.encrypt_vector([rng.randrange(0, 1 << 40) for _ in range(4)], window)
        for window in range(50, 98)
    ]
    # Bucketed aggregates of varying granularity, sharing bucket boundaries.
    vectors = []
    position = 0
    while position < len(per_window):
        size = rng.randrange(1, 7)
        segment = per_window[position : position + size]
        vectors.append(
            [aggregate([row[c] for row in segment]) for c in range(4)]
        )
        position += size
    assert cipher.decrypt_ranges(vectors) == [cipher.decrypt_vector(v) for v in vectors]
    assert cipher.decrypt_ranges(vectors, component_offset=2) == [
        cipher.decrypt_vector(v, component_offset=2) for v in vectors
    ]


def test_decrypt_ranges_with_scalar_only_keystream(key_tree, cipher):
    """Keystreams without leaf_range (e.g. resolution envelopes) still work."""

    class LeafOnly:
        def leaf(self, index):
            return key_tree.leaf(index)

    rng = random.Random(23)
    vectors = [
        cipher.encrypt_vector([rng.randrange(1 << 32) for _ in range(3)], window)
        for window in range(5, 12)
    ]
    fallback = HEACCipher(LeafOnly())
    assert fallback.decrypt_ranges(vectors) == [cipher.decrypt_vector(v) for v in vectors]


def test_decrypt_ranges_with_derived_keystream_enforces_scope(key_tree, cipher):
    vectors = [cipher.encrypt_vector([7, 8], window) for window in range(12, 18)]
    granted = HEACCipher(DerivedKeystream(key_tree.tokens_for_range(12, 19), prg=key_tree.prg_name))
    assert granted.decrypt_ranges(vectors) == [cipher.decrypt_vector(v) for v in vectors]
    denied = HEACCipher(DerivedKeystream(key_tree.tokens_for_range(13, 19), prg=key_tree.prg_name))
    # One error contract for missing outer keys, as scalar ``decrypt`` has
    # always had: DecryptionError, caused by the keystream's refusal.
    for attempt in (
        lambda: denied.decrypt_ranges(vectors),
        lambda: denied.decrypt_vector(vectors[0]),
        lambda: denied.outer_pads(12, 18, 2),
        lambda: denied.decrypt(vectors[0][0]),
    ):
        with pytest.raises(DecryptionError, match=r"windows \[12, 1[38]\)") as raised:
            attempt()
        assert isinstance(raised.value.__cause__, KeyDerivationError)


# ---------------------------------------------------------------------------
# Aggregation-index batch append
# ---------------------------------------------------------------------------


def _int_index(store, fanout, uuid="s"):
    return AggregationIndex(
        stream_uuid=uuid,
        store=store,
        combiner=plaintext_combiner(),
        encode_cells=lambda cells: b"".join(struct.pack(">q", c) for c in cells),
        decode_cells=lambda blob: [
            struct.unpack(">q", blob[i : i + 8])[0] for i in range(0, len(blob), 8)
        ],
        fanout=fanout,
        max_windows=1 << 12,
    )


@pytest.mark.parametrize("fanout,total", [(2, 37), (3, 81), (4, 100), (64, 130)])
def test_append_many_stores_identical_bytes(fanout, total):
    rng = random.Random(fanout * total)
    scalar_store, batch_store = MemoryStore(), MemoryStore()
    scalar_index = _int_index(scalar_store, fanout)
    batch_index = _int_index(batch_store, fanout)
    vectors = [[rng.randrange(1000), rng.randrange(1000)] for _ in range(total)]
    for vector in vectors:
        scalar_index.append(vector)
    position = 0
    while position < total:
        size = rng.randrange(1, 24)
        first = batch_index.append_many(vectors[position : position + size])
        assert first == position
        position += size
    assert dict(scalar_store.scan_prefix(b"")) == dict(batch_store.scan_prefix(b""))
    for _ in range(10):
        lo = rng.randrange(total)
        hi = rng.randrange(lo + 1, total + 1)
        assert scalar_index.query_range(lo, hi) == batch_index.query_range(lo, hi)


def test_append_many_empty_batch_is_a_noop():
    index = _int_index(MemoryStore(), 4)
    assert index.append_many([]) == 0
    assert index.num_windows == 0
    index.append([1])
    assert index.append_many([]) == 1


def test_append_returns_window_index_like_before():
    index = _int_index(MemoryStore(), 4)
    assert index.append([5]) == 0
    assert index.append([6]) == 1
    assert index.append_many([[7], [8]]) == 2
    assert index.num_windows == 4


# ---------------------------------------------------------------------------
# Prune watermark
# ---------------------------------------------------------------------------


def test_prune_below_resumes_from_watermark():
    store = MemoryStore()
    index = _int_index(store, 4, uuid="decay")
    index.append_many([[i] for i in range(64)])
    assert index.prune_below(1, 32) == 32
    # A second identical rollup has nothing left to delete — and with the
    # watermark it does not even re-attempt the 32 dead positions.
    assert index.prune_below(1, 32) == 0
    assert index.prune_below(1, 48) == 16
    # The watermark survives a reload from storage.
    reloaded = _int_index(store, 4, uuid="decay")
    assert reloaded.num_windows == 64
    assert reloaded.prune_below(1, 48) == 0
    assert reloaded.prune_below(2, 64) == 16 + (64 // 4)


def test_prune_watermark_never_advances_past_ingested_head():
    """An over-wide before_window must not make later windows unprunable."""
    index = _int_index(MemoryStore(), 4, uuid="early")
    index.append_many([[i] for i in range(4)])
    assert index.prune_below(1, 100) == 4  # clamped to the 4 ingested windows
    index.append_many([[i] for i in range(8)])
    # The windows ingested after the over-wide prune are still reclaimable.
    assert index.prune_below(1, 12) == 8


def test_meta_record_backwards_compatible_with_plain_count():
    store = MemoryStore()
    index = _int_index(store, 4, uuid="old")
    index.append_many([[i] for i in range(5)])
    # Rewrite the meta record in the pre-watermark format (count only).
    store.put(b"index/old/meta", encode_varint(5))
    reloaded = _int_index(store, 4, uuid="old")
    assert reloaded.num_windows == 5
    assert reloaded.prune_below(1, 4) == 4


# ---------------------------------------------------------------------------
# Server bulk ingest and end-to-end pipeline equivalence
# ---------------------------------------------------------------------------


def _owner_stack(seed: bytes, config: StreamConfig, use_batch_sink: bool):
    """A server + writer over a deterministic key tree (no random master seed)."""
    server = ServerEngine()
    metadata = StreamMetadata.new(owner_id="o", metric="m", config=config)
    metadata.uuid = "stream-under-test"
    server.create_stream(metadata)
    tree = KeyDerivationTree(seed=seed, height=config.key_tree_height, prg="blake2")
    writer = StreamWriter(
        stream_uuid=metadata.uuid,
        config=config,
        cipher=HEACCipher(tree),
        sink=server.insert_chunk,
        batch_sink=server.insert_chunks if use_batch_sink else None,
    )
    return server, writer, tree


def test_bulk_ingest_pipeline_matches_scalar_pipeline(small_config):
    seed = bytes(range(16))
    points = [
        DataPoint(timestamp=t, value=(t // 100) % 90 + 3) for t in range(0, 40_000, 100)
    ]
    scalar_server, scalar_writer, tree = _owner_stack(seed, small_config, use_batch_sink=False)
    for point in points:
        scalar_writer.append_point(point)
    scalar_writer.flush()

    batch_server, batch_writer, _ = _owner_stack(seed, small_config, use_batch_sink=True)
    batch_writer.extend(points)
    batch_writer.flush()

    assert scalar_writer.chunks_written == batch_writer.chunks_written
    assert scalar_writer.records_written == batch_writer.records_written

    # Index nodes (and the meta record) must be byte-identical.
    prefix = b"index/stream-under-test/"
    assert dict(scalar_server.store.scan_prefix(prefix)) == dict(
        batch_server.store.scan_prefix(prefix)
    )

    # Chunk payload blobs differ in their random AEAD nonce, but the embedded
    # HEAC digest cells must match exactly and the payloads must decrypt to
    # the same points.
    num_windows = scalar_server.stream_head("stream-under-test")
    assert num_windows == batch_server.stream_head("stream-under-test")
    cipher = HEACCipher(tree)
    from repro.timeseries.serialization import chunk_storage_key

    for window in range(num_windows):
        scalar_chunk = decode_encrypted_chunk(
            scalar_server.store.get(chunk_storage_key("stream-under-test", window))
        )
        batch_chunk = decode_encrypted_chunk(
            batch_server.store.get(chunk_storage_key("stream-under-test", window))
        )
        assert scalar_chunk.digest == batch_chunk.digest
        assert scalar_chunk.num_points == batch_chunk.num_points

    # Statistical queries agree bit-for-bit.
    result_a = scalar_server.stat_range("stream-under-test", TimeRange(0, 40_000))
    result_b = batch_server.stat_range("stream-under-test", TimeRange(0, 40_000))
    assert result_a.cells == result_b.cells
    assert cipher.decrypt_vector(list(result_a.cells)) == cipher.decrypt_vector(
        list(result_b.cells)
    )


def test_insert_chunks_validates_batches(small_config):
    server, writer, _ = _owner_stack(b"v" * 16, small_config, use_batch_sink=True)
    points = [DataPoint(timestamp=t, value=1) for t in range(0, 5_000, 100)]
    encrypted = writer.encrypt_chunks(chunks_from_points(small_config, points))
    with pytest.raises(QueryError):
        server.insert_chunks([])
    with pytest.raises(QueryError):
        server.insert_chunks(encrypted[1:])  # does not start at the head
    server.insert_chunks(encrypted)
    assert server.stream_head("stream-under-test") == len(encrypted)
    with pytest.raises(QueryError):
        server.insert_chunks(encrypted)  # replay is rejected


def test_created_stream_pins_resolved_prg(owner):
    """Persisted metadata must carry a concrete PRG name, never "auto".

    "auto" resolves to the constant DEFAULT_PRG of the build that creates
    the stream; persisting "auto" would re-resolve against whatever default
    a later build opens it with, and silently derive a different keystream.
    """
    uuid = owner.create_stream(metric="pin")
    persisted = owner.server.stream_metadata(uuid).config.prg
    assert persisted != "auto"
    assert persisted in available_prgs()


def test_plaintext_bulk_ingest_matches_scalar():
    config = StreamConfig(chunk_interval=1_000, index_fanout=4)
    scalar = PlaintextTimeSeriesStore()
    batch = PlaintextTimeSeriesStore()
    records = [(t, float((t // 250) % 50)) for t in range(0, 30_000, 250)]
    uuid_a = scalar.create_stream(config=config, uuid="plain")
    for timestamp, value in records:
        scalar.insert_record(uuid_a, timestamp, value)
    scalar.flush(uuid_a)
    uuid_b = batch.create_stream(config=config, uuid="plain")
    batch.insert_records(uuid_b, records)
    batch.flush(uuid_b)
    assert dict(scalar.store.scan_prefix(b"")) == dict(batch.store.scan_prefix(b""))
    assert scalar.get_stat_range(uuid_a, 0, 30_000) == batch.get_stat_range(uuid_b, 0, 30_000)


def test_get_stat_series_uses_batch_decryption(populated_stream):
    """The facade's dashboard series equals per-bucket scalar decryption."""
    owner, uuid, _records = populated_stream
    reader = owner.owner_reader(uuid)
    results = owner.server.stat_series(uuid, TimeRange(0, 60_000), 7)
    batch_stats = reader.decrypt_series(results)
    scalar_stats = [reader.decrypt_statistics(result) for result in results]
    assert [s.digest.values for s in batch_stats] == [
        s.digest.values for s in scalar_stats
    ]
    assert [(s.window_start, s.window_end) for s in batch_stats] == [
        (s.window_start, s.window_end) for s in scalar_stats
    ]
