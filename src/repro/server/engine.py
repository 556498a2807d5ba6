"""The server engine: the untrusted half of TimeCrypt (paper §3.2, §4.5, §4.6).

The server engine owns the backing key-value store, maintains one encrypted
aggregation index per stream, stores sealed access tokens and key envelopes,
and answers three kinds of requests:

* **ingest** — append an encrypted chunk (payload + HEAC digest) to a stream,
* **statistical range queries** — aggregate encrypted digests over a window
  interval using the index,
* **raw range retrieval** — return the encrypted chunk payloads overlapping a
  time interval.

Everything the engine touches is ciphertext or public metadata; it never
holds a decryption key.  Engines are stateless apart from the storage they
wrap (the paper's horizontal-scalability argument), so several engines can
share one storage cluster.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.access.keystore import TokenStore
from repro.crypto.heac import HEACCiphertext
from repro.exceptions import (
    IndexError_,
    QueryError,
    StreamExistsError,
    StreamNotFoundError,
)
from repro.index.cache import NodeCache
from repro.index.node import IndexNode, ring_combiner
from repro.index.tree import AggregationIndex
from repro.obs.metrics import REGISTRY
from repro.server.query_executor import (
    MultiStreamAggregate,
    QueryStatistics,
    StatQueryResult,
)
from repro.storage.kv import KeyValueStore
from repro.storage.memory import MemoryStore
from repro.timeseries.digest import DigestConfig, HistogramConfig
from repro.timeseries.serialization import (
    EncryptedChunk,
    chunk_storage_key,
    decode_encrypted_chunk,
    decode_index_node,
    encode_encrypted_chunk,
    encode_index_node,
    metadata_storage_key,
)
from repro.timeseries.stream import StreamConfig, StreamMetadata
from repro.util.timeutil import TimeRange


def _metadata_to_json(metadata: StreamMetadata) -> bytes:
    config = metadata.config
    payload = {
        "uuid": metadata.uuid,
        "owner_id": metadata.owner_id,
        "metric": metadata.metric,
        "source": metadata.source,
        "unit": metadata.unit,
        "tags": metadata.tags,
        "config": {
            "chunk_interval": config.chunk_interval,
            "start_time": config.start_time,
            "compression": config.compression,
            "value_scale": config.value_scale,
            "key_tree_height": config.key_tree_height,
            "prg": config.prg,
            "index_fanout": config.index_fanout,
            "digest": {
                "include_sum": config.digest.include_sum,
                "include_count": config.digest.include_count,
                "include_sum_of_squares": config.digest.include_sum_of_squares,
                "histogram_boundaries": list(config.digest.histogram.boundaries),
            },
        },
    }
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _metadata_from_json(blob: bytes) -> StreamMetadata:
    # bytes-like tolerant: the zero-copy wire path hands in memoryviews.
    payload = json.loads(bytes(blob).decode("utf-8"))
    config_payload = payload["config"]
    digest_payload = config_payload["digest"]
    config = StreamConfig(
        chunk_interval=config_payload["chunk_interval"],
        start_time=config_payload["start_time"],
        compression=config_payload["compression"],
        value_scale=config_payload["value_scale"],
        key_tree_height=config_payload["key_tree_height"],
        prg=config_payload["prg"],
        index_fanout=config_payload["index_fanout"],
        digest=DigestConfig(
            include_sum=digest_payload["include_sum"],
            include_count=digest_payload["include_count"],
            include_sum_of_squares=digest_payload["include_sum_of_squares"],
            histogram=HistogramConfig(boundaries=tuple(digest_payload["histogram_boundaries"])),
        ),
    )
    return StreamMetadata(
        uuid=payload["uuid"],
        owner_id=payload["owner_id"],
        metric=payload["metric"],
        source=payload["source"],
        unit=payload["unit"],
        tags=dict(payload["tags"]),
        config=config,
    )


class HEACColumnIndex(AggregationIndex[int]):
    """The engine's aggregation index: each node is one interval (its
    header) plus a tuple of ring integers, one per digest component.

    Stored bytes are the HEAC digest-vector format every index node has
    always had (:func:`~repro.timeseries.serialization.encode_index_node`);
    only the in-memory form differs, so a decoded or cached node costs no
    ciphertext objects and a query folds plain integer columns.  An
    appended digest must cover exactly ``[w, w + 1)`` for its window ``w``
    before its values are taken.
    """

    def __init__(self, stream_uuid: str, store: KeyValueStore, **kwargs) -> None:
        super().__init__(
            stream_uuid, store, ring_combiner(), encode_cells=None, decode_cells=None, **kwargs
        )

    def _leaf_cells(self, cells: Sequence[HEACCiphertext], window: int) -> tuple:
        for cell in cells:
            if cell.window_start != window or cell.window_end != window + 1:
                raise IndexError_(
                    f"digest cells cover [{cell.window_start}, {cell.window_end}), "
                    f"expected [{window}, {window + 1})"
                )
        return tuple([cell.value for cell in cells])

    def _encode_node(self, node: IndexNode) -> bytes:
        return encode_index_node(node.window_start, node.window_end, node.cells)

    def _decode_node(self, level: int, position: int, blob: bytes) -> IndexNode:
        window_start, window_end, values = decode_index_node(blob)
        return IndexNode(level, position, window_start, window_end, values)


@dataclass
class StreamState:
    """Per-stream server-side state: metadata plus the encrypted index."""

    metadata: StreamMetadata
    index: HEACColumnIndex
    #: Windows below this bound had their raw payloads deleted by a rollup.
    #: In-memory only: after a restart the first rollup re-scans once (the
    #: deletes are no-ops) and re-establishes the bound, so repeated rollups
    #: stay linear in *new* windows instead of re-walking the whole stream.
    payload_rollup_watermark: int = 0


@dataclass
class ServerEngine:
    """The untrusted TimeCrypt server."""

    store: KeyValueStore = field(default_factory=MemoryStore)
    token_store: TokenStore = field(default_factory=TokenStore)
    index_cache_bytes: int = 64 * 1024 * 1024
    _streams: Dict[str, StreamState] = field(default_factory=dict, init=False)
    _cache: NodeCache = field(init=False)
    query_stats: QueryStatistics = field(default_factory=QueryStatistics, init=False)

    def __post_init__(self) -> None:
        self._cache = NodeCache(capacity_bytes=self.index_cache_bytes)
        # Weak registration prunes a collected engine automatically, but two
        # *live* engines (sharded tiers, tests) would still collide on the
        # name: keep the keys so close() can detach this engine promptly.
        self._metrics_keys = [
            REGISTRY.register("engine.query_stats", self.query_stats),
            REGISTRY.register("engine.index_cache", self._cache.stats),
        ]
        self._recover_streams()

    def close(self) -> None:
        """Detach this engine from the process metrics registry."""
        for key in self._metrics_keys:
            REGISTRY.unregister(key)
        self._metrics_keys = []

    # -- recovery -------------------------------------------------------------

    def _recover_streams(self) -> None:
        """Reload stream metadata (and index head positions) from storage."""
        for _key, blob in self.store.scan_prefix(b"meta/"):
            metadata = _metadata_from_json(blob)
            self._streams[metadata.uuid] = self._make_state(metadata)

    def _make_state(self, metadata: StreamMetadata) -> StreamState:
        index = HEACColumnIndex(
            metadata.uuid,
            self.store,
            fanout=metadata.config.index_fanout,
            cache=self._cache,
            max_windows=metadata.config.max_chunks,
        )
        return StreamState(metadata=metadata, index=index)

    # -- stream management -------------------------------------------------------

    def create_stream(self, metadata: StreamMetadata) -> None:
        """Register a new stream (CreateStream)."""
        if metadata.uuid in self._streams:
            raise StreamExistsError(f"stream '{metadata.uuid}' already exists")
        # The registry only covers streams this engine has seen; with several
        # engines over shared storage the metadata record is the authority.
        if self.store.contains(metadata_storage_key(metadata.uuid)):
            raise StreamExistsError(f"stream '{metadata.uuid}' already exists in storage")
        self.store.put(metadata_storage_key(metadata.uuid), _metadata_to_json(metadata))
        self._streams[metadata.uuid] = self._make_state(metadata)

    def delete_stream(self, stream_uuid: str) -> None:
        """Drop a stream with all chunks, index nodes, grants and envelopes.

        Bulk erase is pushed down as prefix deletes, so on a remote or
        clustered store this costs a fixed handful of round trips instead of
        paging every chunk and index key through the engine first.
        """
        state = self._state(stream_uuid)
        self.store.delete_prefixes(
            [
                f"chunk/{stream_uuid}/".encode("ascii"),
                f"index/{stream_uuid}/".encode("ascii"),
            ]
        )
        self.store.delete(metadata_storage_key(stream_uuid))
        self.token_store.delete_stream(stream_uuid)
        # The node cache is shared by every stream of this engine: drop only
        # the deleted stream's nodes.
        state.index.cache.invalidate_stream(stream_uuid)
        del self._streams[stream_uuid]

    def stream_metadata(self, stream_uuid: str) -> StreamMetadata:
        return self._state(stream_uuid).metadata

    def list_streams(self) -> List[str]:
        return sorted(self._streams)

    def stream_head(self, stream_uuid: str) -> int:
        """Number of chunk windows ingested so far."""
        return self._state(stream_uuid).index.num_windows

    def _state(self, stream_uuid: str) -> StreamState:
        state = self._streams.get(stream_uuid)
        if state is None:
            state = self._load_state(stream_uuid)
        if state is None:
            raise StreamNotFoundError(f"unknown stream '{stream_uuid}'")
        return state

    def _load_state(self, stream_uuid: str) -> Optional[StreamState]:
        """Lazily adopt a stream created by a peer engine over shared storage.

        Engines are stateless apart from storage, so a registry miss is not
        authoritative: another engine (or a previous incarnation) may have
        written the stream's metadata record.  One storage ``get`` settles it.
        """
        blob = self.store.get(metadata_storage_key(stream_uuid))
        if blob is None:
            return None
        state = self._make_state(_metadata_from_json(blob))
        self._streams[stream_uuid] = state
        return state

    def reset_stream_cache(self) -> None:
        """Drop all in-memory stream state (indexes rebuild lazily from storage).

        Called when shard ownership changes: a stream this engine used to own
        may have advanced under a different owner, so cached index heads,
        node caches and grant-id counters are no longer trustworthy.
        """
        self._streams.clear()
        self._cache.clear()
        self.token_store.reset_grant_ids()

    # -- ingest --------------------------------------------------------------------

    def insert_chunk(self, chunk: EncryptedChunk) -> int:
        """Append an encrypted chunk; updates the index and returns the window index."""
        state = self._state(chunk.stream_uuid)
        expected_window = state.index.num_windows
        if chunk.window_index != expected_window:
            raise QueryError(
                f"chunk for window {chunk.window_index} arrived, expected window "
                f"{expected_window} (ingest is in-order append-only)"
            )
        self._ingest(state, [chunk])
        return chunk.window_index

    def _ingest(self, state: StreamState, chunks: Sequence[EncryptedChunk]) -> None:
        """Store validated consecutive chunks of one stream in one write round.

        One coalesced write set: chunk payloads + touched index nodes + the
        window-count record land in a single backend ``multi_put``, so a
        failed write never leaves a payload without its index entry.
        """
        uuid = state.metadata.uuid
        payload_puts = [
            (chunk_storage_key(uuid, chunk.window_index), encode_encrypted_chunk(chunk))
            for chunk in chunks
        ]
        state.index.append_many([chunk.digest for chunk in chunks], extra_puts=payload_puts)

    def validate_chunk_batch(self, chunks: Sequence[EncryptedChunk]) -> int:
        """Check a batch is non-empty, single-stream, and consecutive from the
        stream head; returns the expected first window index.

        Factored out of :meth:`insert_chunks` so dispatch layers that slice a
        giant batch (releasing the engine lock between slices) share the
        exact validation contract with the single-shot path.
        """
        if not chunks:
            raise QueryError("cannot ingest an empty chunk batch")
        stream_uuid = chunks[0].stream_uuid
        state = self._state(stream_uuid)
        expected_window = state.index.num_windows
        for offset, chunk in enumerate(chunks):
            if chunk.stream_uuid != stream_uuid:
                raise QueryError("a chunk batch must belong to a single stream")
            if chunk.window_index != expected_window + offset:
                raise QueryError(
                    f"chunk for window {chunk.window_index} arrived, expected window "
                    f"{expected_window + offset} (ingest is in-order append-only)"
                )
        return expected_window

    def insert_chunks(self, chunks: Sequence[EncryptedChunk]) -> int:
        """Append a batch of consecutive encrypted chunks of one stream.

        The bulk-ingest fast path: payloads are stored per chunk as usual, but
        the aggregation index folds all digests through
        :meth:`~repro.index.tree.AggregationIndex.append_many`, writing each
        touched spine node (and the window-count record) once per batch
        instead of once per chunk.  Returns the first appended window index.
        """
        expected_window = self.validate_chunk_batch(chunks)
        self._ingest(self._state(chunks[0].stream_uuid), chunks)
        return expected_window

    # -- raw range retrieval ----------------------------------------------------------

    def get_chunk(self, stream_uuid: str, window_index: int) -> Optional[EncryptedChunk]:
        blob = self.store.get(chunk_storage_key(stream_uuid, window_index))
        return decode_encrypted_chunk(blob) if blob is not None else None

    def get_range(self, stream_uuid: str, time_range: TimeRange) -> List[EncryptedChunk]:
        """Encrypted chunks overlapping ``time_range`` (GetRange).

        All payload keys in the window interval are fetched with one
        ``multi_get`` round trip (one per cluster node on a clustered store).
        """
        state = self._state(stream_uuid)
        window_start, window_end = self._clip_windows(state, time_range)
        keys = [
            chunk_storage_key(stream_uuid, window_index)
            for window_index in range(window_start, window_end)
        ]
        chunks: List[EncryptedChunk] = []
        if keys:
            blobs = self.store.multi_get(keys)
            chunks = [
                decode_encrypted_chunk(blobs[key]) for key in keys if blobs.get(key) is not None
            ]
        self.query_stats.record_range_read(len(chunks))
        return chunks

    def delete_range(self, stream_uuid: str, time_range: TimeRange) -> int:
        """Delete raw chunk payloads in a range while keeping digests (DeleteRange)."""
        state = self._state(stream_uuid)
        window_start, window_end = self._clip_windows(state, time_range)
        keys = [
            chunk_storage_key(stream_uuid, window_index)
            for window_index in range(window_start, window_end)
        ]
        return len(self.store.multi_delete(keys)) if keys else 0

    # -- statistical queries ---------------------------------------------------------------

    def stat_range_windows(
        self, stream_uuid: str, window_start: int, window_end: int
    ) -> StatQueryResult:
        """Aggregate encrypted digests over an explicit window interval."""
        state = self._state(stream_uuid)
        if window_end <= window_start:
            raise QueryError(f"empty window range [{window_start}, {window_end})")
        plan = state.index.plan(window_start, window_end)
        batch_ops_before = state.index.store_batch_ops
        values = state.index.query_range(window_start, window_end, plan=plan)
        self.query_stats.record_stat_query(
            plan.num_nodes, store_round_trips=state.index.store_batch_ops - batch_ops_before
        )
        return StatQueryResult(
            stream_uuid=stream_uuid,
            window_start=window_start,
            window_end=window_end,
            cells=tuple(HEACCiphertext(value, window_start, window_end) for value in values),
            component_names=state.metadata.config.digest.component_names,
            num_index_nodes=plan.num_nodes,
        )

    def stat_range(self, stream_uuid: str, time_range: TimeRange) -> StatQueryResult:
        """Aggregate encrypted digests over a time interval (GetStatRange)."""
        state = self._state(stream_uuid)
        window_start, window_end = self._clip_windows(state, time_range)
        if window_end <= window_start:
            raise QueryError(f"no ingested data in {time_range}")
        return self.stat_range_windows(stream_uuid, window_start, window_end)

    def stat_range_multi(
        self, stream_uuids: Sequence[str], time_range: TimeRange
    ) -> MultiStreamAggregate:
        """Inter-stream statistical query (component-wise sum across streams)."""
        if not stream_uuids:
            raise QueryError("an inter-stream query needs at least one stream")
        results = [self.stat_range(stream_uuid, time_range) for stream_uuid in stream_uuids]
        return MultiStreamAggregate.combine(results)

    def stat_series(
        self, stream_uuid: str, time_range: TimeRange, granularity_windows: int
    ) -> List[StatQueryResult]:
        """A series of adjacent aggregates at a fixed granularity (for dashboards).

        Used by the mHealth views experiment (Fig. 8): one result per
        ``granularity_windows`` consecutive chunk windows.
        """
        if granularity_windows < 1:
            raise QueryError("granularity must be at least one window")
        state = self._state(stream_uuid)
        window_start, window_end = self._clip_windows(state, time_range)
        results: List[StatQueryResult] = []
        position = window_start
        while position < window_end:
            segment_end = min(position + granularity_windows, window_end)
            results.append(self.stat_range_windows(stream_uuid, position, segment_end))
            position = segment_end
        return results

    # -- data decay / rollup -------------------------------------------------------------------

    def rollup_stream(self, stream_uuid: str, resolution_windows: int, before_time: Optional[int] = None) -> int:
        """Age out fine-grained data older than ``before_time`` (RollupStream).

        Raw chunk payloads and leaf index detail below ``resolution_windows``
        are removed; aggregate statistics at and above that resolution remain
        queryable through the surviving index levels.  Returns the number of
        deleted storage records.
        """
        state = self._state(stream_uuid)
        config = state.metadata.config
        if resolution_windows < 1:
            raise QueryError("rollup resolution must be at least one window")
        head_windows = state.index.num_windows
        if before_time is None:
            before_window = head_windows
        else:
            before_window = min(
                head_windows, max(0, (before_time - config.start_time) // config.chunk_interval)
            )
        payload_keys = [
            chunk_storage_key(stream_uuid, window_index)
            for window_index in range(state.payload_rollup_watermark, before_window)
        ]
        deleted = len(self.store.multi_delete(payload_keys)) if payload_keys else 0
        state.payload_rollup_watermark = max(state.payload_rollup_watermark, before_window)
        # Prune index levels finer than the retained resolution.
        level = 0
        fanout = state.metadata.config.index_fanout
        while fanout ** level < resolution_windows:
            level += 1
        deleted += state.index.prune_below(level, before_window)
        return deleted

    # -- token / envelope passthrough ---------------------------------------------------------------

    def put_grant(self, stream_uuid: str, principal_id: str, sealed_token: bytes) -> int:
        return self.token_store.put_grant(stream_uuid, principal_id, sealed_token)

    def put_grants(self, grants: Sequence[Tuple[str, str, bytes]]) -> List[int]:
        """Store a cohort grant burst in one token-store ``multi_put``."""
        return self.token_store.put_grants(grants)

    def fetch_grants(self, stream_uuid: str, principal_id: str) -> List[bytes]:
        return self.token_store.grants_for(stream_uuid, principal_id)

    def fetch_envelopes(
        self, stream_uuid: str, resolution_chunks: int, window_start: int, window_end: int
    ) -> Dict[int, bytes]:
        return self.token_store.envelopes_for_range(
            stream_uuid, resolution_chunks, window_start, window_end
        )

    # -- accounting ------------------------------------------------------------------------------

    def index_size_bytes(self, stream_uuid: str) -> int:
        return self._state(stream_uuid).index.size_bytes()

    def storage_size_bytes(self) -> int:
        return self.store.size_bytes()

    def cache_stats(self):
        return self._cache.stats

    # -- helpers ------------------------------------------------------------------------------------

    def _clip_windows(self, state: StreamState, time_range: TimeRange) -> Tuple[int, int]:
        """Map a time range to the ingested chunk-window interval it overlaps."""
        config = state.metadata.config
        head = state.index.num_windows
        if time_range.end <= config.start_time or head == 0:
            return 0, 0
        start_offset = max(0, time_range.start - config.start_time)
        window_start = start_offset // config.chunk_interval
        end_offset = max(0, time_range.end - config.start_time)
        window_end = (end_offset + config.chunk_interval - 1) // config.chunk_interval
        return min(window_start, head), min(window_end, head)
