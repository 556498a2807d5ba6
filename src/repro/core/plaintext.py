"""The plaintext baseline system (the paper's "Plaintext" configuration).

Identical pipeline to TimeCrypt — chunking, digests, compression, the k-ary
aggregation index, the same storage layout — but nothing is encrypted.  It is
the upper bound every benchmark normalises against ("operating on data in the
clear"), and the oracle the tests compare encrypted results to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import QueryError, StreamExistsError, StreamNotFoundError
from repro.index.cache import NodeCache
from repro.index.node import plaintext_combiner
from repro.index.tree import AggregationIndex
from repro.storage.kv import KeyValueStore
from repro.storage.memory import MemoryStore
from repro.timeseries.chunk import Chunk, ChunkBuilder
from repro.timeseries.compression import Codec, get_codec
from repro.timeseries.digest import Digest
from repro.timeseries.point import (
    DataPoint,
    Number,
    clip_columns,
    decode_value,
    points_from_columns,
)
from repro.timeseries.serialization import chunk_storage_key
from repro.timeseries.stream import StreamConfig, StreamMetadata
from repro.util.encoding import pack_varint_list, unpack_varint_list
from repro.util.timeutil import TimeRange


def _encode_plain_cells(cells: Sequence[int]) -> bytes:
    return pack_varint_list(cells)


def _decode_plain_cells(blob: bytes) -> List[int]:
    values, _pos = unpack_varint_list(blob, 0)
    return values


@dataclass
class _PlainStream:
    metadata: StreamMetadata
    index: AggregationIndex
    builder: ChunkBuilder
    codec: Codec


@dataclass
class PlaintextTimeSeriesStore:
    """A TimeCrypt-shaped time series store operating on data in the clear."""

    store: KeyValueStore = field(default_factory=MemoryStore)
    index_cache_bytes: int = 64 * 1024 * 1024
    owner_id: str = "owner"
    _streams: Dict[str, _PlainStream] = field(default_factory=dict, init=False)
    _cache: NodeCache = field(init=False)

    def __post_init__(self) -> None:
        self._cache = NodeCache(capacity_bytes=self.index_cache_bytes)

    # -- stream lifecycle -----------------------------------------------------------

    def create_stream(
        self,
        metric: str = "",
        config: Optional[StreamConfig] = None,
        uuid: Optional[str] = None,
    ) -> str:
        metadata = StreamMetadata.new(owner_id=self.owner_id, metric=metric, config=config)
        if uuid is not None:
            metadata.uuid = uuid
        if metadata.uuid in self._streams:
            raise StreamExistsError(f"stream '{metadata.uuid}' already exists")
        index = AggregationIndex(
            stream_uuid=metadata.uuid,
            store=self.store,
            combiner=plaintext_combiner(),
            encode_cells=_encode_plain_cells,
            decode_cells=_decode_plain_cells,
            fanout=metadata.config.index_fanout,
            cache=self._cache,
            max_windows=metadata.config.max_chunks,
        )
        self._streams[metadata.uuid] = _PlainStream(
            metadata=metadata,
            index=index,
            builder=ChunkBuilder(config=metadata.config),
            codec=get_codec(metadata.config.compression),
        )
        return metadata.uuid

    def delete_stream(self, uuid: str) -> None:
        self._stream(uuid)
        for prefix in (f"chunk/{uuid}/".encode(), f"index/{uuid}/".encode()):
            for key in self.store.keys_with_prefix(prefix):
                self.store.delete(key)
        del self._streams[uuid]

    def list_streams(self) -> List[str]:
        return sorted(self._streams)

    def stream_config(self, uuid: str) -> StreamConfig:
        return self._stream(uuid).metadata.config

    # -- ingest ---------------------------------------------------------------------

    def insert_record(self, uuid: str, timestamp: int, value: float) -> None:
        self.insert_records(uuid, ((timestamp, value),))

    def insert_records(self, uuid: str, records: Iterable[Tuple[int, Number]]) -> None:
        state = self._stream(uuid)
        self._store_chunks(state, state.builder.extend_records(records))

    def insert_points(self, uuid: str, points: Iterable[DataPoint]) -> None:
        state = self._stream(uuid)
        self._store_chunks(state, state.builder.extend(points))

    def flush(self, uuid: str) -> None:
        state = self._stream(uuid)
        self._store_chunks(state, state.builder.flush())

    def _store_chunks(self, state: _PlainStream, chunks: List[Chunk]) -> None:
        """Store chunk payloads and fold the digests into the index.

        Mirrors TimeCrypt's bulk-ingest path: consecutive chunk runs go
        through :meth:`~repro.index.tree.AggregationIndex.append_many` so the
        baseline enjoys the same amortized index writes as the encrypted
        system — keeping the plaintext-vs-TimeCrypt comparison about the
        crypto, not about batching.
        """
        if not chunks:
            return
        for chunk in chunks:
            payload = state.codec.compress_columns(chunk.timestamps, chunk.values)
            self.store.put(
                chunk_storage_key(state.metadata.uuid, chunk.window_index), payload
            )
        # The builder emits windows consecutively (including empties), so the
        # whole completion is one index batch.
        state.index.append_many([chunk.digest.values for chunk in chunks])

    # -- queries ---------------------------------------------------------------------

    def get_range(self, uuid: str, start: int, end: int) -> List[DataPoint]:
        state = self._stream(uuid)
        window_start, window_end = self._clip_windows(state, TimeRange(start, end))
        points: List[DataPoint] = []
        for window_index in range(window_start, window_end):
            blob = self.store.get(chunk_storage_key(uuid, window_index))
            if blob is not None:
                timestamps, values = state.codec.decompress_columns(blob)
                points += points_from_columns(*clip_columns(timestamps, values, start, end))
        return points

    def get_stat_range(
        self, uuid: str, start: int, end: int, operators: Sequence[str] = ("sum", "count", "mean")
    ) -> Dict[str, object]:
        state = self._stream(uuid)
        window_start, window_end = self._clip_windows(state, TimeRange(start, end))
        if window_end <= window_start:
            raise QueryError(f"no ingested data in [{start}, {end})")
        cells = state.index.query_range(window_start, window_end)
        digest = Digest(config=state.metadata.config.digest, values=list(cells))
        scale = state.metadata.config.value_scale
        results: Dict[str, object] = {}
        for operator in operators:
            raw = digest.evaluate(operator)
            if operator == "sum":
                results[operator] = decode_value(int(raw), scale)
            elif operator in ("mean", "stdev"):
                results[operator] = float(raw) / scale
            elif operator == "var":
                results[operator] = float(raw) / (scale * scale)
            else:
                results[operator] = raw
        return results

    def get_stat_series(
        self, uuid: str, start: int, end: int, granularity_interval: int, operators: Sequence[str] = ("mean",)
    ) -> List[Dict[str, object]]:
        state = self._stream(uuid)
        interval = state.metadata.config.chunk_interval
        granularity_windows = max(1, granularity_interval // interval)
        window_start, window_end = self._clip_windows(state, TimeRange(start, end))
        series: List[Dict[str, object]] = []
        position = window_start
        while position < window_end:
            segment_end = min(position + granularity_windows, window_end)
            cells = state.index.query_range(position, segment_end)
            digest = Digest(config=state.metadata.config.digest, values=list(cells))
            entry: Dict[str, object] = {"window_start": position, "window_end": segment_end}
            for operator in operators:
                entry[operator] = digest.evaluate(operator)
            series.append(entry)
            position = segment_end
        return series

    def delete_range(self, uuid: str, start: int, end: int) -> int:
        state = self._stream(uuid)
        window_start, window_end = self._clip_windows(state, TimeRange(start, end))
        deleted = 0
        for window_index in range(window_start, window_end):
            if self.store.delete(chunk_storage_key(uuid, window_index)):
                deleted += 1
        return deleted

    # -- accounting -------------------------------------------------------------------

    def index_size_bytes(self, uuid: str) -> int:
        return self._stream(uuid).index.size_bytes()

    def num_windows(self, uuid: str) -> int:
        return self._stream(uuid).index.num_windows

    # -- helpers ----------------------------------------------------------------------

    def _stream(self, uuid: str) -> _PlainStream:
        state = self._streams.get(uuid)
        if state is None:
            raise StreamNotFoundError(f"unknown stream '{uuid}'")
        return state

    def _clip_windows(self, state: _PlainStream, time_range: TimeRange) -> Tuple[int, int]:
        config = state.metadata.config
        head = state.index.num_windows
        if time_range.end <= config.start_time or head == 0:
            return 0, 0
        window_start = max(0, time_range.start - config.start_time) // config.chunk_interval
        window_end = (
            max(0, time_range.end - config.start_time) + config.chunk_interval - 1
        ) // config.chunk_interval
        return min(window_start, head), min(window_end, head)
