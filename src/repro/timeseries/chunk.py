"""Chunks: time-ordered batches of points plus their digest (paper §4.1).

The client serializes points into fixed time-interval chunks.  Each chunk
carries:

* the raw point payload (compressed, then AEAD-encrypted on the write path),
* a digest vector (encrypted with HEAC so the server can aggregate it),
* its window index — the position in the keystream / aggregation index.

A chunk holds its points as two parallel columns (``timestamps`` and
``values``): every client-side stage — window split, digest, delta codec —
is one bulk pass over a column, and :class:`DataPoint` objects exist only
where a caller asks for them (:attr:`Chunk.points`).

:class:`ChunkBuilder` implements the client-side batching: a time-ordered
batch is cut at the window boundaries it crosses and a chunk is emitted for
every window the batch completes (or on explicit flush).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import gt
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ChunkError, OutOfOrderError
from repro.timeseries.digest import Digest, DigestConfig
from repro.timeseries.point import (
    DataPoint,
    Number,
    columns_from_points,
    columns_from_records,
    points_from_columns,
)
from repro.timeseries.stream import StreamConfig
from repro.util.timeutil import TimeRange


@dataclass
class Chunk:
    """A plaintext chunk: one window's points (as columns) and their digest.

    ``timestamps`` must be non-decreasing; :meth:`of_points` and the builder
    guarantee it.
    """

    window_index: int
    time_range: TimeRange
    timestamps: Sequence[int]
    values: Sequence[int]
    digest: Digest

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.values):
            raise ChunkError("chunk columns differ in length")
        if self.timestamps:
            for timestamp in (self.timestamps[0], self.timestamps[-1]):
                if not self.time_range.contains(timestamp):
                    raise ChunkError(
                        f"point at {timestamp} outside chunk window {self.time_range}"
                    )

    @property
    def num_points(self) -> int:
        return len(self.timestamps)

    @cached_property
    def points(self) -> List[DataPoint]:
        """The chunk's points, materialised on first use."""
        return points_from_columns(self.timestamps, self.values)

    @classmethod
    def of_columns(
        cls,
        window_index: int,
        time_range: TimeRange,
        timestamps: Sequence[int],
        values: Sequence[int],
        digest_config: DigestConfig,
    ) -> "Chunk":
        return cls(
            window_index=window_index,
            time_range=time_range,
            timestamps=timestamps,
            values=values,
            digest=Digest.of_values(digest_config, values),
        )

    @classmethod
    def of_points(
        cls,
        window_index: int,
        time_range: TimeRange,
        points: Iterable[DataPoint],
        digest_config: DigestConfig,
    ) -> "Chunk":
        timestamps, values = columns_from_points(sorted(points, key=lambda p: p.timestamp))
        return cls.of_columns(window_index, time_range, timestamps, values, digest_config)


@dataclass
class ChunkBuilder:
    """Client-side batching of an append-only point stream into chunks.

    Points must arrive with non-decreasing timestamps (time series ingest is
    in-order append-only, §4.5); an out-of-order point raises
    :class:`OutOfOrderError` and leaves the builder exactly as it was — a
    batch is validated as a whole before any of it is taken.  Chunks are
    emitted strictly in window order; empty windows between points are
    emitted as empty chunks so the keystream position always equals the
    window index.
    """

    config: StreamConfig
    emit_empty_chunks: bool = True
    _current_window: Optional[int] = field(default=None, init=False)
    _timestamps: List[int] = field(default_factory=list, init=False)
    _values: List[int] = field(default_factory=list, init=False)
    _last_timestamp: Optional[int] = field(default=None, init=False)

    def append(self, point: DataPoint) -> List[Chunk]:
        """Add a point; returns the chunks completed by this append (possibly none)."""
        return self.extend_columns((point.timestamp,), (point.value,))

    def extend(self, points: Iterable[DataPoint]) -> List[Chunk]:
        """Append many points; returns all chunks completed along the way."""
        return self.extend_columns(*columns_from_points(points))

    def extend_records(self, records: Iterable[Tuple[int, Number]]) -> List[Chunk]:
        """Append raw ``(timestamp, measurement)`` records.

        Measurements are fixed-point encoded with the stream's
        ``value_scale`` straight into the value column.
        """
        return self.extend_columns(*columns_from_records(records, self.config.value_scale))

    def extend_columns(self, timestamps: Sequence[int], values: Sequence[int]) -> List[Chunk]:
        """Append a batch given as parallel columns of integers."""
        if len(timestamps) != len(values):
            raise ChunkError("batch columns differ in length")
        if not timestamps:
            return []
        config = self.config
        window = config.window_of(timestamps[0])  # raises before the stream start
        self._check_order(timestamps)
        last_window = config.window_of(timestamps[-1])
        completed: List[Chunk] = []
        position = 0
        while window != last_window:
            cut = bisect_left(timestamps, config.window_start(window + 1), position)
            completed.extend(self._take(window, timestamps[position:cut], values[position:cut]))
            position = cut
            window = config.window_of(timestamps[position])
        completed.extend(self._take(window, timestamps[position:], values[position:]))
        self._last_timestamp = timestamps[-1]
        return completed

    def flush(self) -> List[Chunk]:
        """Emit the current partial chunk (ends the stream segment)."""
        if self._current_window is None:
            return []
        chunk = self._build_chunk(self._current_window, self._timestamps, self._values)
        self._current_window = None
        self._timestamps, self._values = [], []
        return [chunk]

    def _check_order(self, timestamps: Sequence[int]) -> None:
        """Raise :class:`OutOfOrderError` unless the batch continues the stream in order."""
        previous = timestamps[0] if self._last_timestamp is None else self._last_timestamp
        if timestamps[0] >= previous and not any(map(gt, timestamps, islice(timestamps, 1, None))):
            return
        for timestamp in timestamps:  # slow path: name the offending point
            if timestamp < previous:
                raise OutOfOrderError(f"point at {timestamp} arrived after {previous}")
            previous = timestamp

    def _take(self, window: int, timestamps: Sequence[int], values: Sequence[int]) -> List[Chunk]:
        """Add one window's slice of a batch; returns the chunks that closes."""
        if window == self._current_window:
            self._timestamps += timestamps
            self._values += values
            return []
        completed: List[Chunk] = []
        if self._current_window is not None:
            completed.append(
                self._build_chunk(self._current_window, self._timestamps, self._values)
            )
            if self.emit_empty_chunks:
                for empty_window in range(self._current_window + 1, window):
                    completed.append(self._build_chunk(empty_window, [], []))
        self._current_window = window
        self._timestamps, self._values = list(timestamps), list(values)
        return completed

    def _build_chunk(
        self, window_index: int, timestamps: Sequence[int], values: Sequence[int]
    ) -> Chunk:
        start = self.config.window_start(window_index)
        time_range = TimeRange(start, start + self.config.chunk_interval)
        return Chunk.of_columns(window_index, time_range, timestamps, values, self.config.digest)


def chunks_from_points(
    config: StreamConfig, points: Iterable[DataPoint], emit_empty_chunks: bool = True
) -> List[Chunk]:
    """Batch a complete point sequence into chunks (builder + flush)."""
    builder = ChunkBuilder(config=config, emit_empty_chunks=emit_empty_chunks)
    chunks = builder.extend(points)
    chunks.extend(builder.flush())
    return chunks
