"""Lossless compression codecs for raw chunk payloads (paper §4.1).

TimeCrypt compresses chunk payloads before encrypting them; the paper's
default is zlib, with the note that delta-style encodings work well for
low-precision data.  We implement a small codec family behind a single
interface so the stream configuration can pick per-workload:

* ``none``        — identity (useful as a baseline in ablations)
* ``zlib``        — DEFLATE over the serialized points (paper default)
* ``delta``       — delta-of-delta timestamps + zigzag/varint values
  (Gorilla-style integer compression), good for regular sampling intervals
* ``delta-zlib``  — delta encoding followed by zlib, best of both for most
  monitoring workloads.

Every codec works on a chunk's two columns (``timestamps`` and ``values``,
parallel integer lists): differences, zigzag, varint packing and prefix sums
are each one bulk pass over a column.  The point-list ``compress`` /
``decompress`` are thin adapters over the column methods.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from itertools import accumulate, chain
from operator import sub
from typing import Dict, List, Sequence, Tuple, Type

from repro.exceptions import ChunkError, ConfigurationError
from repro.timeseries.point import DataPoint, columns_from_points, points_from_columns
from repro.util.encoding import (
    decode_signed_varint,
    decode_signed_varints,
    decode_varint,
    encode_signed_varint,
    encode_signed_varints,
    encode_varint,
)

Columns = Tuple[List[int], List[int]]


def _interleave(first: Sequence[int], second: Sequence[int]) -> List[int]:
    """``[first[0], second[0], first[1], second[1], ...]``."""
    flat = [0] * (2 * len(first))
    flat[0::2] = first
    flat[1::2] = second
    return flat


def _differences(column: Sequence[int]) -> List[int]:
    """``column[i + 1] - column[i]`` for every adjacent pair."""
    return list(map(sub, column[1:], column))


def serialize_columns(timestamps: Sequence[int], values: Sequence[int]) -> bytes:
    """Canonical flat serialization: count, then (timestamp, value) varint pairs."""
    try:
        return encode_varint(len(timestamps)) + encode_signed_varints(
            _interleave(timestamps, values)
        )
    except ValueError as exc:
        raise ChunkError(f"point outside the encodable range: {exc}") from exc


def deserialize_columns(data: bytes) -> Columns:
    """Inverse of :func:`serialize_columns`.

    Bytes after the last point are ignored; a payload cut anywhere inside
    raises :class:`ChunkError`.
    """
    try:
        count, pos = decode_varint(data, 0)
        flat, _pos = decode_signed_varints(data, pos, 2 * count)
    except ValueError as exc:
        raise ChunkError(f"malformed point payload: {exc}") from exc
    return flat[0::2], flat[1::2]


def serialize_points(points: Sequence[DataPoint]) -> bytes:
    """:func:`serialize_columns` over a point list."""
    return serialize_columns(*columns_from_points(points))


def deserialize_points(data: bytes) -> List[DataPoint]:
    """Inverse of :func:`serialize_points`."""
    return points_from_columns(*deserialize_columns(data))


def _inflate(payload: bytes, codec_name: str) -> bytes:
    try:
        return zlib.decompress(payload)
    except zlib.error as exc:
        raise ChunkError(f"corrupt {codec_name} chunk payload") from exc


class Codec(ABC):
    """A lossless transform between a chunk's columns and its payload bytes.

    The column methods are the implementation; :meth:`compress` and
    :meth:`decompress` adapt them to point lists.
    """

    name = "abstract"

    @abstractmethod
    def compress_columns(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        """Encode a chunk's timestamp and value columns into a payload."""

    @abstractmethod
    def decompress_columns(self, payload: bytes) -> Columns:
        """Recover the exact ``(timestamps, values)`` columns from a payload.

        Raises :class:`ChunkError` for a malformed or truncated payload.
        """

    def compress(self, points: Sequence[DataPoint]) -> bytes:
        """Encode a chunk's points into a compressed payload."""
        return self.compress_columns(*columns_from_points(points))

    def decompress(self, payload: bytes) -> List[DataPoint]:
        """Recover the exact point list from a compressed payload."""
        return points_from_columns(*self.decompress_columns(payload))


class NoneCodec(Codec):
    """Identity codec: serialization only."""

    name = "none"

    def compress_columns(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        return serialize_columns(timestamps, values)

    def decompress_columns(self, payload: bytes) -> Columns:
        return deserialize_columns(payload)


class ZlibCodec(Codec):
    """DEFLATE over the canonical serialization (the paper's default)."""

    name = "zlib"

    def __init__(self, level: int = 6) -> None:
        if not 0 <= level <= 9:
            raise ConfigurationError("zlib level must be between 0 and 9")
        self._level = level

    def compress_columns(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        return zlib.compress(serialize_columns(timestamps, values), self._level)

    def decompress_columns(self, payload: bytes) -> Columns:
        return deserialize_columns(_inflate(payload, self.name))


class DeltaCodec(Codec):
    """Delta-of-delta timestamps and delta values, zigzag/varint packed.

    Monitoring streams have near-constant sampling intervals, so the second
    difference of the timestamps is almost always zero and packs into a
    single byte; values are delta-encoded, which collapses slowly-varying
    metrics (CPU %, heart rate) dramatically.

    Layout: count, the first point's timestamp and value, then one
    (timestamp delta-of-delta, value delta) pair per further point — the
    first pair's delta-of-delta is the first delta itself.
    """

    name = "delta"

    def compress_columns(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        header = encode_varint(len(timestamps))
        if not timestamps:
            return header
        deltas = _differences(timestamps)
        try:
            return (
                header
                + encode_signed_varint(timestamps[0])
                + encode_signed_varint(values[0])
                + encode_signed_varints(
                    _interleave(deltas[:1] + _differences(deltas), _differences(values))
                )
            )
        except ValueError as exc:
            raise ChunkError(f"point outside the encodable range: {exc}") from exc

    def decompress_columns(self, payload: bytes) -> Columns:
        try:
            count, pos = decode_varint(payload, 0)
            if count == 0:
                return [], []
            first_timestamp, pos = decode_signed_varint(payload, pos)
            first_value, pos = decode_signed_varint(payload, pos)
            flat, _pos = decode_signed_varints(payload, pos, 2 * (count - 1))
        except ValueError as exc:
            raise ChunkError(f"malformed delta payload: {exc}") from exc
        # Two prefix sums undo the delta-of-delta, one undoes the value deltas.
        timestamps = list(accumulate(chain((first_timestamp,), accumulate(flat[0::2]))))
        values = list(accumulate(chain((first_value,), flat[1::2])))
        return timestamps, values


class DeltaZlibCodec(Codec):
    """Delta encoding followed by zlib."""

    name = "delta-zlib"

    def __init__(self, level: int = 6) -> None:
        self._delta = DeltaCodec()
        self._level = level

    def compress_columns(self, timestamps: Sequence[int], values: Sequence[int]) -> bytes:
        return zlib.compress(self._delta.compress_columns(timestamps, values), self._level)

    def decompress_columns(self, payload: bytes) -> Columns:
        return self._delta.decompress_columns(_inflate(payload, self.name))


_CODECS: Dict[str, Type[Codec]] = {
    NoneCodec.name: NoneCodec,
    ZlibCodec.name: ZlibCodec,
    DeltaCodec.name: DeltaCodec,
    DeltaZlibCodec.name: DeltaZlibCodec,
}


def available_codecs() -> Tuple[str, ...]:
    return tuple(sorted(_CODECS))


def get_codec(name: str) -> Codec:
    """Instantiate a codec by configuration name."""
    try:
        return _CODECS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown compression codec '{name}'; available: {', '.join(available_codecs())}"
        ) from None


def compression_ratio(points: Sequence[DataPoint], codec_name: str) -> float:
    """Ratio of raw serialized size to compressed size (>1 means smaller)."""
    timestamps, values = columns_from_points(points)
    raw = len(serialize_columns(timestamps, values))
    compressed = len(get_codec(codec_name).compress_columns(timestamps, values))
    return raw / compressed if compressed else float("inf")
