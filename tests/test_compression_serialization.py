"""Tests for compression codecs and the chunk/digest serialization formats."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.heac import HEACCiphertext
from repro.exceptions import ChunkError, ConfigurationError
from repro.timeseries.compression import (
    available_codecs,
    compression_ratio,
    deserialize_points,
    get_codec,
    serialize_points,
)
from repro.timeseries.point import DataPoint
from repro.timeseries.serialization import (
    EncryptedChunk,
    chunk_storage_key,
    decode_digest_vector,
    decode_encrypted_chunk,
    encode_digest_vector,
    encode_encrypted_chunk,
    index_node_storage_key,
    metadata_storage_key,
    peek_chunk_stream_uuid,
)

REGULAR_POINTS = [DataPoint(timestamp=1000 * i, value=500 + (i % 10)) for i in range(200)]


def _point_lists():
    return st.lists(
        st.tuples(st.integers(0, 2**40), st.integers(-(2**40), 2**40)),
        max_size=100,
    ).map(
        lambda pairs: [
            DataPoint(timestamp=t, value=v) for t, v in sorted(pairs, key=lambda p: p[0])
        ]
    )


class TestPointSerialization:
    def test_roundtrip_empty(self):
        assert deserialize_points(serialize_points([])) == []

    @given(_point_lists())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, points):
        assert deserialize_points(serialize_points(points)) == points


class TestCodecs:
    def test_available_codecs(self):
        assert set(available_codecs()) == {"none", "zlib", "delta", "delta-zlib"}

    def test_unknown_codec_rejected(self):
        with pytest.raises(ConfigurationError):
            get_codec("lz77")

    @pytest.mark.parametrize("name", ["none", "zlib", "delta", "delta-zlib"])
    def test_roundtrip_regular_series(self, name):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(REGULAR_POINTS)) == REGULAR_POINTS

    @pytest.mark.parametrize("name", ["none", "zlib", "delta", "delta-zlib"])
    def test_roundtrip_empty(self, name):
        codec = get_codec(name)
        assert codec.decompress(codec.compress([])) == []

    def test_regular_series_compresses(self):
        # The varint serialization is already compact, so zlib's win is modest;
        # the structure-aware delta codecs compress a regular series much harder.
        assert compression_ratio(REGULAR_POINTS, "zlib") > 1.2
        assert compression_ratio(REGULAR_POINTS, "delta") > 2.0
        assert compression_ratio(REGULAR_POINTS, "delta-zlib") > 2.0

    def test_delta_handles_negative_values(self):
        points = [DataPoint(i * 10, (-1) ** i * i * 100) for i in range(50)]
        codec = get_codec("delta")
        assert codec.decompress(codec.compress(points)) == points

    def test_corrupt_zlib_payload_rejected(self):
        with pytest.raises(ChunkError):
            get_codec("zlib").decompress(b"not zlib data")
        with pytest.raises(ChunkError):
            get_codec("delta-zlib").decompress(b"not zlib data")

    def test_zlib_level_validation(self):
        from repro.timeseries.compression import ZlibCodec

        with pytest.raises(ConfigurationError):
            ZlibCodec(level=11)

    @pytest.mark.parametrize("name", ["none", "zlib", "delta", "delta-zlib"])
    @given(points=_point_lists())
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, name, points):
        codec = get_codec(name)
        assert codec.decompress(codec.compress(points)) == points


class TestDigestVectorSerialization:
    def _cells(self):
        return [
            HEACCiphertext(value=12345, window_start=7, window_end=8),
            HEACCiphertext(value=2**63, window_start=7, window_end=8),
        ]

    def test_roundtrip(self):
        cells = self._cells()
        assert decode_digest_vector(encode_digest_vector(cells)) == cells

    def test_empty_vector(self):
        assert decode_digest_vector(encode_digest_vector([])) == []

    def test_bad_magic_rejected(self):
        with pytest.raises(ChunkError):
            decode_digest_vector(b"XXXX\x00")

    def test_truncated_rejected(self):
        blob = encode_digest_vector(self._cells())
        with pytest.raises(ChunkError):
            decode_digest_vector(blob[: len(blob) // 2])

    def test_every_cut_point_raises_chunk_error(self):
        blob = encode_digest_vector(self._cells())
        for cut in range(len(blob)):
            with pytest.raises(ChunkError):
                decode_digest_vector(blob[:cut])

    def test_hostile_interval_raises_chunk_error(self):
        blob = bytearray(encode_digest_vector(self._cells()[:1]))
        assert blob[-2:] == b"\x07\x08"
        for window_start, window_end in ((8, 8), (9, 8)):  # empty, reversed
            blob[-2:] = bytes([window_start, window_end])
            with pytest.raises(ChunkError):
                decode_digest_vector(bytes(blob))

    @given(
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**30)),
            max_size=20,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, raw):
        cells = [
            HEACCiphertext(value=value, window_start=start, window_end=start + 1)
            for value, start in raw
        ]
        assert decode_digest_vector(encode_digest_vector(cells)) == cells


class TestEncryptedChunkSerialization:
    def _chunk(self) -> EncryptedChunk:
        return EncryptedChunk(
            stream_uuid="stream-abc",
            window_index=42,
            payload=b"\x01\x02\x03 encrypted payload bytes",
            digest=[HEACCiphertext(value=99, window_start=42, window_end=43)],
            num_points=17,
        )

    def test_roundtrip(self):
        chunk = self._chunk()
        decoded = decode_encrypted_chunk(encode_encrypted_chunk(chunk))
        assert decoded == chunk

    def test_bad_magic_rejected(self):
        with pytest.raises(ChunkError):
            decode_encrypted_chunk(b"NOPE" + b"\x00" * 10)

    def test_truncated_payload_rejected(self):
        blob = encode_encrypted_chunk(self._chunk())
        with pytest.raises(ChunkError):
            decode_encrypted_chunk(blob[:-5])

    def test_every_cut_point_raises_chunk_error(self):
        blob = encode_encrypted_chunk(self._chunk())
        for cut in range(len(blob)):
            with pytest.raises(ChunkError):
                decode_encrypted_chunk(blob[:cut])
            with pytest.raises(ChunkError):
                decode_encrypted_chunk(memoryview(blob)[:cut])
        assert decode_encrypted_chunk(memoryview(blob)) == self._chunk()

    def test_undecodable_uuid_raises_chunk_error(self):
        blob = bytearray(encode_encrypted_chunk(self._chunk()))
        blob[5] = 0xFF  # first uuid byte: not valid UTF-8
        with pytest.raises(ChunkError):
            decode_encrypted_chunk(bytes(blob))
        with pytest.raises(ChunkError):
            peek_chunk_stream_uuid(bytes(blob))

    def test_peek_uuid_cut_points_raise_chunk_error(self):
        blob = encode_encrypted_chunk(self._chunk())
        uuid_end = 5 + len("stream-abc")
        for cut in range(uuid_end):
            with pytest.raises(ChunkError):
                peek_chunk_stream_uuid(blob[:cut])
        assert peek_chunk_stream_uuid(blob[:uuid_end]) == "stream-abc"

    def test_size_accounting(self):
        chunk = self._chunk()
        assert chunk.size_bytes == len(chunk.payload) + 8


class TestStorageKeys:
    def test_chunk_keys_sort_by_window(self):
        keys = [chunk_storage_key("s", w) for w in (0, 1, 255, 65536)]
        assert keys == sorted(keys)

    def test_keys_are_namespaced(self):
        assert chunk_storage_key("s", 0).startswith(b"chunk/s/")
        assert index_node_storage_key("s", 2, 5).startswith(b"index/s/02/")
        assert metadata_storage_key("s") == b"meta/s"

    def test_different_streams_do_not_collide(self):
        assert chunk_storage_key("a", 0) != chunk_storage_key("b", 0)
