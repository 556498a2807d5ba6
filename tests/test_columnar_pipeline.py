"""The columnar chunk pipeline against per-point reference implementations.

Every client-side stage (varint packing, point codecs, digest, window split)
works on whole columns.  The scalar, one-point-at-a-time algorithms they
replaced live on *here only*, as the references the bulk code is compared
with, next to golden payloads written by the parent commit
(``tests/fixtures/codec/golden_payloads.json``: each case's points and the
bytes the per-point codecs produced for them) — at-rest chunks must decode
and new chunks must be byte-identical.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
import zlib
from dataclasses import make_dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.client.reader as reader_module
import repro.core.plaintext as plaintext_module
from repro import PlaintextTimeSeriesStore, ServerEngine, TimeCrypt
from repro.client.keymanager import OwnerKeyManager
from repro.client.reader import ConsumerReader
from repro.client.writer import StreamWriter
from repro.crypto.gcm import aead_encrypt
from repro.crypto.heac import HEACCipher
from repro.crypto.keytree import KeyDerivationTree
from repro.exceptions import AccessDeniedError, ChunkError, ConfigurationError, OutOfOrderError, QueryError
from repro.timeseries.chunk import Chunk, ChunkBuilder
from repro.timeseries.compression import available_codecs, deserialize_points, get_codec, serialize_points
from repro.timeseries.digest import Digest, DigestConfig, HistogramConfig
from repro.timeseries.point import (
    DataPoint,
    clip_columns,
    columns_from_records,
    encode_value,
    points_from_columns,
)
from repro.timeseries.serialization import EncryptedChunk
from repro.timeseries.stream import StreamConfig
from repro.util.encoding import decode_varint, encode_signed_varint, encode_varint
from repro.util.timeutil import TimeRange

CODECS = ("none", "zlib", "delta", "delta-zlib")
GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "codec" / "golden_payloads.json").read_text()
)


# -- per-point references (the algorithms the bulk passes replaced) ---------------------


#: The frozen, ordered dataclass ``DataPoint`` was before it became a named tuple.
_DataclassPoint = make_dataclass("DataPoint", [("timestamp", int), ("value", int)], frozen=True, order=True)


def reference_serialize(points: Sequence[DataPoint]) -> bytes:
    out = bytearray(encode_varint(len(points)))
    for point in points:
        out += encode_signed_varint(point.timestamp)
        out += encode_signed_varint(point.value)
    return bytes(out)


def reference_delta(points: Sequence[DataPoint]) -> bytes:
    out = bytearray(encode_varint(len(points)))
    if not points:
        return bytes(out)
    first = points[0]
    out += encode_signed_varint(first.timestamp)
    out += encode_signed_varint(first.value)
    previous_ts, previous_delta, previous_value = first.timestamp, 0, first.value
    for point in points[1:]:
        delta = point.timestamp - previous_ts
        out += encode_signed_varint(delta - previous_delta)
        out += encode_signed_varint(point.value - previous_value)
        previous_delta, previous_ts, previous_value = delta, point.timestamp, point.value
    return bytes(out)


def reference_payload(codec_name: str, points: Sequence[DataPoint]) -> bytes:
    body = reference_delta(points) if codec_name.startswith("delta") else reference_serialize(points)
    return zlib.compress(body, 6) if codec_name.endswith("zlib") else body


def reference_digest(config: DigestConfig, values: Sequence[int]) -> List[int]:
    cells = [0] * config.width
    for value in values:
        offset = 0
        if config.include_sum:
            cells[offset] += value
            offset += 1
        if config.include_count:
            cells[offset] += 1
            offset += 1
        if config.include_sum_of_squares:
            cells[offset] += value * value
            offset += 1
        if config.histogram.num_bins:
            bin_index = len(config.histogram.boundaries)
            for index, edge in enumerate(config.histogram.boundaries):
                if value < edge:
                    bin_index = index
                    break
            cells[offset + bin_index] += 1
    return cells


class ReferenceBuilder:
    """The per-point window split: one ``append`` per point, chunks as plain tuples."""

    def __init__(self, config: StreamConfig, emit_empty_chunks: bool = True) -> None:
        self.config = config
        self.emit_empty_chunks = emit_empty_chunks
        self.window: Optional[int] = None
        self.points: List[DataPoint] = []

    def _close(self, window: int, points: List[DataPoint]) -> Tuple[int, List[DataPoint], List[int]]:
        return window, points, reference_digest(self.config.digest, [p.value for p in points])

    def extend(self, points: Sequence[DataPoint]) -> list:
        completed = []
        for point in points:
            window = self.config.window_of(point.timestamp)
            if self.window is None:
                self.window = window
            elif window != self.window:
                completed.append(self._close(self.window, self.points))
                if self.emit_empty_chunks:
                    completed.extend(self._close(w, []) for w in range(self.window + 1, window))
                self.window, self.points = window, []
            self.points.append(point)
        return completed

    def flush(self) -> list:
        if self.window is None:
            return []
        closed = [self._close(self.window, self.points)]
        self.window, self.points = None, []
        return closed


def summarise(chunks: Sequence[Chunk]) -> list:
    return [(chunk.window_index, chunk.points, chunk.digest.values) for chunk in chunks]


def _sorted_points(max_size: int = 120, span: int = 2**40):
    return st.lists(
        st.tuples(st.integers(0, span), st.integers(-(2**40), 2**40)), max_size=max_size
    ).map(lambda pairs: [DataPoint(t, v) for t, v in sorted(pairs, key=lambda pair: pair[0])])


# -- byte identity with the parent commit ---------------------------------------------------


def _golden_cases():
    for case_name, case in GOLDEN["cases"].items():
        points = [DataPoint(t, v) for t, v in case["points"]]
        for codec_name in CODECS:
            yield pytest.param(
                codec_name, points, bytes.fromhex(case["payloads"][codec_name]), id=f"{case_name}-{codec_name}"
            )


class TestGoldenPayloads:
    def test_fixture_covers_every_codec(self):
        assert set(available_codecs()) == set(CODECS)
        assert len(GOLDEN["cases"]) == 6

    @pytest.mark.parametrize("codec_name,points,blob", _golden_cases())
    def test_parent_payload_decodes(self, codec_name, points, blob):
        codec = get_codec(codec_name)
        assert codec.decompress(blob) == points
        timestamps, values = codec.decompress_columns(blob)
        assert (list(timestamps), list(values)) == ([p.timestamp for p in points], [p.value for p in points])

    @pytest.mark.parametrize("codec_name,points,blob", _golden_cases())
    def test_encode_is_byte_identical_to_parent(self, codec_name, points, blob):
        codec = get_codec(codec_name)
        encoded = codec.compress(points)
        if codec_name.endswith("zlib"):
            # The deflate stream depends on the zlib build; our bytes are the
            # inflated body, which must match, and deflating it here must
            # give what we emit.
            body = zlib.decompress(blob)
            assert zlib.decompress(encoded) == body
            assert encoded == zlib.compress(body, 6)
            if zlib.compress(body, 6) != blob:
                pytest.skip("this zlib build deflates differently from the fixture's")
        assert encoded == blob
        assert codec.compress_columns([p.timestamp for p in points], [p.value for p in points]) == blob

    @pytest.mark.parametrize("entry", GOLDEN["varint_lists"], ids=lambda entry: str(len(entry["values"])))
    def test_varint_lists_match_parent(self, entry):
        from repro.util.encoding import pack_varint_list, unpack_varint_list

        packed = bytes.fromhex(entry["packed"])
        assert pack_varint_list(entry["values"]) == packed
        assert unpack_varint_list(packed) == (entry["values"], len(packed))


class TestCodecDifferential:
    @pytest.mark.parametrize("codec_name", CODECS)
    @given(points=_sorted_points())
    @settings(max_examples=60, deadline=None)
    def test_bulk_codec_equals_per_point_reference(self, codec_name, points):
        codec = get_codec(codec_name)
        payload = codec.compress(points)
        assert payload == reference_payload(codec_name, points)
        assert codec.decompress(payload) == points

    @given(points=_sorted_points(span=2**12))
    @settings(max_examples=60, deadline=None)
    def test_small_deltas_take_the_single_byte_path(self, points):
        # Dense timestamps and tiny values: most chunks are all single-byte
        # varints after the head, the path regular sampling hits.
        points = [DataPoint(p.timestamp, p.value % 50) for p in points]
        for codec_name in CODECS:
            assert get_codec(codec_name).compress(points) == reference_payload(codec_name, points)

    def test_serialize_points_adapters(self):
        points = [DataPoint(5, -3), DataPoint(5, 2**45), DataPoint(900, 0)]
        assert serialize_points(points) == reference_serialize(points)
        assert deserialize_points(reference_serialize(points)) == points

    @pytest.mark.parametrize("codec_name", CODECS)
    def test_unencodable_value_is_a_chunk_error(self, codec_name):
        codec = get_codec(codec_name)
        with pytest.raises(ChunkError):
            codec.compress([DataPoint(0, 1 << 69)])
        with pytest.raises(ChunkError):
            codec.compress([DataPoint(0, 0), DataPoint(1, 0), DataPoint(2, -(1 << 69) - 1)])


class TestTruncatedPayloads:
    """Every cut of a point payload is a ChunkError — never a ValueError, never points."""

    POINTS = [DataPoint(1_000_000 + 20 * i, (-1) ** i * (i * 37 % 300)) for i in range(40)]

    @pytest.mark.parametrize("codec_name", CODECS)
    def test_every_cut_point_raises_chunk_error(self, codec_name):
        codec = get_codec(codec_name)
        payload = codec.compress(self.POINTS)
        assert codec.decompress(payload) == self.POINTS
        for cut in range(len(payload)):
            with pytest.raises(ChunkError):
                codec.decompress(payload[:cut])
            with pytest.raises(ChunkError):
                codec.decompress_columns(payload[:cut])

    @pytest.mark.parametrize("codec_name", ["zlib", "delta-zlib"])
    def test_every_cut_of_the_inflated_body_raises_chunk_error(self, codec_name):
        codec = get_codec(codec_name)
        body = zlib.decompress(codec.compress(self.POINTS))
        for cut in range(len(body)):
            with pytest.raises(ChunkError):
                codec.decompress(zlib.compress(body[:cut]))

    @pytest.mark.parametrize("codec_name", CODECS)
    def test_trailing_bytes_are_tolerated(self, codec_name):
        body = reference_payload(codec_name.replace("-zlib", "").replace("zlib", "none"), self.POINTS)
        for tail in (b"\x00", b"\x05\x06\x07", b"\x80", b"\xff\xff"):
            padded = body + tail
            payload = zlib.compress(padded) if codec_name.endswith("zlib") else padded
            assert get_codec(codec_name).decompress(payload) == self.POINTS

    @pytest.mark.parametrize("codec_name", CODECS)
    def test_hostile_count_is_rejected_before_allocating(self, codec_name):
        # Claims 2^60 points, carries three.
        body = encode_varint(1 << 60) + reference_payload("none", self.POINTS[:3])[1:]
        payload = zlib.compress(body) if codec_name.endswith("zlib") else body
        with pytest.raises(ChunkError):
            get_codec(codec_name).decompress(payload)

    def test_overlong_varint_is_a_chunk_error(self):
        body = encode_varint(1) + b"\xff" * 10 + b"\x01" + b"\x00"
        for codec_name in ("none", "delta"):
            with pytest.raises(ChunkError):
                get_codec(codec_name).decompress(body)


# -- digest ------------------------------------------------------------------------------------

EDGES = (10, 20, 30)
DIGEST_SHAPES = [
    DigestConfig(include_sum=s, include_count=c, include_sum_of_squares=q, histogram=HistogramConfig(h))
    for s in (True, False)
    for c in (True, False)
    for q in (True, False)
    for h in ((), EDGES, (0,))
]


class TestDigestOfValues:
    @pytest.mark.parametrize("config", DIGEST_SHAPES, ids=lambda c: "".join(c.component_names) or "empty")
    def test_every_shape_matches_the_per_point_reference(self, config):
        for values in ([], [10], [9, 10, 11, 19, 20, 29, 30, 31], [-5, 0, 0, 7, 2**62, -(2**62)], list(range(-40, 60))):
            digest = Digest.of_values(config, values)
            assert digest.values == reference_digest(config, values)
            assert Digest.of_points(config, [DataPoint(i, v) for i, v in enumerate(values)]).values == digest.values
            assert len(digest.values) == config.width

    def test_value_exactly_on_a_bin_edge_goes_up(self):
        histogram = HistogramConfig(EDGES)
        assert histogram.bin_counts([10, 20, 30]) == [0, 1, 1, 1]
        assert histogram.bin_counts([9, 19, 29]) == [1, 1, 1, 0]
        assert [histogram.bin_of(v) for v in (9, 10, 19, 20, 29, 30)] == [0, 1, 1, 2, 2, 3]

    @given(st.lists(st.integers(-(2**40), 2**40), max_size=80), st.lists(st.integers(-100, 100), max_size=6, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_property(self, values, edges):
        config = DigestConfig(histogram=HistogramConfig(tuple(sorted(edges))))
        assert Digest.of_values(config, values).values == reference_digest(config, values)

    def test_add_point_accumulates_in_place(self):
        config = DigestConfig(histogram=HistogramConfig(EDGES))
        digest = Digest.zero(config)
        cells = digest.values
        for value in (5, 10, 35):
            digest.add_point(DataPoint(0, value))
        assert cells is digest.values
        assert digest.values == reference_digest(config, [5, 10, 35])

    def test_of_values_accepts_tuples_and_does_not_keep_the_column(self):
        values = (1, 2, 3)
        digest = Digest.of_values(DigestConfig(), values)
        assert digest.values == [6, 3, 14]
        assert all(cell is not values for cell in vars(digest).values())


# -- window split --------------------------------------------------------------------------------

SPLIT_CONFIG = StreamConfig(
    chunk_interval=100, digest=DigestConfig(histogram=HistogramConfig((0, 50))), compression="delta"
)


SPLIT_CONFIG_RANGE = TimeRange(0, 100)


def _run_both(points: Sequence[DataPoint], batch_sizes: Sequence[int], emit_empty_chunks: bool = True):
    """Feed ``points`` in batches of the given sizes to the builder and the reference."""
    builder = ChunkBuilder(config=SPLIT_CONFIG, emit_empty_chunks=emit_empty_chunks)
    reference = ReferenceBuilder(SPLIT_CONFIG, emit_empty_chunks)
    got, expected, position = [], [], 0
    sizes = list(batch_sizes) + [len(points)]
    for size in sizes:
        batch = points[position : position + size]
        position += size
        got.extend(summarise(builder.extend(batch)))
        expected.extend(reference.extend(batch))
    got.extend(summarise(builder.flush()))
    expected.extend(reference.flush())
    return got, expected


class TestBuilderEquivalence:
    def test_gap_windows_are_emitted_empty(self):
        points = [DataPoint(10, 1), DataPoint(20, 2), DataPoint(450, 3), DataPoint(1299, 4), DataPoint(1300, 5)]
        got, expected = _run_both(points, [])
        assert got == expected
        assert [window for window, _points, _digest in got] == list(range(14))
        assert [len(pts) for _w, pts, _d in got] == [2, 0, 0, 0, 1] + [0] * 7 + [1, 1]

    def test_gaps_are_skipped_when_empty_chunks_are_off(self):
        points = [DataPoint(10, 1), DataPoint(450, 3), DataPoint(1300, 5)]
        got, expected = _run_both(points, [1, 1], emit_empty_chunks=False)
        assert got == expected
        assert [window for window, _points, _digest in got] == [0, 4, 13]

    def test_batches_straddling_an_open_chunk(self):
        points = [DataPoint(t, t % 7 - 3) for t in range(0, 1000, 9)]
        for sizes in ([5], [11, 11, 11], [12, 1, 1, 30], [0, 3, 0, 50]):
            got, expected = _run_both(points, sizes)
            assert got == expected
        assert sum(len(pts) for _w, pts, _d in got) == len(points)

    def test_duplicate_timestamps_on_a_window_edge(self):
        points = [DataPoint(99, 1), DataPoint(100, 2), DataPoint(100, 3), DataPoint(100, 4), DataPoint(200, 5)]
        for sizes in ([], [1], [2], [3], [2, 1]):
            got, expected = _run_both(points, sizes)
            assert got == expected

    @given(
        st.lists(st.tuples(st.integers(0, 400), st.integers(-100, 100)), max_size=60),
        st.lists(st.integers(0, 20), max_size=8),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_batching_equals_per_point_appends(self, steps, sizes, emit_empty_chunks):
        points, now = [], 0
        for step, value in steps:
            now += step
            points.append(DataPoint(now, value))
        got, expected = _run_both(points, sizes, emit_empty_chunks)
        assert got == expected

    def test_append_is_the_single_row_batch(self):
        points = [DataPoint(t, t) for t in (0, 50, 150, 420)]
        one_by_one = ChunkBuilder(config=SPLIT_CONFIG)
        chunks = [chunk for point in points for chunk in one_by_one.append(point)] + one_by_one.flush()
        got, _expected = _run_both(points, [])
        assert summarise(chunks) == got

    def test_callers_columns_are_not_aliased(self):
        builder = ChunkBuilder(config=SPLIT_CONFIG)
        timestamps, values = [1, 2, 3], [10, 20, 30]
        assert builder.extend_columns(timestamps, values) == []
        timestamps.append(99)
        values.clear()
        assert builder.extend_columns([4], [40]) == []
        (chunk,) = builder.flush()
        assert chunk.points == [DataPoint(1, 10), DataPoint(2, 20), DataPoint(3, 30), DataPoint(4, 40)]
        assert timestamps == [1, 2, 3, 99]


class TestBadBatchLeavesNoTrace:
    """A rejected batch must not advance the builder or lose completed chunks."""

    CONFIG = StreamConfig(chunk_interval=100, compression="delta")
    GOOD = [DataPoint(0, 1), DataPoint(150, 2), DataPoint(250, 3)]

    def test_out_of_order_mid_batch_keeps_the_builder_unchanged(self):
        builder = ChunkBuilder(config=self.CONFIG)
        with pytest.raises(OutOfOrderError):
            builder.extend(self.GOOD + [DataPoint(10, 4)])
        assert builder.flush() == []  # nothing was taken, not even the valid prefix
        chunks = builder.extend(self.GOOD) + builder.flush()
        assert [chunk.window_index for chunk in chunks] == [0, 1, 2]
        assert [chunk.points for chunk in chunks] == [[p] for p in self.GOOD]

    def test_batch_older_than_the_stream_position_is_rejected_whole(self):
        builder = ChunkBuilder(config=self.CONFIG)
        builder.extend(self.GOOD)
        for bad in ([DataPoint(249, 0)], [DataPoint(249, 0), DataPoint(900, 0)], [DataPoint(300, 0), DataPoint(299, 0)]):
            with pytest.raises(OutOfOrderError):
                builder.extend(bad)
        assert builder.extend([DataPoint(250, 9)]) == []  # equal timestamps stay legal
        (last,) = builder.flush()
        assert last.window_index == 2 and last.points == [DataPoint(250, 3), DataPoint(250, 9)]

    def test_batch_before_the_stream_start_is_rejected_whole(self):
        builder = ChunkBuilder(config=StreamConfig(chunk_interval=100, start_time=1000))
        with pytest.raises(ConfigurationError):
            builder.extend([DataPoint(999, 1), DataPoint(1001, 2)])
        assert builder.extend([DataPoint(1000, 1)]) == []
        assert builder.flush()[0].points == [DataPoint(1000, 1)]

    def test_stream_writer_counts_and_sinks_nothing_for_a_bad_batch(self):
        delivered: list = []
        keys = OwnerKeyManager(stream_uuid="s", config=self.CONFIG)
        writer = StreamWriter(
            stream_uuid="s",
            config=keys.config,
            cipher=keys.heac_cipher(),
            sink=delivered.append,
            batch_sink=delivered.extend,
        )
        with pytest.raises(OutOfOrderError):
            writer.extend(self.GOOD + [DataPoint(10, 4)])
        with pytest.raises(OutOfOrderError):
            writer.extend_records([(0, 1.0), (150, 2.0), (250, 3.0), (10, 4.0)])
        assert (writer.chunks_written, writer.records_written, delivered) == (0, 0, [])
        writer.extend(self.GOOD)
        writer.flush()
        assert (writer.chunks_written, writer.records_written) == (3, 3)
        assert [chunk.window_index for chunk in delivered] == [0, 1, 2]


# -- records, points and clipping -----------------------------------------------------------------


class TestRecordsAndPoints:
    def test_extend_records_equals_the_per_point_encoding(self):
        config = StreamConfig(chunk_interval=100, value_scale=100)
        records = [(t, 36.6 + (t % 13) / 7) for t in range(0, 1000, 3)]
        from_records = ChunkBuilder(config=config)
        from_points = ChunkBuilder(config=config)
        got = from_records.extend_records(iter(records)) + from_records.flush()
        expected = from_points.extend(DataPoint(t, encode_value(v, 100)) for t, v in records) + from_points.flush()
        assert summarise(got) == summarise(expected)
        assert from_records.extend_records([]) == []

    def test_records_keep_datapoint_validation(self):
        builder = ChunkBuilder(config=StreamConfig(chunk_interval=100))
        for bad in ([(0, 1.0), (1.5, 2.0)], [("7", 1.0)]):
            with pytest.raises(TypeError):
                builder.extend_records(bad)
        assert builder.flush() == []
        assert builder.extend_records([(True, 1.0)]) == []  # bool is an int, as for DataPoint
        with pytest.raises(ValueError):
            columns_from_records([(0, 1.0)], scale=0)

    def test_trusted_points_are_ordinary_points(self):
        timestamps, values = [3, 1, 2], [30, -10, 2**70]
        trusted = points_from_columns(timestamps, values)
        built = [DataPoint(t, v) for t, v in zip(timestamps, values)]
        assert trusted == built and [hash(p) for p in trusted] == [hash(p) for p in built]
        assert sorted(trusted) == sorted(built) and repr(trusted[0]) == repr(built[0])
        assert all(type(p) is DataPoint for p in trusted)
        with pytest.raises(AttributeError):
            trusted[0].value = 5  # still frozen
        # Hash, equality, ordering and repr are those of the dataclass the
        # tuple-backed type replaced.
        dataclass_points = [_DataclassPoint(t, v) for t, v in zip(timestamps, values)]
        assert [hash(p) for p in trusted] == [hash(p) for p in dataclass_points]
        assert [repr(p) for p in trusted] == [repr(p) for p in dataclass_points]
        assert [(p.timestamp, p.value) for p in sorted(trusted)] == [
            (p.timestamp, p.value) for p in sorted(dataclass_points)
        ]
        for left, right in zip(trusted, dataclass_points):
            for other, old in zip(trusted, dataclass_points):
                assert (left == other, left < other, left <= other) == (right == old, right < old, right <= old)
        # The one visible change: a point is its (timestamp, value) pair.
        assert DataPoint(1, 2) == (1, 2) and tuple(trusted[0]) == (3, 30)
        timestamp, value = trusted[1]
        assert (timestamp, value) == (1, -10)
        # Copies go back through the validating constructor.
        for point in trusted:
            for clone in (pickle.loads(pickle.dumps(point)), copy.copy(point), copy.deepcopy(point)):
                assert clone == point and type(clone) is DataPoint
        assert trusted[0]._replace(value=7) == DataPoint(3, 7) and DataPoint._make((4, 5)) == (4, 5)
        for rebuild in (lambda: trusted[0]._replace(value=7.5), lambda: DataPoint._make((4.0, 5))):
            with pytest.raises(TypeError):
                rebuild()
        smuggled = tuple.__new__(DataPoint, (1.5, 2))
        for revive in (lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy):
            with pytest.raises(TypeError):
                revive(smuggled)
        for bad in ((1.0, 2), (1, 2.0), ("1", 2)):
            with pytest.raises(TypeError):
                DataPoint(*bad)

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc for resident-set size")
    def test_trusted_points_are_as_small_as_constructed_ones(self):
        # Callers keep decoded ranges alive, so the trusted constructor must
        # not cost resident memory (a point that grows a per-instance dict
        # takes 3x).  Measured in a fresh interpreter: nothing has
        # constructed a DataPoint before.
        script = """
import os, sys
from repro.timeseries.point import DataPoint, points_from_columns
def resident():
    return int(open('/proc/self/statm').read().split()[1]) * os.sysconf('SC_PAGE_SIZE')
n = 200_000
timestamps, values = list(range(n)), list(range(1000, 1000 + n))
before = resident(); trusted = points_from_columns(timestamps, values); middle = resident()
built = [DataPoint(t, v) for t, v in zip(timestamps, values)]
print((middle - before) / n, (resident() - middle) / n)
"""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        trusted_bytes, built_bytes = map(float, done.stdout.split())
        assert trusted_bytes <= 1.3 * built_bytes, (trusted_bytes, built_bytes)

    def test_chunk_points_are_materialised_once_from_the_columns(self):
        chunk = Chunk.of_points(0, SPLIT_CONFIG_RANGE, [DataPoint(20, 2), DataPoint(10, 1)], DigestConfig())
        assert (list(chunk.timestamps), list(chunk.values)) == ([10, 20], [1, 2])
        assert chunk.points == [DataPoint(10, 1), DataPoint(20, 2)]
        assert chunk.points is chunk.points
        assert chunk.num_points == 2

    def test_chunk_rejects_columns_outside_its_window(self):
        for timestamps in ([100], [0, 100], [-1, 50]):
            with pytest.raises(ChunkError):
                Chunk.of_columns(0, SPLIT_CONFIG_RANGE, timestamps, [0] * len(timestamps), DigestConfig())
        with pytest.raises(ChunkError):
            Chunk.of_columns(0, SPLIT_CONFIG_RANGE, [1, 2], [0], DigestConfig())

    def test_clip_columns(self):
        timestamps, values = [10, 20, 20, 30, 40], [1, 2, 3, 4, 5]
        assert clip_columns(timestamps, values, 20, 40) == ([20, 20, 30], [2, 3, 4])
        assert clip_columns(timestamps, values, 0, 100) == (timestamps, values)
        assert clip_columns(timestamps, values, 41, 100) == ([], [])
        assert clip_columns(timestamps, values, 30, 20) == ([], [])


class TestRangeReads:
    CONFIG = StreamConfig(chunk_interval=100, value_scale=10, compression="delta-zlib")
    RECORDS = [(t, (t % 17) / 2) for t in range(0, 1000, 7)]

    def _stores(self):
        owner = TimeCrypt(server=ServerEngine())
        uuid = owner.create_stream(config=self.CONFIG)
        plain = PlaintextTimeSeriesStore()
        plain.create_stream(config=self.CONFIG, uuid=uuid)
        for store in (owner, plain):
            store.insert_records(uuid, self.RECORDS)
            store.flush(uuid)
        return owner, plain, uuid

    def test_clipped_reads_equal_the_filtered_oracle(self):
        owner, plain, uuid = self._stores()
        everything = [DataPoint(t, encode_value(v, 10)) for t, v in self.RECORDS]
        for start, end in ((0, 1000), (0, 1), (7, 8), (95, 305), (100, 200), (101, 199), (350, 350), (993, 5000)):
            expected = [p for p in everything if start <= p.timestamp < end]
            assert owner.get_range(uuid, start, end) == expected
            assert plain.get_range(uuid, start, end) == expected

    def test_points_read_back_are_not_records(self):
        # A point's value is already fixed-point: re-inserting a read answer
        # as records would scale it by value_scale a second time.
        owner, plain, uuid = self._stores()
        for store in (owner, plain):
            points = store.get_range(uuid, 0, 300)
            moved = [DataPoint(p.timestamp + 1000, p.value) for p in points]
            with pytest.raises(TypeError, match="insert_points"):
                store.insert_records(uuid, moved)
            store.insert_points(uuid, moved)
            store.flush(uuid)
            assert store.get_range(uuid, 1000, 1300) == moved

    def test_decrypt_range_without_bounds_returns_every_point(self):
        owner, _plain, uuid = self._stores()
        chunks = owner.server.get_range(uuid, TimeRange(100, 300))
        reader = owner.owner_reader(uuid)
        points = reader.decrypt_range(chunks)
        assert points == [p for chunk in chunks for p in reader.decrypt_chunk(chunk)]
        assert reader.decrypt_range(chunks, 150, 250) == [p for p in points if 150 <= p.timestamp < 250]

    def test_codec_is_resolved_once_per_binding(self, monkeypatch):
        calls = []

        def counting(name, real=get_codec):
            calls.append(name)
            return real(name)

        monkeypatch.setattr(reader_module, "get_codec", counting)
        monkeypatch.setattr(plaintext_module, "get_codec", counting)
        owner, plain, uuid = self._stores()
        assert calls == ["delta-zlib"]  # the plaintext stream; the writer binds its own
        reader = owner.owner_reader(uuid)
        chunks = owner.server.get_range(uuid, TimeRange(0, 1000))
        assert len(chunks) == 10
        reader.decrypt_range(chunks)
        plain.get_range(uuid, 0, 1000)
        plain.insert_records(uuid, [(2000, 1.0), (2100, 1.0)])
        assert calls == ["delta-zlib", "delta-zlib"]  # + one reader, however many chunks


class _CountingKeystream:
    """A key tree that counts the keystream positions asked of it.

    A batch larger than ``limit`` fails before anything is derived, so a
    reader that would walk every window between two far-apart chunks fails
    fast instead of deriving 2^29 leaves.
    """

    def __init__(self, inner: KeyDerivationTree, limit: int) -> None:
        self._inner = inner
        self._limit = limit
        self.derived = 0

    def leaf(self, index: int) -> bytes:
        self.derived += 1
        return self._inner.leaf(index)

    def leaves(self, indices: Sequence[int]) -> List[bytes]:
        assert len(indices) <= self._limit, f"asked for {len(indices)} leaves"
        self.derived += len(indices)
        return self._inner.leaves(indices)


class TestHostileRangeAnswers:
    """The server picks which chunks a range answer holds and in what order."""

    CONFIG = StreamConfig(chunk_interval=100, compression="delta-zlib")
    UUID = "hostile-range"
    FAR = 1 << 29  # 2^29 windows from window 0, inside the 2^30-leaf tree
    TREE = KeyDerivationTree(seed=bytes(range(16)), height=CONFIG.key_tree_height)

    def _chunk(self, window: int) -> EncryptedChunk:
        timestamps = [window * 100 + offset for offset in (0, 30, 60)]
        values = [window % 7, -3, 1 << 40]
        payload = aead_encrypt(
            HEACCipher(self.TREE).chunk_payload_key(window),
            get_codec(self.CONFIG.compression).compress_columns(timestamps, values),
            f"{self.UUID}:{window}".encode(),
        )
        return EncryptedChunk(self.UUID, window, payload, digest=[], num_points=len(timestamps))

    def _reader(self, limit: int, **scope) -> Tuple[ConsumerReader, _CountingKeystream]:
        keystream = _CountingKeystream(self.TREE, limit)
        return ConsumerReader(self.UUID, self.CONFIG, keystream, **scope), keystream

    def test_far_apart_chunks_cost_two_leaves_each(self):
        windows = [0, 3, self.FAR]
        chunks = [self._chunk(window) for window in windows]
        reader, keystream = self._reader(limit=2 * len(chunks))
        expected = [
            DataPoint(window * 100 + offset, value)
            for window in windows
            for offset, value in zip((0, 30, 60), (window % 7, -3, 1 << 40))
        ]
        assert reader.decrypt_range(chunks) == expected
        assert keystream.derived <= 2 * len(chunks)
        keystream.derived = 0
        assert reader.decrypt_range(chunks, 330, self.FAR * 100 + 31) == expected[4:8]
        assert keystream.derived <= 2 * len(chunks)
        assert [reader.decrypt_chunk(chunk) for chunk in chunks] == [expected[:3], expected[3:6], expected[6:]]

    @pytest.mark.parametrize(
        "windows", [[0, 0], [3, 0], [0, 1 << 29, 3], [2, 3, 3]], ids=["duplicate", "reversed", "unsorted", "repeated-tail"]
    )
    def test_duplicated_or_reordered_chunks_are_refused(self, windows):
        reader, keystream = self._reader(limit=2 * len(windows))
        with pytest.raises(QueryError, match="strictly increasing"):
            reader.decrypt_range([self._chunk(window) for window in windows])
        assert keystream.derived == 0

    def test_restricted_or_out_of_scope_readers_are_denied(self):
        chunks = [self._chunk(window) for window in (0, 3, self.FAR)]
        for scope in ({"resolution_chunks": 4}, {"window_start": 1}, {"window_end": self.FAR}):
            reader, keystream = self._reader(limit=2 * len(chunks), **scope)
            with pytest.raises(AccessDeniedError):
                reader.decrypt_range(chunks)
            assert keystream.derived == 0
            # An empty answer holds no raw data, so every reader gets no points.
            assert reader.decrypt_range([]) == []
        reader, _keystream = self._reader(limit=2, window_start=3, window_end=4)
        assert len(reader.decrypt_range(chunks[1:2])) == 3


def test_header_varints_still_decode():
    # The scalar primitives frame every payload; the bulk ones must agree with them.
    assert decode_varint(encode_varint(300) + b"rest") == (300, 2)
