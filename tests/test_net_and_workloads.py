"""Tests for the wire protocol, the TCP transport, and the workload generators."""

from __future__ import annotations

import io

import pytest

from repro import ServerEngine, TimeCrypt, TimeCryptConsumer, Principal
from repro.exceptions import ProtocolError, StreamNotFoundError, TransportError
from repro.net.client import RemoteServerClient
from repro.net.framing import FrameReader, encode_frame_segments_v2
from repro.net.messages import Request, Response
from repro.net.server import RequestDispatcher, TimeCryptTCPServer
from repro.workloads.devops import CPU_METRICS, DevOpsWorkload
from repro.workloads.generator import LoadGenerator
from repro.workloads.mhealth import METRICS, MHealthWorkload


class TestFraming:
    def test_roundtrip_over_stream(self):
        wire = b"".join(encode_frame_segments_v2(5, [b"hello ", b"world"]))
        frame = FrameReader(io.BytesIO(wire)).read()
        assert (frame.correlation_id, frame.payload) == (5, b"hello world")

    def test_truncated_frame_rejected(self):
        wire = b"".join(encode_frame_segments_v2(5, [b"hello"]))
        for cut in (len(wire) - 2, 14, 1):  # mid-payload, mid-header, mid-magic
            with pytest.raises(TransportError):
                FrameReader(io.BytesIO(wire[:cut])).read()


class TestMessages:
    def test_request_roundtrip_with_attachments(self):
        request = Request("insert_chunks", {"uuid": "s"}, [b"blob-1", b"blob-2"])
        decoded = Request.decode(request.encode())
        assert decoded.operation == "insert_chunks"
        assert decoded.args == {"uuid": "s"}
        assert decoded.attachments == [b"blob-1", b"blob-2"]

    def test_unknown_operation_rejected(self):
        with pytest.raises(ProtocolError):
            Request("drop_table", {})

    def test_response_roundtrip(self):
        response = Response.success({"value": 42}, [b"payload"])
        decoded = Response.decode(response.encode())
        assert decoded.ok and decoded.result == {"value": 42} and decoded.attachments == [b"payload"]

    def test_failure_response_carries_error_type(self):
        response = Response.failure(StreamNotFoundError("nope"))
        decoded = Response.decode(response.encode())
        assert not decoded.ok
        assert decoded.error_type == "StreamNotFoundError"

    def test_malformed_message_rejected(self):
        with pytest.raises(ProtocolError):
            Request.decode(b"\x05xxxxx")


class TestDispatcher:
    def test_ping(self):
        dispatcher = RequestDispatcher(ServerEngine())
        assert dispatcher.dispatch(Request("ping")).result == {"pong": True}

    def test_error_translated_to_failure_response(self):
        dispatcher = RequestDispatcher(ServerEngine())
        response = dispatcher.dispatch(Request("stream_head", {"uuid": "missing"}))
        assert not response.ok
        assert response.error_type == "StreamNotFoundError"

    def test_unsupported_operation(self):
        dispatcher = RequestDispatcher(ServerEngine())
        request = Request("ping")
        request.operation = "stat_range_multi"
        request.args = {"uuids": [], "start": 0, "end": 1}
        response = dispatcher.dispatch(request)
        assert not response.ok


class TestTCPTransport:
    def test_full_pipeline_over_tcp(self, small_config):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as tcp_server:
            host, port = tcp_server.address
            with RemoteServerClient(host, port) as remote:
                assert remote.ping()
                owner = TimeCrypt(server=remote, owner_id="alice")
                uuid = owner.create_stream(metric="hr", config=small_config)
                records = [(t, float(50 + t % 40)) for t in range(0, 20_000, 100)]
                owner.insert_records(uuid, records)
                owner.flush(uuid)

                assert remote.stream_head(uuid) == 20
                stats = owner.get_stat_range(uuid, 0, 20_000, operators=("sum", "count", "mean"))
                assert stats["count"] == len(records)

                points = owner.get_range(uuid, 0, 5_000)
                assert len(points) == 50

                # Grants and consumer pickup also work across the wire.
                bob = Principal.create("bob")
                owner.register_principal(bob)
                owner.grant_access(uuid, "bob", 0, 10_000)
                consumer = TimeCryptConsumer(server=remote, principal=bob)
                consumer.fetch_access(uuid, small_config)
                consumer_stats = consumer.get_stat_range(uuid, 0, 10_000, operators=("count",))
                assert consumer_stats["count"] == 100

    def test_remote_error_propagation(self):
        engine = ServerEngine()
        with TimeCryptTCPServer(engine) as tcp_server:
            host, port = tcp_server.address
            with RemoteServerClient(host, port) as remote:
                with pytest.raises(StreamNotFoundError):
                    remote.stream_head("missing-stream")


class TestMHealthWorkload:
    def test_twelve_metrics(self):
        assert len(METRICS) == 12
        assert set(MHealthWorkload.metric_names()) == set(METRICS)

    def test_deterministic_for_same_seed(self):
        a = list(MHealthWorkload(seed=5).records("heart_rate", 10))
        b = list(MHealthWorkload(seed=5).records("heart_rate", 10))
        assert a == b

    def test_sampling_rate_and_timestamps(self):
        workload = MHealthWorkload(seed=1)
        records = list(workload.records("spo2", 2))
        assert len(records) == 2 * workload.sample_hz
        assert records[1][0] - records[0][0] == 1000 // workload.sample_hz

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            list(MHealthWorkload().records("blood_sugar", 1))

    def test_points_are_fixed_point_encoded(self):
        workload = MHealthWorkload(seed=2)
        points = workload.points("heart_rate", 1)
        assert all(isinstance(p.value, int) for p in points)

    def test_stream_config_histogram_brackets_baseline(self):
        config = MHealthWorkload.stream_config("heart_rate")
        assert config.digest.histogram.num_bins == 8
        assert config.chunk_interval == 10_000

    def test_sizing_helpers(self):
        workload = MHealthWorkload()
        assert workload.records_per_chunk() == 500
        assert workload.chunks_for_duration(3600) == 360

    def test_values_physiologically_bounded(self):
        workload = MHealthWorkload(seed=3)
        values = [v for _, v in workload.records("spo2", 30)]
        assert all(80 <= v <= 110 for v in values)


class TestDevOpsWorkload:
    def test_ten_metrics_and_hosts(self):
        workload = DevOpsWorkload(num_hosts=10)
        assert len(CPU_METRICS) == 10
        assert len(workload.host_names()) == 10
        assert len(workload.stream_names()) == 100

    def test_utilisation_bounded(self):
        workload = DevOpsWorkload(num_hosts=3, seed=2)
        for host in range(3):
            assert all(0 <= v <= 100 for _, v in workload.records(host, 600))

    def test_deterministic(self):
        a = list(DevOpsWorkload(num_hosts=2, seed=9).records(1, 300))
        b = list(DevOpsWorkload(num_hosts=2, seed=9).records(1, 300))
        assert a == b

    def test_unknown_host_rejected(self):
        with pytest.raises(KeyError):
            list(DevOpsWorkload(num_hosts=2).records(5, 10))

    def test_records_per_chunk(self):
        assert DevOpsWorkload().records_per_chunk() == 6

    def test_fleet_records(self):
        fleet = DevOpsWorkload(num_hosts=5).fleet_records(60, num_hosts=2)
        assert set(fleet) == {"host_0000", "host_0001"}


class TestLoadGenerator:
    def test_report_against_timecrypt(self, small_config):
        server = ServerEngine()
        owner = TimeCrypt(server=server, owner_id="o")
        uuid = owner.create_stream(config=small_config)
        records = [(t, float(t % 30)) for t in range(0, 10_000, 50)]
        generator = LoadGenerator(
            store=owner,
            stream_records={uuid: records},
            read_write_ratio=2,
            chunk_interval=small_config.chunk_interval,
        )
        report = generator.run(label="timecrypt")
        assert report.records_written == len(records)
        assert report.chunks_flushed == 10
        assert report.queries_executed > 0
        assert report.ingest_throughput > 0
        row = report.as_row()
        assert row["label"] == "timecrypt"

    def test_batch_knob_matches_scalar_replay(self, small_config):
        """ingest_batch_size > 1 replays through insert_records with identical data."""
        records = [(t, float(t % 30)) for t in range(0, 10_000, 50)]
        reports = {}
        owners = {}
        for batch_size in (1, 64):
            server = ServerEngine()
            owner = TimeCrypt(server=server, owner_id="o")
            uuid = owner.create_stream(config=small_config, uuid="gen-batch")
            generator = LoadGenerator(
                store=owner,
                stream_records={uuid: records},
                read_write_ratio=2,
                chunk_interval=small_config.chunk_interval,
                ingest_batch_size=batch_size,
            )
            reports[batch_size] = generator.run(label=f"batch-{batch_size}")
            owners[batch_size] = (owner, uuid)
        assert reports[64].records_written == reports[1].records_written == len(records)
        assert reports[64].chunks_flushed >= 1
        assert reports[64].queries_executed > 0
        # Both replays leave the server answering identical statistics.
        answers = {
            batch_size: owner.get_stat_range(uuid, 0, records[-1][0] + 1)
            for batch_size, (owner, uuid) in owners.items()
        }
        assert answers[1] == answers[64]

    def test_batch_knob_validation(self, small_config):
        server = ServerEngine()
        owner = TimeCrypt(server=server, owner_id="o")
        uuid = owner.create_stream(config=small_config)
        with pytest.raises(ValueError):
            LoadGenerator(store=owner, stream_records={uuid: []}, ingest_batch_size=0)

    def test_latency_summary_percentiles(self):
        from repro.workloads.generator import LatencySummary

        summary = LatencySummary.of([0.001 * i for i in range(1, 101)])
        assert summary.count == 100
        assert summary.p50_ms == pytest.approx(50, rel=0.1)
        assert summary.p99_ms >= summary.p95_ms >= summary.p50_ms
        assert LatencySummary.of([]).count == 0
