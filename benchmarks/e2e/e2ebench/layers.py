"""The traced run: where does each operation's time go, layer by layer.

Four sources, none of which touches ``repro`` internals:

* the **span ledger** — the proxies' spans around every tier boundary of the
  live deployment; a layer's self time is its spans minus their children;
* the tiers' **public counters** (``wire_stats``, ``cache_stats()``,
  ``query_stats``, ``REGISTRY.snapshot()``, the in-program server spans);
* a **staged replay** of the client pipeline: the same public functions
  ``StreamWriter.encrypt_chunks`` / ``ConsumerReader`` call, timed one stage
  at a time on the workload's own records;
* the **plaintext arm**: ``TimeCrypt`` over an in-process engine against
  ``PlaintextTimeSeriesStore`` on identical inputs (the paper's
  normalisation — crypto cost without the wire).

Layer names are the ``src/repro`` package names.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Tuple

from repro import PlaintextTimeSeriesStore, ServerEngine, TimeCrypt
from repro.access.resolution import ResolutionConsumerKeystream, ResolutionShare
from repro.client.keymanager import OwnerKeyManager
from repro.client.reader import ConsumerReader
from repro.client.writer import StreamWriter
from repro.crypto.gcm import aead_decrypt, aead_encrypt
from repro.crypto.prf import resolve_prg
from repro.index.cache import NodeCache
from repro.index.node import heac_combiner
from repro.index.tree import AggregationIndex
from repro.net.messages import Response
from repro.obs.tracing import SPANS
from repro.storage.memory import MemoryStore
from repro.timeseries.chunk import ChunkBuilder
from repro.timeseries.compression import get_codec
from repro.timeseries.point import DataPoint, encode_value
from repro.timeseries.serialization import (
    EncryptedChunk,
    decode_digest_vector,
    decode_encrypted_chunk,
    encode_digest_vector,
    encode_encrypted_chunk,
)
from repro.workloads.mhealth import CHUNK_INTERVAL_MS

from e2ebench import schedule as sched
from e2ebench.runner import Inputs, Stack, WindowResult, answers_match
from e2ebench.schedule import GRANT, INGEST, ONBOARD, RANGE, STAT
from e2ebench.spans import OpLedger, SpanLog, build_ledgers
from e2ebench.stats import ledger_coverage

Metric = Tuple[float, str]

#: Records the staged replay and the plaintext arm each process (per arm).
REPLAY_RECORDS = 64_000
ARM_RECORDS = 96_000
ARM_QUERIES = 400
PING_SAMPLES = 200


class StageClock:
    """Accumulates wall time per named stage of a replay."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    def run(self, stage: str, call: Callable[..., Any], *args: Any) -> Any:
        begin = time.perf_counter()
        result = call(*args)
        self.seconds[stage] = self.seconds.get(stage, 0.0) + time.perf_counter() - begin
        return result

    def us(self, stage: str, per: float) -> float:
        return self.seconds.get(stage, 0.0) / per * 1e6


# -- staged replay of the client pipeline --------------------------------------------


def staged_client_replay(inputs: Inputs, records: int = REPLAY_RECORDS) -> Tuple[Dict[str, Metric], bool]:
    """Time each stage of encrypt/decrypt on the workload's records.

    Returns the metrics and whether the staged pipeline reproduced the real
    one bit for bit (digest cells) — the proof the stages are the pipeline.
    """
    spec = inputs.spec
    config = replace(inputs.configs[0], prg=resolve_prg(inputs.configs[0].prg))
    uuid = "replay"
    keys = OwnerKeyManager(stream_uuid=uuid, config=config)
    cipher = keys.heac_cipher()
    codec = get_codec(config.compression)
    delivered: List[EncryptedChunk] = []
    writer = StreamWriter(
        stream_uuid=uuid, config=config, cipher=cipher, sink=delivered.append, batch_sink=delivered.extend
    )
    batch_chunks = spec.ingest_chunks
    batches = max(4, records // (batch_chunks * spec.points_per_chunk))
    clock = StageClock()
    scale = config.value_scale
    identical = True
    staged_chunks: List[EncryptedChunk] = []
    for batch in range(batches):
        first = batch * batch_chunks
        records = inputs.records(0, first, first + batch_chunks)
        builder = ChunkBuilder(config=config)

        def build(builder: ChunkBuilder = builder, records: list = records) -> list:
            chunks = builder.extend(
                DataPoint(timestamp=t, value=encode_value(v, scale)) for t, v in records
            )
            return chunks + builder.flush()

        chunks = clock.run("chunk_build", build)
        whole = clock.run("encrypt_chunks", writer.encrypt_chunks, chunks)
        window_batch = clock.run("window_batch", cipher.window_batch, first, first + batch_chunks)
        for chunk, reference in zip(chunks, whole):
            cells = clock.run("heac_encrypt", window_batch.encrypt_vector, chunk.digest.values, chunk.window_index)
            payload_key = clock.run("heac_encrypt", window_batch.chunk_payload_key, chunk.window_index)
            compressed = clock.run("compress", codec.compress, chunk.points)
            aad = f"{uuid}:{chunk.window_index}".encode("utf-8")
            payload = clock.run("aead_encrypt", aead_encrypt, payload_key, compressed, aad)
            staged = clock.run(
                "assemble", EncryptedChunk, uuid, chunk.window_index, payload, cells, chunk.num_points
            )
            identical = identical and staged.digest == reference.digest
            staged_chunks.append(staged)
    total_chunks = len(staged_chunks)
    total_records = total_chunks * spec.points_per_chunk
    staged_sum = sum(
        clock.seconds[stage]
        for stage in ("window_batch", "heac_encrypt", "compress", "aead_encrypt", "assemble")
    )
    for chunk in staged_chunks:
        blob = clock.run("chunk_codec", encode_encrypted_chunk, chunk)
        clock.run("chunk_codec", decode_encrypted_chunk, blob)
    # Read side: the owner's reader over the same key tree.
    reader = ConsumerReader.for_owner(uuid, config, keys.key_tree)
    for chunk in staged_chunks:
        payload_key = reader.cipher.chunk_payload_key(chunk.window_index)
        aad = f"{uuid}:{chunk.window_index}".encode("utf-8")
        compressed = clock.run("aead_decrypt", aead_decrypt, payload_key, chunk.payload, aad)
        points = clock.run("decompress", codec.decompress, compressed)
        identical = identical and len(points) == chunk.num_points
    rng = random.Random(f"{spec.name}/{inputs.seed}/derive")
    leaves = [rng.randrange(0, spec.preload_windows) for _ in range(256)]
    for leaf in leaves:
        clock.run("derive", keys.key_tree.leaf, leaf)
    metrics = {
        "crypto.derive_us_per_leaf": (clock.us("derive", len(leaves)), "us"),
        "crypto.window_batch_us_per_chunk": (clock.us("window_batch", total_chunks), "us"),
        "crypto.heac_encrypt_us_per_chunk": (clock.us("heac_encrypt", total_chunks), "us"),
        "crypto.aead_encrypt_us_per_chunk": (clock.us("aead_encrypt", total_chunks), "us"),
        "crypto.aead_decrypt_us_per_chunk": (clock.us("aead_decrypt", total_chunks), "us"),
        "timeseries.chunk_build_us_per_chunk": (clock.us("chunk_build", total_chunks), "us"),
        "timeseries.compress_us_per_chunk": (clock.us("compress", total_chunks), "us"),
        "timeseries.decompress_us_per_chunk": (clock.us("decompress", total_chunks), "us"),
        "timeseries.chunk_codec_us_per_chunk": (clock.us("chunk_codec", total_chunks), "us"),
        "timeseries.payload_bytes_per_record": (
            sum(len(chunk.payload) for chunk in staged_chunks) / total_records,
            "bytes",
        ),
        "client.encrypt_chunks_us_per_chunk": (clock.us("encrypt_chunks", total_chunks), "us"),
        "client.stage_coverage": (staged_sum / clock.seconds["encrypt_chunks"], "ratio"),
    }
    return metrics, identical


def decrypt_replay(stack: Stack, inputs: Inputs) -> Dict[str, Metric]:
    """What the facade does after the wire answers, on the run's real responses.

    ``client.*`` replays the whole client half of ``get_stat_range`` /
    ``get_range`` (reader construction, decrypt, evaluate or clip);
    ``crypto.heac_decrypt_us_per_result`` isolates the HEAC part of it.
    """
    client = stack.deployment.client
    operators = ("sum", "count", "mean")
    clock = StageClock()

    def reader_for(uuid: str) -> ConsumerReader:
        if inputs.spec.consumer_queries:
            return stack.consumers[inputs.uuids.index(uuid)].reader(uuid)
        return stack.owner.owner_reader(uuid)

    for result in client.captured_stats:

        def answer(result=result) -> Dict[str, object]:
            stats = reader_for(result.stream_uuid).decrypt_statistics(result)
            return {operator: stats.evaluate(operator) for operator in operators}

        clock.run("decrypt_stat", answer)
        cipher = reader_for(result.stream_uuid).cipher
        clock.run("heac_decrypt", cipher.decrypt_ranges, [list(result.cells)])
    chunks_read = 0
    for chunks in client.captured_ranges:
        start = chunks[0].window_index * CHUNK_INTERVAL_MS
        end = (chunks[-1].window_index + 1) * CHUNK_INTERVAL_MS

        def decrypt_and_clip(chunks=chunks, start=start, end=end) -> list:
            reader = stack.owner.owner_reader(chunks[0].stream_uuid)
            return [p for p in reader.decrypt_range(chunks) if start <= p.timestamp < end]

        clock.run("decrypt_range", decrypt_and_clip)
        chunks_read += len(chunks)
    return {
        "client.decrypt_stat_us": (clock.us("decrypt_stat", len(client.captured_stats)), "us"),
        "crypto.heac_decrypt_us_per_result": (clock.us("heac_decrypt", len(client.captured_stats)), "us"),
        "client.decrypt_range_us_per_chunk": (clock.us("decrypt_range", chunks_read), "us"),
    }


def access_replay(stack: Stack, inputs: Inputs) -> Dict[str, Metric]:
    """Key paths only consumers take: token size and restricted-key unwrap."""
    spec = inputs.spec
    full = [stream for stream in stack.consumers if not sched.is_restricted(spec, stream)]
    restricted = [stream for stream in stack.consumers if sched.is_restricted(spec, stream)]
    tokens = [len(stack.consumers[s].token(inputs.uuids[s]).tree_tokens) for s in full]
    clock = StageClock()
    unwraps = 0
    for stream in restricted:
        uuid = inputs.uuids[stream]
        token = stack.consumers[stream].token(uuid)
        envelopes = stack.deployment.client.fetch_envelopes(
            uuid, token.resolution_chunks, token.window_start, token.window_end
        )
        share = ResolutionShare(uuid, token.resolution_chunks, token.regression_token)
        keystream = ResolutionConsumerKeystream(share, envelopes)
        for window in keystream.covered_windows()[:64]:
            clock.run("restricted_derive", keystream.leaf, window)
            unwraps += 1
    return {
        "access.tokens_per_grant": (sum(tokens) / len(tokens), "count"),
        "access.restricted_derive_us": (clock.us("restricted_derive", unwraps), "us"),
    }


# -- standalone index replay ------------------------------------------------------------


def index_replay(inputs: Inputs) -> Dict[str, Metric]:
    """``AggregationIndex`` alone, with the workload's fanout, cache and batch size."""
    spec = inputs.spec
    config = replace(inputs.configs[0], prg=resolve_prg(inputs.configs[0].prg))
    cipher = OwnerKeyManager(stream_uuid="index-replay", config=config).heac_cipher()
    windows = spec.preload_windows
    width = config.digest.width
    vectors = cipher.encrypt_windows([[1] * width] * windows, 0)
    store = MemoryStore()
    index = AggregationIndex(
        stream_uuid="index-replay",
        store=store,
        combiner=heac_combiner(),
        encode_cells=encode_digest_vector,
        decode_cells=decode_digest_vector,
        fanout=config.index_fanout,
        cache=NodeCache(capacity_bytes=spec.index_cache_bytes),
        max_windows=config.max_chunks,
    )
    clock = StageClock()
    for first in range(0, windows, spec.ingest_chunks):
        clock.run("append", index.append_many, vectors[first : first + spec.ingest_chunks])
    rng = random.Random(f"{spec.name}/{inputs.seed}/index")
    ranges = [sched.log_uniform_range(rng, windows) for _ in range(ARM_QUERIES)]
    for first, last in ranges:
        clock.run("query", index.query_range, first, last)
    store.close()
    return {
        "index.append_us_per_chunk": (clock.us("append", windows), "us"),
        "index.query_us": (clock.us("query", len(ranges)), "us"),
    }


# -- the plaintext arm ---------------------------------------------------------------------


def plaintext_arm(inputs: Inputs, record_budget: int = ARM_RECORDS) -> Tuple[Dict[str, Metric], bool]:
    """Embedded TimeCrypt vs the plaintext store on identical inputs (no wire).

    Returns the metrics and whether the two arms gave the same answers.
    """
    spec = inputs.spec
    windows = max(16, min(spec.preload_windows, record_budget // (2 * spec.points_per_chunk)))
    windows -= windows % spec.ingest_chunks
    engine = ServerEngine()
    plaintext = PlaintextTimeSeriesStore()
    arms = {"embedded": TimeCrypt(server=engine, owner_id="arm"), "plaintext": plaintext}
    rng = random.Random(f"{spec.name}/{inputs.seed}/arm")
    ranges = [sched.log_uniform_range(rng, windows - 1) for _ in range(ARM_QUERIES)]
    clock = StageClock()
    answers: Dict[str, list] = {}
    try:
        for arm, store in arms.items():
            uuids = [
                store.create_stream(metric=inputs.metrics[stream], config=inputs.configs[stream])
                for stream in range(2)
            ]
            for stream, uuid in enumerate(uuids):
                for first in range(0, windows, spec.ingest_chunks):
                    batch = inputs.records(stream, first, first + spec.ingest_chunks)
                    clock.run(f"{arm}.ingest", store.insert_records, uuid, batch)
            answers[arm] = [
                clock.run(
                    f"{arm}.stat",
                    store.get_stat_range,
                    uuids[n % 2],
                    first * CHUNK_INTERVAL_MS,
                    last * CHUNK_INTERVAL_MS,
                )
                for n, (first, last) in enumerate(ranges)
            ]
    finally:
        engine.close()
        engine.store.close()
        plaintext.store.close()
    agree = all(map(answers_match, answers["embedded"], answers["plaintext"]))
    records = 2 * windows * spec.points_per_chunk
    embedded_stat = clock.us("embedded.stat", len(ranges))
    plaintext_stat = clock.us("plaintext.stat", len(ranges))
    embedded_ingest = records / clock.seconds["embedded.ingest"]
    plaintext_ingest = records / clock.seconds["plaintext.ingest"]
    return {
        "core.embedded_stat_us": (embedded_stat, "us"),
        "core.plaintext_stat_us": (plaintext_stat, "us"),
        "core.stat_vs_plaintext": (embedded_stat / plaintext_stat, "ratio"),
        "core.embedded_ingest_records_per_s": (embedded_ingest, "records/s"),
        "core.plaintext_ingest_records_per_s": (plaintext_ingest, "records/s"),
        "core.ingest_vs_plaintext": (embedded_ingest / plaintext_ingest, "ratio"),
    }, agree


# -- the wire on its own ---------------------------------------------------------------------


def wire_micro(stack: Stack) -> Dict[str, Metric]:
    """An empty round trip, and message encode/decode on a real get_range response."""
    client = stack.deployment.raw_client
    clock = StageClock()
    for _ in range(PING_SAMPLES):
        clock.run("ping", client.ping)
    chunks = max(stack.deployment.client.captured_ranges, key=len)
    attachments = [encode_encrypted_chunk(chunk) for chunk in chunks]
    response = Response.success({"num_chunks": len(chunks)}, attachments=attachments)
    rounds = 200
    for _ in range(rounds):
        segments = clock.run("encode", response.encode_segments)
    payload = b"".join(bytes(segment) for segment in segments)
    for _ in range(rounds):
        clock.run("decode", Response.decode, payload)
    mib = rounds * len(payload) / (1024.0 * 1024.0)
    return {
        "net.ping_rtt_us": (clock.us("ping", PING_SAMPLES), "us"),
        "net.encode_us_per_mib": (clock.us("encode", mib), "us/MiB"),
        "net.decode_us_per_mib": (clock.us("decode", mib), "us/MiB"),
    }


# -- counters and the span ledger -----------------------------------------------------------


class CounterSnapshot:
    """Public counters of the whole deployment, read before and after the window."""

    def __init__(self, stack: Stack) -> None:
        deployment = stack.deployment
        wire = deployment.raw_client.wire_stats
        cache = deployment.index_cache()
        queries = deployment.query_stats()
        self.values = {
            "client_round_trips": wire.round_trips,
            "client_wire_bytes": wire.bytes_sent + wire.bytes_received,
            "overload_retries": deployment.overload_retries(),
            "sheds": deployment.sheds(),
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "index_nodes_read": queries["index_nodes_read"],
            "index_store_round_trips": queries["index_store_round_trips"],
        }

    def since(self, earlier: "CounterSnapshot") -> Dict[str, int]:
        return {name: value - earlier.values[name] for name, value in self.values.items()}


def _calls(ledgers: Dict[str, OpLedger], prefix: str) -> Tuple[float, int]:
    """Summed per-span self time and span count of every call named ``prefix*``."""
    seconds, count = 0.0, 0
    for ledger in ledgers.values():
        for name, spans in ledger.span_counts.items():
            if name.startswith(prefix):
                seconds += ledger.self_by_name[name]
                count += spans
    return seconds, count


def ledger_metrics(inputs: Inputs, log: SpanLog, replay: Dict[str, Metric]) -> Dict[str, Metric]:
    """Time per layer from the span tree of the traced window.

    ``replay`` supplies the client stages (they cannot be spanned from
    outside ``TimeCrypt``); ``core.ledger_coverage.*`` adds them to the
    wire, engine and storage time the spans own and divides by the live
    end-to-end span — two independent measurements that must agree.
    """
    spec = inputs.spec
    ledgers = build_ledgers(log)
    ingest, stat, ranges = ledgers[INGEST], ledgers[STAT], ledgers[RANGE]

    def owned_us(ledger: OpLedger, layer: str, per: float) -> float:
        return ledger.by_layer.get(layer, 0.0) / per * 1e6

    def coverage(ledger: OpLedger, client_us_per_op: float) -> float:
        layers = dict(ledger.by_layer, client=client_us_per_op * 1e-6 * ledger.ops)
        return ledger_coverage(layers, ledger.end_to_end)

    cluster_seconds, cluster_calls = _calls(ledgers, "cluster.multi_")
    remote_seconds, remote_calls = _calls(ledgers, "remote.")
    node_seconds, node_calls = _calls(ledgers, "node.")
    ingest_client_us = spec.ingest_chunks * (
        replay["timeseries.chunk_build_us_per_chunk"][0] + replay["client.encrypt_chunks_us_per_chunk"][0]
    )
    range_client_us = sched.RANGE_CHUNKS * replay["client.decrypt_range_us_per_chunk"][0]
    return {
        "server.insert_chunks_self_us_per_chunk": (
            owned_us(ingest, "server", ingest.ops * spec.ingest_chunks),
            "us",
        ),
        "server.stat_range_self_us": (owned_us(stat, "server", stat.ops), "us"),
        "server.get_range_self_us_per_chunk": (
            owned_us(ranges, "server", ranges.ops * sched.RANGE_CHUNKS),
            "us",
        ),
        "net.call_self_us.insert_chunks": (owned_us(ingest, "net", ingest.ops), "us"),
        "net.call_self_us.stat_range": (owned_us(stat, "net", stat.ops), "us"),
        "net.call_self_us.get_range": (owned_us(ranges, "net", ranges.ops), "us"),
        "storage.cluster_self_us_per_batch": (cluster_seconds / cluster_calls * 1e6, "us"),
        "storage.remote_rtt_us": (remote_seconds / remote_calls * 1e6, "us"),
        "storage.node_store_us": (node_seconds / node_calls * 1e6, "us"),
        "storage.round_trips_per_ingest_batch": (
            _calls({INGEST: ingest}, "remote.")[1] / ingest.ops,
            "count",
        ),
        "storage.round_trips_per_stat": (_calls({STAT: stat}, "remote.")[1] / stat.ops, "count"),
        "storage.replica_writes_per_put": (
            _calls(ledgers, "remote.multi_put")[1] / _calls(ledgers, "cluster.multi_put")[1],
            "count",
        ),
        "access.grant_seal_ms": (owned_us(ledgers[GRANT], "client", ledgers[GRANT].ops) / 1e3, "ms"),
        "access.unseal_install_ms": (
            owned_us(ledgers[ONBOARD], "client", ledgers[ONBOARD].ops) / 1e3,
            "ms",
        ),
        "core.ledger_coverage.ingest": (coverage(ingest, ingest_client_us), "ratio"),
        "core.ledger_coverage.stat": (coverage(stat, replay["client.decrypt_stat_us"][0]), "ratio"),
        "core.ledger_coverage.range": (coverage(ranges, range_client_us), "ratio"),
    }


def counter_metrics(
    inputs: Inputs, stack: Stack, window: WindowResult, delta: Dict[str, int]
) -> Dict[str, Metric]:
    spec = inputs.spec
    ops = window.attempted - window.failed
    stats = len(window.latencies(STAT))
    records = len(window.latencies(INGEST)) * spec.ingest_chunks * spec.points_per_chunk
    lookups = delta["cache_hits"] + delta["cache_misses"]
    # In-program server spans carry the scheduler's queue wait; only the
    # engine shards' spans are the client-facing queue.
    waits = [0.0] + [
        span.get("queue_ms", 0.0)
        for span in SPANS.spans()
        if span.get("kind") == "server" and str(span.get("node", "")).startswith("engine:")
    ]
    return {
        "net.round_trips_per_op": (delta["client_round_trips"] / ops, "count"),
        "net.wire_bytes_per_record": (delta["client_wire_bytes"] / records, "bytes"),
        "net.queue_wait_us": (sum(waits) / max(1, len(waits) - 1) * 1e3, "us"),
        "net.sheds": (float(delta["sheds"]), "count"),
        "net.overload_retries": (float(delta["overload_retries"]), "count"),
        "storage.marked_down": (float(stack.deployment.nodes_marked_down()), "count"),
        "storage.hints_parked": (float(stack.deployment.hints_parked()), "count"),
        "index.nodes_per_query": (delta["index_nodes_read"] / stats, "count"),
        "index.cache_hit_ratio": (delta["cache_hits"] / lookups, "ratio"),
        "index.store_reads_per_query": (delta["index_store_round_trips"] / stats, "count"),
    }


def traced_overhead(reference: WindowResult, traced: WindowResult) -> Metric:
    """Per-op wall of the traced run over the untraced run, on the same ops."""
    plain = reference.threads[0].timeline
    spanned = traced.threads[0].timeline
    common = min(len(plain), len(spanned))
    if any(plain[n][0] != spanned[n][0] for n in range(common)):
        raise AssertionError("traced and untraced runs diverged from the schedule")
    return (
        sum(latency for _kind, _end, latency in spanned[:common])
        / sum(latency for _kind, _end, latency in plain[:common]),
        "ratio",
    )
