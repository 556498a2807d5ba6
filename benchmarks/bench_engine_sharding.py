"""Horizontal engine sharding: aggregate throughput vs. engine count.

PR 6 put N ``ServerEngine`` processes behind a consistent-hash stream
router.  Each engine serialises its work behind one dispatch lock, so a
single engine's throughput is capped by the sum of per-request service
times — including every storage round trip it waits on.  Sharding buys
throughput by *overlapping* those waits across engines.  Two claims are
measured over real TCP sockets (loopback, in-process servers):

1. **Aggregate throughput** — the same mirrored workload (ingest batches,
   then a mixed read phase) is replayed against 1, 2, and 4 sharded
   engines through a routing-aware :class:`ShardedServerClient`.  With a
   storage tier that charges a realistic per-round-trip latency, 4 engines
   must sustain ≥ 2× the single-engine aggregate ingest rate.
2. **Scan offload** — ``delete_stream`` against a remote storage node
   costs a constant number of wire round trips through
   ``kv_delete_prefix``, independent of how many chunks the stream
   accumulated.  (The page-the-keyspace-through-the-engine path it
   replaced grew with keyspace size; it was deleted in ISSUE 19 and its
   last recorded rows ride along under ``historical`` in
   ``BENCH_sharding.json``.)

The storage model: engines talk to a remote storage tier, so every bulk
storage operation costs a wire round trip (single-digit milliseconds).
``_LatencyStore`` charges that latency with a plain ``time.sleep`` — which
releases the GIL, exactly like a real socket wait — so on a single CPU
the measured speedup comes from engines overlapping storage waits, not
from phantom parallelism the host cannot deliver.

Run as a script to print the tables and refresh ``BENCH_sharding.json``:

    PYTHONPATH=src python benchmarks/bench_engine_sharding.py

``--smoke`` shrinks the workload for CI smoke jobs; ``BENCH_SCALE``
scales the full run.  The assertions also run under plain pytest:
``pytest benchmarks/bench_engine_sharding.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.access.keystore import TokenStore
from repro.bench.reporting import ResultTable, format_duration, write_json_report
from repro.net.client import ShardedServerClient
from repro.net.messages import ShardRoutingTable
from repro.server.router import deploy_sharded_engines
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.remote import RemoteKeyValueStore
from repro.util.timeutil import TimeRange

from conftest import scaled

#: Modelled storage-tier round-trip time charged per bulk storage op.
STORAGE_RTT_S = 0.010

#: Streams per shard at the widest deployment (4 engines x 2 = 8 streams).
STREAMS_PER_SHARD = 2
CHUNKS_PER_STREAM = scaled(64, minimum=16)
CHUNKS_PER_BATCH = 8
CHUNK_INTERVAL_MS = 1_000
POINTS_PER_CHUNK = 4
QUERY_ROUNDS = scaled(4, minimum=2)
ENGINE_COUNTS = (1, 2, 4)

#: delete_stream round-trip probe: a small and a 12x larger keyspace.
DELETE_SIZES = (2, 24)

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sharding.json"


class _LatencyStore(MemoryStore):
    """A MemoryStore that charges one storage-tier round trip per bulk op.

    The sleep happens *before* the in-memory work and outside the store's
    internal lock, so concurrent engines overlap their waits — the same
    behaviour a real :class:`RemoteKeyValueStore` has while blocked on a
    socket.  A one-key ``contains``/``get``/``put`` is a batch of one and
    pays too; the engine calls one only in untimed setup (``create_stream``).
    """

    def multi_get(self, keys):
        time.sleep(STORAGE_RTT_S)
        return super().multi_get(keys)

    def multi_put(self, items):
        time.sleep(STORAGE_RTT_S)
        return super().multi_put(items)

    def multi_delete(self, keys):
        time.sleep(STORAGE_RTT_S)
        return super().multi_delete(keys)

    def delete_prefixes(self, prefixes):
        time.sleep(STORAGE_RTT_S)
        return super().delete_prefixes(prefixes)


def _records(num_chunks: int) -> List[Tuple[int, float]]:
    step = CHUNK_INTERVAL_MS // POINTS_PER_CHUNK
    return [(t, float((t // step) % 100)) for t in range(0, num_chunks * CHUNK_INTERVAL_MS, step)]


def _encrypted_streams(num_streams: int, num_chunks: int):
    """Encrypt streams once with a scratch engine; replay the bytes everywhere.

    Every engine count sees the identical ciphertext workload, so the
    throughput comparison isolates the engine tier.
    """
    server = ServerEngine()
    owner = TimeCrypt(server=server, owner_id="bench")
    streams = []
    for index in range(num_streams):
        config = StreamConfig(chunk_interval=CHUNK_INTERVAL_MS, index_fanout=4)
        uuid = owner.create_stream(metric=f"shard-bench-{index}", config=config)
        owner.insert_records(uuid, _records(num_chunks))
        owner.flush(uuid)
        chunks = [server.get_chunk(uuid, position) for position in range(num_chunks)]
        streams.append((server.stream_metadata(uuid), chunks))
    return streams


def _balanced_streams(per_shard: int, num_chunks: int, shard_names: List[str]):
    """Exactly ``per_shard`` streams per named shard, encrypted once.

    Ownership depends only on the uuid and the shard *names*, so placement
    can be checked against a dummy table before any server exists.  The
    bench measures engine-tier scaling under an even key distribution —
    the steady state consistent hashing converges to over many streams —
    so a skewed draw of a handful of random uuids shouldn't decide the
    result: keep drawing streams until every shard owns ``per_shard``.
    """
    probe = ShardRoutingTable([(name, "127.0.0.1", 1) for name in shard_names], epoch=1)
    buckets: Dict[str, List] = {name: [] for name in shard_names}
    for _attempt in range(64 * per_shard * len(shard_names)):
        if all(len(bucket) >= per_shard for bucket in buckets.values()):
            return [stream for name in shard_names for stream in buckets[name][:per_shard]]
        (stream,) = _encrypted_streams(1, num_chunks)
        buckets[probe.owner_of(stream[0].uuid)].append(stream)
    raise AssertionError("could not draw a balanced stream set across shards")


def _run_threads(workers) -> None:
    errors: List[BaseException] = []

    def _guard(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            errors.append(exc)

    threads = [threading.Thread(target=_guard, args=(fn,)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _run_sharded_workload(num_engines: int, streams, query_rounds: int) -> Dict[str, float]:
    """Replay the workload against ``num_engines`` sharded engines.

    One writer thread per stream drives ingest through a shared
    routing-aware client (concurrent in-flight requests are the client's
    job); the read phase mixes raw range reads and statistical queries.
    """
    shared = _LatencyStore()
    engines = {
        f"engine-{index}": ServerEngine(store=shared, token_store=TokenStore(store=shared))
        for index in range(num_engines)
    }
    router, shards = deploy_sharded_engines(engines)
    try:
        host, port = router.address
        with ShardedServerClient(host, port, timeout=30.0) as client:
            for metadata, _chunks in streams:
                client.create_stream(metadata)

            def _writer(chunks):
                def run():
                    for offset in range(0, len(chunks), CHUNKS_PER_BATCH):
                        client.insert_chunks(chunks[offset : offset + CHUNKS_PER_BATCH])

                return run

            begin = time.perf_counter()
            _run_threads([_writer(chunks) for _metadata, chunks in streams])
            ingest_elapsed = time.perf_counter() - begin

            horizon = TimeRange(0, len(streams[0][1]) * CHUNK_INTERVAL_MS)

            def _reader(uuid, num_chunks):
                def run():
                    for _round in range(query_rounds):
                        fetched = client.get_range(uuid, horizon)
                        assert len(fetched) == num_chunks
                        result = client.stat_range(uuid, horizon)
                        assert result.num_windows == num_chunks

                return run

            begin = time.perf_counter()
            _run_threads([_reader(metadata.uuid, len(chunks)) for metadata, chunks in streams])
            query_elapsed = time.perf_counter() - begin

            spread = len({client.routing_table.owner_of(m.uuid) for m, _chunks in streams})
    finally:
        router.stop()
        for shard in shards.values():
            shard.stop()

    total_records = sum(len(chunks) for _metadata, chunks in streams) * POINTS_PER_CHUNK
    total_queries = len(streams) * query_rounds * 2
    return {
        "engines": num_engines,
        "streams": len(streams),
        "shard_spread": spread,
        "ingest_seconds": ingest_elapsed,
        "ingest_records_per_s": total_records / ingest_elapsed if ingest_elapsed else 0.0,
        "query_seconds": query_elapsed,
        "queries_per_s": total_queries / query_elapsed if query_elapsed else 0.0,
    }


def _run_delete_round_trips(num_chunks: int) -> Dict[str, float]:
    """Wire round trips to delete a ``num_chunks``-chunk stream remotely."""
    node = StorageNodeServer(MemoryStore()).start()
    try:
        host, port = node.address
        remote = RemoteKeyValueStore(host, port, timeout=10.0)
        try:
            engine = ServerEngine(store=remote, token_store=TokenStore(store=remote))
            (metadata, chunks), = _encrypted_streams(1, num_chunks)
            engine.create_stream(metadata)
            engine.insert_chunks(chunks)
            keyspace = len(node.store)
            remote.wire_stats.reset()
            engine.delete_stream(metadata.uuid)
            return {
                "chunks": num_chunks,
                "keyspace_keys": keyspace,
                "round_trips": remote.wire_stats.round_trips,
            }
        finally:
            remote.close()
    finally:
        node.stop()


# ---------------------------------------------------------------------------
# Assertions (collected by pytest, reused by the script)
# ---------------------------------------------------------------------------


def test_four_engines_double_aggregate_ingest():
    """4 sharded engines sustain ≥2x the 1-engine aggregate ingest rate."""
    streams = _balanced_streams(
        STREAMS_PER_SHARD, min(CHUNKS_PER_STREAM, 32), [f"engine-{i}" for i in range(4)]
    )
    single = _run_sharded_workload(1, streams, query_rounds=2)
    quad = _run_sharded_workload(4, streams, query_rounds=2)
    assert quad["shard_spread"] == 4
    speedup = quad["ingest_records_per_s"] / single["ingest_records_per_s"]
    assert speedup >= 2.0, (
        f"4-engine aggregate ingest {speedup:.2f}x the single-engine rate, "
        f"below the 2x target ({single['ingest_records_per_s']:.0f} vs "
        f"{quad['ingest_records_per_s']:.0f} records/s)"
    )


def test_delete_stream_round_trips_constant_under_offload():
    """Offloaded delete_stream wire cost is independent of keyspace size."""
    offload = [_run_delete_round_trips(size) for size in DELETE_SIZES]
    assert offload[0]["round_trips"] == offload[1]["round_trips"], offload
    assert offload[1]["round_trips"] <= 4, offload


# ---------------------------------------------------------------------------
# Script entry point: tables + BENCH_sharding.json baseline
# ---------------------------------------------------------------------------


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced-iteration CI mode: tiny workload, same assertions",
    )
    parser.add_argument(
        "--output",
        default=os.environ.get("BENCH_OUTPUT", str(_DEFAULT_OUTPUT)),
        help="path of the JSON baseline to write",
    )
    args = parser.parse_args(argv)
    chunks_per_stream = 16 if args.smoke else CHUNKS_PER_STREAM
    query_rounds = 2 if args.smoke else QUERY_ROUNDS

    results: Dict[str, object] = {"smoke": args.smoke, "storage_rtt_ms": STORAGE_RTT_S * 1e3}

    streams = _balanced_streams(
        STREAMS_PER_SHARD, chunks_per_stream, [f"engine-{i}" for i in range(max(ENGINE_COUNTS))]
    )
    runs = [_run_sharded_workload(count, streams, query_rounds) for count in ENGINE_COUNTS]
    baseline: Optional[Dict[str, float]] = next(r for r in runs if r["engines"] == 1)

    shard_table = ResultTable(
        title=(
            f"Aggregate throughput vs. engine count — {len(streams)} streams x "
            f"{chunks_per_stream} chunks, {STORAGE_RTT_S * 1e3:.0f}ms storage RTT, real TCP sockets"
        ),
        columns=["engines", "ingest records/s", "ingest wall", "mixed queries/s", "query wall", "vs 1 engine"],
    )
    for run in runs:
        speedup = run["ingest_records_per_s"] / baseline["ingest_records_per_s"]
        shard_table.add_row(
            f"{run['engines']}",
            f"{run['ingest_records_per_s']:.0f}",
            format_duration(run["ingest_seconds"]),
            f"{run['queries_per_s']:.1f}",
            format_duration(run["query_seconds"]),
            f"{speedup:.2f}x",
        )
    quad = next(r for r in runs if r["engines"] == max(ENGINE_COUNTS))
    ingest_speedup = quad["ingest_records_per_s"] / baseline["ingest_records_per_s"]
    shard_table.add_note(
        f"{max(ENGINE_COUNTS)}-engine aggregate ingest: {ingest_speedup:.2f}x (target >= 2x); "
        "engines overlap storage waits, the router adds no hot-path hop"
    )
    shard_table.print()

    # The deleted client-side pager's last recorded rows ride along, frozen.
    with open(_DEFAULT_OUTPUT, "r", encoding="utf-8") as handle:
        historical = json.load(handle)["results"]["historical"]
    delete_rows: Dict[str, List[Dict[str, float]]] = {
        "offload": [_run_delete_round_trips(size) for size in DELETE_SIZES],
    }
    delete_table = ResultTable(
        title="delete_stream wire round trips vs. keyspace size (remote storage node)",
        columns=["path", f"{DELETE_SIZES[0]}-chunk stream", f"{DELETE_SIZES[1]}-chunk stream"],
    )
    for label, rows in (
        ("client-side pager (historical)", historical["delete_round_trips"]["legacy"]),
        ("kv_delete_prefix", delete_rows["offload"]),
    ):
        delete_table.add_row(label, *(f"{row['round_trips']:.0f}" for row in rows))
    delete_table.add_note("offload target: constant round trips, independent of keyspace size")
    delete_table.print()

    results["sharding"] = {
        "streams": len(streams),
        "chunks_per_stream": chunks_per_stream,
        "chunks_per_batch": CHUNKS_PER_BATCH,
        "query_rounds": query_rounds,
        "runs": runs,
        "ingest_speedup_4x1": round(ingest_speedup, 2),
    }
    results["delete_round_trips"] = delete_rows
    results["historical"] = historical

    print(f"baseline written to {write_json_report(args.output, results)}")


if __name__ == "__main__":
    main()
