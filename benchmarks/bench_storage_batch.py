"""Storage batch round trips: multi_put/multi_get as real backend primitives.

PR 1 made the cipher and index layers batch-friendly (one *logical* write
per touched node); this benchmark tracks the storage half of that story —
the write set of an ingest batch and the node cover of a range query must
land in O(1) backend round trips per backend (one ``multi_put`` /
``multi_get``, or one per healthy node on a cluster), not one round trip
per key:

1. **AppendLogStore ingest** — backend round trips per ingest batch must be
   ≥ 5× lower through the batch pipeline than through per-key puts (the
   pre-batching behaviour, reproduced by the :class:`PerKeyStore` wrapper).
2. **StorageCluster ingest** — scatter-gather groups a write set by owning
   replica: round trips per batch must be ≥ 5× lower than per-key puts.
3. **Query fetch** — a cold-cache statistical range query costs exactly one
   ``multi_get`` on a single backend, however many index nodes the plan
   touches — and, since the cluster places by stream partition, one node
   round trip on a cluster too (the per-key placement's rows are kept
   under ``historical``).
4. **Spine reads** — under an index cache smaller than one node, a fresh
   engine's first append reads the whole index spine in one ``multi_get``,
   and a steady single-chunk append reads storage only when it opens a
   level-1 block at the head: once per ``fanout`` appends.  The engine holds
   the right-most node per level outside the cache (``AggregationIndex``'s
   resident spine); before it, every append read one node per level.
5. **Query fold** — on a cache-resident index of the e2e ``stat_hot`` shape
   (1 024 windows, 11 digest components, fanout 64, log-uniform range
   lengths) the HEAC ``query_range`` must stay within 3× of the plaintext
   one, interleaved in the same process.  The "before" arm is the same HEAC
   index behind a combiner with no n-ary fold, i.e. cell-by-cell pairwise
   ``+`` — the algorithm the column fold replaced.

Run as a script to print the tables and refresh ``BENCH_storage.json``:

    PYTHONPATH=src python benchmarks/bench_storage_batch.py

``--smoke`` shrinks the workload to a few seconds for CI smoke jobs (the
round-trip ratios are deterministic, so the assertions still hold); the
``BENCH_SCALE`` environment variable scales the full run.  The assertions
also run under plain pytest: ``pytest benchmarks/bench_storage_batch.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import random
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import ServerEngine, TimeCrypt
from repro.bench.reporting import ResultTable, format_duration, write_json_report
from repro.crypto.heac import HEACCipher
from repro.crypto.keytree import KeyDerivationTree
from repro.index.node import DigestCombiner, heac_combiner, plaintext_combiner
from repro.index.tree import AggregationIndex
from repro.storage.cluster import StorageCluster
from repro.storage.disk import AppendLogStore
from repro.storage.kv import KeyValueStore
from repro.storage.memory import MemoryStore
from repro.timeseries.serialization import decode_digest_vector, encode_digest_vector
from repro.timeseries.stream import StreamConfig
from repro.util.encoding import pack_varint_list, unpack_varint_list

from conftest import scaled

#: Ingest workload: short chunks so per-chunk storage overhead dominates.
INGEST_CHUNKS = scaled(512, minimum=64)
POINTS_PER_CHUNK = 4
CHUNK_INTERVAL_MS = 1_000
#: Client-side ingest batch: chunks delivered per ``insert_records`` call.
CHUNKS_PER_BATCH = 32
TREE_HEIGHT = 30

CLUSTER_NODES = 3
REPLICATION_FACTOR = 2

#: Spine-read arm: fanout 4 gives the default stream 15 index levels; the
#: steady appends are a multiple of the fanout, so exactly one in ``fanout``
#: opens a level-1 block.  Fixed sizes: the counts are exact at any scale.
SPINE_FANOUT = 4
SPINE_CACHE_BYTES = 1
SPINE_POPULATED_CHUNKS = 37
SPINE_STEADY_APPENDS = 64

#: Query-fold arm: the e2e ``stat_hot`` index shape.
FOLD_WINDOWS = 1024
FOLD_WIDTH = 11
FOLD_FANOUT = 64
FOLD_QUERIES = scaled(2000, minimum=200)
FOLD_ROUNDS = 5
#: Ranges the mean plan size is taken over: fixed, so the count is exact at
#: any scale (the timed ranges are a prefix of the same sequence).
FOLD_PLAN_QUERIES = 2000

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_storage.json"


class PerKeyStore(KeyValueStore):
    """Degrades every batch op to a loop of one-key batches.

    Wrapping a real backend in this reproduces the pre-batching round-trip
    pattern (one backend call per key: n keys cost n one-key batches, n
    round trips) against the *same* storage engine, so the comparison
    isolates batching from everything else.
    """

    def __init__(self, inner: KeyValueStore) -> None:
        self._inner = inner

    def multi_get(self, keys: Iterable[bytes]) -> Dict[bytes, Optional[bytes]]:
        return {key: self._inner.get(key) for key in keys}

    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> None:
        for key, value in items:
            self._inner.put(key, value)

    def multi_delete(self, keys: Iterable[bytes]) -> Set[bytes]:
        return {key for key in keys if self._inner.delete(key)}

    def scan_prefix(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        return self._inner.scan_prefix(prefix, lo, hi)

    def close(self) -> None:
        self._inner.close()


def _ingest_records(num_chunks: int):
    step = CHUNK_INTERVAL_MS // POINTS_PER_CHUNK
    return [
        (t, float((t // step) % 100))
        for t in range(0, num_chunks * CHUNK_INTERVAL_MS, step)
    ]


def _run_ingest(store: KeyValueStore, num_chunks: int) -> Tuple[float, int]:
    """Ingest ``num_chunks`` chunks in batches; returns (seconds, num_batches)."""
    server = ServerEngine(store=store)
    owner = TimeCrypt(server=server, owner_id="bench")
    config = StreamConfig(chunk_interval=CHUNK_INTERVAL_MS, key_tree_height=TREE_HEIGHT)
    uuid = owner.create_stream(metric="storage-bench", config=config)
    records = _ingest_records(num_chunks)
    batch_records = CHUNKS_PER_BATCH * POINTS_PER_CHUNK
    num_batches = 0
    begin = time.perf_counter()
    for offset in range(0, len(records), batch_records):
        owner.insert_records(uuid, records[offset : offset + batch_records])
        num_batches += 1
    owner.flush(uuid)
    elapsed = time.perf_counter() - begin
    return elapsed, num_batches


def _appendlog_round_trips(tmp: Path, num_chunks: int, per_key: bool) -> Dict[str, float]:
    suffix = "perkey" if per_key else "batch"
    inner = AppendLogStore(tmp / f"store-{suffix}.log")
    store: KeyValueStore = PerKeyStore(inner) if per_key else inner
    seconds, num_batches = _run_ingest(store, num_chunks)
    stats = inner.stats
    round_trips = stats.write_round_trips
    store.close()
    return {
        "seconds": seconds,
        "write_round_trips": round_trips,
        "round_trips_per_batch": round_trips / num_batches,
        "num_batches": num_batches,
    }


def _cluster_round_trips(num_chunks: int, per_key: bool) -> Dict[str, float]:
    cluster = StorageCluster(num_nodes=CLUSTER_NODES, replication_factor=REPLICATION_FACTOR)
    store: KeyValueStore = PerKeyStore(cluster) if per_key else cluster
    seconds, num_batches = _run_ingest(store, num_chunks)
    round_trips = sum(
        cluster.node_store(name).stats.write_round_trips for name in cluster.node_names
    )
    return {
        "seconds": seconds,
        "write_round_trips": round_trips,
        "round_trips_per_batch": round_trips / num_batches,
        "num_batches": num_batches,
    }


def _query_fetch_round_trips(num_chunks: int) -> Dict[str, float]:
    """Cold-cache query: plan nodes fetched per backend round trip."""
    cluster = StorageCluster(num_nodes=CLUSTER_NODES, replication_factor=REPLICATION_FACTOR)
    server = ServerEngine(store=cluster)
    owner = TimeCrypt(server=server, owner_id="bench")
    config = StreamConfig(chunk_interval=CHUNK_INTERVAL_MS, key_tree_height=TREE_HEIGHT)
    uuid = owner.create_stream(metric="query-bench", config=config)
    owner.insert_records(uuid, _ingest_records(num_chunks))
    owner.flush(uuid)
    # A fresh engine over the same storage starts with a cold node cache, so
    # the query's whole node cover must come from the backend.
    cold_server = ServerEngine(store=cluster)
    for name in cluster.node_names:
        cluster.node_store(name).stats.reset()
    result = cold_server.stat_range_windows(uuid, 1, num_chunks)
    per_node_gets = {
        name: cluster.node_store(name).stats.multi_gets for name in cluster.node_names
    }
    return {
        "plan_nodes": result.num_index_nodes,
        "index_store_round_trips": cold_server.query_stats.index_store_round_trips,
        "max_multi_gets_per_node": max(per_node_gets.values()),
        "total_node_round_trips": sum(per_node_gets.values()),
    }


def _spine_reads() -> Dict[str, object]:
    """Storage reads per append under a one-byte index cache (no node fits).

    A fresh engine over a populated store makes one append, then single-chunk
    appends follow, each after a stat query.  Counted are the backend read
    round trips (``get`` + ``multi_get``) inside the append calls only.
    """
    num_chunks = SPINE_POPULATED_CHUNKS + 1 + SPINE_STEADY_APPENDS
    writer = ServerEngine()
    owner = TimeCrypt(server=writer, owner_id="bench")
    config = StreamConfig(
        chunk_interval=CHUNK_INTERVAL_MS, key_tree_height=TREE_HEIGHT, index_fanout=SPINE_FANOUT
    )
    uuid = owner.create_stream(metric="spine-bench", config=config)
    owner.insert_records(uuid, _ingest_records(num_chunks))
    owner.flush(uuid)
    chunks = [writer.get_chunk(uuid, window) for window in range(num_chunks)]
    store = MemoryStore()
    populate = ServerEngine(store=store)
    populate.create_stream(writer.stream_metadata(uuid))
    populate.insert_chunks(chunks[:SPINE_POPULATED_CHUNKS])
    cold = ServerEngine(store=store, index_cache_bytes=SPINE_CACHE_BYTES)

    def append_reads(chunk) -> int:
        store.stats.reset()
        cold.insert_chunk(chunk)
        return store.stats.multi_gets

    first = append_reads(chunks[SPINE_POPULATED_CHUNKS])
    steady = 0
    for chunk in chunks[SPINE_POPULATED_CHUNKS + 1 :]:
        cold.stat_range_windows(uuid, 0, chunk.window_index)
        steady += append_reads(chunk)
    return {
        "fanout": SPINE_FANOUT,
        "levels": cold._state(uuid).index.max_level,
        "index_cache_bytes": SPINE_CACHE_BYTES,
        "steady_appends": SPINE_STEADY_APPENDS,
        "cold_first_append": first,
        "per_steady_append": steady / SPINE_STEADY_APPENDS,
    }


def _fold_ranges(count: int) -> List[Tuple[int, int]]:
    """``count`` log-uniform-length ranges over the fold index, from a fixed seed."""
    rng = random.Random(7)
    ranges = []
    for _ in range(count):
        length = min(FOLD_WINDOWS, max(1, round(math.exp(rng.uniform(0, math.log(FOLD_WINDOWS))))))
        first = rng.randrange(FOLD_WINDOWS - length + 1)
        ranges.append((first, first + length))
    return ranges


def _query_fold(num_queries: int) -> Dict[str, object]:
    """Cache-resident ``query_range``: HEAC column fold vs pairwise ``+`` vs plaintext.

    The three arms answer the same ranges round-robin, so machine drift hits
    them alike; each arm reports its fastest round.
    """
    cipher = HEACCipher(KeyDerivationTree(b"\x15" * 16, height=TREE_HEIGHT))
    plain_vectors = [
        [(window * 7 + component) % 1000 for component in range(FOLD_WIDTH)]
        for window in range(FOLD_WINDOWS)
    ]
    encrypted = cipher.encrypt_windows(plain_vectors, 0)
    heac_codec = (encode_digest_vector, decode_digest_vector)
    arms = {
        "heac": (heac_combiner(), heac_codec, encrypted),
        "heac_pairwise": (
            DigestCombiner(add=operator.add, size_of=lambda _cell: 8),
            heac_codec,
            encrypted,
        ),
        "plaintext": (
            plaintext_combiner(),
            (pack_varint_list, lambda blob: unpack_varint_list(blob, 0)[0]),
            plain_vectors,
        ),
    }
    indexes = {}
    for name, (combiner, (encode, decode), vectors) in arms.items():
        index = AggregationIndex(
            f"fold-{name}", MemoryStore(), combiner, encode, decode, fanout=FOLD_FANOUT
        )
        for first in range(0, FOLD_WINDOWS, 8):
            index.append_many(vectors[first : first + 8])
        indexes[name] = index
    ranges = _fold_ranges(num_queries)
    # Same answers on every arm before anything is timed.
    for first, last in ranges[:50]:
        cells = indexes["heac"].query_range(first, last)
        assert cells == indexes["heac_pairwise"].query_range(first, last)
        assert cipher.decrypt_ranges([cells])[0] == indexes["plaintext"].query_range(first, last)
    best = {name: math.inf for name in indexes}
    for _ in range(FOLD_ROUNDS):
        for name, index in indexes.items():
            begin = time.perf_counter()
            for first, last in ranges:
                index.query_range(first, last)
            best[name] = min(best[name], time.perf_counter() - begin)
    micros = {name: seconds / len(ranges) * 1e6 for name, seconds in best.items()}
    plan_ranges = _fold_ranges(FOLD_PLAN_QUERIES)
    plan_nodes = sum(indexes["heac"].plan(first, last).num_nodes for first, last in plan_ranges)
    return {
        "windows": FOLD_WINDOWS,
        "width": FOLD_WIDTH,
        "fanout": FOLD_FANOUT,
        "queries": len(ranges),
        "mean_plan_nodes": round(plan_nodes / len(plan_ranges), 2),
        "before_heac_pairwise_us_per_query": round(micros["heac_pairwise"], 1),
        "after_heac_us_per_query": round(micros["heac"], 1),
        "plaintext_us_per_query": round(micros["plaintext"], 1),
        "fold_speedup": round(micros["heac_pairwise"] / micros["heac"], 2),
        "heac_vs_plaintext": round(micros["heac"] / micros["plaintext"], 2),
        "heac_within_3x_plaintext": micros["heac"] <= 3.0 * micros["plaintext"],
    }


# ---------------------------------------------------------------------------
# Assertions (collected by pytest, reused by the script)
# ---------------------------------------------------------------------------


def test_appendlog_batch_round_trips(tmp_path):
    """AppendLogStore: ≥5× fewer backend round trips per ingest batch than per-key puts."""
    num_chunks = min(INGEST_CHUNKS, 128)
    batch = _appendlog_round_trips(tmp_path, num_chunks, per_key=False)
    per_key = _appendlog_round_trips(tmp_path, num_chunks, per_key=True)
    reduction = per_key["round_trips_per_batch"] / batch["round_trips_per_batch"]
    assert reduction >= 5.0, (
        f"round-trip reduction {reduction:.1f}x below the 5x target "
        f"(per-key {per_key['round_trips_per_batch']:.1f}, batch "
        f"{batch['round_trips_per_batch']:.1f} per ingest batch)"
    )


def test_cluster_batch_round_trips():
    """StorageCluster: scatter-gather beats per-key replicated puts by ≥5×."""
    num_chunks = min(INGEST_CHUNKS, 128)
    batch = _cluster_round_trips(num_chunks, per_key=False)
    per_key = _cluster_round_trips(num_chunks, per_key=True)
    reduction = per_key["round_trips_per_batch"] / batch["round_trips_per_batch"]
    assert reduction >= 5.0, (
        f"cluster round-trip reduction {reduction:.1f}x below the 5x target"
    )


def test_query_fetch_is_one_round_trip_per_node():
    """A cold-cache range query costs ≤1 multi_get per cluster node."""
    fetch = _query_fetch_round_trips(min(INGEST_CHUNKS, 128))
    assert fetch["plan_nodes"] > 1
    assert fetch["index_store_round_trips"] == 1
    assert fetch["max_multi_gets_per_node"] <= 1


def test_spine_reads_under_a_small_cache():
    """One batched spine read on a cold append; one read per ``fanout`` steady appends."""
    spine = _spine_reads()
    assert spine["cold_first_append"] == 1
    assert spine["per_steady_append"] == 1 / SPINE_FANOUT


def test_query_fold_heac_within_3x_plaintext():
    """Encrypted index aggregation stays within 3x of plaintext, as Table 2 claims."""
    fold = _query_fold(200)
    assert fold["heac_within_3x_plaintext"], fold


# ---------------------------------------------------------------------------
# Script entry point: tables + BENCH_storage.json baseline
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
    num_chunks = 64 if args.smoke else INGEST_CHUNKS

    results: Dict[str, object] = {"smoke": args.smoke}

    with tempfile.TemporaryDirectory() as tmp:
        log_batch = _appendlog_round_trips(Path(tmp), num_chunks, per_key=False)
        log_per_key = _appendlog_round_trips(Path(tmp), num_chunks, per_key=True)
    log_reduction = log_per_key["round_trips_per_batch"] / log_batch["round_trips_per_batch"]

    cluster_batch = _cluster_round_trips(num_chunks, per_key=False)
    cluster_per_key = _cluster_round_trips(num_chunks, per_key=True)
    cluster_reduction = (
        cluster_per_key["round_trips_per_batch"] / cluster_batch["round_trips_per_batch"]
    )

    table = ResultTable(
        title=(
            f"Ingest write round trips — {num_chunks} chunks, "
            f"{CHUNKS_PER_BATCH} chunks/batch"
        ),
        columns=["backend", "path", "round trips/batch", "total", "wall clock"],
    )
    for backend, rows in (
        ("AppendLogStore", (("per-key puts", log_per_key), ("multi_put", log_batch))),
        (
            f"StorageCluster {CLUSTER_NODES}x rf={REPLICATION_FACTOR}",
            (("per-key puts", cluster_per_key), ("multi_put", cluster_batch)),
        ),
    ):
        for path_name, row in rows:
            table.add_row(
                backend,
                path_name,
                f"{row['round_trips_per_batch']:.1f}",
                f"{row['write_round_trips']:.0f}",
                format_duration(row["seconds"]),
            )
    table.add_note(
        f"reduction: {log_reduction:.1f}x (append log), {cluster_reduction:.1f}x (cluster); "
        "target >= 5x"
    )
    table.print()

    fetch = _query_fetch_round_trips(num_chunks)
    query_table = ResultTable(
        title="Cold-cache range query fetch",
        columns=["plan nodes", "multi_gets (engine)", "max per node"],
    )
    query_table.add_row(
        f"{fetch['plan_nodes']:.0f}",
        f"{fetch['index_store_round_trips']:.0f}",
        f"{fetch['max_multi_gets_per_node']:.0f}",
    )
    query_table.add_note("target: one multi_get per query per cluster node")
    query_table.print()

    spine = _spine_reads()
    spine_table = ResultTable(
        title=(
            f"Index spine reads under a {spine['index_cache_bytes']}-byte node cache — "
            f"fanout {spine['fanout']}, {spine['levels']} levels"
        ),
        columns=["append", "storage reads"],
    )
    spine_table.add_row("first, on a fresh engine", f"{spine['cold_first_append']}")
    spine_table.add_row(
        f"steady (mean of {spine['steady_appends']})", f"{spine['per_steady_append']:.2f}"
    )
    spine_table.add_note("target: 1 batched read cold, 1 per fanout appends steady")
    spine_table.print()

    fold = _query_fold(200 if args.smoke else FOLD_QUERIES)
    fold_table = ResultTable(
        title=(
            f"Cache-resident query_range — {FOLD_WINDOWS} windows, width {FOLD_WIDTH}, "
            f"fanout {FOLD_FANOUT}, {fold['queries']} log-uniform ranges"
        ),
        columns=["arm", "per query", "vs plaintext"],
    )
    for arm, key in (
        ("HEAC pairwise + (before)", "before_heac_pairwise_us_per_query"),
        ("HEAC column fold (after)", "after_heac_us_per_query"),
        ("plaintext", "plaintext_us_per_query"),
    ):
        fold_table.add_row(
            arm,
            format_duration(fold[key] / 1e6),
            f"{fold[key] / fold['plaintext_us_per_query']:.2f}x",
        )
    fold_table.add_note("target: HEAC column fold within 3x of plaintext")
    fold_table.print()

    results["appendlog_ingest"] = {
        "chunks": num_chunks,
        "chunks_per_batch": CHUNKS_PER_BATCH,
        "per_key": log_per_key,
        "batch": log_batch,
        "round_trip_reduction": round(log_reduction, 2),
    }
    results["cluster_ingest"] = {
        "chunks": num_chunks,
        "nodes": CLUSTER_NODES,
        "replication_factor": REPLICATION_FACTOR,
        "per_key": cluster_per_key,
        "batch": cluster_batch,
        "round_trip_reduction": round(cluster_reduction, 2),
    }
    results["query_fetch"] = fetch
    results["spine_reads"] = spine
    results["query_fold"] = fold
    # The per-key placement's last recorded rows ride along, frozen.
    with open(_DEFAULT_OUTPUT, "r", encoding="utf-8") as handle:
        results["historical"] = json.load(handle)["results"]["historical"]

    print(f"baseline written to {write_json_report(args.output, results)}")


if __name__ == "__main__":
    main()
