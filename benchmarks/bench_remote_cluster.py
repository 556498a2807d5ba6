"""Round trips and throughput of the remote storage node tier.

PR 2 made cluster batches one backend call per owning node; PR 3 pipelined
the client/engine wire.  This benchmark closes the loop on the storage side:
a :class:`~repro.storage.cluster.StorageCluster` whose nodes are
:class:`~repro.storage.remote.RemoteKeyValueStore` clients talking to real
:class:`~repro.storage.node.StorageNodeServer` TCP processes, so replication
itself crosses sockets.  Three claims are measured:

1. **Cluster batches** — a ``multi_put``/``multi_get`` of N keys costs at
   most ``replication_factor``+1 wire round trips *per node* (one
   ``kv_multi_*`` request per owning replica, plus re-route slack), not
   n·RF like the scalar loop.
2. **Ingest** — end-to-end encrypted ingest through a ServerEngine backed
   by the remote cluster stays within the same per-node round-trip budget
   per delivered chunk batch, and its throughput is compared against the
   identical in-process cluster to show the socket tax.
3. **Reads and grant bursts** — a whole-stream range read, a stat query,
   and a K-principal grant burst each cost a handful of per-node round
   trips, independent of K and of the number of chunks touched; a repeat
   burst on the same stream is one write per replica (no id scan).
4. **Placement** — storage is placed by stream partition, so one
   single-stream ingest batch writes exactly RF nodes and one cold stat
   cover reads one node, on a new stream and on one aged past window
   4 096 (the per-key placement's rows are kept under ``historical``).

Run as a script to print the tables and refresh ``BENCH_remote.json``:

    PYTHONPATH=src python benchmarks/bench_remote_cluster.py

``--smoke`` shrinks the workload for CI smoke jobs (round-trip counts are
deterministic, so the assertions still hold); ``BENCH_SCALE`` scales the
full run.  The assertions also run under plain pytest:
``pytest benchmarks/bench_remote_cluster.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import Principal, ServerEngine, TimeCrypt
from repro.access.keystore import TokenStore
from repro.bench.reporting import ResultTable, format_duration, write_json_report
from repro.deploy import NUM_NODES, REPLICATION_FACTOR, Deployment
from repro.storage.cluster import StorageCluster
from repro.timeseries.stream import StreamConfig
from repro.util.timeutil import TimeRange

from conftest import scaled

#: Direct KV batch workload.
KV_KEYS = scaled(2000, minimum=200)
#: Ingest workload: short chunks so per-chunk overhead dominates.
INGEST_CHUNKS = scaled(192, minimum=64)
POINTS_PER_CHUNK = 4
CHUNK_INTERVAL_MS = 1_000
CHUNKS_PER_BATCH = 32

GRANT_BURST = scaled(16, minimum=8)

#: Placement probes -> the stream's ``head`` window: a new stream, and one
#: aged past window 4 096 whose cold cover spans leaves and whole level-1
#: index nodes.
PLACEMENT_HEADS = {"new_stream": 1, "aged_stream": 4_300}

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_remote.json"


def _per_node_round_trips(cluster: StorageCluster) -> Dict[str, int]:
    return {name: cluster.node_store(name).wire_stats.round_trips for name in cluster.node_names}


def _reset_round_trips(cluster: StorageCluster) -> None:
    for name in cluster.node_names:
        cluster.node_store(name).wire_stats.reset()


def _ingest_records(num_chunks: int) -> List[Tuple[int, float]]:
    step = CHUNK_INTERVAL_MS // POINTS_PER_CHUNK
    return [
        (t, float((t // step) % 100)) for t in range(0, num_chunks * CHUNK_INTERVAL_MS, step)
    ]


def _stream_config() -> StreamConfig:
    return StreamConfig(chunk_interval=CHUNK_INTERVAL_MS)


def _run_kv_batches(cluster: StorageCluster, num_keys: int, scalar: bool) -> Dict[str, float]:
    """Direct cluster write/read of ``num_keys``; per-node wire accounting."""
    items = [(f"kv/{'s' if scalar else 'b'}/{index:06d}".encode(), bytes(64)) for index in range(num_keys)]
    _reset_round_trips(cluster)
    begin = time.perf_counter()
    if scalar:
        for key, value in items:
            cluster.put(key, value)
        for key, _value in items:
            cluster.get(key)
    else:
        cluster.multi_put(items)
        cluster.multi_get([key for key, _ in items])
    elapsed = time.perf_counter() - begin
    per_node = _per_node_round_trips(cluster)
    return {
        "keys": num_keys,
        "seconds": elapsed,
        "keys_per_s": (2 * num_keys) / elapsed if elapsed else 0.0,
        "max_node_round_trips": max(per_node.values()),
        "total_round_trips": sum(per_node.values()),
    }


def _run_ingest(cluster, num_chunks: int, over_wire: bool = False) -> Dict[str, float]:
    """Encrypted ingest through an engine over ``cluster``; wire accounting optional."""
    engine = ServerEngine(store=cluster, token_store=TokenStore(cluster))
    owner = TimeCrypt(server=engine, owner_id="bench")
    uuid = owner.create_stream(metric="remote-bench", config=_stream_config())
    records = _ingest_records(num_chunks)
    batch_records = CHUNKS_PER_BATCH * POINTS_PER_CHUNK
    num_batches = 0
    if over_wire:
        _reset_round_trips(cluster)
    begin = time.perf_counter()
    for offset in range(0, len(records), batch_records):
        owner.insert_records(uuid, records[offset : offset + batch_records])
        num_batches += 1
    # The batched deliveries are the claim under test; the final flush seals
    # one trailing partial chunk through the scalar path and is accounted
    # separately.
    batch_trips = max(_per_node_round_trips(cluster).values()) if over_wire else 0
    owner.flush(uuid)
    elapsed = time.perf_counter() - begin
    result: Dict[str, float] = {
        "num_chunks": num_chunks,
        "num_batches": num_batches,
        "seconds": elapsed,
        "records_per_s": len(records) / elapsed if elapsed else 0.0,
        "uuid": uuid,
        "engine": engine,
        "owner": owner,
    }
    if over_wire:
        per_node = _per_node_round_trips(cluster)
        result["max_node_round_trips"] = max(per_node.values())
        result["max_node_round_trips_per_batch"] = batch_trips / num_batches
        result["flush_round_trips"] = max(per_node.values()) - batch_trips
    return result


def _run_queries(cluster: StorageCluster, engine, uuid: str, num_chunks: int) -> Dict[str, float]:
    _reset_round_trips(cluster)
    chunks = engine.get_range(uuid, TimeRange(0, num_chunks * CHUNK_INTERVAL_MS))
    range_trips = max(_per_node_round_trips(cluster).values())
    _reset_round_trips(cluster)
    engine.stat_range(uuid, TimeRange(0, num_chunks * CHUNK_INTERVAL_MS))
    stat_trips = max(_per_node_round_trips(cluster).values())
    return {
        "chunks_fetched": len(chunks),
        "range_max_node_round_trips": range_trips,
        "stat_max_node_round_trips": stat_trips,
    }


def _nodes_touched(deployment: Deployment, *counters: str) -> int:
    return sum(
        1 for store in deployment.backing.values() if any(getattr(store.stats, name) for name in counters)
    )


def _run_placement(deployment: Deployment, head: int) -> Dict[str, int]:
    """Storage nodes one single-stream ingest batch writes and one cold cover reads.

    The stream holds window 0, empty windows up to ``head`` (≥ 1) and one
    batch from there; the measured batch follows it, and the cover spans up
    to 200 windows before ``head`` through both batches.  Placement is by
    stream partition, so both counts are deterministic at any ``head``: RF
    nodes written, one node (the partition's primary) read.
    """
    owner = TimeCrypt(server=deployment.engines["engine-0"], owner_id="placement")
    uuid = owner.create_stream(metric="placement", config=_stream_config())
    records = _ingest_records(head + 2 * CHUNKS_PER_BATCH)
    batch_start = (head + CHUNKS_PER_BATCH) * POINTS_PER_CHUNK
    owner.insert_records(uuid, records[:1] + records[head * POINTS_PER_CHUNK : batch_start])
    for store in deployment.backing.values():
        store.stats.reset()
    owner.insert_records(uuid, records[batch_start:])
    written = _nodes_touched(deployment, "multi_puts")
    # A fresh engine has a cold node cache; its start-up metadata scan
    # (every node) is not part of the cover, so count after it.
    cold = ServerEngine(store=deployment.store)
    for store in deployment.backing.values():
        store.stats.reset()
    cold.stat_range_windows(uuid, max(1, head - 200), head + 2 * CHUNKS_PER_BATCH - 1)
    return {
        "ingest_batch_nodes_written": written,
        "cold_cover_nodes_read": _nodes_touched(deployment, "multi_gets"),
    }


def _run_grant_burst(cluster: StorageCluster, owner: TimeCrypt, uuid: str, cohort_size: int) -> Dict[str, float]:
    cohort = [Principal.create(f"principal-{index}") for index in range(cohort_size)]
    for principal in cohort:
        owner.register_principal(principal)
    horizon = 4 * CHUNK_INTERVAL_MS
    policies = [(p.principal_id, 0, horizon, None) for p in cohort]
    _reset_round_trips(cluster)
    begin = time.perf_counter()
    owner.grant_access_many(uuid, policies)
    elapsed = time.perf_counter() - begin
    per_node = _per_node_round_trips(cluster)
    # The same cohort again: the stream's grant ids are known, so the burst
    # is its one replicated write and nothing else.
    _reset_round_trips(cluster)
    owner.grant_access_many(uuid, policies)
    return {
        "principals": cohort_size,
        "seconds": elapsed,
        "max_node_round_trips": max(per_node.values()),
        "total_round_trips": sum(per_node.values()),
        "repeat_total_round_trips": sum(_per_node_round_trips(cluster).values()),
    }


# ---------------------------------------------------------------------------
# Assertions (collected by pytest, reused by the script)
# ---------------------------------------------------------------------------


def test_cluster_batch_costs_rf_round_trips_per_node():
    """An N-key cluster batch costs ≤ RF+1 round trips per node, not n·RF."""
    num_keys = min(KV_KEYS, 400)
    with Deployment("four_tier") as deployment:
        batched = _run_kv_batches(deployment.store, num_keys, scalar=False)
    with Deployment("four_tier") as deployment:
        scalar = _run_kv_batches(deployment.store, min(num_keys, 200), scalar=True)
    # One kv_multi_put + one kv_multi_get per node (re-route slack allowed).
    assert batched["max_node_round_trips"] <= 2 * (REPLICATION_FACTOR + 1), batched
    # The scalar loop pays roughly one round trip per key per replica.
    assert scalar["total_round_trips"] >= scalar["keys"], scalar


def test_ingest_batches_stay_in_round_trip_budget():
    """Per delivered chunk batch, each node sees ≤ RF+1 wire round trips."""
    num_chunks = min(INGEST_CHUNKS, 96)
    with Deployment("four_tier") as deployment:
        ingest = _run_ingest(deployment.store, num_chunks, over_wire=True)
        assert ingest["max_node_round_trips_per_batch"] <= REPLICATION_FACTOR + 1, ingest


def test_queries_and_grant_bursts_are_constant_round_trips():
    """Whole-stream reads and K-principal grant bursts cost O(1) trips/node."""
    num_chunks = min(INGEST_CHUNKS, 96)
    cohort = min(GRANT_BURST, 8)
    with Deployment("four_tier") as deployment:
        ingest = _run_ingest(deployment.store, num_chunks, over_wire=True)
        queries = _run_queries(deployment.store, ingest["engine"], ingest["uuid"], num_chunks)
        assert queries["chunks_fetched"] == num_chunks
        assert queries["range_max_node_round_trips"] <= REPLICATION_FACTOR + 1
        assert queries["stat_max_node_round_trips"] <= REPLICATION_FACTOR + 1
        burst = _run_grant_burst(deployment.store, ingest["owner"], ingest["uuid"], cohort)
        # One token-store prefix scan page + one multi_put per node, with
        # slack for paging — but never one round trip per principal.
        assert burst["max_node_round_trips"] <= REPLICATION_FACTOR + 3, burst
        assert burst["max_node_round_trips"] < cohort
        # A repeat burst needs no scan: one write on each of the RF replicas.
        assert burst["repeat_total_round_trips"] == REPLICATION_FACTOR, burst


# ---------------------------------------------------------------------------
# Script entry point: tables + BENCH_remote.json baseline
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
    num_keys = 200 if args.smoke else KV_KEYS
    num_chunks = 64 if args.smoke else INGEST_CHUNKS
    cohort = 8 if args.smoke else GRANT_BURST

    results: Dict[str, object] = {
        "smoke": args.smoke,
        "topology": {"nodes": NUM_NODES, "replication_factor": REPLICATION_FACTOR},
    }

    # -- direct cluster batches ---------------------------------------------------
    with Deployment("four_tier") as deployment:
        batched = _run_kv_batches(deployment.store, num_keys, scalar=False)
    with Deployment("four_tier") as deployment:
        scalar = _run_kv_batches(deployment.store, min(num_keys, max(200, num_keys // 10)), scalar=True)
    kv_table = ResultTable(
        title=(
            f"Cluster batch wire round trips — {NUM_NODES} remote TCP nodes, "
            f"RF={REPLICATION_FACTOR}"
        ),
        columns=["path", "keys", "max trips/node", "total trips", "keys/s", "wall clock"],
    )
    for label, row in (("scalar put+get loop", scalar), ("multi_put + multi_get", batched)):
        kv_table.add_row(
            label,
            f"{row['keys']:.0f}",
            f"{row['max_node_round_trips']:.0f}",
            f"{row['total_round_trips']:.0f}",
            f"{row['keys_per_s']:.0f}",
            format_duration(row["seconds"]),
        )
    kv_table.add_note(
        f"target: <= RF+1 = {REPLICATION_FACTOR + 1} round trips per node per batch, not n*RF"
    )
    kv_table.print()
    results["kv_batch"] = {"scalar": scalar, "batched": batched}

    # -- end-to-end ingest: remote vs in-process cluster --------------------------
    with Deployment("four_tier") as deployment:
        remote_ingest = _run_ingest(deployment.store, num_chunks, over_wire=True)
        queries = _run_queries(deployment.store, remote_ingest["engine"], remote_ingest["uuid"], num_chunks)
        burst = _run_grant_burst(deployment.store, remote_ingest["owner"], remote_ingest["uuid"], cohort)
    placement = {}
    for label, head in PLACEMENT_HEADS.items():
        with Deployment("four_tier") as deployment:
            placement[label] = _run_placement(deployment, head)
    inproc_cluster = StorageCluster(num_nodes=NUM_NODES, replication_factor=REPLICATION_FACTOR)
    inproc_ingest = _run_ingest(inproc_cluster, num_chunks)
    inproc_cluster.close()
    for row in (remote_ingest, inproc_ingest):
        row.pop("engine"), row.pop("owner"), row.pop("uuid")

    ingest_table = ResultTable(
        title=(
            f"Encrypted ingest through the cluster — {num_chunks} chunks, "
            f"{CHUNKS_PER_BATCH} chunks/batch"
        ),
        columns=["cluster", "records/s", "max trips/node/batch", "wall clock"],
    )
    ingest_table.add_row(
        "in-process nodes",
        f"{inproc_ingest['records_per_s']:.0f}",
        "-",
        format_duration(inproc_ingest["seconds"]),
    )
    ingest_table.add_row(
        "remote TCP nodes",
        f"{remote_ingest['records_per_s']:.0f}",
        f"{remote_ingest['max_node_round_trips_per_batch']:.2f}",
        format_duration(remote_ingest["seconds"]),
    )
    ingest_table.add_note(
        "socket tax: "
        f"{inproc_ingest['records_per_s'] / max(1.0, remote_ingest['records_per_s']):.2f}x "
        "slower than in-process at identical round-trip counts"
    )
    ingest_table.print()
    results["ingest"] = {"remote": remote_ingest, "in_process": inproc_ingest}

    query_table = ResultTable(
        title="Read path and grant burst over the remote cluster",
        columns=["operation", "payload", "max trips/node"],
    )
    query_table.add_row(
        "get_range", f"{queries['chunks_fetched']:.0f} chunks",
        f"{queries['range_max_node_round_trips']:.0f}",
    )
    query_table.add_row(
        "stat_range", "whole stream", f"{queries['stat_max_node_round_trips']:.0f}"
    )
    query_table.add_row(
        "grant burst", f"{burst['principals']:.0f} principals",
        f"{burst['max_node_round_trips']:.0f}",
    )
    query_table.add_row(
        "repeat grant burst", f"{burst['principals']:.0f} principals",
        f"{burst['repeat_total_round_trips']:.0f} in total",
    )
    query_table.add_note("targets: constant per-node round trips, independent of payload size")
    query_table.print()
    results["queries"] = queries
    results["grant_burst"] = burst

    # The per-key placement's last recorded rows ride along, frozen.
    with open(_DEFAULT_OUTPUT, "r", encoding="utf-8") as handle:
        historical = json.load(handle)["results"]["historical"]
    placement_table = ResultTable(
        title="Storage nodes touched by one single-stream operation",
        columns=["placement, stream", "ingest batch writes", "cold stat cover reads"],
    )
    for label, row in (
        ("per key (historical), new", historical["per_key_placement"]["placement"]),
        ("per stream partition, new", placement["new_stream"]),
        ("per stream partition, aged", placement["aged_stream"]),
    ):
        placement_table.add_row(
            label, f"{row['ingest_batch_nodes_written']}", f"{row['cold_cover_nodes_read']}"
        )
    placement_table.add_note(f"targets: RF = {REPLICATION_FACTOR} nodes written, 1 node read")
    placement_table.print()
    results["placement"] = placement
    results["historical"] = historical

    print(f"baseline written to {write_json_report(args.output, results)}")


if __name__ == "__main__":
    main()
