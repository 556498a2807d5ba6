"""Wire round trips over a real socket: pipelined v2 vs. the scalar wire.

PR 1 batched key derivation, PR 2 batched storage round trips; this
benchmark tracks the network half — the seam where a
:class:`~repro.net.client.RemoteServerClient` used to undo both wins by
shipping one operation per locked round trip.  Three claims are measured
over a real TCP socket (loopback, in-process server):

1. **Ingest** — an N-chunk ingest batch must cost ≤ 2 wire round trips
   through the pipelined client (one ``insert_chunks`` frame per delivered
   batch, plus the final flush), a ≥ 10× reduction vs. the scalar wire
   (one one-chunk ``insert_chunks`` round trip per chunk).
2. **Queries** — a raw range read covering the whole stream and a
   statistical range query each cost one round trip, however many chunks
   or index nodes they touch.
3. **Grant bursts** — onboarding a cohort of K principals costs ≤ 2 round
   trips through ``put_grants`` (vs. K one-grant bursts), and a
   K-principal grant *pickup* collapses into one round trip through
   ``pipeline()``.

Run as a script to print the tables and refresh ``BENCH_net.json``:

    PYTHONPATH=src python benchmarks/bench_net_pipeline.py

``--smoke`` shrinks the workload for CI smoke jobs (round-trip counts are
deterministic, so the assertions still hold); ``BENCH_SCALE`` scales the
full run.  The assertions also run under plain pytest:
``pytest benchmarks/bench_net_pipeline.py``.
"""

from __future__ import annotations

import argparse
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from repro import Principal, ServerEngine, TimeCrypt
from repro.bench.reporting import ResultTable, format_duration, write_json_report
from repro.net.client import RemoteServerClient
from repro.net.server import TimeCryptTCPServer
from repro.timeseries.stream import StreamConfig
from repro.util.timeutil import TimeRange

from conftest import scaled

#: Ingest workload: short chunks so per-chunk wire overhead dominates.
INGEST_CHUNKS = scaled(256, minimum=64)
POINTS_PER_CHUNK = 4
CHUNK_INTERVAL_MS = 1_000
#: Client-side ingest batch: chunks delivered per ``insert_records`` call.
CHUNKS_PER_BATCH = 32
TREE_HEIGHT = 30

GRANT_BURST = scaled(24, minimum=8)

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_net.json"


@contextmanager
def _remote_stack(**client_kwargs) -> Iterator[RemoteServerClient]:
    """A fresh engine behind a real TCP server, plus one connected client."""
    engine = ServerEngine()
    with TimeCryptTCPServer(engine) as server:
        host, port = server.address
        with RemoteServerClient(host, port, **client_kwargs) as remote:
            yield remote


def _ingest_records(num_chunks: int) -> List[Tuple[int, float]]:
    step = CHUNK_INTERVAL_MS // POINTS_PER_CHUNK
    return [
        (t, float((t // step) % 100))
        for t in range(0, num_chunks * CHUNK_INTERVAL_MS, step)
    ]


def _stream_config() -> StreamConfig:
    return StreamConfig(chunk_interval=CHUNK_INTERVAL_MS, key_tree_height=TREE_HEIGHT)


def _run_ingest(remote: RemoteServerClient, num_chunks: int, scalar_wire: bool) -> Dict[str, float]:
    """Ingest ``num_chunks`` chunks; returns wall clock and wire counters.

    ``scalar_wire`` reproduces the pre-pipelining behaviour — every chunk
    shipped as its own one-chunk round trip — by disabling the
    writer's bulk delivery path against the *same* server, so the
    comparison isolates wire batching from everything else.
    """
    owner = TimeCrypt(server=remote, owner_id="bench")
    uuid = owner.create_stream(metric="net-bench", config=_stream_config())
    if scalar_wire:
        owner._streams[uuid].writer.batch_sink = None
    records = _ingest_records(num_chunks)
    batch_records = CHUNKS_PER_BATCH * POINTS_PER_CHUNK
    num_batches = 0
    remote.wire_stats.reset()
    begin = time.perf_counter()
    for offset in range(0, len(records), batch_records):
        owner.insert_records(uuid, records[offset : offset + batch_records])
        num_batches += 1
    owner.flush(uuid)
    elapsed = time.perf_counter() - begin
    round_trips = remote.wire_stats.round_trips
    return {
        "seconds": elapsed,
        "records_per_s": len(records) / elapsed if elapsed else 0.0,
        "wire_round_trips": round_trips,
        "round_trips_per_batch": round_trips / num_batches,
        "num_batches": num_batches,
        "num_chunks": num_chunks,
        "uuid": uuid,
    }


def _run_queries(remote: RemoteServerClient, uuid: str, num_chunks: int) -> Dict[str, float]:
    remote.wire_stats.reset()
    chunks = remote.get_range(uuid, TimeRange(0, num_chunks * CHUNK_INTERVAL_MS))
    range_round_trips = remote.wire_stats.round_trips
    remote.wire_stats.reset()
    # Ragged by one chunk: a whole-stream stat is the single head node of a
    # signed cover, and the point is one round trip for a multi-node plan.
    result = remote.stat_range(uuid, TimeRange(CHUNK_INTERVAL_MS, num_chunks * CHUNK_INTERVAL_MS))
    stat_round_trips = remote.wire_stats.round_trips
    return {
        "chunks_fetched": len(chunks),
        "range_round_trips": range_round_trips,
        "plan_nodes": result.num_index_nodes,
        "stat_round_trips": stat_round_trips,
    }


def _run_grant_burst(remote: RemoteServerClient, num_principals: int, batched: bool) -> Dict[str, float]:
    owner = TimeCrypt(server=remote, owner_id="bench")
    uuid = owner.create_stream(metric="grant-bench", config=_stream_config())
    owner.insert_records(uuid, _ingest_records(4))
    owner.flush(uuid)
    cohort = [Principal.create(f"principal-{index}") for index in range(num_principals)]
    for principal in cohort:
        owner.register_principal(principal)
    horizon = 4 * CHUNK_INTERVAL_MS
    remote.wire_stats.reset()
    begin = time.perf_counter()
    if batched:
        owner.grant_access_many(
            uuid, [(p.principal_id, 0, horizon, None) for p in cohort]
        )
    else:
        for principal in cohort:
            owner.grant_access(uuid, principal.principal_id, 0, horizon)
    issue_elapsed = time.perf_counter() - begin
    issue_round_trips = remote.wire_stats.round_trips
    # Grant pickup: K fetch_grants, pipelined into one round trip when batched.
    remote.wire_stats.reset()
    if batched:
        with remote.pipeline() as batch:
            handles = [batch.fetch_grants(uuid, p.principal_id) for p in cohort]
        pickups = [handle.result() for handle in handles]
    else:
        pickups = [remote.fetch_grants(uuid, p.principal_id) for p in cohort]
    pickup_round_trips = remote.wire_stats.round_trips
    assert all(len(sealed) >= 1 for sealed in pickups)
    return {
        "principals": num_principals,
        "issue_seconds": issue_elapsed,
        "issue_round_trips": issue_round_trips,
        "pickup_round_trips": pickup_round_trips,
    }


# ---------------------------------------------------------------------------
# Assertions (collected by pytest, reused by the script)
# ---------------------------------------------------------------------------


def test_ingest_round_trip_reduction():
    """Pipelined wire: ≥10× fewer round trips per ingest batch than scalar."""
    num_chunks = min(INGEST_CHUNKS, 128)
    with _remote_stack() as remote:
        batched = _run_ingest(remote, num_chunks, scalar_wire=False)
    with _remote_stack() as remote:
        scalar = _run_ingest(remote, num_chunks, scalar_wire=True)
    reduction = scalar["round_trips_per_batch"] / batched["round_trips_per_batch"]
    assert batched["round_trips_per_batch"] <= 2.0, batched
    assert reduction >= 10.0, (
        f"wire round-trip reduction {reduction:.1f}x below the 10x target "
        f"(scalar {scalar['round_trips_per_batch']:.1f}, batched "
        f"{batched['round_trips_per_batch']:.1f} per ingest batch)"
    )


def test_query_round_trips_are_constant():
    """A whole-stream range read and a stat query cost one round trip each."""
    num_chunks = min(INGEST_CHUNKS, 128)
    with _remote_stack() as remote:
        ingest = _run_ingest(remote, num_chunks, scalar_wire=False)
        queries = _run_queries(remote, ingest["uuid"], num_chunks)
    assert queries["chunks_fetched"] == num_chunks
    assert queries["range_round_trips"] <= 2
    assert queries["plan_nodes"] > 1
    assert queries["stat_round_trips"] == 1


def test_grant_burst_round_trips():
    """A K-principal grant burst costs ≤2 round trips; pickup pipelines to 1."""
    cohort = min(GRANT_BURST, 12)
    with _remote_stack() as remote:
        batched = _run_grant_burst(remote, cohort, batched=True)
    with _remote_stack() as remote:
        scalar = _run_grant_burst(remote, cohort, batched=False)
    assert batched["issue_round_trips"] <= 2
    assert batched["pickup_round_trips"] == 1
    assert scalar["issue_round_trips"] >= cohort
    assert scalar["pickup_round_trips"] == cohort


# ---------------------------------------------------------------------------
# Script entry point: tables + BENCH_net.json baseline
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
    cohort = 8 if args.smoke else GRANT_BURST

    results: Dict[str, object] = {"smoke": args.smoke}

    with _remote_stack() as remote:
        batched = _run_ingest(remote, num_chunks, scalar_wire=False)
        queries = _run_queries(remote, batched["uuid"], num_chunks)
    with _remote_stack() as remote:
        scalar = _run_ingest(remote, num_chunks, scalar_wire=True)
    reduction = scalar["round_trips_per_batch"] / batched["round_trips_per_batch"]
    batched.pop("uuid")
    scalar.pop("uuid")

    ingest_table = ResultTable(
        title=(
            f"Wire round trips per ingest batch — {num_chunks} chunks, "
            f"{CHUNKS_PER_BATCH} chunks/batch, real TCP socket"
        ),
        columns=["wire", "round trips/batch", "total", "records/s", "wall clock"],
    )
    for label, row in (("one chunk per insert_chunks", scalar), ("pipelined insert_chunks", batched)):
        ingest_table.add_row(
            label,
            f"{row['round_trips_per_batch']:.1f}",
            f"{row['wire_round_trips']:.0f}",
            f"{row['records_per_s']:.0f}",
            format_duration(row["seconds"]),
        )
    ingest_table.add_note(f"round-trip reduction: {reduction:.1f}x (target >= 10x)")
    ingest_table.print()

    query_table = ResultTable(
        title="Query wire round trips (whole stream)",
        columns=["query", "payload", "round trips"],
    )
    query_table.add_row(
        "get_range", f"{queries['chunks_fetched']:.0f} chunks", f"{queries['range_round_trips']:.0f}"
    )
    query_table.add_row(
        "stat_range", f"{queries['plan_nodes']:.0f} plan nodes", f"{queries['stat_round_trips']:.0f}"
    )
    query_table.add_note("target: one round trip per query, whatever the payload size")
    query_table.print()

    with _remote_stack() as remote:
        grant_batched = _run_grant_burst(remote, cohort, batched=True)
    with _remote_stack() as remote:
        grant_scalar = _run_grant_burst(remote, cohort, batched=False)
    grant_table = ResultTable(
        title=f"Grant burst — {cohort} principals over the wire",
        columns=["path", "issue round trips", "pickup round trips", "issue wall clock"],
    )
    for label, row in (
        ("one grant per grant_access", grant_scalar),
        ("put_grants + pipeline", grant_batched),
    ):
        grant_table.add_row(
            label,
            f"{row['issue_round_trips']:.0f}",
            f"{row['pickup_round_trips']:.0f}",
            format_duration(row["issue_seconds"]),
        )
    grant_table.add_note(
        f"issue reduction: {grant_scalar['issue_round_trips'] / max(1, grant_batched['issue_round_trips']):.1f}x"
    )
    grant_table.print()

    results["ingest"] = {
        "chunks": num_chunks,
        "chunks_per_batch": CHUNKS_PER_BATCH,
        "scalar": scalar,
        "pipelined": batched,
        "round_trip_reduction": round(reduction, 2),
    }
    results["queries"] = queries
    results["grant_burst"] = {
        "scalar": grant_scalar,
        "batched": grant_batched,
    }

    print(f"baseline written to {write_json_report(args.output, results)}")


if __name__ == "__main__":
    main()
