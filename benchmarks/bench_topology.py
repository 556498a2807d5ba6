"""Elastic cluster topology: keys moved on add/decommission, handoff cost,
and the hint-replay window versus a full ``repair_node``.

PR 4 gave the storage tier real remote nodes; this benchmark measures the
lifecycle PR 5 adds on top, over real-socket
:class:`~repro.storage.node.StorageNodeServer` processes:

1. **Scale-out** — ``add_node`` on a loaded cluster streams only the moved
   ranges: the moved-key fraction is ≈ 1/N (± virtual-token variance), and
   the destination node sees a bounded two round trips per handoff batch
   (one ``multi_get`` membership probe, one ``multi_put`` backfill — the
   old owners absorb the value reads), plus one scan page each for the
   keyspace walk and the hint-rebalance pass.
2. **Scale-in** — ``decommission_node`` returns the leaver's ranges to the
   survivors; after a full add → decommission cycle the cluster's merged
   keyspace is byte-identical to a never-resized control cluster fed the
   same writes.
3. **Hinted handoff** — writes issued while a node is down park hints on
   the survivors; ``mark_up`` replays exactly the missed writes, so the
   subsequent ``repair_node`` heals 0 keys.  The same outage without hints
   must heal everything through ``repair_node``'s full keyspace walk — the
   benchmark reports both heal windows (keys touched, wire round trips on
   the recovered node, wall clock).

Run as a script to print the tables and refresh ``BENCH_topology.json``:

    PYTHONPATH=src python benchmarks/bench_topology.py

``--smoke`` shrinks the workload for CI smoke jobs (the round-trip and
fraction assertions still hold); ``BENCH_SCALE`` scales the full run.  The
assertions also run under plain pytest:
``pytest benchmarks/bench_topology.py``.
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.bench.reporting import ResultTable, format_duration, write_json_report
from repro.deploy import NUM_NODES, REPLICATION_FACTOR, Deployment
from repro.storage.cluster import StorageCluster

from conftest import scaled

#: Keys loaded before the topology change.
TOPOLOGY_KEYS = scaled(3000, minimum=400)
#: Keys written while a replica is down (the hint window).
OUTAGE_KEYS = scaled(600, minimum=120)
VALUE_BYTES = 64
HANDOFF_BATCH = 128

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_topology.json"


def _items(count: int, prefix: str = "k") -> List[Tuple[bytes, bytes]]:
    return [
        (f"{prefix}/{index:06d}".encode(), bytes([index % 251]) * VALUE_BYTES)
        for index in range(count)
    ]


def _run_scale_out(deployment: Deployment, num_keys: int) -> Dict[str, float]:
    """Load the cluster, add a remote node, account the handoff."""
    items = _items(num_keys)
    cluster = deployment.store
    cluster.multi_put(items)
    deployment.launch("node-3")
    destination = deployment.dial("node-3")
    destination.connect()
    destination.wire_stats.reset()
    begin = time.perf_counter()
    cluster.add_node("node-3", store=destination, handoff_batch_size=HANDOFF_BATCH)
    elapsed = time.perf_counter() - begin
    stats = dict(cluster.last_rebalance)
    destination_trips = destination.wire_stats.round_trips  # before the read check
    fetched = cluster.multi_get([key for key, _ in items])
    assert all(fetched[key] == value for key, value in items), "post-add read failed"
    batches = max(1, stats["handoff_batches"])
    return {
        "keys": num_keys,
        "moved_keys": stats["moved_keys"],
        "moved_fraction": stats["moved_keys"] / num_keys,
        # A key "moves" when its replica *set* changes; the new node joins
        # the RF-deep set of RF/(N+1) of the keyspace (its primary-ownership
        # share is the familiar 1/(N+1) — see ownership_fractions).
        "expected_fraction": REPLICATION_FACTOR / (NUM_NODES + 1),
        "copied_keys": stats["copied_keys"],
        "handoff_batches": stats["handoff_batches"],
        "destination_round_trips": destination_trips,
        "destination_round_trips_per_batch": destination_trips / batches,
        "seconds": elapsed,
    }


def _run_scale_in(deployment: Deployment, num_keys: int) -> Dict[str, float]:
    """Decommission the added node and check against a static control."""
    begin = time.perf_counter()
    stats = deployment.store.decommission_node("node-3", handoff_batch_size=HANDOFF_BATCH)
    elapsed = time.perf_counter() - begin
    control = StorageCluster(num_nodes=NUM_NODES, replication_factor=REPLICATION_FACTOR)
    control.multi_put(_items(num_keys))
    identical = list(deployment.store.scan_prefix(b"")) == list(control.scan_prefix(b""))
    control.close()
    return {
        "moved_keys": stats["moved_keys"],
        "copied_keys": stats["copied_keys"],
        "handoff_batches": stats["handoff_batches"],
        "seconds": elapsed,
        "byte_identical_to_static": identical,
    }


def _run_outage_heal(hinted: bool, num_keys: int, outage_keys: int) -> Dict[str, float]:
    """Kill a replica, write through the outage, restart, heal, account it.

    The cluster is this arm's own, over the deployment's storage nodes, so
    hinted handoff can be switched off for the control arm.
    """
    with Deployment("four_tier") as deployment:
        cluster = StorageCluster(
            num_nodes=NUM_NODES,
            replication_factor=REPLICATION_FACTOR,
            hinted_handoff=hinted,
            store_factory=deployment.dial,
        )
        cluster.multi_put(_items(num_keys, prefix="pre"))
        deployment.kill("node-1")
        during = _items(outage_keys, prefix="outage")
        cluster.multi_put(during)  # socket failure -> mark-down -> hints
        assert "node-1" in cluster._down
        deployment.restart("node-1")
        recovered = cluster.node_store("node-1")
        recovered.wire_stats.reset()
        begin = time.perf_counter()
        replayed = cluster.mark_up("node-1")
        replay_seconds = time.perf_counter() - begin
        replay_trips = recovered.wire_stats.round_trips
        begin = time.perf_counter()
        repaired = cluster.repair_node("node-1")
        repair_seconds = time.perf_counter() - begin
        fetched = cluster.multi_get([key for key, _ in during])
        assert all(fetched[key] == value for key, value in during), "post-heal read failed"
        cluster.close()
        return {
            "hinted_handoff": hinted,
            "keys_before_outage": num_keys,
            "keys_written_during_outage": outage_keys,
            "hints_replayed": replayed,
            "replay_round_trips_on_node": replay_trips,
            "replay_seconds": replay_seconds,
            "repair_healed": repaired,
            "repair_seconds": repair_seconds,
        }


# ---------------------------------------------------------------------------
# Assertions (collected by pytest, reused by the script)
# ---------------------------------------------------------------------------


def test_add_node_moves_one_over_n_with_bounded_handoff():
    num_keys = min(TOPOLOGY_KEYS, 600)
    with Deployment("four_tier") as deployment:
        out = _run_scale_out(deployment, num_keys)
    expected = out["expected_fraction"]
    assert 0.5 * expected <= out["moved_fraction"] <= 1.5 * expected, out
    # One membership multi_get + one backfill multi_put per batch, plus
    # one scan page each for the merged keyspace walk and the post-handoff
    # hint-rebalance pass (both empty on the new node).
    assert out["destination_round_trips"] <= 2 * out["handoff_batches"] + 2, out


def test_add_then_decommission_is_byte_identical_to_static():
    num_keys = min(TOPOLOGY_KEYS, 600)
    with Deployment("four_tier") as deployment:
        _run_scale_out(deployment, num_keys)
        back = _run_scale_in(deployment, num_keys)
    assert back["byte_identical_to_static"], back


def test_hint_replay_leaves_repair_nothing():
    heal = _run_outage_heal(hinted=True, num_keys=200, outage_keys=80)
    assert heal["hints_replayed"] > 0, heal
    assert heal["repair_healed"] == 0, heal


def test_without_hints_repair_is_the_only_heal_path():
    heal = _run_outage_heal(hinted=False, num_keys=200, outage_keys=80)
    assert heal["hints_replayed"] == 0, heal
    assert heal["repair_healed"] > 0, heal


# ---------------------------------------------------------------------------
# Script entry point: tables + BENCH_topology.json baseline
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
    num_keys = 400 if args.smoke else TOPOLOGY_KEYS
    outage_keys = 120 if args.smoke else OUTAGE_KEYS

    results: Dict[str, object] = {
        "smoke": args.smoke,
        "topology": {"nodes": NUM_NODES, "replication_factor": REPLICATION_FACTOR},
    }

    # -- scale out / scale in over real sockets -----------------------------------
    with Deployment("four_tier") as deployment:
        out = _run_scale_out(deployment, num_keys)
        back = _run_scale_in(deployment, num_keys)
    assert 0.5 * out["expected_fraction"] <= out["moved_fraction"] <= 1.5 * out["expected_fraction"], out
    assert out["destination_round_trips"] <= 2 * out["handoff_batches"] + 2, out
    assert back["byte_identical_to_static"], back

    elastic_table = ResultTable(
        title=(
            f"Live topology changes — {NUM_NODES}(+1) remote TCP nodes, "
            f"RF={REPLICATION_FACTOR}, {num_keys} keys"
        ),
        columns=[
            "change", "moved keys", "fraction", "copied", "batches",
            "dest trips/batch", "wall clock",
        ],
    )
    elastic_table.add_row(
        "add_node (3→4)",
        f"{out['moved_keys']:.0f}",
        f"{out['moved_fraction']:.3f} (≈{out['expected_fraction']:.3f})",
        f"{out['copied_keys']:.0f}",
        f"{out['handoff_batches']:.0f}",
        f"{out['destination_round_trips_per_batch']:.2f}",
        format_duration(out["seconds"]),
    )
    elastic_table.add_row(
        "decommission (4→3)",
        f"{back['moved_keys']:.0f}",
        "-",
        f"{back['copied_keys']:.0f}",
        f"{back['handoff_batches']:.0f}",
        "-",
        format_duration(back["seconds"]),
    )
    elastic_table.add_note(
        "targets: moved replica-set fraction ≈ RF/N on add (primary share ≈ 1/N); "
        "≤ 2 destination round trips per "
        "handoff batch (+2 scan pages); add→decommission byte-identical to a "
        f"static cluster: {back['byte_identical_to_static']}"
    )
    elastic_table.print()
    results["scale_out"] = out
    results["scale_in"] = back

    # -- hint replay vs full repair ------------------------------------------------
    hinted = _run_outage_heal(hinted=True, num_keys=num_keys, outage_keys=outage_keys)
    unhinted = _run_outage_heal(hinted=False, num_keys=num_keys, outage_keys=outage_keys)
    assert hinted["repair_healed"] == 0 and hinted["hints_replayed"] > 0, hinted
    assert unhinted["repair_healed"] > 0, unhinted

    heal_table = ResultTable(
        title=(
            f"Outage heal window — {outage_keys} writes missed a downed replica "
            f"({num_keys} keys resident)"
        ),
        columns=[
            "mode", "hints replayed", "repair healed", "node trips (replay)",
            "replay", "repair walk",
        ],
    )
    heal_table.add_row(
        "hinted handoff",
        f"{hinted['hints_replayed']:.0f}",
        f"{hinted['repair_healed']:.0f}",
        f"{hinted['replay_round_trips_on_node']:.0f}",
        format_duration(hinted["replay_seconds"]),
        format_duration(hinted["repair_seconds"]),
    )
    heal_table.add_row(
        "repair_node only",
        f"{unhinted['hints_replayed']:.0f}",
        f"{unhinted['repair_healed']:.0f}",
        "-",
        "-",
        format_duration(unhinted["repair_seconds"]),
    )
    heal_table.add_note(
        "hint replay touches only the missed writes; the repair walk streams the "
        "whole deduplicated keyspace — hints leave it 0 keys to heal"
    )
    heal_table.print()
    results["outage_heal"] = {"hinted": hinted, "repair_only": unhinted}

    print(f"baseline written to {write_json_report(args.output, results)}")


if __name__ == "__main__":
    main()
