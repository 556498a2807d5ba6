#!/usr/bin/env python3
"""A genuinely distributed deployment: TimeCrypt over remote storage nodes.

The other examples keep storage in-process.  This one runs the paper's
deployment shape end to end, as the ``four_tier``
:class:`~repro.deploy.Deployment`: three *storage node* processes
(:class:`~repro.storage.node.StorageNodeServer`, each a TCP server fronting
its own local store, speaking the pipelined ``kv_*`` wire protocol), a
:class:`~repro.storage.cluster.StorageCluster` whose ``store_factory`` dials
them with :class:`~repro.storage.remote.RemoteKeyValueStore` clients, and
crypto-oblivious engine shards on top, behind a stream router and reached
with a routing-aware client — so every request, every replicated write and
every batched read crosses a real socket, one wire round trip per owning
node per cluster batch.

The demo ingests, queries, onboards a consumer with the pipelined cold-start
warm-up, then kills a node mid-traffic, shows the cluster re-routing around
it (parking hints for the writes it misses), restarts it on the same port,
and heals it by replaying the hints on ``mark_up`` — ``repair_node`` then
confirms there is nothing left to backfill.  Finally it scales the cluster
out to a fourth node (streaming only the moved ranges) and back in — all
over sockets, all while the data stays readable — and signs off by scraping
a storage node's unified metrics and span buffer over the wire (``stats``
and ``trace_dump``, one round trip each).

Run it with ``python examples/remote_cluster.py``.
"""

from __future__ import annotations

from repro import Principal, StreamConfig, TimeCrypt, TimeCryptConsumer
from repro.deploy import REPLICATION_FACTOR, Deployment
from repro.net.client import RemoteServerClient
from repro.net.messages import Request


def main() -> None:
    # -- storage nodes, engine shards, router and client, all over TCP ----------
    with Deployment("four_tier", tracing=True) as deployment:
        for name, (host, port) in deployment.addresses.items():
            print(f"storage {name} listening on {host}:{port}")
        cluster, server = deployment.store, deployment.client
        owner = TimeCrypt(server=server, owner_id="alice")

        # -- ingest: every cluster batch is one round trip per owning node -----
        config = StreamConfig(chunk_interval=5_000, value_scale=100)
        stream = owner.create_stream(metric="temperature", unit="celsius", config=config)
        records = [(t * 1000, 21.5 + 0.01 * (t % 300)) for t in range(900)]
        owner.insert_records(stream, records)
        owner.flush(stream)
        per_node = {
            name: cluster.node_store(name).wire_stats.round_trips
            for name in cluster.node_names
        }
        print(
            f"ingested {len(records)} records into {server.stream_head(stream)} encrypted "
            f"chunks replicated over TCP (per-node wire round trips: {per_node})"
        )

        stats = owner.get_stat_range(stream, 0, 900_000, operators=("count", "mean"))
        print("owner query across the socket tier:", {k: round(v, 3) for k, v in stats.items()})

        # -- consumer cold start: grants + metadata + envelopes, pipelined -----
        bob = Principal.create("bob")
        owner.register_principal(bob)
        owner.grant_access(stream, bob.principal_id, 0, 450_000, resolution_interval=25_000)
        consumer = TimeCryptConsumer(server=server, principal=bob)
        consumer.warm_up([stream])
        print(
            "restricted consumer after warm-up:",
            consumer.get_stat_range(stream, 0, 450_000, operators=("count", "mean")),
        )

        # -- kill a node: traffic re-routes, hints park on the survivors -------
        victim = "node-1"
        deployment.kill(victim)
        owner.insert_records(stream, [(t * 1000, 20.0) for t in range(900, 1200)])
        owner.flush(stream)
        print(
            f"{victim} killed mid-ingest: cluster re-routed around it "
            f"(marked down: {sorted(cluster._down)}), head now {server.stream_head(stream)}; "
            "every write it missed parked a hint on a surviving replica"
        )

        # -- restart on the same port: mark_up replays the hints ---------------
        deployment.restart(victim)
        replayed = cluster.mark_up(victim)
        repaired = cluster.repair_node(victim)
        print(
            f"{victim} restarted: {replayed} hinted writes replayed over the wire, "
            f"repair_node then found {repaired} keys left to backfill"
        )

        stats = owner.get_stat_range(stream, 0, 1_200_000, operators=("count", "mean"))
        print("owner query after heal:", {k: round(v, 3) for k, v in stats.items()})
        logical, physical = cluster.size_bytes(), cluster.physical_size_bytes()
        print(
            f"cluster stores {logical} logical bytes "
            f"({physical} physical, replication factor {REPLICATION_FACTOR})"
        )

        # -- scale out: a fourth node joins live -------------------------------
        deployment.add_node("node-3")
        moved = cluster.last_rebalance
        print(
            f"node-3 joined live: {moved['moved_keys']} keys changed replicas, "
            f"{moved['copied_keys']} streamed over in {moved['handoff_batches']} "
            "bounded batches (reads kept working mid-handoff)"
        )

        # -- scale back in: the newcomer leaves, survivors re-absorb its ranges
        deployment.decommission("node-3")
        stats = owner.get_stat_range(stream, 0, 1_200_000, operators=("count", "mean"))
        print(
            f"node-3 decommissioned (cluster back to {cluster.node_names}); "
            "query after the full cycle:",
            {k: round(v, 3) for k, v in stats.items()},
        )

        # -- observability: scrape a storage node's telemetry over the wire ----
        with RemoteServerClient(*deployment.addresses["node-0"], timeout=5.0) as probe:
            reply = probe.call_many([Request("stats")])[0].result
            metrics = reply["metrics"]
            print(
                f"stats scrape of {reply['node']} (1 round trip): "
                f"{len(metrics)} metric sources, "
                f"{metrics['tracing.spans']['recorded']} spans recorded in-process"
            )
            spans = probe.call_many([Request("trace_dump")])[0].result["spans"]
            kv = [s for s in spans if s["kind"] == "server" and s["op"].startswith("kv_")]
            print(
                f"trace_dump: {len(kv)} kv_* server spans buffered from the "
                "replicated wire traffic"
            )
    print("storage nodes, engine shards and router shut down")


if __name__ == "__main__":
    main()
