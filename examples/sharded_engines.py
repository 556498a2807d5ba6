#!/usr/bin/env python3
"""Horizontal engine sharding: four engines behind a stream router.

The engine tier is stateless apart from what it persists in storage, so
TimeCrypt scales it *horizontally*: N :class:`~repro.server.engine
.ServerEngine` processes, each behind its own TCP server, with stream
ownership decided by consistent-hashing the stream uuid across the shard
names.  A :class:`~repro.net.client.ShardedServerClient` learns the
routing table in the ``hello`` handshake and talks straight to each
stream's owner — the hot path has no extra hop.  A
:class:`~repro.server.router.StreamRouter` fronts the same shards for
routing-unaware clients and proxies their requests to the right engine.

The demo deploys four engine shards over one shared store, ingests a
handful of streams through the routing-aware client, shows where each
stream landed, pokes a *wrong* shard directly to see the typed redirect,
reads through the router proxy, onboards a consumer, then removes one
engine live: the survivors pick up its streams from shared storage and
the client converges onto the new table (epoch bump) without losing a
read.  It closes by scraping the router's unified metrics and the span
buffer over the wire — ``stats`` and ``trace_dump`` each cost exactly one
round trip.

Run it with ``python examples/sharded_engines.py``.
"""

from __future__ import annotations

from repro import Principal, StreamConfig, TimeCrypt, TimeCryptConsumer
from repro.deploy import Deployment
from repro.exceptions import WrongShardError
from repro.net.client import RemoteServerClient
from repro.net.messages import Request

NUM_ENGINES = 4
NUM_STREAMS = 6


def main() -> None:
    # -- the engine tier: four shards over one shared storage tier --------------
    with Deployment("sharded", engines=NUM_ENGINES, tracing=True) as deployment:
        router, shards, client = deployment.router, deployment.shards, deployment.client
        for name, shard in sorted(shards.items()):
            host, port = shard.address
            print(f"engine shard {name} listening on {host}:{port}")
        host, port = router.address
        print(f"stream router listening on {host}:{port}")

        table = client.routing_table
        print(f"client learned the routing table at hello (epoch {table.epoch}, {len(table)} engines)")

        # -- ingest: the routing-aware client goes straight to each owner ------
        owner = TimeCrypt(server=client, owner_id="alice")
        config = StreamConfig(chunk_interval=5_000, value_scale=100)
        streams = [
            owner.create_stream(metric=f"sensor-{index}", config=config)
            for index in range(NUM_STREAMS)
        ]
        for stream in streams:
            owner.insert_records(stream, [(t * 1000, 20.0 + (t % 7)) for t in range(300)])
            owner.flush(stream)
        placement = {stream: table.owner_of(stream) for stream in streams}
        for index, stream in enumerate(streams):
            print(f"sensor-{index} ({stream[:8]}…) -> {placement[stream]}")

        stats = owner.get_stat_range(streams[0], 0, 300_000, operators=("count", "mean"))
        print("owner query via the owning shard:", {k: round(v, 3) for k, v in stats.items()})

        # -- ownership is enforced: a wrong shard answers with a redirect ------
        target = streams[0]
        foreign = next(name for name in sorted(shards) if name != placement[target])
        with RemoteServerClient(*shards[foreign].address, timeout=5.0) as direct:
            try:
                direct.stream_head(target)
            except WrongShardError as redirect:
                print(f"{foreign} refused the misrouted read: {redirect}")

        # -- routing-unaware clients just talk to the router proxy -------------
        with RemoteServerClient(host, port, timeout=5.0) as legacy:
            head = legacy.stream_head(target)
            print(f"router proxied a legacy client's read (head={head} chunks)")

        # -- a consumer onboards through the sharded tier ----------------------
        bob = Principal.create("bob")
        owner.register_principal(bob)
        owner.grant_access(target, bob.principal_id, 0, 150_000)
        consumer = TimeCryptConsumer(server=client, principal=bob)
        consumer.warm_up([target])
        print(
            "restricted consumer read:",
            consumer.get_stat_range(target, 0, 150_000, operators=("count", "mean")),
        )

        # -- remove an engine live: survivors adopt its streams ----------------
        victim = placement[target]
        shards[victim].stop()
        router.remove_engine(victim)
        stats = owner.get_stat_range(target, 0, 300_000, operators=("count", "mean"))
        new_table = client.routing_table
        print(
            f"{victim} removed live: {target[:8]}… rehashed to "
            f"{new_table.owner_of(target)} (epoch {new_table.epoch}), which loaded the "
            f"stream from shared storage — query still answers "
            f"{ {k: round(v, 3) for k, v in stats.items()} }"
        )

        # -- observability: scrape any tier's telemetry in one round trip ------
        with RemoteServerClient(host, port, timeout=5.0) as probe:
            metrics = probe.call_many([Request("stats")])[0].result["metrics"]
            sched = metrics["server.scheduler[router]"]
            print(
                f"stats scrape of the router (1 round trip): "
                f"{sched['dispatched_interactive']} interactive frames dispatched, "
                f"{metrics['tracing.spans']['recorded']} spans recorded in-process"
            )
            spans = probe.call_many([Request("trace_dump")])[0].result["spans"]
            last = next(s for s in reversed(spans) if s["op"] == "stat_range")
            tree = [s for s in spans if s["trace_id"] == last["trace_id"]]
            print(
                f"trace_dump: the last stat_range trace ({last['trace_id']}) has "
                f"{len(tree)} spans across {sorted({s['node'] for s in tree})}"
            )
    print("router and engine shards shut down")


if __name__ == "__main__":
    main()
