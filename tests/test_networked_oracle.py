"""Raw range reads on a networked shape equal the plaintext oracle.

An owner ``TimeCrypt`` talks to a ``ShardedServerClient``, which routes each
stream to one of two engine shards behind a router
(``deploy_sharded_engines``) over real sockets.  The same records go into a
``PlaintextTimeSeriesStore``; every clipped ``get_range`` — chunk-aligned,
mid-chunk, empty, past the head, across gaps of empty windows — must return
exactly the oracle's points, before and after a ``delete_range``.
"""

from __future__ import annotations

import random

import pytest

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.core.plaintext import PlaintextTimeSeriesStore
from repro.net.client import ShardedServerClient
from repro.server.router import deploy_sharded_engines

CHUNK_INTERVAL = 100
#: Codec / scale per stream; at least four streams, spread over both shards.
CONFIGS = [
    StreamConfig(chunk_interval=CHUNK_INTERVAL, compression=codec, value_scale=scale, index_fanout=4)
    for codec, scale in (("delta-zlib", 10), ("zlib", 1), ("delta", 100), ("none", 10))
]
END = 40 * CHUNK_INTERVAL


def _records(seed: int):
    """Irregular timestamps in ``[0, END)`` with two runs of empty windows."""
    rng = random.Random(seed)
    records, timestamp = [], 0
    while timestamp < END:
        if 10 * CHUNK_INTERVAL <= timestamp < 13 * CHUNK_INTERVAL:
            timestamp = 13 * CHUNK_INTERVAL + rng.randrange(CHUNK_INTERVAL)
        elif 25 * CHUNK_INTERVAL <= timestamp < 26 * CHUNK_INTERVAL:
            timestamp = 26 * CHUNK_INTERVAL
        records.append((timestamp, rng.uniform(-500.0, 500.0)))
        timestamp += rng.randrange(1, 23)
    return [record for record in records if record[0] < END]


def _ranges(seed: int):
    rng = random.Random(seed)
    fixed = [
        (0, END), (0, 1), (0, CHUNK_INTERVAL), (CHUNK_INTERVAL - 1, CHUNK_INTERVAL + 1),
        (950, 1350), (1000, 1300), (2450, 2650), (3999, 4000), (500, 500), (3900, 9000),
        (4000, 5000),
    ]  # fmt: skip
    drawn = []
    for _ in range(20):
        start = rng.randrange(END)
        drawn.append((start, start + rng.randrange(1, 12 * CHUNK_INTERVAL)))
    return fixed + drawn


@pytest.fixture(scope="module")
def stores():
    engines = {name: ServerEngine() for name in ("e0", "e1")}
    router, shards = deploy_sharded_engines(engines, timeout=5.0)
    client = ShardedServerClient(*router.address, timeout=5.0)
    try:
        owner = TimeCrypt(server=client, owner_id="oracle")
        plain = PlaintextTimeSeriesStore()
        uuids = []
        # Stream ids are random: go round the configs until both shards own a stream.
        while len(uuids) < len(CONFIGS) or {client.routing_table.owner_of(uuid) for uuid in uuids} != set(engines):
            index = len(uuids)
            config = CONFIGS[index % len(CONFIGS)]
            uuid = owner.create_stream(metric=f"oracle-{index}", config=config)
            plain.create_stream(config=config, uuid=uuid)
            records = _records(index)
            for store in (owner, plain):
                store.insert_records(uuid, records)
                store.flush(uuid)
            uuids.append(uuid)
        yield owner, plain, uuids
    finally:
        client.close()
        router.stop()
        for shard in shards.values():
            shard.stop()


def _assert_ranges_match(owner, plain, uuid, seed):
    for start, end in _ranges(seed):
        expected = plain.get_range(uuid, start, end)
        assert owner.get_range(uuid, start, end) == expected, (start, end)


def test_clipped_range_reads_equal_the_oracle(stores):
    owner, plain, uuids = stores
    for seed, uuid in enumerate(uuids):
        assert plain.get_range(uuid, 0, END)  # the oracle holds the data
        _assert_ranges_match(owner, plain, uuid, seed)


def test_range_reads_equal_the_oracle_after_delete_range(stores):
    owner, plain, uuids = stores
    for seed, uuid in enumerate(uuids):
        start, end = 7 * CHUNK_INTERVAL + 50, (15 + seed) * CHUNK_INTERVAL
        assert owner.delete_range(uuid, start, end) == plain.delete_range(uuid, start, end) > 0
        assert plain.get_range(uuid, 8 * CHUNK_INTERVAL, 9 * CHUNK_INTERVAL) == []
        _assert_ranges_match(owner, plain, uuid, 100 + seed)
