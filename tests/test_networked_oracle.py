"""Reads on a networked shape equal the plaintext oracle.

An owner ``TimeCrypt`` talks to a ``ShardedServerClient``, which routes each
stream to one of two engine shards behind a router
(``deploy_sharded_engines``) over real sockets.  The same records go into a
``PlaintextTimeSeriesStore``.  Every clipped ``get_range`` — chunk-aligned,
mid-chunk, empty, past the head, across gaps of empty windows — must return
exactly the oracle's points, before and after a ``delete_range``.  Every
``get_stat_range`` over the same kinds of range must return the oracle's
statistics, or fail with ``QueryError`` where the oracle does, on engines
whose index cache is too small to hold a node, after ingest batches that
cross the index's fanout² and fanout³ block boundaries.
"""

from __future__ import annotations

import contextlib
import random

import pytest

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.core.plaintext import PlaintextTimeSeriesStore
from repro.exceptions import QueryError
from repro.net.client import ShardedServerClient
from repro.server.router import deploy_sharded_engines

CHUNK_INTERVAL = 100
#: Codec / scale per stream; at least four streams, spread over both shards.
CONFIGS = [
    StreamConfig(chunk_interval=CHUNK_INTERVAL, compression=codec, value_scale=scale, index_fanout=4)
    for codec, scale in (("delta-zlib", 10), ("zlib", 1), ("delta", 100), ("none", 10))
]
END = 40 * CHUNK_INTERVAL
#: The stat streams run past 4³ = 64 windows.  The ingest batches (cut
#: mid-chunk) start at windows 0, 9, 14, 32, 48, 62 and 69: two start at a
#: block head, and the 4² and 4³ block boundaries fall inside a batch.
STAT_END = 70 * CHUNK_INTERVAL
STAT_CUTS = (950, 1_450, 3_220, 4_850, 6_250)


def _records(seed: int, end: int = END):
    """Irregular timestamps in ``[0, end)`` with two runs of empty windows."""
    rng = random.Random(seed)
    records, timestamp = [], 0
    while timestamp < end:
        if 10 * CHUNK_INTERVAL <= timestamp < 13 * CHUNK_INTERVAL:
            timestamp = 13 * CHUNK_INTERVAL + rng.randrange(CHUNK_INTERVAL)
        elif 25 * CHUNK_INTERVAL <= timestamp < 26 * CHUNK_INTERVAL:
            timestamp = 26 * CHUNK_INTERVAL
        records.append((timestamp, rng.uniform(-500.0, 500.0)))
        timestamp += rng.randrange(1, 23)
    return [record for record in records if record[0] < end]


def _batches(records, cuts):
    """Split ``records`` at the timestamps in ``cuts``."""
    bounds = [0] + [sum(1 for timestamp, _ in records if timestamp < cut) for cut in cuts] + [len(records)]
    return [records[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _ranges(seed: int, end: int = END):
    rng = random.Random(seed)
    fixed = [
        (0, end), (0, 1), (0, CHUNK_INTERVAL), (CHUNK_INTERVAL - 1, CHUNK_INTERVAL + 1),
        (950, 1350), (1000, 1300), (2450, 2650), (end - 1, end), (500, 500), (end - 100, end + 5000),
        (end, end + 1000),
    ]  # fmt: skip
    drawn = []
    for _ in range(20):
        start = rng.randrange(end)
        drawn.append((start, start + rng.randrange(1, 12 * CHUNK_INTERVAL)))
    return fixed + drawn


@contextlib.contextmanager
def _oracle_pair(end: int, cuts=(), **engine_options):
    """Owner over two sharded engines, plus the oracle, holding the same streams.

    Yields ``(owner, plain, uuids)``; every stream holds ``_records(i, end)``
    ingested in the batches ``cuts`` makes.
    """
    engines = {name: ServerEngine(**engine_options) for name in ("e0", "e1")}
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
            for store in (owner, plain):
                for batch in _batches(_records(index, end), cuts):
                    store.insert_records(uuid, batch)
                store.flush(uuid)
            uuids.append(uuid)
        yield owner, plain, uuids
    finally:
        client.close()
        router.stop()
        for shard in shards.values():
            shard.stop()
        for engine in engines.values():
            engine.close()


@pytest.fixture(scope="module")
def stores():
    with _oracle_pair(END) as pair:
        yield pair


@pytest.fixture(scope="module")
def cold_stores():
    # A one-byte index cache holds no node: every append and query goes cold.
    with _oracle_pair(STAT_END, STAT_CUTS, index_cache_bytes=1) as pair:
        yield pair


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


def _stat_or_error(store, uuid, start, end, operators):
    try:
        return store.get_stat_range(uuid, start, end, operators=operators)
    except QueryError:
        return QueryError


def test_stat_queries_equal_the_oracle_on_a_cold_index(cold_stores):
    owner, plain, uuids = cold_stores
    refused = 0
    for seed, uuid in enumerate(uuids):
        digest = CONFIGS[seed % len(CONFIGS)].digest
        operators = [op for op in ("sum", "count", "mean", "var") if op in digest.supported_operators()]
        assert plain.get_stat_range(uuid, 0, STAT_END, operators=("count",))["count"] > 0
        for start, end in _ranges(seed, STAT_END):
            expected = _stat_or_error(plain, uuid, start, end, operators)
            assert _stat_or_error(owner, uuid, start, end, operators) == expected, (start, end)
            refused += expected is QueryError
    assert refused  # the empty and past-the-head ranges were asked too
