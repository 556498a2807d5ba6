"""Shared fixtures and scale knobs for the benchmark suite.

Every benchmark mirrors a table or figure from the paper's evaluation (§6).
Absolute numbers differ from the paper (Python simulator vs. their AWS/JVM
deployment); the quantity being reproduced is the *relative* behaviour —
TimeCrypt ≈ plaintext, strawman orders of magnitude behind.

The ``BENCH_SCALE`` environment variable scales workload sizes (default 1.0);
CI-style quick runs can set it below 1, overnight runs above.
"""

from __future__ import annotations

import os

import pytest

from repro import DigestConfig, ServerEngine, StreamConfig, TimeCrypt
from repro.baselines.strawman import StrawmanStore
from repro.core.plaintext import PlaintextTimeSeriesStore

SCALE = float(os.environ.get("BENCH_SCALE", "1.0"))


def scaled(value: int, minimum: int = 1) -> int:
    """Scale a workload size by BENCH_SCALE, with a floor."""
    return max(minimum, int(value * SCALE))


@pytest.fixture(scope="module")
def bench_config() -> StreamConfig:
    """The digest/index configuration shared by the comparison benchmarks."""
    # Sum-only digest: the Table 2 micro-benchmark isolates one statistical
    # operation so the comparison measures the digest cipher, not digest width.
    return StreamConfig(
        chunk_interval=10_000,
        index_fanout=64,
        key_tree_height=30,
        digest=DigestConfig(include_count=False, include_sum_of_squares=False),
    )


@pytest.fixture(scope="module")
def timecrypt_with_data(bench_config):
    """A TimeCrypt deployment with a pre-ingested stream (sum-only digest)."""
    server = ServerEngine()
    owner = TimeCrypt(server=server, owner_id="bench")
    uuid = owner.create_stream(metric="bench", config=bench_config)
    num_chunks = scaled(4096)
    interval = bench_config.chunk_interval
    for chunk_index in range(num_chunks):
        owner.insert_record(uuid, chunk_index * interval, float(chunk_index % 100))
    owner.flush(uuid)
    return owner, uuid, num_chunks


@pytest.fixture(scope="module")
def plaintext_with_data(bench_config):
    """The plaintext baseline with an identical pre-ingested stream."""
    store = PlaintextTimeSeriesStore()
    uuid = store.create_stream(config=bench_config)
    num_chunks = scaled(4096)
    interval = bench_config.chunk_interval
    for chunk_index in range(num_chunks):
        store.insert_record(uuid, chunk_index * interval, float(chunk_index % 100))
    store.flush(uuid)
    return store, uuid, num_chunks


@pytest.fixture(scope="module")
def paillier_store(bench_config):
    """A Paillier strawman with a small pre-ingested index (it is slow)."""
    store = StrawmanStore(scheme_name="paillier", paillier_bits=512)
    uuid = store.create_stream(config=bench_config)
    for chunk_index in range(scaled(64)):
        store.ingest_digest(uuid, [chunk_index % 100])
    return store, uuid


@pytest.fixture(scope="module")
def ecelgamal_store(bench_config):
    """An EC-ElGamal strawman with a small pre-ingested index (it is slow)."""
    store = StrawmanStore(scheme_name="ec-elgamal", ec_max_plaintext=1 << 20)
    uuid = store.create_stream(config=bench_config)
    for chunk_index in range(scaled(64)):
        store.ingest_digest(uuid, [chunk_index % 100])
    return store, uuid
