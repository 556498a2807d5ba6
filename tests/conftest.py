"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random
import sys
import threading

import pytest

from repro import (
    DigestConfig,
    HistogramConfig,
    Principal,
    ServerEngine,
    StreamConfig,
    TimeCrypt,
)
from repro.crypto.keytree import KeyDerivationTree
from repro.deploy import SHAPES, Deployment
from repro.obs.metrics import REGISTRY
from repro.storage.memory import MemoryStore


@pytest.fixture(scope="session", autouse=True)
def _lockwatch():
    """Opt-in runtime lock-order watchdog for the whole session.

    ``REPRO_LOCKWATCH=1 pytest …`` instruments every lock the repro
    modules construct from here on and fails the session on any
    lock-order inversion observed anywhere in the run (blocking-call
    observations are recorded but not fatal — the static analyzer's
    REPRO004 waivers document the intentional ones).
    """
    from repro.analysis.lockwatch import install_from_env

    watcher = install_from_env(os.environ.get("REPRO_LOCKWATCH"))
    yield watcher
    if watcher is not None:
        watcher.uninstall()
        assert not watcher.ordering_violations, watcher.report()


def _transport_keys():
    """Registry keys of clients, storage clients, engines and servers."""
    families = ("client.wire", "store.remote", "engine.", "server.")
    return {key for key in REGISTRY.snapshot() if key.startswith(families)}


@pytest.fixture(scope="module", params=SHAPES)
def deployment(request):
    """One :class:`Deployment` of each shape, shared by a module's tests.

    Its engines have a one-byte index cache, which holds no node, so every
    index append and query reads storage.  After ``close()`` no thread the
    deployment started may be alive, and the metrics registry may hold no
    client, storage-client, engine or server key it did not hold before the
    build.
    """
    threads = set(threading.enumerate())
    keys = _transport_keys()
    with Deployment(request.param, index_cache_bytes=1) as built:
        yield built
    assert [thread.name for thread in threading.enumerate() if thread not in threads] == []
    assert sorted(_transport_keys() - keys) == []


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for value generation in tests."""
    return random.Random(1234)


@pytest.fixture
def small_config() -> StreamConfig:
    """A small, fast stream configuration: 1 s chunks, tiny key tree, 4-ary index."""
    return StreamConfig(
        chunk_interval=1_000,
        key_tree_height=16,
        index_fanout=4,
        digest=DigestConfig(histogram=HistogramConfig(boundaries=(25, 50, 75))),
    )


@pytest.fixture
def key_tree() -> KeyDerivationTree:
    """A deterministic key-derivation tree for crypto tests."""
    return KeyDerivationTree(seed=bytes(range(16)), height=16, prg="blake2")


@pytest.fixture
def memory_store() -> MemoryStore:
    return MemoryStore()


@pytest.fixture
def server() -> ServerEngine:
    return ServerEngine()


@pytest.fixture
def owner(server: ServerEngine) -> TimeCrypt:
    return TimeCrypt(server=server, owner_id="alice")


@pytest.fixture
def populated_stream(owner: TimeCrypt, small_config: StreamConfig):
    """A stream with 60 s of one-per-100ms data; returns (owner, uuid, records)."""
    uuid = owner.create_stream(metric="heart-rate", config=small_config)
    records = [(t, 50 + (t // 1_000) % 40) for t in range(0, 60_000, 100)]
    owner.insert_records(uuid, records)
    owner.flush(uuid)
    return owner, uuid, records


def make_principal(owner: TimeCrypt, name: str) -> Principal:
    """Create and register a principal with the owner's identity provider."""
    principal = Principal.create(name)
    owner.register_principal(principal)
    return principal


def run_concurrently(target, arguments, timeout: float = 60.0) -> None:
    """One thread per argument tuple, with a short switch interval; all must finish."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target, args=args) for args in arguments]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
