"""Grant ids without a scan per burst, and key envelopes published once.

``TokenStore`` hands out grant ids from in-memory per-stream counters
(recovered by one keys-only scan) and ``GrantManager`` publishes each
resolution envelope once per token store.  These tests pin what that
bookkeeping must keep true: distinct ids under concurrency, ids that
follow other engines after a shard-epoch reset, consumers that still
decrypt when nothing is republished, and retries after a failed write.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import ServerEngine, StreamConfig, TimeCrypt, TimeCryptConsumer
from repro.access.keystore import TokenStore
from repro.access.policy import Resolution
from repro.exceptions import StorageError
from repro.net.client import RemoteServerClient
from repro.net.server import TimeCryptTCPServer
from repro.storage.memory import MemoryStore
from tests.conftest import make_principal, run_concurrently

CONFIG = StreamConfig(chunk_interval=1_000, key_tree_height=16, index_fanout=4)


class _SlowScanStore(MemoryStore):
    """Every prefix scan answers 2 ms after it read: widens any scan-then-write window."""

    def scan_prefix(self, prefix, lo=b"", hi=None):
        items = list(super().scan_prefix(prefix, lo, hi))
        time.sleep(0.002)
        return iter(items)


class _EnvelopeSpy:
    """Wraps a token store's ``put_envelopes``: records windows, can fail once."""

    def __init__(self, token_store, fail_next: bool = False) -> None:
        self.calls = []
        self.fail_next = fail_next
        self._inner = token_store.put_envelopes
        token_store.put_envelopes = self

    def __call__(self, stream_uuid, resolution_chunks, envelopes):
        if self.fail_next:
            self.fail_next = False
            raise StorageError("injected envelope write failure")
        self.calls.append(sorted(envelopes))
        return self._inner(stream_uuid, resolution_chunks, envelopes)


@pytest.fixture
def owned_stream():
    owner = TimeCrypt(server=ServerEngine(), owner_id="owner")
    uuid = owner.create_stream(config=CONFIG)
    owner.insert_records(uuid, [(t, float(t % 7)) for t in range(0, 16_000, 500)])
    owner.flush(uuid)
    return owner, uuid


def _restricted_count(owner, uuid, principal, start=0):
    consumer = TimeCryptConsumer(server=owner.server, principal=principal)
    consumer.fetch_access(uuid, CONFIG)
    return consumer.get_stat_range(uuid, start, 16_000, operators=("count",))["count"]


# -- grant ids ------------------------------------------------------------------------------------


@pytest.mark.parametrize("attempt", range(10))
def test_concurrent_bursts_for_one_principal_get_distinct_ids(attempt):
    """Two threads granting one (stream, principal) at once: no grant is lost."""
    store = TokenStore(_SlowScanStore())
    barrier = threading.Barrier(2, timeout=30)
    ids = []

    def grant(blob: bytes) -> None:
        barrier.wait()
        ids.extend(store.put_grants([("s", "alice", blob)]))

    run_concurrently(grant, [(b"first",), (b"second",)])
    assert sorted(ids) == [0, 1]
    assert sorted(store.grants_for("s", "alice")) == [b"first", b"second"]


def test_ids_follow_a_peer_engine_after_a_shard_epoch_reset():
    data, tokens = MemoryStore(), MemoryStore()
    engine_a = ServerEngine(store=data, token_store=TokenStore(tokens))
    engine_b = ServerEngine(store=data, token_store=TokenStore(tokens))
    assert engine_a.put_grants([("s", "alice", b"a0")]) == [0]
    assert engine_b.put_grants([("s", "alice", b"b1")]) == [1]
    engine_a.reset_stream_cache()
    assert engine_a.put_grants([("s", "alice", b"a2")]) == [2]
    assert engine_a.fetch_grants("s", "alice") == [b"a0", b"b1", b"a2"]


def test_a_steady_burst_is_one_write_and_no_scan():
    backing = MemoryStore()
    store = TokenStore(backing)
    store.put_grants([("s", "alice", b"a0")])
    backing.stats.reset()
    assert store.put_grants([("s", "alice", b"a1"), ("s", "bob", b"b0")]) == [1, 0]
    assert backing.stats.scans == 0
    assert backing.stats.round_trips == 1


def test_a_failed_write_rescans_before_the_next_id():
    class FailingOnce(MemoryStore):
        fail = False

        def multi_put(self, items):
            if self.fail:
                self.fail = False
                raise StorageError("injected grant write failure")
            return super().multi_put(items)

    backing = FailingOnce()
    store = TokenStore(backing)
    assert store.put_grants([("s", "alice", b"a0")]) == [0]
    backing.fail = True
    with pytest.raises(StorageError):
        store.put_grants([("s", "alice", b"lost")])
    assert store.put_grants([("s", "alice", b"a1")]) == [1]
    assert store.grants_for("s", "alice") == [b"a0", b"a1"]


def test_a_drop_waits_for_a_burst_still_writing():
    """A delete on the stream while a burst writes cannot hand that burst's id out again."""

    class PausedWrite(MemoryStore):
        def __init__(self) -> None:
            super().__init__()
            self.writing = threading.Event()
            self.resume = threading.Event()

        def multi_put(self, items):
            if not self.writing.is_set():
                self.writing.set()
                assert self.resume.wait(30)
            return super().multi_put(items)

    backing = PausedWrite()
    store = TokenStore(backing)
    ids = []
    first = threading.Thread(target=lambda: ids.extend(store.put_grants([("s", "alice", b"first")])))
    first.start()
    assert backing.writing.wait(30)
    delete = threading.Thread(target=store.delete_grants, args=("s", "bob"))
    delete.start()
    delete.join(0.2)  # a drop that does not wait for the write has returned by now
    second = threading.Thread(target=lambda: ids.extend(store.put_grants([("s", "alice", b"second")])))
    second.start()
    time.sleep(0.05)
    backing.resume.set()
    for thread in (first, delete, second):
        thread.join(30)
    assert not any(thread.is_alive() for thread in (first, delete, second))
    assert sorted(ids) == [0, 1]
    assert sorted(store.grants_for("s", "alice")) == [b"first", b"second"]


def test_delete_grants_restarts_the_count():
    store = TokenStore()
    store.put_grants([("s", "alice", b"a0"), ("s", "alice", b"a1")])
    assert store.delete_grants("s", "alice") == 2
    assert store.put_grants([("s", "alice", b"again")]) == [0]


# -- envelopes ------------------------------------------------------------------------------------


def test_a_repeated_restricted_grant_publishes_nothing(owned_stream):
    owner, uuid = owned_stream
    first, second = (make_principal(owner, name) for name in ("first", "second"))
    spy = _EnvelopeSpy(owner.server.token_store)
    owner.grant_access(uuid, first.principal_id, 0, 16_000, resolution_interval=4_000)
    assert spy.calls == [[0, 4, 8, 12, 16]]
    owner.grant_access(uuid, second.principal_id, 0, 16_000, resolution_interval=4_000)
    assert spy.calls == [[0, 4, 8, 12, 16]]
    assert _restricted_count(owner, uuid, second) == 32


def test_an_extended_grant_publishes_only_the_new_windows(owned_stream):
    owner, uuid = owned_stream
    principal = make_principal(owner, "reader")
    spy = _EnvelopeSpy(owner.server.token_store)
    owner.grant_access(uuid, principal.principal_id, 0, 8_000, resolution_interval=4_000)
    owner.grant_access(uuid, principal.principal_id, 4_000, 16_000, resolution_interval=4_000)
    assert spy.calls == [[0, 4, 8], [12, 16]]
    assert _restricted_count(owner, uuid, principal, start=4_000) == 24


def test_a_failed_publication_is_retried_by_the_next_grant(owned_stream):
    owner, uuid = owned_stream
    first, second = (make_principal(owner, name) for name in ("first", "second"))
    spy = _EnvelopeSpy(owner.server.token_store, fail_next=True)
    with pytest.raises(StorageError):
        owner.grant_access(uuid, first.principal_id, 0, 16_000, resolution_interval=4_000)
    owner.grant_access(uuid, second.principal_id, 0, 16_000, resolution_interval=4_000)
    assert spy.calls == [[0, 4, 8, 12, 16]]
    assert _restricted_count(owner, uuid, second) == 32


def test_publish_envelopes_republishes_what_the_server_lost(owned_stream):
    owner, uuid = owned_stream
    first, second = (make_principal(owner, name) for name in ("first", "second"))
    owner.grant_access(uuid, first.principal_id, 0, 16_000, resolution_interval=4_000)
    owner.server.token_store.delete_stream(uuid)  # grants and envelopes gone
    manager = owner._streams[uuid].keys.grant_manager(owner.identity_provider, owner.server.token_store)
    assert manager.publish_envelopes(Resolution.from_interval(4_000, 1_000), 0, 16) == 5
    owner.grant_access(uuid, second.principal_id, 0, 16_000, resolution_interval=4_000)
    assert _restricted_count(owner, uuid, second) == 32


# -- server side ----------------------------------------------------------------------------------


def test_delete_stream_erases_grants_and_envelopes(owned_stream):
    owner, uuid = owned_stream
    principal = make_principal(owner, "reader")
    owner.grant_access(uuid, principal.principal_id, 0, 16_000, resolution_interval=4_000)
    server = owner.server
    tokens = server.token_store._store
    assert any(uuid.encode() in key for key, _value in tokens.scan_prefix(b""))
    owner.delete_stream(uuid)
    for store in (server.store, tokens):
        assert [key for key, _value in store.scan_prefix(b"") if uuid.encode() in key] == []


def test_an_empty_envelope_batch_costs_no_wire_call():
    with TimeCryptTCPServer(ServerEngine()) as server:
        with RemoteServerClient(*server.address) as remote:
            remote.wire_stats.reset()
            remote.token_store.put_envelopes("s", 2, {})
            assert remote.wire_stats.batches_sent == 0
            assert remote.wire_stats.round_trips == 0
