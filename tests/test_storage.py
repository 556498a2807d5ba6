"""Tests for the storage substrate: memory/disk stores, partitioning, replication."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import Iterator, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage
import repro.storage.remote as remote_module
from repro.access.keystore import TokenStore
from repro.exceptions import PartitionError
from repro.storage.cluster import StorageCluster
from repro.storage.disk import AppendLogStore
from repro.storage.kv import KeyValueStore
from repro.storage.memory import MemoryStore
from repro.storage.node import StorageNodeServer
from repro.storage.partitioner import ConsistentHashRing
from repro.storage.remote import RemoteKeyValueStore


class TestMemoryStore:
    def test_put_get_delete(self):
        store = MemoryStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.delete(b"k") is True
        assert store.get(b"k") is None
        assert store.delete(b"k") is False

    def test_overwrite(self):
        store = MemoryStore()
        store.put(b"k", b"v1")
        store.put(b"k", b"v2")
        assert store.get(b"k") == b"v2"
        assert len(store) == 1

    def test_scan_prefix_ordered(self):
        store = MemoryStore()
        for key in (b"a/2", b"a/1", b"b/1"):
            store.put(key, key)
        assert [key for key, _ in store.scan_prefix(b"a/")] == [b"a/1", b"a/2"]

    def test_multi_get_and_put(self):
        store = MemoryStore()
        store.multi_put([(b"a", b"1"), (b"b", b"2")])
        assert store.multi_get([b"a", b"b", b"c"]) == {b"a": b"1", b"b": b"2", b"c": None}

    def test_contains_count_and_size(self):
        store = MemoryStore()
        store.put(b"pre/a", b"xx")
        store.put(b"pre/b", b"yy")
        assert store.contains(b"pre/a")
        assert store.count_prefix(b"pre/") == 2
        assert store.size_bytes() == len(b"pre/a") + len(b"pre/b") + 4

    def test_stats_counters(self):
        store = MemoryStore()
        store.put(b"k", b"v")
        store.get(b"k")
        store.delete(b"k")
        # Each one-key call is a batch of one: one round trip, one key.
        stats = store.stats
        assert (stats.multi_puts, stats.multi_gets, stats.multi_deletes) == (1, 1, 1)
        assert (stats.multi_put_keys, stats.multi_get_keys, stats.multi_delete_keys) == (1, 1, 1)
        assert stats.round_trips == 3

    @given(st.dictionaries(st.binary(min_size=1, max_size=16), st.binary(max_size=64), max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_store_behaves_like_dict(self, mapping):
        store = MemoryStore()
        for key, value in mapping.items():
            store.put(key, value)
        for key, value in mapping.items():
            assert store.get(key) == value
        assert len(store) == len(mapping)


class TestAppendLogStore:
    def test_put_get_roundtrip(self, tmp_path):
        with AppendLogStore(tmp_path / "store.log") as store:
            store.put(b"key", b"value")
            assert store.get(b"key") == b"value"

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "store.log"
        with AppendLogStore(path) as store:
            store.put(b"a", b"1")
            store.put(b"b", b"2")
            store.delete(b"a")
        with AppendLogStore(path) as reopened:
            assert reopened.get(b"a") is None
            assert reopened.get(b"b") == b"2"
            assert len(reopened) == 1

    def test_latest_version_wins(self, tmp_path):
        path = tmp_path / "store.log"
        with AppendLogStore(path) as store:
            store.put(b"k", b"old")
            store.put(b"k", b"new")
            assert store.get(b"k") == b"new"
        with AppendLogStore(path) as reopened:
            assert reopened.get(b"k") == b"new"

    def test_scan_prefix(self, tmp_path):
        with AppendLogStore(tmp_path / "store.log") as store:
            store.put(b"x/1", b"a")
            store.put(b"y/1", b"b")
            store.put(b"x/2", b"c")
            assert [key for key, _ in store.scan_prefix(b"x/")] == [b"x/1", b"x/2"]

    def test_compaction_preserves_data_and_shrinks_log(self, tmp_path):
        path = tmp_path / "store.log"
        store = AppendLogStore(path)
        for round_index in range(5):
            for key_index in range(20):
                store.put(f"k{key_index}".encode(), f"value-{round_index}".encode())
        size_before = path.stat().st_size
        store.compact()
        assert path.stat().st_size < size_before
        for key_index in range(20):
            assert store.get(f"k{key_index}".encode()) == b"value-4"
        store.close()

    def test_torn_final_record_is_truncated(self, tmp_path):
        path = tmp_path / "store.log"
        with AppendLogStore(path) as store:
            store.put(b"good", b"value")
        with open(path, "ab") as log:
            log.write(b"\x00\x00\x00\x04\x00\x00")  # half a record header + nothing
        with AppendLogStore(path) as reopened:
            assert reopened.get(b"good") == b"value"
            assert len(reopened) == 1

    def test_tombstone_then_reinsert(self, tmp_path):
        with AppendLogStore(tmp_path / "store.log") as store:
            store.put(b"k", b"v1")
            store.delete(b"k")
            store.put(b"k", b"v2")
            assert store.get(b"k") == b"v2"


_KEYS = st.text(alphabet="ab/", min_size=1, max_size=4).map(str.encode)
_CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _KEYS),
        st.tuples(st.just("multi_put"), st.lists(_KEYS, max_size=5)),
        st.tuples(st.just("delete"), _KEYS),
        st.tuples(st.just("multi_delete"), st.lists(_KEYS, max_size=3)),
        st.tuples(st.just("scan"), _KEYS),
        st.tuples(st.just("open_scan"), _KEYS),
    ),
    max_size=40,
)


class TestSortedKeyCache:
    """Queued inserts plus removal rebuilds scan exactly like ``sorted(dict)``."""

    @given(backend=st.sampled_from(["memory", "append-log"]), ops=_CACHE_OPS)
    @settings(max_examples=60, deadline=None)
    def test_scans_match_a_sorted_dict(self, backend, ops):
        with tempfile.TemporaryDirectory() as directory:
            store = MemoryStore() if backend == "memory" else AppendLogStore(Path(directory) / "s.log")
            model = {}
            live = []  # (iterator, captured list, its contents when captured)
            for step, (op, arg) in enumerate(ops):
                value = b"v%d" % step
                if op == "put":
                    store.put(arg, value)
                    model[arg] = value
                elif op == "multi_put":
                    store.multi_put([(key, value) for key in arg])
                    model.update((key, value) for key in arg)
                elif op == "delete":
                    assert store.delete(arg) is (model.pop(arg, None) is not None)
                elif op == "multi_delete":
                    existed = {key for key in arg if key in model}
                    assert store.multi_delete(arg) == existed
                    for key in existed:
                        del model[key]
                elif op == "scan":
                    want = sorted(key for key in model if key.startswith(arg))
                    assert [key for key, _value in store.scan_prefix(arg)] == want
                    assert [key for key, _size in store.scan_sizes(arg)] == want
                else:
                    iterator = store.scan_prefix(arg)
                    next(iterator, None)  # captures the published list
                    captured = store._keys_sorted()
                    live.append((iterator, captured, list(captured)))
                assert store._keys_sorted() == sorted(model)
            for iterator, captured, contents in live:
                list(iterator)
                assert captured == contents  # a published list is never mutated
            assert [key for key, _value in store.scan_prefix(b"")] == sorted(model)
            store.close()

    def test_overwrite_keeps_the_list_and_an_insert_copies_it(self):
        store = MemoryStore()
        store.multi_put([(b"k/%03d" % index, b"v") for index in range(128)])
        first = store._keys_sorted()
        store.multi_put([(b"k/000", b"w"), (b"k/001", b"w")])
        assert store._keys_sorted() is first
        store.multi_put([(b"k/0005", b"v")])
        second = store._keys_sorted()
        assert second is not first and b"k/0005" not in first
        assert second == sorted(first + [b"k/0005"])


# ---------------------------------------------------------------------------
# The scan contract, one table over every backend
# ---------------------------------------------------------------------------

#: Keys chosen for the interval edges: the empty key, a key equal to a
#: prefix, keys ending in NUL (the least byte strings above their stems) and
#: keys above every printable prefix.
_CONTRACT_KEYS = [
    b"", b"\x00", b"a", b"a\x00", b"a\x00\x00", b"a\x01", b"a/1", b"a/2",
    b"ab", b"ab\x00", b"ab/1", b"ab/2", b"b", b"b\x00", b"\xff", b"\xff\xff",
]
_CONTRACT_ITEMS = {key: bytes(index + 1) for index, key in enumerate(_CONTRACT_KEYS)}

#: ``(prefix, lo, hi)`` cases; each is checked against a sorted-dict reference.
_CONTRACT_CASES = [
    (b"", b"", None),  # the whole keyspace, the empty key first
    (b"", b"\x00", None),  # resuming after the empty key
    (b"", b"", b""),  # only the empty key
    (b"a", b"", None),  # a key equal to the prefix is under it
    (b"a", b"a\x00", None),  # resuming after b"a" still yields b"a\x00"
    (b"a", b"a\x00\x00", None),
    (b"a", b"a\x00\x00\x00", b"a/1"),
    (b"ab", b"a", b"b"),  # lo and hi both outside the prefix
    (b"ab", b"ab/1", b"ab/1"),  # a single key
    (b"a/", b"", b"a/1\x00"),
    (b"a", b"b", None),  # lo past the prefix region
    (b"b", b"", b"a"),  # hi below the prefix region
    (b"a", b"ab", b"a\x01"),  # lo > hi
    (b"\xff", b"", None),
    (b"c", b"", None),  # nothing under the prefix
]


def _reference(prefix: bytes, lo: bytes, hi: Optional[bytes]):
    return [
        (key, _CONTRACT_ITEMS[key])
        for key in sorted(_CONTRACT_ITEMS)
        if key.startswith(prefix) and lo <= key and (hi is None or key <= hi)
    ]


@pytest.fixture(params=["memory", "append-log", "remote", "cluster", "remote-cluster"])
def scan_backend(request, tmp_path, monkeypatch):
    """A store of each backend kind holding :data:`_CONTRACT_ITEMS`.

    Remote backends page two items at a time, so every multi-key case also
    exercises the resume point ``lo = last_key + b"\\x00"``.
    """
    monkeypatch.setattr(remote_module, "SCAN_PAGE_SIZE", 2)
    with ExitStack() as stack:

        def remote_store(_name: str = "") -> RemoteKeyValueStore:
            server = stack.enter_context(StorageNodeServer(MemoryStore()))
            store = RemoteKeyValueStore(*server.address, timeout=5.0)
            stack.callback(store.close)
            return store

        if request.param == "memory":
            store: KeyValueStore = MemoryStore()
        elif request.param == "append-log":
            store = AppendLogStore(tmp_path / "scan.log")
        elif request.param == "remote":
            store = remote_store()
        elif request.param == "cluster":
            store = StorageCluster(num_nodes=3, replication_factor=2)
        else:
            store = StorageCluster(num_nodes=3, replication_factor=2, store_factory=remote_store)
        stack.callback(store.close)
        store.multi_put(sorted(_CONTRACT_ITEMS.items()))
        yield store


class TestScanContract:
    @pytest.mark.parametrize("prefix, lo, hi", _CONTRACT_CASES)
    def test_scans_match_a_sorted_dict(self, scan_backend, prefix, lo, hi):
        want = _reference(prefix, lo, hi)
        assert list(scan_backend.scan_prefix(prefix, lo, hi)) == want
        assert list(scan_backend.scan_sizes(prefix, lo, hi)) == [
            (key, len(value)) for key, value in want
        ]

    def test_defaults_cover_the_whole_prefix(self, scan_backend):
        assert list(scan_backend.scan_prefix(b"a")) == _reference(b"a", b"", None)
        assert scan_backend.count_prefix(b"ab") == len(_reference(b"ab", b"", None))
        assert scan_backend.size_bytes() == sum(
            len(key) + len(value) for key, value in _CONTRACT_ITEMS.items()
        )


class _VisitCountingStore(KeyValueStore):
    """Wraps a MemoryStore and counts the items its scans walk."""

    def __init__(self) -> None:
        self._inner = MemoryStore()
        self.visits = 0

    def multi_get(self, keys):
        return self._inner.multi_get(keys)

    def multi_put(self, items):
        self._inner.multi_put(items)

    def multi_delete(self, keys):
        return self._inner.multi_delete(keys)

    def scan_prefix(
        self, prefix: bytes, lo: bytes = b"", hi: Optional[bytes] = None
    ) -> Iterator[Tuple[bytes, bytes]]:
        for item in self._inner.scan_prefix(prefix, lo, hi):
            self.visits += 1
            yield item


def test_interval_scan_walks_only_its_interval_on_the_node():
    store = _VisitCountingStore()
    with StorageNodeServer(store) as server:
        remote = RemoteKeyValueStore(*server.address, timeout=5.0)
        tokens = TokenStore(store=remote)
        tokens.put_envelopes("s", 4, {window: b"e%d" % window for window in range(1000)})
        store.visits = 0
        envelopes = tokens.envelopes_for_range("s", 4, 500, 502)
        assert envelopes == {500: b"e500", 501: b"e501", 502: b"e502"}
        # The node seeks to lo and stops past hi; it does not walk the 500
        # envelope keys below the interval.
        assert store.visits <= 4
        remote.close()


def test_no_bundled_backend_overrides_the_one_key_ops():
    """``get`` / ``put`` / ``delete`` are one-key batches written once on
    :class:`KeyValueStore`; a backend implements only the batch ops."""
    backends = set()
    for module_info in pkgutil.iter_modules(repro.storage.__path__):
        module = importlib.import_module(f"repro.storage.{module_info.name}")
        backends.update(
            cls
            for cls in vars(module).values()
            if inspect.isclass(cls) and issubclass(cls, KeyValueStore) and cls.__module__ == module.__name__
        )
    assert {cls.__name__ for cls in backends} >= {
        "KeyValueStore", "MemoryStore", "AppendLogStore", "RemoteKeyValueStore", "StorageCluster",
    }  # fmt: skip
    for cls in backends - {KeyValueStore}:
        assert not {"get", "put", "delete"} & set(vars(cls)), cls.__name__


class TestConsistentHashRing:
    def test_requires_nodes(self):
        ring = ConsistentHashRing()
        with pytest.raises(PartitionError):
            ring.primary(b"key")

    def test_duplicate_node_rejected(self):
        ring = ConsistentHashRing(["n1"])
        with pytest.raises(ValueError):
            ring.add_node("n1")

    def test_replicas_are_distinct(self):
        ring = ConsistentHashRing(["n1", "n2", "n3"])
        replicas = ring.replicas(b"some-key", 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3

    def test_replication_capped_by_cluster_size(self):
        ring = ConsistentHashRing(["n1", "n2"])
        assert len(ring.replicas(b"k", 5)) == 2

    def test_placement_is_deterministic(self):
        ring = ConsistentHashRing(["n1", "n2", "n3"])
        assert ring.primary(b"abc") == ring.primary(b"abc")

    def test_remove_node_moves_only_its_keys(self):
        ring = ConsistentHashRing(["n1", "n2", "n3"], virtual_tokens=128)
        keys = [f"key-{i}".encode() for i in range(500)]
        before = {key: ring.primary(key) for key in keys}
        ring.remove_node("n2")
        after = {key: ring.primary(key) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        # Only keys previously owned by n2 may move.
        assert all(before[key] == "n2" for key in moved)
        assert all(after[key] != "n2" for key in keys)

    def test_remove_unknown_node(self):
        ring = ConsistentHashRing(["n1"])
        with pytest.raises(ValueError):
            ring.remove_node("n9")

    def test_ownership_roughly_balanced(self):
        ring = ConsistentHashRing(["n1", "n2", "n3", "n4"], virtual_tokens=256)
        fractions = ring.ownership_fractions(sample_keys=2000)
        assert all(0.10 < fraction < 0.45 for fraction in fractions.values())


class TestStorageCluster:
    def test_basic_roundtrip(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.put(b"k", b"v")
        assert cluster.get(b"k") == b"v"
        assert cluster.delete(b"k") is True
        assert cluster.get(b"k") is None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            StorageCluster(num_nodes=0)
        with pytest.raises(ValueError):
            StorageCluster(num_nodes=2, replication_factor=0)

    def test_data_is_replicated(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.put(b"key", b"value")
        holders = [
            name for name in cluster.node_names if cluster.node_store(name).get(b"key") is not None
        ]
        assert len(holders) == 2

    def test_survives_single_node_failure(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        for i in range(50):
            cluster.put(f"k{i}".encode(), f"v{i}".encode())
        cluster.mark_down(cluster.node_names[0])
        for i in range(50):
            assert cluster.get(f"k{i}".encode()) == f"v{i}".encode()

    def test_all_replicas_down_raises(self):
        cluster = StorageCluster(num_nodes=2, replication_factor=2)
        cluster.put(b"k", b"v")
        cluster.mark_down("node-0")
        cluster.mark_down("node-1")
        with pytest.raises(PartitionError):
            cluster.get(b"k")
        cluster.mark_up("node-0")
        assert cluster.get(b"k") == b"v"

    def test_scan_prefix_deduplicates_replicas(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=3)
        cluster.put(b"p/1", b"a")
        cluster.put(b"p/2", b"b")
        items = list(cluster.scan_prefix(b"p/"))
        assert [key for key, _ in items] == [b"p/1", b"p/2"]

    def test_logical_vs_physical_size(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=3)
        cluster.put(b"k", b"vvvv")
        assert cluster.physical_size_bytes() == 3 * cluster.size_bytes()

    def test_repair_node(self):
        cluster = StorageCluster(num_nodes=3, replication_factor=2)
        cluster.mark_down("node-1")
        for i in range(30):
            cluster.put(f"k{i}".encode(), b"v")
        cluster.mark_up("node-1")
        repaired = cluster.repair_node("node-1")
        assert repaired >= 0
        # After repair every key it should own is present locally.
        missing = [
            key
            for key, _ in cluster.scan_prefix(b"")
            if "node-1" in cluster.healthy_replicas(key)
            and cluster.node_store("node-1").get(key) is None
        ]
        assert missing == []

    def test_cluster_with_disk_backend(self, tmp_path):
        cluster = StorageCluster(
            num_nodes=2,
            replication_factor=2,
            store_factory=lambda name: AppendLogStore(tmp_path / f"{name}.log"),
        )
        cluster.put(b"k", b"v")
        assert cluster.get(b"k") == b"v"
        cluster.close()
