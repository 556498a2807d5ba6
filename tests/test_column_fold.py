"""The index's column fold: equivalence with pairwise ``+``, and a differential run.

``DigestCombiner.fold`` sums all the vectors of one aggregation as integer
columns.  These tests pin it to the algorithm it replaced — left-to-right
cell-by-cell ``+`` — which survives as the default fold of a combiner built
from just ``add``/``size_of`` (the strawman shape) and serves as the
reference here.
"""

from __future__ import annotations

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ServerEngine, StreamConfig, TimeCrypt
from repro.crypto.heac import (
    MODULUS,
    HEACCipher,
    HEACCiphertext,
    aggregate_componentwise,
)
from repro.crypto.keytree import KeyDerivationTree
from repro.exceptions import IndexError_
from repro.index.node import DigestCombiner, heac_combiner, plaintext_combiner
from repro.index.tree import AggregationIndex
from repro.storage.memory import MemoryStore
from repro.timeseries.digest import DigestConfig
from repro.timeseries.serialization import decode_digest_vector, encode_digest_vector
from repro.util.encoding import pack_varint_list, unpack_varint_list

#: Ring values that exercise the 2^64 wrap when summed.
_WRAP_VALUES = st.one_of(
    st.integers(0, MODULUS - 1),
    st.sampled_from([0, 1, MODULUS - 1, MODULUS - 2, MODULUS // 2, MODULUS // 2 + 1]),
)


def _pairwise_combiner() -> DigestCombiner:
    """The parent algorithm: no n-ary fold, so ``fold`` is left-to-right ``add``."""
    return DigestCombiner(add=operator.add, size_of=lambda _cell: 8)


@st.composite
def _adjacent_vectors(draw):
    """Vectors of one width over a random adjacent partition of a window range."""
    width = draw(st.integers(1, 16))
    lengths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=12))
    position = draw(st.integers(0, 1 << 30))
    vectors = []
    for length in lengths:
        values = draw(st.lists(_WRAP_VALUES, min_size=width, max_size=width))
        vectors.append([HEACCiphertext(value, position, position + length) for value in values])
        position += length
    return vectors


class TestFoldEquivalence:
    @given(_adjacent_vectors())
    @settings(max_examples=150, deadline=None)
    def test_heac_fold_equals_left_to_right_add(self, vectors):
        expected = list(vectors[0])
        for vector in vectors[1:]:
            expected = [a + b for a, b in zip(expected, vector)]
        assert heac_combiner().fold(vectors) == expected
        assert _pairwise_combiner().fold(vectors) == expected

    @given(_adjacent_vectors(), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_heac_fold_rejects_gaps_and_overlaps(self, vectors, shift, data):
        if len(vectors) < 2:
            vectors.append(
                [HEACCiphertext(c.value, c.window_end, c.window_end + 1) for c in vectors[0]]
            )
        victim = data.draw(st.integers(1, len(vectors) - 1))
        for delta in (shift, -shift):  # a gap, then an overlap
            broken = list(vectors)
            broken[victim] = [
                HEACCiphertext(c.value, c.window_start + delta, c.window_end + delta + 3)
                for c in vectors[victim]
            ]
            with pytest.raises(ValueError) as fold_error:
                heac_combiner().fold(broken)
            with pytest.raises(ValueError) as pairwise_error:
                _pairwise_combiner().fold(broken)
            assert type(fold_error.value) is type(pairwise_error.value)

    def test_vector_with_disagreeing_cells_is_rejected_on_entry(self):
        combiner = heac_combiner()
        good = [HEACCiphertext(1, 0, 1), HEACCiphertext(2, 0, 1)]
        bad = [HEACCiphertext(1, 0, 1), HEACCiphertext(2, 0, 2)]
        combiner.check_interval(good, 0, 1)
        with pytest.raises(IndexError_):
            combiner.check_interval(bad, 0, 1)
        with pytest.raises(IndexError_):
            combiner.check_interval(good, 0, 2)
        with pytest.raises(ValueError):
            aggregate_componentwise([bad, [HEACCiphertext(1, 1, 2), HEACCiphertext(2, 1, 2)]])
        index = _make_index(heac_combiner(), 4, heac=True)
        with pytest.raises(IndexError_):
            index.append(bad)
        with pytest.raises(IndexError_):  # right shape, wrong window
            index.append([HEACCiphertext(1, 5, 6), HEACCiphertext(2, 5, 6)])
        assert index.num_windows == 0 and index.append(good) == 0

    @given(
        st.integers(1, 16).flatmap(
            lambda width: st.lists(
                st.lists(st.integers(0, MODULUS - 1), min_size=width, max_size=width),
                min_size=1,
                max_size=12,
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_plaintext_fold_equals_left_to_right_add(self, vectors):
        expected = list(vectors[0])
        for vector in vectors[1:]:
            expected = [a + b for a, b in zip(expected, vector)]
        assert plaintext_combiner().fold(vectors) == expected

    def test_fold_trusts_per_vector_uniformity(self):
        """Documented precondition: the folds read what was checked on entry only.

        ``fold`` tags its result from each vector's first cell, and
        ``signed_fold`` reads no interval at all — it tags the range its
        caller names (the index, after matching every node's stored interval
        against the plan).  A vector whose cells disagree must be stopped by
        ``check_interval`` before it reaches either; neither fold notices.
        """
        combiner = heac_combiner()
        bad = [HEACCiphertext(1, 0, 1), HEACCiphertext(2, 0, 2)]
        after = [HEACCiphertext(10, 1, 2), HEACCiphertext(20, 1, 2)]
        block = [HEACCiphertext(15, 0, 4), HEACCiphertext(30, 0, 4)]
        with pytest.raises(IndexError_):
            combiner.check_interval(bad, 0, 1)
        assert combiner.fold([bad, after]) == [HEACCiphertext(11, 0, 2), HEACCiphertext(22, 0, 2)]
        assert combiner.signed_fold([block], [bad], 1, 4) == [
            HEACCiphertext(14, 1, 4),
            HEACCiphertext(28, 1, 4),
        ]
        # Subtraction wraps in the ring like addition does.
        assert combiner.signed_fold([after], [block], 1, 2)[0].value == MODULUS - 5

    @pytest.mark.parametrize("combiner", [heac_combiner(), plaintext_combiner(), _pairwise_combiner()])
    def test_fold_rejects_empty_and_ragged_input(self, combiner):
        cell = HEACCiphertext(1, 0, 1)
        for malformed in ([], [[cell], [cell, cell]], [[], [cell]]):
            with pytest.raises(IndexError_):
                combiner.fold(malformed)

    @pytest.mark.parametrize("combiner", [heac_combiner(), plaintext_combiner(), _pairwise_combiner()])
    def test_fold_of_zero_width_vectors_is_empty(self, combiner):
        assert combiner.fold([[]]) == [] == combiner.fold([[], [], []])
        combiner.check_interval([], 3, 4)
        assert aggregate_componentwise([[], []]) == []

    def test_strawman_shaped_combiner_folds_via_add(self):
        calls = []

        def add(left, right):
            calls.append((left, right))
            return left + right

        combiner = DigestCombiner(add=add, size_of=len)
        assert combiner.fold([["a", "b"], ["c", "d"], ["e", "f"]]) == ["ace", "bdf"]
        assert calls == [("a", "c"), ("b", "d"), ("ac", "e"), ("bd", "f")]
        combiner.check_interval(["a", "b"], 0, 1)  # cells without intervals: nothing to check


# -- differential: HEAC index vs plaintext index vs the pairwise reference -------------


def _make_index(combiner, fanout, heac, store=None):
    return AggregationIndex(
        stream_uuid="s",
        store=store if store is not None else MemoryStore(),
        combiner=combiner,
        encode_cells=encode_digest_vector if heac else pack_varint_list,
        decode_cells=decode_digest_vector if heac else (lambda blob: unpack_varint_list(blob, 0)[0]),
        fanout=fanout,
        max_windows=1 << 20,
    )


@pytest.mark.parametrize("fanout,windows", [(2, 37), (3, 41), (64, 100)])
@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
def test_index_differential_against_plaintext_and_pairwise(fanout, windows, cold):
    width = 3
    rng = random.Random(fanout * 1000 + windows)
    cipher = HEACCipher(KeyDerivationTree(b"\x07" * 16, height=12))
    # Mostly small values, with enough 2^64 - 1 entries that sums wrap the ring.
    plain_vectors = [
        [MODULUS - 1 if rng.random() < 0.125 else rng.randrange(1000) for _ in range(width)]
        for _ in range(windows)
    ]
    encrypted = cipher.encrypt_windows(plain_vectors, 0)
    stores = {name: MemoryStore() for name in ("fold", "pairwise", "plain")}
    fold_index = _make_index(heac_combiner(), fanout, True, stores["fold"])
    pairwise_index = _make_index(_pairwise_combiner(), fanout, True, stores["pairwise"])
    plain_index = _make_index(plaintext_combiner(), fanout, False, stores["plain"])
    # A random mix of scalar appends and batches; windows is not a multiple
    # of the fanout, so the head of every level stays partially filled.
    position = 0
    while position < windows:
        size = min(windows - position, rng.choice([1, 1, 2, 5, fanout + 1]))
        for index, vectors in (
            (fold_index, encrypted),
            (pairwise_index, encrypted),
            (plain_index, plain_vectors),
        ):
            if size == 1:
                index.append(vectors[position])
            else:
                index.append_many(vectors[position : position + size])
        position += size
    assert dict(stores["fold"].scan_prefix(b"")) == dict(stores["pairwise"].scan_prefix(b""))
    for start in range(windows):
        for end in range(start + 1, windows + 1):
            if cold:
                fold_index.cache.clear()
            cells = fold_index.query_range(start, end)
            assert all((c.window_start, c.window_end) == (start, end) for c in cells)
            expected = [value % MODULUS for value in plain_index.query_range(start, end)]
            assert cipher.decrypt_ranges([cells])[0] == expected
    # Spot-check the reference itself agrees cell for cell (including tags).
    for start, end in [(0, windows), (1, windows - 1), (fanout - 1, fanout + 2)]:
        assert fold_index.query_range(start, end) == pairwise_index.query_range(start, end)


def test_payload_only_stream_ingests_and_serves_ranges():
    """A width-0 digest (no aggregates configured) still indexes and range-reads."""
    engine = ServerEngine()
    owner = TimeCrypt(server=engine, owner_id="owner")
    config = StreamConfig(chunk_interval=1_000, digest=DigestConfig(False, False, False))
    assert config.digest.width == 0
    uuid = owner.create_stream(metric="m", config=config)
    records = [(t * 100, float(t)) for t in range(500)]
    owner.insert_records(uuid, records[:495])  # a 49-chunk batch
    owner.insert_records(uuid, records[495:])
    owner.flush(uuid)  # a scalar ingest
    points = owner.get_range(uuid, 0, 50_000)
    assert [(p.timestamp, p.value) for p in points] == records
    result = engine.stat_range_windows(uuid, 3, 47)
    assert result.cells == () and result.num_index_nodes > 1
    engine.close()


# -- object count: one result vector per query, whatever the plan size -----------------


def test_cached_stat_query_builds_exactly_width_ciphertexts(monkeypatch):
    engine = ServerEngine()
    owner = TimeCrypt(server=engine, owner_id="owner")
    config = StreamConfig(chunk_interval=1_000, index_fanout=4)
    uuid = owner.create_stream(metric="m", config=config)
    owner.insert_records(uuid, [(t * 250, float(t % 9)) for t in range(4 * 50)])
    owner.flush(uuid)
    width = config.digest.width
    built = []
    validate = HEACCiphertext.__post_init__

    def counting_post_init(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(HEACCiphertext, "__post_init__", counting_post_init)
    plan_sizes = set()
    for start, end in [(0, 1), (0, 16), (1, 47), (3, 50), (5, 38)]:
        engine.stat_range_windows(uuid, start, end)  # warm the cache for this cover
        built.clear()
        result = engine.stat_range_windows(uuid, start, end)
        assert len(built) == width == len(result.cells)
        plan_sizes.add(result.num_index_nodes)
    assert len(plan_sizes) > 2 and max(plan_sizes) > 5
    engine.close()
