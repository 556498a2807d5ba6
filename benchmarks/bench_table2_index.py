"""Table 2 — encrypted index micro-benchmark.

Paper columns: per-ADD cost, index size at 1M chunks, average ingest time,
and average worst-case query time, for Paillier / EC-ElGamal / TimeCrypt /
Plaintext.  Paper headline: TimeCrypt ingest and queries within ~1.3-1.8x of
plaintext; Paillier/EC-ElGamal thousands of times slower with 21-96x index
size expansion.

Here the index sizes are scaled down (pure-Python strawman ingest at 1M
chunks would take hours) but the per-chunk and per-query figures, and the
expansion ratios, reproduce the paper's ordering.
"""

from __future__ import annotations

import pytest

from repro.baselines.ecelgamal import ECElGamal
from repro.baselines.paillier import generate_keypair
from repro.crypto.heac import HEACCipher, MODULUS
from repro.crypto.keytree import KeyDerivationTree

from conftest import scaled


# --- the ADD micro-operation (Table 2, "Micro / ADD" column) -------------------


def test_add_plaintext(benchmark):
    benchmark.group = "table2-add"
    benchmark(lambda: (123456789 + 987654321) % MODULUS)


def test_add_timecrypt(benchmark):
    """HEAC addition is a modular addition — same order as plaintext."""
    benchmark.group = "table2-add"
    tree = KeyDerivationTree(seed=b"t" * 16, height=30)
    cipher = HEACCipher(tree)
    a = cipher.encrypt(123456789, 0)
    b = cipher.encrypt(987654321, 1)
    benchmark(lambda: a + b)


def test_add_paillier(benchmark):
    benchmark.group = "table2-add"
    public, _private = generate_keypair(512)
    a = public.encrypt(123456789)
    b = public.encrypt(987654321)
    benchmark(lambda: public.add(a, b))


def test_add_ecelgamal(benchmark):
    benchmark.group = "table2-add"
    scheme = ECElGamal.generate(max_plaintext=1 << 20)
    a = scheme.encrypt(1234)
    b = scheme.encrypt(5678)
    benchmark(lambda: ECElGamal.add(a, b))


# --- average ingest time (Table 2, "Average Ingest Time") -------------------------


def test_ingest_plaintext(benchmark, plaintext_with_data, bench_config):
    benchmark.group = "table2-ingest"
    store, uuid, num_chunks = plaintext_with_data
    interval = bench_config.chunk_interval
    state = {"chunk": num_chunks}

    def ingest_one_chunk():
        chunk = state["chunk"]
        store.insert_record(uuid, chunk * interval, float(chunk % 100))
        store.insert_record(uuid, (chunk + 1) * interval, 0.0)  # seals the chunk
        state["chunk"] = chunk + 2

    benchmark.pedantic(ingest_one_chunk, rounds=scaled(200), iterations=1)


def test_ingest_timecrypt(benchmark, timecrypt_with_data, bench_config):
    benchmark.group = "table2-ingest"
    owner, uuid, num_chunks = timecrypt_with_data
    interval = bench_config.chunk_interval
    state = {"chunk": num_chunks}

    def ingest_one_chunk():
        chunk = state["chunk"]
        owner.insert_record(uuid, chunk * interval, float(chunk % 100))
        owner.insert_record(uuid, (chunk + 1) * interval, 0.0)
        state["chunk"] = chunk + 2

    benchmark.pedantic(ingest_one_chunk, rounds=scaled(200), iterations=1)


def test_ingest_paillier(benchmark, paillier_store):
    benchmark.group = "table2-ingest"
    store, uuid = paillier_store
    benchmark.pedantic(lambda: store.ingest_digest(uuid, [42]), rounds=scaled(30), iterations=1)


def test_ingest_ecelgamal(benchmark, ecelgamal_store):
    benchmark.group = "table2-ingest"
    store, uuid = ecelgamal_store
    benchmark.pedantic(lambda: store.ingest_digest(uuid, [42]), rounds=scaled(30), iterations=1)


# --- average worst-case query time (Table 2, "Average Query Time") ------------------


def test_query_plaintext(benchmark, plaintext_with_data, bench_config):
    benchmark.group = "table2-query"
    store, uuid, num_chunks = plaintext_with_data
    interval = bench_config.chunk_interval
    # Worst-case alignment: a range that starts and ends off every block boundary.
    start, end = interval, (num_chunks - 1) * interval - 1
    benchmark(lambda: store.get_stat_range(uuid, start, end, operators=("sum",)))


def test_query_timecrypt(benchmark, timecrypt_with_data, bench_config):
    benchmark.group = "table2-query"
    owner, uuid, num_chunks = timecrypt_with_data
    interval = bench_config.chunk_interval
    start, end = interval, (num_chunks - 1) * interval - 1
    benchmark(lambda: owner.get_stat_range(uuid, start, end, operators=("sum",)))


def test_query_paillier(benchmark, paillier_store, bench_config):
    benchmark.group = "table2-query"
    store, uuid = paillier_store
    interval = bench_config.chunk_interval
    head = store.num_windows(uuid)
    start, end = interval, (head - 1) * interval - 1
    benchmark.pedantic(
        lambda: store.get_stat_range(uuid, start, end, operators=("sum",)),
        rounds=10,
        iterations=1,
    )


def test_query_ecelgamal(benchmark, ecelgamal_store, bench_config):
    benchmark.group = "table2-query"
    store, uuid = ecelgamal_store
    interval = bench_config.chunk_interval
    head = store.num_windows(uuid)
    start, end = interval, (head - 1) * interval - 1
    benchmark.pedantic(
        lambda: store.get_stat_range(uuid, start, end, operators=("sum",)),
        rounds=5,
        iterations=1,
    )


# --- index size expansion (Table 2, "Index - Size" column) ---------------------------


def test_index_size_expansion(timecrypt_with_data, plaintext_with_data, paillier_store, ecelgamal_store):
    """TimeCrypt has no ciphertext expansion; the strawmen inflate the index.

    The paper reports 1x (TimeCrypt, 8.1 MB for 1M chunks) vs 21x (EC-ElGamal)
    vs 96x (Paillier, at 3072-bit keys).  We verify the per-cell expansion
    ratios, which are what drive those index sizes.
    """
    owner, tc_uuid, tc_chunks = timecrypt_with_data
    plain, pl_uuid, pl_chunks = plaintext_with_data
    paillier, pa_uuid = paillier_store
    elgamal, eg_uuid = ecelgamal_store

    tc_per_chunk = owner.server.index_size_bytes(tc_uuid) / tc_chunks
    plain_per_chunk = plain.index_size_bytes(pl_uuid) / pl_chunks
    paillier_per_chunk = paillier.index_size_bytes(pa_uuid) / paillier.num_windows(pa_uuid)
    elgamal_per_chunk = elgamal.index_size_bytes(eg_uuid) / elgamal.num_windows(eg_uuid)

    # TimeCrypt's per-chunk index footprint matches plaintext (no expansion).
    assert tc_per_chunk == pytest.approx(plain_per_chunk, rel=0.25)
    # The strawmen expand the index by large factors (21x/96x in the paper; the
    # exact factor here depends on the scaled-down key sizes).
    assert paillier_per_chunk > 5 * tc_per_chunk
    assert elgamal_per_chunk > 5 * tc_per_chunk
