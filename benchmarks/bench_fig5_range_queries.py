"""Figure 5 — statistical query latency over varying interval sizes [0, 2^x].

Paper: with a 64-ary index, plaintext and TimeCrypt stay in the tens of
microseconds across all interval lengths (with a step pattern as fewer tree
levels are traversed), while the strawman constructions show a sawtooth in
the tens of milliseconds from expensive on-the-fly homomorphic additions.

The pytest-benchmark entries measure TimeCrypt vs plaintext at a sweep of
interval lengths; the strawman is covered at a reduced sweep because each
Paillier aggregation costs milliseconds even at small scale.
"""

from __future__ import annotations

import pytest

from repro.bench.reporting import ResultTable
from repro.index.query import plan_range, worst_case_nodes


# Interval exponents: [0, 2^x] windows.  The paper sweeps x up to 26 with 100M
# chunks; we sweep up to the size of the pre-ingested benchmark stream.
EXPONENTS = [0, 2, 4, 6, 8, 10, 11]


@pytest.mark.parametrize("exponent", EXPONENTS)
def test_fig5_timecrypt(benchmark, timecrypt_with_data, bench_config, exponent):
    benchmark.group = f"fig5-x{exponent:02d}"
    owner, uuid, num_chunks = timecrypt_with_data
    windows = min(2**exponent, num_chunks - 1) or 1
    end = windows * bench_config.chunk_interval
    benchmark(lambda: owner.get_stat_range(uuid, 0, end, operators=("sum",)))


@pytest.mark.parametrize("exponent", EXPONENTS)
def test_fig5_plaintext(benchmark, plaintext_with_data, bench_config, exponent):
    benchmark.group = f"fig5-x{exponent:02d}"
    store, uuid, num_chunks = plaintext_with_data
    windows = min(2**exponent, num_chunks - 1) or 1
    end = windows * bench_config.chunk_interval
    benchmark(lambda: store.get_stat_range(uuid, 0, end, operators=("sum",)))


@pytest.mark.parametrize("exponent", [0, 2, 4, 6])
def test_fig5_paillier(benchmark, paillier_store, bench_config, exponent):
    benchmark.group = f"fig5-x{exponent:02d}"
    store, uuid = paillier_store
    windows = min(2**exponent, store.num_windows(uuid) - 1) or 1
    end = windows * bench_config.chunk_interval
    benchmark.pedantic(
        lambda: store.get_stat_range(uuid, 0, end, operators=("sum",)), rounds=5, iterations=1
    )


def test_fig5_latency_flat_for_aligned_ranges(timecrypt_with_data, bench_config):
    """The number of index nodes touched grows logarithmically, not linearly."""
    owner, uuid, num_chunks = timecrypt_with_data
    server = owner.server
    nodes_touched = []
    for exponent in (2, 6, 10):
        windows = min(2**exponent, num_chunks)
        result = server.stat_range_windows(uuid, 0, windows)
        nodes_touched.append(result.num_index_nodes)
    # Query size grows 256x; node count must grow far slower than linearly.
    assert nodes_touched[-1] <= nodes_touched[0] * 64
    assert nodes_touched[-1] < 2 * (bench_config.index_fanout - 1) * 4


def test_fig5_signed_node_counts(timecrypt_with_data, bench_config):
    """Nodes a query reads: the signed cover, the additive cover and the §6.1 bound.

    Each interval ``[0, 2^x]`` and its ragged shift ``[1, 2^x + 1)``; the
    bound stays an upper bound on both covers.
    """
    owner, uuid, num_chunks = timecrypt_with_data
    server = owner.server
    index = server._state(uuid).index
    fanout = bench_config.index_fanout
    table = ResultTable(
        title=f"Fig. 5 plan sizes — fanout {fanout}, {num_chunks} windows",
        columns=["interval", "signed", "additive", "paper bound"],
    )
    for exponent in EXPONENTS:
        for start in (0, 1):
            end = min(start + 2**exponent, num_chunks)
            signed = server.stat_range_windows(uuid, start, end).num_index_nodes
            additive = plan_range(start, end, fanout, index.max_level).num_nodes
            bound = worst_case_nodes(fanout, end)
            table.add_row(f"[{start}, {end})", signed, additive, bound)
            assert signed <= additive <= bound + 1
    table.print()
