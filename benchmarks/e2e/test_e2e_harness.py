"""Harness tests for the end-to-end benchmark (collected by the tier-1 run).

They test the instrument, not the system: the percentile rule, span
self-time, ledger arithmetic, schedule determinism, and that a short run of
every workload emits exactly the names ``BENCHMARK.json`` promises.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(REPO_ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from e2ebench import runner, schedule, stats  # noqa: E402  (needs HERE on the path)
from e2ebench.spans import Span, SpanLog, assign_parents, build_ledgers, exclusive_by_layer, self_times  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402

with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)


# -- the percentile rule -----------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [float(n) for n in range(1, 101)]
    assert stats.percentile(samples, 50) == 50.0
    assert stats.percentile(samples, 95) == 95.0
    assert stats.percentile(samples, 100) == 100.0
    assert stats.percentile([3.0], 99) == 3.0


@pytest.mark.parametrize(
    "count, expected",
    [(50, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_needs_ten_samples_beyond_it(count, expected):
    assert stats.supported_tail(count) == expected


def test_metrics_come_from_the_second_best_window_slice():
    """A burst that slows a third of the window moves no reported metric."""
    spec = schedule.WORKLOADS["stat_hot"]

    def window(burst):
        timeline = []
        for tick in range(6000):  # one stat every 2 ms for 12 s
            finished_at = 100.0 + (tick + 1) * 0.002
            slow = burst and 2.0 <= finished_at - 100.0 < 6.0
            timeline.append((schedule.STAT, finished_at, 0.003 if slow else 0.001))
        for kind in (schedule.INGEST, schedule.RANGE, schedule.GRANT, schedule.ONBOARD):
            for second in range(12):
                timeline.append((kind, 100.0 + second + 0.5, 0.004))
        result = runner.ThreadResult(timeline=timeline, attempted=len(timeline))
        return runner.WindowResult([result], begin=100.0, wall_seconds=12.0, peak_rss_mib=50.0)

    calm, counts = runner.end_to_end_metrics(spec, window(burst=False), [1.0, 3.0, 2.0], 90.0)
    hit, _ = runner.end_to_end_metrics(spec, window(burst=True), [1.0, 3.0, 2.0], 90.0)
    assert counts[schedule.STAT] == 6000 and counts[schedule.GRANT] == 12
    assert calm["setup_s"][0] == 2.0
    assert calm["stat_p50_ms"][0] == pytest.approx(1.0) == hit["stat_p50_ms"][0]
    assert calm["stat_p95_ms"][0] == pytest.approx(1.0) == hit["stat_p95_ms"][0]
    assert calm["stat_queries_per_s"][0] == pytest.approx(500.0) == hit["stat_queries_per_s"][0]
    assert calm["ingest_records_per_s"][0] == pytest.approx(1.0 * spec.points_per_chunk)
    assert runner.window_slices(window(False)) == 6


def test_spread_is_the_drivers_formula():
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    import statistics

    first, _, third = statistics.quantiles(values, n=4)
    assert stats.iqr_spread(values) == pytest.approx((third - first) / statistics.median(values))


def test_compare_refuses_different_crypto_backends_and_flags_regressions():
    import sweep

    def run_set(label, prg, stat_p50):
        cell = {"median": 1.0, "spread": 0.01}
        metrics = {entry["name"]: dict(cell) for entry in CONTRACT["end_to_end"]}
        metrics["stat_p50_ms"] = {"median": stat_p50, "spread": 0.01}
        return {
            "label": label,
            "environment": {"prg": prg, "aead": "native-aesgcm"},
            "workloads": {"stat_hot": {"end_to_end": metrics}},
        }

    with pytest.raises(ValueError, match="refusing to compare"):
        sweep.compare(run_set("a", "aes-ni-fk", 1.0), run_set("b", "blake2", 1.0))
    cells = sweep.compare(run_set("a", "aes-ni-fk", 1.0), run_set("b", "aes-ni-fk", 1.5))
    verdicts = {cell["metric"]: cell["verdict"] for cell in cells}
    assert verdicts["stat_p50_ms"] == "WORSE" and verdicts["range_p50_ms"] == "ok"


def test_worse_by_respects_direction():
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 90.0, "lower") < 0


# -- spans: self time and the ledger ---------------------------------------------------


def test_union_length_merges_overlaps():
    assert stats.union_length([(0, 4), (2, 6), (10, 11)]) == pytest.approx(7.0)
    assert stats.union_length([(0, 10), (2, 3), (4, 5)]) == pytest.approx(10.0)
    assert stats.union_length([]) == 0.0


def _replicated_write():
    """cluster(0-10) fanning out to two overlapping replica calls."""
    return [
        Span("cluster.multi_put", "storage.cluster", 0.0, 10.0, 0),
        Span("remote.multi_put", "storage.remote", 1.0, 6.0, 0, tag="node-0"),
        Span("remote.multi_put", "storage.remote", 2.0, 9.0, 0, tag="node-1"),
        Span("node.multi_put", "storage.node", 3.0, 4.0, 0, tag="node-0"),
        Span("node.multi_put", "storage.node", 3.5, 5.0, 0, tag="node-1"),
    ]


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = _replicated_write()
    assign_parents(spans)
    own = self_times(spans)
    # The replicas cover 1..9 together: 8 of the cluster's 10, not 5 + 7.
    assert own[0] == pytest.approx(2.0)
    assert own[1] == pytest.approx(4.0) and own[2] == pytest.approx(5.5)


def test_node_span_is_adopted_by_its_own_replica_not_the_overlapping_sibling():
    spans = _replicated_write()
    assign_parents(spans)
    # node-1's store span (3.5-5) lies inside *both* remote spans; the tag
    # keeps it with node-1's even though node-0's is the tighter interval.
    assert spans[4].parent == 2 and spans[3].parent == 1
    assert spans[1].parent == 0 and spans[0].parent is None


def test_exclusive_layers_sum_to_the_operation():
    spans = [Span("ingest", "client", -1.0, 12.0, 0)] + _replicated_write()
    owned = exclusive_by_layer(spans)
    assert sum(owned.values()) == pytest.approx(13.0)
    assert owned["client"] == pytest.approx(3.0)
    assert owned["storage.cluster"] == pytest.approx(2.0)
    assert owned["storage.remote"] == pytest.approx(8.0 - 2.0)
    assert owned["storage.node"] == pytest.approx(2.0)


def test_ledger_per_op_kind_and_coverage_arithmetic():
    log = SpanLog()
    log.enabled = True
    log.run_op("stat", lambda: log.timed("call.stat_range", "net", None, lambda: None))
    log.run_op("stat", lambda: None)
    log.run_op("range", lambda: None)
    ledgers = build_ledgers(log)
    assert ledgers["stat"].ops == 2 and ledgers["range"].ops == 1
    assert ledgers["stat"].span_counts["call.stat_range"] == 1
    assert sum(ledgers["stat"].by_layer.values()) == pytest.approx(ledgers["stat"].end_to_end)
    assert stats.ledger_coverage({"client": 2.0, "net": 5.0, "server": 3.5}, 10.0) == pytest.approx(1.05)
    with pytest.raises(ValueError):
        stats.ledger_coverage({"client": 1.0}, 0.0)


def test_disabled_log_records_nothing():
    log = SpanLog()
    assert log.timed("x", "net", None, lambda: 5) == 5
    assert log.spans == []


# -- determinism ---------------------------------------------------------------------------


def _prefix(spec, seed, thread=0, count=400):
    return list(itertools.islice(schedule.schedule(spec, seed, thread), count))


@pytest.mark.parametrize("name", list(schedule.WORKLOADS))
def test_schedule_is_a_pure_function_of_the_seed(name):
    spec = schedule.WORKLOADS[name]
    assert _prefix(spec, 7) == _prefix(spec, 7)
    assert _prefix(spec, 7) != _prefix(spec, 8)
    assert schedule.range_starts(spec, 7) == schedule.range_starts(spec, 7)
    kinds = {op.kind for op in _prefix(spec, 7, count=len(spec.cycle_ops()))}
    assert kinds == set(schedule.OP_KINDS), "one cycle must exercise every op class"


def test_schedule_only_queries_acknowledged_windows():
    spec = schedule.WORKLOADS["mixed_live"]
    head = {stream: spec.preload_windows - 1 for stream in range(spec.streams)}
    for op in _prefix(spec, 3, thread=1, count=2000):
        assert op.stream % spec.client_threads == 1, "a caller stays on its own streams"
        if op.kind == schedule.INGEST:
            assert op.first == head[op.stream] + 1
            head[op.stream] = op.last - 1
        elif op.kind == schedule.STAT:
            assert 0 <= op.first < op.last <= head[op.stream]
            if op.restricted:
                assert op.first % schedule.RESTRICTED_CHUNKS == 0 == op.last % schedule.RESTRICTED_CHUNKS


def test_same_seed_same_inputs_and_balanced_shards():
    spec = schedule.WORKLOADS["stat_hot"]
    first, second, other = runner.Inputs(spec, 5), runner.Inputs(spec, 5), runner.Inputs(spec, 6)
    assert first.uuids == second.uuids and first.uuids != other.uuids
    assert first.records(0, 0, 4) == second.records(0, 0, 4) != other.records(0, 0, 4)
    owners = [runner.shard_owner(uuid) for uuid in first.uuids]
    assert owners.count(owners[0]) == len(owners) // 2


def test_same_seed_gives_identical_exact_counters():
    """Two fixed-length runs of one seed agree on every workload-derived count."""
    import dataclasses

    spec = dataclasses.replace(schedule.WORKLOADS["read_cold"], streams=4, preload_windows=64)

    def counters(seed):
        inputs = runner.Inputs(spec, seed)
        oracle = runner.Oracle(inputs)
        oracle.feed_preload()
        stack = runner.set_up(inputs)
        try:
            deployment = stack.deployment
            before = (
                deployment.raw_client.wire_stats.round_trips,
                deployment.query_stats()["index_nodes_read"],
                sum(store.stats.round_trips for store in deployment.node_stores.values()),
            )
            window = runner.run_window(
                stack, inputs, 0.0, oracle.expected_ranges(), max_ops=2 * len(spec.cycle_ops())
            )
            after = (
                deployment.raw_client.wire_stats.round_trips,
                deployment.query_stats()["index_nodes_read"],
                sum(store.stats.round_trips for store in deployment.node_stores.values()),
            )
            stored = stack.stored_bytes_per_record
        finally:
            stack.close()
        assert runner.verify(window, oracle) == 0 and window.failed == 0
        oracle.close()
        return tuple(b - a for a, b in zip(before, after)) + (stored, window.attempted)

    threads_before = set(threading.enumerate())
    registered_before = set(REGISTRY.snapshot())
    first, again, other = counters(11), counters(11), counters(12)
    assert first == again
    assert first != other
    # Hygiene: every tier torn down, every stats struct unregistered.
    assert set(threading.enumerate()) == threads_before
    assert set(REGISTRY.snapshot()) == registered_before


# -- the command itself ----------------------------------------------------------------------


def _smoke_command(workload, trace):
    return CONTRACT["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--smoke",
    ]  # fmt: skip


@pytest.fixture(scope="module")
def smoke_summaries():
    """One short run of every workload (plus one traced), started together."""
    runs = [(workload, 0) for workload in schedule.WORKLOADS] + [("mixed_live", 1)]
    processes = {
        run: subprocess.Popen(
            _smoke_command(*run), cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        for run in runs
    }
    summaries = {}
    for run, process in processes.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, f"{run}: {stdout[-1500:]}{stderr[-1500:]}"
        summaries[run] = json.loads(stdout.strip().splitlines()[-1])
    return summaries


def test_contract_lists_exactly_the_workloads_that_exist():
    assert [entry["name"] for entry in CONTRACT["workloads"]] == list(schedule.WORKLOADS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    names = [entry["name"] for entry in CONTRACT["end_to_end"]]
    assert "setup_s" in names and len(names) == 14
    assert all(0 < entry["bound"] <= 0.25 for entry in CONTRACT["end_to_end"])


@pytest.mark.parametrize("workload", list(schedule.WORKLOADS))
def test_smoke_run_emits_exactly_the_end_to_end_metrics(smoke_summaries, workload):
    summary = smoke_summaries[(workload, 0)]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0 and summary["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in CONTRACT["end_to_end"]}
    assert {name: metric["unit"] for name, metric in summary["metrics"].items()} == expected
    assert all(metric["value"] > 0 for metric in summary["metrics"].values())


def test_smoke_traced_run_emits_exactly_the_per_layer_metrics(smoke_summaries):
    summary = smoke_summaries[("mixed_live", 1)]
    assert summary["correct"] is True and summary["failed"] == 0
    expected = {entry["name"]: entry["unit"] for entry in CONTRACT["per_layer"]}
    assert {name: metric["unit"] for name, metric in summary["metrics"].items()} == expected
    with open(os.path.join(HERE, "out", "trace-mixed_live.json"), encoding="utf-8") as handle:
        trace = json.load(handle)
    assert trace["spans_written"] > 0
    assert {"name", "layer", "start_us", "end_us", "parent", "op_id"} <= set(trace["spans"][0])


def test_run_refuses_a_checkout_without_the_system_under_test(tmp_path):
    """In a directory holding only the benchmark, the command fails and prints no result."""
    import shutil

    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    completed = subprocess.run(
        _smoke_command("stat_hot", 0), cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip()
