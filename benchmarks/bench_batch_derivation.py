"""Batched GGM keystream derivation and bulk-ingest throughput.

Tracks the two hot-path claims of the batch fast path introduced with
``leaf_range`` / ``encrypt_windows`` / ``append_many``:

1. **Key derivation** — deriving 2^14 sequential keystream keys from a
   height-30 tree via ``KeyDerivationTree.leaf_range`` must be ≥ 5× faster
   than the per-leaf loop (the per-leaf walk costs O(height) PRG calls per
   key; the subtree cover amortizes to ~1).
2. **Bulk ingest** — end-to-end ``TimeCrypt.insert_records`` (batch
   encryption + ``ServerEngine.insert_chunks`` + ``append_many``) must give
   ≥ 2× the ingest throughput of the per-record scalar pipeline.

3. **Derivation counts** (``derive_counts``, deterministic, CI-gated) — the
   PRG steps and keyed-PRF set-ups one two-boundary stat decrypt and one
   8-window ``window_batch`` cost, on a fixed query sequence.  Wall clock
   moves with the runner; these integers move only when a boundary key
   starts costing more than the construction does (an independent walk per
   boundary, a PRF key set-up per component, both children per step).
   Its ``key_regression`` block counts the hash-chain steps of a restricted
   grant's 128 wrapping keys: one walk per chain, and a fresh keystream
   pays its primary chain's single walk down once.

Run as a script to print the tables and refresh the ``BENCH_batch.json``
baseline (merged via :func:`repro.bench.reporting.merge_json_report`, which
the Fig. 7 batch-size sweep shares):

    PYTHONPATH=src python benchmarks/bench_batch_derivation.py

Quick mode for CI-style trend tracking: ``BENCH_SCALE=0.05`` shrinks the
ingest workload (the derivation workload is pinned at 2^14 keys so the
headline ratio stays comparable across runs), and ``--smoke`` shrinks both
for CI smoke jobs whose only goal is a valid baseline file.  The assertions
also run under plain pytest: ``pytest benchmarks/bench_batch_derivation.py``.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import time
from pathlib import Path
from unittest import mock

from repro import ServerEngine, TimeCrypt
from repro.access.resolution import ResolutionKeystream
from repro.bench.harness import measure
from repro.bench.reporting import ResultTable, format_duration, merge_json_report
from repro.crypto import hashchain
from repro.crypto.heac import HEACCipher, HEACCiphertext
from repro.crypto.keytree import KeyDerivationTree
from repro.crypto.prf import DEFAULT_PRG, KeyedPRF, available_prgs
from repro.timeseries.stream import StreamConfig

from conftest import scaled

#: The acceptance workload: 2^14 sequential keys from a height-30 tree.
NUM_KEYS = 1 << 14
TREE_HEIGHT = 30

#: Bulk-ingest workload: small chunks so per-chunk overhead dominates,
#: mirroring high-rate ingest with short windows.
INGEST_CHUNKS = scaled(1024, minimum=64)
POINTS_PER_CHUNK = 4
CHUNK_INTERVAL_MS = 1_000

#: Derivation-count workload (the e2e ``stat_hot`` shape): log-uniform range
#: lengths over 1 024 windows, mhealth digest width, 8-chunk ingest batches.
COUNT_WINDOWS = 1024
COUNT_QUERIES = 256
COUNT_WIDTH = 11
COUNT_BATCH = 8
COUNT_CACHE_LEVELS = 16  # the owner tree's default top-of-tree memo

#: Restricted-grant workload (the e2e ``stat_hot`` / ``read_cold`` grant):
#: 8-chunk resolution over windows 0..1016, 128 envelopes.
REGRESSION_RESOLUTION = 8
REGRESSION_WINDOW_END = 1016

_DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_batch.json"


class _CountingPRG:
    """Forwards to a real PRG, counting one-child steps and batch-expanded seeds."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.steps = 0

    def child(self, seed: bytes, bit: int) -> bytes:
        self.steps += 1
        return self._inner.child(seed, bit)

    def expand_many(self, seeds):
        self.steps += len(seeds)
        return self._inner.expand_many(seeds)


def measure_derive_counts():
    """PRG steps and keyed-PRF set-ups per stat decrypt and per window batch.

    Fixed seed, fixed query sequence, independent of ``--smoke`` and of the
    PRG in use: every number is an exact count, so the smoke run must
    reproduce the committed block bit for bit.
    """
    tree = KeyDerivationTree(
        seed=b"b" * 16, height=TREE_HEIGHT, prg=DEFAULT_PRG, cache_levels=COUNT_CACHE_LEVELS
    )
    prg = tree._prg = _CountingPRG(tree._prg)
    cipher = HEACCipher(tree)
    setups = [0]
    set_up = KeyedPRF.__init__

    def counting_set_up(self, key):
        setups[0] += 1
        set_up(self, key)

    rng = random.Random(20)
    ranges = []
    for _ in range(COUNT_QUERIES):
        length = min(COUNT_WINDOWS, max(1, round(math.exp(rng.uniform(0, math.log(COUNT_WINDOWS))))))
        start = rng.randrange(0, COUNT_WINDOWS - length + 1)
        ranges.append((start, start + length))
    tree.leaf(0)  # top-of-tree memo warm, as in a running client
    with mock.patch.object(KeyedPRF, "__init__", counting_set_up):
        prg.steps = 0
        budget = 0
        for start, end in ranges:
            cipher.decrypt_ranges([[HEACCiphertext(0, start, end)] * COUNT_WIDTH])
            lca_depth = TREE_HEIGHT - (start ^ end).bit_length()
            budget += (TREE_HEIGHT - COUNT_CACHE_LEVELS) + (TREE_HEIGHT - lca_depth)
        decrypt = {
            "queries": COUNT_QUERIES,
            "prg_steps": prg.steps,
            "prg_step_budget": budget,
            "within_budget": prg.steps <= budget,
            "keyed_prf_setups": setups[0],
        }
        prg.steps = setups[0] = 0
        batches = COUNT_WINDOWS // COUNT_BATCH
        for first in range(0, COUNT_WINDOWS, COUNT_BATCH):
            batch = cipher.window_batch(first, first + COUNT_BATCH)
            for window in range(first, first + COUNT_BATCH):
                batch.encrypt_vector([0] * COUNT_WIDTH, window)
                batch.chunk_payload_key(window)
        window_batch = {
            "batches": batches,
            "windows_per_batch": COUNT_BATCH,
            "prg_steps": prg.steps,
            "keyed_prf_setups": setups[0],
        }
    return {
        "tree_height": TREE_HEIGHT,
        "digest_width": COUNT_WIDTH,
        "two_boundary_decrypt": decrypt,
        "window_batch": window_batch,
        "key_regression": measure_regression_counts(),
    }


def measure_regression_counts():
    """Hash-chain steps of one restricted grant (the e2e ``stat_hot`` shape).

    A grant is what ``GrantManager`` does for a resolution-restricted policy:
    ``share`` plus ``make_envelopes`` over 1 017 windows at r = 8, i.e. 128
    envelopes.  Steps are counted by wrapping ``hashchain.next_state``; the
    chains' random seeds do not change the counts.
    """
    tree = KeyDerivationTree(seed=b"b" * 16, height=TREE_HEIGHT, prg=DEFAULT_PRG)
    steps = [0]
    step = hashchain.next_state

    def counting_step(state):
        steps[0] += 1
        return step(state)

    def grant(keystream):
        keystream.share(0, REGRESSION_WINDOW_END)
        keystream.make_envelopes(0, REGRESSION_WINDOW_END)
        return keystream

    with mock.patch.object(hashchain, "next_state", counting_step):
        # The first grant includes constructing the keystream.
        keystream = grant(ResolutionKeystream("bench", REGRESSION_RESOLUTION, tree))
        first, steps[0] = steps[0], 0
        grant(keystream)
    steady = steps[0]
    envelopes = REGRESSION_WINDOW_END // REGRESSION_RESOLUTION + 1
    return {
        "resolution_chunks": REGRESSION_RESOLUTION,
        "envelopes_per_grant": envelopes,
        "chain_length": keystream._regression.length,
        "first_grant_steps": first,
        "first_grant_step_budget": keystream._regression.length - 1 + 2 * 64,
        "grant_steps": steady,
        "grant_step_budget": 2 * envelopes + 64,
    }


def measure_derivation(prg: str = DEFAULT_PRG, num_keys: int = NUM_KEYS):
    """(scalar, batch) measurements for deriving ``num_keys`` sequential keys."""
    seed = b"b" * 16
    scalar_tree = KeyDerivationTree(seed=seed, height=TREE_HEIGHT, prg=prg)
    batch_tree = KeyDerivationTree(seed=seed, height=TREE_HEIGHT, prg=prg)
    scalar = measure(
        f"{prg}-scalar", lambda: list(scalar_tree.keys(0, num_keys)), repetitions=3, warmup=1
    )
    batch = measure(
        f"{prg}-batch", lambda: batch_tree.leaf_range(0, num_keys), repetitions=3, warmup=1
    )
    return scalar, batch


def _ingest_records(num_chunks: int = None):
    step = CHUNK_INTERVAL_MS // POINTS_PER_CHUNK
    total = (num_chunks if num_chunks is not None else INGEST_CHUNKS) * CHUNK_INTERVAL_MS
    return [(t, float((t // step) % 100)) for t in range(0, total, step)]


def _ingest_stack(batch: bool):
    server = ServerEngine()
    owner = TimeCrypt(server=server, owner_id="bench")
    config = StreamConfig(chunk_interval=CHUNK_INTERVAL_MS, key_tree_height=TREE_HEIGHT)
    uuid = owner.create_stream(metric="batch-bench", config=config)
    if not batch:
        # The scalar baseline: per-chunk delivery and per-chunk index appends.
        owner._streams[uuid].writer.batch_sink = None
    return owner, uuid


def measure_ingest(rounds: int = 3, num_chunks: int = None):
    """Best-of-``rounds`` wall-clock seconds for (scalar, batch) bulk ingest."""
    records = _ingest_records(num_chunks)
    scalar_best = float("inf")
    batch_best = float("inf")
    for _ in range(rounds):
        owner, uuid = _ingest_stack(batch=False)
        begin = time.perf_counter()
        for timestamp, value in records:
            owner.insert_record(uuid, timestamp, value)
        owner.flush(uuid)
        scalar_best = min(scalar_best, time.perf_counter() - begin)

        owner, uuid = _ingest_stack(batch=True)
        begin = time.perf_counter()
        owner.insert_records(uuid, records)
        owner.flush(uuid)
        batch_best = min(batch_best, time.perf_counter() - begin)
    return scalar_best, batch_best, len(records)


# ---------------------------------------------------------------------------
# Assertions (collected by pytest, reused by the script)
# ---------------------------------------------------------------------------


def test_leaf_range_speedup():
    """leaf_range derives 2^14 sequential keys ≥ 5× faster than the per-leaf loop."""
    scalar, batch = measure_derivation()
    speedup = scalar.mean_seconds / batch.mean_seconds
    assert speedup >= 5.0, (
        f"leaf_range speedup {speedup:.1f}x below the 5x target "
        f"(scalar {scalar.mean_seconds:.3f}s, batch {batch.mean_seconds:.3f}s)"
    )


def test_batch_ingest_speedup():
    """Bulk insert_records ingests ≥ 2× faster than the per-record pipeline."""
    scalar_s, batch_s, _num_records = measure_ingest()
    speedup = scalar_s / batch_s
    assert speedup >= 2.0, (
        f"bulk-ingest speedup {speedup:.1f}x below the 2x target "
        f"(scalar {scalar_s:.3f}s, batch {batch_s:.3f}s)"
    )


def test_derive_counts_within_the_construction_budget():
    """A boundary pair costs ≤ (h - cached) + (h - lca) steps and two PRF set-ups."""
    counts = measure_derive_counts()
    decrypt = counts["two_boundary_decrypt"]
    assert decrypt["within_budget"], decrypt
    assert decrypt["keyed_prf_setups"] == 2 * decrypt["queries"]
    batch = counts["window_batch"]
    # One set-up per boundary's pad vector and one per payload key.
    assert batch["keyed_prf_setups"] == batch["batches"] * (2 * COUNT_BATCH + 1)
    regression = counts["key_regression"]
    assert regression["first_grant_steps"] <= regression["first_grant_step_budget"], regression
    assert regression["grant_steps"] <= regression["grant_step_budget"], regression


def test_batch_ingest_equals_scalar_results():
    """Sanity: both pipelines must answer queries identically (same plaintext data)."""
    records = _ingest_records()[: 16 * POINTS_PER_CHUNK]
    answers = []
    for batch in (False, True):
        owner, uuid = _ingest_stack(batch=batch)
        if batch:
            owner.insert_records(uuid, records)
        else:
            for timestamp, value in records:
                owner.insert_record(uuid, timestamp, value)
        owner.flush(uuid)
        answers.append(
            owner.get_stat_range(uuid, 0, records[-1][0] + 1, operators=("sum", "count", "mean"))
        )
    assert answers[0] == answers[1]


# ---------------------------------------------------------------------------
# Script entry point: tables + BENCH_batch.json baseline
# ---------------------------------------------------------------------------


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Batched GGM derivation + bulk ingest baseline")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced-iteration CI mode: fewer keys/chunks, default PRG only",
    )
    args = parser.parse_args(argv)
    num_keys = 1 << 10 if args.smoke else NUM_KEYS
    num_chunks = 64 if args.smoke else INGEST_CHUNKS
    results = {"smoke": args.smoke}

    table = ResultTable(
        title=f"Batched key derivation — {num_keys} sequential keys, height {TREE_HEIGHT}",
        columns=["prg", "scalar total", "batch total", "per-key (batch)", "speedup"],
    )
    derivation_results = {}
    for prg in available_prgs():
        if prg == "aes":  # pure-python AES: minutes per run, not informative here
            continue
        if args.smoke and prg != DEFAULT_PRG:
            continue
        scalar, batch = measure_derivation(prg, num_keys=num_keys)
        speedup = scalar.mean_seconds / batch.mean_seconds
        derivation_results[prg] = {
            "num_keys": num_keys,
            "tree_height": TREE_HEIGHT,
            "scalar_seconds": scalar.mean_seconds,
            "batch_seconds": batch.mean_seconds,
            "speedup": round(speedup, 2),
        }
        table.add_row(
            prg,
            format_duration(scalar.mean_seconds),
            format_duration(batch.mean_seconds),
            format_duration(batch.mean_seconds / num_keys),
            f"{speedup:.1f}x",
        )
    table.add_note("target: >= 5x for the default PRG")
    table.print()
    results["leaf_range_derivation"] = derivation_results

    scalar_s, batch_s, num_records = measure_ingest(num_chunks=num_chunks)
    speedup = scalar_s / batch_s
    ingest_table = ResultTable(
        title=f"Bulk ingest — {num_chunks} chunks x {POINTS_PER_CHUNK} points, height {TREE_HEIGHT}",
        columns=["path", "total", "records/s", "speedup"],
    )
    ingest_table.add_row("per-record (scalar)", format_duration(scalar_s), f"{num_records / scalar_s:,.0f}", "1.0x")
    ingest_table.add_row("insert_records (batch)", format_duration(batch_s), f"{num_records / batch_s:,.0f}", f"{speedup:.1f}x")
    ingest_table.add_note("target: >= 2x via encrypt_chunks + insert_chunks + append_many")
    ingest_table.print()
    results["bulk_ingest"] = {
        "chunks": num_chunks,
        "points_per_chunk": POINTS_PER_CHUNK,
        "records": num_records,
        "scalar_seconds": scalar_s,
        "batch_seconds": batch_s,
        "scalar_records_per_s": round(num_records / scalar_s, 1),
        "batch_records_per_s": round(num_records / batch_s, 1),
        "speedup": round(speedup, 2),
    }

    counts = measure_derive_counts()
    counts_table = ResultTable(
        title=f"Derivation counts — height {TREE_HEIGHT}, width {COUNT_WIDTH} (deterministic)",
        columns=["operation", "PRG steps", "keyed-PRF set-ups"],
    )
    decrypt = counts["two_boundary_decrypt"]
    counts_table.add_row(
        "two-boundary stat decrypt",
        f"{decrypt['prg_steps'] / decrypt['queries']:.1f}",
        f"{decrypt['keyed_prf_setups'] / decrypt['queries']:.0f}",
    )
    batch = counts["window_batch"]
    counts_table.add_row(
        f"{COUNT_BATCH}-window batch (digests + payload keys)",
        f"{batch['prg_steps'] / batch['batches']:.1f}",
        f"{batch['keyed_prf_setups'] / batch['batches']:.0f}",
    )
    counts_table.add_note(
        f"decrypt budget (h - cached) + (h - lca): {decrypt['prg_step_budget'] / decrypt['queries']:.1f} steps"
    )
    counts_table.print()
    regression = counts["key_regression"]
    regression_table = ResultTable(
        title=f"Key regression — {regression['envelopes_per_grant']}-envelope restricted grant (deterministic)",
        columns=["grant", "hash-chain steps", "budget"],
    )
    regression_table.add_row(
        "fresh keystream", regression["first_grant_steps"], regression["first_grant_step_budget"]
    )
    regression_table.add_row("steady state", regression["grant_steps"], regression["grant_step_budget"])
    regression_table.print()
    results["derive_counts"] = counts

    output = os.environ.get("BENCH_OUTPUT", str(_DEFAULT_OUTPUT))
    print(f"baseline written to {merge_json_report(output, results)}")


if __name__ == "__main__":
    main()
