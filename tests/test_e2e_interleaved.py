"""The arithmetic of ``benchmarks/e2e_interleaved.py`` (no benchmark process is run).

The nightly CI job merges two-seed ``sweep.py`` blocks into run sets and
applies the claim rule to them; a slip here would make every parent-vs-HEAD
artifact quietly wrong.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "e2e_interleaved", _REPO_ROOT / "benchmarks" / "e2e_interleaved.py"
)
interleaved = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(interleaved)

CONTRACT = {
    "end_to_end": [
        {"name": "ingest_records_per_s", "better": "higher", "bound": 0.25},
        {"name": "stat_p50_ms", "better": "lower", "bound": 0.25},
    ]
}


def _block(first_seed: int, rates, latencies) -> dict:
    rows = [{"ingest_records_per_s": rate, "stat_p50_ms": ms} for rate, ms in zip(rates, latencies)]
    return {
        "label": f"b{first_seed}",
        "seconds": 12,
        "seeds": [first_seed, first_seed + 1],
        "environment": {"prg": "aes-ni-fk", "aead": "cryptography"},
        "workloads": {
            "ingest_bulk": {
                "end_to_end": {},  # recomputed by the merge
                "end_to_end_runs": rows,
                "per_layer": {"timeseries.compress_us_per_chunk": float(first_seed)},
            }
        },
    }


def _run_set(rates, latencies) -> dict:
    blocks = [
        _block(100 + 2 * n, rates[2 * n : 2 * n + 2], latencies[2 * n : 2 * n + 2])
        for n in range(len(rates) // 2)
    ]
    return interleaved.merge_blocks("side", blocks)


def test_merge_concatenates_runs_and_recomputes_the_statistics():
    merged = _run_set([100.0, 110.0, 120.0, 130.0], [4.0, 3.0, 2.0, 1.0])
    body = merged["workloads"]["ingest_bulk"]
    assert merged["seeds"] == [100, 101, 102, 103]
    assert [row["ingest_records_per_s"] for row in body["end_to_end_runs"]] == [100.0, 110.0, 120.0, 130.0]
    assert body["end_to_end"]["ingest_records_per_s"]["median"] == 115.0
    assert body["end_to_end"]["stat_p50_ms"]["median"] == 2.5
    assert body["end_to_end"]["ingest_records_per_s"]["spread"] == pytest.approx(25.0 / 115.0)
    assert body["per_layer"] == {"timeseries.compress_us_per_chunk": 100.0}  # the first block's traced run


def test_pair_table_applies_the_claim_rule_in_the_better_direction():
    parent = _run_set([100.0 + n for n in range(10)], [5.0] * 10)
    clear_win = _run_set([170.0 + n for n in range(10)], [5.0] * 10)
    cells = {cell["metric"]: cell for cell in interleaved.pair_table(parent, clear_win, CONTRACT)}
    rate = cells["ingest_records_per_s"]
    assert (rate["won"], rate["lost"], rate["tied"], rate["pairs"]) == (10, 0, 0, 10)
    assert rate["gain_claimable"] and rate["change_median"] - rate["parent_median"] == pytest.approx(70.0)
    flat = cells["stat_p50_ms"]
    assert (flat["won"], flat["tied"]) == (0, 10) and not flat["gain_claimable"]


def test_a_win_inside_the_parents_spread_or_on_too_few_pairs_is_not_claimable():
    parent = _run_set([100.0, 140.0] * 5, [5.0, 4.0] * 5)
    inside_spread = _run_set([101.0, 141.0] * 5, [4.9, 3.9] * 5)  # wins every pair, by a hair
    for cell in interleaved.pair_table(parent, inside_spread, CONTRACT):
        assert cell["won"] == 10 and not cell["gain_claimable"]
    eight_of_ten = _run_set([300.0] * 8 + [50.0] * 2, [1.0] * 8 + [9.0] * 2)
    for cell in interleaved.pair_table(parent, eight_of_ten, CONTRACT):
        assert cell["won"] == 8 and cell["lost"] == 2 and not cell["gain_claimable"]
    four_pairs = interleaved.pair_table(_run_set([100.0] * 4, [5.0] * 4), _run_set([900.0] * 4, [1.0] * 4), CONTRACT)
    assert all(cell["won"] == 4 and not cell["gain_claimable"] for cell in four_pairs)
    slower = _run_set([90.0, 130.0] * 5, [9.0, 8.0] * 5)
    assert not any(cell["gain_claimable"] for cell in interleaved.pair_table(parent, slower, CONTRACT))
