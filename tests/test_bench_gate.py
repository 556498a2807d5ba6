"""The CI invariant gate (``benchmarks/check_invariants.py``) itself.

The gate diffs smoke baselines against committed ``BENCH_*.json`` files on
deterministic counters; these tests pin its three check kinds (eq, le,
delta), its treatment of missing counters as regressions, and its exit
codes — so a CI-side change cannot quietly turn the gate into a no-op.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_invariants", _REPO_ROOT / "benchmarks" / "check_invariants.py"
)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def _committed(name: str) -> dict:
    with open(_REPO_ROOT / gate.MANIFEST[name][0], "r", encoding="utf-8") as handle:
        return json.load(handle)["results"]


def test_every_manifest_path_exists_in_committed_baselines():
    """A manifest path that drifts from the baselines would gate nothing."""
    for name, (_file, checks) in gate.MANIFEST.items():
        committed = _committed(name)
        for _kind, first, second in checks:
            for path in filter(None, (first, second)):
                assert gate._lookup(committed, path) is not gate._MISSING, (
                    f"{name}: manifest path '{path}' missing from committed baseline"
                )


def test_no_manifest_path_gates_a_frozen_historical_row():
    """``historical`` blocks record deleted arms; nothing re-measures them."""
    for name, (_file, checks) in gate.MANIFEST.items():
        for _kind, first, second in checks:
            for path in filter(None, (first, second)):
                assert "legacy" not in path and not path.startswith("historical"), (name, path)


def test_identical_results_pass():
    for name in gate.MANIFEST:
        committed = _committed(name)
        assert gate.check_baseline(name, committed, committed) == []


def test_eq_regression_fails():
    committed = _committed("net")
    smoke = json.loads(json.dumps(committed))
    smoke["queries"]["stat_round_trips"] = 2  # a query costing two round trips again
    failures = gate.check_baseline("net", smoke, committed)
    assert len(failures) == 1 and "stat_round_trips" in failures[0]


def test_delta_regression_fails_even_when_workload_shrinks():
    committed = _committed("net")
    smoke = json.loads(json.dumps(committed))
    # Half the batches but one *extra* round trip per ingest: the absolute
    # counter shrinks, the per-run overhead (the delta) grows — caught.
    smoke["ingest"]["pipelined"]["num_batches"] = 4
    smoke["ingest"]["pipelined"]["wire_round_trips"] = 6
    failures = gate.check_baseline("net", smoke, committed)
    assert len(failures) == 1 and "wire_round_trips" in failures[0]


def test_le_bound():
    committed = _committed("sched")
    smoke = json.loads(json.dumps(committed))
    smoke["overload"]["max_depth_bulk"] = 0  # below the bound: fine
    assert gate.check_baseline("sched", smoke, committed) == []
    smoke["overload"]["max_depth_bulk"] = committed["overload"]["max_depth_bulk"] + 1
    failures = gate.check_baseline("sched", smoke, committed)
    assert len(failures) == 1 and "max_depth_bulk" in failures[0]


def test_missing_counter_is_a_regression():
    committed = _committed("sched")
    smoke = json.loads(json.dumps(committed))
    del smoke["overload"]["unanswered"]
    failures = gate.check_baseline("sched", smoke, committed)
    assert any("missing" in failure for failure in failures)


def test_cli_exit_codes(tmp_path):
    committed_doc = {"results": _committed("sharding")}
    good = tmp_path / "smoke.json"
    good.write_text(json.dumps(committed_doc))
    assert gate.main([f"sharding={good}", "--baseline-dir", str(_REPO_ROOT)]) == 0

    committed_doc["results"]["delete_round_trips"]["offload"][0]["round_trips"] = 99
    bad = tmp_path / "smoke-bad.json"
    bad.write_text(json.dumps(committed_doc))
    assert gate.main([f"sharding={bad}", "--baseline-dir", str(_REPO_ROOT)]) == 1

    with pytest.raises(SystemExit):
        gate.main(["unknown=whatever.json"])
