"""Self-tests for the static analyzer: rules, waivers, baseline, CLI."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.core import load_baseline, run_analysis, write_baseline
from repro.analysis.rules import all_rules, blocking, locks, retain, stats, telemetry, wireops

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "analysis"


def _run(rule, fixture_name, root=REPO_ROOT, **kwargs):
    return run_analysis([FIXTURES / fixture_name], [rule], root=root, **kwargs)


# -- the six rules fire on their bad fixture and stay quiet on the good one --


def test_repro001_fires_on_unretained_stores():
    result = _run(retain.RULE, "retain_bad.py")
    assert len(result.findings) >= 4
    assert {finding.rule for finding in result.findings} == {"REPRO001"}
    messages = " | ".join(finding.message for finding in result.findings)
    assert "self._last_value" in messages
    assert "storage call .put()" in messages
    assert "storage call .multi_put()" in messages
    assert "container .append()" in messages


def test_repro001_clean_on_retained_stores():
    assert _run(retain.RULE, "retain_good.py").findings == []


def test_repro002_fires_on_key_material_telemetry():
    result = _run(telemetry.RULE, "telemetry_bad.py")
    assert len(result.findings) == 2
    kinds = sorted(finding.message.split(" records")[0] for finding in result.findings)
    assert kinds == ["log call", "span record"]


def test_repro002_clean_on_size_and_op_telemetry():
    assert _run(telemetry.RULE, "telemetry_good.py").findings == []


def test_repro003_fires_on_builtin_raises_in_handlers():
    result = _run(wireops.RULE, "wireops_bad.py")
    messages = sorted(finding.message for finding in result.findings)
    assert len(messages) == 2  # the non-handler helper's raise is not a finding
    assert "raises builtin KeyError" in messages[0]
    assert "raises builtin ValueError" in messages[1]


def test_repro003_clean_on_typed_raises():
    assert _run(wireops.RULE, "wireops_good.py").findings == []


def test_repro004_fires_on_inversion_and_locked_io():
    result = _run(locks.RULE, "locks_bad.py")
    messages = " | ".join(finding.message for finding in result.findings)
    assert "lock-order cycle" in messages
    assert "Pair.lock_a" in messages and "Pair.lock_b" in messages
    assert "sock.sendall()" in messages
    assert "future.result()" in messages


def test_repro004_clean_on_consistent_order():
    assert _run(locks.RULE, "locks_good.py").findings == []


def test_repro005_fires_on_leaky_registration():
    result = _run(stats.RULE, "stats_bad.py")
    messages = " | ".join(finding.message for finding in result.findings)
    assert "discards the registry key" in messages
    assert "no close/stop method calls REGISTRY.unregister" in messages
    assert "Pool.stats stats struct is never registered" in messages


def test_repro005_clean_on_kept_key_and_close():
    assert _run(stats.RULE, "stats_good.py").findings == []


def test_repro006_fires_on_unannounced_waits():
    result = _run(blocking.RULE, "blocking_bad.py")
    assert {finding.rule for finding in result.findings} == {"REPRO006"}
    messages = " | ".join(finding.message for finding in result.findings)
    assert "future.result() in join_fanout()" in messages
    assert "time.sleep() in back_off()" in messages
    # An announcement after the wait, or inside a nested def, does not count.
    assert "event.wait() in late_announcement()" in messages
    assert "event.wait() in nested_does_not_cover()" in messages
    assert len(result.findings) == 4


def test_repro006_clean_on_announced_waits():
    result = _run(blocking.RULE, "blocking_good.py")
    assert result.findings == []
    assert len(result.waived) == 1  # the idle-follower wait carries its justification


def test_repro006_only_polices_the_request_path_tiers(tmp_path):
    # The same unannounced sleep is a finding under src/repro/net, not under crypto.
    for package in ("net", "crypto"):
        target = tmp_path / "src" / "repro" / package / "nap.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\ndef nap():\n    time.sleep(1)\n", encoding="utf-8")
    result = run_analysis([tmp_path / "src"], [blocking.RULE], root=tmp_path)
    assert [finding.path for finding in result.findings] == ["src/repro/net/nap.py"]


# -- waivers -------------------------------------------------------------------


def _leaky(tmp_path: Path, comment: str = "", above: str = "") -> Path:
    source = (
        "import logging\n"
        "logger = logging.getLogger(__name__)\n"
        "def f(master_key):\n"
        f"{above}"
        f"    logger.info('derived %r', master_key){comment}\n"
    )
    target = tmp_path / "leaky.py"
    target.write_text(source, encoding="utf-8")
    return target


def test_waiver_on_same_line_suppresses(tmp_path):
    target = _leaky(tmp_path, comment="  # repro: allow[REPRO002] test-only fixture value")
    result = run_analysis([target], [telemetry.RULE], root=tmp_path)
    assert result.findings == []
    assert len(result.waived) == 1


def test_waiver_on_line_above_suppresses(tmp_path):
    target = _leaky(tmp_path, above="    # repro: allow[REPRO002] test-only fixture value\n")
    result = run_analysis([target], [telemetry.RULE], root=tmp_path)
    assert result.findings == []
    assert len(result.waived) == 1


def test_waiver_without_justification_is_flagged(tmp_path):
    target = _leaky(tmp_path, comment="  # repro: allow[REPRO002]")
    result = run_analysis([target], [telemetry.RULE], root=tmp_path)
    assert result.findings == []  # it still suppresses…
    assert any("no justification" in finding.message for finding in result.waiver_findings)


def test_malformed_waiver_is_flagged_and_does_not_suppress(tmp_path):
    target = _leaky(tmp_path, comment="  # repro: allow REPRO002 forgot the brackets")
    result = run_analysis([target], [telemetry.RULE], root=tmp_path)
    assert len(result.findings) == 1  # …a malformed one does not
    assert any("malformed waiver" in finding.message for finding in result.waiver_findings)


def test_unknown_rule_waiver_is_flagged(tmp_path):
    target = _leaky(tmp_path, comment="  # repro: allow[REPRO099] no such rule")
    result = run_analysis([target], [telemetry.RULE], root=tmp_path)
    assert any("unknown rule" in finding.message for finding in result.waiver_findings)


def test_unused_waiver_flagged_only_in_strict(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text(
        "x = 1  # repro: allow[REPRO002] nothing here fires\n", encoding="utf-8"
    )
    relaxed = run_analysis([target], [telemetry.RULE], root=tmp_path)
    assert relaxed.waiver_findings == []
    strict = run_analysis([target], [telemetry.RULE], root=tmp_path, strict=True)
    assert any("unused waiver" in finding.message for finding in strict.waiver_findings)


def test_docstring_waiver_examples_are_not_waivers(tmp_path):
    target = tmp_path / "doc.py"
    target.write_text(
        '"""Docs: suppress with `# repro: allow[REPRO002] why`."""\n'
        "import logging\n"
        "logger = logging.getLogger(__name__)\n"
        "def f(master_key):\n"
        "    logger.info('%r', master_key)\n",
        encoding="utf-8",
    )
    result = run_analysis([target], [telemetry.RULE], root=tmp_path, strict=True)
    assert len(result.findings) == 1  # docstring text neither suppresses…
    assert result.waiver_findings == []  # …nor counts as a (mal)formed waiver


# -- baseline ------------------------------------------------------------------


def test_baseline_suppresses_known_fingerprints(tmp_path):
    target = _leaky(tmp_path)
    first = run_analysis([target], [telemetry.RULE], root=tmp_path)
    assert len(first.findings) == 1
    entry = {
        "rule": "REPRO002",
        "path": first.findings[0].path,
        "fingerprint": first.findings[0].fingerprint(),
        "reason": "known test leak, tracked elsewhere",
    }
    second = run_analysis([target], [telemetry.RULE], root=tmp_path, baseline=[entry])
    assert second.findings == []
    assert len(second.baselined) == 1
    assert second.stale_baseline == []


def test_stale_baseline_entry_fails_strict(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("x = 1\n", encoding="utf-8")
    stale = {"rule": "REPRO002", "path": "clean.py", "fingerprint": "deadbeef", "reason": "gone"}
    result = run_analysis([target], [telemetry.RULE], root=tmp_path, baseline=[stale], strict=True)
    assert result.failures(strict=False) == []
    assert any("stale baseline" in finding.message for finding in result.failures(strict=True))


def test_baseline_fingerprint_survives_line_moves(tmp_path):
    target = _leaky(tmp_path)
    before = run_analysis([target], [telemetry.RULE], root=tmp_path).findings[0]
    shifted = "# a new leading comment\n" + target.read_text(encoding="utf-8")
    target.write_text(shifted, encoding="utf-8")
    after = run_analysis([target], [telemetry.RULE], root=tmp_path).findings[0]
    assert before.line != after.line
    assert before.fingerprint() == after.fingerprint()


def test_written_baseline_requires_human_reasons(tmp_path):
    target = _leaky(tmp_path)
    result = run_analysis([target], [telemetry.RULE], root=tmp_path)
    baseline_path = tmp_path / "BASELINE.json"
    write_baseline(baseline_path, result.findings)
    entries, problems = load_baseline(baseline_path)
    assert len(entries) == 1
    assert any("carries no reason" in finding.message for finding in problems)


# -- CLI -----------------------------------------------------------------------


def test_cli_fails_on_findings_and_emits_json(tmp_path, capsys):
    from repro.analysis.__main__ import main

    target = _leaky(tmp_path)
    code = main(["--root", str(tmp_path), str(target), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["summary"]["new"] >= 1
    assert payload["findings"][0]["rule"] == "REPRO002"


def test_cli_clean_run_exits_zero(tmp_path, capsys):
    from repro.analysis.__main__ import main

    target = tmp_path / "fine.py"
    target.write_text("x = 1\n", encoding="utf-8")
    code = main(["--root", str(tmp_path), str(target), "--strict"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("ok:")


# -- the repo itself stays clean under --strict --------------------------------


def test_repo_strict_run_is_clean():
    baseline_entries, baseline_problems = load_baseline(REPO_ROOT / "ANALYSIS_BASELINE.json")
    assert baseline_problems == []
    result = run_analysis(
        [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
        all_rules(),
        root=REPO_ROOT,
        baseline=baseline_entries,
        strict=True,
    )
    assert result.failures(strict=True) == [], "\n".join(
        finding.render() for finding in result.failures(strict=True)
    )
