"""CLI: ``python -m repro.analysis [paths...] [--strict] [--json] ...``.

Exit codes: 0 clean (new findings all waived/baselined, and in strict
mode no stale baseline entries, unused waivers, or malformed waivers);
1 otherwise; 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.core import (
    DEFAULT_BASELINE_NAME,
    default_paths,
    load_baseline,
    run_analysis,
    write_baseline,
)
from repro.analysis.rules import all_rules


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Repo-specific static invariant analysis (rules REPRO001-REPRO006).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to scan (default: src tests benchmarks under --root)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="repo root for relative paths and the baseline (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept current findings into the baseline (reasons still need writing) and exit 0",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="CI mode: also fail on stale baseline entries, unused waivers, reasonless entries",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report instead of lines")
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    args = parser.parse_args(argv)

    root = args.root.resolve()
    paths = [path if path.is_absolute() else root / path for path in args.paths]
    if not paths:
        paths = default_paths(root)
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    rules = all_rules()
    if args.rules:
        wanted = {rule_id.strip() for rule_id in args.rules.split(",") if rule_id.strip()}
        unknown = wanted - {rule.rule_id for rule in rules}
        if unknown:
            print(f"error: unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [rule for rule in rules if rule.rule_id in wanted]

    baseline_path = args.baseline if args.baseline is not None else root / DEFAULT_BASELINE_NAME
    baseline_entries, baseline_problems = load_baseline(baseline_path)

    result = run_analysis(paths, rules, root=root, baseline=baseline_entries, strict=args.strict)
    if args.strict:
        result.waiver_findings.extend(baseline_problems)
    failures = result.failures(strict=args.strict)

    if args.write_baseline:
        write_baseline(baseline_path, result.findings + result.baselined)
        print(
            f"wrote {len(result.findings) + len(result.baselined)} entr"
            f"{'y' if len(result.findings) + len(result.baselined) == 1 else 'ies'} to {baseline_path}"
        )
        return 0

    if args.json:
        print(json.dumps(result.to_json(), indent=2))
    else:
        for finding in failures:
            print(finding.render())
        summary = (
            f"{len(result.findings)} new finding(s), {len(result.waived)} waived, "
            f"{len(result.baselined)} baselined, {len(result.stale_baseline)} stale baseline entr(ies), "
            f"{len(result.waiver_findings)} waiver/baseline problem(s)"
        )
        print(("FAIL: " if failures else "ok: ") + summary)

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
