"""Parent-vs-change sweep of the repo's benchmark, interleaved block by block.

    git worktree add --detach ../parent HEAD^
    python benchmarks/e2e_interleaved.py --parent ../parent --out e2e-compare

The sandbox (and a shared CI runner) speeds up and slows down in phases of
minutes, so a parent run set measured before the change's run set carries
that drift into the comparison.  This driver runs ``benchmarks/e2e/sweep.py
run`` in both checkouts in alternation — two seeds per invocation (the
smallest set ``sweep.py`` can compute a spread for), the side that goes
first flipping every block — then merges each side's blocks into one run
set, hands both to ``sweep.py compare`` (the ``BENCHMARK.json`` bounds), and
writes the per-cell pair table a claimed gain is judged by: seed pairs won,
both medians, and the parent's inter-quartile distance.

Outputs in ``--out``: ``parent.json`` / ``change.json`` (run sets in
``sweep.py``'s format, per-layer metrics from each side's first block),
``compare.txt`` and ``pairs.json``.  Wall clock is reported, never gated:
the exit status is non-zero only when a benchmark process itself failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP = os.path.join("benchmarks", "e2e", "sweep.py")
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks", "e2e"))

from e2ebench.stats import iqr_spread, medians  # noqa: E402  (needs the harness on the path)

#: Seeds per ``sweep.py run`` invocation; one seed has no quartiles.
BLOCK_SEEDS = 2
#: Pairs below which no gain is claimable, however lopsided.
MIN_PAIRS = 10


def run_block(checkout: str, label: str, first_seed: int, seconds: float | None, out_path: str) -> Dict[str, Any]:
    """One ``sweep.py run`` of ``BLOCK_SEEDS`` seeds inside ``checkout``."""
    command = [
        sys.executable, SWEEP, "run", "--label", label, "--out", out_path,
        "--seeds", str(BLOCK_SEEDS), "--first-seed", str(first_seed),
    ]  # fmt: skip
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    subprocess.run(command, cwd=checkout, check=True)
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def merge_blocks(label: str, blocks: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Concatenate blocks' runs into one run set and recompute medians and spreads."""
    merged: Dict[str, Any] = {
        "label": label,
        "seconds": blocks[0]["seconds"],
        "seeds": [seed for block in blocks for seed in block["seeds"]],
        "environment": blocks[0]["environment"],
        "workloads": {},
    }
    for workload, first in blocks[0]["workloads"].items():
        rows = [row for block in blocks for row in block["workloads"][workload]["end_to_end_runs"]]
        merged["workloads"][workload] = {
            "end_to_end": {
                name: {"median": median, "spread": iqr_spread([row[name] for row in rows])}
                for name, median in medians(rows).items()
            },
            "end_to_end_runs": rows,
            "per_layer": first["per_layer"],
        }
    return merged


def pair_table(parent: Dict[str, Any], change: Dict[str, Any], contract: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per (workload, end-to-end metric): seed pairs won and the claim rule's verdict.

    A gain may be claimed on a cell when at least ten pairs were run, the
    change wins at least nine tenths of them (ties count for neither side)
    and the medians differ, in the better direction, by more than the
    distance between the quartiles of the parent's own runs.
    """
    cells = []
    for entry in contract["end_to_end"]:
        name, higher = entry["name"], entry["better"] == "higher"
        for workload, body in parent["workloads"].items():
            before = [row[name] for row in body["end_to_end_runs"]]
            after = [row[name] for row in change["workloads"][workload]["end_to_end_runs"]]
            wins = sum((b > a) if higher else (b < a) for a, b in zip(before, after))
            ties = sum(a == b for a, b in zip(before, after))
            first, _middle, third = statistics.quantiles(before, n=4)
            gain = statistics.median(after) - statistics.median(before)
            gain = gain if higher else -gain
            enough = len(before) >= MIN_PAIRS and wins >= 0.9 * len(before)
            cells.append(
                {
                    "workload": workload,
                    "metric": name,
                    "parent_median": statistics.median(before),
                    "parent_iqr": third - first,
                    "change_median": statistics.median(after),
                    "pairs": len(before),
                    "won": wins,
                    "lost": len(before) - wins - ties,
                    "tied": ties,
                    "gain_claimable": enough and gain > third - first,
                }
            )
    return cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit (e.g. a git worktree)")
    parser.add_argument("--change", default=REPO_ROOT, help="checkout of the change (default: this one)")
    parser.add_argument("--out", required=True, help="directory for run sets, comparison and pair table")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, help="window length (default: BENCHMARK.json's run_seconds)")
    args = parser.parse_args()
    if args.seeds < BLOCK_SEEDS or args.seeds % BLOCK_SEEDS:
        parser.error(f"--seeds must be a positive multiple of {BLOCK_SEEDS}")
    out = os.path.abspath(args.out)
    os.makedirs(out, exist_ok=True)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    blocks: Dict[str, List[Dict[str, Any]]] = {side: [] for side in sides}
    for index, first_seed in enumerate(range(args.first_seed, args.first_seed + args.seeds, BLOCK_SEEDS)):
        for side in ("parent", "change") if index % 2 == 0 else ("change", "parent"):
            block_path = os.path.join(out, f"block-{side}-{first_seed}.json")
            blocks[side].append(run_block(sides[side], f"{side}-{first_seed}", first_seed, args.seconds, block_path))
    paths = {}
    for side in sides:
        paths[side] = os.path.join(out, f"{side}.json")
        with open(paths[side], "w", encoding="utf-8") as handle:
            json.dump(merge_blocks(side, blocks[side]), handle, indent=1)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    with open(paths["parent"], encoding="utf-8") as first, open(paths["change"], encoding="utf-8") as second:
        cells = pair_table(json.load(first), json.load(second), contract)
    with open(os.path.join(out, "pairs.json"), "w", encoding="utf-8") as handle:
        json.dump(cells, handle, indent=1)
    # Exit status 1 of ``compare`` means "a cell is worse than its bound" —
    # information for the reader of the artifact, not a gate on a noisy runner.
    compared = subprocess.run(
        [sys.executable, SWEEP, "compare", paths["parent"], paths["change"]],
        cwd=sides["change"], capture_output=True, text=True,
    )  # fmt: skip
    with open(os.path.join(out, "compare.txt"), "w", encoding="utf-8") as handle:
        handle.write(compared.stdout + compared.stderr)
    print(compared.stdout, end="")
    for cell in cells:
        if cell["gain_claimable"]:
            print(
                f"claimable: {cell['workload']} {cell['metric']} {cell['parent_median']:.4f} -> "
                f"{cell['change_median']:.4f} ({cell['won']}/{cell['pairs']} pairs, parent IQR {cell['parent_iqr']:.4f})"
            )
    return 0 if compared.returncode in (0, 1) else compared.returncode


if __name__ == "__main__":
    sys.exit(main())
