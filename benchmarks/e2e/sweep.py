"""Run the benchmark over many seeds, and compare two such run sets.

    python3 benchmarks/e2e/sweep.py run --label set1 --out benchmarks/e2e/out/set1.json
    python3 benchmarks/e2e/sweep.py compare benchmarks/e2e/out/set1.json benchmarks/e2e/out/set2.json
    python3 benchmarks/e2e/sweep.py baseline benchmarks/e2e/out/set1.json benchmarks/e2e/out/set2.json

``run`` does what the driver does: every workload once per seed with
``--trace 0`` (plus one ``--trace 1`` run per workload), then per metric the
median and the inter-quartile spread as a share of the median.  ``compare``
checks a second set against the first with the bounds in ``BENCHMARK.json``
and refuses sets whose crypto backends differ — a blake2 keytree against an
AES-NI one is a different program, not a regression.  ``baseline`` writes
both sets, their comparison and the stat_hot ledger to ``baseline.json``;
``compare`` accepts that file in place of a first set.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from e2ebench.stats import iqr_spread, medians, worse_by  # noqa: E402  (needs HERE on the path)


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(contract: Dict[str, Any], workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One benchmark process; returns its full ``--json-out`` result."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, f"run-{workload}-{seed}-{trace}.json")
    command = list(contract["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--json-out", result_path,
    ]  # fmt: skip
    completed = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        tail = completed.stdout[-2000:] + completed.stderr[-2000:]
        raise RuntimeError(f"{' '.join(command)} exited {completed.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(result_path)
    return result


def run_set(args: argparse.Namespace) -> int:
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report: Dict[str, Any] = {"label": args.label, "seconds": seconds, "seeds": seeds, "workloads": {}}
    workloads = [entry["name"] for entry in contract["workloads"]]
    rows: Dict[str, List[Dict[str, float]]] = {workload: [] for workload in workloads}
    # Seeds outside, workloads inside: this sandbox speeds up and slows down
    # by 10-20 % in phases of minutes, and a workload whose ten runs sit in
    # one phase would carry that phase into its median.
    for seed in seeds:
        for workload in workloads:
            result = run_once(contract, workload, seed, seconds, trace=0)
            report["environment"] = result["environment"]
            rows[workload].append({name: metric["value"] for name, metric in result["metrics"].items()})
            print(f"{workload} seed {seed}: ok", flush=True)
    for workload in workloads:
        traced = run_once(contract, workload, seeds[0], seconds, trace=1)
        report["workloads"][workload] = {
            "end_to_end": {
                name: {"median": median, "spread": iqr_spread([row[name] for row in rows[workload]])}
                for name, median in medians(rows[workload]).items()
            },
            "end_to_end_runs": rows[workload],
            "per_layer": {name: metric["value"] for name, metric in traced["metrics"].items()},
        }
        print(f"{workload} traced: ok", flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    for workload, body in report["workloads"].items():
        for name, cell in body["end_to_end"].items():
            flag = ""
            if cell["spread"] > bounds[name]:
                flag = "  > BOUND"
            elif cell["spread"] > bounds[name] / 3:
                flag = "  > bound/3"
            print(f"{workload:12} {name:26} median {cell['median']:14.4f}  spread {cell['spread']:.4f}{flag}")
    return 0


def load_set(path: str) -> Dict[str, Any]:
    """A run set: a ``run --out`` file, or the first set of a ``baseline.json``."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return data.get("set1", data)


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every (metric, workload) cell of ``second`` against ``first``."""
    for backend in ("prg", "aead"):
        if first["environment"][backend] != second["environment"][backend]:
            raise ValueError(
                f"refusing to compare: {backend} is {first['environment'][backend]} in "
                f"'{first['label']}' and {second['environment'][backend]} in '{second['label']}'"
            )
    cells = []
    for entry in load_contract()["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        for workload in first["workloads"]:
            before = first["workloads"][workload]["end_to_end"][name]
            after = second["workloads"][workload]["end_to_end"][name]
            change = worse_by(before["median"], after["median"], entry["better"])
            verdict = "ok"
            if max(before["spread"], after["spread"]) > bound:
                verdict = "unresolved (spread > bound)"
            elif change > bound:
                verdict = "WORSE"
            cells.append(
                {
                    "workload": workload,
                    "metric": name,
                    "first": before["median"],
                    "second": after["median"],
                    "worse_by": change,
                    "bound": bound,
                    "verdict": verdict,
                }
            )
    return cells


def compare_sets(args: argparse.Namespace) -> int:
    try:
        cells = compare(load_set(args.first), load_set(args.second))
    except ValueError as refusal:
        print(refusal)
        return 2
    for cell in cells:
        print(
            f"{cell['workload']:12} {cell['metric']:26} {cell['first']:14.4f} -> {cell['second']:14.4f}"
            f"  {cell['worse_by']:+.3f}  {cell['verdict']}"
        )
    return 1 if any(cell["verdict"] == "WORSE" for cell in cells) else 0


def write_baseline(args: argparse.Namespace) -> int:
    first, second = load_set(args.first), load_set(args.second)
    hot = first["workloads"]["stat_hot"]
    ledger = {
        "stat_p50_ms (end to end, untraced)": hot["end_to_end"]["stat_p50_ms"]["median"],
        "server.stat_range_self_us": hot["per_layer"]["server.stat_range_self_us"],
        "net.call_self_us.stat_range": hot["per_layer"]["net.call_self_us.stat_range"],
        "net.ping_rtt_us": hot["per_layer"]["net.ping_rtt_us"],
        "net.queue_wait_us": hot["per_layer"]["net.queue_wait_us"],
        "client.decrypt_stat_us": hot["per_layer"]["client.decrypt_stat_us"],
        "crypto.heac_decrypt_us_per_result": hot["per_layer"]["crypto.heac_decrypt_us_per_result"],
        "crypto.derive_us_per_leaf": hot["per_layer"]["crypto.derive_us_per_leaf"],
        "core.ledger_coverage.stat": hot["per_layer"]["core.ledger_coverage.stat"],
    }
    owners = {
        "server (index walk + combine)": ledger["server.stat_range_self_us"],
        "net (wire, both directions)": ledger["net.call_self_us.stat_range"],
        "client (HEAC + keytree + glue)": ledger["client.decrypt_stat_us"],
    }
    baseline = {
        "claim": None,
        "question": "Does pure-Python HEAC/keytree work or the wire dominate small-query latency (stat_hot)?",
        "stat_hot_ledger": ledger,
        "answer": "largest owner of a stat_hot query: " + max(owners, key=owners.get)
        + "; the client's HEAC/keytree share is the smallest of the three",
        "set1": first,
        "set2": second,
        "set2_against_set1": compare(first, second),
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1)
    print(f"wrote {args.out}: {baseline['answer']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run every workload over a range of seeds")
    run.add_argument("--label", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--seeds", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=100)
    run.add_argument("--seconds", type=float)
    run.set_defaults(handler=run_set)
    comparing = commands.add_parser("compare", help="second run set against the first, with the contract's bounds")
    comparing.add_argument("first")
    comparing.add_argument("second")
    comparing.set_defaults(handler=compare_sets)
    baseline = commands.add_parser("baseline", help="merge two run sets into baseline.json")
    baseline.add_argument("first")
    baseline.add_argument("second")
    baseline.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    baseline.set_defaults(handler=write_baseline)
    args = parser.parse_args()
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
