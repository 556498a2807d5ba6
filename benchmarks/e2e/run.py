"""The repo's benchmark: one whole-deployment run, end to end or layer by layer.

    python3 benchmarks/e2e/run.py --workload stat_hot --seed 7 --seconds 12 --trace 0

brings up the four-tier deployment in this process over loopback sockets,
drives one workload closed-loop for ``--seconds``, checks every answer
against the plaintext oracle, prints every metric by name and unit, and ends
with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (no proxies, no tracing);
``--trace 1`` reports the per-layer metrics from a traced replay of the
same schedule and writes ``benchmarks/e2e/out/trace-<workload>.json``.
See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

Metric = Tuple[float, str]


def _import_benchmark() -> None:
    """Put the system under test and the harness package on ``sys.path``."""
    if not os.path.isdir(os.path.join(SOURCE_ROOT, "repro")):
        sys.exit(f"run.py: no system under test at {SOURCE_ROOT}/repro — nothing to measure")
    for path in (SOURCE_ROOT, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_untraced(spec: Any, seed: int, seconds: float, setup_repeats: int) -> Dict[str, Any]:
    from e2ebench import runner

    inputs = runner.Inputs(spec, seed)
    oracle = runner.Oracle(inputs)
    setup_times: List[float] = []
    stack = None
    try:
        for repeat in range(setup_repeats):
            stack = runner.set_up(inputs)
            setup_times.append(stack.setup_seconds)
            if repeat + 1 < setup_repeats:
                stack.close()
                stack = None
        # The oracle's preload happens after the timed set-ups: it is the
        # checker's work, not the deployment's.
        oracle.feed_preload()
        window = runner.run_window(stack, inputs, seconds, oracle.expected_ranges())
        counters = {
            "sheds": stack.deployment.sheds(),
            "overload_retries": stack.deployment.overload_retries(),
            "marked_down": stack.deployment.nodes_marked_down(),
            "hints_parked": stack.deployment.hints_parked(),
        }
        stored = stack.stored_bytes_per_record
    finally:
        if stack is not None:
            stack.close()
    mismatches = runner.verify(window, oracle)
    oracle.close()
    metrics, samples = runner.end_to_end_metrics(spec, window, setup_times, stored)
    failed = window.failed + mismatches
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": window.attempted,
        "failed": failed,
        "correct": failed == 0 and not any(counters.values()),
        "counters": counters,
        "window_seconds": window.wall_seconds,
    }


def run_traced(spec: Any, seed: int, seconds: float, replay_scale: float) -> Dict[str, Any]:
    from repro.obs.tracing import SPANS

    from e2ebench import layers, runner
    from e2ebench.schedule import OP_KINDS
    from e2ebench.spans import SpanLog, write_trace

    inputs = runner.Inputs(spec, seed)
    oracle = runner.Oracle(inputs)
    oracle.feed_preload()
    expected = oracle.expected_ranges()
    # The same ops on an untraced deployment first: the base of the
    # tracing-overhead ratio.
    stack = runner.set_up(inputs)
    try:
        reference = runner.run_window(stack, inputs, seconds / 4.0, expected, threads=1)
    finally:
        stack.close()
    log = SpanLog()
    stack = runner.set_up(inputs, log)
    try:
        before = layers.CounterSnapshot(stack)
        SPANS.clear()
        log.enabled = True
        # One caller, so at most one operation is in flight and span nesting
        # is unambiguous.
        window = runner.run_window(stack, inputs, seconds, expected, log=log, threads=1)
        log.enabled = False
        delta = layers.CounterSnapshot(stack).since(before)
        metrics: Dict[str, Metric] = {}
        metrics.update(layers.counter_metrics(inputs, stack, window, delta))
        metrics.update(layers.decrypt_replay(stack, inputs))
        metrics.update(layers.access_replay(stack, inputs))
        metrics.update(layers.wire_micro(stack))
    finally:
        stack.close()
    staged, identical = layers.staged_client_replay(inputs, int(layers.REPLAY_RECORDS * replay_scale))
    metrics.update(staged)
    metrics.update(layers.ledger_metrics(inputs, log, metrics))
    metrics.update(layers.index_replay(inputs))
    arm, arms_agree = layers.plaintext_arm(inputs, int(layers.ARM_RECORDS * replay_scale))
    metrics.update(arm)
    metrics["obs.traced_run_overhead"] = layers.traced_overhead(reference, window)
    mismatches = runner.verify(window, oracle) + runner.verify(reference, oracle)
    oracle.close()
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{spec.name}.json")
    write_trace(trace_path, log, {"workload": spec.name, "seed": seed, "environment": runner.environment()})
    failed = window.failed + reference.failed + mismatches
    must_be_zero = ("net.sheds", "net.overload_retries", "storage.marked_down", "storage.hints_parked")
    return {
        "metrics": metrics,
        "samples": {kind: len(window.latencies(kind)) for kind in OP_KINDS},
        "attempted": window.attempted + reference.attempted,
        "failed": failed,
        "correct": failed == 0
        and identical
        and arms_agree
        and not any(metrics[name][0] for name in must_be_zero),
        "trace_file": os.path.relpath(trace_path, REPO_ROOT),
        "window_seconds": window.wall_seconds,
    }


def _print_report(spec: Any, args: argparse.Namespace, environment: Dict[str, Any], result: Dict[str, Any]) -> None:
    from e2ebench.stats import supported_tail

    mode = "per-layer (traced)" if args.trace else "end-to-end (untraced)"
    print(f"workload {spec.name} · seed {args.seed} · {result['window_seconds']:.2f} s window · {mode}")
    print("environment: " + ", ".join(f"{key}={value}" for key, value in environment.items()))
    print("samples: " + ", ".join(f"{kind}={count}" for kind, count in result["samples"].items()))
    if not args.trace:
        unsupported = [
            kind for kind in ("ingest", "stat", "range") if supported_tail(result["samples"][kind]) < 95.0
        ]
        if unsupported:
            print(f"p95 has fewer than 10 samples beyond it for: {', '.join(unsupported)}")
    width = max(len(name) for name in result["metrics"])
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<{width}}  {value:>16.4f} {unit}")
    print(f"ops_attempted={result['attempted']} ops_failed={result['failed']} correct={result['correct']}")
    for key in ("counters", "trace_file"):
        if key in result:
            print(f"{key}: {result[key]}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="harness self-test: 4 streams, tiny preload, one set-up; the numbers mean nothing",
    )
    parser.add_argument("--json-out", help="also write the full result (with environment) here")
    args = parser.parse_args(argv)
    _import_benchmark()

    from e2ebench import runner
    from e2ebench.schedule import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; choose from {', '.join(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    setup_repeats = runner.SETUP_REPEATS
    if args.smoke:
        spec = dataclasses.replace(
            spec,
            streams=min(spec.streams, 4),
            preload_windows=min(spec.preload_windows, 32),
            points_per_chunk=min(spec.points_per_chunk, 100),
        )
        setup_repeats = 1
    environment = runner.environment()
    if args.trace:
        result = run_traced(spec, args.seed, args.seconds, replay_scale=0.1 if args.smoke else 1.0)
    else:
        result = run_untraced(spec, args.seed, args.seconds, setup_repeats)
    survivors = [t.name for t in threading.enumerate() if t is not threading.main_thread() and not t.daemon]
    if survivors:
        print(f"threads still running after teardown: {survivors}", file=sys.stderr)
        result["correct"] = False
    _print_report(spec, args, environment, result)
    summary = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
        },
    }
    if args.json_out:
        full = dict(summary, workload=spec.name, seed=args.seed, trace=args.trace,
                    environment=environment, samples=result["samples"])
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(full, handle, indent=1)
    print(json.dumps(summary))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
