"""Set a deployment up, drive one workload closed-loop, check every answer.

The flow of one untraced run::

    inputs  = Inputs(spec, seed)                  # seed -> streams, values, principals
    stack   = set_up(inputs)   x SETUP_REPEATS    # timed: bring-up + preload + warm-up
    window  = run_window(stack, inputs, seconds)  # the only timed region for latencies
    verify(window, inputs, oracle)                # plaintext oracle, after the clock stops

The traced run (:mod:`e2ebench.layers`) reuses the same pieces with the
span proxies installed and a single client thread.
"""

from __future__ import annotations

import gc
import importlib.util
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import PlaintextTimeSeriesStore, Principal, TimeCrypt, TimeCryptConsumer
from repro.crypto.prf import resolve_prg
from repro.exceptions import TimeCryptError
from repro.workloads.mhealth import CHUNK_INTERVAL_MS, MHealthWorkload

from e2ebench import schedule as sched
from e2ebench.deployment import ENGINE_NAMES, Deployment, shard_owner
from e2ebench.schedule import GRANT, INGEST, ONBOARD, RANGE, STAT, Op, WorkloadSpec
from e2ebench.spans import SpanLog
from e2ebench.stats import percentile

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Chunks per ``insert_records`` call while preloading (not a measured op).
PRELOAD_BATCH_CHUNKS = 64
#: The tail every latency class reports.  p95 is the highest percentile that
#: keeps >= 10 samples beyond it on the sparsest class of every workload.
TAIL_PERCENTILE = 95.0
#: Wall-time slices of the window.  Every rate and latency is computed per
#: slice and the second-best slice is reported: interference from outside
#: the process only ever makes a slice worse, so the better slices are the
#: better estimate of what the code does (the best one alone would be luck).
WINDOW_SLICES = 6
REPORTED_SLICE_RANK = 2
#: Callers, engines and storage nodes are separate machines in a deployment
#: but threads of one interpreter here.  With CPython's default 5 ms switch
#: interval a caller whose answer is ready waits whole quanta for a *server*
#: thread to yield the GIL, and latencies pile up in 5 ms steps whose tails
#: differ by 40 % from run to run.  A 0.5 ms quantum keeps that artefact of
#: the single process below the latencies being measured.
GIL_SWITCH_INTERVAL_S = 0.0005
#: Relative tolerance on ``mean`` (count and sum must match exactly).
MEAN_TOLERANCE = 1e-9


def environment() -> Dict[str, Any]:
    """What the numbers depend on besides the code: cores, Python, crypto backends."""
    native = importlib.util.find_spec("cryptography") is not None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "prg": resolve_prg("auto"),
        "aead": "native-aesgcm" if native else "pure-python-gcm",
    }


class Inputs:
    """Everything derived from ``--seed`` (plus the principals' fresh keypairs)."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self.uuids = sched.stream_uuids(spec, seed, ENGINE_NAMES, shard_owner)
        self.metrics = sched.stream_metrics(spec)
        self.configs = [MHealthWorkload.stream_config(metric) for metric in self.metrics]
        self.templates = sched.value_templates(spec, seed)
        self.range_starts = sched.range_starts(spec, seed)
        #: ``principals[thread][index]``: who the window's grant ops share with.
        self.principals = [
            [Principal.create(f"p{thread}-{index}") for index in range(sched.PRINCIPALS_PER_THREAD)]
            for thread in range(spec.client_threads)
        ]
        #: ``warm[stream]``: onboarded during set-up — on the streams that take
        #: grants, and on every stream when queries go through consumers.
        warm_streams = {
            stream for thread in range(spec.client_threads) for stream in sched.grant_streams(spec, thread)
        }
        if spec.consumer_queries:
            warm_streams = set(range(spec.streams))
        self.warm = {stream: Principal.create(f"warm-{stream}") for stream in sorted(warm_streams)}

    def records(self, stream: int, first: int, last: int) -> List[Tuple[int, float]]:
        return sched.records_for(self.spec, self.templates[stream], first, last)

    def grant_bounds(self, restricted: bool) -> Tuple[int, int, Optional[int]]:
        """``(start, end, resolution_interval)`` of a grant, in stream time."""
        if restricted:
            windows = sched.restricted_windows(self.spec)
            return 0, windows * CHUNK_INTERVAL_MS, sched.RESTRICTED_CHUNKS * CHUNK_INTERVAL_MS
        windows = self.spec.preload_windows + sched.GRANT_MARGIN_WINDOWS
        return 0, windows * CHUNK_INTERVAL_MS, None


@dataclass
class Stack:
    """One set-up: a live deployment plus the client-side objects driving it."""

    deployment: Deployment
    owner: TimeCrypt
    #: Pre-onboarded consumer per stream (``consumer_queries`` workloads).
    consumers: Dict[int, TimeCryptConsumer]
    setup_seconds: float
    stored_bytes_per_record: float

    def close(self) -> None:
        self.deployment.close()


def set_up(inputs: Inputs, log: Optional[SpanLog] = None) -> Stack:
    """Bring-up + preload + warm-up: everything before the measured window."""
    spec = inputs.spec
    begin = time.perf_counter()
    deployment = Deployment(spec.index_cache_bytes, log)
    try:
        owner = TimeCrypt(server=deployment.client, owner_id="owner")
        for stream, uuid in enumerate(inputs.uuids):
            owner.create_stream(metric=inputs.metrics[stream], config=inputs.configs[stream], uuid=uuid)
        # No flush after the preload: the last window stays open in the
        # client-side builder, so every later insert_records call of k
        # windows completes (and gets acknowledged for) exactly k chunks.
        for stream, uuid in enumerate(inputs.uuids):
            for first in range(0, spec.preload_windows, PRELOAD_BATCH_CHUNKS):
                last = min(first + PRELOAD_BATCH_CHUNKS, spec.preload_windows)
                owner.insert_records(uuid, inputs.records(stream, first, last))
        preload_records = spec.streams * (spec.preload_windows - 1) * spec.points_per_chunk
        stored = deployment.stored_bytes() / preload_records
        consumers = _warm_up(inputs, deployment, owner)
    except BaseException:
        deployment.close()
        raise
    return Stack(deployment, owner, consumers, time.perf_counter() - begin, stored)


def _warm_up(inputs: Inputs, deployment: Deployment, owner: TimeCrypt) -> Dict[int, TimeCryptConsumer]:
    """Finish lazy set-up and fill caches, so the window measures steady state."""
    spec = inputs.spec
    for pool in inputs.principals:
        for principal in pool:
            owner.register_principal(principal)
    consumers: Dict[int, TimeCryptConsumer] = {}
    for stream, principal in inputs.warm.items():
        # The first restricted grant builds the stream's dual-key-regression
        # chain (~0.1 s): lazy set-up, so it is paid here, not in the window.
        uuid = inputs.uuids[stream]
        owner.register_principal(principal)
        start, end, resolution = inputs.grant_bounds(sched.is_restricted(spec, stream))
        owner.grant_access(uuid, principal.principal_id, start, end, resolution_interval=resolution)
        consumer = TimeCryptConsumer(server=deployment.client, principal=principal)
        consumer.warm_up([uuid])
        consumers[stream] = consumer
    head = spec.preload_windows - 1
    for stream, uuid in enumerate(inputs.uuids):
        # Touch every leaf-level index node and the whole spine, so a cache
        # that can hold the working set does hold it when the window opens.
        fanout = inputs.configs[stream].index_fanout
        for first in range(0, head, fanout):
            owner.get_stat_range(uuid, first * CHUNK_INTERVAL_MS, (first + 1) * CHUNK_INTERVAL_MS)
        owner.get_stat_range(uuid, 0, head * CHUNK_INTERVAL_MS)
        first = inputs.range_starts[stream][0]
        owner.get_range(uuid, first * CHUNK_INTERVAL_MS, (first + sched.RANGE_CHUNKS) * CHUNK_INTERVAL_MS)
    return consumers


# -- the plaintext oracle --------------------------------------------------------


class Oracle:
    """``core/plaintext.py`` fed the same records; the source of expected answers."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.store = PlaintextTimeSeriesStore()
        for stream, uuid in enumerate(inputs.uuids):
            self.store.create_stream(
                metric=inputs.metrics[stream], config=inputs.configs[stream], uuid=uuid
            )
        self.fed = [0] * inputs.spec.streams

    def feed(self, stream: int, upto: int) -> None:
        """Ingest windows ``[fed, upto)`` of one stream."""
        uuid = self.inputs.uuids[stream]
        while self.fed[stream] < upto:
            last = min(self.fed[stream] + PRELOAD_BATCH_CHUNKS, upto)
            self.store.insert_records(uuid, self.inputs.records(stream, self.fed[stream], last))
            self.fed[stream] = last

    def feed_preload(self) -> None:
        for stream in range(self.inputs.spec.streams):
            self.feed(stream, self.inputs.spec.preload_windows)

    def expected_ranges(self) -> Dict[Tuple[int, int], list]:
        """Expected ``get_range`` point lists for every scheduled start."""
        expected = {}
        for stream, uuid in enumerate(self.inputs.uuids):
            for first in self.inputs.range_starts[stream]:
                expected[(stream, first)] = self.store.get_range(
                    uuid, first * CHUNK_INTERVAL_MS, (first + sched.RANGE_CHUNKS) * CHUNK_INTERVAL_MS
                )
        return expected

    def stat_matches(self, op: Op, answer: Dict[str, object]) -> bool:
        want = self.store.get_stat_range(
            self.inputs.uuids[op.stream], op.first * CHUNK_INTERVAL_MS, op.last * CHUNK_INTERVAL_MS
        )
        return answers_match(answer, want)

    def close(self) -> None:
        self.store.store.close()


def answers_match(answer: Dict[str, object], want: Dict[str, object]) -> bool:
    """Exact on count and sum, 1e-9 relative on mean."""
    return (
        answer.get("count") == want["count"]
        and answer.get("sum") == want["sum"]
        and math.isclose(answer.get("mean", math.nan), want["mean"], rel_tol=MEAN_TOLERANCE)
    )


# -- the measured window -----------------------------------------------------------


@dataclass
class ThreadResult:
    #: ``(kind, finished_at, latency)`` of every checked op, in execution order.
    timeline: List[Tuple[str, float, float]] = field(default_factory=list)
    stat_answers: List[Tuple[Op, Dict[str, object]]] = field(default_factory=list)
    heads: Dict[int, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    end: float = 0.0
    error: Optional[BaseException] = None


@dataclass
class WindowResult:
    threads: List[ThreadResult]
    begin: float
    wall_seconds: float
    peak_rss_mib: float

    def latencies(self, kind: str) -> List[float]:
        return [
            latency for t in self.threads for op_kind, _end, latency in t.timeline if op_kind == kind
        ]

    def slices(self, count: int) -> List[Dict[str, List[float]]]:
        """Latencies by op kind for ``count`` equal wall-time slices of the window."""
        width = self.wall_seconds / count
        sliced: List[Dict[str, List[float]]] = [{} for _ in range(count)]
        for result in self.threads:
            for kind, finished_at, latency in result.timeline:
                index = min(count - 1, int((finished_at - self.begin) / width))
                sliced[index].setdefault(kind, []).append(latency)
        return sliced

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.threads)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.threads)


class _Worker:
    """One closed-loop caller: next op only after the previous one answered."""

    def __init__(
        self,
        stack: Stack,
        inputs: Inputs,
        thread: int,
        expected_ranges: Dict[Tuple[int, int], list],
        log: Optional[SpanLog],
    ) -> None:
        self.stack = stack
        self.inputs = inputs
        self.thread = thread
        self.expected_ranges = expected_ranges
        self.log = log
        self.result = ThreadResult()
        self.ops: Iterator[Op] = sched.schedule(inputs.spec, inputs.seed, thread)

    def _prepare(self, op: Op) -> Callable[[], Any]:
        """Build the op's inputs (untimed) and return the call to time."""
        owner, inputs = self.stack.owner, self.inputs
        uuid = inputs.uuids[op.stream]
        if op.kind == INGEST:
            records = inputs.records(op.stream, op.first, op.last)
            return lambda: owner.insert_records(uuid, records)
        start, end = op.first * CHUNK_INTERVAL_MS, op.last * CHUNK_INTERVAL_MS
        if op.kind == STAT:
            if inputs.spec.consumer_queries:
                return lambda: self.stack.consumers[op.stream].get_stat_range(uuid, start, end)
            return lambda: owner.get_stat_range(uuid, start, end)
        if op.kind == RANGE:
            return lambda: owner.get_range(uuid, start, end)
        principal = inputs.principals[self.thread][op.principal]
        shared = [
            (inputs.uuids[stream], sched.is_restricted(inputs.spec, stream))
            for stream in sched.grant_streams(inputs.spec, self.thread)
        ]
        if op.kind == GRANT:

            def grant_both() -> None:
                for shared_uuid, restricted in shared:
                    start, end, resolution = inputs.grant_bounds(restricted)
                    owner.grant_access(
                        shared_uuid, principal.principal_id, start, end, resolution_interval=resolution
                    )

            return grant_both
        consumer = TimeCryptConsumer(server=self.stack.deployment.client, principal=principal)
        return lambda: consumer.warm_up([shared_uuid for shared_uuid, _restricted in shared])

    def _check(self, op: Op, answer: Any) -> bool:
        """Checks cheap enough to run between ops; stat answers wait for the oracle."""
        result = self.result
        if op.kind == INGEST:
            result.heads[op.stream] = op.last
        elif op.kind == STAT:
            result.stat_answers.append((op, answer))
        elif op.kind == RANGE:
            return answer == self.expected_ranges[(op.stream, op.first)]
        elif op.kind == ONBOARD:
            for stream in sched.grant_streams(self.inputs.spec, self.thread):
                token = answer.get(self.inputs.uuids[stream])
                restricted = sched.is_restricted(self.inputs.spec, stream)
                if token is None or token.is_full_resolution == restricted:
                    return False
        return True

    def run(self, deadline: float, max_ops: Optional[int]) -> None:
        result = self.result
        # Even the shortest window runs one whole cycle, so every op class
        # (and with it every metric) has at least one sample.
        one_cycle = len(self.inputs.spec.cycle_ops())
        try:
            while time.perf_counter() < deadline or result.attempted < one_cycle:
                if max_ops is not None and result.attempted >= max_ops:
                    break
                op = next(self.ops)
                call = self._prepare(op)
                result.attempted += 1
                begin = time.perf_counter()
                try:
                    answer = self.log.run_op(op.kind, call) if self.log is not None else call()
                except (TimeCryptError, OSError):
                    # A shed, a typed error or a dead socket: the op failed
                    # and contributes no latency.
                    result.failed += 1
                    continue
                finished_at = time.perf_counter()
                if self._check(op, answer):
                    result.timeline.append((op.kind, finished_at, finished_at - begin))
                else:
                    result.failed += 1
        except BaseException as exc:  # noqa: BLE001 - re-raised by run_window on the main thread
            result.error = exc
        result.end = time.perf_counter()


def run_window(
    stack: Stack,
    inputs: Inputs,
    seconds: float,
    expected_ranges: Dict[Tuple[int, int], list],
    log: Optional[SpanLog] = None,
    threads: Optional[int] = None,
    max_ops: Optional[int] = None,
) -> WindowResult:
    """Drive the workload closed-loop for ``seconds`` (or ``max_ops`` per thread)."""
    count = threads if threads is not None else inputs.spec.client_threads
    workers = [_Worker(stack, inputs, thread, expected_ranges, log) for thread in range(count)]
    # Keep the collector from walking the preloaded heap mid-window: what is
    # alive now stays alive until teardown.
    gc.collect()
    gc.freeze()
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(GIL_SWITCH_INTERVAL_S)
    try:
        begin = time.perf_counter()
        deadline = begin + seconds
        if count == 1:
            workers[0].run(deadline, max_ops)
        else:
            pool = [
                threading.Thread(target=worker.run, args=(deadline, max_ops), name=f"caller-{n}")
                for n, worker in enumerate(workers)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        end = max(worker.result.end for worker in workers)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        sys.setswitchinterval(switch_interval)
        gc.unfreeze()
    for worker in workers:
        if worker.result.error is not None:
            raise worker.result.error
    return WindowResult([worker.result for worker in workers], begin, end - begin, peak_rss)


def verify(window: WindowResult, oracle: Oracle) -> int:
    """Feed the oracle what was ingested, compare every stat answer; returns mismatches."""
    for result in window.threads:
        for stream, head in result.heads.items():
            oracle.feed(stream, head)
    mismatches = 0
    for result in window.threads:
        for op, answer in result.stat_answers:
            if not oracle.stat_matches(op, answer):
                mismatches += 1
    return mismatches


# -- end-to-end metrics ---------------------------------------------------------------


def window_slices(window: WindowResult) -> int:
    """Slices for a window: six, but never shorter than a second each."""
    return max(1, min(WINDOW_SLICES, int(window.wall_seconds)))


def end_to_end_metrics(
    spec: WorkloadSpec, window: WindowResult, setup_times: List[float], stored_bytes_per_record: float
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, int]]:
    """The 14 user-visible metrics ``{name: (value, unit)}`` and the sample count per op class.

    Rates and latencies come from the second-best wall-time slice of the
    window (see ``WINDOW_SLICES``): a burst of interference spoils the
    slices it hits, not the run.
    """
    count = window_slices(window)
    slices = window.slices(count)
    seconds = window.wall_seconds / count

    def second_best(values: List[float], higher_is_better: bool) -> float:
        ranked = sorted(values, reverse=higher_is_better)
        return ranked[min(len(ranked), REPORTED_SLICE_RANK) - 1]

    def quantile(kind: str, pct: float) -> float:
        per_slice = [percentile(sorted(s[kind]), pct) * 1e3 for s in slices if s.get(kind)]
        return second_best(per_slice, higher_is_better=False)

    def rate(kind: str, units_per_op: int) -> float:
        per_slice = [len(s.get(kind, ())) * units_per_op / seconds for s in slices]
        return second_best(per_slice, higher_is_better=True)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ingest_records_per_s": (rate(INGEST, spec.ingest_chunks * spec.points_per_chunk), "records/s"),
        "ingest_batch_p50_ms": (quantile(INGEST, 50.0), "ms"),
        "ingest_batch_p95_ms": (quantile(INGEST, TAIL_PERCENTILE), "ms"),
        "stat_queries_per_s": (rate(STAT, 1), "queries/s"),
        "stat_p50_ms": (quantile(STAT, 50.0), "ms"),
        "stat_p95_ms": (quantile(STAT, TAIL_PERCENTILE), "ms"),
        "range_points_per_s": (rate(RANGE, sched.RANGE_CHUNKS * spec.points_per_chunk), "points/s"),
        "range_p50_ms": (quantile(RANGE, 50.0), "ms"),
        "range_p95_ms": (quantile(RANGE, TAIL_PERCENTILE), "ms"),
        "grant_p50_ms": (quantile(GRANT, 50.0), "ms"),
        "onboard_p50_ms": (quantile(ONBOARD, 50.0), "ms"),
        "stored_bytes_per_record": (stored_bytes_per_record, "bytes"),
        "peak_rss_mb": (window.peak_rss_mib, "MiB"),
    }
    return metrics, {kind: len(window.latencies(kind)) for kind in sched.OP_KINDS}
