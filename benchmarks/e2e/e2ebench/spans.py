"""The benchmark's own span log: record at layer boundaries, attribute after.

Spans are recorded *from outside* the system under test — by the proxies in
:mod:`e2ebench.proxies`, around calls into each ``repro`` module's public
functions — kept in memory, and only analysed (and written out) after the
measured window.  The traced run keeps exactly one logical operation in
flight, so every span recorded while ``run_op`` is running belongs to
that operation whatever thread recorded it, and nesting can be recovered
from the intervals alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from e2ebench.stats import union_length

#: Call depth of each layer boundary: a span's parent is the tightest
#: enclosing span of a strictly shallower layer.
LAYER_DEPTH = {
    "client": 0,
    "net": 1,
    "server": 2,
    "storage.cluster": 3,
    "storage.remote": 4,
    "storage.node": 5,
}

#: Spans written to the trace file (the in-memory log is never truncated).
TRACE_FILE_SPAN_LIMIT = 60_000


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    op_id: int
    #: Storage-node name on the two per-replica layers, so a node-side span
    #: is never adopted by a sibling replica's overlapping remote span.
    tag: Optional[str] = None
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Append-only span sink shared by every proxy of one traced deployment."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(kind, root span index)`` per operation, indexed by op id.
        self.ops: List[Tuple[str, int]] = []
        self.enabled = False
        self._op_id = -1

    def timed(
        self, name: str, layer: str, tag: Optional[str], call: Callable[..., Any], *args: Any
    ) -> Any:
        """Run ``call(*args)`` inside a span (a plain call while disabled)."""
        if not self.enabled:
            return call(*args)
        op_id = self._op_id
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            # list.append is atomic under the GIL; server worker threads and
            # the client thread share the log without a lock.
            self.spans.append(Span(name, layer, start, time.perf_counter(), op_id, tag))

    def run_op(self, kind: str, call: Callable[[], Any]) -> Any:
        """One client-visible operation: the root (layer ``client``) span."""
        self._op_id = len(self.ops)
        self.ops.append((kind, -1))
        op_id = self._op_id
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.spans.append(Span(kind, "client", start, time.perf_counter(), op_id))
            self.ops[op_id] = (kind, len(self.spans) - 1)


def assign_parents(spans: List[Span]) -> None:
    """Recover the span tree of every operation from intervals and layers."""
    by_op: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        by_op.setdefault(span.op_id, []).append(index)
    for indices in by_op.values():
        for child_index in indices:
            child = spans[child_index]
            best: Optional[int] = None
            for candidate_index in indices:
                candidate = spans[candidate_index]
                if candidate_index == child_index:
                    continue
                if LAYER_DEPTH[candidate.layer] >= LAYER_DEPTH[child.layer]:
                    continue
                if candidate.start > child.start or candidate.end < child.end:
                    continue
                if child.tag and candidate.tag and child.tag != candidate.tag:
                    continue
                if best is None or candidate.duration < spans[best].duration:
                    best = candidate_index
            child.parent = best


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - union_length(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def exclusive_by_layer(spans: Iterable[Span]) -> Dict[str, float]:
    """Wall time of one operation owned by each layer, parallelism flattened.

    An instant belongs to the deepest layer with a span open at it, so
    replicas written in parallel count once and the layers of a properly
    nested operation sum to its end-to-end span exactly.
    """
    intervals: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        intervals.setdefault(LAYER_DEPTH[span.layer], []).append((span.start, span.end))
    depth_to_layer = {depth: layer for layer, depth in LAYER_DEPTH.items()}
    owned: Dict[str, float] = {}
    deeper: List[Tuple[float, float]] = []
    covered_below = 0.0
    for depth in sorted(intervals, reverse=True):
        deeper.extend(intervals[depth])
        covered = union_length(deeper)
        owned[depth_to_layer[depth]] = covered - covered_below
        covered_below = covered
    return owned


@dataclass
class OpLedger:
    """One op kind's time, summed over the traced window."""

    ops: int
    end_to_end: float
    #: Wall time owned by each layer (see :func:`exclusive_by_layer`).
    by_layer: Dict[str, float]
    #: Per-span self time (duration minus the union of its children) by name:
    #: the cost of one call, parallel siblings each counted in full.
    self_by_name: Dict[str, float]
    span_counts: Dict[str, int]


def build_ledgers(log: SpanLog) -> Dict[str, OpLedger]:
    """One :class:`OpLedger` per op kind from a finished traced run."""
    assign_parents(log.spans)
    own = self_times(log.spans)
    ledgers: Dict[str, OpLedger] = {}
    per_op: Dict[int, List[Span]] = {}
    for span, self_time in zip(log.spans, own):
        if not 0 <= span.op_id < len(log.ops) or log.ops[span.op_id][1] < 0:
            continue
        per_op.setdefault(span.op_id, []).append(span)
        ledger = ledgers.setdefault(log.ops[span.op_id][0], OpLedger(0, 0.0, {}, {}, {}))
        ledger.self_by_name[span.name] = ledger.self_by_name.get(span.name, 0.0) + self_time
        ledger.span_counts[span.name] = ledger.span_counts.get(span.name, 0) + 1
    for op_id, spans in per_op.items():
        kind, root = log.ops[op_id]
        ledger = ledgers[kind]
        ledger.ops += 1
        ledger.end_to_end += log.spans[root].duration
        for layer, seconds in exclusive_by_layer(spans).items():
            ledger.by_layer[layer] = ledger.by_layer.get(layer, 0.0) + seconds
    return ledgers


def write_trace(path: str, log: SpanLog, header: Dict[str, Any]) -> None:
    """Dump the span log as JSON (times in microseconds from the first span)."""
    spans: Iterable[Span] = log.spans[:TRACE_FILE_SPAN_LIMIT]
    origin = log.spans[0].start if log.spans else 0.0
    payload = dict(header)
    payload["spans_recorded"] = len(log.spans)
    payload["spans_written"] = min(len(log.spans), TRACE_FILE_SPAN_LIMIT)
    payload["spans"] = [
        {
            "name": span.name,
            "layer": span.layer,
            "start_us": round((span.start - origin) * 1e6, 1),
            "end_us": round((span.end - origin) * 1e6, 1),
            "parent": span.parent,
            "op_id": span.op_id,
            "op": log.ops[span.op_id][0] if 0 <= span.op_id < len(log.ops) else None,
            "node": span.tag,
        }
        for span in spans
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
