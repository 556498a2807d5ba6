"""Workload definitions and the seed-determined operation schedule.

A workload is a fixed *cycle* of operations (its traffic mix) repeated by
each client thread until the measured window closes.  Which stream, which
window range and which principal every operation touches is a pure function
of ``(workload, seed, thread)`` — the deployment never sees the seed, only
the generated inputs.

Every workload exercises all five operation classes, so every end-to-end
metric exists on every workload; they differ in which class dominates, in
the working set relative to the index cache, in payload size, and in how
many callers are in flight.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.workloads.mhealth import CHUNK_INTERVAL_MS, MHealthWorkload

#: Chunks fetched by one ``get_range`` (the issue's "8 chunks").
RANGE_CHUNKS = 8
#: Resolution (in chunks) of the restricted grants.
RESTRICTED_CHUNKS = 8
#: Distinct value patterns per stream; window ``w`` carries pattern ``w % 16``.
TEMPLATE_CHUNKS = 16
#: ``get_range`` start windows per stream (expected answers are precomputed).
RANGE_STARTS_PER_STREAM = 4
#: Full-resolution grants reach this many windows past the preload, so
#: consumers can query data ingested during the window.
GRANT_MARGIN_WINDOWS = 1 << 14
#: Principals per caller thread: every grant op shares with a fresh one (the
#: pool only wraps on a run with more grants than this).
PRINCIPALS_PER_THREAD = 96

INGEST, STAT, RANGE, GRANT, ONBOARD = "ingest", "stat", "range", "grant", "onboard"
OP_KINDS = (INGEST, STAT, RANGE, GRANT, ONBOARD)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    streams: int
    preload_windows: int
    points_per_chunk: int
    index_cache_bytes: int
    client_threads: int
    #: Chunks completed by one ``insert_records`` call.
    ingest_chunks: int
    #: Stat queries go through pre-onboarded ``TimeCryptConsumer`` s (half of
    #: them resolution-restricted) instead of the owner's full key tree.
    consumer_queries: bool
    #: One cycle of the mix: ``(kind, repeat)`` groups, run in order.
    cycle: Tuple[Tuple[str, int], ...]

    def cycle_ops(self) -> List[str]:
        return [kind for kind, repeat in self.cycle for _ in range(repeat)]


def _repeat(groups: Sequence[Tuple[str, int]], times: int) -> Tuple[Tuple[str, int], ...]:
    return tuple(groups) * times


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="ingest_bulk",
            why=(
                "Fig. 7 write path: 8-chunk (4000-record) insert_records batches dominate; digest, "
                "compress, HEAC, AEAD and replicated storage writes do the work, reads are a trickle"
            ),
            streams=24,
            preload_windows=16,
            points_per_chunk=500,
            index_cache_bytes=64 * 1024 * 1024,
            client_threads=1,
            ingest_chunks=8,
            consumer_queries=False,
            cycle=_repeat([(INGEST, 2), (STAT, 2), (RANGE, 1)], 8) + _repeat([(GRANT, 1), (ONBOARD, 1)], 2),
        ),
        WorkloadSpec(
            name="stat_hot",
            why=(
                "Fig. 5 range-length sweep on a cache-resident index: owner stat queries, length "
                "log-uniform 1..1024 windows; client key derivation vs one round trip vs index walk"
            ),
            streams=6,
            preload_windows=1024,
            points_per_chunk=10,
            index_cache_bytes=64 * 1024 * 1024,
            client_threads=1,
            ingest_chunks=1,
            consumer_queries=False,
            cycle=_repeat([(STAT, 16), (INGEST, 1), (RANGE, 1)], 4) + ((GRANT, 1), (ONBOARD, 1)),
        ),
        WorkloadSpec(
            name="read_cold",
            why=(
                "small-cache arm: 32 KiB index cache under a working set far larger, so stat "
                "queries pay storage round trips, and 8-chunk get_range reads move big frames"
            ),
            streams=6,
            preload_windows=1024,
            points_per_chunk=50,
            index_cache_bytes=32 * 1024,
            client_threads=1,
            ingest_chunks=1,
            consumer_queries=False,
            cycle=_repeat([(STAT, 6), (RANGE, 2), (INGEST, 2)], 4) + ((GRANT, 1), (ONBOARD, 1)),
        ),
        WorkloadSpec(
            name="mixed_live",
            why=(
                "Fig. 7 mix with access control in the loop: 2 closed-loop callers, each 1 single-"
                "chunk insert then 4 consumer stat queries (half resolution-restricted), plus grants"
            ),
            streams=12,
            preload_windows=40,
            points_per_chunk=500,
            index_cache_bytes=64 * 1024 * 1024,
            client_threads=2,
            ingest_chunks=1,
            consumer_queries=True,
            cycle=_repeat([(INGEST, 1), (STAT, 4)], 8) + ((RANGE, 4), (GRANT, 1), (ONBOARD, 1)),
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One scheduled operation.  ``first``/``last`` are window indices."""

    kind: str
    stream: int
    first: int = 0
    last: int = 0
    #: Grant / onboard: index into the thread's principal pool (``stream`` is
    #: unused: both of the thread's grant streams take part).
    principal: int = 0
    #: Stat: the query goes through a resolution-restricted consumer.
    restricted: bool = False


def stream_uuids(spec: WorkloadSpec, seed: int, shard_names: Sequence[str], owner_of) -> List[str]:
    """Seed-determined stream ids, alternating between the engine shards.

    Ownership hashes the uuid, so a plain counter would give a different
    shard balance for every seed and the metrics would measure the draw.
    Ids are drawn until stream ``i`` lands on shard ``i % len(shard_names)``.
    """
    uuids: List[str] = []
    for index in range(spec.streams):
        wanted = shard_names[index % len(shard_names)]
        for attempt in itertools.count():
            candidate = f"{spec.name}-{seed:08x}-{index:03d}-{attempt:02d}"
            if owner_of(candidate) == wanted:
                uuids.append(candidate)
                break
    return uuids


def stream_metrics(spec: WorkloadSpec) -> List[str]:
    """The mHealth metric each stream carries (the 12 metrics, cycled)."""
    names = MHealthWorkload.metric_names()
    return [names[index % len(names)] for index in range(spec.streams)]


def value_templates(spec: WorkloadSpec, seed: int) -> List[List[List[float]]]:
    """``templates[stream][pattern]``: one chunk's worth of measurements."""
    generator = MHealthWorkload(seed=seed)
    templates: List[List[List[float]]] = []
    points = spec.points_per_chunk
    seconds = -(-TEMPLATE_CHUNKS * points // generator.sample_hz)
    for metric in stream_metrics(spec):
        values = [value for _t, value in generator.records(metric, seconds)]
        templates.append([values[n * points : (n + 1) * points] for n in range(TEMPLATE_CHUNKS)])
    return templates


def records_for(
    spec: WorkloadSpec, templates: List[List[float]], first: int, last: int
) -> List[Tuple[int, float]]:
    """The records of windows ``[first, last)`` of one stream."""
    step = CHUNK_INTERVAL_MS // spec.points_per_chunk
    values = itertools.chain.from_iterable(
        templates[window % TEMPLATE_CHUNKS] for window in range(first, last)
    )
    return list(zip(range(first * CHUNK_INTERVAL_MS, last * CHUNK_INTERVAL_MS, step), values))


def thread_streams(spec: WorkloadSpec, thread: int) -> List[int]:
    return list(range(thread, spec.streams, spec.client_threads))


def grant_streams(spec: WorkloadSpec, thread: int) -> Tuple[int, int]:
    """The two streams a caller shares: ``(full-resolution, 8-chunk-restricted)``.

    One ``grant`` op is two ``grant_access`` calls — one per stream, same
    principal — and the ``onboard`` after it is that principal's
    ``warm_up`` of both.  Granting only one kind per op would make the
    latency distribution bimodal (a restricted grant seals an envelope per
    8 windows) and its median a coin toss.
    """
    full, restricted = thread_streams(spec, thread)[:2]
    return full, restricted


def is_restricted(spec: WorkloadSpec, stream: int) -> bool:
    """Streams at odd positions of their thread's list take restricted grants."""
    return (stream // spec.client_threads) % 2 == 1


def restricted_windows(spec: WorkloadSpec) -> int:
    """Windows a restricted grant covers: the preload, aligned down."""
    return (spec.preload_windows - 1) // RESTRICTED_CHUNKS * RESTRICTED_CHUNKS


def range_starts(spec: WorkloadSpec, seed: int) -> List[List[int]]:
    """``starts[stream]``: the start windows ``get_range`` draws from."""
    rng = random.Random(f"{spec.name}/{seed}/range-starts")
    limit = spec.preload_windows - 1 - RANGE_CHUNKS
    return [
        sorted(rng.sample(range(limit + 1), min(RANGE_STARTS_PER_STREAM, limit + 1)))
        for _ in range(spec.streams)
    ]


def log_uniform_range(rng: random.Random, limit: int) -> Tuple[int, int]:
    """``[first, last)`` within ``[0, limit)``: length log-uniform in 1..limit, start uniform."""
    length = min(limit, int(math.exp(rng.uniform(0.0, math.log(limit + 1)))))
    first = rng.randrange(0, limit - length + 1)
    return first, first + length


def schedule(spec: WorkloadSpec, seed: int, thread: int = 0) -> Iterator[Op]:
    """The endless op sequence of one client thread."""
    rng = random.Random(f"{spec.name}/{seed}/{thread}")
    streams = thread_streams(spec, thread)
    granting = grant_streams(spec, thread)
    starts = range_starts(spec, seed)
    # Preload leaves window ``preload_windows - 1`` open in the client-side
    # builder: that many windows minus one are acknowledged and queryable.
    head = {stream: spec.preload_windows - 1 for stream in streams}
    cycle = spec.cycle_ops()
    ingest_turn = 0
    grants_issued = 0
    while True:
        for kind in cycle:
            if kind == INGEST:
                stream = streams[ingest_turn % len(streams)]
                ingest_turn += 1
                first = head[stream] + 1
                head[stream] += spec.ingest_chunks
                yield Op(INGEST, stream, first, first + spec.ingest_chunks)
            elif kind == STAT:
                stream = rng.choice(streams)
                restricted = spec.consumer_queries and is_restricted(spec, stream)
                unit = RESTRICTED_CHUNKS if restricted else 1
                limit = (restricted_windows(spec) if restricted else head[stream]) // unit
                first, last = log_uniform_range(rng, limit)
                yield Op(STAT, stream, first * unit, last * unit, restricted=restricted)
            elif kind == RANGE:
                stream = rng.choice(streams)
                first = rng.choice(starts[stream])
                yield Op(RANGE, stream, first, first + RANGE_CHUNKS)
            elif kind == GRANT:
                yield Op(GRANT, granting[0], principal=grants_issued % PRINCIPALS_PER_THREAD)
                grants_issued += 1
            else:
                # Onboards the principal the previous grant op shared with.
                yield Op(ONBOARD, granting[0], principal=(grants_issued - 1) % PRINCIPALS_PER_THREAD)
