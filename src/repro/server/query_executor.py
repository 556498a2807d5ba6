"""Statistical query execution over encrypted indices (paper §4.5).

The server answers ``GetStatRange`` by covering the requested window range
with pre-aggregated index nodes and summing their HEAC digest vectors — it
never sees a plaintext.  Results carry the window interval they aggregate so
the client knows which outer keys decrypt them.

Two result shapes exist:

* :class:`StatQueryResult` — one stream, one contiguous window range.
* :class:`MultiStreamAggregate` — an inter-stream query: the component-wise
  sum over several streams' aggregates.  Decrypting it requires the outer
  keys of *every* involved stream, which is exactly the paper's guarantee
  that a principal must be authorized for all streams involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.crypto.heac import MODULUS, HEACCiphertext, sum_columns
from repro.exceptions import QueryError


@dataclass(frozen=True)
class StatQueryResult:
    """The encrypted aggregate over one stream's window interval."""

    stream_uuid: str
    window_start: int
    window_end: int
    cells: Tuple[HEACCiphertext, ...]
    component_names: Tuple[str, ...]
    num_index_nodes: int

    @property
    def num_windows(self) -> int:
        return self.window_end - self.window_start

    def cell(self, component_name: str) -> HEACCiphertext:
        try:
            index = self.component_names.index(component_name)
        except ValueError:
            raise QueryError(f"result carries no component '{component_name}'") from None
        return self.cells[index]


@dataclass(frozen=True)
class MultiStreamAggregate:
    """Component-wise sum of aggregates from several streams.

    ``per_stream_intervals`` records, for every stream, the window interval
    its contribution covers; a client must be able to derive the outer keys
    for every listed interval to remove all pads.
    """

    values: Tuple[int, ...]
    component_names: Tuple[str, ...]
    per_stream_intervals: Tuple[Tuple[str, int, int], ...]

    @staticmethod
    def combine(results: Sequence[StatQueryResult]) -> "MultiStreamAggregate":
        if not results:
            raise QueryError("cannot combine an empty result sequence")
        names = results[0].component_names
        for result in results:
            if result.component_names != names:
                raise QueryError("inter-stream queries require identical digest layouts")
        totals = sum_columns([cell.value for cell in result.cells] for result in results)
        intervals = tuple(
            (result.stream_uuid, result.window_start, result.window_end) for result in results
        )
        return MultiStreamAggregate(
            values=tuple(total % MODULUS for total in totals),
            component_names=names,
            per_stream_intervals=intervals,
        )


@dataclass
class QueryStatistics:
    """Server-side counters describing query execution (used by benchmarks).

    ``index_nodes_read`` counts plan nodes (the paper's O(log n) bound);
    ``index_store_round_trips`` counts batched backend fetches those nodes
    cost — at most one ``multi_get`` per query against a single-backend
    store (zero when the node cache holds the whole cover), regardless of
    how many nodes the plan touches.
    """

    queries: int = 0
    index_nodes_read: int = 0
    index_store_round_trips: int = 0
    chunks_read: int = 0

    def record_stat_query(self, num_nodes: int, store_round_trips: int = 0) -> None:
        self.queries += 1
        self.index_nodes_read += num_nodes
        self.index_store_round_trips += store_round_trips

    def record_range_read(self, num_chunks: int) -> None:
        self.queries += 1
        self.chunks_read += num_chunks

    def reset(self) -> None:
        self.queries = 0
        self.index_nodes_read = 0
        self.index_store_round_trips = 0
        self.chunks_read = 0
