"""Range-query planning over the k-ary aggregation tree.

A statistical query over chunk windows ``[start, end)`` should touch as few
index nodes as possible: whole aligned subtrees are answered by a single
pre-aggregated node, and only the ragged edges of the range require drilling
down towards the leaves.  The cover produced here touches at most
``2·(k−1)·log_k(n)`` nodes (the paper's worst-case bound) and is computed
greedily from the largest aligned blocks downward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.exceptions import QueryError


@dataclass(frozen=True, slots=True)
class NodeRef:
    """A reference to one index node in a query plan."""

    level: int
    position: int
    window_start: int
    window_end: int


@dataclass(frozen=True)
class RangePlan:
    """The set of nodes whose digests sum to the answer for ``[start, end)``."""

    window_start: int
    window_end: int
    nodes: Tuple[NodeRef, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def levels_touched(self) -> Tuple[int, ...]:
        return tuple(sorted({node.level for node in self.nodes}))


def plan_range(start: int, end: int, fanout: int, max_level: int) -> RangePlan:
    """Greedy aligned-block cover of the window interval ``[start, end)``.

    Parameters
    ----------
    start, end:
        Chunk-window interval (half open).  ``end`` must not exceed the number
        of ingested windows; the caller clips it.
    fanout:
        k of the k-ary tree.
    max_level:
        Highest tree level available (the root's level for the current stream
        length); the plan never references nodes above it.
    """
    if fanout < 2:
        raise QueryError("index fanout must be at least 2")
    if end < start:
        raise QueryError(f"invalid window range [{start}, {end})")
    sizes = [fanout ** level for level in range(max_level + 1)]
    nodes: List[NodeRef] = []
    position = start
    while position < end:
        # The largest level whose block is aligned at `position` and fits in the range.
        level = 0
        while level < max_level:
            size_up = sizes[level + 1]
            if position % size_up == 0 and position + size_up <= end:
                level += 1
            else:
                break
        size = sizes[level]
        nodes.append(NodeRef(level, position // size, position, position + size))
        position += size
    return RangePlan(window_start=start, window_end=end, nodes=tuple(nodes))


def worst_case_nodes(fanout: int, num_windows: int) -> int:
    """The analytic worst-case plan size ``2·(k−1)·ceil(log_k n)`` (paper §6.1)."""
    if num_windows <= 1:
        return 1
    levels = 0
    capacity = 1
    while capacity < num_windows:
        capacity *= fanout
        levels += 1
    return 2 * (fanout - 1) * levels
