"""Range-query planning over the k-ary aggregation tree.

A statistical query over chunk windows ``[start, end)`` should touch as few
index nodes as possible: whole aligned subtrees are answered by a single
pre-aggregated node, and only the ragged edges of the range require drilling
down towards the leaves.

The additive cover sums aligned blocks that lie inside the range; it touches
at most ``2·(k−1)·log_k(n)`` nodes (the paper's worst-case bound).  When the
digest cipher can subtract (HEAC is additive mod 2^64) a block may instead be
taken whole *minus* the pieces of it outside the range: at a block the range
only partly covers, keeping ``k − 2`` children and drilling into the two
edge children costs more than taking the block once, subtracting the few
children outside the range, and drilling into the complements of the edge
children.  :func:`plan_range` chooses, level by level, whichever of the two
is smaller (a *signed cover*), so a signed plan never has more nodes than
the additive one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import List, NamedTuple, Optional, Tuple

from repro.exceptions import QueryError


class NodeRef(NamedTuple):
    """A reference to one index node in a query plan.

    ``[window_start, window_end)`` is the node's block clipped at the stream
    head: exactly the interval the stored node carries.
    """

    level: int
    position: int
    window_start: int
    window_end: int


@dataclass(frozen=True)
class RangePlan:
    """The nodes whose digests, ``Σ nodes − Σ subtracted``, answer ``[start, end)``."""

    window_start: int
    window_end: int
    nodes: Tuple[NodeRef, ...]
    subtracted: Tuple[NodeRef, ...] = ()

    @property
    def num_nodes(self) -> int:
        return len(self.nodes) + len(self.subtracted)

    @property
    def levels_touched(self) -> Tuple[int, ...]:
        return tuple(sorted({node.level for node in self.nodes + self.subtracted}))


def plan_range(
    start: int,
    end: int,
    fanout: int,
    max_level: int,
    num_windows: Optional[int] = None,
    subtract: bool = False,
) -> RangePlan:
    """The fewest-node cover of the window interval ``[start, end)``.

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
    num_windows:
        The stream head.  A node's interval is its block clipped here, so a
        signed plan may take the partial right-most node of a level whole.
    subtract:
        Whether the combiner can subtract.  Without it the plan is the
        additive cover of aligned blocks inside the range, in window order.

    The plan recurses from the lowest block holding the range.  At a block
    the range partly covers, the additive option sums the children inside it
    plus the covers of the two partial edge children; the subtractive option
    takes the block, subtracts every child outside the range, and subtracts
    the covers of the edge children's outside pieces — a prefix's complement
    is a suffix and vice versa, and signs flip at each level.  The costs are
    computed bottom-up along the paths of ``start`` and ``end`` (a linear
    chain of prefix / suffix states per level), ties go to the additive
    option, and the chosen nodes are emitted top-down.
    """
    if fanout < 2:
        raise QueryError("index fanout must be at least 2")
    if end < start:
        raise QueryError(f"invalid window range [{start}, {end})")
    if start == end:
        return RangePlan(window_start=start, window_end=end, nodes=())
    if subtract and (num_windows is None or num_windows < end):
        raise QueryError(f"a signed cover of [{start}, {end}) needs the stream head")
    head = num_windows if subtract else None
    k = fanout
    last = end - 1
    # The lowest level whose block holds the range.  Past max_level the top
    # is a virtual root over the top-level blocks, which cannot be taken.
    sizes = [1]
    top = 0
    while start // sizes[top] != last // sizes[top] and top < max_level:
        top += 1
        sizes.append(sizes[-1] * k)
    virtual = start // sizes[top] != last // sizes[top]
    if virtual:
        top += 1
        sizes.append(sizes[-1] * k)

    def clipped_end(level: int, position: int) -> int:
        block_end = (position + 1) * sizes[level]
        return block_end if head is None or block_end < head else head

    def children_of(level: int, position: int) -> int:
        """How many children the (clipped) block has."""
        return -(-(clipped_end(level, position) - position * sizes[level]) // sizes[level - 1])

    def refs(level: int, first: int, stop: int) -> List[NodeRef]:
        """Nodes ``first .. stop - 1`` of a level, the last clipped at the head."""
        size = sizes[level]
        nodes = list(
            map(
                _new_ref,
                zip(
                    repeat(level),
                    range(first, stop),
                    range(first * size, stop * size, size),
                    range((first + 1) * size, (stop + 1) * size, size),
                ),
            )
        )
        if nodes and head is not None and stop * size > head:
            nodes[-1] = NodeRef(level, stop - 1, (stop - 1) * size, head)
        return nodes

    if not virtual:
        position = start // sizes[top]
        if start == position * sizes[top] and end == clipped_end(top, position):
            return RangePlan(start, end, (NodeRef(top, position, start, end),))
    child = top - 1  # the level of the two edge children

    # Left path: at each level, the cost of the suffix [start, block end) of
    # start's block and of its complement [block start, start).
    aligned_left = 0
    while aligned_left < child and start % sizes[aligned_left + 1] == 0:
        aligned_left += 1
    suffix, prefix_out = 1, 0
    left_add: List[Tuple[bool, bool]] = []  # levels aligned_left + 1 .. child
    for level in range(aligned_left + 1, child + 1):
        before = (start // sizes[level - 1]) % k
        after = k - 1 - before
        suffix_add, out_add = suffix + after, before + prefix_out
        if subtract:
            suffix_sub, out_sub = 1 + before + prefix_out, 1 + after + suffix
        else:
            suffix_sub, out_sub = suffix_add + 1, out_add + 1
        left_add.append((suffix_add <= suffix_sub, out_add <= out_sub))
        suffix, prefix_out = min(suffix_add, suffix_sub), min(out_add, out_sub)

    # Right path: the prefix [block start, end) of the block holding end - 1
    # and its complement [end, clipped block end).
    aligned_right = 0
    while aligned_right < child and end == clipped_end(aligned_right + 1, last // sizes[aligned_right + 1]):
        aligned_right += 1
    prefix, suffix_out = 1, 0
    right_add: List[Tuple[bool, bool]] = []  # levels aligned_right + 1 .. child
    right_children: List[int] = []
    for level in range(aligned_right + 1, child + 1):
        children = children_of(level, last // sizes[level])
        before = (last // sizes[level - 1]) % k
        after = children - 1 - before
        prefix_add, out_add = before + prefix, suffix_out + after
        if subtract:
            prefix_sub, out_sub = 1 + after + suffix_out, 1 + before + prefix
        else:
            prefix_sub, out_sub = prefix_add + 1, out_add + 1
        right_add.append((prefix_add <= prefix_sub, out_add <= out_sub))
        right_children.append(children)
        prefix, suffix_out = min(prefix_add, prefix_sub), min(out_add, out_sub)

    # The top: the edge covers plus the children between them, or the block
    # minus everything of it outside the range.
    first_child = start // sizes[child]
    last_child = last // sizes[child]
    take_top = False
    if subtract and not virtual:
        base = (start // sizes[top]) * k
        stop = base + children_of(top, start // sizes[top])
        additive = suffix + (last_child - first_child - 1) + prefix
        signed = 1 + (first_child - base) + prefix_out + (stop - 1 - last_child) + suffix_out
        take_top = signed < additive

    plus: List[NodeRef] = []
    minus: List[NodeRef] = []
    # Each path is emitted top-down as (sign, nodes) groups, tracking whether
    # the current piece is the in-range one or its complement.
    groups: List[Tuple[int, List[NodeRef]]] = []
    if take_top:
        groups.append((1, refs(top, start // sizes[top], start // sizes[top] + 1)))
        groups.append((-1, refs(child, base, first_child) + refs(child, last_child + 1, stop)))
        in_range, sign = False, -1
    else:
        in_range, sign = True, 1

    # The left path's groups are reversed, so an additive plan is in window order.
    left: List[Tuple[int, List[NodeRef]]] = []
    state = in_range
    for level in range(child, aligned_left, -1):
        block = start // sizes[level]
        first, split = block * k, start // sizes[level - 1]
        inside, outside = (split + 1, first + k), (first, split)
        if not state:
            inside, outside = outside, inside
        if left_add[level - aligned_left - 1][0 if state else 1]:
            left.append((sign, refs(level - 1, *inside)))
        else:
            left.append((sign, refs(level, block, block + 1)))
            sign, state = -sign, not state
            left.append((sign, refs(level - 1, *outside)))
    if state:
        block = start // sizes[aligned_left]
        left.append((sign, refs(aligned_left, block, block + 1)))
    groups += reversed(left)

    if not take_top:
        groups.append((1, refs(child, first_child + 1, last_child)))

    state, sign = in_range, (-1 if take_top else 1)
    for level in range(child, aligned_right, -1):
        block = last // sizes[level]
        first, split = block * k, last // sizes[level - 1]
        inside = (first, split)
        outside = (split + 1, first + right_children[level - aligned_right - 1])
        if not state:
            inside, outside = outside, inside
        if right_add[level - aligned_right - 1][0 if state else 1]:
            groups.append((sign, refs(level - 1, *inside)))
        else:
            groups.append((sign, refs(level, block, block + 1)))
            sign, state = -sign, not state
            groups.append((sign, refs(level - 1, *outside)))
    if state:
        block = last // sizes[aligned_right]
        groups.append((sign, refs(aligned_right, block, block + 1)))
    for group_sign, nodes in groups:
        (plus if group_sign > 0 else minus).extend(nodes)
    return RangePlan(start, end, tuple(plus), tuple(minus))


_new_ref = partial(tuple.__new__, NodeRef)


def worst_case_nodes(fanout: int, num_windows: int) -> int:
    """The analytic worst-case plan size ``2·(k−1)·ceil(log_k n)`` (paper §6.1).

    An upper bound on both the additive and the signed cover.
    """
    if num_windows <= 1:
        return 1
    levels = 0
    capacity = 1
    while capacity < num_windows:
        capacity *= fanout
        levels += 1
    return 2 * (fanout - 1) * levels
