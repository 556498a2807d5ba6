"""Index nodes: per-level aggregated digest vectors.

The aggregation index is a k-ary tree over chunk windows.  A node at level
``L`` and position ``p`` summarises the window interval
``[p * k^L, (p+1) * k^L)``: its digest is the component-wise sum of its
children's digests.  Because the digests are HEAC ciphertexts (or Paillier /
EC-ElGamal ciphertexts in the strawman configurations) the server can compute
these sums without ever seeing a plaintext.

The node is cipher-agnostic: it stores opaque "cells" plus the window
interval, and the tree combines cells through a pluggable
:class:`DigestCombiner`.

Column fold
-----------

The tree never adds two vectors cell by cell; it hands the combiner *all*
the vectors of one aggregation at once (:meth:`DigestCombiner.fold`).  For
HEAC and the plaintext baseline that is one integer ``sum`` per digest
component over the transposed rows — the paper's "one 64-bit modular
addition per add" without an object per intermediate cell; only the
``width`` result cells are built.  A combiner constructed from just ``add``
and ``size_of`` (the Paillier / EC-ElGamal strawmen) folds by left-to-right
pairwise ``add``.

A fold trusts each vector to cover one window interval and only checks that
consecutive vectors are adjacent — that is a precondition of
:meth:`DigestCombiner.fold`, not something it verifies.  The per-cell
interval check runs once, where a vector enters the tree
(:meth:`DigestCombiner.check_interval`, called on every appended digest and
every node decoded from storage); nodes are immutable afterwards.  A
payload-only stream has zero-width digests; folding those yields ``[]``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

from repro.crypto.heac import HEACCiphertext, fold_vectors, sum_columns, vector_interval
from repro.exceptions import IndexError_

Cell = TypeVar("Cell")


@dataclass(frozen=True)
class IndexNode(Generic[Cell]):
    """One node of the aggregation tree.

    Attributes
    ----------
    level:
        0 for leaves (one chunk window per node), increasing towards the root.
    position:
        Index of the node within its level.
    window_start / window_end:
        Half-open chunk-window interval the node summarises.  For partially
        filled nodes at the head of the stream the interval reflects only the
        windows actually ingested so far.
    cells:
        The aggregated digest vector (one opaque cell per digest component).
    """

    level: int
    position: int
    window_start: int
    window_end: int
    cells: tuple

    def __post_init__(self) -> None:
        if self.level < 0 or self.position < 0:
            raise IndexError_("index node coordinates must be non-negative")
        if self.window_end <= self.window_start:
            raise IndexError_("index node must cover a non-empty window interval")

    @property
    def num_windows(self) -> int:
        return self.window_end - self.window_start

    @property
    def width(self) -> int:
        return len(self.cells)


class DigestCombiner(Generic[Cell]):
    """How digest cells are added together and how large they are.

    ``add`` must be associative; ``size_of`` reports the serialized size of a
    cell so index-size accounting (Table 2) works uniformly across ciphers.
    ``fold`` optionally sums many equal-width vectors at once (in order) and
    ``check_interval`` optionally validates that a vector's cells cover a
    given window interval; without them a fold is pairwise ``add`` and cells
    are taken to carry no interval.
    """

    def __init__(
        self,
        add: Callable[[Cell, Cell], Cell],
        size_of: Callable[[Cell], int],
        fold: Optional[Callable[[Sequence[Sequence[Cell]]], List[Cell]]] = None,
        check_interval: Optional[Callable[[Sequence[Cell], int, int], None]] = None,
    ) -> None:
        self._add = add
        self._size_of = size_of
        self._fold = fold
        self._check_interval = check_interval

    def add(self, left: Cell, right: Cell) -> Cell:
        return self._add(left, right)

    def size_of(self, cell: Cell) -> int:
        return self._size_of(cell)

    def fold(self, vectors: Sequence[Sequence[Cell]]) -> List[Cell]:
        """Component-wise sum of ``vectors`` (non-empty, equal widths), in order.

        Precondition: every vector already passed :meth:`check_interval` — its
        cells cover one window interval.  The fold checks that consecutive
        vectors are adjacent but not that the cells within one vector agree.
        """
        if not vectors:
            raise IndexError_("cannot fold an empty digest vector sequence")
        width = len(vectors[0])
        for vector in vectors:
            if len(vector) != width:
                raise IndexError_("cannot combine digest vectors of different widths")
        if width == 0:
            return []
        if self._fold is not None:
            return self._fold(vectors)
        total = list(vectors[0])
        for vector in vectors[1:]:
            total = [self._add(a, b) for a, b in zip(total, vector)]
        return total

    def check_interval(self, cells: Sequence[Cell], window_start: int, window_end: int) -> None:
        """Reject a vector whose cells do not all cover ``[window_start, window_end)``."""
        if self._check_interval is not None:
            self._check_interval(cells, window_start, window_end)

    def vector_size(self, cells: Sequence[Cell]) -> int:
        return sum(self._size_of(cell) for cell in cells)


def _check_heac_interval(
    cells: Sequence[HEACCiphertext], window_start: int, window_end: int
) -> None:
    if not cells:
        return
    try:
        interval = vector_interval(cells)
    except ValueError as exc:
        raise IndexError_(str(exc)) from None
    if interval != (window_start, window_end):
        raise IndexError_(
            f"digest cells cover [{interval[0]}, {interval[1]}), "
            f"expected [{window_start}, {window_end})"
        )


def heac_combiner() -> DigestCombiner[HEACCiphertext]:
    """Combiner for HEAC digest cells (modular addition, 8-byte cells)."""
    return DigestCombiner(
        add=operator.add,
        size_of=lambda _cell: 8,
        fold=fold_vectors,
        check_interval=_check_heac_interval,
    )


def plaintext_combiner() -> DigestCombiner[int]:
    """Combiner for the plaintext baseline (plain integer addition, 8-byte cells)."""
    return DigestCombiner(add=operator.add, size_of=lambda _cell: 8, fold=sum_columns)
