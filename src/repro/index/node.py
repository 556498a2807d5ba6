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

Signed fold
-----------

A combiner that can subtract (HEAC, its bare ring-integer form, the
plaintext baseline) also answers :meth:`DigestCombiner.signed_fold`:
``Σ added − Σ subtracted`` tagged with the queried range, which is what a
signed cover (:mod:`repro.index.query`) needs.  It reads cell values only.
What makes that safe is checked elsewhere: every vector entering the tree
covers one interval (:meth:`DigestCombiner.check_interval` on every appended
digest and every node decoded from storage), and the tree matches each
loaded node's interval exactly against the plan, whose signed intervals
tile the range.  A payload-only stream has zero-width digests; folding
those yields ``[]``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

from repro.crypto.heac import (
    MODULUS,
    HEACCiphertext,
    fold_signed,
    fold_vectors,
    signed_sum_columns,
    sum_columns,
    vector_interval,
)
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
    ``fold`` optionally sums many equal-width vectors at once (in order),
    ``check_interval`` optionally validates that a vector's cells cover a
    given window interval, and ``signed_fold`` optionally computes
    ``Σ added − Σ subtracted`` tagged with a window range; without them a
    fold is pairwise ``add``, cells are taken to carry no interval, and the
    combiner cannot subtract (query plans stay additive).
    """

    def __init__(
        self,
        add: Callable[[Cell, Cell], Cell],
        size_of: Callable[[Cell], int],
        fold: Optional[Callable[[Sequence[Sequence[Cell]]], List[Cell]]] = None,
        check_interval: Optional[Callable[[Sequence[Cell], int, int], None]] = None,
        signed_fold: Optional[
            Callable[[Sequence[Sequence[Cell]], Sequence[Sequence[Cell]], int, int], List[Cell]]
        ] = None,
    ) -> None:
        self._add = add
        self._size_of = size_of
        self._fold = fold
        self._check_interval = check_interval
        self._signed_fold = signed_fold

    def add(self, left: Cell, right: Cell) -> Cell:
        return self._add(left, right)

    def size_of(self, cell: Cell) -> int:
        return self._size_of(cell)

    @property
    def can_subtract(self) -> bool:
        return self._signed_fold is not None

    @staticmethod
    def _width(vectors: Sequence[Sequence[Cell]]) -> int:
        width = len(vectors[0])
        for vector in vectors:
            if len(vector) != width:
                raise IndexError_("cannot combine digest vectors of different widths")
        return width

    def fold(self, vectors: Sequence[Sequence[Cell]]) -> List[Cell]:
        """Component-wise sum of ``vectors`` (non-empty, equal widths), in order.

        Precondition: every vector already passed :meth:`check_interval` — its
        cells cover one window interval.  The fold checks that consecutive
        vectors are adjacent but not that the cells within one vector agree.
        """
        if not vectors:
            raise IndexError_("cannot fold an empty digest vector sequence")
        if self._width(vectors) == 0:
            return []
        if self._fold is not None:
            return self._fold(vectors)
        total = list(vectors[0])
        for vector in vectors[1:]:
            total = [self._add(a, b) for a, b in zip(total, vector)]
        return total

    def signed_fold(
        self,
        added: Sequence[Sequence[Cell]],
        subtracted: Sequence[Sequence[Cell]],
        window_start: int,
        window_end: int,
    ) -> List[Cell]:
        """``Σ added − Σ subtracted``, tagged ``[window_start, window_end)``.

        Precondition: the vectors' signed intervals tile exactly that range
        (the caller checked each one); only cell values are read.
        """
        if self._signed_fold is None:
            raise IndexError_("this digest cipher cannot subtract")
        if not added:
            raise IndexError_("cannot fold an empty digest vector sequence")
        if self._width([*added, *subtracted]) == 0:
            return []
        return self._signed_fold(added, subtracted, window_start, window_end)

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
        signed_fold=fold_signed,
    )


def _ring_signed_fold(
    added: Sequence[Sequence[int]], subtracted: Sequence[Sequence[int]], _start: int, _end: int
) -> List[int]:
    return [total % MODULUS for total in signed_sum_columns(added, subtracted)]


def ring_combiner() -> DigestCombiner[int]:
    """Combiner for HEAC cells held as bare ring integers (8-byte cells).

    The interval lives on the node, not on each cell, so there is nothing
    per cell to check; sums and differences are taken mod 2^64.
    """
    return DigestCombiner(
        add=lambda left, right: (left + right) % MODULUS,
        size_of=lambda _cell: 8,
        fold=lambda vectors: [total % MODULUS for total in sum_columns(vectors)],
        signed_fold=_ring_signed_fold,
    )


def plaintext_combiner() -> DigestCombiner[int]:
    """Combiner for the plaintext baseline (plain integer addition, 8-byte cells)."""
    return DigestCombiner(
        add=operator.add,
        size_of=lambda _cell: 8,
        fold=sum_columns,
        signed_fold=lambda added, subtracted, _start, _end: signed_sum_columns(added, subtracted),
    )
