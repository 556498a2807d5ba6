"""The GGM key-derivation tree with access tokens (paper §4.2.3, Fig. 2, §A.1.3).

The keystream used by HEAC is the sequence of leaf labels of a balanced
binary tree.  The root is a random seed; the two children of a node are
``G0(node)`` and ``G1(node)`` for a length-doubling PRG ``G``.  Leaf ``i``
(reading the bits of ``i`` from the most significant to the least significant
tree level) is the i-th key of the keystream.

Sharing works by handing out *inner nodes* ("access tokens"): a principal
holding the token for an inner node can derive every leaf in its subtree but
— by the one-wayness of the PRG — nothing outside it.  Granting access to an
arbitrary leaf interval ``[lo, hi]`` therefore amounts to computing the
minimal set of maximal subtrees covering the interval (at most ``2·h`` tokens
for a tree of height ``h``).

Cost model
----------

The unit is one PRG *step* (``PRG.child``: one AES block or one hash); a walk
costs one step per level it descends.

* **One key** — ``leaf(i)`` walks from the deepest memoised ancestor.  The
  owner tree memoises its top ``cache_levels`` levels, so a warm lookup costs
  ``h - cache_levels`` steps (14 at the defaults); a consumer walks from its
  covering token, ``h - token.depth`` steps.
* **A boundary pair** (what a range aggregate decrypts with) —
  ``leaves([a, b])`` walks ``b`` from its deepest common ancestor with ``a``
  on a path kept for the duration of the call:
  ``(h - cache_levels) + (h - lca_depth(a, b))`` steps, not two walks.  A
  series of ``n`` buckets costs one walk plus ``Σ (h - lca)`` over its sorted
  boundaries; ``tokens_for_ranges`` visits its cover nodes the same way.
* **A run of keys** — ``leaf_range(start, end)`` takes the minimal
  aligned-subtree cover of the interval (at most ``2·h`` nodes), walks to
  each cover node as above and expands it level by level through
  ``PRG.expand_many``: ``≈ n + O(h)`` steps for ``n`` keys, amortized O(1)
  per key instead of O(h).

Every result is bit-identical to per-leaf derivation from the root.  The
owner side deliberately keeps **no cache of derived leaves**: a stat query
needs two of 2^h keys, the walk above is what the construction costs, and a
window-keyed cache would need sizing, eviction and invalidation for a saving
no query pattern guarantees.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.crypto.prf import DEFAULT_PRG, PRG, SEED_BYTES, get_prg
from repro.exceptions import KeyDerivationError


def _aligned_cover(start: int, end: int, height: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(depth, index)`` of the canonical minimal subtree cover of ``[start, end)``.

    Maximal aligned subtrees, left to right; at most ``2·height`` entries.
    ``depth`` is measured from the root of a tree of the given ``height``.
    """
    num_keys = 1 << height
    position = start
    while position < end:
        # Largest aligned subtree starting at `position` that fits in the range.
        span = position & -position if position else num_keys
        while span > end - position:
            span >>= 1
        depth = height - span.bit_length() + 1
        yield depth, position >> (height - depth)
        position += span


def _expand_subtree(prg: PRG, value: bytes, levels: int) -> List[bytes]:
    """All ``2**levels`` leaves under ``value``, by iterative level-order expansion."""
    frontier = [value]
    for _ in range(levels):
        pairs = prg.expand_many(frontier)
        frontier = [child for pair in pairs for child in pair]
    return frontier


def _expand_cover(prg: PRG, walker: "_PathWalker", start: int, end: int, height: int) -> List[bytes]:
    """Leaves ``[start, end)`` (below the walker's root) by minimal subtree cover.

    Cover nodes come left to right, so the walker shares every prefix between
    them; a single leaf is its own cover and costs just the walk.
    """
    keys: List[bytes] = []
    for depth, index in _aligned_cover(start, end, height):
        keys.extend(_expand_subtree(prg, walker.node(depth, index), height - depth))
    return keys


def _runs(indices: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Maximal runs of consecutive values in ``indices``, as half-open intervals in input order."""
    position = 0
    while position < len(indices):
        first = last = indices[position]
        position += 1
        while position < len(indices) and indices[position] == last + 1:
            last += 1
            position += 1
        yield first, last + 1


class _PathWalker:
    """Derive nodes below one root, each from the deepest ancestor already at hand.

    The walker keeps the root-to-node labels of the *last* node it derived —
    call-local state that dies with the batch, not a cache.  The next node
    starts from its deepest common ancestor on that path, so visiting nodes
    left to right derives every shared prefix once.  ``cache`` is the owner
    tree's persistent memo of the top ``cache_levels`` levels: a walk restarts
    from the deepest memoised ancestor and records the levels it passes.
    """

    __slots__ = ("_child", "_path", "_floor", "_depth", "_index", "_cache", "_cache_levels")

    def __init__(
        self,
        prg: PRG,
        root: "TreeToken",
        cache: Optional[Dict[Tuple[int, int], bytes]] = None,
        cache_levels: int = 0,
    ) -> None:
        self._child = prg.child
        self._path: List[bytes] = [root.value] * (root.height + 1)  # indexed by depth
        self._floor = root.depth  # path[_floor .. _depth] are ancestors of (_depth, _index)
        self._depth = root.depth
        self._index = root.index
        self._cache = cache
        self._cache_levels = cache_levels  # 0 without a cache: the memo is never consulted

    def node(self, depth: int, index: int) -> bytes:
        """Label of node ``(depth, index)``, which must lie below the root."""
        path = self._path
        level = min(depth, self._depth)
        start = level - (
            (index >> (depth - level)) ^ (self._index >> (self._depth - level))
        ).bit_length()
        cache_levels = self._cache_levels
        if start < cache_levels:
            # Above the memoised levels a deeper restart point may be cached;
            # below the path's floor the path itself no longer applies.
            cache = self._cache
            lowest = start if start >= self._floor else -1
            for level in range(min(depth, cache_levels), lowest, -1):
                hit = cache.get((level, index >> (depth - level)))
                if hit is not None:
                    path[level] = hit
                    start = self._floor = level
                    break
        value = path[start]
        child = self._child
        level = start
        memoised = min(depth, cache_levels)
        while level < memoised:
            level += 1
            node_index = index >> (depth - level)
            value = path[level] = self._cache[(level, node_index)] = child(value, node_index & 1)
        for shift in range(depth - level - 1, -1, -1):
            level += 1
            value = path[level] = child(value, (index >> shift) & 1)
        self._depth = depth
        self._index = index
        return value


@dataclass(frozen=True)
class TreeToken:
    """An access token: one inner (or leaf) node of the key-derivation tree.

    Attributes
    ----------
    depth:
        Depth of the node (0 = root, ``height`` = leaf level).
    index:
        Index of the node within its level (0-based, left to right).
    value:
        The node's 16-byte pseudorandom label.
    height:
        Total height of the tree the token belongs to.
    """

    depth: int
    index: int
    value: bytes
    height: int

    @property
    def leaf_span(self) -> Tuple[int, int]:
        """The inclusive leaf-index interval ``[lo, hi]`` covered by this token."""
        width = 1 << (self.height - self.depth)
        lo = self.index * width
        return lo, lo + width - 1

    def covers(self, leaf_index: int) -> bool:
        lo, hi = self.leaf_span
        return lo <= leaf_index <= hi

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.leaf_span
        return f"TreeToken(depth={self.depth}, index={self.index}, leaves=[{lo},{hi}])"


class KeyDerivationTree:
    """The key-derivation tree owned by a data owner.

    Parameters
    ----------
    seed:
        The 16-byte root secret.
    height:
        Tree height ``h``; the keystream has ``2**h`` keys.  The paper uses
        trees large enough to be "virtually infinite" (2^30 keys and beyond).
    prg:
        Name of the PRG construction (see :mod:`repro.crypto.prf`).
    cache_levels:
        Number of levels below the root whose nodes are memoised.  Caching the
        top of the tree turns repeated sequential derivations into O(1) work
        for the hot path while bounding memory.
    """

    def __init__(
        self,
        seed: bytes,
        height: int = 30,
        prg: str = DEFAULT_PRG,
        cache_levels: int = 16,
    ) -> None:
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes")
        if not 1 <= height <= 62:
            raise ValueError("tree height must be between 1 and 62")
        self._height = height
        self._prg_name = prg
        self._prg: PRG = get_prg(prg)
        self._cache_levels = max(0, min(cache_levels, height))
        self._node_cache: Dict[Tuple[int, int], bytes] = {(0, 0): seed}
        self._root = TreeToken(depth=0, index=0, value=seed, height=height)

    # -- properties --------------------------------------------------------

    @property
    def height(self) -> int:
        return self._height

    @property
    def num_keys(self) -> int:
        return 1 << self._height

    @property
    def prg_name(self) -> str:
        return self._prg_name

    # -- node derivation ---------------------------------------------------

    def _walker(self) -> _PathWalker:
        """A fresh call-local walker from the root, backed by the top-of-tree memo."""
        return _PathWalker(self._prg, self._root, self._node_cache, self._cache_levels)

    def _node(self, depth: int, index: int) -> bytes:
        """Label of the node at ``(depth, index)``, derived from the root."""
        if not 0 <= depth <= self._height:
            raise KeyDerivationError(f"depth {depth} outside tree of height {self._height}")
        if not 0 <= index < (1 << depth):
            raise KeyDerivationError(f"node index {index} out of range at depth {depth}")
        return self._walker().node(depth, index)

    def _check_range(self, start: int, end: int) -> None:
        if not 0 <= start <= end <= self.num_keys:
            raise KeyDerivationError(
                f"key range [{start}, {end}) outside keystream of {self.num_keys} keys"
            )

    def leaf(self, leaf_index: int) -> bytes:
        """The ``leaf_index``-th key of the keystream."""
        if not 0 <= leaf_index < self.num_keys:
            raise KeyDerivationError(
                f"leaf index {leaf_index} outside keystream of {self.num_keys} keys"
            )
        return self._walker().node(self._height, leaf_index)

    def keys(self, start: int, end: int) -> Iterator[bytes]:
        """Yield keystream keys ``start .. end-1`` (half-open interval)."""
        if end < start:
            raise KeyDerivationError("invalid key range")
        for leaf_index in range(start, end):
            yield self.leaf(leaf_index)

    def leaves(self, indices: Sequence[int]) -> List[bytes]:
        """``[self.leaf(i) for i in indices]`` with one walker for the whole call.

        Each key is walked from its deepest common ancestor with the previous
        one (sorted input shares the most), runs of consecutive indices are
        expanded like :meth:`leaf_range`.  Any order, duplicates and the
        empty sequence are fine; an index outside the keystream raises
        :class:`KeyDerivationError`.
        """
        walker = self._walker()
        keys: List[bytes] = []
        for start, end in _runs(indices):
            self._check_range(start, end)
            keys.extend(_expand_cover(self._prg, walker, start, end, self._height))
        return keys

    def leaf_range(self, start: int, end: int) -> List[bytes]:
        """Keystream keys ``start .. end-1`` via minimal-subtree batch expansion.

        Bit-identical to ``[self.leaf(i) for i in range(start, end)]`` but
        amortized O(1) PRG calls per key (see the module docstring).  Leaves
        expanded in batch bypass the node memo: the caller gets the whole
        range at once, so per-node memoisation would only cost memory.
        """
        self._check_range(start, end)
        return _expand_cover(self._prg, self._walker(), start, end, self._height)

    # -- token computation ---------------------------------------------------

    def token_for(self, depth: int, index: int) -> TreeToken:
        """Construct the access token for an explicit tree node."""
        return TreeToken(depth=depth, index=index, value=self._node(depth, index), height=self._height)

    def tokens_for_range(self, start: int, end: int) -> List[TreeToken]:
        """Minimal set of tokens covering leaves ``[start, end)``.

        The cover is canonical: maximal aligned subtrees from left to right,
        at most ``2·height`` tokens for any range.
        """
        return self.tokens_for_ranges([(start, end)])[0]

    def tokens_for_ranges(self, ranges: Sequence[Tuple[int, int]]) -> List[List[TreeToken]]:
        """Token covers for many ranges sharing one traversal (cohort grants).

        A cohort of overlapping ranges (a burst of grants over the same
        recent window) derives each distinct cover node once, visiting them
        left to right with one walker so every node starts from the deepest
        ancestor it shares with its predecessor — instead of one independent
        root-to-node traversal per cover node per grant.  Returns one token
        list per input range, in input order.
        """
        covers: List[List[Tuple[int, int]]] = []
        for start, end in ranges:
            self._check_range(start, end)
            covers.append(list(_aligned_cover(start, end, self._height)))
        height = self._height
        walker = self._walker()
        values = {
            (depth, index): walker.node(depth, index)
            for depth, index in sorted(
                {coord for cover in covers for coord in cover},
                key=lambda coord: (coord[1] << (height - coord[0]), coord[0]),
            )
        }
        return [
            [
                TreeToken(depth=depth, index=index, value=values[(depth, index)], height=height)
                for depth, index in cover
            ]
            for cover in covers
        ]

    def root_token(self) -> TreeToken:
        """Token granting the entire keystream (the root seed)."""
        return self._root


class DerivedKeystream:
    """Keystream view reconstructed from access tokens (the principal's side).

    A data consumer holds tokens covering some leaf ranges and can derive
    exactly those keys.  Lookups outside the covered ranges raise
    :class:`KeyDerivationError` — that is the crypto-enforced access control.
    """

    def __init__(self, tokens: Sequence[TreeToken], prg: str = DEFAULT_PRG) -> None:
        if not tokens:
            raise ValueError("at least one token is required")
        heights = {token.height for token in tokens}
        if len(heights) != 1:
            raise ValueError("all tokens must come from the same tree")
        self._height = heights.pop()
        self._prg = get_prg(prg)
        # Tree nodes are aligned subtrees, so two tokens are nested or
        # disjoint: keeping the outermost of every nest leaves disjoint spans,
        # sorted, that a bisect on their lower ends resolves exactly.
        self._spans: List[Tuple[int, int, TreeToken]] = []
        for token in sorted(tokens, key=lambda t: (t.leaf_span[0], -t.leaf_span[1])):
            lo, hi = token.leaf_span
            if not self._spans or lo > self._spans[-1][1]:
                self._spans.append((lo, hi, token))
        self._lows = [lo for lo, _hi, _token in self._spans]
        self._cache: Dict[int, bytes] = {}

    @property
    def covered_ranges(self) -> List[Tuple[int, int]]:
        """Inclusive leaf intervals this keystream can derive, merged and sorted."""
        merged: List[Tuple[int, int]] = []
        for lo, hi, _token in self._spans:
            if merged and lo == merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return merged

    def _slot(self, leaf_index: int) -> int:
        """Position in ``_spans`` of the token covering ``leaf_index`` (-1: none)."""
        slot = bisect_right(self._lows, leaf_index) - 1
        return slot if slot >= 0 and leaf_index <= self._spans[slot][1] else -1

    def can_derive(self, leaf_index: int) -> bool:
        return self._slot(leaf_index) >= 0

    def can_derive_range(self, start: int, end: int) -> bool:
        """True when every leaf in ``[start, end)`` is covered."""
        return end <= start or any(
            lo <= start and end - 1 <= hi for lo, hi in self.covered_ranges
        )

    def _derive(self, start: int, end: int, walkers: Dict[int, _PathWalker]) -> List[bytes]:
        """Keys ``start .. end-1``, token by token; ``walkers`` holds the call's walker per token slot."""
        keys: List[bytes] = []
        position = start
        while position < end:
            slot = self._slot(position)
            if slot < 0:
                raise KeyDerivationError(f"no token covers keystream position {position}")
            _lo, hi, token = self._spans[slot]
            walker = walkers.get(slot)
            if walker is None:
                walker = walkers[slot] = _PathWalker(self._prg, token)
            sub_end = min(end, hi + 1)
            keys.extend(_expand_cover(self._prg, walker, position, sub_end, self._height))
            position = sub_end
        return keys

    def _leaf(self, leaf_index: int, walkers: Dict[int, _PathWalker]) -> bytes:
        cached = self._cache.get(leaf_index)
        if cached is None:
            cached = self._derive(leaf_index, leaf_index + 1, walkers)[0]
            if len(self._cache) < 65536:
                self._cache[leaf_index] = cached
        return cached

    def leaf(self, leaf_index: int) -> bytes:
        """Derive a keystream key from the held tokens."""
        return self._leaf(leaf_index, {})

    def keys(self, start: int, end: int) -> Iterator[bytes]:
        for leaf_index in range(start, end):
            yield self.leaf(leaf_index)

    def leaves(self, indices: Sequence[int]) -> List[bytes]:
        """Keys for arbitrary ``indices``, sharing walks like :meth:`KeyDerivationTree.leaves`.

        Equal to ``[self.leaf(i) for i in indices]``, including the
        :class:`KeyDerivationError` at the first index no token covers.
        """
        walkers: Dict[int, _PathWalker] = {}
        keys: List[bytes] = []
        for start, end in _runs(indices):
            if end - start == 1:
                keys.append(self._leaf(start, walkers))
            else:
                keys.extend(self._derive(start, end, walkers))
        return keys

    def leaf_range(self, start: int, end: int) -> List[bytes]:
        """Derive keys ``start .. end-1`` in one batch from the held tokens.

        Bit-identical to per-leaf derivation; raises
        :class:`KeyDerivationError` at the first position no token covers,
        exactly like :meth:`leaf` would.  Within each covering token the
        requested sub-interval is expanded through its minimal aligned-subtree
        cover, so shared prefixes are derived once instead of once per leaf.
        """
        if not 0 <= start <= end:
            raise KeyDerivationError(f"invalid key range [{start}, {end})")
        return self._derive(start, end, {})


def merge_token_sets(*token_sets: Sequence[TreeToken]) -> List[TreeToken]:
    """Combine token sets (e.g. from multiple grants), dropping exact duplicates."""
    seen = set()
    merged: List[TreeToken] = []
    for tokens in token_sets:
        for token in tokens:
            key = (token.depth, token.index, token.height)
            if key not in seen:
                seen.add(key)
                merged.append(token)
    return merged
