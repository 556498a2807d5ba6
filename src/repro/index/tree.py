"""The k-ary time-partitioned aggregation index (paper §4.5, Fig. 4).

The index is an append-only k-ary tree built bottom-up over chunk digests:
leaf node ``i`` holds the digest of chunk window ``i``; an inner node at
level ``L`` and position ``P`` aggregates the windows ``[P·k^L, (P+1)·k^L)``.
Because time series ingest is in-order append-only, updating the tree on
ingest touches exactly one node per level (the right-most "spine"), so an
append costs one combine per level and one batched store write — constant
work.

The tree persists every node in the backing key-value store and serves reads
through the byte-budgeted :class:`~repro.index.cache.NodeCache`, mirroring
the paper's "only relevant segments of the tree are loaded into memory".

The tree is cipher-agnostic: cells are combined via a
:class:`~repro.index.node.DigestCombiner` and (de)serialized via caller
supplied functions, so the same code serves HEAC, Paillier, EC-ElGamal, and
the plaintext baseline.

Nodes and their intervals
-------------------------

The interval lives on the node: an :class:`~repro.index.node.IndexNode`
carries ``[window_start, window_end)`` — its block clipped at the stream
head — next to its cells, and the stored form starts with it.  Cells may
repeat it (HEAC ciphertexts do) or not (the engine's
:class:`~repro.server.engine.HEACColumnIndex` holds bare ring integers).
What is validated where vectors enter the tree, once per vector:

* an appended digest must cover exactly ``[w, w + 1)`` for the window ``w``
  it becomes (:meth:`AggregationIndex.append_many`);
* a node decoded from storage must carry cells covering exactly the
  interval in its header (:meth:`AggregationIndex._decode_node`);
* at query time every loaded node's interval must equal its plan entry's
  exactly (:meth:`AggregationIndex.query_range`).

Nodes are immutable, so a cached or resident node stays validated.

Signed covers
-------------

A range query reads the cover :func:`~repro.index.query.plan_range` plans.
When the combiner can subtract (HEAC is additive mod 2^64) the cover is
signed: a block the range only partly covers may be taken whole, minus its
children outside the range and the complements of its edge children, since
``block − outside`` is the same ciphertext as the sum of the pieces
inside.  That reads up to half the nodes of the additive cover.  Added and
subtracted nodes load in one :meth:`AggregationIndex._load_nodes` call, and
the answer is **one** :meth:`DigestCombiner.signed_fold
<repro.index.node.DigestCombiner.signed_fold>` — one integer ``sum`` per
digest component over the added rows, one over the subtracted rows, and
``width`` result cells tagged with the queried range.  The exact interval
check above is what makes the signed sum the range's aggregate.  A
combiner that cannot subtract (the Paillier and EC-ElGamal strawmen) gets
the additive cover from the same planner and folds it in window order.

An append folds, per touched spine node, the stored node plus every new
leaf of its block with one :meth:`DigestCombiner.fold
<repro.index.node.DigestCombiner.fold>` call.

Batch ingest
------------

:meth:`AggregationIndex.append_many` appends ``n`` consecutive digests in
one pass, and :meth:`AggregationIndex.append` is ``append_many`` of one.
Per level it walks the touched spine positions (at most
``n / fanout^level + 1`` of them), folds every new leaf of a position into
its node in memory (one fold per node), and writes each touched node exactly
once.  The whole write set — the ``n`` leaves, the touched inner nodes, the
window-count meta record and any caller-coalesced extra records, e.g. the
chunk payloads of an ingest — lands in **one** ``multi_put`` round trip,
whatever ``n`` is.  The stored bytes are identical to ``n`` single appends
(intermediate spine states are simply never materialised).

Resident spine
--------------

An append folds into the right-most node of every inner level, so the index
keeps the node it last wrote at each level (:attr:`AggregationIndex._spine`).
That is at most ``max_level`` nodes per stream, held outside the
byte-budgeted cache (a small cache cannot evict them) and dropped with the
index object, i.e. with the engine's stream state.  They are replaced only
after a batch's ``multi_put`` succeeds, so a rejected batch leaves head and
spine as storage has them.  Levels the spine cannot answer are read with
one ``multi_get`` per append, through the same loader as a query's node
cover: every level on the first append after open (or recovery, or
``reset_stream_cache``), a level whose spine node :meth:`prune_below`
deleted, and each level where the append opens a block at the head — that
read finds nothing unless a node is ahead of the meta record, which the
"spine out of sync" check then rejects.  A steady single-chunk append
therefore reads storage once per ``fanout`` appends, however small the
cache, and a range query still fetches every plan node missing from the
cache with one ``multi_get``.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.exceptions import ChunkError, IndexError_, QueryError
from repro.index.cache import NodeCache
from repro.index.node import DigestCombiner, IndexNode
from repro.index.query import RangePlan, plan_range
from repro.storage.kv import KeyValueStore
from repro.timeseries.serialization import index_node_storage_key
from repro.util.encoding import decode_varint, encode_varint

Cell = TypeVar("Cell")

#: Default bound on stream length used to size the tree depth: enough for
#: 2^40 chunk windows (≈ 350 years of 10 ms chunks), giving 7 levels at k=64.
DEFAULT_MAX_WINDOWS = 1 << 40


def levels_for(fanout: int, max_windows: int) -> int:
    """Number of inner levels needed so one node can cover ``max_windows`` leaves."""
    levels = 0
    capacity = 1
    while capacity < max_windows:
        capacity *= fanout
        levels += 1
    return max(1, levels)


class AggregationIndex(Generic[Cell]):
    """Append-only k-ary aggregation tree over one stream's chunk digests."""

    def __init__(
        self,
        stream_uuid: str,
        store: KeyValueStore,
        combiner: DigestCombiner[Cell],
        encode_cells: Callable[[Sequence[Cell]], bytes],
        decode_cells: Callable[[bytes], List[Cell]],
        fanout: int = 64,
        cache: Optional[NodeCache] = None,
        max_windows: int = DEFAULT_MAX_WINDOWS,
    ) -> None:
        if fanout < 2:
            raise IndexError_("index fanout must be at least 2")
        if max_windows < 1:
            raise IndexError_("max_windows must be positive")
        self._stream_uuid = stream_uuid
        self._store = store
        self._combiner = combiner
        self._encode_cells = encode_cells
        self._decode_cells = decode_cells
        self._fanout = fanout
        self._max_level = levels_for(fanout, max_windows)
        # Note: `cache or NodeCache()` would discard an *empty* caller-provided
        # cache (NodeCache defines __len__), so compare against None explicitly.
        self._cache = cache if cache is not None else NodeCache()
        self._pruned_watermarks: Dict[int, int] = {}
        #: The resident spine (module docstring): inner level -> the
        #: right-most node this index last wrote there.
        self._spine: Dict[int, IndexNode] = {}
        #: Cumulative count of batched store round trips (multi_get/multi_put/
        #: multi_delete) issued by this index; the engine diffs it around a
        #: query to report fetch round trips per query.
        self.store_batch_ops = 0
        self._num_windows = self._load_meta()

    # -- properties -------------------------------------------------------------

    @property
    def fanout(self) -> int:
        return self._fanout

    @property
    def num_windows(self) -> int:
        """Number of leaf windows ingested so far."""
        return self._num_windows

    @property
    def cache(self) -> NodeCache:
        return self._cache

    @property
    def max_level(self) -> int:
        """Highest inner level maintained by the tree."""
        return self._max_level

    # -- persistence -------------------------------------------------------------

    def _meta_key(self) -> bytes:
        return f"index/{self._stream_uuid}/meta".encode("ascii")

    def _load_meta(self) -> int:
        """Load the meta record: window count plus per-level pruned watermarks.

        The record is ``varint(count)`` optionally followed by
        ``varint(num_entries)`` and ``num_entries`` ``(level, watermark)``
        varint pairs; records written before watermarks existed decode as an
        empty watermark map.
        """
        blob = self._store.get(self._meta_key())
        if blob is None:
            return 0
        count, pos = decode_varint(blob, 0)
        if pos < len(blob):
            num_entries, pos = decode_varint(blob, pos)
            for _ in range(num_entries):
                level, pos = decode_varint(blob, pos)
                watermark, pos = decode_varint(blob, pos)
                self._pruned_watermarks[level] = watermark
        return count

    def _meta_blob(self) -> bytes:
        blob = encode_varint(self._num_windows)
        if self._pruned_watermarks:
            blob += encode_varint(len(self._pruned_watermarks))
            for level in sorted(self._pruned_watermarks):
                blob += encode_varint(level) + encode_varint(self._pruned_watermarks[level])
        return blob

    def _save_meta(self) -> None:
        self._store.put(self._meta_key(), self._meta_blob())

    def _node_key(self, level: int, position: int) -> bytes:
        return index_node_storage_key(self._stream_uuid, level, position)

    def _encode_node(self, node: IndexNode) -> bytes:
        return (
            encode_varint(node.window_start)
            + encode_varint(node.window_end)
            + self._encode_cells(node.cells)
        )

    def _buffer_node(self, batch: Dict[bytes, bytes], staged: List[IndexNode], node: IndexNode) -> None:
        """Stage a node into the batch write set (cached only after the flush succeeds)."""
        batch[self._node_key(node.level, node.position)] = self._encode_node(node)
        staged.append(node)

    def _leaf_cells(self, cells: Sequence[Cell], window: int) -> tuple:
        """The stored form of an appended digest, which must cover ``[window, window + 1)``."""
        leaf = tuple(cells)
        self._combiner.check_interval(leaf, window, window + 1)
        return leaf

    def _decode_node(self, level: int, position: int, blob: bytes) -> IndexNode:
        try:
            window_start, pos = decode_varint(blob, 0)
            window_end, pos = decode_varint(blob, pos)
        except ValueError as exc:
            raise ChunkError(f"malformed index node: {exc}") from exc
        cells = tuple(self._decode_cells(blob[pos:]))
        self._combiner.check_interval(cells, window_start, window_end)
        return IndexNode(
            level=level,
            position=position,
            window_start=window_start,
            window_end=window_end,
            cells=cells,
        )

    def _load_nodes(self, coords: Sequence[Tuple[int, int]]) -> List[Optional[IndexNode]]:
        """Load nodes by ``(level, position)``, in order, batching cache misses.

        Every node missing from the cache is fetched with one ``multi_get``
        against the backend and cached; storage keys are computed only for
        those misses, so a fully cached request costs neither a round trip
        nor any key formatting.  A node absent from storage comes back as
        ``None``.  Range queries, the spine of a cold append and
        :meth:`node` all load through here.
        """
        uuid = self._stream_uuid
        nodes = [self._cache.get((uuid, level, position)) for level, position in coords]
        missing = [i for i, node in enumerate(nodes) if node is None]
        if missing:
            keys = [self._node_key(*coords[i]) for i in missing]
            blobs = self._store.multi_get(keys)
            self.store_batch_ops += 1
            for i, key in zip(missing, keys):
                blob = blobs.get(key)
                if blob is not None:
                    level, position = coords[i]
                    nodes[i] = self._decode_node(level, position, blob)
                    self._cache.put((uuid, level, position), nodes[i])
        return nodes

    def _spine_at(self, start: int) -> List[Optional[IndexNode]]:
        """The stored node at each inner level's first position touched by an
        append starting at window ``start`` (level 1 first; ``None`` if absent).

        A resident spine node answers for its level when the append continues
        its block; every other level goes to :meth:`_load_nodes`, all in one
        ``multi_get``.  A block that starts at the head is always read: its
        absence in storage is the only guard against a node ahead of the meta
        record.
        """
        nodes: List[Optional[IndexNode]] = []
        wanted: List[Tuple[int, int]] = []
        block = 1
        for level in range(1, self._max_level + 1):
            block *= self._fanout
            position = start // block
            held = self._spine.get(level)
            # At a block head the held node is the previous, full block, so a
            # head position is always read from storage.
            if held is not None and held.position == position:
                nodes.append(held)
            else:
                nodes.append(None)
                wanted.append((level, position))
        if wanted:
            for (level, _position), node in zip(wanted, self._load_nodes(wanted)):
                nodes[level - 1] = node
        return nodes

    # -- ingest -------------------------------------------------------------------

    def append(self, cells: Sequence[Cell]) -> int:
        """Append the digest of the next chunk window; returns its window index.

        The leaf and every ancestor on the right-most spine are written in
        one ``multi_put``, with one fold per level.
        """
        return self.append_many([cells])

    def append_many(
        self,
        cell_vectors: Sequence[Sequence[Cell]],
        extra_puts: Optional[Sequence[tuple]] = None,
    ) -> int:
        """Append ``n`` consecutive chunk digests in one pass; returns the first index.

        Per level, the new leaves are folded into each touched spine node in
        memory and every touched node is written once, instead of once per
        appended leaf; the window-count meta record is also written once.  The
        stored bytes after the batch are identical to ``n`` scalar appends
        (see the module docstring for the write-count arithmetic).

        The whole write set — every touched node, the meta record, and any
        ``extra_puts`` (``(key, value)`` pairs the caller wants coalesced
        into the same backend round trip, e.g. the encrypted chunk payloads
        of a bulk ingest) — is flushed with a single ``multi_put``.

        Leaves arrive strictly in window order, so the first leaf of any
        ancestor block is always the block's left-most ingested window;
        ancestor nodes are created with ``window_start`` at that leaf and grow
        until their block is full.  Only the left-most touched position per
        level can pre-exist — every later position starts at a window this
        batch introduces.
        """
        if not cell_vectors:
            if extra_puts:
                self._store.multi_put(list(extra_puts))
                self.store_batch_ops += 1
            return self._num_windows
        batch: Dict[bytes, bytes] = dict(extra_puts or ())
        staged: List[IndexNode] = []
        start = self._num_windows
        leaf_cells: List[tuple] = []
        for offset, cells in enumerate(cell_vectors):
            window_index = start + offset
            leaf = self._leaf_cells(cells, window_index)
            leaf_cells.append(leaf)
            self._buffer_node(
                batch,
                staged,
                IndexNode(
                    level=0,
                    position=window_index,
                    window_start=window_index,
                    window_end=window_index + 1,
                    cells=leaf,
                ),
            )
        end = start + len(leaf_cells)
        spine = self._spine_at(start)
        block = 1
        for level in range(1, self._max_level + 1):
            block *= self._fanout
            for position in range(start // block, (end - 1) // block + 1):
                block_start = max(start, position * block)
                block_end = min(end, (position + 1) * block)
                # One fold per touched node: the node as stored (if any) plus
                # every new leaf of its block.
                vectors = leaf_cells[block_start - start : block_end - start]
                window_start = block_start
                existing = spine[level - 1] if block_start == start else None
                if existing is not None:
                    if existing.window_end != block_start:
                        raise IndexError_(
                            f"index spine out of sync at level {level}: node ends at "
                            f"{existing.window_end}, leaf is {block_start}"
                        )
                    window_start = existing.window_start
                    vectors.insert(0, existing.cells)
                self._buffer_node(
                    batch,
                    staged,
                    IndexNode(
                        level=level,
                        position=position,
                        window_start=window_start,
                        window_end=block_end,
                        cells=tuple(self._combiner.fold(vectors)),
                    ),
                )
        # Flush before mutating any in-memory state: if the backend rejects
        # the batch, the index head and cache still match storage and the
        # caller can retry the same batch.
        self._num_windows = end
        try:
            batch[self._meta_key()] = self._meta_blob()
            self._store.multi_put(list(batch.items()))
        except BaseException:
            self._num_windows = start
            raise
        self.store_batch_ops += 1
        for node in staged:
            self._cache.put((self._stream_uuid, node.level, node.position), node)
            if node.level:
                # Staged in position order per level: the last one is the spine.
                self._spine[node.level] = node
        return start

    # -- queries ---------------------------------------------------------------------

    def query_range(
        self, window_start: int, window_end: int, plan: Optional[RangePlan] = None
    ) -> List[Cell]:
        """Aggregate digest cells over the window interval ``[start, end)``.

        Every node of the plan — added and subtracted — is loaded in one
        :meth:`_load_nodes` call, and each must carry exactly the interval
        its plan entry names.  A caller that already computed the cover (the
        engine does, for its query statistics) passes it as ``plan`` so the
        planner runs once per query, not twice.
        """
        if plan is None:
            plan = self.plan(window_start, window_end)
        else:
            self._check_range(window_start, window_end)
        if plan.window_start != window_start or plan.window_end != window_end:
            raise QueryError(
                f"plan covers [{plan.window_start}, {plan.window_end}), query "
                f"asked for [{window_start}, {window_end})"
            )
        refs = plan.nodes + plan.subtracted
        nodes = self._load_nodes([(ref.level, ref.position) for ref in refs])
        for ref, node in zip(refs, nodes):
            if node is None:
                raise IndexError_(
                    f"missing index node level={ref.level} position={ref.position}"
                )
            if node.window_start != ref.window_start or node.window_end != ref.window_end:
                raise IndexError_(
                    f"index node level={ref.level} position={ref.position} covers "
                    f"[{node.window_start}, {node.window_end}), plan expected "
                    f"[{ref.window_start}, {ref.window_end})"
                )
        cells = [node.cells for node in nodes]
        added = len(plan.nodes)
        if self._combiner.can_subtract:
            return self._combiner.signed_fold(cells[:added], cells[added:], window_start, window_end)
        return self._combiner.fold(cells)

    def _check_range(self, window_start: int, window_end: int) -> None:
        if window_end <= window_start:
            raise QueryError(f"empty window range [{window_start}, {window_end})")
        if window_start < 0 or window_end > self._num_windows:
            raise QueryError(
                f"window range [{window_start}, {window_end}) outside ingested "
                f"range [0, {self._num_windows})"
            )

    def plan(self, window_start: int, window_end: int) -> RangePlan:
        """The node cover used to answer a range query: signed when the
        combiner can subtract, additive otherwise."""
        self._check_range(window_start, window_end)
        return plan_range(
            window_start,
            window_end,
            self._fanout,
            self._max_level,
            self._num_windows,
            self._combiner.can_subtract,
        )

    def node(self, level: int, position: int) -> Optional[IndexNode]:
        """Fetch a single node (used by rollup and inspection tooling)."""
        return self._load_nodes([(level, position)])[0]

    # -- maintenance -------------------------------------------------------------------

    def prune_below(self, level: int, before_window: int) -> int:
        """Data decay: drop nodes below ``level`` that end at or before ``before_window``.

        Models the paper's "archiving at lower resolutions": fine-grained
        nodes for aged-out data are removed while coarser aggregates remain
        queryable.  Returns the number of nodes deleted.

        A per-level pruned watermark is persisted in the meta record so that
        repeated rollups resume deleting where the previous one stopped;
        without it every invocation re-attempts deletes from position 0 and
        periodic rollups degrade quadratically over the stream's lifetime.
        """
        if level <= 0:
            return 0
        # Clamp to the ingested head: advancing the watermark past windows
        # that do not exist yet would make them unprunable once ingested.
        before_window = min(before_window, self._num_windows)
        doomed: List[tuple] = []
        watermarks_moved = False
        for target_level in range(0, min(level, self._max_level + 1)):
            block = self._fanout ** target_level
            full_blocks = before_window // block
            start_position = self._pruned_watermarks.get(target_level, 0)
            doomed.extend((target_level, position) for position in range(start_position, full_blocks))
            if full_blocks > start_position:
                self._pruned_watermarks[target_level] = full_blocks
                watermarks_moved = True
        deleted = 0
        if doomed:
            # All levels' prunable nodes go in one multi_delete round trip.
            existed = self._store.multi_delete(
                [self._node_key(target_level, position) for target_level, position in doomed]
            )
            self.store_batch_ops += 1
            deleted = len(existed)
            for target_level, position in doomed:
                self._cache.invalidate((self._stream_uuid, target_level, position))
                held = self._spine.get(target_level)
                if held is not None and held.position == position:
                    del self._spine[target_level]
        if watermarks_moved:
            self._save_meta()
        return deleted

    def size_bytes(self) -> int:
        """Serialized size of all stored index nodes (Table 2's index size)."""
        prefix = f"index/{self._stream_uuid}/".encode("ascii")
        return sum(len(key) + len(value) for key, value in self._store.scan_prefix(prefix))

    def node_count(self) -> int:
        """Number of stored index nodes (excluding the window-count record)."""
        prefix = f"index/{self._stream_uuid}/".encode("ascii")
        return sum(1 for key, _ in self._store.scan_prefix(prefix) if not key.endswith(b"/meta"))
