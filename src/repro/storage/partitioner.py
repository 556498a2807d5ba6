"""Consistent-hash partitioning (how the Cassandra stand-in places data).

Partitions, not keys, are hashed onto a ring (:func:`partition_key` maps a
key to its partition); each physical node owns several virtual tokens so
that adding or removing a node only moves a small fraction of the
partitions.  Replica sets are the N distinct nodes encountered walking
clockwise from the partition's position — the same token-ring design
Cassandra and Dynamo use.  Ownership is *inclusive*: the first token whose
position is greater than or equal to the hash owns it (the
Dynamo/Cassandra convention), so a hash colliding exactly with a virtual
token belongs to that token's node, not its successor.

Rings are cheap to :meth:`~ConsistentHashRing.copy`: a cluster performing a
live membership change builds the *new* ring as a copy, mutates the copy,
and swaps it in atomically, so concurrent readers always see either the old
or the new topology — never a ring mid-mutation.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple

from repro.exceptions import PartitionError


#: Key families the repo writes per stream; the field after the family is
#: the stream uuid.
_STREAM_FAMILIES = frozenset((b"chunk", b"index", b"meta", b"grant", b"envelope"))


def partition_key(key: bytes) -> bytes:
    """The partition ``key`` is placed by: its stream.

    Like the paper's Cassandra back end, a stream's data stays together:
    ``chunk/<uuid>/…``, ``index/<uuid>/…`` (nodes and the meta record),
    ``meta/<uuid>``, ``grant/<uuid>/…`` and ``envelope/<uuid>/…`` all map to
    the stream uuid, whatever the window, so one stream lives on exactly RF
    nodes at any age.  Every other key (hints, routing-table uuids, generic
    keys) and a stream-family key with no uuid field is its own partition;
    this never raises.

    Hot partitions: a busy stream's whole volume sits on its RF nodes and
    its primary serves every read of it; load spreads over the ring only
    across streams.  Leakage: one node sees a stream's whole volume — no
    worse than per-key placement, since every key already names its stream
    uuid in plaintext.
    """
    family, _sep, rest = key.partition(b"/")
    uuid = rest.partition(b"/")[0]
    if family not in _STREAM_FAMILIES or not uuid:
        return key
    return b"partition/" + uuid


def _hash_to_ring(data: bytes) -> int:
    """Position of ``data`` on the 128-bit ring."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=16).digest(), "big")


class ConsistentHashRing:
    """A token ring mapping keys to replica sets of node names."""

    def __init__(self, nodes: Sequence[str] = (), virtual_tokens: int = 64) -> None:
        if virtual_tokens <= 0:
            raise ValueError("virtual_tokens must be positive")
        self._virtual_tokens = virtual_tokens
        self._tokens: List[Tuple[int, str]] = []
        self._nodes: Dict[str, bool] = {}
        for node in nodes:
            self.add_node(node)

    # -- membership -----------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def add_node(self, node: str) -> None:
        """Add a node and its virtual tokens to the ring."""
        if node in self._nodes:
            raise ValueError(f"node '{node}' already in the ring")
        self._nodes[node] = True
        for token_index in range(self._virtual_tokens):
            position = _hash_to_ring(f"{node}#{token_index}".encode("utf-8"))
            bisect.insort(self._tokens, (position, node))

    def remove_node(self, node: str) -> None:
        """Remove a node (e.g. on failure); its ranges fall to the successors."""
        if node not in self._nodes:
            raise ValueError(f"node '{node}' not in the ring")
        del self._nodes[node]
        self._tokens = [(pos, name) for pos, name in self._tokens if name != node]

    def copy(self) -> "ConsistentHashRing":
        """An independent ring with the same tokens and membership.

        Used for live topology changes: mutate the copy, then publish it in
        one reference assignment so in-flight placements never observe a
        half-updated token list.
        """
        clone = ConsistentHashRing(virtual_tokens=self._virtual_tokens)
        clone._tokens = list(self._tokens)
        clone._nodes = dict(self._nodes)
        return clone

    # -- placement ----------------------------------------------------------------

    def primary(self, key: bytes) -> str:
        """The first replica responsible for ``key``."""
        return self.replicas(key, 1)[0]

    def replicas(self, key: bytes, replication_factor: int) -> List[str]:
        """The ``replication_factor`` distinct nodes responsible for ``key``'s partition."""
        if not self._tokens:
            raise PartitionError("the ring has no nodes")
        if replication_factor <= 0:
            raise ValueError("replication_factor must be positive")
        available = len(self._nodes)
        wanted = min(replication_factor, available)
        position = _hash_to_ring(partition_key(key))
        # Inclusive clockwise seek: the first token with position >= the hash
        # owns the key.  Node names are non-empty, so (position, "") sorts
        # before every real token at that position and bisect_left lands on
        # it — a bisect_right past (position, "￿") would skip a token
        # whose position equals the key's hash and hand the key to the next
        # token's node instead.
        start = bisect.bisect_left(self._tokens, (position, ""))
        replicas: List[str] = []
        for step in range(len(self._tokens)):
            _token, node = self._tokens[(start + step) % len(self._tokens)]
            if node not in replicas:
                replicas.append(node)
                if len(replicas) == wanted:
                    break
        return replicas

    def ownership_fractions(self, sample_keys: int = 4096) -> Dict[str, float]:
        """Approximate fraction of keys owned by each node (for balance checks)."""
        counts: Dict[str, int] = {node: 0 for node in self._nodes}
        for sample in range(sample_keys):
            counts[self.primary(sample.to_bytes(8, "big"))] += 1
        return {node: count / sample_keys for node, count in counts.items()}
