"""Hash chains: the primitive underneath key regression (paper §A.2).

A hash chain is a sequence of states ``s_n -> s_{n-1} -> ... -> s_0`` where
``s_{i-1} = MSB_λ(G(s_i))`` for a length-expanding one-way function ``G``.
Walking the chain "forward" (towards lower indices) is cheap; inverting it is
infeasible.  Key regression exploits this asymmetry: handing out state ``s_i``
grants the ability to compute every state (and thus key) with index ``<= i``
but nothing newer.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.exceptions import KeyDerivationError

STATE_BYTES = 16
KEY_BYTES = 16

#: ``G``'s personalised BLAKE2b state; every evaluation copies it, which is
#: cheaper than constructing a hash from keyword arguments per step.
_G = hashlib.blake2b(digest_size=STATE_BYTES + KEY_BYTES, person=b"tc-hashchain0000")


def expand(state: bytes) -> bytes:
    """Length-expanding one-way function ``G: {0,1}^λ -> {0,1}^{λ+l}``.

    Implemented as BLAKE2b with 32-byte output; the first 16 bytes are the
    "MSB" half (the next state), the last 16 bytes the "LSB" half (the key).
    """
    if len(state) != STATE_BYTES:
        raise ValueError(f"hash-chain state must be {STATE_BYTES} bytes")
    g = _G.copy()
    g.update(state)
    return g.digest()


def next_state(state: bytes) -> bytes:
    """``MSB_λ(G(state))`` — one step along the chain; every walk steps through here."""
    return expand(state)[:STATE_BYTES]


def state_key(state: bytes) -> bytes:
    """``LSB_l(G(state))`` — the key derived from a state."""
    return expand(state)[STATE_BYTES:]


def walk(state: bytes, steps: int) -> bytes:
    """Apply :func:`next_state` ``steps`` times."""
    if steps < 0:
        raise KeyDerivationError("cannot walk a hash chain backwards")
    for _ in range(steps):
        state = next_state(state)
    return state


class HashChain:
    """A hash chain of ``length`` states, checkpointed as far as it is read.

    The chain is generated from a random ``seed`` assigned to the *last*
    state ``s_{length-1}``; earlier states are derived by repeated hashing.
    Construction stores only the seed.  A read below the lowest checkpoint
    walks down from it and keeps every ``checkpoint_interval``-th state it
    passes: a chain pays only for the part that is read, memory stays O(n/k)
    and a lookup in the reached part walks at most k steps.  Concurrent
    readers need no lock: checkpoints are pure functions of the seed, each is
    stored before the "lowest" mark moves below it, and a stale mark only
    means a longer walk.
    """

    def __init__(self, seed: bytes, length: int, checkpoint_interval: int = 64) -> None:
        if len(seed) != STATE_BYTES:
            raise ValueError(f"seed must be {STATE_BYTES} bytes")
        if length <= 0:
            raise ValueError("chain length must be positive")
        if checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self._length = length
        self._interval = checkpoint_interval
        self._checkpoints: Dict[int, bytes] = {length - 1: seed}
        # Every multiple of the interval at or above this index is stored.
        self._lowest = length - 1

    @property
    def length(self) -> int:
        return self._length

    def state(self, index: int) -> bytes:
        """The chain state ``s_index``."""
        if not 0 <= index < self._length:
            raise KeyDerivationError(f"chain index {index} out of range [0, {self._length})")
        interval = self._interval
        lowest = self._lowest
        if index >= lowest:
            above = min(-(-index // interval) * interval, self._length - 1)
            return walk(self._checkpoints[above], above - index)
        mark, state = lowest, self._checkpoints[lowest]
        for checkpoint in range((lowest - 1) // interval * interval, index - 1, -interval):
            state = walk(state, mark - checkpoint)
            self._checkpoints[checkpoint] = state
            mark = checkpoint
        if mark < self._lowest:
            self._lowest = mark
        return walk(state, mark - index)

    def key(self, index: int) -> bytes:
        """The key derived from state ``s_index``."""
        return state_key(self.state(index))

    def states(self, start: int, end: int) -> List[bytes]:
        """States for indices ``[start, end)`` in order, in one walk down from ``end - 1``."""
        if not 0 <= start <= end <= self._length:
            raise KeyDerivationError(
                f"chain indices [{start}, {end}) out of range [0, {self._length}]"
            )
        run = [self.state(end - 1)] if end > start else []
        for _ in range(end - 1 - start):
            run.append(next_state(run[-1]))
        return run[::-1]
