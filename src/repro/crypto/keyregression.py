"""Single and dual key regression (paper §4.4.2 and §A.2).

Key regression distributes *past* keys efficiently: an entity holding state
``s_i`` can derive every key ``k_j`` with ``j <= i`` but nothing newer.  Dual
key regression combines two opposing hash chains so a share can be bounded on
*both* ends: holding ``(s1_i, s2_j)`` with ``j <= i`` yields exactly the keys
``k_j .. k_i``.

TimeCrypt uses dual key regression for the per-resolution keystreams that
wrap the outer keys of HEAC (§4.4): one dual-key-regression instance per
resolution level, with key envelopes stored server-side.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro.crypto.hashchain import HashChain, STATE_BYTES, state_key, walk
from repro.crypto.prf import kdf
from repro.exceptions import KeyDerivationError


class KeyRegression:
    """Single-chain key regression: share state ``s_i`` to grant keys ``k_0..k_i``."""

    def __init__(self, seed: Optional[bytes] = None, length: int = 1 << 16) -> None:
        self._chain = HashChain(seed or os.urandom(STATE_BYTES), length)

    @property
    def length(self) -> int:
        return self._chain.length

    def key(self, index: int) -> bytes:
        return self._chain.key(index)

    def share_state(self, index: int) -> bytes:
        """The state to hand to a principal to grant keys ``0..index``."""
        return self._chain.state(index)

    @staticmethod
    def derive_from_state(state: bytes, state_index: int, key_index: int) -> bytes:
        """Principal-side derivation of ``k_key_index`` from shared ``s_state_index``."""
        if key_index > state_index:
            raise KeyDerivationError(
                f"state {state_index} cannot derive the newer key {key_index}"
            )
        return state_key(walk(state, state_index - key_index))


@dataclass(frozen=True)
class DualKeyRegressionToken:
    """The pair of states shared with a principal, bounding keys to ``[lower, upper]``."""

    lower: int
    upper: int
    primary_state: bytes
    secondary_state: bytes
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.lower <= self.upper < self.length:
            raise ValueError(
                f"invalid dual-key-regression bounds [{self.lower}, {self.upper}] "
                f"for chain length {self.length}"
            )


class DualKeyRegression:
    """Dual key regression: bounded-interval key sharing.

    The primary chain is consumed from high indices to low (like single key
    regression); the secondary chain runs in the opposite direction.  The key
    at position ``i`` is ``KDF(s1_i XOR s2_i)``.  Sharing ``(s1_u, s2_l)``
    lets the recipient compute primary states ``<= u`` and secondary states
    ``>= l``, hence exactly the keys ``l .. u``.
    """

    def __init__(
        self,
        primary_seed: Optional[bytes] = None,
        secondary_seed: Optional[bytes] = None,
        length: int = 1 << 16,
    ) -> None:
        if length <= 0:
            raise ValueError("key regression length must be positive")
        self._length = length
        # Primary chain: state index i is derivable from any state index >= i.
        self._primary = HashChain(primary_seed or os.urandom(STATE_BYTES), length)
        # Secondary chain: generated in the reverse direction.  We reuse the
        # HashChain machinery by storing it reversed: secondary state at
        # logical position i corresponds to chain index (length - 1 - i), so
        # holding the state at logical position l lets one derive positions >= l.
        self._secondary = HashChain(secondary_seed or os.urandom(STATE_BYTES), length)

    @property
    def length(self) -> int:
        return self._length

    # -- owner-side API -----------------------------------------------------

    def key(self, position: int) -> bytes:
        """The ``position``-th key of the regression keystream."""
        return self.keys(position, position + 1)[0]

    def keys(self, start: int, end: int) -> List[bytes]:
        """Keys ``start .. end - 1``: one walk down the primary chain, one along the secondary."""
        if not 0 <= start <= end <= self._length:
            raise KeyDerivationError(
                f"positions [{start}, {end}) out of range [0, {self._length}]"
            )
        primary = self._primary.states(start, end)
        secondary = self._secondary.states(self._length - end, self._length - start)
        return [_mix(p, s) for p, s in zip(primary, reversed(secondary))]

    def share(self, lower: int, upper: int) -> DualKeyRegressionToken:
        """Produce the token granting exactly the keys ``lower .. upper`` (inclusive)."""
        if not 0 <= lower <= upper < self._length:
            raise KeyDerivationError(
                f"cannot share interval [{lower}, {upper}] from a chain of length {self._length}"
            )
        return DualKeyRegressionToken(
            lower=lower,
            upper=upper,
            primary_state=self._primary.state(upper),
            secondary_state=self._secondary.state(self._length - 1 - lower),
            length=self._length,
        )

    # -- principal-side API ---------------------------------------------------

    @staticmethod
    def derive_from_token(token: DualKeyRegressionToken, position: int) -> bytes:
        """Derive the key at ``position`` from a shared token.

        Raises :class:`KeyDerivationError` when ``position`` falls outside the
        token's ``[lower, upper]`` interval — by construction the required
        chain states cannot be computed in that case.
        """
        if not token.lower <= position <= token.upper:
            raise KeyDerivationError(
                f"token grants keys [{token.lower}, {token.upper}]; "
                f"position {position} is outside"
            )
        return _mix(
            walk(token.primary_state, token.upper - position),
            walk(token.secondary_state, position - token.lower),
        )


def _mix(primary: bytes, secondary: bytes) -> bytes:
    """The key at one position: ``KDF(s1 XOR s2)``."""
    return kdf(bytes(a ^ b for a, b in zip(primary, secondary)), "dual-key-regression")
