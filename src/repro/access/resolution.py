"""Resolution keystreams: outer-key sharing via dual key regression (paper §4.4).

To restrict a principal to, say, 6-chunk aggregates, the owner shares only
every 6th key of the HEAC keystream ("outer keys").  Those keys are not
contiguous leaves of the key-derivation tree, so sharing them through tree
tokens would be inefficient.  Instead the owner:

1. creates a *resolution keystream* — a dual-key-regression instance whose
   i-th key wraps the outer key ``k_{i·r}`` (r = resolution in chunks),
2. uploads the wrapped outer keys ("key envelopes") to the server, and
3. shares a bounded dual-key-regression token with the principal.

The principal downloads the envelopes for their interval, unwraps the outer
keys with the regression keys, and can then decrypt exactly the r-chunk
aggregates (and coarser multiples), never anything finer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.crypto.gcm import aead_decrypt, aead_encrypt
from repro.crypto.heac import Keystream, _fetch_leaves
from repro.crypto.keyregression import DualKeyRegression, DualKeyRegressionToken
from repro.exceptions import AccessDeniedError, KeyDerivationError


def _aad(stream_uuid: str, resolution_chunks: int, window_index: int) -> bytes:
    """What an envelope is bound to: its stream, resolution and window."""
    return f"{stream_uuid}:{resolution_chunks}:{window_index}".encode()


@dataclass(frozen=True)
class ResolutionShare:
    """What a principal receives for resolution-restricted access.

    ``token`` bounds the derivable regression keys to the envelope indices
    ``[token.lower, token.upper]``; each envelope index ``e`` corresponds to
    outer key ``k_{e·resolution_chunks}``.
    """

    stream_uuid: str
    resolution_chunks: int
    token: DualKeyRegressionToken


class ResolutionKeystream:
    """Owner-side state for one resolution level of one stream."""

    def __init__(
        self,
        stream_uuid: str,
        resolution_chunks: int,
        base_keystream: Keystream,
        length: int = 1 << 16,
    ) -> None:
        if resolution_chunks < 1:
            raise ValueError("resolution must be at least one chunk")
        self._stream_uuid = stream_uuid
        self._resolution_chunks = resolution_chunks
        self._base = base_keystream
        self._regression = DualKeyRegression(length=length)

    @property
    def resolution_chunks(self) -> int:
        return self._resolution_chunks

    @property
    def stream_uuid(self) -> str:
        return self._stream_uuid

    # -- envelopes (owner -> server) ------------------------------------------

    def envelope_index(self, window_index: int) -> int:
        """The envelope covering outer key ``k_window_index`` (must be aligned)."""
        if window_index % self._resolution_chunks != 0:
            raise KeyDerivationError(
                f"window {window_index} is not aligned to the {self._resolution_chunks}-chunk "
                "resolution"
            )
        return window_index // self._resolution_chunks

    def make_envelopes(self, window_start: int, window_end: int) -> Dict[int, bytes]:
        """Envelopes for every aligned boundary in ``[window_start, window_end]``.

        One run of regression keys and one shared tree walk for the outer
        keys, then one AEAD per envelope wrapping ``k_w`` under key ``w / r``.
        """
        resolution = self._resolution_chunks
        first = -(-window_start // resolution)
        last = window_end // resolution
        if last < first:
            return {}
        windows = [index * resolution for index in range(first, last + 1)]
        wrapping_keys = self._regression.keys(first, last + 1)
        outer_keys = _fetch_leaves(self._base, windows)
        return {
            window: aead_encrypt(key, outer, _aad(self._stream_uuid, resolution, window))
            for window, key, outer in zip(windows, wrapping_keys, outer_keys)
        }

    # -- sharing (owner -> principal) --------------------------------------------

    def share(self, window_start: int, window_end: int) -> ResolutionShare:
        """Token granting the outer keys for aligned boundaries in the interval.

        ``window_start`` and ``window_end`` are chunk-window indices; the
        share covers boundaries ``align_up(start) .. align_down(end)``.
        """
        first = (window_start + self._resolution_chunks - 1) // self._resolution_chunks
        last = window_end // self._resolution_chunks
        if last < first:
            raise KeyDerivationError(
                "the requested interval contains no aligned resolution boundary"
            )
        return ResolutionShare(
            stream_uuid=self._stream_uuid,
            resolution_chunks=self._resolution_chunks,
            token=self._regression.share(first, last),
        )


class ResolutionConsumerKeystream:
    """Principal-side keystream reconstructing outer keys from envelopes.

    Implements the :class:`~repro.crypto.heac.Keystream` protocol so it can be
    plugged straight into :class:`~repro.crypto.heac.HEACCipher`: ``leaf(i)``
    succeeds only for window indices aligned to the granted resolution and
    inside the granted interval — everything else raises, which is exactly
    the cryptographic guarantee (missing inner keys) the paper describes.
    """

    def __init__(self, share: ResolutionShare, envelopes: Dict[int, bytes]) -> None:
        self._share = share
        self._envelopes = dict(envelopes)
        self._cache: Dict[int, bytes] = {}

    @property
    def resolution_chunks(self) -> int:
        return self._share.resolution_chunks

    def covered_windows(self) -> List[int]:
        """The aligned window boundaries this keystream can produce keys for."""
        return [
            envelope_index * self._share.resolution_chunks
            for envelope_index in range(self._share.token.lower, self._share.token.upper + 1)
        ]

    def leaf(self, window_index: int) -> bytes:
        if window_index % self._share.resolution_chunks != 0:
            raise KeyDerivationError(
                f"window {window_index} is finer than the granted "
                f"{self._share.resolution_chunks}-chunk resolution"
            )
        cached = self._cache.get(window_index)
        if cached is not None:
            return cached
        envelope_index = window_index // self._share.resolution_chunks
        envelope = self._envelopes.get(window_index)
        if envelope is None:
            raise AccessDeniedError(f"no key envelope available for window {window_index}")
        wrapping_key = DualKeyRegression.derive_from_token(self._share.token, envelope_index)
        aad = _aad(self._share.stream_uuid, self._share.resolution_chunks, window_index)
        outer_key = aead_decrypt(wrapping_key, envelope, aad)
        self._cache[window_index] = outer_key
        return outer_key
