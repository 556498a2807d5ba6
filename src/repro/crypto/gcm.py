"""AES-GCM authenticated encryption (chunk payload cipher).

TimeCrypt encrypts the raw data points of every chunk with AES-GCM-128 under
a per-chunk key derived from the HEAC keystream (``H(k_i - k_{i+1})``).
:func:`aead_encrypt` / :func:`aead_decrypt` run on the ``cryptography``
package's native AES-GCM, our stand-in for AES-NI.  The ciphertext layout is
``nonce (12B) || body || tag (16B)``.
"""

from __future__ import annotations

import os
from typing import Optional

from cryptography.hazmat.primitives.ciphers.aead import AESGCM as _NativeAESGCM

from repro.exceptions import IntegrityError

NONCE_BYTES = 12
TAG_BYTES = 16


def aead_encrypt(
    key: bytes, plaintext: bytes, aad: bytes = b"", nonce: Optional[bytes] = None
) -> bytes:
    """Encrypt with AES-GCM; returns ``nonce || ciphertext || tag``.

    A random 96-bit nonce is generated when none is supplied.  Nonce reuse
    under the same key breaks GCM; TimeCrypt avoids it by deriving a fresh
    key per chunk, and callers that pass explicit nonces are responsible for
    uniqueness.
    """
    if nonce is None:
        nonce = os.urandom(NONCE_BYTES)
    if len(nonce) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} bytes")
    return nonce + _NativeAESGCM(key).encrypt(nonce, plaintext, aad or None)


def aead_decrypt(key: bytes, blob: bytes, aad: bytes = b"") -> bytes:
    """Decrypt a blob produced by :func:`aead_encrypt`; raises :class:`IntegrityError`."""
    if len(blob) < NONCE_BYTES + TAG_BYTES:
        raise IntegrityError("AEAD blob too short")
    nonce, body = blob[:NONCE_BYTES], blob[NONCE_BYTES:]
    try:
        return _NativeAESGCM(key).decrypt(nonce, body, aad or None)
    except Exception as exc:
        raise IntegrityError("AES-GCM tag mismatch") from exc
