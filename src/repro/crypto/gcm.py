"""AES-GCM authenticated encryption (chunk payload cipher).

TimeCrypt encrypts the raw data points of every chunk with AES-GCM-128 under
a per-chunk key derived from the HEAC keystream (``H(k_i - k_{i+1})``).  This
module provides:

* :class:`AesGcm` — a from-scratch GCM implementation (CTR mode + GHASH)
  layered on the pure-Python block cipher in :mod:`repro.crypto.aes`.
* :func:`aead_encrypt` / :func:`aead_decrypt` — the functions the rest of the
  library uses, which transparently use the native ``cryptography`` backend
  when it is available (our stand-in for AES-NI) and fall back to the pure
  Python path otherwise.

The ciphertext layout produced by both paths is ``nonce (12B) || body || tag
(16B)`` so blobs are interchangeable between backends.
"""

from __future__ import annotations

import hmac
import os
from typing import Optional

from repro.crypto.aes import AES
from repro.exceptions import IntegrityError

NONCE_BYTES = 12
TAG_BYTES = 16

try:  # pragma: no cover - environment dependent
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM as _NativeAESGCM

    _HAVE_NATIVE = True
except Exception:  # pragma: no cover
    _HAVE_NATIVE = False


def _ghash_mult(x: int, y: int) -> int:
    """Multiplication in GF(2^128) with the GCM reduction polynomial."""
    result = 0
    reduction = 0xE1000000000000000000000000000000
    for bit_index in range(127, -1, -1):
        if (y >> bit_index) & 1:
            result ^= x
        if x & 1:
            x = (x >> 1) ^ reduction
        else:
            x >>= 1
    return result


class _GHash:
    """The GHASH universal hash over GF(2^128)."""

    def __init__(self, h_key: bytes) -> None:
        self._h = int.from_bytes(h_key, "big")
        self._state = 0

    def update(self, data: bytes) -> None:
        padded = data + b"\x00" * ((16 - len(data) % 16) % 16)
        for offset in range(0, len(padded), 16):
            block = int.from_bytes(padded[offset : offset + 16], "big")
            self._state = _ghash_mult(self._state ^ block, self._h)

    def update_lengths(self, aad_len: int, ct_len: int) -> None:
        block = (aad_len * 8).to_bytes(8, "big") + (ct_len * 8).to_bytes(8, "big")
        self._state = _ghash_mult(self._state ^ int.from_bytes(block, "big"), self._h)

    def digest(self) -> bytes:
        return self._state.to_bytes(16, "big")


class AesGcm:
    """AES in Galois/Counter Mode, implemented from the spec.

    This reference path is slow (pure Python) but exercised by tests against
    NIST vectors and kept interoperable with the native backend.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError("AES-GCM key must be 16, 24, or 32 bytes")
        self._aes = AES(key)
        self._h = self._aes.encrypt_block(b"\x00" * 16)

    def _counter_block(self, nonce: bytes, counter: int) -> bytes:
        if len(nonce) == 12:
            return nonce + counter.to_bytes(4, "big")
        ghash = _GHash(self._h)
        ghash.update(nonce)
        ghash.update_lengths(0, len(nonce))
        j0 = int.from_bytes(ghash.digest(), "big")
        return ((j0 + counter - 1) & ((1 << 128) - 1)).to_bytes(16, "big")

    def _ctr_transform(self, nonce: bytes, data: bytes) -> bytes:
        out = bytearray()
        counter = 2
        for offset in range(0, len(data), 16):
            keystream = self._aes.encrypt_block(self._counter_block(nonce, counter))
            block = data[offset : offset + 16]
            out += bytes(a ^ b for a, b in zip(block, keystream))
            counter += 1
        return bytes(out)

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        ghash = _GHash(self._h)
        ghash.update(aad)
        ghash.update(ciphertext)
        ghash.update_lengths(len(aad), len(ciphertext))
        s = self._aes.encrypt_block(self._counter_block(nonce, 1))
        return bytes(a ^ b for a, b in zip(ghash.digest(), s))

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Return ``ciphertext || tag`` for the given nonce and associated data."""
        ciphertext = self._ctr_transform(nonce, plaintext)
        return ciphertext + self._tag(nonce, ciphertext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and return the plaintext; raises on tampering."""
        if len(data) < TAG_BYTES:
            raise IntegrityError("ciphertext shorter than the GCM tag")
        ciphertext, tag = data[:-TAG_BYTES], data[-TAG_BYTES:]
        expected = self._tag(nonce, ciphertext, aad)
        if not hmac.compare_digest(tag, expected):
            raise IntegrityError("AES-GCM tag mismatch")
        return self._ctr_transform(nonce, ciphertext)


def aead_encrypt(
    key: bytes,
    plaintext: bytes,
    aad: bytes = b"",
    nonce: Optional[bytes] = None,
    force_pure_python: bool = False,
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
    if _HAVE_NATIVE and not force_pure_python:
        body = _NativeAESGCM(key).encrypt(nonce, plaintext, aad or None)
        return nonce + body
    return nonce + AesGcm(key).encrypt(nonce, plaintext, aad)


def aead_decrypt(
    key: bytes, blob: bytes, aad: bytes = b"", force_pure_python: bool = False
) -> bytes:
    """Decrypt a blob produced by :func:`aead_encrypt`; raises :class:`IntegrityError`."""
    if len(blob) < NONCE_BYTES + TAG_BYTES:
        raise IntegrityError("AEAD blob too short")
    nonce, body = blob[:NONCE_BYTES], blob[NONCE_BYTES:]
    if _HAVE_NATIVE and not force_pure_python:
        try:
            return _NativeAESGCM(key).decrypt(nonce, body, aad or None)
        except Exception as exc:
            raise IntegrityError("AES-GCM tag mismatch") from exc
    return AesGcm(key).decrypt(bytes(nonce), bytes(body), aad)
