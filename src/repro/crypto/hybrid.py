"""Hybrid (ECIES-style) public-key encryption for access tokens.

TimeCrypt stores access tokens on the untrusted server, encrypted under each
principal's public key ("hybrid encryption", §3.2).  We realise this with an
ECIES construction over the P-256 group:

* an ephemeral keypair is generated per message,
* the shared point ``ephemeral_priv · recipient_pub`` is hashed, with the
  ephemeral public key, into an AEAD key,
* the payload is sealed with AES-GCM (or the pure-Python fallback).

The curve is the native ``cryptography`` P-256 when it imports, else the
from-scratch :mod:`repro.crypto.ecc`.  Native ECDH yields only x of the shared
point; y comes from the curve equation, its sign from a second exchange
(``x((k+1)·P) == x(S + P)``), so both paths key the AEAD identically.

The identity provider mapping principal identities to public keys (Keybase in
the paper) is modelled in :mod:`repro.access.principal`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

from repro.crypto import ecc
from repro.crypto.gcm import aead_decrypt, aead_encrypt
from repro.exceptions import DecryptionError

try:  # pragma: no cover - environment dependent
    from cryptography.hazmat.primitives.asymmetric import ec as _ec

    _CURVE = _ec.SECP256R1()
    _HAVE_NATIVE = True
except Exception:  # pragma: no cover
    _HAVE_NATIVE = False


@dataclass(frozen=True)
class HybridCiphertext:
    """An ECIES envelope: ephemeral public point plus sealed payload."""

    ephemeral_public: bytes
    sealed: bytes

    def encode(self) -> bytes:
        return (
            len(self.ephemeral_public).to_bytes(2, "big")
            + self.ephemeral_public
            + self.sealed
        )

    @staticmethod
    def decode(blob: bytes) -> "HybridCiphertext":
        if len(blob) < 2:
            raise DecryptionError("hybrid ciphertext too short")
        point_len = int.from_bytes(blob[:2], "big")
        if len(blob) < 2 + point_len:
            raise DecryptionError("hybrid ciphertext truncated")
        return HybridCiphertext(
            ephemeral_public=blob[2 : 2 + point_len], sealed=blob[2 + point_len :]
        )


def _derive_aead_key(shared_point: ecc.Point, ephemeral_public: bytes) -> bytes:
    material = shared_point.encode() + ephemeral_public
    return hashlib.sha256(b"timecrypt-ecies" + material).digest()[:16]


def _ecdh_x(scalar: int, peer: "_ec.EllipticCurvePublicKey") -> int:
    shared = _ec.derive_private_key(scalar, _CURVE).exchange(_ec.ECDH(), peer)
    return int.from_bytes(shared, "big")


def _shared_point(scalar: int, public: bytes) -> ecc.Point:
    """``scalar · public``; the point at infinity on either side is rejected."""
    point = ecc.Point.decode(public)
    scalar %= ecc.N
    if point.is_infinity or scalar == 0:
        raise DecryptionError("ECIES key agreement with the point at infinity")
    if not _HAVE_NATIVE or scalar == ecc.N - 1:
        return ecc.scalar_mult(scalar, point)
    peer = _ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, bytes(public))
    x = _ecdh_x(scalar, peer)
    shared = ecc.Point(x, pow(x * x * x + ecc.A * x + ecc.B, (ecc.P + 1) // 4, ecc.P))
    if ecc.point_add(shared, point).x != _ecdh_x(scalar + 1, peer):
        shared = ecc.point_neg(shared)
    return shared


def generate_keypair() -> Tuple[int, bytes]:
    """A recipient keypair ``(private_scalar, encoded_public_point)``."""
    if not _HAVE_NATIVE:
        private, public = ecc.generate_keypair()
        return private, public.encode()
    key = _ec.generate_private_key(_CURVE)
    numbers = key.public_key().public_numbers()
    return key.private_numbers().private_value, ecc.Point(numbers.x, numbers.y).encode()


def encrypt(recipient_public: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Seal ``plaintext`` for the holder of ``recipient_public``; returns an encoded envelope."""
    ephemeral_private, ephemeral_public = generate_keypair()
    shared = _shared_point(ephemeral_private, recipient_public)
    key = _derive_aead_key(shared, ephemeral_public)
    sealed = aead_encrypt(key, plaintext, aad)
    return HybridCiphertext(ephemeral_public=ephemeral_public, sealed=sealed).encode()


def decrypt(recipient_private: int, blob: bytes, aad: bytes = b"") -> bytes:
    """Open an envelope produced by :func:`encrypt`."""
    envelope = HybridCiphertext.decode(blob)
    shared = _shared_point(recipient_private, envelope.ephemeral_public)
    key = _derive_aead_key(shared, envelope.ephemeral_public)
    return aead_decrypt(key, envelope.sealed, aad)
