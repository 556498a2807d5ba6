"""Token sealing (``crypto/hybrid.py``) on the native P-256.

Access tokens are sealed ECIES-style: the AEAD key hashes the *full* shared
point ``k·P`` plus the ephemeral public key.  The native ``cryptography``
P-256 only hands back x, so ``hybrid`` recovers y and its sign.  The evidence
that it computes the full point the format was defined with:

* **golden fixtures** (``tests/fixtures/crypto/golden_envelopes.json``,
  recorded with the from-scratch curve in ``crypto/ecc.py`` before the native
  one existed): shared-point encodings for ``1 << n`` (n = 0..255)
  plus 2, N-2, N-1 and N+1 times two fixed points, and envelopes sealed under
  fixed recipient scalars — recomputed / opened here;
* a ``hypothesis`` property: the native shared point equals
  ``ecc.scalar_mult``.

Every refusal — wrong key, wrong context, a flipped bit, a cut envelope, a
forged ephemeral key — must raise a typed :class:`TimeCryptError`, never
return bytes and never leak a bare ``ValueError`` from the native layer.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.grants import GrantManager
from repro.access.keystore import TokenStore
from repro.access.policy import AccessPolicy
from repro.access.principal import IdentityProvider, Principal
from repro.access.tokens import AccessToken
from repro.crypto import ecc, hybrid
from repro.crypto.gcm import aead_encrypt
from repro.crypto.keytree import KeyDerivationTree
from repro.exceptions import CryptoError, DecryptionError, TimeCryptError
from repro.timeseries.stream import StreamConfig
from repro.util.timeutil import TimeRange

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "crypto" / "golden_envelopes.json").read_text()
)
def _golden_rows():
    for name, rows in GOLDEN["shared"].items():
        for scalar, shared in rows:
            yield name, int(scalar, 16), shared


def _forged_envelope(token: bytes, aad: bytes) -> bytes:
    """The point-at-infinity forgery: the AEAD key is a public constant."""
    key = hashlib.sha256(b"timecrypt-ecies" + b"\x00" + b"\x00").digest()[:16]
    return hybrid.HybridCiphertext(b"\x00", aead_encrypt(key, token, aad)).encode()


def _non_canonical_point() -> bytes:
    """``(5 + p, y)`` for the on-curve point ``(5, y)``: x does not fit the field."""
    x = 5
    y = pow(x * x * x + ecc.A * x + ecc.B, (ecc.P + 1) // 4, ecc.P)
    assert ecc.is_on_curve(ecc.Point(x, y))
    return b"\x04" + (x + ecc.P).to_bytes(32, "big") + y.to_bytes(32, "big")


# -- golden fixtures and the reference curve --------------------------------------------


class TestGoldenEnvelopes:
    def test_fixture_covers_the_sweep(self):
        scalars = {scalar for _name, scalar, _shared in _golden_rows()}
        assert {1 << n for n in range(256)} | {2, ecc.N - 2, ecc.N - 1, ecc.N + 1} == scalars
        assert set(GOLDEN["shared"]) == set(GOLDEN["points"])

    def test_shared_points_match_the_parent(self):
        for name, scalar, shared in _golden_rows():
            point = bytes.fromhex(GOLDEN["points"][name])
            assert hybrid._shared_point(scalar, point).encode().hex() == shared, (name, hex(scalar))

    def test_parent_envelopes_open(self):
        for case in GOLDEN["envelopes"]:
            private = int(case["recipient_private"], 16)
            assert ecc.scalar_mult(private).encode().hex() == case["recipient_public"]
            opened = hybrid.decrypt(
                private, bytes.fromhex(case["envelope"]), bytes.fromhex(case["aad"])
            )
            assert opened.hex() == case["plaintext"]

    def test_envelope_layout_is_unchanged(self):
        private, public = hybrid.generate_keypair()
        assert len(public) == 65 and public[0] == 0x04
        assert ecc.scalar_mult(private).encode() == public
        blob = hybrid.encrypt(public, b"abc", b"ctx")
        envelope = hybrid.HybridCiphertext.decode(blob)
        assert blob[:2] == (65).to_bytes(2, "big")
        assert ecc.is_on_curve(ecc.Point.decode(envelope.ephemeral_public))
        assert len(envelope.sealed) == 12 + 3 + 16

    def test_generated_keypairs_are_fresh_and_in_range(self):
        pairs = [hybrid.generate_keypair() for _ in range(4)]
        assert len({private for private, _public in pairs}) == len(pairs)
        for private, public in pairs:
            assert 1 <= private < ecc.N
            assert ecc.scalar_mult(private).encode() == public

    @given(
        scalar=st.one_of(st.integers(1, ecc.N - 1), st.sampled_from([1, 2, ecc.N - 2, ecc.N - 1])),
        point_scalar=st.integers(1, ecc.N - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_native_shared_point_matches_the_reference_curve(self, scalar, point_scalar):
        point = ecc.scalar_mult(point_scalar).encode()
        shared = hybrid._shared_point(scalar, point)
        assert shared == ecc.scalar_mult(scalar, ecc.Point.decode(point))


# -- forged and malformed keys ----------------------------------------------------------


class TestForgeryAndDecoding:
    def test_point_at_infinity_ephemeral_is_refused(self):
        principal = Principal.create("victim")
        forged = _forged_envelope(b"attacker-chosen token", b"stream-1")
        with pytest.raises(DecryptionError):
            principal.decrypt_envelope(forged, context=b"stream-1")

    def test_point_at_infinity_recipient_is_refused(self):
        with pytest.raises(DecryptionError):
            hybrid.encrypt(ecc.INFINITY.encode(), b"token")
        _private, public = hybrid.generate_keypair()
        blob = hybrid.encrypt(public, b"token")
        for zero in (0, ecc.N):
            with pytest.raises(DecryptionError):
                hybrid.decrypt(zero, blob)

    def test_another_valid_ephemeral_key_is_refused(self):
        """The AEAD key binds the ephemeral point: a swapped on-curve point cannot open it."""
        private, public = hybrid.generate_keypair()
        envelope = hybrid.HybridCiphertext.decode(hybrid.encrypt(public, b"token", b"ctx"))
        _other_private, other_public = hybrid.generate_keypair()
        swapped = hybrid.HybridCiphertext(other_public, envelope.sealed).encode()
        with pytest.raises(DecryptionError):
            hybrid.decrypt(private, swapped, b"ctx")

    def test_non_canonical_coordinates_are_refused(self):
        with pytest.raises(CryptoError):
            ecc.Point.decode(_non_canonical_point())

    def test_malformed_points_are_refused(self):
        private, _public = hybrid.generate_keypair()
        bad_points = [_non_canonical_point(), b"\x04" + b"\x01" * 64, b"\x02" + b"\x01" * 32]
        for point in bad_points:
            blob = hybrid.HybridCiphertext(point, b"\x00" * 40).encode()
            with pytest.raises(CryptoError):
                hybrid.decrypt(private, blob)
            with pytest.raises(CryptoError):
                hybrid.encrypt(point, b"token")


# -- round trip, wrong key, tamper ------------------------------------------------------


def _sealed_token():
    """A real grant's sealed access token and the principal it is sealed for."""
    config = StreamConfig(chunk_interval=1_000, key_tree_height=16, index_fanout=4)
    manager = GrantManager(
        stream_uuid="stream-1",
        config=config,
        key_tree=KeyDerivationTree(seed=b"\x21" * 16, height=16, prg="blake2"),
        identity_provider=IdentityProvider(),
        token_store=TokenStore(),
    )
    principal = Principal.create("doc")
    manager.identity_provider.register(principal)
    manager.grant(AccessPolicy("stream-1", "doc", TimeRange(2_000, 4_000)))
    return principal, manager.token_store.latest_grant("stream-1", "doc")


class TestEnvelopeTamper:
    @pytest.mark.parametrize("size", [0, 1, 64 * 1024], ids=["empty", "1B", "64KiB"])
    def test_roundtrip(self, size):
        private, public = hybrid.generate_keypair()
        payload = bytes(i % 251 for i in range(size))
        blob = hybrid.encrypt(public, payload, b"ctx")
        assert hybrid.decrypt(private, blob, b"ctx") == payload
        # The wire hands envelopes over as memoryviews of the receive buffer.
        assert hybrid.decrypt(private, memoryview(blob), b"ctx") == payload

    def test_each_seal_uses_a_fresh_ephemeral_key(self):
        private, public = hybrid.generate_keypair()
        blobs = [hybrid.encrypt(public, b"token", b"ctx") for _ in range(4)]
        ephemerals = {hybrid.HybridCiphertext.decode(blob).ephemeral_public for blob in blobs}
        assert len(ephemerals) == len(blobs)
        assert all(hybrid.decrypt(private, blob, b"ctx") == b"token" for blob in blobs)

    def test_wrong_principal_key_fails(self):
        _private_a, public_a = hybrid.generate_keypair()
        private_b, _public_b = hybrid.generate_keypair()
        with pytest.raises(DecryptionError):
            hybrid.decrypt(private_b, hybrid.encrypt(public_a, b"token", b"ctx"), b"ctx")

    def test_wrong_context_fails(self):
        private, public = hybrid.generate_keypair()
        blob = hybrid.encrypt(public, b"token", b"stream-1")
        for context in (b"", b"stream-2", b"stream-1\x00"):
            with pytest.raises(DecryptionError):
                hybrid.decrypt(private, blob, context)

    def test_every_bit_flip_and_cut_of_a_sealed_token_is_refused(self, monkeypatch):
        principal, sealed = _sealed_token()
        token = AccessToken.from_bytes(principal.decrypt_envelope(sealed, context=b"stream-1"))
        assert (token.window_start, token.window_end) == (2, 4)
        # The key agreement is a pure function of (scalar, ephemeral bytes); memoising
        # it keeps the sweep to AEAD cost without changing what is refused.
        monkeypatch.setattr(
            hybrid, "_shared_point", functools.lru_cache(maxsize=None)(hybrid._shared_point)
        )
        for bit in range(len(sealed) * 8):
            tampered = bytearray(sealed)
            tampered[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(TimeCryptError):
                principal.decrypt_envelope(bytes(tampered), context=b"stream-1")
        for cut in range(len(sealed)):
            with pytest.raises(TimeCryptError):
                principal.decrypt_envelope(sealed[:cut], context=b"stream-1")
