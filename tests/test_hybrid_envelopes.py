"""Token sealing (``crypto/hybrid.py``) on both curve paths.

Access tokens are sealed ECIES-style: the AEAD key hashes the *full* shared
point ``k·P`` plus the ephemeral public key.  The native ``cryptography``
P-256 only hands back x, so the native path recovers y and its sign; the
pure-Python curve in ``crypto/ecc.py`` is the fallback when the package does
not import.  The evidence that the two paths are one format:

* **golden fixtures** (``tests/fixtures/crypto/golden_envelopes.json``,
  recorded with the pure-Python path at the commit before the native one
  existed): shared-point encodings for ``1 << n`` (n = 0..255)
  plus 2, N-2, N-1 and N+1 times two fixed points, and envelopes sealed under
  fixed recipient scalars — recomputed / opened on both paths;
* a ``hypothesis`` property: native and pure shared points agree;
* cross-path round trips: each path opens the other's envelopes.

The paths are switched by flipping the module flag ``hybrid._HAVE_NATIVE``
(the pure path is otherwise reachable only when ``cryptography`` is absent).
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
NATIVE_AVAILABLE = hybrid._HAVE_NATIVE
needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason="the native P-256 path needs the cryptography package"
)
PATHS = [pytest.param(True, id="native", marks=needs_native), pytest.param(False, id="pure")]


@pytest.fixture(params=PATHS)
def native(request, monkeypatch):
    """Run the test on one curve path by flipping the module flag."""
    monkeypatch.setattr(hybrid, "_HAVE_NATIVE", request.param)
    return request.param


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


# -- golden fixtures and cross-path agreement -------------------------------------------


class TestGoldenEnvelopes:
    def test_fixture_covers_the_sweep(self):
        scalars = {scalar for _name, scalar, _shared in _golden_rows()}
        assert {1 << n for n in range(256)} | {2, ecc.N - 2, ecc.N - 1, ecc.N + 1} == scalars
        assert set(GOLDEN["shared"]) == set(GOLDEN["points"])

    def test_shared_points_match_the_parent(self, native):
        for name, scalar, shared in _golden_rows():
            point = bytes.fromhex(GOLDEN["points"][name])
            assert hybrid._shared_point(scalar, point).encode().hex() == shared, (name, hex(scalar))

    def test_parent_envelopes_open(self, native):
        for case in GOLDEN["envelopes"]:
            private = int(case["recipient_private"], 16)
            assert ecc.scalar_mult(private).encode().hex() == case["recipient_public"]
            opened = hybrid.decrypt(
                private, bytes.fromhex(case["envelope"]), bytes.fromhex(case["aad"])
            )
            assert opened.hex() == case["plaintext"]

    def test_envelope_layout_is_unchanged(self, native):
        private, public = hybrid.generate_keypair()
        assert len(public) == 65 and public[0] == 0x04
        assert ecc.scalar_mult(private).encode() == public
        blob = hybrid.encrypt(public, b"abc", b"ctx")
        envelope = hybrid.HybridCiphertext.decode(blob)
        assert blob[:2] == (65).to_bytes(2, "big")
        assert ecc.is_on_curve(ecc.Point.decode(envelope.ephemeral_public))
        assert len(envelope.sealed) == 12 + 3 + 16


@needs_native
class TestCrossPath:
    @given(
        scalar=st.one_of(st.integers(1, ecc.N - 1), st.sampled_from([1, 2, ecc.N - 2, ecc.N - 1])),
        point_scalar=st.integers(1, ecc.N - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_native_and_pure_shared_points_agree(self, scalar, point_scalar):
        point = ecc.scalar_mult(point_scalar).encode()
        try:
            hybrid._HAVE_NATIVE = True
            native_shared = hybrid._shared_point(scalar, point)
            hybrid._HAVE_NATIVE = False
            pure_shared = hybrid._shared_point(scalar, point)
        finally:
            hybrid._HAVE_NATIVE = NATIVE_AVAILABLE
        assert native_shared == pure_shared == ecc.scalar_mult(scalar, ecc.Point.decode(point))

    @pytest.mark.parametrize("seal_native", [True, False], ids=["native-seals", "pure-seals"])
    def test_each_path_opens_the_others_envelopes(self, monkeypatch, seal_native):
        monkeypatch.setattr(hybrid, "_HAVE_NATIVE", seal_native)
        private, public = hybrid.generate_keypair()
        blob = hybrid.encrypt(public, b"token bytes", b"stream-1")
        monkeypatch.setattr(hybrid, "_HAVE_NATIVE", not seal_native)
        assert hybrid.decrypt(private, blob, b"stream-1") == b"token bytes"
        assert hybrid.decrypt(private, hybrid.encrypt(public, b"back", b"")) == b"back"


# -- forged and malformed keys ----------------------------------------------------------


class TestForgeryAndDecoding:
    def test_point_at_infinity_ephemeral_is_refused(self, native):
        principal = Principal.create("victim")
        forged = _forged_envelope(b"attacker-chosen token", b"stream-1")
        with pytest.raises(DecryptionError):
            principal.decrypt_envelope(forged, context=b"stream-1")

    def test_point_at_infinity_recipient_is_refused(self, native):
        with pytest.raises(DecryptionError):
            hybrid.encrypt(ecc.INFINITY.encode(), b"token")
        _private, public = hybrid.generate_keypair()
        blob = hybrid.encrypt(public, b"token")
        for zero in (0, ecc.N):
            with pytest.raises(DecryptionError):
                hybrid.decrypt(zero, blob)

    def test_non_canonical_coordinates_are_refused(self):
        with pytest.raises(CryptoError):
            ecc.Point.decode(_non_canonical_point())

    def test_both_paths_refuse_the_same_bytes_the_same_way(self, native):
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
    def test_roundtrip(self, native, size):
        private, public = hybrid.generate_keypair()
        payload = bytes(i % 251 for i in range(size))
        blob = hybrid.encrypt(public, payload, b"ctx")
        assert hybrid.decrypt(private, blob, b"ctx") == payload
        # The wire hands envelopes over as memoryviews of the receive buffer.
        assert hybrid.decrypt(private, memoryview(blob), b"ctx") == payload

    def test_wrong_principal_key_fails(self, native):
        _private_a, public_a = hybrid.generate_keypair()
        private_b, _public_b = hybrid.generate_keypair()
        with pytest.raises(DecryptionError):
            hybrid.decrypt(private_b, hybrid.encrypt(public_a, b"token", b"ctx"), b"ctx")

    def test_wrong_context_fails(self, native):
        private, public = hybrid.generate_keypair()
        blob = hybrid.encrypt(public, b"token", b"stream-1")
        for context in (b"", b"stream-2", b"stream-1\x00"):
            with pytest.raises(DecryptionError):
                hybrid.decrypt(private, blob, context)

    def test_every_bit_flip_and_cut_of_a_sealed_token_is_refused(self, native, monkeypatch):
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
