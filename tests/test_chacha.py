"""Tests for the from-scratch ChaCha20-Poly1305 implementation (RFC 8439 vectors)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.chacha import (
    ChaCha20Poly1305,
    chacha20_block,
    chacha20_xor,
    chacha_decrypt,
    chacha_encrypt,
    poly1305_mac,
)
from repro.exceptions import IntegrityError

RFC_KEY = bytes.fromhex(
    "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
)
RFC_NONCE = bytes.fromhex("070000004041424344454647")
RFC_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
RFC_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
RFC_TAG = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")


class TestChaCha20Block:
    def test_rfc8439_block_function(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_block(key, 1, nonce)
        assert block[:16].hex() == "10f1e7e4d13b5915500fdd1fa32071c4"

    def test_invalid_key_and_nonce(self):
        with pytest.raises(ValueError):
            chacha20_block(b"short", 1, bytes(12))
        with pytest.raises(ValueError):
            chacha20_block(bytes(32), 1, b"short")

    def test_stream_xor_is_involutive(self):
        key = bytes(32)
        nonce = bytes(12)
        data = b"some stream data spanning multiple chacha blocks " * 3
        once = chacha20_xor(key, nonce, data)
        assert chacha20_xor(key, nonce, once) == data


class TestPoly1305:
    def test_rfc8439_mac_vector(self):
        key = bytes.fromhex(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
        )
        message = b"Cryptographic Forum Research Group"
        assert poly1305_mac(key, message).hex() == "a8061dc1305136c6c22b8baf0c0127a9"

    def test_invalid_key_length(self):
        with pytest.raises(ValueError):
            poly1305_mac(b"short", b"msg")


class TestChaCha20Poly1305:
    def test_rfc8439_aead_vector(self):
        out = ChaCha20Poly1305(RFC_KEY).encrypt(RFC_NONCE, RFC_PLAINTEXT, RFC_AAD)
        assert out[-16:] == RFC_TAG

    def test_rfc8439_aead_roundtrip(self):
        aead = ChaCha20Poly1305(RFC_KEY)
        blob = aead.encrypt(RFC_NONCE, RFC_PLAINTEXT, RFC_AAD)
        assert aead.decrypt(RFC_NONCE, blob, RFC_AAD) == RFC_PLAINTEXT

    def test_tamper_detection(self):
        aead = ChaCha20Poly1305(RFC_KEY)
        blob = bytearray(aead.encrypt(RFC_NONCE, RFC_PLAINTEXT, RFC_AAD))
        blob[3] ^= 0x40
        with pytest.raises(IntegrityError):
            aead.decrypt(RFC_NONCE, bytes(blob), RFC_AAD)

    def test_wrong_aad_rejected(self):
        aead = ChaCha20Poly1305(RFC_KEY)
        blob = aead.encrypt(RFC_NONCE, RFC_PLAINTEXT, RFC_AAD)
        with pytest.raises(IntegrityError):
            aead.decrypt(RFC_NONCE, blob, b"different aad")

    def test_short_blob_rejected(self):
        with pytest.raises(IntegrityError):
            ChaCha20Poly1305(RFC_KEY).decrypt(RFC_NONCE, b"x")

    def test_invalid_key_length(self):
        with pytest.raises(ValueError):
            ChaCha20Poly1305(b"short")


class TestChaChaHelpers:
    def test_roundtrip_with_random_nonce(self):
        key = b"k" * 32
        blob = chacha_encrypt(key, b"hello", b"aad")
        assert chacha_decrypt(key, blob, b"aad") == b"hello"

    def test_wrong_key_fails(self):
        blob = chacha_encrypt(b"a" * 32, b"hello")
        with pytest.raises(IntegrityError):
            chacha_decrypt(b"b" * 32, blob)

    def test_explicit_nonce_respected(self):
        key = b"k" * 32
        blob = chacha_encrypt(key, b"hello", nonce=bytes(12))
        assert blob[:12] == bytes(12)

    def test_invalid_nonce_length(self):
        with pytest.raises(ValueError):
            chacha_encrypt(b"k" * 32, b"hello", nonce=b"short")

    @given(st.binary(max_size=500), st.binary(max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plaintext, aad):
        key = b"z" * 32
        assert chacha_decrypt(key, chacha_encrypt(key, plaintext, aad), aad) == plaintext
