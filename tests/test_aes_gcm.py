"""Tests for the pure-Python AES block cipher and AES-GCM."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.gcm import AesGcm, aead_decrypt, aead_encrypt
from repro.exceptions import IntegrityError


class TestAESBlockCipher:
    # FIPS-197 appendix C vectors.
    PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_fips_aes128_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(self.PLAINTEXT) == expected
        assert AES(key).decrypt_block(expected) == self.PLAINTEXT

    def test_fips_aes192_vector(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(self.PLAINTEXT) == expected

    def test_fips_aes256_vector(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(self.PLAINTEXT) == expected
        assert AES(key).decrypt_block(expected) == self.PLAINTEXT

    def test_invalid_key_length(self):
        with pytest.raises(ValueError):
            AES(b"short")

    def test_invalid_block_length(self):
        cipher = AES(b"0" * 16)
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"too-short")
        with pytest.raises(ValueError):
            cipher.decrypt_block(b"x" * 17)

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=20, deadline=None)
    def test_encrypt_decrypt_roundtrip(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


class TestAesGcm:
    # NIST GCM test case 4 (AES-128, 96-bit IV, with AAD).
    KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    IV = bytes.fromhex("cafebabefacedbaddecaf888")
    AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
    PLAINTEXT = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
    )
    CIPHERTEXT = bytes.fromhex(
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
    )
    TAG = bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")

    def test_nist_vector_encrypt(self):
        out = AesGcm(self.KEY).encrypt(self.IV, self.PLAINTEXT, self.AAD)
        assert out[:-16] == self.CIPHERTEXT
        assert out[-16:] == self.TAG

    def test_nist_vector_decrypt(self):
        out = AesGcm(self.KEY).decrypt(self.IV, self.CIPHERTEXT + self.TAG, self.AAD)
        assert out == self.PLAINTEXT

    def test_empty_plaintext_nist_case1(self):
        key = bytes(16)
        iv = bytes(12)
        out = AesGcm(key).encrypt(iv, b"", b"")
        assert out.hex() == "58e2fccefa7e3061367f1d57a4e7455a"

    def test_tamper_detection_ciphertext(self):
        gcm = AesGcm(self.KEY)
        blob = bytearray(gcm.encrypt(self.IV, self.PLAINTEXT, self.AAD))
        blob[0] ^= 1
        with pytest.raises(IntegrityError):
            gcm.decrypt(self.IV, bytes(blob), self.AAD)

    def test_tamper_detection_aad(self):
        gcm = AesGcm(self.KEY)
        blob = gcm.encrypt(self.IV, self.PLAINTEXT, self.AAD)
        with pytest.raises(IntegrityError):
            gcm.decrypt(self.IV, blob, self.AAD + b"x")

    def test_short_ciphertext_rejected(self):
        with pytest.raises(IntegrityError):
            AesGcm(self.KEY).decrypt(self.IV, b"short")


class TestAeadHelpers:
    def test_roundtrip_native_backend(self):
        key = b"k" * 16
        blob = aead_encrypt(key, b"payload", b"aad")
        assert aead_decrypt(key, blob, b"aad") == b"payload"

    def test_roundtrip_pure_python(self):
        key = b"k" * 16
        blob = aead_encrypt(key, b"payload", b"aad", force_pure_python=True)
        assert aead_decrypt(key, blob, b"aad", force_pure_python=True) == b"payload"
        # Sealed tokens arrive off the wire as memoryviews of the receive buffer.
        assert aead_decrypt(key, memoryview(blob), b"aad", force_pure_python=True) == b"payload"

    def test_cross_backend_interoperability(self):
        key = b"q" * 16
        blob_pure = aead_encrypt(key, b"data", b"ctx", force_pure_python=True)
        assert aead_decrypt(key, blob_pure, b"ctx") == b"data"
        blob_native = aead_encrypt(key, b"data", b"ctx")
        assert aead_decrypt(key, blob_native, b"ctx", force_pure_python=True) == b"data"

    def test_wrong_key_fails(self):
        blob = aead_encrypt(b"a" * 16, b"data")
        with pytest.raises(IntegrityError):
            aead_decrypt(b"b" * 16, blob)

    def test_wrong_aad_fails(self):
        blob = aead_encrypt(b"a" * 16, b"data", b"aad1")
        with pytest.raises(IntegrityError):
            aead_decrypt(b"a" * 16, blob, b"aad2")

    def test_truncated_blob_rejected(self):
        with pytest.raises(IntegrityError):
            aead_decrypt(b"a" * 16, b"tiny")

    def test_invalid_nonce_length(self):
        with pytest.raises(ValueError):
            aead_encrypt(b"a" * 16, b"data", nonce=b"short")

    @given(st.binary(max_size=300), st.binary(max_size=40))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, plaintext, aad):
        key = b"p" * 16
        assert aead_decrypt(key, aead_encrypt(key, plaintext, aad), aad) == plaintext
