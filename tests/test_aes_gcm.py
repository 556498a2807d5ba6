"""Tests for the software AES baseline (FIPS-197) and the AES-GCM payload AEAD."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.aes import AES
from repro.crypto.gcm import aead_decrypt, aead_encrypt
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
    """NIST GCM known answers through :func:`aead_encrypt` / :func:`aead_decrypt`."""

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
        out = aead_encrypt(self.KEY, self.PLAINTEXT, self.AAD, nonce=self.IV)
        assert out == self.IV + self.CIPHERTEXT + self.TAG

    def test_nist_vector_decrypt(self):
        out = aead_decrypt(self.KEY, self.IV + self.CIPHERTEXT + self.TAG, self.AAD)
        assert out == self.PLAINTEXT

    def test_empty_plaintext_nist_case1(self):
        iv = bytes(12)
        out = aead_encrypt(bytes(16), b"", b"", nonce=iv)
        assert out == iv + bytes.fromhex("58e2fccefa7e3061367f1d57a4e7455a")

    # NIST GCM test cases 2, 3, 7, 8, 13-16: AES-128/192/256, with and without
    # plaintext and AAD.  Columns: key, IV, plaintext, AAD, ciphertext, tag.
    NIST_CASES = {
        "case2": ("00" * 16, "00" * 12, "00" * 16, "",
                  "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf"),
        "case3": (KEY.hex(), IV.hex(), PLAINTEXT.hex() + "1aafd255", "",
                  CIPHERTEXT.hex() + "473f5985", "4d5c2af327cd64a62cf35abd2ba6fab4"),
        "case7": ("00" * 24, "00" * 12, "", "", "", "cd33b28ac773f74ba00ed1f312572435"),
        "case8": ("00" * 24, "00" * 12, "00" * 16, "",
                  "98e7247c07f0fe411c267e4384b0f600", "2ff58d80033927ab8ef4d4587514f0fb"),
        "case13": ("00" * 32, "00" * 12, "", "", "", "530f8afbc74536b9a963b4f1c4cb738b"),
        "case14": ("00" * 32, "00" * 12, "00" * 16, "",
                   "cea7403d4d606b6e074ec5d3baf39d18", "d0d1c8a799996bf0265b98b5d48ab919"),
        "case15": (KEY.hex() * 2, IV.hex(), PLAINTEXT.hex() + "1aafd255", "",
                   "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
                   "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
                   "b094dac5d93471bdec1a502270e3cc6c"),
        "case16": (KEY.hex() * 2, IV.hex(), PLAINTEXT.hex(), AAD.hex(),
                   "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
                   "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
                   "76fc6ece0f4e1768cddf8853bb2d551b"),
    }

    @pytest.mark.parametrize("case", sorted(NIST_CASES, key=lambda name: int(name[4:])))
    def test_nist_known_answers(self, case):
        key, iv, plaintext, aad, ciphertext, tag = map(bytes.fromhex, self.NIST_CASES[case])
        blob = aead_encrypt(key, plaintext, aad, nonce=iv)
        assert blob == iv + ciphertext + tag
        assert aead_decrypt(key, blob, aad) == plaintext

    def test_tamper_detection_ciphertext(self):
        blob = bytearray(aead_encrypt(self.KEY, self.PLAINTEXT, self.AAD, nonce=self.IV))
        blob[len(self.IV)] ^= 1
        with pytest.raises(IntegrityError):
            aead_decrypt(self.KEY, bytes(blob), self.AAD)

    def test_tamper_detection_aad(self):
        blob = aead_encrypt(self.KEY, self.PLAINTEXT, self.AAD, nonce=self.IV)
        with pytest.raises(IntegrityError):
            aead_decrypt(self.KEY, blob, self.AAD + b"x")

    def test_tamper_detection_tag(self):
        blob = bytearray(aead_encrypt(self.KEY, self.PLAINTEXT, self.AAD, nonce=self.IV))
        blob[-1] ^= 0x80
        with pytest.raises(IntegrityError):
            aead_decrypt(self.KEY, bytes(blob), self.AAD)

    def test_tamper_detection_nonce(self):
        blob = bytearray(aead_encrypt(self.KEY, self.PLAINTEXT, self.AAD, nonce=self.IV))
        blob[0] ^= 1
        with pytest.raises(IntegrityError):
            aead_decrypt(self.KEY, bytes(blob), self.AAD)

    def test_cut_tag_rejected(self):
        blob = aead_encrypt(self.KEY, self.PLAINTEXT, self.AAD, nonce=self.IV)
        for cut in (1, 4, 16):
            with pytest.raises(IntegrityError):
                aead_decrypt(self.KEY, blob[:-cut], self.AAD)

    def test_short_ciphertext_rejected(self):
        with pytest.raises(IntegrityError):
            aead_decrypt(self.KEY, self.IV + b"short")


class TestAeadHelpers:
    def test_roundtrip_native_backend(self):
        key = b"k" * 16
        blob = aead_encrypt(key, b"payload", b"aad")
        assert aead_decrypt(key, blob, b"aad") == b"payload"
        # Sealed tokens arrive off the wire as memoryviews of the receive buffer.
        assert aead_decrypt(key, memoryview(blob), b"aad") == b"payload"

    def test_fresh_nonce_per_call(self):
        key = b"k" * 16
        blobs = {aead_encrypt(key, b"payload", b"aad") for _ in range(8)}
        assert len({blob[:12] for blob in blobs}) == 8
        assert all(aead_decrypt(key, blob, b"aad") == b"payload" for blob in blobs)

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
