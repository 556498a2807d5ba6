"""Tests for the strawman ciphers: Paillier, EC-ElGamal, ECC, hybrid ECIES, ABE."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.abe import ABEAuthority, ABECostModel, ABEPrincipal, wrap_chunk_key
from repro.baselines.ecelgamal import ECElGamal
from repro.baselines.paillier import generate_keypair, generate_prime, _is_probable_prime
from repro.crypto import ecc, hybrid
from repro.exceptions import AccessDeniedError, CryptoError, DecryptionError


@pytest.fixture(scope="module")
def paillier_keys():
    return generate_keypair(key_bits=512)


@pytest.fixture(scope="module")
def elgamal():
    return ECElGamal.generate(max_plaintext=1 << 20)


class TestPaillier:
    def test_prime_generation(self):
        prime = generate_prime(64)
        assert prime.bit_length() == 64
        assert _is_probable_prime(prime)

    def test_known_composites_rejected(self):
        assert not _is_probable_prime(561)  # Carmichael number
        assert not _is_probable_prime(1)
        assert _is_probable_prime(2)

    def test_small_modulus_rejected(self):
        with pytest.raises(CryptoError):
            generate_keypair(key_bits=32)

    def test_encrypt_decrypt_roundtrip(self, paillier_keys):
        public, private = paillier_keys
        for value in (0, 1, 42, 2**32, 2**63):
            assert private.decrypt(public.encrypt(value)) == value

    def test_homomorphic_addition(self, paillier_keys):
        public, private = paillier_keys
        total = public.add(public.encrypt(1000), public.encrypt(234))
        assert private.decrypt(total) == 1234

    def test_add_plain_and_multiply_plain(self, paillier_keys):
        public, private = paillier_keys
        ciphertext = public.encrypt(10)
        assert private.decrypt(public.add_plain(ciphertext, 5)) == 15
        assert private.decrypt(public.multiply_plain(ciphertext, 7)) == 70

    def test_signed_decryption(self, paillier_keys):
        public, private = paillier_keys
        negative = public.n - 5  # encodes -5
        assert private.decrypt_signed(public.encrypt(negative)) == -5

    def test_randomised_encryption(self, paillier_keys):
        public, _private = paillier_keys
        assert public.encrypt(7) != public.encrypt(7)

    def test_ciphertext_expansion_reported(self, paillier_keys):
        public, _private = paillier_keys
        assert public.ciphertext_bytes == 128  # (2 * 512 bits) / 8

    def test_out_of_range_ciphertext_rejected(self, paillier_keys):
        _public, private = paillier_keys
        with pytest.raises(DecryptionError):
            private.decrypt(-1)

    @given(a=st.integers(0, 2**40), b=st.integers(0, 2**40))
    @settings(max_examples=10, deadline=None)
    def test_homomorphism_property(self, paillier_keys, a, b):
        public, private = paillier_keys
        assert private.decrypt(public.add(public.encrypt(a), public.encrypt(b))) == a + b


class TestECC:
    def test_generator_on_curve(self):
        assert ecc.is_on_curve(ecc.GENERATOR)

    def test_order_times_generator_is_infinity(self):
        assert ecc.scalar_mult(ecc.N).is_infinity

    def test_addition_consistency(self):
        assert ecc.point_add(ecc.scalar_mult(3), ecc.scalar_mult(4)) == ecc.scalar_mult(7)

    def test_subtraction_and_negation(self):
        p5 = ecc.scalar_mult(5)
        assert ecc.point_sub(p5, ecc.scalar_mult(2)) == ecc.scalar_mult(3)
        assert ecc.point_add(p5, ecc.point_neg(p5)).is_infinity

    def test_infinity_is_identity(self):
        p = ecc.scalar_mult(9)
        assert ecc.point_add(p, ecc.INFINITY) == p
        assert ecc.point_add(ecc.INFINITY, p) == p

    def test_point_encoding_roundtrip(self):
        p = ecc.scalar_mult(12345)
        assert ecc.Point.decode(p.encode()) == p
        assert ecc.Point.decode(ecc.INFINITY.encode()).is_infinity

    def test_invalid_encodings_rejected(self):
        with pytest.raises(CryptoError):
            ecc.Point.decode(b"\x04" + b"\x01" * 64)
        with pytest.raises(CryptoError):
            ecc.Point.decode(b"\x05" + b"\x00" * 64)

    def test_keypair_consistency(self):
        private, public = ecc.generate_keypair()
        assert ecc.is_on_curve(public)
        assert ecc.scalar_mult(private) == public

    @given(st.integers(1, 2**64))
    @settings(max_examples=10, deadline=None)
    def test_scalar_mult_distributes(self, k):
        assert ecc.point_add(ecc.scalar_mult(k), ecc.GENERATOR) == ecc.scalar_mult(k + 1)


class TestECElGamal:
    def test_roundtrip(self, elgamal):
        for value in (0, 1, 7, 5000, 99999):
            assert elgamal.decrypt(elgamal.encrypt(value)) == value

    def test_homomorphic_addition(self, elgamal):
        total = ECElGamal.add(elgamal.encrypt(300), elgamal.encrypt(45))
        assert elgamal.decrypt(total) == 345

    def test_negative_plaintext_rejected(self, elgamal):
        with pytest.raises(ValueError):
            elgamal.encrypt(-1)

    def test_public_instance_cannot_decrypt(self, elgamal):
        public_only = elgamal.public_instance()
        ciphertext = public_only.encrypt(5)
        with pytest.raises(DecryptionError):
            public_only.decrypt(ciphertext)
        assert elgamal.decrypt(ciphertext) == 5

    def test_aggregate_beyond_bound_rejected(self):
        scheme = ECElGamal.generate(max_plaintext=100)
        big = scheme.encrypt(99)
        total = ECElGamal.add(big, scheme.encrypt(50))
        with pytest.raises(DecryptionError):
            scheme.decrypt(total)

    def test_ciphertext_size(self, elgamal):
        assert elgamal.encrypt(1).size_bytes == 130

    @given(a=st.integers(0, 500), b=st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_homomorphism_property(self, elgamal, a, b):
        assert elgamal.decrypt(ECElGamal.add(elgamal.encrypt(a), elgamal.encrypt(b))) == a + b


class TestHybridEncryption:
    def test_roundtrip(self):
        private, public = hybrid.generate_keypair()
        blob = hybrid.encrypt(public, b"token payload", b"context")
        assert hybrid.decrypt(private, blob, b"context") == b"token payload"

    def test_wrong_recipient_fails(self):
        private_a, public_a = hybrid.generate_keypair()
        private_b, _public_b = hybrid.generate_keypair()
        blob = hybrid.encrypt(public_a, b"secret")
        with pytest.raises(DecryptionError):
            hybrid.decrypt(private_b, blob)

    def test_wrong_context_fails(self):
        private, public = hybrid.generate_keypair()
        blob = hybrid.encrypt(public, b"secret", b"ctx-a")
        with pytest.raises(DecryptionError):
            hybrid.decrypt(private, blob, b"ctx-b")

    def test_truncated_envelope_rejected(self):
        private, public = hybrid.generate_keypair()
        with pytest.raises(DecryptionError):
            hybrid.decrypt(private, b"\x00")

    def test_envelope_encoding_roundtrip(self):
        envelope = hybrid.HybridCiphertext(ephemeral_public=b"\x04" + b"\x01" * 64, sealed=b"abc")
        decoded = hybrid.HybridCiphertext.decode(envelope.encode())
        assert decoded == envelope


class TestABE:
    def test_attribute_key_covers_range(self):
        authority = ABEAuthority(master_secret=b"m" * 16)
        key = authority.issue_key("doc", 10, 20)
        assert key.covers(10) and key.covers(19)
        assert not key.covers(20) and not key.covers(9)

    def test_empty_range_rejected(self):
        authority = ABEAuthority(master_secret=b"m" * 16)
        with pytest.raises(ValueError):
            authority.issue_key("doc", 5, 5)

    def test_unwrap_inside_range(self):
        authority = ABEAuthority(master_secret=b"m" * 16)
        principal = ABEPrincipal("doc")
        principal.add_key(authority.issue_key("doc", 0, 100))
        wrappings = wrap_chunk_key(authority, 42, [(0, 100)])
        kek = principal.unwrap(wrappings, 42)
        from repro.crypto.prf import kdf

        assert kek == kdf(authority.master_secret, "abe-chunk:42")

    def test_unwrap_outside_range_denied(self):
        authority = ABEAuthority(master_secret=b"m" * 16)
        principal = ABEPrincipal("doc")
        principal.add_key(authority.issue_key("doc", 0, 10))
        wrappings = wrap_chunk_key(authority, 42, [(0, 10), (0, 100)])
        with pytest.raises(AccessDeniedError):
            principal.unwrap(wrappings, 42)

    def test_key_for_other_principal_rejected(self):
        authority = ABEAuthority(master_secret=b"m" * 16)
        principal = ABEPrincipal("doc")
        with pytest.raises(AccessDeniedError):
            principal.add_key(authority.issue_key("nurse", 0, 10))

    def test_cost_model_accumulates(self):
        model = ABECostModel()
        model.charge_encrypt(1)
        model.charge_decrypt(2)
        assert model.encrypt_operations == 1
        assert model.decrypt_operations == 1
        assert model.total_modelled_seconds == pytest.approx(0.053 + 2 * 0.013)
