"""Table 3 — encryption/decryption latency of the digest ciphers.

Paper (laptop column): TimeCrypt 5.08 µs enc/dec (hash tree with 2^30 keys),
Paillier 30 ms enc / 15 ms dec, EC-ElGamal 1.4 ms enc / 1.1 ms dec — i.e.
TimeCrypt several orders of magnitude faster.  The paper's IoT column
(OpenMote-class hardware) is ~200-300x slower than the laptop; we report that
as a documented model rather than measuring on hardware we do not have.
"""

from __future__ import annotations

from repro.baselines.ecelgamal import ECElGamal
from repro.baselines.paillier import generate_keypair
from repro.crypto.heac import HEACCipher
from repro.crypto.keytree import KeyDerivationTree

#: Paper-reported laptop-to-IoT slowdown (Table 3): ~1.08 ms / 5.08 µs ≈ 213x
#: for TimeCrypt, ~53x for Paillier, ~180x for EC-ElGamal encryption.
IOT_SLOWDOWN_MODEL = {"timecrypt": 213.0, "paillier": 53.0, "ec-elgamal": 180.0}


def test_encrypt_timecrypt(benchmark):
    """TimeCrypt encryption: two key derivations from a 2^30-key tree + one addition."""
    benchmark.group = "table3-encrypt"
    cipher = HEACCipher(KeyDerivationTree(seed=b"k" * 16, height=30, cache_levels=0))
    counter = iter(range(10**9))
    benchmark(lambda: cipher.encrypt(123456, next(counter)))


def test_encrypt_paillier(benchmark):
    benchmark.group = "table3-encrypt"
    public, _ = generate_keypair(512)
    benchmark(lambda: public.encrypt(123456))


def test_encrypt_ecelgamal(benchmark):
    benchmark.group = "table3-encrypt"
    scheme = ECElGamal.generate(max_plaintext=1 << 20)
    benchmark(lambda: scheme.encrypt(123456))


def test_decrypt_timecrypt(benchmark):
    benchmark.group = "table3-decrypt"
    cipher = HEACCipher(KeyDerivationTree(seed=b"k" * 16, height=30, cache_levels=0))
    ciphertext = cipher.encrypt(123456, 77)
    benchmark(lambda: cipher.decrypt(ciphertext))


def test_decrypt_paillier(benchmark):
    benchmark.group = "table3-decrypt"
    public, private = generate_keypair(512)
    ciphertext = public.encrypt(123456)
    benchmark(lambda: private.decrypt(ciphertext))


def test_decrypt_ecelgamal(benchmark):
    benchmark.group = "table3-decrypt"
    scheme = ECElGamal.generate(max_plaintext=1 << 20)
    ciphertext = scheme.encrypt(123456)
    benchmark(lambda: scheme.decrypt(ciphertext))


def test_relative_ordering_matches_paper():
    """TimeCrypt's enc+dec must be orders of magnitude cheaper than the strawmen."""
    import time

    def time_op(operation, repetitions):
        start = time.perf_counter()
        for _ in range(repetitions):
            operation()
        return (time.perf_counter() - start) / repetitions

    cipher = HEACCipher(KeyDerivationTree(seed=b"k" * 16, height=30, cache_levels=0))
    timecrypt = time_op(lambda: cipher.decrypt(cipher.encrypt(99, 5)), 200)

    public, private = generate_keypair(512)
    paillier = time_op(lambda: private.decrypt(public.encrypt(99)), 5)

    scheme = ECElGamal.generate(max_plaintext=1 << 16)
    elgamal = time_op(lambda: scheme.decrypt(scheme.encrypt(99)), 3)

    assert paillier > 10 * timecrypt
    assert elgamal > 10 * timecrypt
