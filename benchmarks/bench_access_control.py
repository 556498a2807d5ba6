"""§6.2 — crypto-enforced access control: TimeCrypt vs the ABE baseline.

Paper: granting chunk-level access with ABE (Sieve-style) costs ~53 ms per
chunk to protect and ~13 ms per chunk to decrypt (80-bit security, one
attribute), while TimeCrypt derives a key from a 2^30-key tree in ~2.5 µs,
walks the dual key regression in ~2.7 ms worst case, and decrypts with one
addition and one subtraction (~2 ns).

The ABE figures here come from the calibrated cost model documented in
DESIGN.md §3 (real pairings are out of scope offline); the functional
attribute-gated layer is measured separately so both the modelled and the
measured values are visible in the report.
"""

from __future__ import annotations

from repro.baselines.abe import ABEAuthority, ABEPrincipal, wrap_chunk_key
from repro.crypto.heac import HEACCipher
from repro.crypto.keyregression import DualKeyRegression
from repro.crypto.keytree import KeyDerivationTree


def test_timecrypt_key_derivation(benchmark):
    """Deriving one chunk key from a 2^30-key tree (log2(n) PRG calls, cold cache)."""
    benchmark.group = "access-key-derivation"
    tree = KeyDerivationTree(seed=b"a" * 16, height=30, cache_levels=0)
    benchmark(lambda: tree.leaf((1 << 30) - 1))


def test_timecrypt_dual_key_regression_worst_case(benchmark):
    """Worst-case dual-key-regression walk for a resolution keystream."""
    benchmark.group = "access-key-derivation"
    regression = DualKeyRegression(length=4096)
    token = regression.share(0, 4095)
    benchmark(lambda: DualKeyRegression.derive_from_token(token, 2048))


def test_timecrypt_decrypt(benchmark):
    """TimeCrypt chunk decryption: one addition and one subtraction."""
    benchmark.group = "access-decrypt"
    cipher = HEACCipher(KeyDerivationTree(seed=b"a" * 16, height=30))
    ciphertext = cipher.encrypt(5, 0)
    benchmark(lambda: cipher.decrypt(ciphertext))


def test_abe_functional_layer_unwrap(benchmark):
    """The measured (functional) cost of the ABE stand-in's per-chunk unwrap."""
    benchmark.group = "access-decrypt"
    authority = ABEAuthority(master_secret=b"m" * 16)
    principal = ABEPrincipal("doc")
    principal.add_key(authority.issue_key("doc", 0, 1 << 20))
    wrappings = wrap_chunk_key(authority, 12345, [(0, 1 << 20)])
    benchmark(lambda: principal.unwrap(wrappings, 12345))


def test_abe_modelled_costs_vs_timecrypt():
    """The §6.2 comparison using the calibrated ABE pairing cost model."""
    from repro.bench.harness import measure

    authority = ABEAuthority(master_secret=b"m" * 16)
    num_chunks = 100
    for chunk in range(num_chunks):
        authority.chunk_kek(chunk)  # charges the modelled encrypt cost

    principal = ABEPrincipal("doc")
    principal.add_key(authority.issue_key("doc", 0, num_chunks))
    wrappings = {chunk: wrap_chunk_key(authority, chunk, [(0, num_chunks)]) for chunk in range(num_chunks)}
    for chunk in range(num_chunks):
        principal.unwrap(wrappings[chunk], chunk)

    abe_decrypt_per_chunk = principal.cost_model.modelled_decrypt_seconds / num_chunks
    abe_encrypt_per_chunk = authority.cost_model.modelled_encrypt_seconds / num_chunks

    tree = KeyDerivationTree(seed=b"a" * 16, height=30, cache_levels=0)
    cipher = HEACCipher(tree)
    timecrypt_derivation = measure(
        "tc-derive", lambda: tree.leaf((1 << 30) - 1), repetitions=200
    ).mean_seconds
    ciphertext = cipher.encrypt(5, 0)
    timecrypt_decrypt = measure("tc-dec", lambda: cipher.decrypt(ciphertext), repetitions=200).mean_seconds

    # Paper shape: ABE is orders of magnitude more expensive per chunk.
    assert abe_encrypt_per_chunk == 0.053
    assert abe_decrypt_per_chunk == 0.013
    assert abe_decrypt_per_chunk > 100 * timecrypt_decrypt
    assert abe_encrypt_per_chunk > 100 * timecrypt_derivation
