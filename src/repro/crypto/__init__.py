"""Cryptographic substrates on TimeCrypt's serving path.

Every primitive runs on one backend: the ``cryptography`` package's native
AES and P-256, our stand-in for the paper's AES-NI.

* :mod:`repro.crypto.prf` — PRG/PRF constructions for key derivation
  (fixed-key AES by default; SHA-256, BLAKE2b and AES for persisted streams).
* :mod:`repro.crypto.gcm` — AES-GCM, the chunk payload AEAD.
* :mod:`repro.crypto.keytree` — the GGM key-derivation tree with access tokens.
* :mod:`repro.crypto.heac` — the Homomorphic Encryption-based Access Control
  scheme (key-cancelling additive stream cipher).
* :mod:`repro.crypto.hashchain` / :mod:`repro.crypto.keyregression` — hash
  chains and single/dual key regression for resolution keystreams.
* :mod:`repro.crypto.hybrid` / :mod:`repro.crypto.ecc` — ECIES token sealing
  on P-256, and the affine curve arithmetic it recovers shared points with.

The ciphers the paper compares against live in :mod:`repro.baselines`.
"""

from repro.crypto.heac import HEACCipher, HEACCiphertext
from repro.crypto.keytree import KeyDerivationTree, TreeToken
from repro.crypto.keyregression import DualKeyRegression, KeyRegression
from repro.crypto.prf import PRG, get_prg

__all__ = [
    "HEACCipher",
    "HEACCiphertext",
    "KeyDerivationTree",
    "TreeToken",
    "KeyRegression",
    "DualKeyRegression",
    "PRG",
    "get_prg",
]
