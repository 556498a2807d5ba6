"""The baselines the paper measures TimeCrypt against (Table 3, Fig. 5/6/7).

Nothing on the serving path imports this package; benches and tests import
its modules directly:

* :mod:`repro.baselines.paillier` / :mod:`repro.baselines.ecelgamal` — the
  additively homomorphic public-key schemes of the strawman configurations.
* :mod:`repro.baselines.strawman` — :class:`StrawmanStore`, the TimeCrypt
  layout with its digests under Paillier or EC-ElGamal instead of HEAC.
* :mod:`repro.baselines.abe` — an attribute-gated scheme with a calibrated
  cost model standing in for pairing-based ABE (Sieve).
* :mod:`repro.baselines.aes` — pure-Python AES, the paper's "AES (software)"
  PRG point in Fig. 6 (the ``aes`` PRG loads it on first use).
* :mod:`repro.baselines.chacha` — ChaCha20-Poly1305 (RFC 8439), the
  alternative payload AEAD of the ablations.
"""
