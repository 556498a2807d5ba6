"""Pseudorandom generators and functions used for key derivation.

TimeCrypt's GGM key-derivation tree (Figure 2) needs a length-doubling PRG
``G(x) = G0(x) || G1(x)``.  The paper evaluates three instantiations (Figure 6):
a software AES, SHA-256, and hardware AES (AES-NI) and picks AES-NI.  We expose
the same menu:

* ``sha256``   — ``G_b(x) = SHA256(b || x)``
* ``blake2``   — ``G_b(x) = BLAKE2b(b || x)`` (fast software hash)
* ``aes``      — ``G_b(x) = AES_x(b)`` using the pure-Python block cipher in
  :mod:`repro.baselines.aes` (the paper's "AES (software)" point)
* ``aes-ni``   — same construction backed by the ``cryptography`` package's
  native AES (our stand-in for hardware AES)
* ``aes-ni-fk`` — fixed-key AES in Matyas–Meyer–Oseas mode,
  ``G_b(x) = AES_K(x ⊕ c_b) ⊕ (x ⊕ c_b)`` with a public constant key ``K``.
  The paper's construction re-keys AES with every node label, which is ~free
  with a hardware key schedule but costs a fresh OpenSSL EVP context per node
  through Python's ``cryptography`` layer; the fixed-key variant (standard in
  high-throughput GGM/FSS implementations, secure in the random-permutation
  model) reuses one context and lets the batch path encrypt a whole expansion
  frontier in a single native call.  The default (:data:`DEFAULT_PRG`).
* ``hmac-sha256`` — an HMAC-based PRF (:func:`prf`, :class:`KeyedPRF`), used
  where a keyed PRF (rather than a PRG) is the natural primitive (digest
  component keys and AEAD keys from HEAC keys).

All PRGs operate on λ = 16-byte (128-bit) seeds and produce 16-byte children,
matching the paper's 128-bit security level.  A tree walk needs one child per
level, so ``child(seed, bit)`` computes only that one (one AES block or one
hash); ``expand`` / ``expand_many`` produce both for subtree expansion.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Tuple, Type

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from repro.exceptions import ConfigurationError

SEED_BYTES = 16


class PRG(ABC):
    """A length-doubling pseudorandom generator over 128-bit seeds."""

    name = "abstract"

    @abstractmethod
    def expand(self, seed: bytes) -> Tuple[bytes, bytes]:
        """Return the two 16-byte children ``(G0(seed), G1(seed))``."""

    def expand_many(self, seeds: Sequence[bytes]) -> List[Tuple[bytes, bytes]]:
        """Expand a batch of seeds; the i-th result is ``expand(seeds[i])``.

        Subclasses override this when there is real per-call setup to
        amortize over the whole batch (cipher contexts, a single native
        encryption call); the hash PRGs have none, so they keep this default.
        The output is bit-identical to calling :meth:`expand` per seed.
        """
        return [self.expand(seed) for seed in seeds]

    def left(self, seed: bytes) -> bytes:
        return self.expand(seed)[0]

    def right(self, seed: bytes) -> bytes:
        return self.expand(seed)[1]

    def child(self, seed: bytes, bit: int) -> bytes:
        """Return ``G_bit(seed)`` for ``bit`` in {0, 1}; overrides compute only that child."""
        if bit not in (0, 1):
            raise ValueError("child bit must be 0 or 1")
        return self.expand(seed)[bit]

    @staticmethod
    def _check_seed(seed: bytes) -> None:
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")


class Sha256PRG(PRG):
    """``G_b(x) = SHA256(bytes([b]) || x)`` truncated to 128 bits."""

    name = "sha256"

    def expand(self, seed: bytes) -> Tuple[bytes, bytes]:
        self._check_seed(seed)
        left = hashlib.sha256(b"\x00" + seed).digest()[:SEED_BYTES]
        right = hashlib.sha256(b"\x01" + seed).digest()[:SEED_BYTES]
        return left, right

    def child(self, seed: bytes, bit: int) -> bytes:
        if bit not in (0, 1):
            raise ValueError("child bit must be 0 or 1")
        self._check_seed(seed)
        return hashlib.sha256((b"\x01" if bit else b"\x00") + seed).digest()[:SEED_BYTES]


class Blake2PRG(PRG):
    """``G(x) = BLAKE2b(x)`` producing 32 bytes split into two children."""

    name = "blake2"
    _PERSON = b"timecryptPRG0000"

    def expand(self, seed: bytes) -> Tuple[bytes, bytes]:
        self._check_seed(seed)
        digest = hashlib.blake2b(seed, digest_size=32, person=self._PERSON).digest()
        return digest[:SEED_BYTES], digest[SEED_BYTES:]

    def child(self, seed: bytes, bit: int) -> bytes:
        if bit not in (0, 1):
            raise ValueError("child bit must be 0 or 1")
        self._check_seed(seed)
        digest = hashlib.blake2b(seed, digest_size=32, person=self._PERSON).digest()
        return digest[SEED_BYTES:] if bit else digest[:SEED_BYTES]


class AesPRG(PRG):
    """``G_b(x) = AES_x(block(b))`` with the seed as the AES key.

    Uses the pure-Python AES implementation in :mod:`repro.baselines.aes`, which
    mirrors the paper's "AES (software)" data point in Figure 6.
    """

    name = "aes"

    def __init__(self) -> None:
        from repro.baselines.aes import AES  # a baseline: load it only when asked for

        self._aes_cls = AES
        self._block0 = b"\x00" * 16
        self._block1 = b"\x01" + b"\x00" * 15

    def expand(self, seed: bytes) -> Tuple[bytes, bytes]:
        self._check_seed(seed)
        cipher = self._aes_cls(seed)
        return cipher.encrypt_block(self._block0), cipher.encrypt_block(self._block1)

    def child(self, seed: bytes, bit: int) -> bytes:
        if bit not in (0, 1):
            raise ValueError("child bit must be 0 or 1")
        self._check_seed(seed)
        return self._aes_cls(seed).encrypt_block(self._block1 if bit else self._block0)


class AesNiPRG(PRG):
    """AES-based PRG using the ``cryptography`` native backend (AES-NI stand-in).

    The seed is the AES key, so every distinct seed needs its own key
    schedule.  Building a fresh ``Cipher``/encryptor per expansion costs more
    than the AES rounds themselves, so encryptor contexts are kept in a small
    LRU cache: ECB is stateless per block, which makes it safe to reuse one
    context for any number of 32-byte ``update`` calls without finalizing.
    GGM derivation walks revisit the same inner-node seeds constantly (every
    leaf under a shared ancestor re-expands that ancestor's descendants), so
    the cache turns the dominant cost into a dict lookup.
    """

    name = "aes-ni"

    #: Bound on cached per-seed encryptor contexts (~100 bytes each).
    _CACHE_CAPACITY = 4096

    def __init__(self) -> None:
        self._plain = b"\x00" * 16 + b"\x01" + b"\x00" * 15
        self._halves = (self._plain[:16], self._plain[16:])
        self._contexts: "OrderedDict[bytes, object]" = OrderedDict()

    def _context(self, seed: bytes):
        """The reusable ECB encryptor for ``seed`` (LRU-cached key schedule)."""
        context = self._contexts.get(seed)
        if context is not None:
            self._contexts.move_to_end(seed)
            return context
        self._check_seed(seed)
        context = Cipher(algorithms.AES(seed), modes.ECB()).encryptor()
        self._contexts[seed] = context
        if len(self._contexts) > self._CACHE_CAPACITY:
            self._contexts.popitem(last=False)
        return context

    def _encrypt(self, seed: bytes, data: bytes) -> bytes:
        try:
            return self._context(seed).update(data)
        except (KeyError, RuntimeError):  # another thread evicted it / is inside it
            return Cipher(algorithms.AES(seed), modes.ECB()).encryptor().update(data)

    def expand(self, seed: bytes) -> Tuple[bytes, bytes]:
        out = self._encrypt(seed, self._plain)
        return out[:16], out[16:]

    def child(self, seed: bytes, bit: int) -> bytes:
        if bit not in (0, 1):
            raise ValueError("child bit must be 0 or 1")
        return self._encrypt(seed, self._halves[bit])

    def expand_many(self, seeds: Sequence[bytes]) -> List[Tuple[bytes, bytes]]:
        encrypt = self._encrypt
        plain = self._plain
        results: List[Tuple[bytes, bytes]] = []
        for seed in seeds:
            out = encrypt(seed, plain)
            results.append((out[:16], out[16:]))
        return results


class AesNiFixedKeyPRG(PRG):
    """Fixed-key AES PRG (MMO mode): ``G_b(x) = AES_K(x ⊕ c_b) ⊕ (x ⊕ c_b)``.

    ``K`` is a public constant, so one-wayness rests on the standard
    random-permutation assumption for fixed-key AES rather than on AES as a
    PRF family.  One reusable ECB context serves every expansion (no per-node
    key schedule), and :meth:`expand_many` encrypts the concatenated inputs
    of the whole batch in a single native call — the throughput workhorse
    behind ``leaf_range``.  ``c_0 = 0`` and ``c_1`` flips one input bit, which
    is all the left/right domain separation MMO needs.
    """

    name = "aes-ni-fk"

    #: Public fixed key; nothing secret about it, it only has to be an
    #: "unstructured" constant (nothing-up-my-sleeve derivation).
    _KEY = hashlib.sha256(b"timecrypt fixed-key aes prg").digest()[:SEED_BYTES]

    def __init__(self) -> None:
        self._update = Cipher(algorithms.AES(self._KEY), modes.ECB()).encryptor().update

    def _encrypt(self, data: bytes) -> bytes:
        try:
            return self._update(data)
        except RuntimeError:  # "Already borrowed": another thread is inside it; ECB is stateless
            return Cipher(algorithms.AES(self._KEY), modes.ECB()).encryptor().update(data)

    @staticmethod
    def _tweaked(seed: bytes) -> bytes:
        """``seed ⊕ c_1`` — flip the lowest bit of the first byte."""
        return bytes([seed[0] ^ 1]) + seed[1:]

    def expand(self, seed: bytes) -> Tuple[bytes, bytes]:
        self._check_seed(seed)
        in1 = self._tweaked(seed)
        ct = self._encrypt(seed + in1)
        left = (int.from_bytes(ct[:16], "big") ^ int.from_bytes(seed, "big")).to_bytes(16, "big")
        right = (int.from_bytes(ct[16:], "big") ^ int.from_bytes(in1, "big")).to_bytes(16, "big")
        return left, right

    def child(self, seed: bytes, bit: int) -> bytes:
        if bit not in (0, 1):
            raise ValueError("child bit must be 0 or 1")
        if len(seed) != SEED_BYTES:  # inline: this runs once per tree level
            self._check_seed(seed)
        block = int.from_bytes(seed, "big")
        if bit:
            block ^= 1 << 120  # c_1, as in _tweaked
            seed = block.to_bytes(16, "big")
        return (int.from_bytes(self._encrypt(seed), "big") ^ block).to_bytes(16, "big")

    def expand_many(self, seeds: Sequence[bytes]) -> List[Tuple[bytes, bytes]]:
        buffer = bytearray()
        for seed in seeds:
            self._check_seed(seed)
            buffer += seed
            buffer += self._tweaked(seed)
        ct = self._encrypt(bytes(buffer))
        from_bytes = int.from_bytes
        results: List[Tuple[bytes, bytes]] = []
        for index, seed in enumerate(seeds):
            offset = index * 32
            left = (
                from_bytes(ct[offset : offset + 16], "big") ^ from_bytes(seed, "big")
            ).to_bytes(16, "big")
            right = (
                from_bytes(ct[offset + 16 : offset + 32], "big")
                ^ from_bytes(buffer[offset + 16 : offset + 32], "big")
            ).to_bytes(16, "big")
            results.append((left, right))
        return results


_PRG_REGISTRY: Dict[str, Type[PRG]] = {
    Sha256PRG.name: Sha256PRG,
    Blake2PRG.name: Blake2PRG,
    AesPRG.name: AesPRG,
    AesNiPRG.name: AesNiPRG,
    AesNiFixedKeyPRG.name: AesNiFixedKeyPRG,
}

DEFAULT_PRG = AesNiFixedKeyPRG.name


def available_prgs() -> Tuple[str, ...]:
    """Names of every PRG construction a stream may name."""
    return tuple(sorted(_PRG_REGISTRY))


def resolve_prg(name: str) -> str:
    """Map the ``auto`` selector to :data:`DEFAULT_PRG`.

    ``auto`` must be resolved exactly once, when a stream is created, and the
    concrete name persisted — a later build may change the default, and
    re-resolving would then silently derive a different keystream.
    """
    return DEFAULT_PRG if name == "auto" else name


def get_prg(name: str = DEFAULT_PRG) -> PRG:
    """Instantiate a PRG by name (``sha256``, ``blake2``, ``aes``, ``aes-ni``, ``aes-ni-fk``)."""
    try:
        return _PRG_REGISTRY[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown PRG '{name}'; available: {', '.join(available_prgs())}"
        ) from None


_HMAC_BLOCK = 64  # SHA-256 block size: the length HMAC pads (or hashes) its key to
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


class KeyedPRF:
    """The HMAC-SHA256 PRF under one key: ipad/opad states built once, copied per message.

    Deriving many labels from one key (a digest's pad vector from one
    keystream key) otherwise repeats the key set-up per label.
    ``KeyedPRF(key)(message, n) == prf(key, message, n)`` byte for byte.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _HMAC_BLOCK:
            key = hashlib.sha256(key).digest()
        block = key.ljust(_HMAC_BLOCK, b"\x00")
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def blocks(self, messages: Iterable[bytes], counter: int = 0) -> List[bytes]:
        """Output block ``counter`` (32 bytes) of each message: HMAC of ``counter || message``.

        ``blocks(messages)[i][:n] == self(messages[i], n)`` for ``n <= 32``, as one loop.
        """
        frame = counter.to_bytes(4, "big")
        inner_copy = self._inner.copy
        outer_copy = self._outer.copy
        blocks = []
        for message in messages:
            inner = inner_copy()
            inner.update(frame + message)
            outer = outer_copy()
            outer.update(inner.digest())
            blocks.append(outer.digest())
        return blocks

    def __call__(self, message: bytes, out_len: int = SEED_BYTES) -> bytes:
        """``out_len`` bytes for one message; counter mode past one 32-byte block."""
        if out_len <= 0:
            raise ValueError("output length must be positive")
        if out_len <= 32:
            return self.blocks((message,))[0][:out_len]
        count = -(-out_len // 32)
        return b"".join(
            self.blocks((message,), counter)[0] for counter in range(count)
        )[:out_len]


def prf(key: bytes, message: bytes, out_len: int = SEED_BYTES) -> bytes:
    """HMAC-SHA256 based PRF, truncated or expanded (counter mode) to ``out_len``."""
    return KeyedPRF(key)(message, out_len)


def prf_int(key: bytes, message: bytes, modulus: int) -> int:
    """Derive a pseudorandom integer in ``[0, modulus)`` from the PRF."""
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    # Draw 16 extra bytes to make the modulo bias negligible.
    nbytes = (modulus.bit_length() + 7) // 8 + 16
    return int.from_bytes(prf(key, message, nbytes), "big") % modulus


def kdf(key: bytes, label: str, out_len: int = SEED_BYTES) -> bytes:
    """Domain-separated key derivation: ``PRF(key, label)``."""
    return prf(key, label.encode("utf-8"), out_len)
