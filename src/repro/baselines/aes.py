"""Pure-Python AES block cipher (AES-128/192/256).

TimeCrypt derives its keystream with an AES-based PRG and encrypts chunk
payloads with AES-GCM, both on AES-NI (here: the ``cryptography`` package).
This software block cipher is the paper's "AES (software)" PRG baseline in
Fig. 6; the ``aes`` PRG (:class:`repro.crypto.prf.AesPRG`) runs on it.

This is a straightforward table-driven implementation of FIPS-197:
SubBytes/ShiftRows/MixColumns/AddRoundKey operating on a 16-byte state.
It is deliberately simple rather than constant-time — it is a functional
reference for a research prototype, not a hardened production cipher.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = ["AES"]


def _build_sbox() -> Tuple[bytes, bytes]:
    """Construct the AES S-box and its inverse from the GF(2^8) definition."""

    def gf_mul(a: int, b: int) -> int:
        product = 0
        for _ in range(8):
            if b & 1:
                product ^= a
            high = a & 0x80
            a = (a << 1) & 0xFF
            if high:
                a ^= 0x1B
            b >>= 1
        return product

    # Multiplicative inverses in GF(2^8) via exponentiation (a^254 = a^-1).
    def gf_inv(a: int) -> int:
        if a == 0:
            return 0
        result = 1
        power = a
        exponent = 254
        while exponent:
            if exponent & 1:
                result = gf_mul(result, power)
            power = gf_mul(power, power)
            exponent >>= 1
        return result

    sbox = bytearray(256)
    inv_sbox = bytearray(256)
    for value in range(256):
        # Affine transformation: b ^ rot(b,1) ^ rot(b,2) ^ rot(b,3) ^ rot(b,4) ^ 0x63
        b = gf_inv(value)
        affine = b
        for rot in (1, 2, 3, 4):
            affine ^= ((b << rot) | (b >> (8 - rot))) & 0xFF
        affine ^= 0x63
        sbox[value] = affine
        inv_sbox[affine] = value
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()


def _xtime(a: int) -> int:
    """Multiply by x (i.e. {02}) in GF(2^8)."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """General GF(2^8) multiplication (used by MixColumns and its inverse)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed multiplication tables for the MixColumns constants.
_MUL2 = bytes(_gf_mul(x, 2) for x in range(256))
_MUL3 = bytes(_gf_mul(x, 3) for x in range(256))
_MUL9 = bytes(_gf_mul(x, 9) for x in range(256))
_MUL11 = bytes(_gf_mul(x, 11) for x in range(256))
_MUL13 = bytes(_gf_mul(x, 13) for x in range(256))
_MUL14 = bytes(_gf_mul(x, 14) for x in range(256))

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8, 0xAB, 0x4D]


class AES:
    """AES block cipher supporting 128-, 192-, and 256-bit keys.

    Only single-block ``encrypt_block`` / ``decrypt_block`` operations are
    exposed; modes of operation (CTR, GCM) are layered on top in
    :mod:`repro.crypto.gcm`.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24, or 32 bytes")
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    # -- key schedule -----------------------------------------------------

    def _expand_key(self, key: bytes) -> List[List[int]]:
        nk = len(key) // 4
        nr = self._rounds
        words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]
                temp = [_SBOX[b] for b in temp]
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([a ^ b for a, b in zip(words[i - nk], temp)])
        # Group words into 16-byte round keys (flat lists of 16 ints).
        round_keys = []
        for round_index in range(nr + 1):
            flat: List[int] = []
            for word in words[4 * round_index : 4 * round_index + 4]:
                flat.extend(word)
            round_keys.append(flat)
        return round_keys

    # -- round transformations --------------------------------------------

    @staticmethod
    def _add_round_key(state: List[int], round_key: List[int]) -> None:
        for i in range(16):
            state[i] ^= round_key[i]

    @staticmethod
    def _sub_bytes(state: List[int], box: bytes) -> None:
        for i in range(16):
            state[i] = box[state[i]]

    @staticmethod
    def _shift_rows(state: List[int]) -> List[int]:
        # State is column-major: state[row + 4*col].
        return [
            state[0], state[5], state[10], state[15],
            state[4], state[9], state[14], state[3],
            state[8], state[13], state[2], state[7],
            state[12], state[1], state[6], state[11],
        ]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> List[int]:
        return [
            state[0], state[13], state[10], state[7],
            state[4], state[1], state[14], state[11],
            state[8], state[5], state[2], state[15],
            state[12], state[9], state[6], state[3],
        ]

    @staticmethod
    def _mix_columns(state: List[int]) -> None:
        for col in range(4):
            i = 4 * col
            a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
            state[i] = _MUL2[a0] ^ _MUL3[a1] ^ a2 ^ a3
            state[i + 1] = a0 ^ _MUL2[a1] ^ _MUL3[a2] ^ a3
            state[i + 2] = a0 ^ a1 ^ _MUL2[a2] ^ _MUL3[a3]
            state[i + 3] = _MUL3[a0] ^ a1 ^ a2 ^ _MUL2[a3]

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for col in range(4):
            i = 4 * col
            a0, a1, a2, a3 = state[i], state[i + 1], state[i + 2], state[i + 3]
            state[i] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            state[i + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            state[i + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            state[i + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]

    # -- public block operations ------------------------------------------

    def encrypt_block(self, plaintext: bytes) -> bytes:
        """Encrypt exactly one 16-byte block."""
        if len(plaintext) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = list(plaintext)
        self._add_round_key(state, self._round_keys[0])
        for round_index in range(1, self._rounds):
            self._sub_bytes(state, _SBOX)
            state = self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, self._round_keys[round_index])
        self._sub_bytes(state, _SBOX)
        state = self._shift_rows(state)
        self._add_round_key(state, self._round_keys[self._rounds])
        return bytes(state)

    def decrypt_block(self, ciphertext: bytes) -> bytes:
        """Decrypt exactly one 16-byte block."""
        if len(ciphertext) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = list(ciphertext)
        self._add_round_key(state, self._round_keys[self._rounds])
        for round_index in range(self._rounds - 1, 0, -1):
            state = self._inv_shift_rows(state)
            self._sub_bytes(state, _INV_SBOX)
            self._add_round_key(state, self._round_keys[round_index])
            self._inv_mix_columns(state)
        state = self._inv_shift_rows(state)
        self._sub_bytes(state, _INV_SBOX)
        self._add_round_key(state, self._round_keys[0])
        return bytes(state)
