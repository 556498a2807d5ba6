"""Low-level binary encodings.

These are the building blocks of the chunk serialization format and the
wire protocol: unsigned LEB128 varints, zigzag encoding for signed deltas,
and fixed-width big-endian integer conversions.

Varints come in two shapes: the scalar :func:`encode_varint` /
:func:`decode_varint` used for headers and length prefixes, and the bulk
:func:`encode_varints` / :func:`decode_varints` that chunk payloads and
varint lists are built on — a whole column per call, with a C-speed path
for the all-single-byte runs that regular sampling produces.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

_MASK_64 = (1 << 64) - 1

#: :func:`decode_varint` reads at most 10 bytes (70 payload bits); encoders
#: refuse anything it could not read back.
MAX_VARINT = (1 << 70) - 1
#: The signed range whose zigzag image fits :data:`MAX_VARINT`.
MIN_SIGNED_VARINT = -(1 << 69)
MAX_SIGNED_VARINT = (1 << 69) - 1

_CONTINUATION_BYTES = bytes(range(0x80, 0x100))
#: ``decode_zigzag`` of every single-byte varint; a lookup beats the arithmetic.
_UNZIGZAG_BYTE = tuple((value >> 1) ^ -(value & 1) for value in range(0x80))


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint.

    Raises :class:`ValueError` for a negative value or one above
    :data:`MAX_VARINT`.
    """
    if not 0 <= value <= MAX_VARINT:
        raise ValueError(f"varint requires an integer in [0, 2**70), got {value}")
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode an unsigned LEB128 varint.

    Returns ``(value, next_offset)``. Raises :class:`ValueError` on truncated
    input or on varints longer than 10 bytes (values above 2^70 are rejected
    to bound memory on malicious input).
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        if shift > 63:
            raise ValueError("varint too long")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def encode_varints(values: Sequence[int]) -> bytes:
    """Concatenated unsigned LEB128 varints of ``values``.

    Same range as :func:`encode_varint`.
    """
    try:
        packed = bytes(values)
        if not packed or max(packed) < 0x80:  # every value is its own single byte
            return packed
    except ValueError:  # some value is outside 0..255
        pass
    out = bytearray()
    append = out.append
    for value in values:
        if value > 0x7F:
            if value > MAX_VARINT:
                raise ValueError(f"varint requires an integer in [0, 2**70), got {value}")
            while value > 0x7F:
                append(value & 0x7F | 0x80)
                value >>= 7
        append(value)  # rejects a negative value: not a byte
    return bytes(out)


def decode_varints(data: bytes, offset: int, count: int) -> Tuple[List[int], int]:
    """Decode ``count`` consecutive unsigned varints starting at ``offset``.

    Returns ``(values, next_offset)``; bytes after the last varint are left
    alone.  The declared count is checked against the varints actually
    present before anything is allocated, so a hostile count raises
    :class:`ValueError` (as do truncation and over-long varints) instead of
    reserving memory.
    """
    body = _varint_run(data, offset, count)
    values = list(body) if len(body) == count else _decode_run(body)
    return values, offset + len(body)


def _varint_run(data: bytes, offset: int, count: int) -> bytes:
    """The bytes of exactly ``count`` varints at ``offset`` (ValueError if fewer exist)."""
    body = bytes(memoryview(data)[offset:])
    present = len(body.translate(None, _CONTINUATION_BYTES))  # terminator bytes
    if present < count:
        raise ValueError("truncated varint sequence")
    if present > count:
        return body[: _end_of_varints(body, count)]
    return body.rstrip(_CONTINUATION_BYTES)  # drops a cut-off trailing varint


def _decode_run(body: bytes) -> List[int]:
    """Decode a run of complete varints, at least one of them multi-byte."""
    values: List[int] = []
    append = values.append
    pending = 0
    shift = 0
    for byte in body:
        if byte < 0x80:
            if shift:
                append(pending | byte << shift)
                pending = shift = 0
            else:
                append(byte)
        else:
            if shift > 56:
                raise ValueError("varint too long")
            pending |= (byte & 0x7F) << shift
            shift += 7
    return values


def _end_of_varints(body: bytes, count: int) -> int:
    """Offset just past the ``count``-th varint of ``body``."""
    if not count:
        return 0
    for index, byte in enumerate(body):
        if byte < 0x80:
            count -= 1
            if not count:
                return index + 1
    raise ValueError("truncated varint sequence")


def encode_zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one (small magnitudes stay small)."""
    return value << 1 if value >= 0 else ~(value << 1)


def decode_zigzag(value: int) -> int:
    """Inverse of :func:`encode_zigzag`."""
    return (value >> 1) ^ -(value & 1)


def encode_signed_varint(value: int) -> bytes:
    """Zigzag + varint encode a signed integer."""
    return encode_varint(encode_zigzag(value))


def decode_signed_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a zigzag + varint encoded signed integer."""
    raw, pos = decode_varint(data, offset)
    return decode_zigzag(raw), pos


def _zigzag_all(values: Iterable[int]) -> List[int]:
    """:func:`encode_zigzag` of every value, inlined: this is the per-point hot loop."""
    return [value << 1 if value >= 0 else ~(value << 1) for value in values]


def encode_signed_varints(values: Iterable[int]) -> bytes:
    """Concatenated zigzag varints of ``values``.

    Raises :class:`ValueError` outside
    ``[MIN_SIGNED_VARINT, MAX_SIGNED_VARINT]``.
    """
    return encode_varints(_zigzag_all(values))


def decode_signed_varints(data: bytes, offset: int, count: int) -> Tuple[List[int], int]:
    """Inverse of :func:`encode_signed_varints` (see :func:`decode_varints`)."""
    body = _varint_run(data, offset, count)
    small = _UNZIGZAG_BYTE
    if len(body) == count:  # every varint is a single byte
        values = [small[byte] for byte in body]
    else:
        values = [
            small[value] if value < 0x80 else (value >> 1) ^ -(value & 1)
            for value in _decode_run(body)
        ]
    return values, offset + len(body)


def int_to_bytes(value: int, length: int) -> bytes:
    """Big-endian fixed-width encoding of a non-negative integer."""
    return value.to_bytes(length, "big")


def int_from_bytes(data: bytes) -> int:
    """Big-endian decoding of a non-negative integer."""
    return int.from_bytes(data, "big")


def pack_varint_list(values: Iterable[int]) -> bytes:
    """Pack a sequence of signed integers as length-prefixed signed varints."""
    zigzagged = _zigzag_all(values)
    return encode_varint(len(zigzagged)) + encode_varints(zigzagged)


def unpack_varint_list(data: bytes, offset: int = 0) -> Tuple[List[int], int]:
    """Inverse of :func:`pack_varint_list`."""
    count, pos = decode_varint(data, offset)
    return decode_signed_varints(data, pos, count)


def to_u64(value: int) -> int:
    """Reduce an arbitrary integer into the unsigned 64-bit ring (mod 2^64)."""
    return value & _MASK_64


def from_u64_signed(value: int) -> int:
    """Interpret an unsigned 64-bit value as a two's-complement signed int."""
    value &= _MASK_64
    return value - (1 << 64) if value >= (1 << 63) else value
