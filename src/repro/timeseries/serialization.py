"""Binary serialization of encrypted chunks and digests (the storage format).

What the server stores per chunk window (paper §4.1, §4.6):

* an **encrypted chunk blob** — compressed points sealed with AES-GCM under a
  key derived from the HEAC keystream; opaque to the server,
* an **encrypted digest vector** — one HEAC ciphertext per digest component,
  which the server *can* aggregate (but not decrypt).

Records are keyed by ``stream-id || window-encoding`` (see
:func:`chunk_storage_key`), mirroring the paper's "identifier computed
on-the-fly from the temporal range boundaries" design.

The formats below are deliberately simple length-prefixed structures; they
stand in for the protobuf messages of the original prototype.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.crypto.heac import HEACCiphertext
from repro.exceptions import ChunkError, IndexError_
from repro.util.encoding import decode_varint, encode_varint

_MAGIC_CHUNK = b"TCC1"
_MAGIC_DIGEST = b"TCD1"


@dataclass(frozen=True)
class EncryptedChunk:
    """An encrypted chunk as stored by the server."""

    stream_uuid: str
    window_index: int
    payload: bytes  # AEAD blob over the compressed points
    digest: List[HEACCiphertext]
    num_points: int

    @property
    def size_bytes(self) -> int:
        return len(self.payload) + 8 * len(self.digest)


def encode_digest_vector(digest: Sequence[HEACCiphertext]) -> bytes:
    """Serialize a vector of HEAC ciphertexts."""
    out = bytearray(_MAGIC_DIGEST)
    out += encode_varint(len(digest))
    for ciphertext in digest:
        out += ciphertext.value.to_bytes(8, "big")
        out += encode_varint(ciphertext.window_start)
        out += encode_varint(ciphertext.window_end)
    return bytes(out)


def decode_digest_vector(blob: bytes) -> List[HEACCiphertext]:
    """Inverse of :func:`encode_digest_vector`.

    Any malformed blob — truncated anywhere, or carrying an empty or
    reversed window interval — raises :class:`ChunkError`.
    """
    if blob[:4] != _MAGIC_DIGEST:
        raise ChunkError("not a digest vector blob")
    digest: List[HEACCiphertext] = []
    try:
        count, pos = decode_varint(blob, 4)
        for _ in range(count):
            if pos + 8 > len(blob):
                raise ChunkError("truncated digest vector")
            value = int.from_bytes(blob[pos : pos + 8], "big")
            pos += 8
            window_start, pos = decode_varint(blob, pos)
            window_end, pos = decode_varint(blob, pos)
            digest.append(HEACCiphertext(value, window_start, window_end))
    except ValueError as exc:
        raise ChunkError(f"malformed digest vector: {exc}") from exc
    return digest


# -- index nodes as integer columns ------------------------------------------------
#
# A stored HEAC index node is ``varint(start) varint(end)`` followed by the
# digest vector of its cells, and every cell repeats the node's interval:
# ``TCD1 varint(width) (u64 value, varint(start), varint(end)) * width``.
# The engine's index holds a node as that interval plus a tuple of ring
# integers; these two functions convert without building a ciphertext per
# cell, and write exactly the bytes the ciphertext path writes.


@lru_cache(maxsize=64)
def _cell_layout(width: int, interval_bytes: int) -> struct.Struct:
    """``width`` cells of one u64 value plus the interval's varint bytes."""
    return struct.Struct(">" + f"Q{interval_bytes}s" * width)


def encode_index_node(window_start: int, window_end: int, values: Sequence[int]) -> bytes:
    """A node covering ``[window_start, window_end)`` whose cells hold ``values``."""
    interval = encode_varint(window_start) + encode_varint(window_end)
    fields: list = [interval] * (2 * len(values))
    fields[0::2] = values
    return (
        interval
        + _MAGIC_DIGEST
        + encode_varint(len(values))
        + _cell_layout(len(values), len(interval)).pack(*fields)
    )


def decode_index_node(blob: bytes) -> Tuple[int, int, Tuple[int, ...]]:
    """Inverse of :func:`encode_index_node`: ``(start, end, values)``.

    Every cell's interval bytes must equal the node's header, else
    :class:`~repro.exceptions.IndexError_` (as when a decoded ciphertext
    vector disagrees with its node); a truncated blob, a bad magic or bytes
    after the last cell raise :class:`ChunkError`.
    """
    try:
        window_start, pos = decode_varint(blob, 0)
        window_end, pos = decode_varint(blob, pos)
        width, body = decode_varint(blob, pos + 4)
    except ValueError as exc:
        raise ChunkError(f"malformed index node: {exc}") from exc
    if blob[pos : pos + 4] != _MAGIC_DIGEST:
        raise ChunkError("not a digest vector blob")
    # Sized before any layout is built: a hostile width cannot allocate.
    if len(blob) - body == width * (8 + pos):
        fields = _cell_layout(width, pos).unpack_from(blob, body)
        if fields[1::2].count(bytes(blob[:pos])) == width:
            return window_start, window_end, fields[0::2]
    # Malformed: say how, with the same errors as the ciphertext path.
    for cell in decode_digest_vector(blob[pos:]):
        if (cell.window_start, cell.window_end) != (window_start, window_end):
            raise IndexError_(
                f"digest cells cover [{cell.window_start}, {cell.window_end}), "
                f"expected [{window_start}, {window_end})"
            )
    raise ChunkError("trailing bytes after the index node's digest vector")


def encode_encrypted_chunk(chunk: EncryptedChunk) -> bytes:
    """Serialize an :class:`EncryptedChunk` for storage or the wire."""
    uuid_bytes = chunk.stream_uuid.encode("utf-8")
    digest_blob = encode_digest_vector(chunk.digest)
    out = bytearray(_MAGIC_CHUNK)
    out += encode_varint(len(uuid_bytes))
    out += uuid_bytes
    out += encode_varint(chunk.window_index)
    out += encode_varint(chunk.num_points)
    out += encode_varint(len(digest_blob))
    out += digest_blob
    out += encode_varint(len(chunk.payload))
    out += chunk.payload
    return bytes(out)


def decode_encrypted_chunk(blob: bytes) -> EncryptedChunk:
    """Inverse of :func:`encode_encrypted_chunk`.

    Accepts any bytes-like ``blob`` (the zero-copy wire path hands in
    memoryviews over frame buffers).  The returned chunk owns its payload as
    real bytes — chunks outlive the frame they arrived in.
    """
    if blob[:4] != _MAGIC_CHUNK:
        raise ChunkError("not an encrypted chunk blob")
    try:
        uuid_len, pos = decode_varint(blob, 4)
        stream_uuid = bytes(blob[pos : pos + uuid_len]).decode("utf-8")
        pos += uuid_len
        window_index, pos = decode_varint(blob, pos)
        num_points, pos = decode_varint(blob, pos)
        digest_len, pos = decode_varint(blob, pos)
        digest = decode_digest_vector(blob[pos : pos + digest_len])
        pos += digest_len
        payload_len, pos = decode_varint(blob, pos)
    except ValueError as exc:  # truncated varint, undecodable uuid
        raise ChunkError(f"malformed chunk blob: {exc}") from exc
    payload = bytes(blob[pos : pos + payload_len])
    if len(payload) != payload_len:
        raise ChunkError("truncated chunk payload")
    return EncryptedChunk(
        stream_uuid=stream_uuid,
        window_index=window_index,
        payload=payload,
        digest=digest,
        num_points=num_points,
    )


def peek_chunk_stream_uuid(blob: bytes) -> str:
    """The stream uuid of an encoded chunk, without decoding the chunk.

    The shard router needs only the uuid to place an ingest request; the
    encoding puts it right after the magic so routing costs one varint and a
    short slice instead of a full digest/payload decode.
    """
    if blob[:4] != _MAGIC_CHUNK:
        raise ChunkError("not an encrypted chunk blob")
    try:
        uuid_len, pos = decode_varint(blob, 4)
        uuid_bytes = bytes(blob[pos : pos + uuid_len])
        if len(uuid_bytes) != uuid_len:
            raise ChunkError("truncated chunk blob")
        return uuid_bytes.decode("utf-8")
    except ValueError as exc:
        raise ChunkError(f"malformed chunk blob: {exc}") from exc


def chunk_storage_key(stream_uuid: str, window_index: int) -> bytes:
    """Storage key of a chunk: stream id plus the window encoding."""
    return f"chunk/{stream_uuid}/{window_index:016x}".encode("ascii")


def index_node_storage_key(stream_uuid: str, level: int, position: int) -> bytes:
    """Storage key of an index node, derived from its temporal coordinates."""
    return f"index/{stream_uuid}/{level:02d}/{position:016x}".encode("ascii")


def metadata_storage_key(stream_uuid: str) -> bytes:
    """Storage key of a stream's metadata record."""
    return f"meta/{stream_uuid}".encode("ascii")
